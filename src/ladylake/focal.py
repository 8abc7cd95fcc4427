"""Focal line at theta = pi and its tributary trajectories.

On the line 0 < r <= mu, theta = pi, L holds the angular separation at pi
by matching M's rate while drifting outward to the antipodal point.
Tributaries merge onto the line tangentially; each is indexed by its
entry radius s, found by equating the two agents' times of arrival.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ControlPair,
    DomainError,
    GameParams,
    NoRootError,
    PolarState,
    RegionError,
)
from .rootfind import bisect, grid_brackets

SCAN_POINTS = 4096


class EntryCase(enum.Enum):
    """Whether L's path first dips toward the center (One) or not (Two).

    It is also the phase of a tributary, which dips until it touches the
    closest-approach circle r = s^2/mu and runs outward after it.
    """

    ONE = "One"
    TWO = "Two"
    PRE_TANGENT = "One"
    POST_TANGENT = "Two"


Phase = EntryCase


@dataclass(frozen=True)
class EntrySolution:
    """Entry radius s with both agents' times of arrival; total_time adds
    the time spent on the focal line itself."""

    s: float
    case: EntryCase
    t_lady: float
    t_man: float
    total_time: float


@dataclass(frozen=True)
class FlowfieldSample:
    tau: float
    r: float
    theta: float
    s: float


def fl_control(state: PolarState, omega_now: float, params: GameParams) -> ControlPair:
    """On-line control: L cancels theta drift against M's instantaneous rate.

    Requires knowing omega_now; this is the only place where L's strategy
    uses M's control rather than the state alone.
    """
    mu = params.mu
    if abs(state.theta - math.pi) > params.tol_event:
        raise RegionError(f"state with theta = {state.theta} is not on the focal line")
    if state.r > mu + params.tol_event:
        raise DomainError(f"focal line requires r <= mu, got r = {state.r}")
    if abs(omega_now) > 1.0 + 1e-12:
        raise DomainError(f"|omega_now| must be <= 1, got {omega_now}")
    return ControlPair(*fl_heading_at(min(state.r, mu), omega_now, mu), omega_now)


def fl_heading_at(r: float, omega: float, mu: float) -> tuple[float, float]:
    """(cos_psi, sin_psi) of fl_control on floats, unchecked: sin_psi =
    omega r/mu, clipped to [-1, 1]."""
    sin_psi = min(1.0, max(-1.0, omega * r / mu))
    return math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi)), sin_psi


def time_on_focal_line(s: float, params: GameParams) -> float:
    """Time to drift from radius s to the antipodal radius mu along the line."""
    mu = params.mu
    if not 0.0 <= s <= mu + 1e-12:
        raise DomainError(f"entry radius must lie in [0, mu], got {s}")
    return 0.5 * math.pi - math.asin(min(1.0, s / mu))


def tangency_radius(s: float, params: GameParams) -> float:
    """Closest-approach radius s^2/mu of the tributary with entry radius s."""
    return s * s / params.mu


def tangency_time(s: float, params: GameParams) -> float:
    """Retrograde time at which the tributary touches r = s^2/mu."""
    mu = params.mu
    if not 0.0 < s <= mu:
        raise DomainError(f"entry radius must lie in (0, mu], got {s}")
    return s / mu * math.sqrt(max(0.0, 1.0 - s * s / (mu * mu)))


def tributary_heading(
    state: PolarState, s: float, phase: EntryCase, params: GameParams
) -> ControlPair:
    """Equilibrium heading along a tributary with entry radius s.

    The radial component points inward before the closest approach and
    outward after it; the tangential component is s^2/(mu r) throughout.
    """
    mu = params.mu
    if not 0.0 < s <= mu + 1e-12:
        raise DomainError(f"entry radius must lie in (0, mu], got {s}")
    if state.r < s * s / mu - params.tol_event - 1e-12:
        raise DomainError(
            f"r = {state.r} is under the closest-approach circle {s * s / mu}"
        )
    return ControlPair(*tributary_heading_at(state.r, s, phase, mu), 1.0)


def tributary_heading_at(r: float, s: float, phase: EntryCase, mu: float) -> tuple[float, float]:
    """(cos_psi, sin_psi) of tributary_heading on floats, unchecked."""
    sin_psi = min(1.0, s * s / (mu * r))
    cos_psi = math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi))
    return (-cos_psi if phase is EntryCase.ONE else cos_psi), sin_psi


def flowfield_sample(s: float, tau: float, params: GameParams) -> FlowfieldSample:
    """Closed-form tributary state at retrograde time tau from entry (s, pi).

    Valid for any tau >= 0; the caller truncates where the sample leaves
    the lake or the canonical half-plane.
    """
    mu = params.mu
    if not 0.0 < s <= mu:
        raise DomainError(f"entry radius must lie in (0, mu], got {s}")
    if tau < 0.0:
        raise DomainError(f"retrograde time must be >= 0, got {tau}")
    q = mu * mu / (s * s)
    root = math.sqrt(max(0.0, q - 1.0))
    r = math.sqrt(max(0.0, s * s - 2.0 * tau * s * math.sqrt(mu * mu - s * s) + mu * mu * tau * tau))
    theta = math.pi + tau - math.atan(q * tau - root) - math.atan(root)
    return FlowfieldSample(tau, r, theta, s)


def _legs(r: float, s: float, mu: float) -> tuple[float, float, float, float]:
    """Tangent legs from r and from s to the closest-approach circle, then
    the arc angles acos(s^2/(mu r)) and acos(s/mu)."""
    a2 = s**4 / (mu * mu)  # squared closest-approach radius
    under_r = r * r - a2
    under_s = s * s - a2
    if under_r < -1e-12 or under_s < -1e-12:
        raise DomainError(
            f"no tangent path: r = {r}, s = {s} violate r >= s^2/mu"
        )
    return (
        math.sqrt(max(0.0, under_r)),
        math.sqrt(max(0.0, under_s)),
        math.acos(min(1.0, max(-1.0, s * s / (mu * r)))),
        math.acos(min(1.0, max(-1.0, s / mu))),
    )


def _times(legs, theta, case: EntryCase, mu: float):
    """(t_lady, t_man) from the legs and angles of _legs, floats or numpy arrays."""
    leg_r, leg_s, ang_r, ang_s = legs
    if case is EntryCase.ONE:
        return (leg_r + leg_s) / mu, theta + ang_r + ang_s - math.pi
    return (leg_s - leg_r) / mu, theta - ang_r + ang_s - math.pi


def _delta(times):
    """Arrival-time mismatch of a (t_lady, t_man) pair; its roots are entry radii."""
    t_lady, t_man = times
    return t_lady - t_man


def arrival_times(
    state: PolarState, s: float, case: EntryCase, params: GameParams
) -> tuple[float, float]:
    """Travel times of L (straight tangent path) and M (shore arc) to the
    aligned entry configuration (s, pi)."""
    if case is EntryCase.TWO and s < state.r - 1e-12:
        raise DomainError(f"case Two requires s >= r, got s = {s}, r = {state.r}")
    return _times(_legs(state.r, s, params.mu), state.theta, case, params.mu)


def entry_delta(
    state: PolarState, s: float, case: EntryCase, params: GameParams
) -> float:
    """Arrival-time mismatch of L over M; its roots are entry candidates."""
    return _delta(arrival_times(state, s, case, params))


def entry_root(r: float, theta: float, params: GameParams, case: EntryCase | None = None,
               hint: float | None = None) -> tuple[float, EntryCase] | None:
    """Entry radius and case through (r, theta) by the proof in solve_entry:
    None if the given case has no root in its bracket, NoRootError if no case
    is given and neither has one.  Safeguarded Newton steps start from hint and
    stop once Delta changes sign within tol_root of the returned radius."""
    mu = params.mu
    s_hi = min(mu, math.sqrt(mu * r))

    def delta(s: float, c: EntryCase) -> float:
        return _delta(_times(_legs(r, s, mu), theta, c, mu))

    pick = case is None
    if pick:
        case = EntryCase.ONE if delta(s_hi, EntryCase.ONE) >= 0.0 else EntryCase.TWO
    up = 1.0 if case is EntryCase.ONE else -1.0  # the sign of dDelta/ds
    a, b = (0.0 if up > 0.0 else r), s_hi
    # Delta(a) from the proof: rounding in _times can flip its sign at 0.
    fa, fb = (r / mu if up > 0.0 else math.pi) - theta, delta(b, case)
    if not a < b or up * fa > 0.0 or up * fb < 0.0:
        if pick:
            raise NoRootError(f"no focal-line entry radius for state (r={r}, theta={theta})")
        return None
    if fa == 0.0 or fb == 0.0:
        return (a if fa == 0.0 else b), case
    s = 0.5 * (a + b) if hint is None else min(max(hint, a), b)
    cand = None  # the end of a short step, returned once Delta changes sign past it
    for _ in range(100):
        leg_r, leg_s, _, _ = legs = _legs(r, s, mu)
        f = _delta(_times(legs, theta, case, mu))
        if cand is not None and (up * f >= 0.0) == (s > cand):
            return cand, case
        if f == 0.0:
            return s, case
        a, b = (s, b) if up * f < 0.0 else (a, s)
        # leg_r dDelta/ds = g (leg_r +- leg_s); at s_hi leg_r = 0, so the bracket halves.
        slope = (2.0 / mu) * math.sqrt(max(0.0, 1.0 - s * s / (mu * mu))) * (leg_r + up * leg_s)
        step = s - f * leg_r / slope if slope != 0.0 else s
        last, s, cand = s, step if a < step < b else 0.5 * (a + b), None
        if abs(s - last) <= params.tol_root:
            # A short step proves nothing near s_hi, where the slope is infinite,
            # so probe tol_root past it; without a sign change go on from there.
            cand, s = s, s + math.copysign(params.tol_root, s - last)
            if not a < s < b:
                return cand, case
    return s, case


def _delta_grid(r: float, theta: float, s: np.ndarray, case: EntryCase, mu: float) -> np.ndarray:
    """The mismatch over a grid of entry radii, with the legs and angles of
    _legs taken in numpy; NaN where r < s^2/mu."""
    a2 = s**4 / (mu * mu)
    under_r = r * r - a2
    legs = (
        np.sqrt(np.clip(under_r, 0.0, None)),
        np.sqrt(np.clip(s * s - a2, 0.0, None)),
        np.arccos(np.clip(s * s / (mu * r), -1.0, 1.0)),
        np.arccos(np.clip(s / mu, -1.0, 1.0)),
    )
    delta = _delta(_times(legs, theta, case, mu))
    delta[under_r < -1e-12] = np.nan
    return delta


def _scan_case(
    r: float, theta: float, lo: float, hi: float, case: EntryCase, params: GameParams
) -> list[float]:
    if hi <= lo:
        return []
    mu = params.mu
    grid = np.linspace(lo, hi, SCAN_POINTS)
    values = _delta_grid(r, theta, grid, case, mu)

    def f(s: float) -> float:
        return _delta(_times(_legs(r, s, mu), theta, case, mu))

    roots = []
    pts = grid.tolist()
    vals = values.tolist()
    for i, j in grid_brackets(pts, vals):
        roots.append(
            float(bisect(f, pts[i], pts[j], params.tol_root, fa=vals[i], fb=vals[j]))
        )
    return roots


def solve_entry(state: PolarState, params: GameParams) -> EntrySolution:
    """Entry radius for the tributary through a state: smallest root of the
    arrival-time mismatch, trying the inward-dipping case first.

    The scan domains are truncated so every square root stays real:
    s <= sqrt(mu r) keeps the tangent leg real, and the outward-only case
    additionally needs s >= r.

    Each case has at most one root.  With a = s^2/mu, the closest-approach
    radius, and g = (2/mu) sqrt(1 - s^2/mu^2) >= 0, the mismatches obey

        dDelta_1/ds = g (1 + sqrt(s^2 - a^2) / sqrt(r^2 - a^2)) > 0,
        dDelta_2/ds = g (1 - sqrt(s^2 - a^2) / sqrt(r^2 - a^2)) <= 0,

    the second because s >= r in case Two.  Delta_1(0) = r/mu - theta < 0
    on a focal tributary, Delta_2(r) = pi - theta >= 0, and for r < mu the
    two cases meet at s_hi = sqrt(mu r), where the tangent leg vanishes.
    So case One has a root iff Delta_1(s_hi) >= 0; otherwise case Two has
    exactly one.
    """
    mu = params.mu
    r, theta = state.r, state.theta
    if r < params.eps_r:
        raise DomainError(f"r = {r} below cutoff {params.eps_r}")

    # The mismatch is regular at s = 0 (it limits to r/mu - theta), and
    # near the partition theta = r/mu the root can be arbitrarily small,
    # so the inward-dipping scan starts at zero.
    s_hi = min(mu, math.sqrt(mu * r))
    roots1 = _scan_case(r, theta, 0.0, s_hi, EntryCase.ONE, params)
    if roots1:
        s = min(roots1)
        case = EntryCase.ONE
    else:
        lo2 = r
        hi2 = min(mu, math.sqrt(mu * r))
        roots2 = _scan_case(r, theta, lo2, hi2, EntryCase.TWO, params) if hi2 >= lo2 else []
        if not roots2:
            raise NoRootError(
                f"no focal-line entry radius for state (r={r}, theta={theta})"
            )
        s = min(roots2)
        case = EntryCase.TWO
    t_lady, t_man = _times(_legs(r, s, mu), theta, case, mu)
    total = time_on_focal_line(s, params) + t_lady
    return EntrySolution(s, case, t_lady, t_man, total)
