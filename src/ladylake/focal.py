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
    """Whether L's path first dips toward the center (One) or not (Two)."""

    ONE = "One"
    TWO = "Two"


class Phase(enum.Enum):
    """Which side of the closest-approach circle r = s^2/mu L is on."""

    PRE_TANGENT = "PreTangent"
    POST_TANGENT = "PostTangent"


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
    sin_psi = omega_now * min(state.r, mu) / mu
    cos_psi = math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi))
    return ControlPair(cos_psi, sin_psi, omega_now)


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
    state: PolarState, s: float, phase: Phase, params: GameParams
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
    sin_psi = min(1.0, s * s / (mu * state.r))
    cos_mag = math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi))
    cos_psi = -cos_mag if phase is Phase.PRE_TANGENT else cos_mag
    return ControlPair(cos_psi, sin_psi, 1.0)


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


def _times(r: float, theta: float, s: float, case: EntryCase, mu: float) -> tuple[float, float]:
    a2 = s**4 / (mu * mu)  # squared closest-approach radius
    under_r = r * r - a2
    under_s = s * s - a2
    if under_r < -1e-12 or under_s < -1e-12:
        raise DomainError(
            f"no tangent path: r = {r}, s = {s} violate r >= s^2/mu"
        )
    leg_r = math.sqrt(max(0.0, under_r))
    leg_s = math.sqrt(max(0.0, under_s))
    ang_r = math.acos(min(1.0, max(-1.0, s * s / (mu * r))))
    ang_s = math.acos(min(1.0, max(-1.0, s / mu)))
    if case is EntryCase.ONE:
        t_lady = (leg_r + leg_s) / mu
        t_man = theta + ang_r + ang_s - math.pi
    else:
        t_lady = (leg_s - leg_r) / mu
        t_man = theta - ang_r + ang_s - math.pi
    return t_lady, t_man


def arrival_times(
    state: PolarState, s: float, case: EntryCase, params: GameParams
) -> tuple[float, float]:
    """Travel times of L (straight tangent path) and M (shore arc) to the
    aligned entry configuration (s, pi)."""
    if case is EntryCase.TWO and s < state.r - 1e-12:
        raise DomainError(f"case Two requires s >= r, got s = {s}, r = {state.r}")
    return _times(state.r, state.theta, s, case, params.mu)


def entry_delta(
    state: PolarState, s: float, case: EntryCase, params: GameParams
) -> float:
    """Arrival-time mismatch t_lady - t_man; its roots are entry candidates."""
    t_lady, t_man = arrival_times(state, s, case, params)
    return t_lady - t_man


def entry_root(r: float, theta: float, params: GameParams, case: EntryCase | None = None,
               hint: float | None = None) -> tuple[float, EntryCase] | None:
    """Entry radius and case through (r, theta) by the proof in solve_entry:
    None if the given case has no root in its bracket, NoRootError if no case
    is given and neither has one.  Safeguarded Newton steps start from hint."""
    mu = params.mu
    s_hi = min(mu, math.sqrt(mu * r))

    def delta(s: float, c: EntryCase) -> float:
        t_lady, t_man = _times(r, theta, s, c, mu)
        return t_lady - t_man

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
    for _ in range(100):
        f = delta(s, case)
        if f == 0.0:
            break
        a, b = (s, b) if up * f < 0.0 else (a, s)
        a2 = s**4 / (mu * mu)
        leg_r, leg_s = math.sqrt(max(0.0, r * r - a2)), math.sqrt(max(0.0, s * s - a2))
        # leg_r dDelta/ds = g (leg_r +- leg_s); at s_hi leg_r = 0, so the bracket halves.
        slope = (2.0 / mu) * math.sqrt(max(0.0, 1.0 - s * s / (mu * mu))) * (leg_r + up * leg_s)
        step = s - f * leg_r / slope if slope != 0.0 else s
        last, s = s, step if a < step < b else 0.5 * (a + b)
        if abs(s - last) <= params.tol_root:
            break
    return s, case


def _delta_grid(r: float, theta: float, grid: np.ndarray, case: EntryCase, mu: float) -> np.ndarray:
    s = grid
    a2 = s**4 / (mu * mu)
    under_r = r * r - a2
    under_s = s * s - a2
    with np.errstate(invalid="ignore"):
        leg_r = np.sqrt(np.clip(under_r, 0.0, None))
        leg_s = np.sqrt(np.clip(under_s, 0.0, None))
        ang_r = np.arccos(np.clip(s * s / (mu * r), -1.0, 1.0))
        ang_s = np.arccos(np.clip(s / mu, -1.0, 1.0))
    if case is EntryCase.ONE:
        t_lady = (leg_r + leg_s) / mu
        t_man = theta + ang_r + ang_s - math.pi
    else:
        t_lady = (leg_s - leg_r) / mu
        t_man = theta - ang_r + ang_s - math.pi
    delta = t_lady - t_man
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
        t_lady, t_man = _times(r, theta, s, case, mu)
        return t_lady - t_man

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
    t_lady, t_man = _times(r, theta, s, case, mu)
    total = time_on_focal_line(s, params) + t_lady
    return EntrySolution(s, case, t_lady, t_man, total)
