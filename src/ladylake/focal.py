"""Focal line at theta = pi and its tributary trajectories.

On the line 0 < r <= mu, theta = pi, L holds the angular separation at pi
by matching M's rate while drifting outward to the antipodal point.
Tributaries merge onto the line tangentially; each is indexed by its
entry radius s, found by equating the two agents' times of arrival.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .model import (
    ControlPair,
    DomainError,
    GameParams,
    NoRootError,
    PolarState,
    RegionError,
    Segment,
)

SCAN_POINTS = 4096
# Bound once for _newton, the entry kernel, which runs at every stage of a deviating run.
_PI, _sqrt, _atan2 = math.pi, math.sqrt, math.atan2


class EntryCase(enum.Enum):
    """Whether L's path first dips toward the center (One) or not (Two).

    It is also the phase of a tributary, which dips until it touches the
    closest-approach circle r = s^2/mu and runs outward after it.
    """

    ONE = "One"
    TWO = "Two"


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
    if not abs(omega_now) <= 1.0 + params.slack:
        raise DomainError(f"|omega_now| must be <= 1, got {omega_now}")
    return ControlPair(*fl_heading_at(min(state.r, mu), omega_now, mu), omega_now)


def fl_heading_at(r: float, omega: float, mu: float) -> tuple[float, float]:
    """(cos_psi, sin_psi) of fl_control on floats, unchecked: sin_psi =
    omega r/mu, clipped to [-1, 1]."""
    sin_psi = min(1.0, max(-1.0, omega * r / mu))
    return math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi)), sin_psi


def line_segment(
    t0: float, r0: float, th0: float, omega: float | Callable[[float], float], params: GameParams
) -> Segment:
    """L on the line under fl_control: theta holds and r = (mu/w) sin phi,
    phi = phi0 + w (t - t0), phi0 = asin(w r0/mu), with w = |omega| read at
    t0, which cannot change on the line.  E is reached at t1 = t0 + (asin w -
    phi0)/w, t0 + (mu - r0)/mu for w = 0, or t0 itself from within tol_event
    of mu.  Between the ends, with w > 0, phi is counted back from E as asin
    w - w (t1 - t) and the heading is (cos phi, sin phi) signed like
    omega(t): cos phi keeps the digits that sqrt(1 - sin^2) loses next to E.
    omega is a function of t, or a float where M's rate holds: read by no record."""
    rate, oms = (omega, lambda ts: map(omega, ts)) if callable(omega) else (lambda t: omega, lambda ts: repeat(omega))
    mu, w = params.mu, abs(rate(t0))
    phi0, phi1 = math.asin(min(1.0, w * r0 / mu)), math.asin(w)
    t1 = t0 if mu - r0 <= params.tol_event else t0 + ((phi1 - phi0) / w if w else (mu - r0) / mu)

    def on_r(rs: list[float], part: list[float]):
        """rs with the headings fl_heading_at gives there."""
        heads = [fl_heading_at(r, om, mu) for r, om in zip(rs, oms(part))]
        return rs, [c for c, _ in heads], [s for _, s in heads]

    def state(ts: list[float]):
        j = bisect_right(ts, t0)  # ts[:j] are clamped to t0, ts[i:] to t1
        i, n = max(j, bisect_left(ts, t1)), len(ts)
        mid = ts[j:i]
        if w:
            phis = [phi1 - w * (t1 - t) for t in mid]
            sins = list(map(math.sin, phis))
            body = ([mu / w * x for x in sins], list(map(math.cos, phis)),
                    list(map(math.copysign, sins, oms(mid))))
        else:
            body = on_r([r0 + mu * (t - t0) for t in mid], mid)
        rs, cs, ss = (h + b + e for h, b, e in zip(on_r([r0] * j, ts[:j]), body, on_r([mu] * (n - i), ts[i:])))
        return rs, [th0] * n, cs, ss

    return Segment("focal_line", t0, t1, state, rate)


def time_on_focal_line(s: float, params: GameParams) -> float:
    """Time to drift from radius s to the antipodal radius mu along the line."""
    mu = params.mu
    if not 0.0 <= s <= mu + params.slack:
        raise DomainError(f"entry radius must lie in [0, mu], got {s}")
    return 0.5 * math.pi - math.asin(min(1.0, s / mu))


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
    if not 0.0 < s <= mu + params.slack:
        raise DomainError(f"entry radius must lie in (0, mu], got {s}")
    if state.r < s * s / mu - params.tol_event - params.slack:
        raise DomainError(
            f"r = {state.r} is under the closest-approach circle {s * s / mu}"
        )
    return ControlPair(*tributary_heading_at(state.r, s, phase, mu), 1.0)


def tributary_heading_at(r: float, s: float, phase: EntryCase, mu: float) -> tuple[float, float]:
    """(cos_psi, sin_psi) of tributary_heading on floats, unchecked."""
    sin_psi = min(1.0, s * s / (mu * r))
    cos_psi = math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi))
    return (-cos_psi if phase is EntryCase.ONE else cos_psi), sin_psi


def tributary_segment(
    t0: float, r0: float, th0: float, params: GameParams
) -> tuple[Segment, float | None]:
    """L's straight path tangent to r = a = s^2/mu, with (s, case) from one
    entry_root: d = d0 + mu (t - t0) with d0 = -leg_r in case One and +leg_r
    in case Two, r = hypot(a, d), theta = th0 - (t - t0) + atan2(d, a) -
    atan2(d0, a), and the heading is (d, a)/r.  She enters the focal line at
    t0 + (leg_s - d0)/mu; returned with the time t0 - d0/mu at which she
    touches the circle, or None in case Two."""
    mu = params.mu
    s, case = entry_root(r0, th0, params)
    a = s * s / mu
    leg_r, leg_s, _, _ = _legs(r0, s, mu)
    d0 = -leg_r if case is EntryCase.ONE else leg_r
    t1, phi0 = t0 + (leg_s - d0) / mu, math.atan2(d0, a)

    def state(ts: list[float]):
        j = bisect_right(ts, t0)  # ts[:j] are clamped to t0, ts[i:] to t1
        i, n = max(j, bisect_left(ts, t1)), len(ts)
        mid = ts[j:i]
        ds = [d0 + mu * (t - t0) for t in mid]
        rs = [math.hypot(a, d) for d in ds]
        ths = [th0 - (t - t0) + math.atan2(d, a) - phi0 for t, d in zip(mid, ds)]
        return ([r0] * j + rs + [s] * (n - i), [th0] * j + ths + [math.pi] * (n - i),
                [d0 / r0] * j + [d / r for d, r in zip(ds, rs)] + [leg_s / s] * (n - i),
                [a / r0] * j + [a / r for r in rs] + [a / s] * (n - i))

    t_tangency = t0 - d0 / mu if case is EntryCase.ONE else None
    return Segment("focal_tributary", t0, t1, state, lambda t: 1.0), t_tangency


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
    """Tangent legs from r and from s to the closest-approach circle r = a =
    s^2/mu, then the arc angles acos(a/r) and acos(s/mu) as atan2s, which keep
    the digits acos loses near 1.  A leg is 0 where a rounds an ulp past r or
    s, at s = sqrt(mu r) or s = mu."""
    a = s * s / mu
    under_r, under_s = (r - a) * (r + a), (s - a) * (s + a)
    if under_r < -GameParams.slack or under_s < -GameParams.slack:
        raise DomainError(f"no tangent path: r = {r}, s = {s} violate r >= s^2/mu")
    leg_r = math.sqrt(under_r) if under_r > 0.0 else 0.0
    leg_s = math.sqrt(under_s) if under_s > 0.0 else 0.0
    return leg_r, leg_s, math.atan2(leg_r, a), math.atan2(math.sqrt((mu - s) * (mu + s)), s)


def _times(legs, theta, case: EntryCase, mu: float):
    """(t_lady, t_man) from the legs and angles of _legs, floats or numpy arrays."""
    leg_r, leg_s, ang_r, ang_s = legs
    if case is EntryCase.ONE:
        return (leg_r + leg_s) / mu, theta + ang_r + ang_s - math.pi
    return (leg_s - leg_r) / mu, theta - ang_r + ang_s - math.pi


def entry_delta(
    state: PolarState, s: float, case: EntryCase, params: GameParams
) -> float:
    """Arrival-time mismatch of L (straight tangent path) over M (shore arc)
    at the aligned entry configuration (s, pi); its roots are entry candidates."""
    if case is EntryCase.TWO and s < state.r - params.slack:
        raise DomainError(f"case Two requires s >= r, got s = {s}, r = {state.r}")
    return _newton(state.r, state.theta, s, case, params.mu)[0]


def _newton(r: float, theta: float, s: float, case: EntryCase, mu: float) -> tuple[float, float]:
    """Delta = t_lady - t_man at s and the Newton iterate from s by leg_r dDelta/ds
    = g (leg_r +- leg_s): _legs and _times written out, each float operation in
    their order, so Delta is theirs bit for bit."""
    a = s * s / mu
    under_r, under_s = (r - a) * (r + a), (s - a) * (s + a)
    if under_r < -GameParams.slack or under_s < -GameParams.slack:
        raise DomainError(f"no tangent path: r = {r}, s = {s} violate r >= s^2/mu")
    leg_r = _sqrt(under_r) if under_r > 0.0 else 0.0
    leg_s = _sqrt(under_s) if under_s > 0.0 else 0.0
    ang_r, ang_s = _atan2(leg_r, a), _atan2(_sqrt((mu - s) * (mu + s)), s)
    cos2 = 1.0 - s * s / (mu * mu)
    g = (2.0 / mu) * _sqrt(cos2) if cos2 > 0.0 else 0.0
    if case is EntryCase.ONE:
        f = (leg_r + leg_s) / mu - (theta + ang_r + ang_s - _PI)
        slope = g * (leg_r + leg_s)
    else:
        f = (leg_s - leg_r) / mu - (theta - ang_r + ang_s - _PI)
        slope = g * (leg_r - leg_s)
    return f, (s - f * leg_r / slope if slope != 0.0 else s)


def entry_track(r: float, theta: float, params: GameParams, case: EntryCase,
                s: float, _seen: dict | None = None) -> tuple[float, EntryCase] | None:
    """entry_root's (s, case) by Newton steps d1, d2 from a predicted s; None unless
    both stay in the bracket, |d2| <= |d1|/2, their error (d2/d1)^2 |d2| <= tol_root,
    and up Delta >= 0 at an iterate or else at s_hi (up Delta increases: the case test).
    The (Delta, iterate) pairs it makes go into _seen by radius, so that where it
    declines, entry_root on the same state, case and hint reads them."""
    mu, up = params.mu, (1.0 if case is EntryCase.ONE else -1.0)
    lo, hi = (0.0 if up > 0.0 else r), min(mu, math.sqrt(mu * r))
    if not lo < s < hi:
        return None
    seen = {} if _seen is None else _seen
    f0, s1 = seen[s] = _newton(r, theta, s, case, mu)
    if s1 == s or not lo < s1 < hi:
        return None
    f1, s2 = seen[s1] = _newton(r, theta, s1, case, mu)
    d1, d2 = s1 - s, s2 - s1
    if lo < s2 < hi and abs(d2) <= 0.5 * abs(d1) and (d2 / d1) ** 2 * abs(d2) <= params.tol_root:
        if max(up * f0, up * f1) >= 0.0 or up * seen.setdefault(hi, _newton(r, theta, hi, case, mu))[0] >= 0.0:
            return s2, case
    return None


def entry_root(r: float, theta: float, params: GameParams, case: EntryCase | None = None,
               hint: float | None = None, _seen: dict | None = None) -> tuple[float, EntryCase] | None:
    """Entry radius and case through (r, theta) by the proof in solve_entry:
    None if the given case has no root in its bracket, NoRootError if no case
    is given and the picked case has none.  Safeguarded Newton steps start from
    hint and stop once Delta changes sign within tol_root of the returned
    radius; a (Delta, iterate) pair in _seen, from entry_track or from the
    pick's Delta_1(s_hi), which ends either case's bracket because the cases
    meet there (in a copy: _seen is keyed by radius alone), is read, not made again."""
    mu, seen = params.mu, _seen or {}
    s_hi = min(mu, math.sqrt(mu * r))
    if pick := case is None:
        one = _newton(r, theta, s_hi, EntryCase.ONE, mu)
        case, seen = (EntryCase.ONE if one[0] >= 0.0 else EntryCase.TWO), {**seen, s_hi: one}
    up = 1.0 if case is EntryCase.ONE else -1.0  # the sign of dDelta/ds
    a, b = (0.0 if up > 0.0 else r), s_hi
    # Delta(a) from the proof: rounding in _times can flip its sign at 0.
    fa, fb = (r / mu if up > 0.0 else math.pi) - theta, (seen.get(b) or _newton(r, theta, b, case, mu))[0]
    if not a < b or up * fa > 0.0 or up * fb < 0.0:
        if pick:
            raise NoRootError(f"no focal-line entry radius for state (r={r}, theta={theta})")
        return None
    if fa == 0.0 or fb == 0.0:
        return (a if fa == 0.0 else b), case
    s = 0.5 * (a + b) if hint is None else min(max(hint, a), b)
    cand = None  # the end of a short step, returned once Delta changes sign past it
    for _ in range(100):
        f, step = seen.get(s) or _newton(r, theta, s, case, mu)
        if cand is not None and (up * f >= 0.0) == (s > cand):
            return cand, case
        if f == 0.0:
            return s, case
        a, b = (s, b) if up * f < 0.0 else (a, s)
        # At s_hi the Newton iterate is s itself, so the bracket halves.
        last, s, cand = s, step if a < step < b else 0.5 * (a + b), None
        if abs(s - last) <= params.tol_root:
            # A short step proves nothing near s_hi, where the slope is infinite,
            # so probe tol_root past it; without a sign change go on from there.
            cand, s = s, s + math.copysign(params.tol_root, s - last)
            if not a < s < b:
                return cand, case
    return s, case


def _scan_case(r: float, theta: float, lo: float, hi: float, case: EntryCase,
               params: GameParams, f_lo: float, f_hi: float) -> float | None:
    """The mismatch's first root on [lo, hi], or None: a SCAN_POINTS grid with
    the legs and angles of _legs taken in numpy and its end values pinned to
    f_lo and f_hi, then the first sign change bisected.  s <= sqrt(mu r) keeps
    every leg real.  numpy is imported here, so only a scan loads it."""
    if hi <= lo:
        return None
    import numpy as np

    mu = params.mu
    grid = np.linspace(lo, hi, SCAN_POINTS)
    a = grid * grid / mu
    leg_r = np.sqrt(np.clip((r - a) * (r + a), 0.0, None))
    legs = (leg_r, np.sqrt(np.clip((grid - a) * (grid + a), 0.0, None)),
            np.arctan2(leg_r, a), np.arctan2(np.sqrt((mu - grid) * (mu + grid)), grid))
    t_lady, t_man = _times(legs, theta, case, mu)
    values = t_lady - t_man
    values[0], values[-1] = f_lo, f_hi
    pts, vals = grid.tolist(), values.tolist()
    # Every pair is compared: stopping at the first sign change runs `query` 1.5x as
    # fast, so perfbench keeps 1.5x the per-op samples and its peak_rss_mb grows 12%.
    flips = [i for i in range(SCAN_POINTS - 1)
             if vals[i] == 0.0 or math.copysign(1.0, vals[i]) != math.copysign(1.0, vals[i + 1])]
    if not flips:
        return None
    i = flips[0]  # so [a, b] holds a sign change, or a zero at an end
    a, b, f_a = pts[i], pts[i + 1], vals[i]
    if f_a == 0.0 or vals[i + 1] == 0.0:
        return a if f_a == 0.0 else b
    while True:
        m = 0.5 * (a + b)
        if b - a <= params.tol_root or m == a or m == b:
            return m
        f_m = _newton(r, theta, m, case, mu)[0]
        if f_m == 0.0:
            return m
        a, b, f_a = (m, b, f_m) if math.copysign(1.0, f_m) == math.copysign(1.0, f_a) else (a, m, f_a)


def solve_entry(state: PolarState, params: GameParams) -> EntrySolution:
    """Entry radius for the tributary through a state: the root of the
    arrival-time mismatch, in the case that the sign of Delta_1(s_hi) picks.

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
    exactly one.  As in entry_root, that one value picks the case and ends
    its bracket at s_hi, and the proof's Delta(lo) ends it below, so only the
    picked case is scanned: NoRootError where its bracket is empty.
    """
    mu = params.mu
    r, theta = state.r, state.theta
    if r < params.eps_r:
        raise DomainError(f"r = {r} below cutoff {params.eps_r}")

    # The mismatch is regular at s = 0 (it limits to r/mu - theta), and
    # near the partition theta = r/mu the root can be arbitrarily small,
    # so the inward-dipping scan starts at zero.
    s_hi = min(mu, math.sqrt(mu * r))
    f_hi = _newton(r, theta, s_hi, EntryCase.ONE, mu)[0]
    if f_hi >= 0.0:
        case, lo, f_lo = EntryCase.ONE, 0.0, r / mu - theta
    else:
        case, lo, f_lo = EntryCase.TWO, r, math.pi - theta
    s = _scan_case(r, theta, lo, s_hi, case, params, f_lo, f_hi)
    if s is None:
        raise NoRootError(f"no focal-line entry radius for state (r={r}, theta={theta})")
    t_lady, t_man = _times(_legs(r, s, mu), theta, case, mu)
    total = time_on_focal_line(s, params) + t_lady
    return EntrySolution(s, case, t_lady, t_man, total)
