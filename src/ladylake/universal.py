"""Universal line at theta = 0 and its tributary trajectories.

When M is directly behind L she heads straight for the center of the
lake, emerges on the antipodal side, and finishes on the focal line.
Tributaries exist only where M can realign before L reaches the center,
i.e. theta <= r/mu.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .model import ControlPair, DomainError, GameParams, PolarState, RegionError, Segment


@dataclass(frozen=True)
class UlSample:
    """Retrograde flowfield sample; r_exit = 0 gives the limiting line
    theta = r/mu that bounds the tributary region."""

    tau: float
    r: float
    theta: float


def ul_control(state: PolarState, params: GameParams) -> ControlPair:
    """On-line control: L heads for the center, M stands still."""
    if state.theta > params.tol_event:
        raise RegionError(f"state with theta = {state.theta} is not on the universal line")
    return ControlPair(-1.0, 0.0, 0.0)


def ul_tributary_heading(state: PolarState, params: GameParams) -> ControlPair:
    """Tributary heading: straight at the center regardless of M.

    M's rate does not enter the outcome here, so omega = 1 is reported
    with the arbitrary flag set.
    """
    if state.theta > state.r / params.mu + params.tol_event:
        raise RegionError(
            f"theta = {state.theta} exceeds r/mu = {state.r / params.mu}; "
            "no universal-line tributary"
        )
    return ControlPair(-1.0, 0.0, 1.0, omega_arbitrary=True)


def time_to_antipode(state: PolarState, params: GameParams) -> float:
    """Equilibrium time to the antipodal point: r/mu to the center plus the
    quarter-period focal-line drift from the center."""
    if state.theta > state.r / params.mu + params.tol_event:
        raise RegionError(
            f"theta = {state.theta} exceeds r/mu = {state.r / params.mu}"
        )
    return 0.5 * math.pi + state.r / params.mu


def path_segment(t0: float, r0: float, th0: float, on_line: bool, params: GameParams) -> Segment:
    """L heads for the centre, r = r0 - mu (t - t0).  On a tributary M runs
    at 1, so theta = th0 - (t - t0) reaches 0 at t0 + th0; on the line he
    stands still, theta holds, and she reaches the centre at t0 + r0/mu."""
    mu, om = params.mu, 0.0 if on_line else 1.0
    t1 = t0 + (r0 / mu if on_line else th0)

    def state(ts: list[float]):
        j, i, n = bisect_left(ts, t0), bisect_left(ts, t1), len(ts)  # ts[:j] are clamped to t0, ts[i:] to t1
        taus = [0.0] * j + [t - t0 for t in ts[j:i]]
        rs = [r0 - mu * tau for tau in taus] + [0.0 if on_line else r0 - mu * (t1 - t0)] * (n - i)
        ths = [th0] * n if on_line else [th0 - tau for tau in taus] + [0.0] * (n - i)
        return rs, ths, [-1.0] * n, [0.0] * n

    kind = "universal_line" if on_line else "universal_tributary"
    return Segment(kind, t0, t1, state, lambda t: om)


def flowfield_sample(tau: float, params: GameParams, r_exit: float = 0.0) -> UlSample:
    """Retrograde tributary state tau before reaching theta = 0 at r_exit."""
    if tau < 0.0:
        raise DomainError(f"retrograde time must be >= 0, got {tau}")
    if not 0.0 <= r_exit < 1.0:
        raise DomainError(f"r_exit must lie in [0, 1), got {r_exit}")
    return UlSample(tau, r_exit + params.mu * tau, tau)
