"""Classical min-max terminal-angle game: controls, value, and barrier.

L maximizes the angular separation theta_f at the moment she reaches the
shore while M minimizes it.  The equilibrium heading exists only for
r >= mu; from the antipodal radius the guaranteed separation is
escape_angle(params), which is positive iff mu exceeds critical_mu().
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import (ControlPair, DomainError, GameParams, PolarState, RegionError, Segment,
                    classical_drift)
from .rootfind import bisect


class BarrierSide(enum.Enum):
    ABOVE = "Above"
    ON = "On"
    BELOW = "Below"


@dataclass(frozen=True)
class ClassicalSolution:
    """Equilibrium terminal angle and controls at a query state."""

    value: float
    heading: ControlPair
    omega: float = 1.0


def classical_heading(state: PolarState, params: GameParams) -> ControlPair:
    """Equilibrium heading for L: away from the tangent to the mu-circle.

    Undefined for r < mu, where L has angular-rate advantage and the
    min-time game takes over.
    """
    mu = params.mu
    if state.r < mu - params.slack:
        raise RegionError(f"classical heading undefined for r = {state.r} < mu = {mu}")
    return ControlPair(*classical_heading_at(max(state.r, mu), mu), 1.0)


def classical_heading_at(r: float, mu: float) -> tuple[float, float]:
    """(cos_psi, sin_psi) of classical_heading on floats, unchecked: sin_psi = mu/r."""
    sin_psi = mu / r
    return math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi)), sin_psi


def classical_value(state: PolarState, params: GameParams) -> float:
    """Equilibrium terminal angle theta_f from (r, theta), r >= mu."""
    mu = params.mu
    if state.r < mu - params.slack:
        raise RegionError(f"classical value undefined for r = {state.r} < mu = {mu}")
    return state.theta - classical_drift(1.0, mu) + classical_drift(max(state.r, mu), mu)


def path_segment(t0: float, r0: float, th0: float, params: GameParams) -> Segment:
    """Equilibrium play from r0 >= mu to the shore: sin psi = mu/r keeps L on
    a tangent to the mu-circle, so r = hypot(mu, u) with u = sqrt(r0^2 - mu^2)
    + mu (t - t0), and theta + classical_drift(r) holds.  The shore is reached
    at u = sqrt(1 - mu^2), or at t0 from r0 >= 1 - tol_event."""
    mu = params.mu
    u0, v = math.sqrt(max(0.0, r0 * r0 - mu * mu)), th0 + classical_drift(r0, mu)
    t1 = t0 if r0 >= 1.0 - params.tol_event else t0 + (math.sqrt(1.0 - mu * mu) - u0) / mu

    def state(t: float):
        r = r0 if t <= t0 else 1.0 if t >= t1 else math.hypot(mu, u0 + mu * (t - t0))
        th = th0 if t <= t0 else v - classical_drift(r, mu)
        return (r, th, *classical_heading_at(r, mu))

    return Segment("classical", t0, t1, state, lambda t: 1.0)


def escape_angle(params: GameParams) -> float:
    """Guaranteed terminal separation when starting from the antipodal point.

    May be negative below the critical speed ratio.
    """
    return math.pi - classical_drift(1.0, params.mu)


def critical_mu() -> float:
    """Speed ratio at which the guaranteed escape angle vanishes.

    Found by bracketing plus bisection; the game literature's five printed
    digits (about 0.21723) serve only as a cross-check.
    """
    return bisect(lambda mu: math.pi - classical_drift(1.0, mu), 1e-6, 1.0 - 1e-9, GameParams.tol_root)


def _barrier_radius(r: float, mu: float) -> float:
    if not mu - GameParams.slack <= r <= 1.0 + GameParams.slack:
        raise DomainError(f"barrier defined on [mu, 1], got r = {r}")
    return min(max(r, mu), 1.0)


def barrier_theta(r: float, params: GameParams) -> float:
    """Angle of the barrier trajectory from the antipodal point, r in [mu, 1]."""
    return math.pi - classical_drift(_barrier_radius(r, params.mu), params.mu)


def barrier_slope(r: float, params: GameParams) -> float:
    """d(theta)/dr along the barrier: -sqrt(r^2 - mu^2) / (mu r)."""
    mu = params.mu
    r = _barrier_radius(r, mu)
    return -math.sqrt(max(0.0, r * r - mu * mu)) / (mu * r)


def semipermeability_residual(slope: float, r: float, params: GameParams) -> float:
    """min over omega, max over psi of the normal flow through a curve
    theta = C(r) with dC/dr = slope at radius r.

    The normal is (-slope, 1); L's maximizer aligns her velocity with it
    and M's minimizer is omega = 1.
    """
    mu = params.mu
    g = -slope
    denom = math.sqrt(g * g + 1.0 / (r * r))
    cos_psi = g / denom
    sin_psi = 1.0 / (r * denom)
    return g * mu * cos_psi + mu / r * sin_psi - 1.0


def barrier_residual(r: float, params: GameParams) -> float:
    """Semipermeability residual of the barrier itself; ~0 for r in (mu, 1]."""
    mu = params.mu
    if not mu < r <= 1.0 + params.slack:
        raise DomainError(f"residual defined on (mu, 1], got r = {r}")
    r = min(r, 1.0)
    return semipermeability_residual(barrier_slope(r, params), r, params)


def barrier_side(r: float, theta: float, params: GameParams) -> BarrierSide:
    """Side of the barrier curve that (r, theta) lies on, within tol_event."""
    if r < params.mu:
        return BarrierSide.BELOW
    b = barrier_theta(r, params)
    if abs(theta - b) <= params.tol_event:
        return BarrierSide.ON
    return BarrierSide.ABOVE if theta > b else BarrierSide.BELOW


def solve_classical(state: PolarState, params: GameParams) -> ClassicalSolution:
    """Bundle the classical equilibrium controls and value at a state."""
    heading = classical_heading(state, params)
    return ClassicalSolution(classical_value(state, params), heading, 1.0)
