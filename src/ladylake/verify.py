"""Numerical verification of the equilibrium claims.

Closed-form costates for both games, Hamiltonian residual evaluation,
a finite-difference Hamilton-Jacobi-Isaacs sweep over the below-barrier
region, and the barrier semipermeability sweep.  Adjoint dynamics are
never integrated; the closed forms are exact along equilibrium paths.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from . import classical, focal, solution, universal
from .model import ControlPair, DomainError, GameParams, LakeGameError, PolarState, rates

_PI = math.pi


class GameTag(enum.Enum):
    CLASSICAL = "Classical"
    MIN_TIME_FL = "MinTimeFL"
    MIN_TIME_UL = "MinTimeUL"


@dataclass(frozen=True)
class Costate:
    """Adjoint pair plus the terminal-manifold multiplier."""

    lambda_r: float
    lambda_theta: float
    nu: float
    game_tag: GameTag


@dataclass(frozen=True)
class HjiReport:
    max_abs_residual: float
    worst_state: tuple[float, float] | None
    n_samples: int


def costate_classical(state: PolarState, params: GameParams) -> Costate:
    """Terminal-angle game adjoints: lambda_theta is identically 1."""
    mu = params.mu
    r = max(state.r, mu)
    lam_r = math.sqrt(max(0.0, 1.0 / (mu * mu) - 1.0 / (r * r)))
    nu = math.sqrt(1.0 / (mu * mu) - 1.0)
    return Costate(lam_r, 1.0, nu, GameTag.CLASSICAL)


def costate_focal(
    state: PolarState, s: float, phase: focal.EntryCase, params: GameParams
) -> Costate:
    """Min-time adjoints along a focal-line tributary with entry radius s.

    lambda_r carries the phase sign: positive while heading inward,
    negative after the closest approach (matching dV/dr < 0 when moving
    outward shortens the remaining path).
    """
    mu = params.mu
    if not 0.0 < s < mu:
        raise DomainError(f"entry radius must lie in (0, mu), got {s}")
    nu = -s * s / (mu * mu - s * s)
    mag = math.sqrt(max(0.0, mu * mu - s**4 / (state.r * state.r))) / (mu * mu - s * s)
    lam_r = mag if phase is focal.EntryCase.ONE else -mag
    return Costate(lam_r, nu, nu, GameTag.MIN_TIME_FL)


def costate_on_focal_line(r: float, params: GameParams) -> Costate:
    """Tributary costate limit s -> r on the line itself."""
    mu = params.mu
    if not 0.0 < r < mu:
        raise DomainError(f"focal line costate needs 0 < r < mu, got {r}")
    nu = -r * r / (mu * mu - r * r)
    return Costate(-1.0 / math.sqrt(mu * mu - r * r), nu, nu, GameTag.MIN_TIME_FL)


def costate_universal(params: GameParams) -> Costate:
    """Min-time adjoints on the universal line and its tributaries."""
    return Costate(1.0 / params.mu, 0.0, 0.0, GameTag.MIN_TIME_UL)


def hamiltonian_classical(
    state: PolarState, costate: Costate, controls: ControlPair, params: GameParams
) -> float:
    """The costate times the dynamics."""
    if costate.game_tag is not GameTag.CLASSICAL:
        raise DomainError(f"classical Hamiltonian needs a Classical costate, got {costate.game_tag}")
    dr, dtheta = rates(state.r, controls.cos_psi, controls.sin_psi, controls.omega, params.mu)
    return costate.lambda_r * dr + costate.lambda_theta * dtheta


def hamiltonian_min_time(
    state: PolarState, costate: Costate, controls: ControlPair, params: GameParams
) -> float:
    """The classical form plus the unit running cost of the min-time game."""
    if costate.game_tag is GameTag.CLASSICAL:
        raise DomainError("min-time Hamiltonian needs a min-time costate")
    classical_form = replace(costate, game_tag=GameTag.CLASSICAL)
    return hamiltonian_classical(state, classical_form, controls, params) + 1.0


def min_time_value(r: float, theta: float, params: GameParams) -> float:
    """Scalar time-to-antipodal-point value on the below-barrier region."""
    region = solution.min_time_region(r, theta, params)
    if region is solution.Region.FOCAL_LINE:
        return focal.time_on_focal_line(r, params)
    state = PolarState(r, min(theta, _PI))
    if region in solution.UNIVERSAL_REGIONS:
        return universal.time_to_antipode(state, params)
    return focal.solve_entry(state, params).total_time


def hji_sweep(
    params: GameParams, n_r: int = 50, n_theta: int = 50, h: float = 1e-5
) -> HjiReport:
    """Finite-difference HJI residual over below-barrier grid cells.

    The value gradient is approximated by central differences with step h
    and plugged into the min-time Hamiltonian with equilibrium controls.
    Cells within a small band of the region boundaries (shore, barrier,
    both singular lines, and the partition theta = r/mu) are skipped
    because the value has kinks there.
    """
    if n_r < 2 or n_theta < 2:
        raise ValueError("grid sizes must be >= 2")
    mu = params.mu
    band = 2.0 * h * (1.0 + 1.0 / mu)
    worst = 0.0
    worst_state = None
    n = 0
    for i in range(1, n_r + 1):
        r = i / (n_r + 1)
        if r < band or r > 1.0 - band:
            continue
        for j in range(1, n_theta + 1):
            theta = _PI * j / (n_theta + 1)
            if theta < band or theta > _PI - band:
                continue
            if abs(theta - r / mu) < band:
                continue
            if r >= mu - band:
                if r + h > 1.0:
                    continue
                try:
                    if theta > classical.barrier_theta(max(r - h, mu), params) - band:
                        continue
                except DomainError:
                    continue
            try:
                v_rp = min_time_value(r + h, theta, params)
                v_rm = min_time_value(r - h, theta, params)
                v_tp = min_time_value(r, theta + h, params)
                v_tm = min_time_value(r, theta - h, params)
                adv = solution.advise(PolarState(r, theta), params, omega_now=1.0)
            except LakeGameError:
                continue
            lam_r = (v_rp - v_rm) / (2.0 * h)
            lam_t = (v_tp - v_tm) / (2.0 * h)
            cand = Costate(lam_r, lam_t, lam_t, GameTag.MIN_TIME_FL)
            res = hamiltonian_min_time(PolarState(r, theta), cand, adv.controls, params)
            n += 1
            if abs(res) > worst:
                worst = abs(res)
                worst_state = (r, theta)
    return HjiReport(worst, worst_state, n)


def barrier_sweep(params: GameParams, n: int = 1000) -> float:
    """Max semipermeability residual magnitude over n radii in (mu, 1]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    mu = params.mu
    worst = 0.0
    for i in range(1, n + 1):
        r = mu + (1.0 - mu) * i / n
        worst = max(worst, abs(classical.barrier_residual(r, params)))
    return worst


def trajectory_hamiltonians(traj, params: GameParams) -> list[tuple[float, float]]:
    """Exact-costate Hamiltonian along a recorded equilibrium trajectory.

    Samples roughly every 0.01 time units and returns (t, H) pairs;
    the costate family is chosen per sample from the state's region, with
    the tributary phase read off the sign of the recorded radial control.
    """
    out = []
    next_t = 0.0
    for k in range(len(traj.t)):
        t = traj.t[k]
        if t < next_t - 1e-12:
            continue
        next_t = t + 0.01
        r, theta = traj.r[k], traj.theta[k]
        sign = -1.0 if traj.mirror[k] else 1.0
        controls = ControlPair(
            traj.cos_psi[k],
            min(1.0, max(-1.0, sign * traj.sin_psi[k])),
            min(1.0, max(-1.0, sign * traj.omega[k])),
        )
        state = PolarState(min(r, 1.0), min(theta, _PI))
        region = solution.region_of(state.r, state.theta, params)
        if region in solution.CLASSICAL_REGIONS:
            co = costate_classical(state, params)
            out.append((t, hamiltonian_classical(state, co, controls, params)))
            continue
        if region is solution.Region.ANTIPODAL_POINT:
            # The terminal point carries the costate of the arc it ends.
            region = solution.min_time_region(state.r, state.theta, params)
        if region is solution.Region.FOCAL_LINE:
            co = costate_on_focal_line(r, params)
        elif region in solution.UNIVERSAL_REGIONS:
            co = costate_universal(params)
        else:
            entry = focal.solve_entry(state, params)
            phase = focal.EntryCase.ONE if controls.cos_psi < 0.0 else focal.EntryCase.TWO
            co = costate_focal(state, entry.s, phase, params)
        out.append((t, hamiltonian_min_time(state, co, controls, params)))
    return out
