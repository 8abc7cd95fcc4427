"""Numerical verification of the equilibrium claims.

Closed-form costates for both games, Hamiltonian residual evaluation, the
min-time game's Isaacs residual, a finite-difference sweep of it over the
below-barrier region, and the barrier semipermeability sweep.  Adjoint
dynamics are never integrated; the closed forms are exact along
equilibrium paths.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from . import classical, focal, solution, universal
from .model import ControlPair, DomainError, GameParams, PolarState, rates

_PI = math.pi
_TRIBUTARIES = (solution.Region.FOCAL_TRIBUTARY, solution.Region.UNIVERSAL_TRIBUTARY)


class GameTag(enum.Enum):
    CLASSICAL = "Classical"
    MIN_TIME = "MinTime"


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


def costate_min_time(
    state: PolarState, s: float, phase: focal.EntryCase, params: GameParams
) -> Costate:
    """Min-time adjoints on the tributary with entry radius s, 0 <= s < mu.

    The family's ends are the singular lines: s = 0 in phase One is the
    universal line and its tributaries, lambda = (1/mu, 0, 0); s = r in
    phase Two is the focal line, lambda_r = -1/sqrt(mu^2 - r^2) and
    nu = -r^2/(mu^2 - r^2).  lambda_r carries the phase sign: positive
    while heading inward, negative after the closest approach (matching
    dV/dr < 0 when moving outward shortens the remaining path).
    """
    mu = params.mu
    if not 0.0 <= s < mu:
        raise DomainError(f"entry radius must lie in [0, mu), got {s}")
    p = s / mu  # in p, neither form cancels near s = mu, and s = 0 gives 1/mu exactly
    nu = -p * p / (1.0 - p * p)
    mag = math.sqrt(max(0.0, 1.0 - (p * s / state.r) ** 2)) / (mu * (1.0 - p * p))
    lam_r = mag if phase is focal.EntryCase.ONE else -mag
    return Costate(lam_r, nu, nu, GameTag.MIN_TIME)


def hamiltonian(
    state: PolarState, costate: Costate, controls: ControlPair, params: GameParams
) -> float:
    """The costate times the dynamics, plus the unit running cost of the
    min-time game when the costate is a min-time one."""
    dr, dtheta = rates(state.r, controls.cos_psi, controls.sin_psi, controls.omega, params.mu)
    h = costate.lambda_r * dr + costate.lambda_theta * dtheta
    return h + 1.0 if costate.game_tag is GameTag.MIN_TIME else h


def min_time_value(r: float, theta: float, params: GameParams) -> float:
    """Scalar time-to-antipodal-point value on the below-barrier region."""
    region = solution.min_time_region(r, theta, params)
    if region is solution.Region.FOCAL_LINE:
        return focal.time_on_focal_line(r, params)
    state = PolarState(r, min(theta, _PI))
    if region in solution.UNIVERSAL_REGIONS:
        return universal.time_to_antipode(state, params)
    return focal.solve_entry(state, params).total_time


def isaacs_residual(r: float, lam_r: float, lam_theta: float, params: GameParams) -> float:
    """The min-time Hamiltonian at its saddle, min over psi and max over
    omega in [-1, 1], in closed form: L's best heading gives -mu
    |(lam_r, lam_theta/r)| and M's best rate |lam_theta|, so the residual is
    1 - mu |(lam_r, lam_theta/r)| + |lam_theta|, with no controls to solve."""
    return 1.0 - params.mu * math.hypot(lam_r, lam_theta / r) + abs(lam_theta)


def _fd_cells(params: GameParams, n_r: int, n_theta: int, h: float):
    """(r, theta, lam_r, lam_theta) at each cell hji_sweep uses: the centres of
    an n_r x n_theta grid whose five-point stencil (r +- h, theta +- h) lies
    in one tributary region by solution.region_of, since the value has kinks
    on the region boundaries, with the central-difference value gradient."""
    for i in range(1, n_r + 1):
        r = i / (n_r + 1)
        for j in range(1, n_theta + 1):
            theta = _PI * j / (n_theta + 1)
            stencil = ((r, theta), (r + h, theta), (r - h, theta), (r, theta + h), (r, theta - h))
            regions = {solution.region_of(rr, tt, params) for rr, tt in stencil}
            if len(regions) > 1 or regions.pop() not in _TRIBUTARIES:
                continue
            lam_r = (min_time_value(r + h, theta, params) - min_time_value(r - h, theta, params)) / (2.0 * h)
            lam_t = (min_time_value(r, theta + h, params) - min_time_value(r, theta - h, params)) / (2.0 * h)
            yield r, theta, lam_r, lam_t


def hji_sweep(
    params: GameParams, n_r: int = 50, n_theta: int = 50, h: float = 1e-5
) -> HjiReport:
    """Finite-difference Isaacs residual over below-barrier grid cells.

    The value gradient is approximated by central differences with step h,
    four value solves per cell, and put into isaacs_residual, so no control
    is solved.  The cells are _fd_cells': those whose stencil lies in one
    tributary region.  A solve that fails raises: no cell is dropped for it.
    """
    if n_r < 2 or n_theta < 2:
        raise ValueError("grid sizes must be >= 2")
    worst = 0.0
    worst_state = None
    n = 0
    for r, theta, lam_r, lam_t in _fd_cells(params, n_r, n_theta, h):
        res = abs(isaacs_residual(r, lam_r, lam_t, params))
        n += 1
        if res > worst:
            worst = res
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

    Samples roughly every 0.01 time units and returns (t, H) pairs.  Per
    sample it picks the classical costate, or the min-time member (s,
    phase): (0, One) on the universal regions, (r, Two) on the focal line,
    and on a focal tributary its entry radius with the phase read off the
    sign of the recorded radial control.  Samples within eps_r of the
    centre, where theta and its rate are undefined, are skipped, and so are
    focal-line samples next to E whose recorded heading rounds beyond slack.
    """
    out = []
    next_t = 0.0
    for k in range(len(traj.t)):
        t = traj.t[k]
        if t < next_t - params.slack:
            continue
        next_t = t + 0.01
        r, theta = traj.r[k], traj.theta[k]
        if r < params.eps_r:
            continue
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
        else:
            if region is solution.Region.ANTIPODAL_POINT:
                # The terminal point carries the costate of the arc it ends.
                region = solution.min_time_region(state.r, state.theta, params)
            if region is solution.Region.FOCAL_LINE:
                if r >= params.mu or controls.cos_psi**2 * params.slack < sys.float_info.epsilon:
                    # At E itself, where s = r leaves the family, or so near it
                    # that the recorded cos_psi = sqrt(1 - sin_psi^2) carries a
                    # rounding of eps/cos_psi^2 beyond slack, which H inherits.
                    continue
                s, phase = r, focal.EntryCase.TWO
            elif region in solution.UNIVERSAL_REGIONS:
                s, phase = 0.0, focal.EntryCase.ONE
            else:
                s = focal.solve_entry(state, params).s
                phase = focal.EntryCase.ONE if controls.cos_psi < 0.0 else focal.EntryCase.TWO
            co = costate_min_time(state, s, phase, params)
        out.append((t, hamiltonian(state, co, controls, params)))
    return out
