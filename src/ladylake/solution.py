"""Whole-state-space dispatch: region labels, equilibrium controls, value.

Above the barrier the classical terminal-angle solution applies; below it
the state space is split by the line theta = r/mu into focal-line and
universal-line tributary regions of the min-time game.  The two games
have incomparable payoffs, so the advice carries a value kind instead of
a merged scalar.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import classical, focal, universal
from .model import ControlPair, GameParams, LakeGameError, PolarState, RegionError


class Region(str, enum.Enum):
    ABOVE_BARRIER = "AboveBarrier"
    ON_BARRIER = "OnBarrier"
    FOCAL_LINE = "FocalLine"
    UNIVERSAL_LINE = "UniversalLine"
    FOCAL_TRIBUTARY = "FocalTributary"
    UNIVERSAL_TRIBUTARY = "UniversalTributary"
    ANTIPODAL_POINT = "AntipodalPoint"
    SHORE = "Shore"


class ValueKind(str, enum.Enum):
    TIME_TO_E = "TimeToE"
    TERMINAL_ANGLE = "TerminalAngle"


# Snap radius for the antipodal point, looser than tol_event for states given
# with fewer printed digits of pi.  The value jumps at its edge: at mu = r = 0.3
# it is 0 at theta = pi - 0.99e-6 and 0.0328 at theta = pi - 1.01e-6.
E_SNAP = 1e-6


@dataclass(frozen=True)
class StrategyAdvice:
    region: Region
    controls: ControlPair
    value: float
    value_kind: ValueKind
    entry: focal.EntrySolution | None = None


CLASSICAL_REGIONS = (Region.ABOVE_BARRIER, Region.ON_BARRIER, Region.SHORE)
UNIVERSAL_REGIONS = (Region.UNIVERSAL_LINE, Region.UNIVERSAL_TRIBUTARY)


def region_of(r: float, theta: float, params: GameParams) -> Region:
    """Region label of the canonical state (r, theta).

    The one home of the region dispatch: classify() wraps it, and the
    simulator calls it at every RK4 stage, so it takes plain floats.
    """
    mu = params.mu
    if r >= 1.0 - params.tol_event:
        return Region.SHORE
    if abs(r - mu) <= E_SNAP and abs(theta - math.pi) <= E_SNAP:
        return Region.ANTIPODAL_POINT
    if r >= mu:
        side = classical.barrier_side(r, theta, params)
        if side is classical.BarrierSide.ON:
            return Region.ON_BARRIER
        if side is classical.BarrierSide.ABOVE:
            return Region.ABOVE_BARRIER
    return min_time_region(r, theta, params)


def min_time_region(r: float, theta: float, params: GameParams) -> Region:
    """Region of the min-time game at (r, theta), ignoring the barrier.

    Below the cutoff eps_r theta means nothing, and the centre belongs to
    the focal line: the value there is pi/2 from every direction.
    """
    tol = params.tol_event
    if r < params.eps_r or (abs(theta - math.pi) <= tol and r <= params.mu):
        return Region.FOCAL_LINE
    if theta <= tol:
        return Region.UNIVERSAL_LINE
    if theta <= r / params.mu:
        return Region.UNIVERSAL_TRIBUTARY
    return Region.FOCAL_TRIBUTARY


def classify(state: PolarState, params: GameParams) -> Region:
    """Assign exactly one region label to a canonical state."""
    return region_of(state.r, state.theta, params)


def advise(
    state: PolarState, params: GameParams, omega_now: float | None = None
) -> StrategyAdvice:
    """Equilibrium controls and value at a state.

    omega_now is required only on the focal line, where L's control
    reacts to M's instantaneous rate.
    """
    region = region_of(state.r, state.theta, params)
    if region is Region.SHORE:
        # Game over for the classical payoff; the realized separation is theta.
        controls = classical.classical_heading(state, params)
        return StrategyAdvice(region, controls, state.theta, ValueKind.TERMINAL_ANGLE)
    if region is Region.ANTIPODAL_POINT:
        controls = ControlPair(0.0, 1.0, 1.0)
        return StrategyAdvice(region, controls, 0.0, ValueKind.TIME_TO_E)
    if region in (Region.ABOVE_BARRIER, Region.ON_BARRIER):
        controls = classical.classical_heading(state, params)
        value = classical.classical_value(state, params)
        return StrategyAdvice(region, controls, value, ValueKind.TERMINAL_ANGLE)
    if region is Region.FOCAL_LINE:
        if omega_now is None:
            raise RegionError("omega_now is required on the focal line")
        # theta = pi also stands for the centre, where theta is undefined.
        controls = focal.fl_control(PolarState(state.r, math.pi), omega_now, params)
        value = focal.time_on_focal_line(state.r, params)
        return StrategyAdvice(region, controls, value, ValueKind.TIME_TO_E)
    if region in UNIVERSAL_REGIONS:
        if region is Region.UNIVERSAL_LINE:
            controls = universal.ul_control(state, params)
        else:
            controls = universal.ul_tributary_heading(state, params)
        value = universal.time_to_antipode(state, params)
        return StrategyAdvice(region, controls, value, ValueKind.TIME_TO_E)
    entry = focal.solve_entry(state, params)
    controls = focal.tributary_heading(state, entry.s, entry.case, params)
    return StrategyAdvice(
        Region.FOCAL_TRIBUTARY, controls, entry.total_time, ValueKind.TIME_TO_E, entry
    )


@dataclass(frozen=True)
class GridCell:
    r: float
    theta: float
    region: Region | None
    value: float | None
    value_kind: ValueKind | None
    error: str | None = None


def value_grid(params: GameParams, n_r: int, n_theta: int) -> list[GridCell]:
    """advise() on a uniform grid over (eps_r, 1] x [0, pi].

    Per-cell failures are captured in the cell record; the grid never
    aborts.
    """
    if n_r < 2 or n_theta < 2:
        raise ValueError("grid sizes must be >= 2")
    cells = []
    for i in range(n_r):
        r = params.eps_r + (1.0 - params.eps_r) * (i + 1) / n_r
        for j in range(n_theta):
            theta = math.pi * j / (n_theta - 1)
            state = PolarState(r, theta)
            try:
                adv = advise(state, params, omega_now=1.0)
                cells.append(
                    GridCell(r, theta, adv.region, adv.value, adv.value_kind)
                )
            except LakeGameError as exc:
                try:
                    region = classify(state, params)
                except LakeGameError:
                    region = None
                cells.append(GridCell(r, theta, region, None, None, str(exc)))
    return cells
