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
from .model import ControlPair, DomainError, GameParams, PolarState, RegionError, Segment


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


E_SNAP = GameParams.e_snap  # perfbench's probe offset from E; nothing here reads it


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
    if abs(r - mu) <= params.slack and abs(theta - math.pi) <= params.slack:
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
    reacts to M's instantaneous rate; given anywhere, it must be a rate.
    """
    if omega_now is not None and not abs(omega_now) <= 1.0 + params.slack:
        raise DomainError(f"|omega_now| must be <= 1, got {omega_now}")
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


# The event that ends each kind of segment.
_END = {"focal_tributary": "fl_entry", "universal_tributary": "ul_entry",
        "universal_line": "origin_passage", "focal_line": "reached_e", "classical": "shore_exit"}


def rollout(
    state: PolarState, params: GameParams
) -> tuple[tuple[Segment, ...], tuple[tuple[float, str], ...]]:
    """Equilibrium lady against equilibrium man from a canonical state, as
    consecutive closed-form segments, and its events at their exact times.

    A focal tributary (E itself counts as one) ends on the focal line; a
    universal tributary ends on the universal line, which passes the centre
    onto the focal line; a start on the focal line or at the centre runs
    along it from theta = pi; a classical start runs to the shore.  The last
    event, reached_e or shore_exit, ends the last segment.  RegionError for a
    classical path with V <= tol_event, which reaches theta = 0 before the
    shore (only below the critical mu).
    """
    mu, tol = params.mu, params.tol_event
    r, th = state.r, state.theta
    region = region_of(r, th, params)
    if (abs(th - math.pi) <= tol and r <= mu + tol) or r < params.eps_r:
        kinds = ("focal_line",)
    elif region in CLASSICAL_REGIONS:
        if region is not Region.SHORE and classical.classical_value(state, params) <= tol:
            raise RegionError(f"the classical path from ({r}, {th}) reaches theta = 0 first")
        kinds = ("classical",)
    elif region in UNIVERSAL_REGIONS:
        kinds = ("universal_line", "focal_line")
        if region is Region.UNIVERSAL_TRIBUTARY:
            kinds = ("universal_tributary",) + kinds
    else:
        kinds = ("focal_tributary", "focal_line")
    segments, events, t = [], [], 0.0
    for kind in kinds:
        if kind == "focal_tributary":
            seg, t_tangency = focal.tributary_segment(t, r, th, params)
            if t_tangency is not None:
                events.append((t_tangency, "tangency"))
        elif kind == "focal_line":
            seg = focal.line_segment(t, r, math.pi, lambda tt: 1.0, params)
        elif kind == "classical":
            seg = classical.path_segment(t, r, th, params)
        else:
            seg = universal.path_segment(t, r, th, kind == "universal_line", params)
        segments.append(seg)
        t, (r, th, _, _) = seg.t1, seg.state(seg.t1)
        events.append((t, _END[kind]))
    return tuple(segments), tuple(events)
