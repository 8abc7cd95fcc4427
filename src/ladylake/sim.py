"""Closed-loop forward simulation of the relative dynamics.

Equilibrium lady against equilibrium man samples solution.rollout, the
paper's closed-form path, on the time grid.  Other runs take fixed-step RK4
with feedback strategies and bisection event refinement (focal-line entry,
origin passage, shore exit, barrier crossings), the lady's entry radius solved
at records and continued at stages; one who plays the focal-line control
follows its closed form once on theta = pi.
The integrated state is kept in the canonical half-plane; crossings of
theta = 0 or pi either snap onto the singular line or mirror the frame.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

from . import classical, focal, solution
from .model import DomainError, GameParams, LakeGameError, PolarState, RegionError, cartesian_at, rates
from .solution import rollout

_PI = math.pi


@dataclass(frozen=True)
class StrategySpec:
    """Pluggable behavior for one side.

    kinds: equilibrium (either side), constant_omega / switching_omega
    (man only), fixed_heading / perturbed_equilibrium (lady only).
    """

    side: str
    kind: str
    value: float = 0.0
    period: float = 0.0
    heading: tuple[float, float] | None = None
    delta_psi: float = 0.0

    def __post_init__(self) -> None:
        if self.side not in ("lady", "man"):
            raise DomainError(f"side must be 'lady' or 'man', got {self.side}")
        kinds_lady = ("equilibrium", "fixed_heading", "perturbed_equilibrium")
        kinds_man = ("equilibrium", "constant_omega", "switching_omega")
        allowed = kinds_lady if self.side == "lady" else kinds_man
        if self.kind not in allowed:
            raise DomainError(f"kind {self.kind} not allowed for side {self.side}")
        if self.kind == "constant_omega" and abs(self.value) > 1.0:
            raise DomainError(f"|omega| must be <= 1, got {self.value}")
        if self.kind == "switching_omega" and self.period <= 0.0:
            raise DomainError("switching period must be positive")
        if self.kind == "fixed_heading":
            if self.heading is None:
                raise DomainError("fixed_heading needs a heading")
            c, s = self.heading
            if abs(c * c + s * s - 1.0) > GameParams.input_slack:
                raise DomainError("fixed heading must be a unit vector")
            n = math.hypot(c, s)  # stored normalised, so no later unit check refuses it
            object.__setattr__(self, "heading", (c / n, s / n))

    @staticmethod
    def equilibrium(side: str) -> "StrategySpec":
        return StrategySpec(side, "equilibrium")

    @staticmethod
    def constant_omega(value: float) -> "StrategySpec":
        return StrategySpec("man", "constant_omega", value=value)

    @staticmethod
    def switching_omega(period: float) -> "StrategySpec":
        return StrategySpec("man", "switching_omega", period=period)

    @staticmethod
    def fixed_heading(cos_psi: float, sin_psi: float) -> "StrategySpec":
        return StrategySpec("lady", "fixed_heading", heading=(cos_psi, sin_psi))

    @staticmethod
    def perturbed(delta_psi: float) -> "StrategySpec":
        return StrategySpec("lady", "perturbed_equilibrium", delta_psi=delta_psi)


@dataclass
class Trajectory:
    """Recorded closed-loop run.

    Controls are in the true (unmirrored) frame; theta is canonical.
    outcome is 'reached_e', 'reached_shore', or 'timeout'.
    """

    t: list[float] = field(default_factory=list)
    r: list[float] = field(default_factory=list)
    theta: list[float] = field(default_factory=list)
    man_angle: list[float] = field(default_factory=list)
    mirror: list[int] = field(default_factory=list)
    cos_psi: list[float] = field(default_factory=list)
    sin_psi: list[float] = field(default_factory=list)
    omega: list[float] = field(default_factory=list)
    events: list[tuple[float, str]] = field(default_factory=list)
    outcome: str = "timeout"
    theta_f: float | None = None
    t_final: float = 0.0

    def cartesian(self) -> list[tuple[float, float, float, float]]:
        """model.cartesian_at of every record, theta negated where it is mirrored."""
        records = zip(self.r, self.theta, self.man_angle, self.mirror)
        return [cartesian_at(r, -th if mir else th, al) for r, th, al, mir in records]


class _Lady:
    """State-feedback equilibrium heading, rotated by delta_psi off the
    focal line (0 for equilibrium play).

    On a focal tributary she keeps the case of the path ahead (one re-picked
    from the state chatters on the tangency circle): One until it has no root,
    which by solve_entry's proof is where she passes that circle, then Two.
    Records solve the radius by focal.entry_root and trial stages continue it
    by focal.entry_track (solving where it declines), both from the secant
    through her last two records in that case.  Where it has no root the last
    radius stands, and a solve at a trial state past the centre, where theta
    means nothing, is not kept.  On the focal line: focal.line_segment.
    """

    def __init__(self, params: GameParams, delta_psi: float) -> None:
        self.params = params
        self.cos_d, self.sin_d = math.cos(delta_psi), math.sin(delta_psi)
        self.reset()

    def reset(self) -> None:
        self.s: float | None = None
        self.case: focal.EntryCase | None = None
        self.track = ((0.0, None, None),) * 2  # (t, s, case) of her last two records

    def __call__(self, r_in: float, th: float, t: float = 0.0, trial: bool = False) -> tuple[float, float]:
        mu = self.params.mu
        r = min(max(r_in, self.params.eps_r), 1.0)
        th = min(max(th, 0.0), _PI)
        region = solution.region_of(r, th, self.params)
        if region in solution.CLASSICAL_REGIONS:
            c, s = classical.classical_heading_at(r, mu)
        elif region in solution.UNIVERSAL_REGIONS:
            self.reset()
            c, s = -1.0, 0.0
        else:
            (t0, s0, c0), (t1, s1, c1) = self.track
            guess = s1 + (t - t1) * (s1 - s0) / (t1 - t0) if c0 is c1 is self.case and t0 < t1 else self.s
            entry = focal.entry_track(r, th, self.params, self.case, guess) if trial and self.case else None
            if entry is None:
                found = focal.entry_root(r, th, self.params, self.case, guess)
                if found is None and self.case is focal.EntryCase.ONE:
                    found = focal.entry_root(r, th, self.params, focal.EntryCase.TWO, guess)
                entry = found or (self.s, self.case)
                if r_in >= self.params.eps_r:
                    self.s, self.case = entry
                    self.track = self.track if trial else (self.track[1], (t, *entry))
            c, s = focal.tributary_heading_at(r, *entry, mu)
        return c * self.cos_d - s * self.sin_d, s * self.cos_d + c * self.sin_d


def _rk4(deriv, t: float, r: float, theta: float, alpha: float, h: float, k1):
    """One RK4 step of (r, theta, alpha) over h; deriv(t, r, theta) gives their
    rates, and k1 is its value at the start."""
    d1r, d1t, d1a = k1
    d2r, d2t, d2a = deriv(t + 0.5 * h, r + 0.5 * h * d1r, theta + 0.5 * h * d1t)
    d3r, d3t, d3a = deriv(t + 0.5 * h, r + 0.5 * h * d2r, theta + 0.5 * h * d2t)
    d4r, d4t, d4a = deriv(t + h, r + h * d3r, theta + h * d3t)
    return (
        r + h / 6.0 * (d1r + 2.0 * d2r + 2.0 * d3r + d4r),
        theta + h / 6.0 * (d1t + 2.0 * d2t + 2.0 * d3t + d4t),
        alpha + h / 6.0 * (d1a + 2.0 * d2a + 2.0 * d3a + d4a),
    )


def _crossing(g, step, h: float, tol: float) -> float:
    """First sub-step of (0, h] found past the zero of g(r, theta) along
    step(sigma) -> (r, theta, alpha), given g > 0 at 0 and <= 0 at h: at
    most 60 halvings, down to a bracket of tol."""
    lo, hi = 0.0, h
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if g(*step(mid)[:2]) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def _man_rate(spec: StrategySpec, params: GameParams) -> Callable[[float, float, float], float]:
    """M's angular rate as a function of (t, r, theta), one per man kind."""
    if spec.kind == "equilibrium":
        tol = params.tol_event
        return lambda t, r, th: 0.0 if th <= tol else 1.0
    if spec.kind == "constant_omega":
        return lambda t, r, th: spec.value
    return lambda t, r, th: 1.0 if int(t / spec.period) % 2 == 0 else -1.0


def simulate(
    initial: PolarState,
    lady: StrategySpec,
    man: StrategySpec,
    dt: float = 1e-4,
    t_max: float = 20.0,
    params: GameParams | None = None,
) -> Trajectory:
    """Run the closed loop from an initial canonical state.

    Equilibrium lady against equilibrium man samples rollout(initial) on the
    dt grid, each step cut at a segment's end and each record taken from the
    segment in force there, so its events and t_final are the rollout's.
    The eq/eq starts that stay on RK4 instead:
    - a classical path with V <= tol_event (below the critical mu), which
      reaches theta = 0 before the shore.

    Other runs take RK4 steps with the controls re-evaluated at every stage
    and events refined by bisection, until a lady who plays the focal-line
    control is on theta = pi; from there she follows focal.line_segment.
    """
    if params is None:
        raise DomainError("params is required")
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        raise DomainError("dt and t_max must be finite and positive")
    if lady.side != "lady" or man.side != "man":
        raise DomainError("a lady strategy and a man strategy are required")
    mu, tol = params.mu, params.tol_event
    segments = None
    if lady.kind == man.kind == "equilibrium":
        try:
            segments, events = rollout(initial, params)
        except RegionError:
            pass  # the docstring's list of starts that stay on RK4
    lady_s = _Lady(params, lady.delta_psi)
    fixed_heading = lady.heading if lady.kind == "fixed_heading" else None
    snap_to_fl = fixed_heading is None
    man_rate = _man_rate(man, params)
    man_eq = man.kind == "equilibrium"

    r, th, alpha, sign = initial.r, initial.theta, 0.0, 1.0
    traj = Trajectory()

    def omega(tt: float, rr: float, thh: float) -> float:
        """M's canonical rate at a trial state, clamped to [-1, 1]."""
        return min(1.0, max(-1.0, man_rate(tt, rr, thh) * (1.0 if man_eq else sign)))

    def stage(tt: float, rr: float, thh: float, trial: bool = True):
        """Canonical (cos_psi, sin_psi, omega) at a trial state, or at a record
        (not trial), and the rates of (r, theta, alpha) they give."""
        om = omega(tt, rr, thh)
        if fixed_heading is not None:
            c, s_ = fixed_heading[0], sign * fixed_heading[1]
        else:
            c, s_ = lady_s(rr, thh, tt, trial)
        dr, dth = rates(max(abs(rr), params.slack), c, s_, om, mu)
        return (c, s_, om), (dr, dth, sign * om)

    def deriv(tt: float, rr: float, thh: float) -> tuple[float, float, float]:
        return stage(tt, rr, thh)[1]

    def record(tt, al, rr, thh, c=None, s_=None, om=None):
        """Append a state and its canonical controls in the true frame; an
        integrated state, given no controls, returns its rates, the first
        stage of the next step."""
        k = None
        if c is None:
            (c, s_, om), k = stage(tt, rr, thh, False)
        traj.t.append(tt)
        traj.r.append(rr)
        traj.theta.append(thh)
        traj.man_angle.append(al)
        traj.mirror.append(1 if sign < 0.0 else 0)
        traj.cos_psi.append(c)
        traj.sin_psi.append(sign * min(1.0, max(-1.0, s_)))
        traj.omega.append(sign * om)
        return k

    def follow(segs) -> bool:
        """Record closed-form segments on the dt grid from t, each step cut at
        a segment's end; whether the last one ends by t_max."""
        nonlocal t, alpha
        i = 0
        while True:
            while t >= segs[i].t1 and i + 1 < len(segs):
                i += 1
            seg = segs[i]
            om = seg.omega(t)
            record(t, alpha, *seg.state(t), om)
            if t >= seg.t1 or t >= t_max - params.slack:
                return t >= seg.t1
            h = min(dt, t_max - t, seg.t1 - t)
            alpha += h / 6.0 * sign * (om + 4.0 * seg.omega(t + 0.5 * h) + seg.omega(t + h))
            t = seg.t1 if h == seg.t1 - t else t + h

    def slides(tt: float, rr: float) -> bool:
        """Whether a snapping lady on theta = 0 slides along it: the
        equilibrium man stands still there, or theta' <= 0 in the mirrored
        frame too, where M's canonical rate changes sign and her heading
        does not."""
        if man_eq:
            return True
        c, s_ = lady_s(rr, 0.0)
        om = min(1.0, max(-1.0, -sign * man_rate(tt, rr, 0.0)))
        return rates(max(abs(rr), params.slack), c, s_, om, mu)[1] <= 0.0

    def step(sigma: float) -> tuple[float, float, float]:
        """The RK4 step of length sigma from the current (t, r, th, alpha)."""
        return _rk4(deriv, t, r, th, alpha, sigma, k1)

    def at_e(rr: float, thh: float) -> bool:
        return abs(rr - mu) <= tol and abs(thh - _PI) <= tol

    t, end = 0.0, None
    case_before = None  # the lady's case before the last record
    # A snapping lady on theta = pi leaves RK4 for the focal-line segment.
    lands_on_fl = segments is None and snap_to_fl and abs(th - _PI) <= tol and r <= mu + tol
    if segments is not None:
        end = events[-1][1] if follow(segments) else None
        traj.events.extend(ev for ev in events[:-1] if ev[0] <= t)
    elif not lands_on_fl:
        k1 = record(t, alpha, r, th)
        end = "reached_e" if at_e(r, th) else ("shore_exit" if r >= 1.0 - tol else None)
    while end is None and not lands_on_fl and t < t_max - params.slack:
        h = min(dt, t_max - t)
        # Snapping play slides on pi, and on 0 by slides(); else mirror.  Read
        # before the trial step, whose stages move the lady's entry memory.
        leaves_line = th in (0.0, _PI) and not (snap_to_fl and (th == _PI or slides(t, r)))
        s_event, case_event = lady_s.s, lady_s.case
        try:
            r1, th1, al1 = step(h)
        except LakeGameError:
            traj.events.append((t, "strategy_error"))
            break
        if not (math.isfinite(r1) and math.isfinite(th1)):
            raise LakeGameError(f"integration produced NaN at t = {t}")

        # Event functions over the trial step; earliest crossing wins.
        candidates: list[tuple[float, str]] = []

        def locate(g, kind: str) -> None:
            g0, g1 = g(r, th), g(r1, th1)
            if g0 > 0.0 >= g1:
                candidates.append((_crossing(g, step, h, tol), kind))

        locate(lambda rr, thh: 1.0 - rr, "shore_exit")
        locate(lambda rr, thh: rr - params.eps_r, "origin_passage")
        locate(lambda rr, thh: thh, "ul_cross")
        locate(lambda rr, thh: _PI - thh, "fl_cross")
        if s_event is not None and case_event is focal.EntryCase.TWO and snap_to_fl:
            locate(lambda rr, thh: s_event - rr, "fl_cross")

        # The step, cut short at the earliest event, then that event's rule.
        sigma, kind = min(candidates, default=(h, "step"))
        side = classical.barrier_side(min(r, 1.0), th, params) if r >= mu else None
        r, th, alpha = step(sigma) if candidates else (r1, th1, al1)
        if side and r >= mu and side is not classical.barrier_side(min(r, 1.0), th, params):
            traj.events.append((t + 0.5 * sigma, "barrier_crossing"))
        # She turns outward in the step's stages, or at the record that began it.
        if case_before is focal.EntryCase.ONE and lady_s.case is focal.EntryCase.TWO:
            traj.events.append((t + sigma, "tangency"))
        if leaves_line and not 0.0 <= th <= _PI:
            th, sign = (-th if th < 0.0 else 2.0 * _PI - th), -sign
            traj.events.append((t, "reflection"))
        t += sigma
        th = min(max(th, 0.0), _PI)
        if kind == "shore_exit":
            r, end = min(r, 1.0), kind
        elif kind == "origin_passage" or r < 0.0:
            # Through the centre onto the opposite ray, seen in the mirrored
            # frame unless she lands on the focal line, where the mirror is moot.
            r, th = max(abs(r), params.eps_r), _PI - th
            if abs(th - _PI) <= tol:
                th = _PI
            else:
                sign = -sign
            lands_on_fl = snap_to_fl and th == _PI
            lady_s.reset()
            traj.events.append((t, "origin_passage"))
        elif kind != "step":
            # theta = 0 or pi crossed: snap onto the singular line under
            # equilibrium play, else mirror the frame.
            lands_on_fl = snap_to_fl and kind == "fl_cross" and r < mu + tol
            if lands_on_fl or (snap_to_fl and kind == "ul_cross" and slides(t, r)):
                r, th = (min(r, mu), _PI) if lands_on_fl else (r, 0.0)
                traj.events.append((t, "fl_entry" if lands_on_fl else "ul_entry"))
            else:
                sign = -sign
                traj.events.append((t, "reflection"))
            end = "reached_e" if at_e(r, th) else None
        if lands_on_fl:
            break
        case_before = lady_s.case
        k1 = record(t, alpha, r, th)
    if lands_on_fl:
        fl = focal.line_segment(t, r, th, lambda tt: omega(tt, r, _PI), params)
        end = "reached_e" if follow([fl]) else None

    if end is not None:
        traj.events.append((t, end))
        traj.outcome = "reached_shore" if end == "shore_exit" else end
        if end == "shore_exit":
            traj.theta_f = traj.theta[-1]
    traj.t_final = t
    return traj


@dataclass(frozen=True)
class DeviationRow:
    side: str
    label: str
    time: float
    margin: float
    outcome: str


def _deviation_run(job: tuple) -> tuple[str, float]:
    """(outcome, t_final) of one deviation run; simulate is looked up per call."""
    run = simulate(*job)
    return run.outcome, run.t_final


def _map_runs(jobs: list[tuple]) -> list[tuple[str, float]]:
    """_deviation_run over jobs in order; deviation_report says where it forks."""
    import multiprocessing.pool  # here, so that only this call loads it
    import threading
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(jobs), cpus)
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return list(map(_deviation_run, jobs))
    # One job per task in row order, so the long delta_psi=-0.05 run overlaps the others.
    with multiprocessing.pool.Pool(workers, context=multiprocessing.get_context("fork")) as pool:
        return pool.map(_deviation_run, jobs, chunksize=1)


def deviation_report(
    initial: PolarState, params: GameParams, dt: float = 1e-3
) -> tuple[float, list[DeviationRow]]:
    """Saddle check around equilibrium play from a below-barrier start, whose
    min-time value is t_eq (RegionError on or above the barrier, where the
    value is a terminal angle).  L-deviations should not arrive earlier than
    t_eq, M-deviations should not make feedback-L arrive later; a pass is
    margin >= -tolerance on every row.

    The five runs are independent and run at once on up to five forked worker
    processes, one per CPU available.  They run in-process with one CPU,
    without fork, in a daemonic caller (which may have no children) or beside
    other threads (where a fork is unsafe); the rows are the same either way.
    """
    adv = solution.advise(initial, params, omega_now=1.0)
    if adv.value_kind is not solution.ValueKind.TIME_TO_E:
        raise RegionError(f"no time to E from a start in region {adv.region.value}")
    t_eq, t_max = adv.value, 20.0
    eq_lady, eq_man = StrategySpec.equilibrium("lady"), StrategySpec.equilibrium("man")
    runs = (
        ("lady", "delta_psi=+0.05", StrategySpec.perturbed(0.05), eq_man),
        ("lady", "delta_psi=-0.05", StrategySpec.perturbed(-0.05), eq_man),
        ("man", "constant_omega=0.8", eq_lady, StrategySpec.constant_omega(0.8)),
        ("man", "constant_omega=0", eq_lady, StrategySpec.constant_omega(0.0)),
        ("man", "switching_omega(period=0.2)", eq_lady, StrategySpec.switching_omega(0.2)),
    )
    results = _map_runs([(initial, lady, man, dt, t_max, params) for _, _, lady, man in runs])
    rows: list[DeviationRow] = []
    for (side, label, _, _), (outcome, t_final) in zip(runs, results):
        # A run that never reaches E fails the check whichever side deviated:
        # it is scored t_eq - t_max, which stays finite and JSON-safe.
        if outcome != "reached_e":
            margin = t_eq - t_max
        else:
            margin = t_final - t_eq if side == "lady" else t_eq - t_final
        rows.append(DeviationRow(side, label, t_final, margin, outcome))
    return t_eq, rows
