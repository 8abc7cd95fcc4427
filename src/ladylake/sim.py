"""Closed-loop forward simulation of the relative dynamics.

Equilibrium lady against equilibrium man samples solution.rollout, the
paper's closed-form path, segment by segment.  Other runs integrate the
feedback strategies, on one run state (_Run), with error-controlled
Dormand–Prince 5(4) steps, every discontinuity of the right-hand side at a
step end: switch times bound the steps, and the events of one table,
_EVENTS (focal-line entry, tangency, origin passage, shore exit, barrier
crossings; at one time the row of lowest priority wins), are located on the
steps' interpolants.  Records are taken from the interpolants, so the time
grid only spaces them.  A lady who plays the focal-line control follows its
closed form once on theta = pi.  The integrated state is kept in the
canonical half-plane, theta in [0, pi]: a crossing of theta = 0 or pi either
snaps onto the singular line or mirrors the frame (theta seen as -theta),
and a passage through the centre lands on the opposite ray, at pi - theta in
the mirrored frame (unmirrored if that is theta = pi).
"""
from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

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
        # Each range check is written "not x <= bound", so that NaN fails it.
        if self.kind == "constant_omega" and not abs(self.value) <= 1.0:
            raise DomainError(f"|omega| must be <= 1, got {self.value}")
        if self.kind == "switching_omega" and not 0.0 < self.period < math.inf:
            raise DomainError(f"switching period must be finite and positive, got {self.period}")
        if not math.isfinite(self.delta_psi):
            raise DomainError(f"delta_psi must be finite, got {self.delta_psi}")
        if self.kind == "fixed_heading":
            if self.heading is None:
                raise DomainError("fixed_heading needs a heading")
            c, s = self.heading
            if not abs(c * c + s * s - 1.0) <= GameParams.input_slack:
                raise DomainError(f"fixed heading must be a finite unit vector, got {self.heading}")
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

    theta is canonical, and mirror is 1 where the frame was mirrored at the
    record, so that her angle from M's radius is -theta there; controls are
    in the true (unmirrored) frame.  outcome is 'reached_e', 'reached_shore',
    or 'timeout'.  steps and rejected count the integrator's accepted and
    rejected steps, and evaluations its strategy evaluations, records
    included; a run played in closed form has none of them.
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
    steps: int = 0
    rejected: int = 0
    evaluations: int = 0

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
    An evaluation writes no memory.  It continues her radius by
    focal.entry_track from the parabola through the radii she kept at her
    last three step ends in that case, solving by focal.entry_root where it
    declines, from the same prediction and with the evaluations the track made.
    Where case One has no root she steers by case Two's, and where case Two
    has none by the end of its bracket, s_hi, where that root left it; once
    the simulator has located that loss (freeze), she steers by the radius
    kept there and enters the focal line where r reaches it.  commit keeps
    the entry of an evaluation at a step end, but not one past the centre,
    where theta means nothing.  On the focal line: focal.line_segment.
    """

    def __init__(self, params: GameParams, delta_psi: float) -> None:
        self.params, self.mu, self.eps_r, self.shore = params, params.mu, params.eps_r, 1.0 - params.tol_event
        self.cos_d, self.sin_d = math.cos(delta_psi), math.sin(delta_psi)
        self.last = None  # (region, entry) of the last evaluation
        self.reset()

    def reset(self) -> None:
        self.s: float | None = None
        self.case: focal.EntryCase | None = None
        self.frozen = False
        self.track = ((0.0, None),) * 3  # (t, s) at her last three commits in self.case

    def predict(self, t: float) -> float | None:
        """Her radius at t on the parabola through her last three kept radii
        (Newton's divided differences), the secant through two, else the last."""
        (ta, sa), (t0, s0), (t1, s1) = self.track
        if s0 is None or not t0 < t1:
            return self.s
        d1 = (s1 - s0) / (t1 - t0)
        if sa is None or not ta < t0:
            return s1 + (t - t1) * d1
        return s1 + (t - t1) * (d1 + (t - t0) * (d1 - (s0 - sa) / (t0 - ta)) / (t1 - ta))

    def __call__(self, r_in: float, th: float, t: float = 0.0,
                 classical_side: bool | None = None) -> tuple[float, float]:
        """Canonical (cos_psi, sin_psi) at a state, with self.last set to its
        region and its entry: (s, case) on a focal tributary, case None where
        case Two has no root, else None.  classical_side, if given, is the
        side of the barrier taken as hers instead of the state's own."""
        params, mu, eps_r = self.params, self.mu, self.eps_r
        r = eps_r if r_in < eps_r else 1.0 if r_in > 1.0 else r_in
        th = 0.0 if th < 0.0 else _PI if th > _PI else th
        if classical_side is None:
            region = solution.region_of(r, th, params)
        elif classical_side or r >= self.shore:
            region = solution.Region.ABOVE_BARRIER
        else:
            region = solution.min_time_region(r, th, params)
        entry = None
        if region in solution.CLASSICAL_REGIONS:
            c, s = classical.classical_heading_at(r, mu)
        elif region in solution.UNIVERSAL_REGIONS:
            c, s = -1.0, 0.0
        elif self.frozen:
            entry = (self.s, self.case)
            c, s = focal.tributary_heading_at(r, self.s, self.case, mu)
        else:
            case, guess, seen = self.case, self.predict(t), {}
            entry = focal.entry_track(r, th, params, case, guess, seen) if case else None
            if entry is None:
                entry = focal.entry_root(r, th, params, case, guess, seen)
                if entry is None and case is focal.EntryCase.ONE:
                    entry = focal.entry_root(r, th, params, focal.EntryCase.TWO, guess)
                entry = entry or (min(mu, math.sqrt(mu * r)), None)
            c, s = focal.tributary_heading_at(r, entry[0], entry[1], mu)
        self.last = (region, entry)
        if self.sin_d == 0.0:
            return c, s
        return c * self.cos_d - s * self.sin_d, s * self.cos_d + c * self.sin_d

    def commit(self, t: float, r: float, last) -> None:
        """Keep the entry of an evaluation made at a step end t, at radius r."""
        region, entry = last
        if region in solution.UNIVERSAL_REGIONS:
            self.reset()
        elif entry is not None and entry[1] is not None and not self.frozen and r >= self.eps_r:
            s, case = entry
            self.track = (*self.track[1:], (t, s)) if case is self.case else ((t, None), (t, None), (t, s))
            self.s, self.case = entry

    def turn(self) -> None:
        """Case Two from here: she has passed the tangency circle."""
        self.case, self.track = focal.EntryCase.TWO, ((0.0, None),) * 3

    def freeze(self, s: float) -> None:
        """Steer by s from here: case Two's root has left its bracket at s."""
        self.s, self.case, self.frozen = s, focal.EntryCase.TWO, True


# Dormand–Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5):
# nodes C, tableau rows A and fifth-order weights B, which are the seventh
# row, so the last stage is the rate at the step's end, the next step's first
# (FSAL); E is B less the fourth-order weights, the local error estimate.
# Their zero entries (B2, B7, E2) are left out; C6 = C7 = 1.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
# Per stage, the coefficients of x, x^2, x^3, x^4 in its weight at x = (t -
# t0)/h in the order-4 interpolant; each row sums to its fifth-order weight.
_DP_DENSE = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


_DP_DENSE_COLUMNS = tuple(zip(*_DP_DENSE))


def _dp45(deriv, t: float, y: tuple[float, float, float], h: float, k1):
    """One Dormand–Prince 5(4) step of y = (r, theta, alpha) over h.

    deriv(t, r, theta) returns a tuple that starts with the rates of (r,
    theta, alpha), and k1 is its value at the start.  Returns the fifth-order
    end state, the seven stages (the last one deriv's value at the end state)
    and the local error estimate: the largest of the lady's radial and
    tangential displacement (r times the error in theta, r up to 1) and the
    error in the man's angle.  Near the centre theta changes fast and means
    little, so an absolute theta error would cost steps and buy nothing.
    Every weighted sum is taken left to right, stage by stage.
    """
    r, th, al = y
    r1, th1 = k1[0], k1[1]
    k2 = deriv(t + _C2 * h, r + h * (_A21 * r1), th + h * (_A21 * th1))
    r2, th2 = k2[0], k2[1]
    k3 = deriv(t + _C3 * h, r + h * (_A31 * r1 + _A32 * r2), th + h * (_A31 * th1 + _A32 * th2))
    r3, th3 = k3[0], k3[1]
    k4 = deriv(t + _C4 * h, r + h * (_A41 * r1 + _A42 * r2 + _A43 * r3),
               th + h * (_A41 * th1 + _A42 * th2 + _A43 * th3))
    r4, th4 = k4[0], k4[1]
    k5 = deriv(t + _C5 * h, r + h * (_A51 * r1 + _A52 * r2 + _A53 * r3 + _A54 * r4),
               th + h * (_A51 * th1 + _A52 * th2 + _A53 * th3 + _A54 * th4))
    r5, th5 = k5[0], k5[1]
    k6 = deriv(t + h, r + h * (_A61 * r1 + _A62 * r2 + _A63 * r3 + _A64 * r4 + _A65 * r5),
               th + h * (_A61 * th1 + _A62 * th2 + _A63 * th3 + _A64 * th4 + _A65 * th5))
    r6, th6 = k6[0], k6[1]
    dr = _B1 * r1 + _B3 * r3 + _B4 * r4 + _B5 * r5 + _B6 * r6
    dth = _B1 * th1 + _B3 * th3 + _B4 * th4 + _B5 * th5 + _B6 * th6
    dal = _B1 * k1[2] + _B3 * k3[2] + _B4 * k4[2] + _B5 * k5[2] + _B6 * k6[2]
    y1 = (r + h * dr, th + h * dth, al + h * dal)
    k7 = deriv(t + h, y1[0], y1[1])
    er = _E1 * r1 + _E3 * r3 + _E4 * r4 + _E5 * r5 + _E6 * r6 + _E7 * k7[0]
    eth = _E1 * th1 + _E3 * th3 + _E4 * th4 + _E5 * th5 + _E6 * th6 + _E7 * k7[1]
    eal = _E1 * k1[2] + _E3 * k3[2] + _E4 * k4[2] + _E5 * k5[2] + _E6 * k6[2] + _E7 * k7[2]
    err = h * max(abs(er), min(1.0, max(abs(r), abs(y1[0]))) * abs(eth), abs(eal))
    return y1, (k1, k2, k3, k4, k5, k6, k7), err


def _dense(t: float, y: tuple[float, float, float], h: float, ks):
    """The interpolant of the step of _dp45 from (t, y) over h: a function
    from a time in [t, t + h] to (r, theta, alpha).  Its coefficients are
    computed at its first call, since most steps' interpolants are never read."""
    (r, th, al), q = y, []

    def at(tt: float) -> tuple[float, float, float]:
        if not q:
            for i in range(3):
                rates = [h * k[i] for k in ks]
                q.extend(sum(map(operator.mul, column, rates)) for column in _DP_DENSE_COLUMNS)
        r0, r1, r2, r3, t0_, t1_, t2_, t3_, a0, a1, a2, a3 = q
        x = (tt - t) / h
        return (r + x * (r0 + x * (r1 + x * (r2 + x * r3))),
                th + x * (t0_ + x * (t1_ + x * (t2_ + x * t3_))),
                al + x * (a0 + x * (a1 + x * (a2 + x * a3))))

    return at


def _locate(past, at, lo: float, hi: float, tol: float) -> float:
    """First time found in (lo, hi] at which past(t, r, theta) holds on the
    interpolant at, given that it holds at hi and not at lo: at most 60
    halvings, down to a bracket of tol."""
    for _ in range(60):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if past(mid, *at(mid)[:2]):
            hi = mid
        else:
            lo = mid
    return hi


class _Run:
    """One run's state, read and written by the functions below: t, r, th and
    alpha (her canonical state and M's angle), sign (-1 while the frame is
    mirrored), what _start sets to hold over a step sequence (line: 0.0 or pi
    while she slides along it, theta held; pinned: held at the centre; side:
    on the classical side of the barrier; om_step: M's canonical rate) and
    end, the run's end event or None."""

    __slots__ = ("params mu tol slack eps_r heading snap man_rate man_eq period band "
                 "t r th alpha sign line pinned side om_step end t_switch lady traj").split()

    def __init__(self, initial: PolarState, lady: StrategySpec, man: StrategySpec, params: GameParams) -> None:
        tol, self.man_eq = params.tol_event, man.kind == "equilibrium"
        self.params, self.mu, self.tol, self.slack, self.eps_r = params, params.mu, tol, params.slack, params.eps_r
        self.heading = lady.heading if lady.kind == "fixed_heading" else None
        self.snap = self.heading is None  # she snaps onto the focal line
        self.period = man.period if man.kind == "switching_omega" else None
        # M's rate at (t, r, theta), in [-1, 1] (StrategySpec bounds a constant one).
        self.man_rate = ((lambda t, r, th: 0.0 if th <= tol else 1.0) if self.man_eq
                         else (lambda t, r, th: man.value) if man.kind == "constant_omega"
                         else (lambda t, r, th: 1.0 if int(t / man.period) % 2 == 0 else -1.0))
        # He stands still within tol_event of theta = 0: to her that band is the line.
        self.band = tol if self.man_eq else 0.0
        self.t, self.r, self.th, self.alpha, self.sign = 0.0, initial.r, initial.theta, 0.0, 1.0
        self.line, self.pinned, self.side, self.om_step, self.end, self.t_switch = (
            None, False, False, None, None, self.period or math.inf)
        self.lady, self.traj = _Lady(params, lady.delta_psi), Trajectory()


def _start(run: _Run):
    """Start a step sequence at run's state: set line, pinned, side and om_step,
    and return its stage function with its value there.  The stage reads them
    once and counts its calls in traj.evaluations: at (t, r, theta), the rates
    of (r, theta, alpha), the canonical controls and the lady's (region, entry)."""
    t, r, th, period = run.t, run.r, run.th, run.period
    # M's rate is read between his switches: his rate on the open interval.
    t_rate = run.t_switch - 0.5 * period if period else t
    run.om_step = None if run.man_eq else run.man_rate(t_rate, r, th) * run.sign
    run.line, run.pinned, run.side = None, False, _classical_side(run, r, th)
    if th in (0.0, _PI):
        # On theta = 0 or pi she slides along it, leaves it, or mirrors the frame;
        # at the run's end a slide still sets his last rate, and nothing mirrors.
        here, mirrored = _line_rates(run, t, r, th)
        if max(here, mirrored) <= 0.0 if th == 0.0 else run.snap and here >= 0.0:
            run.line = th
        elif run.end is None and (here < 0.0 if th == 0.0 else here > 0.0):
            run.sign = -run.sign
            run.om_step = None if run.man_eq else run.man_rate(t_rate, r, th) * run.sign
            _log(run, "reflection")
    if run.band:
        # He stands still while she slides along theta = 0, and runs at 1 elsewhere.
        run.om_step = 0.0 if run.line == 0.0 else 1.0
    mu, slack, sign, om, side, lady, traj = run.mu, run.slack, run.sign, run.om_step, run.side, run.lady, run.traj
    sliding, dal = run.line is not None, sign * om
    fixed = (run.heading[0], sign * run.heading[1]) if run.heading else None  # her controls, if fixed

    def stage(t: float, r: float, th: float):
        traj.evaluations += 1
        c, s_ = fixed or lady(r, th, t, side)  # lady.last stays None where her heading is fixed
        if run.pinned:
            return 0.0, 0.0, dal, (c, s_, om), lady.last
        dr, dth = rates(max(abs(r), slack), c, s_, om, mu)
        return dr, (0.0 if sliding else dth), dal, (c, s_, om), lady.last

    k1 = stage(t, r, th)
    if r <= run.eps_r and k1[0] < 0.0 and run.end is None:
        # Through the centre she would only turn back into it.
        run.pinned = True
        k1 = stage(t, r, th)
    if k1[4] is not None:
        lady.commit(t, r, k1[4])
    return stage, k1


def _record(run: _Run, t: float, alpha: float, r: float, th: float, c: float, s_: float, om: float) -> None:
    """Append a state and its canonical controls in the true frame."""
    traj, sign = run.traj, run.sign
    values = (t, r, th, alpha, int(sign < 0.0), c, sign * min(1.0, max(-1.0, s_)), sign * om)
    for column, value in zip((traj.t, traj.r, traj.theta, traj.man_angle, traj.mirror, traj.cos_psi,
                              traj.sin_psi, traj.omega), values):
        column.append(value)


def _follow(run: _Run, segs, dt: float, t_max: float) -> bool:
    """Record closed-form segments from run.t; whether the last one ends by
    t_max.  A segment entered at t_s is recorded at t_s + k dt while that is
    more than slack below its end, and the run's last record is exactly at
    the last segment's end or at t_max.  M's angle is in closed form: a
    segment's rate holds, and the switching man's +-1 wave integrates to a
    triangle wave."""
    traj, sign, period, slack = run.traj, run.sign, run.period, run.slack
    triangle = lambda tt: period - abs(math.fmod(tt, 2.0 * period) - period)  # noqa: E731
    for seg in segs:
        t_s, a_s, t_end = run.t, run.alpha, min(seg.t1, t_max)
        last = seg is segs[-1] or t_end >= t_max - slack
        ts = [t_s + k * dt for k in range(max(0, int((t_end - slack - t_s) / dt) + 2))]
        while ts and ts[-1] >= t_end - slack:
            ts.pop()
        if last:
            ts.append(t_end)
        if period:
            tri_s = triangle(t_s)
            oms, als = [sign * om for om in map(seg.omega, ts)], [a_s + triangle(tt) - tri_s for tt in ts]
            a_end = a_s + triangle(t_end) - tri_s
        else:
            om = sign * seg.omega(t_s)
            oms, als, a_end = [om] * len(ts), [a_s + om * (tt - t_s) for tt in ts], a_s + om * (t_end - t_s)
        run.t, run.alpha = t_end, a_end
        for column, values in zip((traj.t, traj.man_angle, traj.mirror, traj.omega),
                                  (ts, als, [int(sign < 0.0)] * len(ts), oms)):
            column.extend(values)
        for i in range(0, len(ts), 1024):  # 1,024 states at a time, to bound the peak
            rs, ths, cs, ss = seg.state(ts[i:i + 1024])
            ss = ss if sign > 0.0 else [-s_ for s_ in ss]
            for column, values in zip((traj.r, traj.theta, traj.cos_psi, traj.sin_psi), (rs, ths, cs, ss)):
                column.extend(values)
        if last:
            return seg is segs[-1] and t_end == seg.t1


def _line_rates(run: _Run, t: float, r: float, th: float) -> tuple[float, float]:
    """theta' on the line th (0 or pi) in this frame and in the mirrored one,
    where M's rate changes sign but the equilibrium man's (1 next to the
    line), and her heading only if it is fixed."""
    heading = run.heading
    c, s_ = (heading[0], run.sign * heading[1]) if heading else run.lady(r, th, t)
    om = 1.0 if run.man_eq else run.om_step
    base = run.mu / max(r, run.slack) * s_
    return base - om, (-base if heading else base) - (om if run.man_eq else -om)


def _held(run: _Run, t: float, r: float) -> bool:
    """Whether she stays on the line she slides along, or at the centre."""
    if run.pinned:  # theta is the step's start's
        return (run.heading[0] if run.heading else run.lady(run.eps_r, run.th, t)[0]) < 0.0
    here, mirrored = _line_rates(run, t, r, run.line)
    return here >= 0.0 if run.line == _PI else max(here, mirrored) <= 0.0


def _classical_side(run: _Run, r: float, th: float) -> bool:
    """Whether (r, theta) lies on the classical game's side of the barrier."""
    return not r < run.mu and classical.barrier_side(
        min(r, 1.0), min(max(th, 0.0), _PI), run.params) is not classical.BarrierSide.BELOW


def _case_lost(run: _Run, case: focal.EntryCase, r: float, th: float) -> bool:
    """Whether the mismatch at s_hi, where the two cases meet, says that case
    has no root: One has one iff it is >= 0, Two iff it is <= 0 and r <= mu."""
    mu, r, th = run.mu, min(max(r, run.eps_r), 1.0), min(max(th, 0.0), _PI)
    s_hi = min(mu, math.sqrt(mu * r))
    return case is _TWO and s_hi < r or (1.0 if case is _ONE else -1.0) * focal._newton(r, th, s_hi, case, mu)[0] < 0.0


def _log(run: _Run, kind: str) -> bool:
    """Log an event at run.t; False, the value of an action that ends with it."""
    run.traj.events.append((run.t, kind))
    return False


def _shore_exit(run: _Run) -> bool:
    run.r, run.end = 1.0, "shore_exit"
    return False


def _through_centre(run: _Run) -> bool:
    """Onto the opposite ray, in the mirrored frame unless on the focal line."""
    run.r, run.th = max(abs(run.r), run.eps_r), _PI - run.th
    run.th, run.sign = (_PI, run.sign) if abs(run.th - _PI) <= run.tol else (run.th, -run.sign)
    run.lady.reset()
    return _log(run, "origin_passage") or run.snap and run.th == _PI


def _ul_cross(run: _Run) -> bool:
    """She enters the universal line if theta' <= 0 in the mirrored frame too,
    or she snaps and the equilibrium man stands still; else she mirrors the
    frame, but not at a switch, which leaves theta = 0 to _start."""
    if run.man_eq and run.snap or _line_rates(run, run.t, run.r, 0.0)[1] <= 0.0:
        run.th = 0.0
        return _log(run, "ul_entry")
    if run.t < run.t_switch:
        run.sign = -run.sign
        _log(run, "reflection")
    return False


def _fl_cross(run: _Run) -> bool:
    """A snapping lady short of E is put on the focal line at her r (at most
    mu); any other lady mirrors the frame."""
    if run.snap and run.r < run.mu + run.tol:
        run.r, run.th = min(run.r, run.mu), _PI
        _log(run, "fl_entry")
        return True
    run.sign = -run.sign
    run.end = "reached_e" if abs(run.r - run.mu) <= run.tol and abs(run.th - _PI) <= run.tol else None
    return _log(run, "reflection")


# The event table, one row per located event (fl_cross has two: theta crosses
# pi, or r reaches the radius a frozen lady keeps).  A row's guard(run, t1,
# r1, th1, e) says whether the step from run's state holds it (e: the lady's
# (s, case) at t1, or None); _locate bisects its past(run, t, r, th) on the
# step's interpolant; its action(run) at the located time returns whether she
# is on the focal line.  barrier_crossing, last, is read where the others cut.
_Event = namedtuple("_Event", "kind priority guard past action")
_ONE, _TWO = focal.EntryCase.ONE, focal.EntryCase.TWO
_EVENTS = (
    _Event("shore_exit", 4, lambda run, t1, r1, th1, e: run.r < 1.0 <= r1,
           lambda run, t, r, th: r >= 1.0, _shore_exit),
    _Event("origin_passage", 2, lambda run, t1, r1, th1, e: run.r > run.eps_r >= r1,
           lambda run, t, r, th: r <= run.eps_r, _through_centre),
    _Event("ul_cross", 7, lambda run, t1, r1, th1, e: run.line is None and run.th > run.band >= th1,
           lambda run, t, r, th: th <= run.band, _ul_cross),
    _Event("fl_cross", 1, lambda run, t1, r1, th1, e: run.line is None and run.th < _PI <= th1,
           lambda run, t, r, th: th >= _PI, _fl_cross),
    _Event("slide_end", 5, lambda run, t1, r1, th1, e: (run.line is not None or run.pinned) and not _held(run, t1, r1),
           lambda run, t, r, th: not _held(run, t, r), lambda run: False),
    _Event("tangency", 6, lambda run, t1, r1, th1, e: run.lady.case is _ONE and e is not None and e[1] is not _ONE,
           lambda run, t, r, th: _case_lost(run, _ONE, r, th), lambda run: run.lady.turn() or _log(run, "tangency")),
    _Event("root_lost", 3,
           lambda run, t1, r1, th1, e: run.lady.case is _TWO and e is not None and e[1] is None and not run.lady.frozen,
           lambda run, t, r, th: _case_lost(run, _TWO, r, th),
           lambda run: run.lady.freeze(min(run.mu, math.sqrt(run.mu * max(run.r, run.eps_r))))),
    _Event("fl_cross", 1, lambda run, t1, r1, th1, e: run.lady.frozen and run.lady.s <= r1,
           lambda run, t, r, th: run.lady.s <= r, _fl_cross),
    _Event("barrier_crossing", 0, lambda run, t1, r1, th1, e: run.side is not _classical_side(run, r1, th1),
           lambda run, t, r, th: _classical_side(run, r, th) is not run.side,
           lambda run: _log(run, "barrier_crossing")),
)


def _step_event(run: _Run, at, t1: float, y1, last, rows=_EVENTS):
    """The earliest event of rows over the step from run's state to (t1, y1),
    with interpolant at and the lady's (region, entry) at t1 or None: (time,
    row), or (t1, None).  The last row is located only before the earliest of
    the others, its guard read there; a tie goes to the lowest priority."""
    entry, r1, th1, found = last[1] if last is not None else None, y1[0], y1[1], []
    for row in rows[:-1]:
        if row.guard(run, t1, r1, th1, entry):
            found.append((_locate(partial(row.past, run), at, run.t, t1, run.tol), row.priority, row))
    row, t_cut = rows[-1], min(found, key=operator.itemgetter(0, 1))[0] if found else t1
    if row.guard(run, t_cut, *(at(t_cut)[:2] if t_cut < t1 else (r1, th1)), entry):
        found.append((_locate(partial(row.past, run), at, run.t, t_cut, run.tol), row.priority, row))
    return min(found, key=operator.itemgetter(0, 1))[::2] if found else (t1, None)


def _integrate(run: _Run, dt: float, t_max: float) -> bool:
    """Dormand–Prince steps from run's state until the run ends or reaches
    t_max; whether it stops because she is on the focal line."""
    traj, slack, period, tol_step = run.traj, run.slack, run.period, run.params.tol_step
    at_e = abs(run.r - run.mu) <= run.tol and abs(run.th - _PI) <= run.tol
    run.end = "reached_e" if at_e else ("shore_exit" if run.r >= 1.0 - run.tol else None)
    k1, h = None, 0.1 * tol_step**0.2  # a first trial step; error control adapts it
    err_last, rejected = 1.0, False  # the last accepted step's error over tol_step; the last try's fate
    anchor, n_rec, n_events = 0.0, 0, 0  # records at anchor + n_rec dt, anchor the last logged event's time
    n_switch = 1 if period else 0
    while True:
        if k1 is None:  # a new step sequence: after an event, a switch or at the start
            stage, k1 = _start(run)
        t, y0 = run.t, (run.r, run.th, run.alpha)
        if len(traj.events) > n_events:
            anchor, n_rec, n_events = t, 0, len(traj.events)
        done = run.end is not None or t >= t_max - slack
        if done or anchor + n_rec * dt <= t + slack:
            _record(run, t, y0[2], y0[0], y0[1], *k1[3])
            n_rec += 1
        if done:
            return False
        h_try = min(h, t_max - t, run.t_switch - t)
        try:
            y1, ks, err = _dp45(stage, t, y0, h_try, k1)
        except LakeGameError:
            return _log(run, "strategy_error")
        if not (math.isfinite(y1[0]) and math.isfinite(y1[1])):
            raise LakeGameError(f"integration produced NaN at t = {t}")
        t1 = t + h_try
        try:
            row, t_end = None, t1
            if err <= tol_step:
                # Its events: the step is taken again up to the earliest, its stages before it.
                at = _dense(t, y0, h_try, ks)
                t_end, row = _step_event(run, at, t1, y1, ks[-1][4])
                if row is not None and t_end < t1:
                    h_try = t_end - t
                    y1, ks, err = _dp45(stage, t, y0, h_try, k1)
                    at = _dense(t, y0, h_try, ks)
            # Step size by Hairer and Wanner's PI control (Solving ODEs I, IV.2, and
            # DOPRI5): shrink at most 5x, grow at most 10x, not right after a rejection.
            err /= tol_step
            if err > 1.0:
                traj.rejected += 1
                h, rejected = h_try / min(5.0, err**0.17 / 0.9), True
                continue
            traj.steps += 1
            h_new = h_try / max(0.1, min(5.0, err**0.17 / err_last**0.04 / 0.9))
            h_new = min(h_new, h_try) if rejected else h_new
            h = h_new if h_try >= h else min(h, h_new)
            err_last, rejected = max(err, 0.0001), False
            if row is None and y1[0] < 0.0:
                row = _EVENTS[1]  # origin_passage, unlocated: through the centre from r = eps_r
            # The sequence also ends where a step off a line she left leaves [0, pi].
            cut = row is not None or not 0.0 <= y1[1] <= _PI
            if not cut and ks[-1][4] is not None:
                # Kept before the records, which then interpolate her radius.
                run.lady.commit(t1, y1[0], ks[-1][4])
            while anchor + n_rec * dt < t_end - slack:
                t_rec = anchor + n_rec * dt
                r_rec, th_rec, al_rec = at(t_rec)
                th_rec = min(max(th_rec, 0.0), _PI)
                _record(run, t_rec, al_rec, r_rec, th_rec, *stage(t_rec, r_rec, th_rec)[3])
                n_rec += 1
        except LakeGameError:
            return _log(run, "strategy_error")
        run.t, run.r, run.alpha, k1 = t_end, y1[0], y1[2], None if cut else ks[-1]
        run.th = min(max(y1[1], 0.0), _PI) if cut else y1[1]
        if row is not None and row.action(run):
            return True
        if run.t >= run.t_switch:
            n_switch += 1
            run.t_switch, k1 = n_switch * period, None


def simulate(
    initial: PolarState,
    lady: StrategySpec,
    man: StrategySpec,
    dt: float = 1e-4,
    t_max: float = 20.0,
    params: GameParams | None = None,
) -> Trajectory:
    """Run the closed loop from an initial canonical state, recording every dt.

    Equilibrium lady against equilibrium man samples rollout(initial), each
    segment every dt from the time it starts, so its events and t_final are
    the rollout's.
    The eq/eq starts that are integrated instead:
    - a classical path with V <= tol_event (below the critical mu), which
      reaches theta = 0 before the shore.

    Other runs take Dormand–Prince 5(4) steps (_dp45) that hold the local
    error to tol_step, until a lady who plays the focal-line control is on
    theta = pi; from there she follows focal.line_segment.  dt is only the
    record spacing, counted from the last logged event: a record's state
    comes from its step's interpolant and its controls from one strategy
    evaluation, and the lady's memory is written only at step ends, so events
    and t_final do not depend on dt.  Each discontinuity of the right-hand
    side ends a step: the switching man's switches bound the steps, each
    taking his rate on its open interval, and the events of the table
    _EVENTS are located on an accepted step's interpolant, which is then
    taken again up to the earliest.  Of events at one time the first in this
    order wins (the rows' priorities): barrier_crossing, fl_cross,
    origin_passage, root_lost, shore_exit, slide_end, tangency, ul_cross.

    A snapping lady enters the focal line where theta crosses pi, or, once
    frozen, where r reaches the radius she keeps, whichever is located
    first, and is put on theta = pi at her r (at most mu); so is one who
    starts on it or, as in rollout, at the centre (r < eps_r).  She is frozen
    where case Two's root leaves its bracket (root_lost), at the bracket's
    end s_hi; a root still in it stays above r until theta = pi.  All seven
    delta_psi = -0.05 runs of TestRunSet are frozen and enter short of the
    line, and the put moves each of them by about 2.0e-5.

    The equilibrium man stands still within tol_event of theta = 0, so to
    every lady the edge of that band is theta = 0 itself.  She enters the line
    there (ul_entry) unless her field points through it, and slides along it,
    theta held and the man still, while her field points into it from both
    sides; a fixed heading with |mu sin psi / r| <= 1 thus reaches the shore
    along theta = 0, with theta_f = 0.
    """
    if params is None:
        raise DomainError("params is required")
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        raise DomainError("dt and t_max must be finite and positive")
    if lady.side != "lady" or man.side != "man":
        raise DomainError("a lady strategy and a man strategy are required")
    segments = None
    if lady.kind == man.kind == "equilibrium":
        try:
            segments, events = rollout(initial, params)
        except RegionError:
            pass  # the docstring's list of starts that are integrated
    run = _Run(initial, lady, man, params)
    traj = run.traj
    if segments is not None:
        run.end = events[-1][1] if _follow(run, segments, dt, t_max) else None
        traj.events.extend(ev for ev in events[:-1] if ev[0] <= run.t)
    # A snapping lady on theta = pi or at the centre leaves the integrator for the focal line.
    elif run.snap and solution._fl_start(run.r, run.th, params) or _integrate(run, dt, t_max):
        # M's canonical rate on the line holds but for the switching man's.
        t, r, man_rate, sign = run.t, run.r, run.man_rate, 1.0 if run.man_eq else run.sign
        rate = (lambda tt: man_rate(tt, r, _PI) * sign) if run.period else man_rate(t, r, _PI) * sign
        run.end = "reached_e" if _follow(run, [focal.line_segment(t, r, _PI, rate, params)], dt, t_max) else None
    if run.end is not None:
        _log(run, run.end)
        traj.outcome = "reached_shore" if run.end == "shore_exit" else run.end
        traj.theta_f = traj.theta[-1] if run.end == "shore_exit" else None
    traj.t_final = run.t
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
    import multiprocessing  # here, so that only this call loads it
    import threading
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(jobs), cpus)
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return list(map(_deviation_run, jobs))
    # Job indices wait in one pipe, closed for writing before any fork; each process takes
    # the next in row order as it becomes free, so the long delta_psi=-0.05 run overlaps the others.
    taken, put = os.pipe()
    os.write(put, bytes(range(len(jobs))))
    os.close(put)

    def take() -> list[tuple]:
        done = []
        while k := os.read(taken, 1):
            try:
                done.append((k[0], True, _deviation_run(jobs[k[0]])))
            except Exception as exc:  # sent back, then raised by the caller in row order
                done.append((k[0], False, exc))
        return done

    context, children = multiprocessing.get_context("fork"), []
    try:
        for _ in range(workers - 1):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=lambda send=send: send.send(take()))
            child.start()
            children.append((child, receive))
            send.close()  # so that a child's death reads as EOF
        done = take()
        for child, receive in children:
            try:
                done += receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a deviation child exited with code {child.exitcode}, sending nothing") from None
    finally:
        os.close(taken)
        for child, receive in children:
            receive.close()
            child.join()
    done.sort()  # by index, which no two runs share
    for _, ok, result in done:
        if not ok:
            raise result
    return [result for _, _, result in done]


def deviation_report(
    initial: PolarState, params: GameParams, dt: float = 1e-3
) -> tuple[float, list[DeviationRow]]:
    """Saddle check around equilibrium play from a below-barrier start, whose
    min-time value is t_eq (RegionError on or above the barrier, where the
    value is a terminal angle).  L-deviations should not arrive earlier than
    t_eq, M-deviations should not make feedback-L arrive later; a pass is
    margin >= -tolerance on every row.

    A row reads only its run's outcome and t_final, which never depended on
    the record spacing, so each run records only at its start, its events
    and its end (spacing t_max), and the rows are the same at every dt.  dt
    is kept for callers and refused where simulate would refuse it.

    The five runs are independent and run at once: the caller takes them one
    at a time beside up to four forked children, one process per CPU.  They
    run in-process with one CPU, without fork, in a daemonic caller (which may
    have no children) or beside other threads (where a fork is unsafe); the
    rows are the same either way.  RuntimeError if a child dies sending nothing.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError("dt must be finite and positive")
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
    results = _map_runs([(initial, lady, man, t_max, t_max, params) for _, _, lady, man in runs])
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
