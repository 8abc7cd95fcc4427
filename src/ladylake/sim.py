"""Closed-loop forward simulation of the relative dynamics.

Equilibrium lady against equilibrium man samples solution.rollout, the
paper's closed-form path, segment by segment.  Other runs integrate the
feedback strategies with error-controlled Dormand–Prince 5(4) steps, every
discontinuity of the right-hand side at a step end: switch times bound the
steps, and events (focal-line entry, tangency, origin passage, shore exit,
barrier crossings) are located on the steps' interpolants.  Records are
taken from the interpolants, so the time grid spaces them and changes
nothing else.  A lady who plays the focal-line control follows its closed
form once on theta = pi.  The integrated state is kept in the canonical
half-plane, theta in [0, pi]: a crossing of theta = 0 or pi either snaps
onto the singular line or mirrors the frame (theta seen as -theta), and a
passage through the centre lands on the opposite ray, at pi - theta in the
mirrored frame (unmirrored if that is theta = pi).
"""
from __future__ import annotations

import math
import operator
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
    kept there.  commit keeps the entry of an evaluation at a step end, but
    not one past the centre, where theta means nothing.  On the focal line:
    focal.line_segment.
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
    and t_final do not depend on dt.  Each discontinuity of the right-hand side
    ends a step.  The switching man's switch times bound the steps, each
    step taking his rate on its open interval.  The rest are events located
    on the interpolant: shore_exit, origin_passage, theta = 0 or pi crossed
    (a snapping lady enters the singular line, else the frame is mirrored),
    the case-Two focal-line entry (r meets her entry radius, continued along
    the step by focal.entry_track, or by focal.entry_root from a declined
    track's evaluations), tangency (case One loses its root), the loss of
    case Two's root, the end of a slide along theta = 0 or pi, and
    barrier_crossing (she enters or leaves the classical game's side).

    A snapping lady enters the focal line where theta crosses pi or where r
    meets her case-Two entry radius, whichever is located first, and is put
    on theta = pi at her r (at most mu); so is one who starts on it or, as in
    rollout, at the centre (r < eps_r).  By the radius rule she may still be
    short of the line: all seven delta_psi = -0.05 runs of TestRunSet enter
    so, and the put moves each of them by about 2.0e-5.

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
    mu, tol, slack, eps_r = params.mu, params.tol_event, params.slack, params.eps_r
    segments = None
    if lady.kind == man.kind == "equilibrium":
        try:
            segments, events = rollout(initial, params)
        except RegionError:
            pass  # the docstring's list of starts that are integrated
    lady_s = _Lady(params, lady.delta_psi)
    fixed_heading = lady.heading if lady.kind == "fixed_heading" else None
    snap_to_fl = fixed_heading is None
    man_rate = _man_rate(man, params)
    man_eq = man.kind == "equilibrium"
    period = man.period if man.kind == "switching_omega" else None
    # The equilibrium man stands still within tol_event of theta = 0, so a
    # lady who reaches that band has reached the universal line.
    band = tol if man_eq else 0.0

    r, th, alpha, sign = initial.r, initial.theta, 0.0, 1.0
    traj = Trajectory()
    om_step = None  # M's canonical rate over the step
    line = None  # the line (0.0 or pi) she slides along, theta held, or None
    pinned = False  # at the centre with her heading into it: r and theta held
    side = False  # whether the step is on the classical side of the barrier
    evaluations = 0

    def omega(tt: float, rr: float, thh: float) -> float:
        """M's canonical rate at a state, clamped to [-1, 1]."""
        return min(1.0, max(-1.0, man_rate(tt, rr, thh) * (1.0 if man_eq else sign)))

    def stage(tt: float, rr: float, thh: float):
        """Rates of (r, theta, alpha) at a state, then the canonical controls
        (cos_psi, sin_psi, omega) and the lady's (region, entry) there."""
        nonlocal evaluations
        evaluations += 1
        om = om_step
        if fixed_heading is not None:
            c, s_, last = fixed_heading[0], sign * fixed_heading[1], None
        else:
            c, s_ = lady_s(rr, thh, tt, side)
            last = lady_s.last
        dr, dth = rates(max(abs(rr), slack), c, s_, om, mu)
        if pinned:
            return 0.0, 0.0, sign * om, (c, s_, om), last
        return dr, (0.0 if line is not None else dth), sign * om, (c, s_, om), last

    columns = (traj.t, traj.r, traj.theta, traj.man_angle, traj.mirror, traj.cos_psi, traj.sin_psi, traj.omega)

    def record(tt, al, rr, thh, c, s_, om) -> None:
        """Append a state and its canonical controls in the true frame."""
        values = (tt, rr, thh, al, int(sign < 0.0), c, sign * min(1.0, max(-1.0, s_)), sign * om)
        for column, value in zip(columns, values):
            column.append(value)

    def triangle(tt: float) -> float:
        """M's angle at tt under the switching man: the integral of his +-1
        square wave, which starts at +1."""
        return period - abs(math.fmod(tt, 2.0 * period) - period)

    def follow(segs) -> bool:
        """Record closed-form segments from t; whether the last one ends by
        t_max.  A segment entered at t_s is recorded at t_s + k dt while that
        is more than slack below its end (a middle segment's end is the next
        one's first record), and the run's last record is exactly at the last
        segment's end or at t_max.  M's angle is in closed form: a segment's
        rate holds but for the switching man's, whose angle is triangle's."""
        nonlocal t, alpha
        for seg in segs:
            t_s, a_s, t_end = t, alpha, min(seg.t1, t_max)
            last = seg is segs[-1] or t_end >= t_max - slack
            ts = [t_s + k * dt for k in range(max(0, int((t_end - slack - t_s) / dt) + 2))]
            while ts and ts[-1] >= t_end - slack:
                ts.pop()
            if last:
                ts.append(t_end)
            if period:
                oms, tri_s = [sign * om for om in map(seg.omega, ts)], triangle(t_s)
                als = [a_s + triangle(tt) - tri_s for tt in ts]
                t, alpha = t_end, a_s + triangle(t_end) - tri_s
            else:
                om = sign * seg.omega(t_s)
                oms, als = [om] * len(ts), [a_s + om * (tt - t_s) for tt in ts]
                t, alpha = t_end, a_s + om * (t_end - t_s)
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

    def line_rates(tt: float, rr: float, thh: float) -> tuple[float, float]:
        """theta' on the line thh (0 or pi) in this frame and in the mirrored
        one, where M's canonical rate changes sign but the equilibrium man's,
        and her canonical heading only if it is fixed.  Next to the line the
        equilibrium man runs at 1 (he stands still only within tol_event of
        theta = 0), so she slides along theta = 0 while that rate holds her
        there."""
        if fixed_heading is not None:
            c, s_ = fixed_heading[0], sign * fixed_heading[1]
        else:
            c, s_ = lady_s(rr, thh, tt)
        om = 1.0 if man_eq else om_step
        base = mu / max(rr, slack) * s_
        return base - om, (-base if fixed_heading else base) - (om if man_eq else -om)

    def held(tt: float, rr: float) -> bool:
        """Whether she stays on the line she slides along, or at the centre."""
        if pinned:
            return (fixed_heading[0] if fixed_heading else lady_s(eps_r, th, tt)[0]) < 0.0
        here, mirrored = line_rates(tt, rr, line)
        return here >= 0.0 if line == _PI else max(here, mirrored) <= 0.0

    def slides(tt: float, rr: float) -> bool:
        """Whether a lady who crosses theta = 0 enters the line rather than
        mirror the frame: theta' <= 0 in the mirrored frame too, or she snaps
        and the equilibrium man stands still there."""
        return man_eq and snap_to_fl or line_rates(tt, rr, 0.0)[1] <= 0.0

    def at_e(rr: float, thh: float) -> bool:
        return abs(rr - mu) <= tol and abs(thh - _PI) <= tol

    def classical_side(rr: float, thh: float) -> bool:
        """Whether (r, theta) lies on the classical game's side of the barrier."""
        if rr < mu:
            return False
        return classical.barrier_side(min(rr, 1.0), min(max(thh, 0.0), _PI), params) is not classical.BarrierSide.BELOW

    def case_lost(case: focal.EntryCase):
        """Event test for the loss of the kept case's root: the mismatch at
        s_hi, where the two cases meet, changes sign (One has a root iff it is
        >= 0, Two iff it is <= 0, and Two has no bracket past r = mu)."""
        up = 1.0 if case is focal.EntryCase.ONE else -1.0

        def past(tt: float, rr: float, thh: float) -> bool:
            rr, thh = min(max(rr, eps_r), 1.0), min(max(thh, 0.0), _PI)
            s_hi = min(mu, math.sqrt(mu * rr))
            if up < 0.0 and s_hi < rr:
                return True
            return up * focal._newton(rr, thh, s_hi, case, mu)[0] < 0.0

        return past

    def s_ahead(tt: float, rr: float, thh: float) -> float:
        """Her case-Two entry radius continued along the step: the kept one
        once frozen, her predicted radius once r has passed it, else the root
        that entry_track (entry_root where it declines) finds from it."""
        if lady_s.frozen:
            return lady_s.s
        guess = lady_s.predict(tt)
        if guess <= rr:
            return guess
        rr, thh = min(max(rr, eps_r), 1.0), min(max(thh, 0.0), _PI)
        two, seen = focal.EntryCase.TWO, {}
        found = focal.entry_track(rr, thh, params, two, guess, seen) or focal.entry_root(rr, thh, params, two, guess, seen)
        return found[0] if found else guess

    def fl_ahead(tt: float, rr: float, thh: float) -> bool:
        return s_ahead(tt, rr, thh) <= rr

    def step_event(at, t1: float, y1, ks) -> tuple[float, str]:
        """The earliest event over the step from (t, r, th) to t1 and y1, with
        stages ks and interpolant at: (time, kind), or (t1, "step")."""
        r1, th1, _ = y1
        found = []

        def locate(kind: str, past) -> None:
            found.append((_locate(past, at, t, t1, tol), kind))

        if r < 1.0 <= r1:
            locate("shore_exit", lambda tt, rr, thh: rr >= 1.0)
        if r > eps_r >= r1:
            locate("origin_passage", lambda tt, rr, thh: rr <= eps_r)
        if line is None:
            if th > band >= th1:
                locate("ul_cross", lambda tt, rr, thh: thh <= band)
            if th < _PI <= th1:
                locate("fl_cross", lambda tt, rr, thh: thh >= _PI)
        if (line is not None or pinned) and not held(t1, r1):
            locate("slide_end", lambda tt, rr, thh: not held(tt, rr))
        entry = ks[-1][4][1] if ks[-1][4] is not None else None
        if lady_s.case is focal.EntryCase.ONE and entry is not None and entry[1] is not lady_s.case:
            locate("tangency", case_lost(focal.EntryCase.ONE))
        if lady_s.case is focal.EntryCase.TWO:
            if entry is not None and entry[1] is None and not lady_s.frozen:
                locate("root_lost", case_lost(focal.EntryCase.TWO))
            # The step end's own solve, where it made one, is s_ahead's.
            solved = entry is not None and entry[1] is focal.EntryCase.TWO and not lady_s.frozen
            if snap_to_fl and (min(entry[0], lady_s.predict(t1)) <= r1 if solved else fl_ahead(t1, r1, th1)):
                locate("fl_cross", fl_ahead)
        # The side is read where the step is cut, not past the shore.
        t_cut = min(found)[0] if found else t1
        if side is not classical_side(*(at(t_cut)[:2] if t_cut < t1 else (r1, th1))):
            found.append((_locate(lambda tt, rr, thh: classical_side(rr, thh) is not side, at, t, t_cut, tol),
                          "barrier_crossing"))
        return min(found) if found else (t1, "step")

    t, end = 0.0, None
    # A snapping lady on theta = pi or at the centre leaves the integrator for the focal line.
    lands_on_fl = segments is None and snap_to_fl and (r < eps_r or abs(th - _PI) <= tol and r <= mu + tol)
    if segments is not None:
        end = events[-1][1] if follow(segments) else None
        traj.events.extend(ev for ev in events[:-1] if ev[0] <= t)
    elif not lands_on_fl:
        end = "reached_e" if at_e(r, th) else ("shore_exit" if r >= 1.0 - tol else None)
        k1, h = None, 0.1 * params.tol_step**0.2  # a first trial step; error control adapts it
        err_last, rejected = 1.0, False  # the last accepted step's error over tol_step; the last try's fate
        anchor, n_rec, n_events = 0.0, 0, 0  # records at anchor + n_rec dt, anchor the last logged event's time
        n_switch = 1 if period else 0
        t_switch = period if period else math.inf
        while True:
            if k1 is None:
                # A new step sequence: after an event, a switch or at the start.
                # M's rate is read between his switches: his rate on the open interval.
                t_rate = t_switch - 0.5 * period if period else t
                om_step = None if man_eq else omega(t_rate, r, th)
                line, pinned, side = None, False, classical_side(r, th)
                if th in (0.0, _PI):
                    # On theta = 0 or pi she slides along it, leaves it, or the
                    # frame is mirrored; at the run's end a slide still sets his
                    # last rate, and nothing is mirrored.
                    here, mirrored = line_rates(t, r, th)
                    if max(here, mirrored) <= 0.0 if th == 0.0 else snap_to_fl and here >= 0.0:
                        line = th
                    elif end is None and (here < 0.0 if th == 0.0 else here > 0.0):
                        sign = -sign
                        om_step = None if man_eq else omega(t_rate, r, th)
                        traj.events.append((t, "reflection"))
                if band:
                    # He stands still while she slides along theta = 0 (the
                    # band is that line to her) and runs at 1 elsewhere.
                    om_step = 0.0 if line == 0.0 else 1.0
                k1 = stage(t, r, th)
                if r <= eps_r and k1[0] < 0.0 and end is None:
                    # Through the centre she would only turn back into it.
                    pinned = True
                    k1 = stage(t, r, th)
                if k1[4] is not None:
                    lady_s.commit(t, r, k1[4])
            if len(traj.events) > n_events:
                anchor, n_rec, n_events = t, 0, len(traj.events)
            if end is not None or t >= t_max - slack or anchor + n_rec * dt <= t + slack:
                record(t, alpha, r, th, *k1[3])
                n_rec += 1
            if end is not None or t >= t_max - slack:
                break
            h_try = min(h, t_max - t, t_switch - t)
            try:
                y1, ks, err = _dp45(stage, t, (r, th, alpha), h_try, k1)
            except LakeGameError:
                traj.events.append((t, "strategy_error"))
                break
            if not (math.isfinite(y1[0]) and math.isfinite(y1[1])):
                raise LakeGameError(f"integration produced NaN at t = {t}")
            y0, t1 = (r, th, alpha), t + h_try
            try:
                kind, t_end = "step", t1
                if err <= params.tol_step:
                    # Its events: the step is taken again up to the earliest, so
                    # that its stages all lie before it.
                    at = _dense(t, y0, h_try, ks)
                    t_end, kind = step_event(at, t1, y1, ks)
                    if kind != "step" and t_end < t1:
                        h_try = t_end - t
                        y1, ks, err = _dp45(stage, t, y0, h_try, k1)
                        at = _dense(t, y0, h_try, ks)
                # Step size by Hairer and Wanner's PI control (Solving ODEs I,
                # IV.2, and their DOPRI5): shrink at most 5x, grow at most 10x,
                # and not at all right after a rejection.
                err /= params.tol_step
                if err > 1.0:
                    traj.rejected += 1
                    h, rejected = h_try / min(5.0, err**0.17 / 0.9), True
                    continue
                traj.steps += 1
                h_new = h_try / max(0.1, min(5.0, err**0.17 / err_last**0.04 / 0.9))
                h_new = min(h_new, h_try) if rejected else h_new
                h = h_new if h_try >= h else min(h, h_new)
                err_last, rejected = max(err, 0.0001), False
                if kind == "step" and (y1[0] < 0.0 or not 0.0 <= y1[1] <= _PI):
                    # Through the centre from r = eps_r, or off a line she left.
                    kind = "origin_passage" if y1[0] < 0.0 else "clamp"
                elif kind == "step" and ks[-1][4] is not None:
                    # Kept before the records, which then interpolate her radius.
                    lady_s.commit(t1, y1[0], ks[-1][4])
                while anchor + n_rec * dt < t_end - slack:
                    t_rec = anchor + n_rec * dt
                    r_rec, th_rec, al_rec = at(t_rec)
                    th_rec = min(max(th_rec, 0.0), _PI)
                    record(t_rec, al_rec, r_rec, th_rec, *stage(t_rec, r_rec, th_rec)[3])
                    n_rec += 1
            except LakeGameError:
                traj.events.append((t, "strategy_error"))
                break

            if kind == "step":
                t, (r, th, alpha), k1 = t1, y1, ks[-1]
            else:
                t, (r, th, alpha), k1 = t_end, y1, None
                th = min(max(th, 0.0), _PI)
            if kind == "shore_exit":
                r, end = 1.0, kind
            elif kind == "origin_passage":
                # Through the centre onto the opposite ray, seen in the mirrored
                # frame unless she lands on the focal line, where the mirror is moot.
                r, th = max(abs(r), eps_r), _PI - th
                if abs(th - _PI) <= tol:
                    th = _PI
                else:
                    sign = -sign
                lands_on_fl = snap_to_fl and th == _PI
                lady_s.reset()
                traj.events.append((t, kind))
            elif kind in ("ul_cross", "fl_cross"):
                # theta = 0 or pi crossed: she enters the singular line (the
                # focal line only if she snaps, and only up to E), else the frame
                # is mirrored; at a switch, theta = 0 is left to the new step
                # sequence and his new rate.
                lands_on_fl = snap_to_fl and kind == "fl_cross" and r < mu + tol
                if lands_on_fl or (kind == "ul_cross" and slides(t, r)):
                    r, th = (min(r, mu), _PI) if lands_on_fl else (r, 0.0)
                    traj.events.append((t, "fl_entry" if lands_on_fl else "ul_entry"))
                elif kind == "fl_cross" or t < t_switch:
                    sign = -sign
                    traj.events.append((t, "reflection"))
                end = "reached_e" if at_e(r, th) else None
            elif kind == "tangency":
                lady_s.turn()
                traj.events.append((t, kind))
            elif kind == "root_lost":
                lady_s.freeze(min(mu, math.sqrt(mu * max(r, eps_r))))
            elif kind == "barrier_crossing":
                traj.events.append((t, kind))
            if t >= t_switch:
                n_switch += 1
                t_switch, k1 = n_switch * period, None
            if lands_on_fl:
                break
    if lands_on_fl:
        # M's canonical rate on the line holds but for the switching man's.
        rate = (lambda tt: omega(tt, r, _PI)) if period else omega(t, r, _PI)
        end = "reached_e" if follow([focal.line_segment(t, r, _PI, rate, params)]) else None

    if end is not None:
        traj.events.append((t, end))
        traj.outcome = "reached_shore" if end == "shore_exit" else end
        if end == "shore_exit":
            traj.theta_f = traj.theta[-1]
    traj.t_final, traj.evaluations = t, evaluations
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
