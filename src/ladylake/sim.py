"""Closed-loop forward simulation of the relative dynamics.

Fixed-step RK4 with feedback strategies for both agents and bisection
event refinement: focal-line entry, origin passage, antipodal arrival,
shore exit, and barrier crossings.  The integrated state is kept in the
canonical half-plane; crossings of theta = 0 or pi either snap onto the
singular line (equilibrium play) or mirror the frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import classical, focal, solution
from .model import (
    ControlPair,
    DomainError,
    GameParams,
    LakeGameError,
    PolarState,
    RegionError,
    rates,
    reflect_controls,
)

_PI = math.pi

# Antipodal arrival threshold on mu - r while on the focal line.  The
# approach is tangential (r' -> 0), so an exact crossing never occurs;
# triggering here costs less than 1e-4 in arrival time.
E_ARRIVE = 1e-9

# Radial slack for flipping the tributary heading sign at the
# closest-approach circle, which is also touched tangentially.
_TANGENCY_SLACK = 1e-7


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
            if abs(c * c + s * s - 1.0) > 1e-9:
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
        out = []
        for r, th, al, mir in zip(self.r, self.theta, self.man_angle, self.mirror):
            ang = al + (-th if mir else th)
            out.append(
                (r * math.cos(ang), r * math.sin(ang), math.cos(al), math.sin(al))
            )
        return out


class _Lady:
    """State-feedback equilibrium heading, rotated by delta_psi off the
    focal line (0 for equilibrium play).

    On a focal tributary, focal.entry_root refines the last entry radius.
    The case of the path ahead (One until the closest approach, Two after
    it) is kept, as one re-picked from the state chatters on the tangency
    circle, and so is the radius where that case has no root.  On the focal
    line the exact reactive control keeps the arrival at E well defined.
    """

    def __init__(self, params: GameParams, delta_psi: float) -> None:
        self.params = params
        self.cos_d = math.cos(delta_psi)
        self.sin_d = math.sin(delta_psi)
        self.s: float | None = None
        self.case: focal.EntryCase | None = None
        self.tangency_passed = False

    def reset(self) -> None:
        self.s = None
        self.case = None

    def __call__(
        self, r: float, th: float, omega_now: float | None
    ) -> tuple[float, float]:
        mu = self.params.mu
        r = min(max(r, self.params.eps_r), 1.0)
        th = min(max(th, 0.0), _PI)
        if omega_now is not None:
            # On the focal line: cancel theta drift against M's current rate.
            return focal.fl_heading_at(r, omega_now, mu)
        region = solution.region_of(r, th, self.params)
        if region in solution.CLASSICAL_REGIONS:
            c, s = classical.classical_heading_at(r, mu)
        elif region in solution.UNIVERSAL_REGIONS:
            self.reset()
            c, s = -1.0, 0.0
        else:
            found = focal.entry_root(r, th, self.params, self.case, self.s)
            self.s, self.case = found or (self.s, self.case)
            a = focal.tangency_radius(self.s, self.params)
            if self.case is focal.EntryCase.ONE and r <= a + _TANGENCY_SLACK:
                self.case = focal.EntryCase.TWO
                self.tangency_passed = True
            c, s = focal.tributary_heading_at(max(r, a), self.s, self.case, mu)
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
    """Integrate the closed loop from an initial canonical state.

    Controls are re-evaluated from the current state at every RK4 stage;
    M's instantaneous rate is passed to L's strategy only while the state
    sits on the focal line.
    """
    if params is None:
        raise DomainError("params is required")
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        raise DomainError("dt and t_max must be finite and positive")
    if lady.side != "lady" or man.side != "man":
        raise DomainError("a lady strategy and a man strategy are required")
    mu = params.mu
    tol = params.tol_event
    lady_s = _Lady(params, lady.delta_psi)
    fixed_heading = lady.heading if lady.kind == "fixed_heading" else None
    snap_to_fl = fixed_heading is None
    man_rate = _man_rate(man, params)
    man_eq = man.kind == "equilibrium"

    r, th, alpha = initial.r, initial.theta, 0.0
    sign = 1.0
    mode_fl = abs(th - _PI) <= tol and r <= mu + tol
    traj = Trajectory()

    def stage(tt: float, rr: float, thh: float):
        """Canonical (cos_psi, sin_psi, omega) at a trial state, and the rates
        of (r, theta, alpha) they give."""
        om = man_rate(tt, rr, thh)
        if not man_eq:
            om *= sign
        om = min(1.0, max(-1.0, om))
        if fixed_heading is not None:
            c, s_ = fixed_heading[0], sign * fixed_heading[1]
        else:
            c, s_ = lady_s(rr, thh, om if mode_fl else None)
        dr, dth = rates(max(abs(rr), 1e-12), c, s_, om, mu)
        return (c, s_, om), (dr, dth, sign * om)

    def deriv(tt: float, rr: float, thh: float) -> tuple[float, float, float]:
        return stage(tt, rr, thh)[1]

    def record(tt, rr, thh, al) -> tuple[float, float, float]:
        """Append a state and its true-frame controls; return its rates, the
        first stage of the next step."""
        (c, s_, om), k = stage(tt, rr, thh)
        true = reflect_controls(
            ControlPair(c, min(1.0, max(-1.0, s_)), om), sign < 0.0
        )
        traj.t.append(tt)
        traj.r.append(rr)
        traj.theta.append(thh)
        traj.man_angle.append(al)
        traj.mirror.append(1 if sign < 0.0 else 0)
        traj.cos_psi.append(true.cos_psi)
        traj.sin_psi.append(true.sin_psi)
        traj.omega.append(true.omega)
        return k

    def step(sigma: float) -> tuple[float, float, float]:
        """The RK4 step of length sigma from the current (t, r, th, alpha)."""
        return _rk4(deriv, t, r, th, alpha, sigma, k1)

    def at_e(rr: float, thh: float) -> bool:
        return abs(rr - mu) <= tol and abs(thh - _PI) <= tol

    t = 0.0
    k1 = record(t, r, th, alpha)
    end = None
    if at_e(r, th):
        end = "reached_e"
    elif r >= 1.0 - tol:
        end = "shore_exit"
    while end is None and t < t_max - 1e-12:
        h = min(dt, t_max - t)
        s_event = lady_s.s
        case_event = lady_s.case
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
        if not mode_fl:
            locate(lambda rr, thh: rr - params.eps_r, "origin_passage")
            locate(lambda rr, thh: thh, "ul_cross")
            locate(lambda rr, thh: _PI - thh, "fl_cross")
            if (
                s_event is not None
                and case_event is focal.EntryCase.TWO
                and snap_to_fl
            ):
                locate(lambda rr, thh: s_event - rr, "fl_cross")
        else:
            locate(lambda rr, thh: (mu - rr) - E_ARRIVE, "reached_e")
        if r >= mu and r1 >= mu and not mode_fl:
            side = classical.barrier_side(min(r, 1.0), th, params)
            if side is not classical.barrier_side(min(r1, 1.0), th1, params):
                traj.events.append((t + 0.5 * h, "barrier_crossing"))

        if lady_s.tangency_passed:
            traj.events.append((t + h, "tangency"))
            lady_s.tangency_passed = False

        # The step, cut short at the earliest event, then that event's rule.
        sigma, kind = min(candidates, default=(h, "step"))
        r, th, alpha = step(sigma) if candidates else (r1, th1, al1)
        t += sigma
        th = min(max(th, 0.0), _PI)
        if kind in ("shore_exit", "reached_e"):
            r, end = min(r, 1.0), kind
        elif kind == "origin_passage":
            th = _PI - th
            if abs(th - _PI) <= 1e-6:
                th = _PI
            r = params.eps_r
            mode_fl = abs(th - _PI) <= tol
            lady_s.reset()
            traj.events.append((t, "origin_passage"))
        elif kind != "step":
            # theta = 0 or pi crossed: snap onto the singular line under
            # equilibrium play, else mirror the frame.
            on_fl = kind == "fl_cross"
            if snap_to_fl and (r < mu + tol if on_fl else man_eq):
                r, th = (min(r, mu), _PI) if on_fl else (r, 0.0)
                if on_fl:
                    mode_fl = True
                    lady_s.reset()
                traj.events.append((t, "fl_entry" if on_fl else "ul_entry"))
            else:
                sign = -sign
                traj.events.append((t, "reflection"))
            end = "reached_e" if at_e(r, th) else None
        k1 = record(t, r, th, alpha)

    if end is not None:
        traj.events.append((t, end))
        traj.outcome = "reached_shore" if end == "shore_exit" else end
        if end == "shore_exit":
            traj.theta_f = th
    traj.t_final = t
    return traj


@dataclass(frozen=True)
class DeviationRow:
    side: str
    label: str
    time: float
    margin: float
    outcome: str


def deviation_report(
    initial: PolarState, params: GameParams, dt: float = 1e-3
) -> tuple[float, list[DeviationRow]]:
    """Saddle check around equilibrium play from a below-barrier start.

    L-deviations should not arrive earlier than equilibrium, M-deviations
    should not make feedback-L arrive later; both margins are reported so
    that a pass is margin >= -tolerance.
    """
    eq_lady, eq_man = StrategySpec.equilibrium("lady"), StrategySpec.equilibrium("man")
    t_max = 20.0
    t_eq = simulate(initial, eq_lady, eq_man, dt, t_max, params).t_final
    runs = (
        ("lady", "delta_psi=+0.05", StrategySpec.perturbed(0.05), eq_man),
        ("lady", "delta_psi=-0.05", StrategySpec.perturbed(-0.05), eq_man),
        ("man", "constant_omega=0.8", eq_lady, StrategySpec.constant_omega(0.8)),
        ("man", "constant_omega=0", eq_lady, StrategySpec.constant_omega(0.0)),
        ("man", "switching_omega(period=0.2)", eq_lady, StrategySpec.switching_omega(0.2)),
    )
    rows: list[DeviationRow] = []
    for side, label, lady, man in runs:
        run = simulate(initial, lady, man, dt, t_max, params)
        # A run that never reaches E fails the check whichever side deviated:
        # it is scored t_eq - t_max, which stays finite and JSON-safe.
        if run.outcome != "reached_e":
            margin = t_eq - t_max
        else:
            margin = run.t_final - t_eq if side == "lady" else t_eq - run.t_final
        rows.append(DeviationRow(side, label, run.t_final, margin, run.outcome))
    return t_eq, rows


def integrate_classical_fan(
    r0: Sequence[float], theta0: Sequence[float], params: GameParams, dt: float = 1e-4
) -> tuple[list[float], list[float]]:
    """Closed-loop runs of classical equilibrium play, one per start.

    All states must start at r >= mu; each run stops at the shore, found by
    the simulator's crossing search, or gives NaN if it has not landed
    within 20 time units.  Returns (theta_f, t_f).
    """
    mu = params.mu
    starts = [(float(r), float(th)) for r, th in zip(r0, theta0)]
    if any(r < mu - 1e-12 for r, _ in starts):
        raise RegionError("classical fan requires r >= mu")

    def deriv(t: float, r: float, theta: float) -> tuple[float, float, float]:
        r = max(r, mu)
        dr, dth = rates(r, *classical.classical_heading_at(r, mu), 1.0, mu)
        return dr, dth, 1.0

    def step(sigma: float) -> tuple[float, float, float]:
        """The RK4 step of length sigma from the current run's (t, r, th)."""
        return _rk4(deriv, t, r, th, 0.0, sigma, k1)

    theta_f, t_f = [math.nan] * len(starts), [math.nan] * len(starts)
    for i, (r, th) in enumerate(starts):
        t = 0.0
        for _ in range(int(20.0 / dt) + 1):
            k1 = deriv(t, r, th)
            r1, th1, _ = step(dt)
            if r1 >= 1.0:
                sigma = _crossing(lambda rr, thh: 1.0 - rr, step, dt, params.tol_event)
                theta_f[i], t_f[i] = step(sigma)[1], t + sigma
                break
            r, th, t = r1, th1, t + dt
    return theta_f, t_f
