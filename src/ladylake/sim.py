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
from typing import Callable

import numpy as np

from . import classical, focal, solution
from .model import (
    ControlPair,
    DomainError,
    GameParams,
    LakeGameError,
    PolarState,
    RegionError,
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
            sin_psi = min(1.0, max(-1.0, omega_now * r / mu))
            return math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi)), sin_psi
        region = solution.region_of(r, th, self.params)
        if region in solution.CLASSICAL_REGIONS:
            s = mu / r
            c = math.sqrt(max(0.0, 1.0 - s * s))
        elif region in solution.UNIVERSAL_REGIONS:
            self.reset()
            c, s = -1.0, 0.0
        else:
            found = focal.entry_root(r, th, self.params, self.case, self.s)
            self.s, self.case = found or (self.s, self.case)
            a = self.s * self.s / mu
            if self.case is focal.EntryCase.ONE and r <= a + _TANGENCY_SLACK:
                self.case = focal.EntryCase.TWO
                self.tangency_passed = True
            s = min(1.0, self.s * self.s / (mu * max(r, a)))
            c = math.sqrt(max(0.0, 1.0 - s * s))
            if self.case is focal.EntryCase.ONE:
                c = -c
        return c * self.cos_d - s * self.sin_d, s * self.cos_d + c * self.sin_d


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
    if dt <= 0.0 or t_max <= 0.0:
        raise DomainError("dt and t_max must be positive")
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

    def eval_controls(tt: float, rr: float, thh: float) -> tuple[float, float, float]:
        """Canonical (cos_psi, sin_psi, omega) at a trial state."""
        om = man_rate(tt, rr, thh)
        if not man_eq:
            om *= sign
        om = min(1.0, max(-1.0, om))
        if fixed_heading is not None:
            c, s_ = fixed_heading[0], sign * fixed_heading[1]
        else:
            c, s_ = lady_s(rr, thh, om if mode_fl else None)
        return c, s_, om

    def deriv(tt: float, rr: float, thh: float) -> tuple[float, float, float]:
        c, s_, om = eval_controls(tt, rr, thh)
        rr_safe = max(abs(rr), 1e-12)
        dth = (mu / rr_safe * s_ if s_ != 0.0 else 0.0) - om
        return mu * c, dth, sign * om

    def rk4(tt, rr, thh, al, h):
        d1r, d1t, d1a = deriv(tt, rr, thh)
        d2r, d2t, d2a = deriv(tt + 0.5 * h, rr + 0.5 * h * d1r, thh + 0.5 * h * d1t)
        d3r, d3t, d3a = deriv(tt + 0.5 * h, rr + 0.5 * h * d2r, thh + 0.5 * h * d2t)
        d4r, d4t, d4a = deriv(tt + h, rr + h * d3r, thh + h * d3t)
        return (
            rr + h / 6.0 * (d1r + 2.0 * d2r + 2.0 * d3r + d4r),
            thh + h / 6.0 * (d1t + 2.0 * d2t + 2.0 * d3t + d4t),
            al + h / 6.0 * (d1a + 2.0 * d2a + 2.0 * d3a + d4a),
        )

    def record(tt, rr, thh, al):
        c, s_, om = eval_controls(tt, rr, thh)
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

    def at_e(rr: float, thh: float) -> bool:
        return abs(rr - mu) <= tol and abs(thh - _PI) <= tol

    t = 0.0
    record(t, r, th, alpha)
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
            r1, th1, al1 = rk4(t, r, th, alpha, h)
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
                def gg(sigma: float) -> float:
                    rr, thh, _ = rk4(t, r, th, alpha, sigma)
                    return g(rr, thh)

                lo_s, hi_s = 0.0, h
                for _ in range(60):
                    if hi_s - lo_s <= tol:
                        break
                    mid = 0.5 * (lo_s + hi_s)
                    if gg(mid) > 0.0:
                        lo_s = mid
                    else:
                        hi_s = mid
                candidates.append((hi_s, kind))

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

        if not candidates:
            t += h
            r, th, alpha = r1, min(max(th1, 0.0), _PI), al1
            record(t, r, th, alpha)
            continue

        sigma, kind = min(candidates)
        re, te, ae = rk4(t, r, th, alpha, sigma)
        t += sigma
        te = min(max(te, 0.0), _PI)
        if kind in ("shore_exit", "reached_e"):
            r, th, alpha = min(re, 1.0) if kind == "shore_exit" else re, te, ae
            record(t, r, th, alpha)
            end = kind
            break
        if kind == "origin_passage":
            th_new = _PI - te
            if abs(th_new - _PI) <= 1e-6:
                th_new = _PI
            r, th, alpha = params.eps_r, th_new, ae
            mode_fl = abs(th - _PI) <= tol
            lady_s.reset()
            traj.events.append((t, "origin_passage"))
            record(t, r, th, alpha)
            continue
        if kind == "ul_cross":
            if man_eq and snap_to_fl:
                r, th, alpha = re, 0.0, ae
                traj.events.append((t, "ul_entry"))
            else:
                r, th, alpha = re, abs(te), ae
                sign = -sign
                traj.events.append((t, "reflection"))
            record(t, r, th, alpha)
            continue
        # fl_cross
        if snap_to_fl and re < mu + tol:
            r, th, alpha = min(re, mu), _PI, ae
            mode_fl = True
            lady_s.reset()
            traj.events.append((t, "fl_entry"))
        else:
            r, th, alpha = re, min(2.0 * _PI - te, _PI) if te > _PI else te, ae
            sign = -sign
            traj.events.append((t, "reflection"))
        record(t, r, th, alpha)
        if at_e(r, th):
            end = "reached_e"

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
    initial: PolarState,
    params: GameParams,
    deltas: tuple[float, ...] = (0.05, -0.05),
    dt: float = 1e-3,
    t_max: float = 20.0,
    man_deviations: tuple[StrategySpec, ...] | None = None,
) -> tuple[float, list[DeviationRow]]:
    """Saddle check around equilibrium play from a below-barrier start.

    L-deviations should not arrive earlier than equilibrium, M-deviations
    should not make feedback-L arrive later; both margins are reported so
    that a pass is margin >= -tolerance.
    """
    eq_lady, eq_man = StrategySpec.equilibrium("lady"), StrategySpec.equilibrium("man")
    t_eq = simulate(initial, eq_lady, eq_man, dt, t_max, params).t_final
    runs = [("lady", f"delta_psi={d:+g}", StrategySpec.perturbed(d), eq_man) for d in deltas]
    if man_deviations is None:
        man_deviations = (
            StrategySpec.constant_omega(0.8),
            StrategySpec.constant_omega(0.0),
            StrategySpec.switching_omega(0.2),
        )
    for spec in man_deviations:
        label = spec.kind + (
            f"={spec.value:g}" if spec.kind == "constant_omega" else f"(period={spec.period:g})"
            if spec.kind == "switching_omega"
            else ""
        )
        runs.append(("man", label, eq_lady, spec))
    rows: list[DeviationRow] = []
    for side, label, lady, man in runs:
        run = simulate(initial, lady, man, dt, t_max, params)
        # A run that never reaches E is scored at the horizon so the margin
        # stays finite and JSON-safe: such an L-deviation did not arrive
        # early, and such an M-deviation fails the check.
        t_eff = run.t_final if run.outcome == "reached_e" else t_max
        margin = t_eff - t_eq if side == "lady" else t_eq - t_eff
        rows.append(DeviationRow(side, label, run.t_final, margin, run.outcome))
    return t_eq, rows


def integrate_classical_fan(
    r0: np.ndarray, theta0: np.ndarray, params: GameParams, dt: float = 1e-4
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-loop run of many classical equilibrium trajectories.

    All states must start at r >= mu; integration stops at the shore with
    the crossing refined per trajectory.  Returns (theta_f, t_f).
    """
    mu = params.mu
    r = np.array(r0, dtype=float)
    th = np.array(theta0, dtype=float)
    if np.any(r < mu - 1e-12):
        raise RegionError("classical fan requires r >= mu")

    def d(rr):
        s = mu / np.maximum(rr, mu)
        return mu * np.sqrt(np.clip(1.0 - s * s, 0.0, None)), s * s - 1.0

    def rk4(rr, h):
        """RK4 increments (dr, dtheta) over step h (a scalar or one per state)."""
        k1r, k1t = d(rr)
        k2r, k2t = d(rr + 0.5 * h * k1r)
        k3r, k3t = d(rr + 0.5 * h * k2r)
        k4r, k4t = d(rr + h * k3r)
        return (
            h / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r),
            h / 6.0 * (k1t + 2 * k2t + 2 * k3t + k4t),
        )

    n = r.shape[0]
    theta_f = np.full(n, np.nan)
    t_f = np.full(n, np.nan)
    active = np.ones(n, dtype=bool)
    t = 0.0
    max_steps = int(20.0 / dt) + 1
    for _ in range(max_steps):
        if not active.any():
            break
        ra, tha = r[active], th[active]
        dr, dth = rk4(ra, dt)
        rn = ra + dr
        thn = tha + dth
        crossed = rn >= 1.0
        if crossed.any():
            # Bisect every crossing step at once; all brackets start as
            # [0, dt] and halve together.
            r0c = ra[crossed]
            lo, hi = np.zeros(r0c.shape), np.full(r0c.shape, dt)
            for _ in range(60):
                if np.max(hi - lo) <= params.tol_event:
                    break
                mid = 0.5 * (lo + hi)
                inside = r0c + rk4(r0c, mid)[0] < 1.0
                lo = np.where(inside, mid, lo)
                hi = np.where(inside, hi, mid)
            sig = 0.5 * (lo + hi)
            sub = np.nonzero(active)[0]
            theta_f[sub[crossed]] = tha[crossed] + rk4(r0c, sig)[1]
            t_f[sub[crossed]] = t + sig
            keep = ~crossed
            r[sub[keep]] = rn[keep]
            th[sub[keep]] = thn[keep]
            active[sub[crossed]] = False
        else:
            r[active] = rn
            th[active] = thn
        t += dt
    return theta_f, t_f
