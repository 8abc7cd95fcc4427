"""Acceptance suite: thirteen numbered criteria, one printed line each.

Each criterion prints `criterion NN PASS|FAIL: detail` on the live
terminal (bypassing capture) before asserting, so a full run always shows
the scoreboard.
"""
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ladylake import classical, cli, focal, sim, verify
from ladylake.model import GameParams, PolarState

MU = 0.3


@pytest.fixture
def params():
    return GameParams(MU)


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _report


def eq_run(state, params, dt=1e-4, t_max=20.0):
    return sim.simulate(
        state,
        sim.StrategySpec.equilibrium("lady"),
        sim.StrategySpec.equilibrium("man"),
        dt=dt,
        t_max=t_max,
        params=params,
    )


def test_criterion_01_critical_mu(report):
    t0 = time.perf_counter()
    value = classical.critical_mu()
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.21723) < 1e-4 and elapsed < 1.0
    report(1, ok, f"critical_mu = {value:.6f} in {elapsed:.3f}s")


def test_criterion_02_classical_closed_loop(report, params):
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    r0 = rng.uniform(MU + 0.02, 0.99, 50)
    th0 = np.array(
        [
            rng.uniform(min(classical.barrier_theta(r, params) + 0.01, math.pi), math.pi)
            for r in r0
        ]
    )
    theta_f = [eq_run(PolarState(r, th), params).theta_f for r, th in zip(r0, th0)]
    worst = max(
        abs(tf - classical.classical_value(PolarState(r, th), params))
        for r, th, tf in zip(r0, th0, theta_f)
    )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    report(2, ok, f"50 starts, max theta_f error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_focal_line_time(report, params):
    traj = eq_run(PolarState(0.15, math.pi), params)
    err = abs(traj.t_final - math.pi / 3)
    ok = traj.outcome == "reached_e" and err < 1e-3
    report(3, ok, f"arrival {traj.t_final:.6f} vs pi/3, error {err:.2e}")


def test_criterion_04_universal_line_value(report, params):
    traj = eq_run(PolarState(0.15, 0.3), params)
    expected = math.pi / 2 + 0.5
    err = abs(traj.t_final - expected)
    ok = traj.outcome == "reached_e" and err < 1e-3
    report(4, ok, f"arrival {traj.t_final:.6f} vs pi/2+0.5, error {err:.2e}")


def _flowfield_vs_rk4(s: float, params: GameParams, tau_end=2.0, dtau=1e-3) -> float:
    """Closed form vs RK4 on the retrograde dynamics with the radial-rate
    sign resolved algebraically (see test_focal for the derivation)."""
    mu = params.mu
    u0 = math.sqrt(s * s - s**4 / (mu * mu))

    def deriv(tau, r):
        return mu * (mu * tau - u0) / r, 1.0 - s * s / (r * r)

    r, theta = float(s), math.pi
    n = int(round(tau_end / dtau))
    h = tau_end / n
    tau = 0.0
    worst = 0.0
    for _ in range(n):
        k1 = deriv(tau, r)
        k2 = deriv(tau + 0.5 * h, r + 0.5 * h * k1[0])
        k3 = deriv(tau + 0.5 * h, r + 0.5 * h * k2[0])
        k4 = deriv(tau + h, r + h * k3[0])
        r += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        theta += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        tau += h
        smp = focal.flowfield_sample(s, tau, params)
        worst = max(worst, abs(smp.r - r), abs(smp.theta - theta))
    return worst


def test_criterion_05_flowfield_ode_equivalence(report, params):
    worst = max(_flowfield_vs_rk4(s, params) for s in (0.05, 0.15, 0.25))
    report(5, worst < 1e-6, f"max closed-form vs RK4 deviation {worst:.2e}")


def test_criterion_06_entry_round_trip(report, params):
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    while count < 100:
        s0 = rng.uniform(0.02, 0.29)
        tau = rng.uniform(0.01, 2.0)
        smp = focal.flowfield_sample(s0, tau, params)
        if smp.r >= 1.0 or not 1e-4 < smp.theta < math.pi - 1e-9:
            continue
        if smp.theta <= smp.r / MU:
            continue
        ent = focal.solve_entry(PolarState(smp.r, smp.theta), params)
        worst = max(worst, abs(ent.s - s0))
        count += 1
    report(6, worst < 1e-6, f"100 round trips, max |s error| {worst:.2e}")


def test_criterion_07_tangential_entry(report, params):
    worst = 0.0
    n_events = 0
    for r0, th0 in ((0.2, 1.0), (0.05, 2.5), (0.5, 2.0), (0.25, 3.0)):
        traj = eq_run(PolarState(r0, th0), params)
        for t_e, kind in traj.events:
            if kind != "fl_entry":
                continue
            i = min(range(len(traj.t)), key=lambda k: abs(traj.t[k] - t_e))
            dth = MU / traj.r[i] * traj.sin_psi[i] - traj.omega[i]
            worst = max(worst, abs(dth))
            n_events += 1
    ok = n_events >= 4 and worst < 1e-6
    report(7, ok, f"{n_events} entries, max |theta rate| {worst:.2e}")


def _colinearity(points: list[tuple[float, float]]) -> float:
    """Max perpendicular distance to the chord through the endpoints."""
    (x0, y0), (x1, y1) = points[0], points[-1]
    dx, dy = x1 - x0, y1 - y0
    norm = math.hypot(dx, dy)
    return max(
        abs(dx * (y - y0) - dy * (x - x0)) / norm for x, y in points
    )


def test_criterion_08_straight_line_motion(report, params):
    worst = 0.0
    # Classical equilibrium paths are straight in the fixed frame.
    for r0, th0 in ((0.5, 2.8), (0.7, 3.05)):
        traj = eq_run(PolarState(r0, th0), params)
        pts = [(x, y) for x, y, _, _ in traj.cartesian()]
        worst = max(worst, _colinearity(pts))
    # So is the whole tributary approach up to the focal-line merge.
    for r0, th0 in ((0.2, 1.0), (0.05, 2.5)):
        traj = eq_run(PolarState(r0, th0), params)
        t_entry = next(t for t, k in traj.events if k == "fl_entry")
        pts = [
            (x, y)
            for (x, y, _, _), t in zip(traj.cartesian(), traj.t)
            if t <= t_entry
        ]
        worst = max(worst, _colinearity(pts))
    report(8, worst < 1e-4, f"max colinearity residual {worst:.2e}")


def test_criterion_09_barrier_semipermeability(report):
    worst = max(verify.barrier_sweep(GameParams(mu), 1000) for mu in (0.25, 0.3, 0.5))
    report(9, worst < 1e-10, f"max semipermeability residual {worst:.2e}")


def test_criterion_10_hji_suite(report, params):
    t0 = time.perf_counter()
    sweep = verify.hji_sweep(params, 50, 50)
    worst_h = 0.0
    for r0, th0 in ((0.05, 2.5), (0.5, 2.8), (0.15, 0.3)):
        traj = eq_run(PolarState(r0, th0), params)
        samples = verify.trajectory_hamiltonians(traj, params)
        worst_h = max(worst_h, max(abs(hv) for _, hv in samples))
    elapsed = time.perf_counter() - t0
    ok = sweep.max_abs_residual < 1e-3 and worst_h < 1e-6 and elapsed < 60.0
    report(
        10,
        ok,
        f"grid residual {sweep.max_abs_residual:.2e} over {sweep.n_samples} "
        f"cells, trajectory |H| {worst_h:.2e} in {elapsed:.1f}s",
    )


def test_criterion_11_saddle_deviations(report, params):
    rng = np.random.default_rng(11)
    worst = math.inf
    n = 0
    while n < 20:
        r = rng.uniform(0.05, 0.9)
        hi = math.pi - 0.05 if r < MU else classical.barrier_theta(r, params) - 0.05
        if hi < 0.1:
            continue
        theta = rng.uniform(0.1, hi)
        _, rows = sim.deviation_report(PolarState(r, theta), params, dt=1e-3)
        worst = min(worst, min(row.margin for row in rows))
        n += 1
    report(11, worst >= -1e-3, f"20 starts, worst saddle margin {worst:+.2e}")


def test_criterion_12_value_continuity(report):
    worst = 0.0
    for mu in (0.25, 0.3):
        p = GameParams(mu)
        h = math.pi / 200
        for i in range(1, 201):
            r = i / 201
            theta = r / mu
            if not h < theta < math.pi - h:
                continue
            below = verify.min_time_value(r, theta - h, p)
            above = verify.min_time_value(r, theta + h, p)
            worst = max(worst, abs(above - below))
    report(12, worst < 1e-2, f"max value jump across the partition {worst:.2e}")


def test_criterion_13_figure_reproduction(report, params, tmp_path):
    full = tmp_path / "full.svg"
    classic = tmp_path / "classical.svg"
    ok = (
        cli.main(["flowfield", "--mu", "0.3", "--game", "time", "--out", str(full)])
        == 0
        and cli.main(
            ["flowfield", "--mu", "0.3", "--game", "classical", "--out", str(classic)]
        )
        == 0
    )

    def classes(path):
        root = ET.fromstring(path.read_text())
        return [
            el.get("class") for el in root.iter() if el.tag.endswith("polyline")
        ]

    cf = classes(full)
    cc = classes(classic)
    ok &= cf.count("FocalTributary") == 20 and cf.count("UniversalTributary") == 10
    ok &= all(
        cf.count(k) == 1
        for k in ("barrier", "focal-line", "universal-line", "partition")
    )
    ok &= cc.count("Classical") == 20 and cc.count("barrier") == 1
    # Barrier terminates on the shore at the guaranteed escape angle.
    root = ET.fromstring(full.read_text())
    barrier = next(
        el
        for el in root.iter()
        if el.tag.endswith("polyline") and el.get("class") == "barrier"
    )
    x, y = (float(v) for v in barrier.get("points").split()[-1].split(","))
    r_end, theta_end = cli.px_to_polar(x, y)
    ok &= abs(r_end - 1.0) < 1e-9 and abs(theta_end - 1.2279) < 1e-3
    report(
        13,
        ok,
        f"trajectory counts match, barrier endpoint ({r_end:.3f}, {theta_end:.4f})",
    )
