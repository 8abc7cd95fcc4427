import math

import numpy as np
import pytest

from ladylake import classical, focal, sim, solution
from ladylake.model import DomainError, GameParams, PolarState

MU = 0.3


@pytest.fixture
def params():
    return GameParams(MU)


def eq_run(state, params, dt=1e-4, t_max=20.0):
    return sim.simulate(
        state,
        sim.StrategySpec.equilibrium("lady"),
        sim.StrategySpec.equilibrium("man"),
        dt=dt,
        t_max=t_max,
        params=params,
    )


class TestStrategySpec:
    def test_side_validation(self):
        with pytest.raises(DomainError):
            sim.StrategySpec("fish", "equilibrium")
        with pytest.raises(DomainError):
            sim.StrategySpec("lady", "constant_omega")
        with pytest.raises(DomainError):
            sim.StrategySpec("man", "fixed_heading")

    def test_constant_omega_bound(self):
        with pytest.raises(DomainError):
            sim.StrategySpec.constant_omega(1.5)

    def test_switching_period_positive(self):
        with pytest.raises(DomainError):
            sim.StrategySpec.switching_omega(0.0)

    def test_fixed_heading_unit_norm(self):
        with pytest.raises(DomainError):
            sim.StrategySpec.fixed_heading(0.5, 0.5)
        sim.StrategySpec.fixed_heading(math.cos(1.0), math.sin(1.0))


class TestFocalLineRun:
    def test_arrival_time(self, params):
        traj = eq_run(PolarState(0.15, math.pi), params)
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(math.pi / 3, abs=1e-3)

    def test_theta_held_at_pi(self, params):
        traj = eq_run(PolarState(0.15, math.pi), params)
        assert max(abs(th - math.pi) for th in traj.theta) < 1e-9

    def test_theta_held_under_switching_man(self, params):
        # The reactive control cancels any measurable omega.
        traj = sim.simulate(
            PolarState(0.15, math.pi),
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.switching_omega(0.2),
            dt=1e-4,
            t_max=20.0,
            params=params,
        )
        assert traj.outcome == "reached_e"
        assert max(abs(th - math.pi) for th in traj.theta) < 1e-9


class TestUniversalLineRun:
    def test_arrival_time(self, params):
        traj = eq_run(PolarState(0.15, 0.3), params)
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(math.pi / 2 + 0.5, abs=1e-3)

    def test_origin_passage_event(self, params):
        traj = eq_run(PolarState(0.15, 0.3), params)
        kinds = [k for _, k in traj.events]
        assert "origin_passage" in kinds
        assert kinds[-1] == "reached_e"

    def test_man_deviations_never_delay(self, params):
        # M's control cannot push the feedback lady past the equilibrium
        # time; she exploits deviations and may arrive strictly earlier.
        base = eq_run(PolarState(0.15, 0.3), params).t_final
        for spec in (
            sim.StrategySpec.constant_omega(-1.0),
            sim.StrategySpec.constant_omega(0.5),
            sim.StrategySpec.switching_omega(0.3),
        ):
            traj = sim.simulate(
                PolarState(0.15, 0.3),
                sim.StrategySpec.equilibrium("lady"),
                spec,
                dt=1e-4,
                t_max=20.0,
                params=params,
            )
            assert traj.outcome == "reached_e"
            assert traj.t_final <= base + 1e-3


class TestFocalTributaryRun:
    @pytest.mark.parametrize("r,theta", [(0.2, 1.0), (0.05, 2.5), (0.5, 2.0)])
    def test_arrival_matches_entry_solve(self, params, r, theta):
        predicted = focal.solve_entry(PolarState(r, theta), params).total_time
        traj = eq_run(PolarState(r, theta), params)
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(predicted, abs=1e-3)

    def test_fl_entry_has_zero_theta_rate(self, params):
        # At the tangential merge the angular rate vanishes.
        traj = eq_run(PolarState(0.2, 1.0), params)
        t_entry = next(t for t, k in traj.events if k == "fl_entry")
        i = min(range(len(traj.t)), key=lambda k: abs(traj.t[k] - t_entry))
        dth = MU / traj.r[i] * traj.sin_psi[i] - traj.omega[i]
        assert abs(dth) < 1e-6

    def test_single_tangency_for_inward_case(self, params):
        traj = eq_run(PolarState(0.25, 3.0), params)
        assert traj.outcome == "reached_e"
        assert sum(1 for _, k in traj.events if k == "tangency") == 1


class TestClassicalRun:
    def test_terminal_angle_matches_value(self, params):
        state = PolarState(0.5, 2.8)
        traj = eq_run(state, params)
        assert traj.outcome == "reached_shore"
        assert traj.theta_f == pytest.approx(
            classical.classical_value(state, params), abs=1e-6
        )

    def test_shore_radius_exact(self, params):
        traj = eq_run(PolarState(0.5, 2.8), params)
        assert traj.r[-1] == pytest.approx(1.0, abs=1e-6)


class TestTrajectoryRecord:
    def test_monotone_time_and_canonical_theta(self, params):
        traj = eq_run(PolarState(0.2, 1.0), params)
        assert all(b > a for a, b in zip(traj.t, traj.t[1:]))
        assert all(0.0 <= th <= math.pi for th in traj.theta)

    def test_cartesian_consistency(self, params):
        traj = eq_run(PolarState(0.2, 1.0), params)
        cart = traj.cartesian()
        assert len(cart) == len(traj.t)
        for (x, y, mx, my), r in zip(cart, traj.r):
            assert math.hypot(x, y) == pytest.approx(r, abs=1e-12)
            assert math.hypot(mx, my) == pytest.approx(1.0, abs=1e-12)

    def test_controls_unit_norm(self, params):
        traj = eq_run(PolarState(0.05, 2.5), params)
        for c, s in zip(traj.cos_psi, traj.sin_psi):
            assert c * c + s * s == pytest.approx(1.0, abs=1e-9)


class TestDegenerateStarts:
    def test_start_at_e(self, params):
        traj = eq_run(PolarState(MU, math.pi), params)
        assert traj.outcome == "reached_e"
        assert traj.t_final == 0.0

    def test_start_at_shore(self, params):
        traj = eq_run(PolarState(1.0, 1.5), params)
        assert traj.outcome == "reached_shore"
        assert traj.theta_f == pytest.approx(1.5)

    def test_bad_args(self, params):
        with pytest.raises(DomainError):
            sim.simulate(
                PolarState(0.5, 1.0),
                sim.StrategySpec.equilibrium("lady"),
                sim.StrategySpec.equilibrium("man"),
                dt=0.0,
                params=params,
            )
        with pytest.raises(DomainError):
            sim.simulate(
                PolarState(0.5, 1.0),
                sim.StrategySpec.equilibrium("man"),
                sim.StrategySpec.equilibrium("man"),
                params=params,
            )

    @pytest.mark.parametrize("field", ["dt", "t_max"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_step_or_horizon(self, params, field, value):
        # From (0.15, pi) a run ends well inside the default horizon, so a
        # simulator that let inf through would still return.
        with pytest.raises(DomainError):
            sim.simulate(
                PolarState(0.15, math.pi),
                sim.StrategySpec.equilibrium("lady"),
                sim.StrategySpec.equilibrium("man"),
                params=params,
                **{field: value},
            )


class TestNonEquilibriumLady:
    def test_fixed_heading_outward_hits_shore(self, params):
        traj = sim.simulate(
            PolarState(0.5, 2.0),
            sim.StrategySpec.fixed_heading(1.0, 0.0),
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            t_max=20.0,
            params=params,
        )
        assert traj.outcome == "reached_shore"
        assert traj.t_final == pytest.approx(0.5 / MU, abs=1e-3)

    def test_fixed_heading_off_unit_by_1e10_runs(self, params):
        # Within StrategySpec's 1e-9 unit check but over the recorded
        # ControlPair's 1e-12: the spec stores the heading normalised.
        lady = sim.StrategySpec.fixed_heading(0.6, 0.8000000001)
        assert math.hypot(*lady.heading) == pytest.approx(1.0, abs=1e-15)
        traj = sim.simulate(
            PolarState(0.5, 2.0),
            lady,
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            t_max=20.0,
            params=params,
        )
        assert traj.outcome == "reached_shore"

    def test_perturbed_lady_keeps_case_past_tangency(self, params):
        # The lady keeps case Two after the tangency flip; one that re-picks
        # the case from the state chatters on the tangency circle and times
        # out, which deviation_report would score as a passing margin.
        traj = sim.simulate(
            PolarState(0.2, 1.0),
            sim.StrategySpec.perturbed(-0.05),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-3,
            t_max=20.0,
            params=params,
        )
        assert traj.outcome == "reached_e"
        assert "fl_entry" in [k for _, k in traj.events]

    def test_reflection_off_universal_line(self, params):
        # A non-snapping lady crossing theta = 0 mirrors the frame.
        traj = sim.simulate(
            PolarState(0.5, 0.05),
            sim.StrategySpec.fixed_heading(math.sqrt(1 - 0.81), -0.9),
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            t_max=2.0,
            params=params,
        )
        kinds = [k for _, k in traj.events]
        assert "reflection" in kinds
        assert 1 in traj.mirror

    def test_reflection_off_focal_line(self, params):
        # A non-snapping lady crossing theta = pi mirrors the frame too.
        traj = sim.simulate(
            PolarState(0.5, 3.1),
            sim.StrategySpec.fixed_heading(math.sqrt(0.19), 0.9),
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            t_max=2.0,
            params=params,
        )
        t_first, kind_first = traj.events[0]
        assert kind_first == "reflection"
        assert t_first == pytest.approx(0.0778, abs=1e-3)
        assert 1 in traj.mirror
        assert max(traj.theta) <= math.pi


class TestLadyMatchesAdvise:
    """The equilibrium lady plays advise's heading, apart from the two
    differences the simulator makes on purpose: in case One within
    _TANGENCY_SLACK of the tangency circle she already turns outward, and
    inside the E_SNAP box she keeps the tributary heading."""

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.6, 0.9])
    def test_heading_matches_advise(self, mu):
        params = GameParams(mu)
        for i in range(40):
            for j in range(41):
                r, theta = i / 40, math.pi * j / 40
                if r < params.eps_r or (
                    abs(r - mu) <= solution.E_SNAP and abs(theta - math.pi) <= solution.E_SNAP
                ):
                    continue
                adv = solution.advise(PolarState(r, theta), params, omega_now=1.0)
                e = adv.entry
                if e and e.case is focal.EntryCase.ONE and r - e.s**2 / mu <= sim._TANGENCY_SLACK:
                    continue
                c, s = sim._Lady(params, 0.0)(r, theta, None)
                assert c == pytest.approx(adv.controls.cos_psi, abs=1e-6), (r, theta)
                assert s == pytest.approx(adv.controls.sin_psi, abs=1e-6), (r, theta)


class TestDeviationReport:
    def test_saddle_margins(self, params):
        t_eq, rows = sim.deviation_report(PolarState(0.4, 2.0), params)
        predicted = focal.solve_entry(PolarState(0.4, 2.0), params).total_time
        assert t_eq == pytest.approx(predicted, abs=1e-2)
        assert len(rows) == 5
        for row in rows:
            assert row.margin >= -1e-3

    def test_lady_timeout_fails(self, params, monkeypatch):
        # A lady deviation that never reaches E must not pass as a late arrival.
        simulate = sim.simulate

        def lady_never_arrives(initial, lady, man, dt, t_max, params):
            if lady.kind == "perturbed_equilibrium":
                return sim.Trajectory(outcome="timeout", t_final=t_max)
            return simulate(initial, lady, man, dt, t_max, params)

        monkeypatch.setattr(sim, "simulate", lady_never_arrives)
        t_eq, rows = sim.deviation_report(PolarState(0.2, 1.0), params)
        lady_rows = [row for row in rows if row.side == "lady"]
        assert len(lady_rows) == 2
        for row in lady_rows:
            assert row.outcome == "timeout"
            assert row.margin == pytest.approx(t_eq - 20.0)
            assert row.margin < -1e-3


class TestClassicalFan:
    def test_matches_closed_form(self, params):
        rng = np.random.default_rng(7)
        r0 = rng.uniform(MU + 0.05, 0.99, 10)
        th0 = np.array(
            [
                rng.uniform(classical.barrier_theta(r, params), math.pi)
                for r in r0
            ]
        )
        theta_f, t_f = sim.integrate_classical_fan(r0, th0, params)
        for r, th, tf_ang in zip(r0, th0, theta_f):
            expected = classical.classical_value(PolarState(r, th), params)
            assert tf_ang == pytest.approx(expected, abs=1e-6)
        assert np.all(np.isfinite(t_f))

    def test_rejects_inner_start(self, params):
        with pytest.raises(Exception):
            sim.integrate_classical_fan(
                np.array([0.1]), np.array([2.0]), params
            )
