import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import random
import threading
import time
import tracemalloc
import types

import pytest
from hypothesis import given, settings, strategies as st

from ladylake import classical, focal, sim, solution
from ladylake.model import DomainError, GameParams, NoRootError, PolarState, RegionError, rates, to_cartesian

MU = 0.3


@pytest.fixture
def params():
    return GameParams(MU)


# Whether deviation_report can fork its workers here.
FORK = "fork" in multiprocessing.get_all_start_methods()
WORST_11 = (0.5612736039798538, 0.16934813511663976)  # criterion 11's worst start
SIMULATE = sim.simulate  # unpatched, for the serial reference
_EQ_LADY, _EQ_MAN = sim.StrategySpec.equilibrium("lady"), sim.StrategySpec.equilibrium("man")


def _still_man_fails(initial, lady, man, dt, t_max, params):
    if man.kind == "constant_omega" and man.value == 0.0:
        raise DomainError("no run against a man who stands still")
    return sim.Trajectory(outcome="reached_e", t_final=1.0)


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

    def test_fixed_heading_needs_a_heading(self):
        with pytest.raises(DomainError, match="^fixed_heading needs a heading$"):
            sim.StrategySpec("lady", "fixed_heading")


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

    @pytest.mark.parametrize("dt", [1e-3, 0.07])
    def test_man_angle_under_switching_man_is_triangle_wave(self, params, dt):
        # M's angle is his rate's exact integral on any record grid.  A step
        # taken across a switch at one rate read 6.7e-4 off at dt = 1e-3 and
        # 0.053 at 0.07.
        traj = sim.simulate(PolarState(0.05, math.pi), sim.StrategySpec.equilibrium("lady"),
                            sim.StrategySpec.switching_omega(0.2), dt=dt, params=params)
        t_e = math.pi / 2 - math.asin(0.05 / MU)  # |omega| = 1 on the line
        assert traj.outcome == "reached_e"
        assert traj.events == [(traj.t_final, "reached_e")]
        assert traj.t_final == pytest.approx(t_e, abs=1e-12)
        assert traj.t[-1] == traj.t_final and len(traj.t) == math.ceil(t_e / dt) + 1
        for t, alpha in zip(traj.t, traj.man_angle):
            phase = math.fmod(t, 0.4)
            assert alpha == pytest.approx(min(phase, 0.4 - phase), abs=1e-12)


class TestFocalLineClosedForm:
    """The focal-line segment against plain RK4 of model.rates under the
    focal-line control, stopped short of the tangential end at r = mu."""

    MEN = {
        "equilibrium": (sim.StrategySpec.equilibrium("man"), lambda t: 1.0),
        "constant_0.8": (sim.StrategySpec.constant_omega(0.8), lambda t: 0.8),
        "constant_0": (sim.StrategySpec.constant_omega(0.0), lambda t: 0.0),
        "switching_0.2": (
            sim.StrategySpec.switching_omega(0.2),
            lambda t: 1.0 if int(t / 0.2) % 2 == 0 else -1.0,
        ),
    }

    @staticmethod
    def rk4_oracle(r0, omega_of, period=0.0, dt=1e-4):
        """(t, r, theta, man_angle) rows of RK4 from (r0, pi) up to r = mu - 1e-4,
        a step that contains a switch (every period, if any) taken in two
        pieces, each at the man's rate on its open interval."""

        def d(r, om):
            return (*rates(r, *focal.fl_heading_at(r, om, MU), om, MU), om)

        def rk4(y, h, om):
            k1 = d(y[0], om)
            k2 = d(y[0] + h / 2 * k1[0], om)
            k3 = d(y[0] + h / 2 * k2[0], om)
            k4 = d(y[0] + h * k3[0], om)
            return tuple(a + h / 6 * (p + 2 * q + 2 * u + v) for a, p, q, u, v in zip(y, k1, k2, k3, k4))

        t, y = 0.0, (r0, math.pi, 0.0)
        rows = [(t, *y)]
        while y[0] < MU - 1e-4:
            cuts = [k * period for k in range(int(t / period) + 1, int((t + dt) / period) + 1)
                    if t < k * period < t + dt] if period else []
            for a, b in zip([t, *cuts], [*cuts, t + dt]):
                y = rk4(y, b - a, omega_of(0.5 * (a + b)))
            t += dt
            rows.append((t, *y))
        return rows[:-1]

    @pytest.mark.parametrize("man", list(MEN))
    @pytest.mark.parametrize("r0", [0.01, 0.15, 0.24])
    def test_matches_rk4_oracle(self, params, man, r0):
        spec, omega_of = self.MEN[man]
        traj = sim.simulate(
            PolarState(r0, math.pi), sim.StrategySpec.equilibrium("lady"), spec,
            dt=1e-4, t_max=20.0, params=params,
        )
        assert traj.outcome == "reached_e"
        rows = self.rk4_oracle(r0, omega_of, spec.period)
        assert len(traj.t) > len(rows) > 100
        for i, (t, r, th, al) in enumerate(rows):
            assert traj.t[i] == pytest.approx(t, abs=1e-9)
            assert traj.r[i] == pytest.approx(r, abs=1e-9)
            assert traj.theta[i] == pytest.approx(th, abs=1e-9)
            assert traj.man_angle[i] == pytest.approx(al, abs=1e-9)
        w = abs(omega_of(0.0))
        if w < 1.0:
            phi0 = math.asin(w * r0 / MU)
            t_e = (math.asin(w) - phi0) / w if w else (MU - r0) / MU
            assert traj.t_final == pytest.approx(t_e, abs=1e-9)

    def test_steps_call_no_integrator_lady_or_rates(self, params, monkeypatch):
        # Every closed-form segment of equilibrium play: the focal line,
        # classical play from above the barrier, and both tributaries.  A
        # focal tributary costs one entry solve.
        calls = []

        def counted(name, f):
            return lambda *a, **k: calls.append(name) or f(*a, **k)

        monkeypatch.setattr(sim, "_dp45", counted("_dp45", sim._dp45))
        monkeypatch.setattr(sim, "_locate", counted("_locate", sim._locate))
        monkeypatch.setattr(sim, "rates", counted("rates", sim.rates))
        monkeypatch.setattr(sim._Lady, "__call__", counted("_Lady", sim._Lady.__call__))
        monkeypatch.setattr(focal, "entry_root", counted("entry_root", focal.entry_root))
        for start, outcome, solves in (
            ((0.15, math.pi), "reached_e", 0),
            ((0.5, 2.8), "reached_shore", 0),
            ((0.2, 1.0), "reached_e", 1),
            ((0.05, 2.5), "reached_e", 1),
            ((0.15, 0.3), "reached_e", 0),
        ):
            traj = eq_run(PolarState(*start), params, dt=1e-3)
            assert traj.outcome == outcome and len(traj.t) > 1000
            assert calls == ["entry_root"] * solves, start
            assert (traj.steps, traj.rejected, traj.evaluations) == (0, 0, 0)
            calls.clear()

    @pytest.mark.parametrize(
        "start,man,w",
        [((0.15, math.pi), _EQ_MAN, 1.0), ((0.2, 1.0), _EQ_MAN, 1.0),
         ((0.15, math.pi), sim.StrategySpec.constant_omega(0.8), 0.8),
         ((0.05, math.pi), sim.StrategySpec.switching_omega(0.2), 1.0)],
        ids=["line-eq", "tributary-eq", "line-constant-0.8", "line-switching"],
    )
    def test_heading_next_to_e_from_the_phase(self, params, start, man, w):
        # Taken as sqrt(1 - sin^2), cos_psi lost up to 2e-8, relative, in the
        # last 0.05 before E; read off the phase it keeps its digits.
        traj = sim.simulate(PolarState(*start), _EQ_LADY, man, dt=1e-4, params=params)
        assert traj.outcome == "reached_e"
        t1, near = traj.t_final, 0
        for t, c, s in zip(traj.t, traj.cos_psi, traj.sin_psi):
            if 0.0 < t1 - t <= 0.05:
                near += 1
                assert abs(c * c + s * s - 1.0) <= 4e-16
                assert c == pytest.approx(math.cos(math.asin(w) - w * (t1 - t)), rel=1e-15, abs=0.0)
        assert near >= 400

    @pytest.mark.parametrize(
        "start,man",
        [((0.15, math.pi), "equilibrium"), ((0.2, 1.0), "equilibrium"), ((0.15, 0.3), "equilibrium"),
         ((0.15, math.pi), "constant_0.8"), ((0.15, math.pi), "switching_0.2")],
    )
    def test_one_state_call_per_record(self, params, monkeypatch, start, man):
        # Records are taken column by column: each record is sampled by one
        # state call, which takes a segment's grid 1,024 records at a time,
        # and the man's rate is read once a segment unless he switches.
        # Equilibrium play follows the rollout; a deviating man's run from
        # the line follows one focal-line segment.
        calls = {"omega": 0}
        chunks = {}  # per segment kind, the length of each grid sampled

        def counted(seg):
            def state(ts):
                chunks.setdefault(seg.kind, []).append(len(ts))
                return seg.state(ts)

            def omega(t):
                calls["omega"] += 1
                return seg.omega(t)

            return dataclasses.replace(seg, state=state, omega=omega)

        def counted_rollout(*args):
            segments, events = rollout(*args)
            return tuple(map(counted, segments)), events

        rollout, line_segment = sim.rollout, focal.line_segment
        n_segments = len(rollout(PolarState(*start), params)[0]) if man == "equilibrium" else 1
        if man == "equilibrium":
            monkeypatch.setattr(sim, "rollout", counted_rollout)
        else:
            monkeypatch.setattr(focal, "line_segment", lambda *a: counted(line_segment(*a)))
        spec = self.MEN[man][0]
        traj = sim.simulate(PolarState(*start), _EQ_LADY, spec, dt=1e-4, params=params)
        assert traj.outcome == "reached_e" and len(traj.t) > 1000
        assert sum(map(sum, chunks.values())) == len(traj.t)
        for sizes in chunks.values():  # each grid in full chunks but the last
            assert all(n == 1024 for n in sizes[:-1]) and 0 < sizes[-1] <= 1024
        assert calls["omega"] == (len(traj.t) if spec.period else n_segments)


class TestExactArrival:
    def test_focal_line_start(self, params):
        traj = eq_run(PolarState(0.15, math.pi), params)
        assert traj.outcome == "reached_e"
        assert abs(traj.t_final - math.pi / 3) <= 1e-12
        assert traj.r[-1] == MU and traj.t[-1] == traj.t_final

    def test_universal_line_start(self, params):
        traj = eq_run(PolarState(0.15, 0.3), params)
        assert traj.outcome == "reached_e"
        assert abs(traj.t_final - (math.pi / 2 + 0.5)) <= 1e-12

    def test_no_arrival_threshold(self):
        assert not hasattr(sim, "E_ARRIVE")


# One start in every class of equilibrium play at mu = 0.3.
_CLASS_STARTS = {
    "focal_tributary_one": (0.2, 1.0),
    "focal_tributary_two": (0.05, 2.5),
    "universal_tributary": (0.15, 0.3),
    "universal_line": (0.15, 0.0),
    "focal_line": (0.15, math.pi),
    "above_barrier": (0.5, 2.8),
    "on_barrier": (0.5, classical.barrier_theta(0.5, GameParams(MU))),
    "shore": (1.0, 1.5),
    "e_box": (MU - 5e-7, math.pi - 5e-7),
    # Next to E but above the barrier: the classical game starts at E.
    "e_box_above_barrier": (MU + 5e-7, math.pi),
}


class TestRollout:
    """sim.rollout, the closed form of equilibrium play, as the oracle of the
    simulator: eq/eq samples it, and perturbed(0.0)/eq, which integrates the
    same strategies with RK4, follows it within the step's error."""

    def test_segments_per_start_class(self, params):
        kinds = {
            name: [seg.kind for seg in sim.rollout(PolarState(*start), params)[0]]
            for name, start in _CLASS_STARTS.items()
        }
        focal_tributary = ["focal_tributary", "focal_line"]
        assert kinds == {
            "focal_tributary_one": focal_tributary,
            "focal_tributary_two": focal_tributary,
            "universal_tributary": ["universal_tributary", "universal_line", "focal_line"],
            "universal_line": ["universal_line", "focal_line"],
            "focal_line": ["focal_line"],
            "above_barrier": ["classical"],
            "on_barrier": ["classical"],
            "shore": ["classical"],
            "e_box": focal_tributary,
            "e_box_above_barrier": ["classical"],
        }

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("name", list(_CLASS_STARTS))
    def test_equilibrium_run_samples_the_rollout(self, params, name, dt):
        state = PolarState(*_CLASS_STARTS[name])
        segments, events = sim.rollout(state, params)
        traj = eq_run(state, params, dt=dt)
        assert [k for _, k in traj.events] == [k for _, k in events]
        assert all(abs(a - b) <= 1e-12 for (a, _), (b, _) in zip(traj.events, events))
        assert abs(traj.t_final - events[-1][0]) <= 1e-12
        for t, r, theta in zip(traj.t, traj.r, traj.theta):
            seg = next(sg for sg in reversed(segments) if sg.t0 <= t)
            assert [col[0] for col in seg.state([t])[:2]] == [r, theta]

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("name", list(_CLASS_STARTS))
    def test_records_on_each_segments_exact_grid(self, params, name, dt):
        # Each segment is recorded at t0 + k dt from its own start, and the
        # run at its last segment's end; a running sum of dt drifts off it.
        segments, _ = sim.rollout(PolarState(*_CLASS_STARTS[name]), params)
        traj = eq_run(PolarState(*_CLASS_STARTS[name]), params, dt=dt)
        for t in traj.t:
            seg = next(sg for sg in reversed(segments) if sg.t0 <= t)
            assert t in (seg.t0 + round((t - seg.t0) / dt) * dt, seg.t1)
        assert all(b - a > params.slack for a, b in zip(traj.t, traj.t[1:]))
        assert traj.t[-1] == segments[-1].t1

    @pytest.mark.parametrize("name", ["focal_tributary_one", "universal_tributary", "above_barrier"])
    def test_short_horizon_times_out_at_t_max(self, params, name):
        state = PolarState(*_CLASS_STARTS[name])
        _, events = sim.rollout(state, params)
        t_max = 0.6 * events[-1][0]
        traj = eq_run(state, params, dt=1e-3, t_max=t_max)
        assert traj.outcome == "timeout" and traj.theta_f is None
        assert abs(traj.t[-1] - t_max) <= 1e-12 and traj.t_final == traj.t[-1]
        assert traj.events == [ev for ev in events if ev[0] <= t_max]

    def test_peak_memory_near_what_the_run_keeps(self, params):
        # States are taken 1,024 records at a time; all of them at once as
        # 4-tuples peaked at 1.5 times the trajectory.
        state = PolarState(0.15, 0.25)
        eq_run(state, params)  # lazy imports and caches off the count
        tracemalloc.start()
        try:
            traj = eq_run(state, params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.t) > 20_000
        assert peak <= 1.25 * kept

    @pytest.mark.parametrize("name", list(_CLASS_STARTS))
    def test_integrated_equilibrium_follows_the_rollout(self, params, name):
        # Bounds set from the step error of RK4 at dt = 1e-4 before
        # measuring: fl_entry is met tangentially, ul_entry is late by about
        # h/5, and t_final carries the eps_r cut at the origin passage.
        state = PolarState(*_CLASS_STARTS[name])
        _, events = sim.rollout(state, params)
        traj = sim.simulate(
            state, sim.StrategySpec.perturbed(0.0), sim.StrategySpec.equilibrium("man"),
            dt=1e-4, params=params,
        )
        assert [k for _, k in traj.events] == [k for _, k in events]
        assert "barrier_crossing" not in {k for _, k in traj.events}
        bound = {"fl_entry": 1e-5, "ul_entry": 3e-5}
        for (t, kind), (t_closed, _) in zip(traj.events, events):
            assert abs(t - t_closed) <= bound.get(kind, math.inf), kind
        assert abs(traj.t_final - events[-1][0]) <= 1e-8


class TestClassicalClosedForm:
    """Equilibrium play from above the barrier, stepped in closed form."""

    def test_exact_shore_arrival(self, params):
        rng = random.Random(7)
        for _ in range(10):
            r = rng.uniform(MU + 0.01, 0.99)
            state = PolarState(r, rng.uniform(classical.barrier_theta(r, params), math.pi))
            traj = eq_run(state, params, dt=1e-3)
            assert traj.outcome == "reached_shore" and traj.r[-1] == 1.0
            assert abs(traj.theta_f - classical.classical_value(state, params)) <= 1e-12
            t_shore = (math.sqrt(1.0 - MU**2) - math.sqrt(r * r - MU**2)) / MU
            assert abs(traj.t_final - t_shore) <= 1e-12

    @pytest.mark.parametrize("r0,theta0", [(0.35, 3.1), (0.5, 2.8), (0.8, 3.0)])
    def test_matches_rk4_oracle(self, params, r0, theta0):
        """Plain RK4 of model.rates under classical_heading_at, omega = 1,
        up to r = 1 - 1e-3."""

        def d(r):
            return (*rates(r, *classical.classical_heading_at(r, MU), 1.0, MU), 1.0)

        dt, y = 1e-4, (r0, theta0, 0.0)
        rows = [(0.0, *y)]
        while y[0] < 1.0 - 1e-3:
            k1 = d(y[0])
            k2 = d(y[0] + dt / 2 * k1[0])
            k3 = d(y[0] + dt / 2 * k2[0])
            k4 = d(y[0] + dt * k3[0])
            y = tuple(
                a + dt / 6 * (p + 2 * q + 2 * u + v)
                for a, p, q, u, v in zip(y, k1, k2, k3, k4)
            )
            rows.append((len(rows) * dt, *y))
        traj = eq_run(PolarState(r0, theta0), params)
        assert traj.outcome == "reached_shore"
        assert len(traj.t) > len(rows) > 1000
        for i, (t, r, th, al) in enumerate(rows[:-1]):
            assert traj.t[i] == pytest.approx(t, abs=1e-9)
            assert traj.r[i] == pytest.approx(r, abs=1e-9)
            assert traj.theta[i] == pytest.approx(th, abs=1e-9)
            assert traj.man_angle[i] == pytest.approx(al, abs=1e-9)

    @pytest.mark.parametrize("mu,r0,theta0", [(0.1, 0.5, 2.5), (0.15, 0.9, 0.6)])
    def test_reaching_theta_zero_first_stays_integrated(self, mu, r0, theta0):
        # Above the barrier but with a classical value below tol_event (mu
        # under the critical ratio): the path meets the universal line before
        # the shore, which the closed form does not model.
        params = GameParams(mu)
        state = PolarState(r0, theta0)
        assert solution.region_of(r0, theta0, params) is solution.Region.ABOVE_BARRIER
        assert classical.classical_value(state, params) < 0.0
        with pytest.raises(RegionError):
            sim.rollout(state, params)
        traj = eq_run(state, params)
        assert traj.outcome == "reached_shore"
        assert [k for _, k in traj.events] == ["ul_entry", "shore_exit"]
        assert traj.theta_f == 0.0


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

    def test_deviating_man_turns_the_lady_off_theta_zero(self, params):
        # On theta = 0 she heads for the centre, so theta' = -omega: against
        # a man at 0.8 the angle grows at 0.8 rad/s instead of staying at 0.
        traj = sim.simulate(
            PolarState(0.15, 0.0),
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.constant_omega(0.8),
            dt=1e-3,
            params=params,
        )
        k = min(range(len(traj.t)), key=lambda i: abs(traj.t[i] - 0.1))
        assert traj.theta[k] == pytest.approx(0.08, abs=1e-3)
        assert traj.events[0][1] == "reflection"
        assert traj.outcome == "reached_e"

    def test_touching_theta_zero_at_a_switch_is_no_reflection(self, params):
        # theta falls to 0 exactly at the switch t = 0.4 and rises after it
        # (0.001, 0.0, 0.001 at t = 0.399, 0.4, 0.401): she only touches the
        # line, so the frame keeps the one mirror taken at the start.
        traj = sim.simulate(
            PolarState(0.15, 0.0),
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.switching_omega(0.2),
            dt=1e-3,
            params=params,
        )
        assert [k for _, k in traj.events] == ["reflection", "tangency", "fl_entry", "reached_e"]
        assert traj.events[0][0] == 0.0
        assert traj.outcome == "reached_e"
        assert traj.t_final == 2.0707400629187775
        k = traj.t.index(0.4)
        assert traj.theta[k - 1:k + 2] == pytest.approx([0.001, 0.0, 0.001], abs=1e-12)
        assert set(traj.mirror) == {1}


class TestFocalTributaryRun:
    @pytest.mark.parametrize("r,theta", [(0.2, 1.0), (0.05, 2.5), (0.5, 2.0)])
    def test_arrival_matches_entry_solve(self, params, r, theta):
        predicted = focal.solve_entry(PolarState(r, theta), params).total_time
        traj = eq_run(PolarState(r, theta), params)
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(predicted, abs=1e-9)

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

    def test_no_barrier_crossing_past_the_shore(self):
        # Close above the barrier at the shore: the side is read at the end of
        # the step cut at the shore, not of the uncut trial step beyond it.
        params = GameParams(0.6420809489234315)
        traj = sim.simulate(
            PolarState(0.6461645662298106, 3.141582224592338),
            sim.StrategySpec.perturbed(0.0),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-3,
            params=params,
        )
        times = [t for t, _ in traj.events]
        assert times == sorted(times)
        assert [k for _, k in traj.events] == ["shore_exit"]


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

    def test_cartesian_is_the_model_lift(self):
        # A mirrored record lifts as the reflection of its canonical state
        # lifted from the reflected shore angle.
        traj = sim.simulate(PolarState(0.1, 0.05), sim.StrategySpec.fixed_heading(0.6, -0.8),
                            sim.StrategySpec.switching_omega(0.3), dt=1e-3, t_max=1.0,
                            params=GameParams(0.4))
        assert 0 < sum(traj.mirror) < len(traj.mirror)
        for cart, r, th, al, mir in zip(traj.cartesian(), traj.r, traj.theta,
                                        traj.man_angle, traj.mirror):
            pose = to_cartesian(PolarState(r, th), -al if mir else al)
            sign = -1.0 if mir else 1.0
            assert cart == (pose.x_L, sign * pose.y_L, pose.x_M, sign * pose.y_M)

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
        with pytest.raises(DomainError, match="^params is required$"):
            sim.simulate(PolarState(0.5, 1.0), _EQ_LADY, _EQ_MAN)

    @pytest.mark.parametrize("lady,man,t_e", [
        (sim.StrategySpec.perturbed(0.05), _EQ_MAN, math.pi / 2),
        (sim.StrategySpec.perturbed(-0.05), _EQ_MAN, math.pi / 2),
        (_EQ_LADY, sim.StrategySpec.constant_omega(0.8), math.asin(0.8) / 0.8),
        (sim.StrategySpec.perturbed(-0.05), sim.StrategySpec.switching_omega(0.2), math.pi / 2),
    ], ids=["perturbed(+0.05)/eq", "perturbed(-0.05)/eq", "eq/constant(0.8)", "perturbed(-0.05)/switching"])
    def test_deviating_lady_leaves_the_centre(self, params, lady, man, t_e):
        # At the centre she is on the focal line, as in rollout, and drifts out
        # along it at his rate w: E at asin(w)/w.
        traj = sim.simulate(PolarState(0.0, 1.0), lady, man, dt=1e-3, params=params)
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(t_e, abs=1e-12)
        assert traj.theta == [math.pi] * len(traj.t) and traj.r[-1] == MU

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

    @pytest.mark.parametrize("make, args", [
        ("constant_omega", (math.nan,)),
        ("switching_omega", (math.nan,)),
        ("switching_omega", (math.inf,)),
        ("perturbed", (math.nan,)),
        ("perturbed", (math.inf,)),
        ("fixed_heading", (math.nan, math.nan)),
        ("fixed_heading", (math.inf, 0.0)),
    ])
    def test_non_finite_strategy_argument(self, make, args):
        # max(-1.0, nan) is -1.0, so a NaN let through would play as a legal value.
        with pytest.raises(DomainError):
            getattr(sim.StrategySpec, make)(*args)


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

    def test_fixed_heading_from_focal_line_is_not_held_there(self, params):
        # Only a lady who plays the focal-line control stays on theta = pi.
        # With omega = 0 this one has r = 0.1 + 0.18 t and theta' = -0.24/r,
        # so she lands at t = 5 and theta = pi - (4/3) ln 10.
        traj = sim.simulate(
            PolarState(0.1, math.pi),
            sim.StrategySpec.fixed_heading(0.6, -0.8),
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            params=params,
        )
        assert traj.outcome == "reached_shore"
        assert [k for _, k in traj.events] == ["shore_exit"]
        assert traj.t_final == pytest.approx(5.0, abs=1e-6)
        assert traj.theta_f == pytest.approx(math.pi - 4.0 / 3.0 * math.log(10.0), abs=1e-6)

    @pytest.mark.parametrize(
        "theta0,sin_psi,theta_f",
        [
            (math.pi, 0.8, math.pi - 4.0 / 3.0 * math.log(10.0)),
            (0.0, -0.8, 4.0 / 3.0 * math.log(10.0)),
        ],
    )
    def test_fixed_heading_leaving_a_line_is_reflected(self, params, theta0, sin_psi, theta_f):
        # Starting on theta = pi (or 0) and heading out of [0, pi], she is
        # mirrored at once; then r = 0.1 + 0.18 t and |theta'| = 0.24/r, so
        # she lands at t = 5, (4/3) ln 10 away from the line she left.
        traj = sim.simulate(
            PolarState(0.1, theta0),
            sim.StrategySpec.fixed_heading(0.6, sin_psi),
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            params=params,
        )
        assert traj.outcome == "reached_shore"
        assert traj.events[0] == (0.0, "reflection")
        assert traj.theta_f == pytest.approx(theta_f, abs=1e-6)

    def test_fixed_heading_off_unit_by_1e10_runs(self, params):
        # Within StrategySpec's 1e-9 unit check but over ControlPair's 1e-12,
        # which verify.trajectory_hamiltonians builds from the recorded
        # controls: the spec stores the heading normalised.
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

    def test_fixed_heading_slides_along_the_universal_line(self, params):
        # The equilibrium man stands still within tol_event of theta = 0, so
        # theta' = 0.24/r > 0 inside that band and 0.24/r - 1 < 0 above it,
        # with r = 0.5 + 0.18 t.  The band's edge is a located step end: she
        # enters theta = 0 there and slides along it, theta held and the man
        # still, to the shore with theta_f = 0.  Unlocated, the steps chattered
        # across the edge: over 100k of them by t = 0.095.
        lady = sim.StrategySpec.fixed_heading(0.6, 0.8)
        traj = sim.simulate(PolarState(0.5, 0.05), lady, _EQ_MAN, dt=1e-3, t_max=1.0, params=params)
        assert traj.steps < 1000 and traj.outcome == "timeout"
        [(t_in, kind)] = traj.events
        assert kind == "ul_entry"
        r_in = 0.5 + 0.18 * t_in
        assert abs(0.05 + 0.24 / 0.18 * math.log(r_in / 0.5) - t_in - params.tol_event) <= 1e-9
        after = [k for k, t in enumerate(traj.t) if t > t_in]
        assert len(after) >= 900
        assert all(traj.theta[k] == 0.0 and traj.omega[k] == 0.0 for k in after)
        assert traj.r[-1] == pytest.approx(0.68, abs=1e-12)
        whole = sim.simulate(PolarState(0.5, 0.05), lady, _EQ_MAN, dt=1e-3, t_max=20.0, params=params)
        assert [k for _, k in whole.events] == ["ul_entry", "shore_exit"]
        assert whole.outcome == "reached_shore" and whole.theta_f == 0.0
        assert whole.t_final == pytest.approx(t_in + (1.0 - r_in) / 0.18, abs=1e-8)

    def test_still_man_on_the_shore_record_of_a_slide(self, params):
        # The slide along theta = 0 reaches the shore; the step sequence opened
        # there reads the line too, so the last record has the man still, as
        # every record of the slide before it.
        lady = sim.StrategySpec.fixed_heading(0.6, 0.8)
        traj = sim.simulate(PolarState(0.5, 0.05), lady, _EQ_MAN, dt=0.05, params=params)
        assert [k for _, k in traj.events] == ["ul_entry", "shore_exit"]
        t_in = traj.events[0][0]
        slide = [om for t, om in zip(traj.t, traj.omega) if t >= t_in]
        assert len(slide) > 30 and traj.t[-1] == traj.t_final
        assert set(slide) == {0.0}

    def test_fixed_heading_through_the_band_is_reflected(self, params):
        # From r = 0.1 the heading's mu sin psi / r = -2.4 points through
        # theta = 0 from both sides, so at the band's edge she is mirrored;
        # once r > 0.24 it no longer does, and she comes back to slide along
        # theta = 0 to the shore, reached at r = 0.1 + 0.18 t = 1.
        lady = sim.StrategySpec.fixed_heading(0.6, -0.8)
        traj = sim.simulate(PolarState(0.1, 0.05), lady, _EQ_MAN, dt=1e-3, params=params)
        assert traj.steps < 1000
        assert [k for _, k in traj.events] == ["reflection", "ul_entry", "shore_exit"]
        assert traj.outcome == "reached_shore" and traj.theta_f == 0.0
        assert traj.t_final == pytest.approx(5.0, abs=1e-8)

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

    def test_passage_through_the_centre_lands_on_the_opposite_ray(self, params):
        # Heading straight in from (0.2, 1) against a still man, she passes
        # the centre onto the ray at angle 1 + pi, seen in the mirrored frame;
        # her heading points back at the centre from there, so she is held
        # at it.
        traj = sim.simulate(
            PolarState(0.2, 1.0),
            sim.StrategySpec.fixed_heading(-1.0, 0.0),
            sim.StrategySpec.constant_omega(0.0),
            dt=1e-3,
            t_max=2.0,
            params=params,
        )
        assert min(traj.r) >= 0.0
        t_pass = next(t for t, kind in traj.events if kind == "origin_passage")
        k = traj.t.index(t_pass)
        x, y, _, _ = traj.cartesian()[k]
        assert abs(math.remainder(math.atan2(y, x) - (1.0 + math.pi), 2.0 * math.pi)) <= 1e-9

    def test_tangency_in_a_cut_step_keeps_events_in_time_order(self):
        # The step that passes the tangency circle is cut at the focal line;
        # the tangency is stamped at the end of the step taken, not of the trial.
        traj = sim.simulate(
            PolarState(0.3038311130647989, 0.3666984247258773),
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-3,
            params=GameParams(0.8726383548854478),
        )
        assert [k for _, k in traj.events] == ["tangency", "fl_entry", "reached_e"]
        times = [t for t, _ in traj.events]
        assert times == sorted(times)

    def test_snapping_lady_slides_where_both_frames_point_into_theta_zero(self):
        # Near the centre the perturbed lady's theta' < 0 on theta = 0 in both
        # frames, so she slides along the line instead of being reflected twice
        # per step.
        traj = sim.simulate(
            PolarState(0.40792812629630315, 0.6548490089329155),
            sim.StrategySpec.perturbed(0.05),
            sim.StrategySpec.constant_omega(0.8),
            dt=1e-3,
            t_max=8.0,
            params=GameParams(0.5823196650836735),
        )
        assert [k for _, k in traj.events] == ["ul_entry", "origin_passage", "reached_e"]
        times = [t for t, _ in traj.events]
        assert times == sorted(times)


_RUN_SET_PAIRS = (
    (sim.StrategySpec.equilibrium("lady"), sim.StrategySpec.equilibrium("man")),
    (sim.StrategySpec.perturbed(0.05), sim.StrategySpec.equilibrium("man")),
    (sim.StrategySpec.perturbed(-0.05), sim.StrategySpec.equilibrium("man")),
    (sim.StrategySpec.equilibrium("lady"), sim.StrategySpec.constant_omega(0.8)),
    (sim.StrategySpec.equilibrium("lady"), sim.StrategySpec.switching_omega(0.2)),
    (sim.StrategySpec.fixed_heading(0.6, 0.8), sim.StrategySpec.constant_omega(0.0)),
)

# Outcome and event kinds per start, for the pairs above in order.
_E_ONLY = ("reached_e: reached_e",) * 5
_TFR = "reached_e: tangency fl_entry reached_e"
_SHORE = ("reached_shore: shore_exit",) * 5
_RUN_SET = {
    (0.15, math.pi): _E_ONLY + ("reached_shore: reflection shore_exit",),
    (0.24, math.pi): _E_ONLY + ("reached_shore: reflection barrier_crossing shore_exit",),
    (0.2, 1.0): (_TFR,) * 5 + ("reached_shore: barrier_crossing reflection shore_exit",),
    (0.05, 2.5): ("reached_e: fl_entry reached_e",) * 5
    + ("reached_shore: reflection reflection shore_exit",),
    (0.25, 3.0): (_TFR,) * 5 + ("reached_shore: reflection barrier_crossing shore_exit",),
    (0.4, 2.0): (_TFR,) * 5 + ("reached_shore: barrier_crossing reflection shore_exit",),
    (0.5, 2.0): (_TFR,) * 5 + ("reached_shore: barrier_crossing shore_exit",),
    (0.15, 0.3): (
        "reached_e: ul_entry origin_passage reached_e",
        "reached_e: ul_entry origin_passage reached_e",
        # One ul_entry: she slides along theta = 0 until she leaves it.  RK4
        # logged 3 at dt = 1e-3, 22 at 1e-4 and 109 at 2.5e-5, re-entering at
        # the equilibrium man's tol_event band once a step.
        "reached_e: ul_entry tangency fl_entry reached_e",
        "reached_e: reflection tangency fl_entry reached_e",
        _TFR,
        "reached_shore: barrier_crossing shore_exit",
    ),
    (0.05, 0.1): (
        "reached_e: ul_entry origin_passage reached_e",
        "reached_e: ul_entry origin_passage reached_e",
        _TFR,
        "reached_e: reflection tangency fl_entry reached_e",
        "reached_e: reflection tangency fl_entry reached_e",
        "reached_shore: barrier_crossing reflection shore_exit",
    ),
    (0.5, 2.8): _SHORE + ("reached_shore: reflection shore_exit",),
    (0.8, 3.0): _SHORE + ("reached_shore: reflection shore_exit",),
}


class TestRunSet:
    """Outcomes and event sequences of a fixed set of closed-loop runs at
    mu = 0.3, dt = 1e-3: eleven starts, each under equilibrium play, the
    lady perturbed by +-0.05, the man at constant 0.8 or switching every
    0.2, and a fixed-heading lady against a still man."""

    @pytest.mark.parametrize("start", list(_RUN_SET), ids=str)
    def test_outcomes_and_events(self, params, start):
        got = []
        for lady, man in _RUN_SET_PAIRS:
            traj = sim.simulate(PolarState(*start), lady, man, dt=1e-3, t_max=20.0, params=params)
            got.append(f"{traj.outcome}: " + " ".join(k for _, k in traj.events))
            # The recorded path is continuous: she swims at mu and he runs at
            # most at 1, but where a delta_psi = -0.05 lady enters the focal
            # line short of theta = pi and is put on it.
            put = {t for t, k in traj.events if k == "fl_entry"} if lady.delta_psi == -0.05 else set()
            cart = traj.cartesian()
            for k in range(1, len(traj.t)):
                step = traj.t[k] - traj.t[k - 1]
                if traj.t[k] not in put:
                    assert math.dist(cart[k][:2], cart[k - 1][:2]) <= MU * step + 1e-8, (lady, man, traj.t[k])
                assert abs(traj.man_angle[k] - traj.man_angle[k - 1]) <= step + 1e-12, (lady, man, traj.t[k])
        assert tuple(got) == _RUN_SET[start]


class TestLadyMatchesAdvise:
    """The equilibrium lady plays advise's heading wherever theta means
    something, E included."""

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.6, 0.9])
    def test_heading_matches_advise(self, mu):
        params = GameParams(mu)
        for i in range(40):
            for j in range(41):
                r, theta = i / 40, math.pi * j / 40
                if r < params.eps_r:
                    continue
                adv = solution.advise(PolarState(r, theta), params, omega_now=1.0)
                c, s = sim._Lady(params, 0.0)(r, theta)
                assert c == pytest.approx(adv.controls.cos_psi, abs=1e-6), (r, theta)
                assert s == pytest.approx(adv.controls.sin_psi, abs=1e-6), (r, theta)


class TestTangencyAtCoarseSteps:
    """Runs whose tributary passes the tangency circle land, at dt = 1e-3,
    within 1e-3 of their dt = 2e-5 arrival time (given to 5 decimals)."""

    @pytest.mark.parametrize(
        "start,mu,lady,man,t_fine",
        [
            ((0.251084, 0.012860), 0.580211, _EQ_LADY, sim.StrategySpec.switching_omega(0.2), 2.00354),
            ((0.931206, 0.178588), 0.309144, _EQ_LADY, sim.StrategySpec.switching_omega(0.2), 4.58300),
            ((0.859273, 1.198299), 0.575014, _EQ_LADY, sim.StrategySpec.constant_omega(0.8), 2.65345),
            ((0.2, 1.0), 0.3, sim.StrategySpec.perturbed(-0.05), _EQ_MAN, 2.24045),
        ],
        ids=["switching-0.58", "switching-0.31", "constant-0.58", "perturbed-0.3"],
    )
    def test_arrival_matches_fine_step(self, start, mu, lady, man, t_fine):
        traj = sim.simulate(PolarState(*start), lady, man, dt=1e-3, params=GameParams(mu))
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(t_fine, abs=1e-3)

    def test_solve_past_the_centre_is_not_kept(self):
        # A trial stage lands past the centre, where case One has no root at the
        # clamped radius; a lady who kept the case Two solved there would swim
        # radially outward and arrive 2.66 late.
        traj = sim.simulate(
            PolarState(0.46553701925106367, 0.07828081730463037),
            _EQ_LADY,
            sim.StrategySpec.switching_omega(0.2),
            dt=1e-3,
            params=GameParams(0.18678608119445428),
        )
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(4.06315, abs=1e-3)


class TestStageCorrector:
    def test_one_full_solve_per_step(self, params, monkeypatch):
        # Stages and records continue the radius by focal.entry_track; entry_root
        # runs at most once an accepted step, where it declines, and once more at
        # the turn.
        calls = {"root": 0, "track": 0, "declined": 0}
        entry_root, entry_track = focal.entry_root, focal.entry_track

        def root(*args):
            calls["root"] += 1
            return entry_root(*args)

        def track(*args):
            calls["track"] += 1
            found = entry_track(*args)
            calls["declined"] += found is None
            return found

        monkeypatch.setattr(focal, "entry_root", root)
        monkeypatch.setattr(focal, "entry_track", track)
        traj = sim.simulate(PolarState(0.2, 1.0), sim.StrategySpec.perturbed(-0.05), _EQ_MAN,
                            dt=1e-3, params=params)
        assert "fl_entry" in [kind for _, kind in traj.events]
        assert traj.steps > 100
        assert calls["root"] <= traj.steps + calls["declined"] + 1
        assert calls["declined"] <= 0.05 * calls["track"]

    def test_report_evaluation_count(self, params, monkeypatch):
        # The mismatch evaluations of one deviation report from closed_loop's
        # focal start, run in-process: a declined entry_track hands its
        # evaluations to entry_root, so the report makes 8,161 (9,197 when
        # entry_root made them again).  A count, unlike a timing, repeats exactly.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls, newton = [0], focal._newton

        def counted(*args):
            calls[0] += 1
            return newton(*args)

        monkeypatch.setattr(focal, "_newton", counted)
        _, rows = sim.deviation_report(PolarState(0.1, 2.85), params)
        assert [row.outcome for row in rows] == ["reached_e"] * 5
        assert calls[0] <= 8161


class TestIntegrator:
    """The Dormand–Prince 5(4) steps of a run where a side deviates."""

    @pytest.mark.parametrize(
        "start,lady,man,t_max",
        [
            ((0.2, 1.0), sim.StrategySpec.perturbed(-0.05), _EQ_MAN, 20.0),
            (WORST_11, _EQ_LADY, sim.StrategySpec.switching_omega(0.2), 20.0),
            (WORST_11, sim.StrategySpec.perturbed(0.05), _EQ_MAN, 20.0),
            ((0.24, math.pi), sim.StrategySpec.fixed_heading(0.6, 0.8), sim.StrategySpec.constant_omega(0.0), 20.0),
            (WORST_11, _EQ_LADY, sim.StrategySpec.switching_omega(0.2), 1.3),
        ],
        ids=["tangency-root-loss", "switches-reflections", "slide-origin", "reflection-barrier", "cut-by-t_max"],
    )
    def test_record_spacing_changes_no_result(self, params, start, lady, man, t_max):
        # dt spaces the records only: they come from the steps' interpolants,
        # and the lady's memory is written at step ends alone.  At dt = t_max,
        # deviation_report's spacing, a run records only at its start, where
        # an event cuts a step and at its end.
        fine, coarse, bare = (sim.simulate(PolarState(*start), lady, man, dt=dt, t_max=t_max, params=params)
                              for dt in (1e-3, 1e-2, t_max))
        assert (fine.outcome == "timeout") is (t_max < 20.0)
        for run in (coarse, bare):
            assert (run.outcome, run.events, run.t_final) == (fine.outcome, fine.events, fine.t_final)
            assert (run.steps, run.rejected) == (fine.steps, fine.rejected)
        assert len(bare.t) <= len(bare.events) + 2 < len(coarse.t) < len(fine.t)

    @pytest.mark.parametrize("start", [(0.2, 1.0), WORST_11, (0.15, 0.3), (0.1, 2.85), (0.15, 0.0)])
    @pytest.mark.parametrize("t_max", [20.0, 1.3])
    def test_records_at_spacing_t_max_fall_at_logged_events(self, params, start, t_max):
        # The record grid restarts at logged events only: the loss of case
        # Two's root, the end of a slide and a clamp onto [0, pi] log none.
        # perturbed(-0.05) from (0.2, 1.0) loses case Two's root on its way.
        pairs = (*_RUN_SET_PAIRS[1:], (_EQ_LADY, sim.StrategySpec.constant_omega(0.0)))
        for lady, man in pairs:
            traj = sim.simulate(PolarState(*start), lady, man, dt=t_max, t_max=t_max, params=params)
            times = dict.fromkeys([0.0, *(t for t, _ in traj.events)])
            assert traj.t == [*times, *([t_max] if traj.outcome == "timeout" else [])], (lady, man)

    def test_switch_is_a_step_end(self, params):
        # Up to the switch at t = 0.2 the man runs at +1, as the equilibrium man
        # does, so the rollout's tributary is the exact path.  RK4 read his next
        # rate in the last stage of the step ending there: theta 3.3e-4 off.
        state = PolarState(0.2, 1.0)
        tributary = sim.rollout(state, params)[0][0]
        traj = sim.simulate(state, _EQ_LADY, sim.StrategySpec.switching_omega(0.2), dt=1e-3, params=params)
        k = next(i for i, t in enumerate(traj.t) if abs(t - 0.2) <= 1e-12)
        (r,), (theta,), _, _ = tributary.state([traj.t[k]])
        assert abs(traj.theta[k] - theta) <= 1e-9
        assert abs(traj.r[k] - r) <= 1e-9

    @pytest.mark.parametrize("man", [sim.StrategySpec.constant_omega(0.8), sim.StrategySpec.constant_omega(0.0),
                                     sim.StrategySpec.switching_omega(0.2)], ids=["constant-0.8", "constant-0", "switching"])
    def test_man_rows_match_dop853(self, params, man):
        # A reference on the same feedback that shares no code with the
        # steps: scipy's DOP853 at rtol 1e-12 on the equilibrium heading of a
        # case held fixed, case One up to where Delta_1(s_hi) turns negative,
        # case Two up to theta = pi, cut at the man's switches; then the focal
        # line in closed form.
        from scipy.integrate import solve_ivp

        one, two = focal.EntryCase.ONE, focal.EntryCase.TWO
        rate = (lambda t: man.value) if man.kind == "constant_omega" else (
            lambda t: 1.0 if int(t / man.period) % 2 == 0 else -1.0)

        def field(case, om):
            def f(t, y):
                # A trial stage just across the tangency circle has no root in
                # the case held; the other case's root meets it there.
                state = (y[0], min(y[1], math.pi), params)
                s, c = focal.entry_root(*state, case) or focal.entry_root(*state, two if case is one else one)
                return rates(y[0], *focal.tributary_heading_at(y[0], s, c, MU), om, MU)
            return f

        def turn(t, y):  # case One has a root iff Delta_1(s_hi) >= 0
            s_hi = min(MU, math.sqrt(MU * y[0]))
            return focal.entry_delta(PolarState(y[0], min(y[1], math.pi)), s_hi, one, params)

        def line(t, y):
            return math.pi - y[1]

        turn.terminal = line.terminal = True
        t, y, case = 0.0, [0.2, 1.0], one
        while True:
            t_end = (int(t / 0.2 + 1e-9) + 1) * 0.2 if man.kind == "switching_omega" else 20.0
            sol = solve_ivp(field(case, rate(0.5 * (t + t_end))), (t, t_end), y, method="DOP853",
                            rtol=1e-12, atol=1e-12, events=[turn if case is one else line])
            t, y = sol.t[-1], list(sol.y[:, -1])
            if sol.status == 1 and case is one:
                case = two
            elif sol.status == 1:
                break
        w = abs(rate(t))
        t_e = t + (math.asin(w) - math.asin(w * y[0] / MU)) / w if w else t + (MU - y[0]) / MU
        traj = sim.simulate(PolarState(0.2, 1.0), _EQ_LADY, man, dt=1e-3, params=params)
        assert [k for _, k in traj.events] == ["tangency", "fl_entry", "reached_e"]
        assert abs(traj.t_final - t_e) <= 1e-6

    def test_run_counts(self, params):
        # Closed-form play takes no step; RK4 took 2,199 steps of 1e-3 to bring
        # perturbed(-0.05) from (0.2, 1.0) onto the focal line.
        eq = eq_run(PolarState(0.2, 1.0), params, dt=1e-3)
        assert (eq.steps, eq.rejected, eq.evaluations) == (0, 0, 0)
        traj = sim.simulate(PolarState(0.2, 1.0), sim.StrategySpec.perturbed(-0.05), _EQ_MAN,
                            dt=1e-3, params=params)
        assert "fl_entry" in [kind for _, kind in traj.events]
        assert 0 < traj.steps <= 2199 // 4
        assert traj.evaluations >= 6 * traj.steps
        assert sim.Trajectory(outcome="timeout", t_final=1.0).steps == 0


# Dormand–Prince 5(4) as a tableau loop, the oracle of sim._dp45's flat step:
# each stage's node and row; the last row is the fifth-order weights, so the
# last stage is the rate at the step's end.
_DP_STAGES = (
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    (1.0, (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
# The fifth-order weights less the fourth-order ones: the local error estimate.
_DP_ERROR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def dp45_loop(deriv, t, y, h, k1):
    r, th, al = y
    ks = [k1]
    for c, row in _DP_STAGES:
        dr = dth = 0.0
        for a, k in zip(row, ks):
            dr += a * k[0]
            dth += a * k[1]
        ks.append(deriv(t + c * h, r + h * dr, th + h * dth))
    dal = er = eth = eal = 0.0
    for b, e, k in zip(_DP_STAGES[-1][1] + (0.0,), _DP_ERROR, ks):
        dal += b * k[2]
        er += e * k[0]
        eth += e * k[1]
        eal += e * k[2]
    err = h * max(abs(er), min(1.0, max(abs(r), abs(r + h * dr))) * abs(eth), abs(eal))
    return (r + h * dr, th + h * dth, al + h * dal), ks, err


def dense_eager(t, y, h, ks):
    """The interpolant with its coefficients taken when it is built."""
    (r, th, al), q = y, []
    for i in range(3):
        q.append([sum(d * (h * k[i]) for d, k in zip(column, ks)) for column in zip(*sim._DP_DENSE)])
    (r0, r1, r2, r3), (t0_, t1_, t2_, t3_), (a0, a1, a2, a3) = q

    def at(tt):
        x = (tt - t) / h
        return (r + x * (r0 + x * (r1 + x * (r2 + x * r3))),
                th + x * (t0_ + x * (t1_ + x * (t2_ + x * t3_))),
                al + x * (a0 + x * (a1 + x * (a2 + x * a3))))

    return at


class TestFlatStep:
    """sim._dp45 is the tableau loop unrolled, every sum in the loop's order,
    and sim._dense builds its coefficients at its first read: both must give
    the loop's and the eager interpolant's floats, compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 10.0), y=st.tuples(st.floats(-1.0, 1.0), st.floats(-4.0, 4.0), st.floats(-9.0, 9.0)),
           h=st.floats(1e-9, 1.0), c=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
           x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_any_field(self, t, y, h, c, x):
        def deriv(tt, r, th):
            return c[0] * math.sin(th) + c[1] * r, c[2] * math.cos(r) - c[3] * tt, r * th - c[0], "extra"

        k1 = deriv(t, y[0], y[1])
        y1, ks, err = sim._dp45(deriv, t, y, h, k1)
        assert (y1, list(ks), err) == dp45_loop(deriv, t, y, h, k1)
        at, eager = sim._dense(t, y, h, ks), dense_eager(t, y, h, ks)
        for tt in [t + xx * h for xx in x] * 2:  # a second read reuses the coefficients
            assert at(tt) == eager(tt)

    @pytest.mark.parametrize("start,lady,man", [
        ((0.2, 1.0), sim.StrategySpec.perturbed(-0.05), _EQ_MAN),
        (WORST_11, _EQ_LADY, sim.StrategySpec.switching_omega(0.2)),
        ((0.15, 0.3), sim.StrategySpec.perturbed(0.05), _EQ_MAN),
        ((0.1, 0.05), sim.StrategySpec.fixed_heading(0.6, -0.8), sim.StrategySpec.switching_omega(0.3)),
    ], ids=["tangency-root-loss", "switches", "slide-origin", "mirrored"])
    def test_every_step_of_a_run(self, params, monkeypatch, start, lady, man):
        # Each step of the run is taken both ways and each interpolant read is
        # checked against the eager one; the stages carry the lady's entries.
        flat, lazy, counts = sim._dp45, sim._dense, {"steps": 0, "reads": 0}

        def checked_step(deriv, t, y, h, k1):
            want = dp45_loop(deriv, t, y, h, k1)
            y1, ks, err = got = flat(deriv, t, y, h, k1)
            assert (y1, list(ks), err) == want
            counts["steps"] += 1
            return got

        def checked_dense(t, y, h, ks):
            at, eager = lazy(t, y, h, ks), dense_eager(t, y, h, ks)

            def read(tt):
                counts["reads"] += 1
                assert at(tt) == eager(tt)
                return at(tt)

            return read

        monkeypatch.setattr(sim, "_dp45", checked_step)
        monkeypatch.setattr(sim, "_dense", checked_dense)
        traj = sim.simulate(PolarState(*start), lady, man, dt=1e-2, t_max=3.0, params=params)
        assert counts["steps"] >= traj.steps + traj.rejected > 10 and counts["reads"] > 10


class TestDeviationReport:
    @pytest.mark.parametrize(
        "start,t_finals",
        [
            ((0.2, 1.0), (2.235718412741096, 2.2404499904007342, 1.8180826797493583,
                          1.5997649519917048, 2.1859363189269696)),
            (WORST_11,
             (3.444049412422196, 3.4488453315226666, 2.903370037166124,
              2.870589492011074, 3.4417046668019786)),
        ],
        ids=["0.2-1.0", "criterion-11-worst"],
    )
    def test_run_times_are_pinned(self, params, start, t_finals):
        # A reference that shares no code with the Dormand-Prince steps: fixed-step
        # RK4 at dt = 2.5e-6, its steps cut at the man's switches, each taking his
        # rate on its open interval.  RK4 is first order here (it reads the lady's
        # stale entry radius), so at 2.5e-5 the delta_psi=-0.05 rows still sat
        # 1.3e-6 and 2.4e-7 away; at 1e-3 they sat up to 4.3e-5 away.
        _, rows = sim.deviation_report(PolarState(*start), params, dt=1e-3)
        assert [row.time for row in rows] == pytest.approx(t_finals, abs=1e-6)

    def test_runs_record_at_spacing_t_max(self, params, monkeypatch):
        # A row reads only its run's outcome and t_final, so whatever dt the
        # caller gives, each run's record spacing is t_max (records at events).
        jobs = []
        monkeypatch.setattr(sim, "_map_runs", lambda js: jobs.append(js) or [("reached_e", 1.0)] * len(js))
        for dt in (1e-3, 5e-2):
            sim.deviation_report(PolarState(0.2, 1.0), params, dt=dt)
        assert jobs[0] == jobs[1]
        assert [job[3:5] for job in jobs[0]] == [(20.0, 20.0)] * 5

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_refuses_what_simulate_refuses(self, params, dt):
        with pytest.raises(DomainError):
            sim.simulate(PolarState(0.2, 1.0), _EQ_LADY, _EQ_MAN, dt=dt, params=params)
        with pytest.raises(DomainError):
            sim.deviation_report(PolarState(0.2, 1.0), params, dt=dt)

    def test_start_above_the_barrier_raises(self, params):
        # Its value is a terminal angle, so there is no t_eq to compare with.
        with pytest.raises(RegionError):
            sim.deviation_report(PolarState(0.8, 3.0), params)

    def test_universal_tributary_start_against_fast_man(self, params):
        # From here a trial stage lands past the centre; the lady must not
        # turn outward there and swim to the shore against constant_omega=0.8.
        _, rows = sim.deviation_report(PolarState(0.0557, 0.127), params, dt=1e-3)
        assert all(row.margin >= -1e-3 for row in rows)
        fast = next(row for row in rows if row.label == "constant_omega=0.8")
        assert fast.outcome == "reached_e"

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

    @staticmethod
    @functools.cache
    def serial_rows(start):
        # The report as five simulate calls one after another, in row order.
        params, state = GameParams(MU), PolarState(*start)
        t_eq = solution.advise(state, params, omega_now=1.0).value
        eq_lady, eq_man = sim.StrategySpec.equilibrium("lady"), sim.StrategySpec.equilibrium("man")
        rows = []
        for side, label, lady, man in (
            ("lady", "delta_psi=+0.05", sim.StrategySpec.perturbed(0.05), eq_man),
            ("lady", "delta_psi=-0.05", sim.StrategySpec.perturbed(-0.05), eq_man),
            ("man", "constant_omega=0.8", eq_lady, sim.StrategySpec.constant_omega(0.8)),
            ("man", "constant_omega=0", eq_lady, sim.StrategySpec.constant_omega(0.0)),
            ("man", "switching_omega(period=0.2)", eq_lady, sim.StrategySpec.switching_omega(0.2)),
        ):
            run = SIMULATE(state, lady, man, 1e-3, 20.0, params)
            if run.outcome != "reached_e":
                margin = t_eq - 20.0
            else:
                margin = run.t_final - t_eq if side == "lady" else t_eq - run.t_final
            rows.append(sim.DeviationRow(side, label, run.t_final, margin, run.outcome))
        return t_eq, rows

    @pytest.fixture
    def parent_calls(self, monkeypatch):
        # The simulate calls made in this process; a forked worker's are not.
        calls, simulate = [], sim.simulate

        def recorded(*args):
            calls.append(args[1:3])
            return simulate(*args)

        monkeypatch.setattr(sim, "simulate", recorded)
        return calls

    @pytest.mark.parametrize("start", [(0.2, 1.0), WORST_11], ids=["0.2-1.0", "criterion-11-worst"])
    def test_pooled_rows_equal_serial_runs(self, params, monkeypatch, start):
        expected = self.serial_rows(start)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert sim.deviation_report(PolarState(*start), params, dt=1e-3) == expected
        # The caller takes runs beside its child.  Counted against runs of
        # 0.1 s each, so that the split does not rest on how fast a fork starts.
        caller_calls = []

        def slow(initial, lady, man, dt, t_max, params):
            caller_calls.append((lady, man))
            time.sleep(0.1)
            return sim.Trajectory(outcome="reached_e", t_final=1.0)

        monkeypatch.setattr(sim, "simulate", slow)
        sim.deviation_report(PolarState(*start), params, dt=1e-3)
        assert 1 <= len(caller_calls) <= 4 if FORK else len(caller_calls) == 5

    def test_worker_error_reaches_caller(self, params, monkeypatch):
        monkeypatch.setattr(sim, "simulate", _still_man_fails)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(DomainError, match="^no run against a man who stands still$") as info:
            sim.deviation_report(PolarState(0.2, 1.0), params)
        assert type(info.value) is DomainError

    @pytest.mark.parametrize("raises", [False, True], ids=["rows", "run_raises"])
    def test_no_child_left(self, params, monkeypatch, raises):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if raises:
            monkeypatch.setattr(sim, "simulate", _still_man_fails)
        with pytest.raises(DomainError) if raises else contextlib.nullcontext():
            sim.deviation_report(PolarState(0.2, 1.0), params)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not FORK, reason="the runs fork no child here")
    def test_child_that_sends_nothing_is_an_error(self, params, monkeypatch):
        caller = os.getpid()

        def dies_in_child(initial, lady, man, dt, t_max, params):
            if os.getpid() != caller:
                os._exit(3)
            time.sleep(0.1)  # so that the child takes a run before the caller has taken all
            return sim.Trajectory(outcome="reached_e", t_final=1.0)

        monkeypatch.setattr(sim, "simulate", dies_in_child)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            sim.deviation_report(PolarState(0.2, 1.0), params)
        assert time.monotonic() - began < 5.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fallback", ["one_cpu", "no_fork", "daemonic", "other_thread"])
    def test_runs_in_process_where_no_fork_helps(self, params, monkeypatch, parent_calls, fallback):
        # Two CPUs but for one_cpu, so only the case under test keeps the runs here.
        cpus = {0} if fallback == "one_cpu" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        if fallback == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        elif fallback == "daemonic":
            monkeypatch.setattr(multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=True))
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(60.0,))
        if fallback == "other_thread":
            other.start()
        try:
            report = sim.deviation_report(PolarState(0.2, 1.0), params, dt=1e-3)
        finally:
            stop.set()
            if other.ident is not None:
                other.join(timeout=60.0)
        assert not other.is_alive()
        assert report == self.serial_rows((0.2, 1.0))
        assert [man.kind for _, man in parent_calls] == [
            "equilibrium", "equilibrium", "constant_omega", "constant_omega", "switching_omega"]


class TestEventTable:
    """simulate's event table: one row per located event, and the rule for
    events located at one time (the lowest priority wins)."""

    KINDS = ("barrier_crossing", "fl_cross", "origin_passage", "root_lost",
             "shore_exit", "slide_end", "tangency", "ul_cross")

    def test_rows_list_the_eight_kinds_in_priority_order(self):
        priorities = {}
        for row in sim._EVENTS:
            priorities.setdefault(row.kind, set()).add(row.priority)
        assert all(len(p) == 1 for p in priorities.values())  # a kind's rows share its priority
        assert sorted(priorities, key=lambda kind: min(priorities[kind])) == list(self.KINDS)
        assert len(set().union(*priorities.values())) == len(self.KINDS)
        # theta crosses pi, or r reaches a frozen lady's kept radius: two rows, never one OR-predicate.
        assert [row.kind for row in sim._EVENTS].count("fl_cross") == 2
        # Located last, before the earliest of the others.
        assert sim._EVENTS[-1].kind == "barrier_crossing"
        # _integrate takes row 1's action for a step through the centre from r = eps_r.
        assert sim._EVENTS[1].kind == "origin_passage"

    @staticmethod
    def resolve(rows):
        """_step_event over a step from t = 0 to 1 on the interpolant r = theta = t."""
        return sim._step_event(types.SimpleNamespace(t=0.0, tol=1e-12), lambda t: (t, t, 0.0), 1.0,
                               (1.0, 1.0, 0.0), None, rows)

    @staticmethod
    def row(kind, priority, at, guard=lambda *a: True):
        return sim._Event(kind, priority, guard, lambda run, t, r, th: t >= at, lambda run: False)

    NEVER = staticmethod(lambda *a: False)

    def test_a_tie_goes_to_the_lowest_priority(self):
        last = self.row("z", 9, 0.0, guard=self.NEVER)
        rows = [self.row("c", 2, 0.5), self.row("a", 0, 0.75), self.row("b", 1, 0.5), self.row("d", 3, 0.5), last]
        t, won = self.resolve(rows)
        assert won.kind == "b" and abs(t - 0.5) <= 1e-12
        # Two rows of one kind located at one time: either acts, the first listed is taken.
        first, second = self.row("x", 1, 0.5), self.row("x", 1, 0.5)
        assert self.resolve([first, second, last])[1] is first
        assert self.resolve([self.row("a", 0, 0.5, guard=self.NEVER), last]) == (1.0, None)

    def test_the_earliest_event_wins_whatever_its_priority(self):
        t, won = self.resolve([self.row("a", 0, 0.75), self.row("z", 9, 0.25), self.row("y", 0, 0.0, self.NEVER)])
        assert won.kind == "z" and abs(t - 0.25) <= 1e-12

    def test_the_last_row_is_located_before_the_earliest_of_the_others(self):
        read = []
        guard = lambda run, t1, r1, th1, e: read.append((t1, r1, th1)) or True  # noqa: E731
        t, won = self.resolve([self.row("b", 1, 0.5), self.row("a", 0, 0.5, guard)])
        # Its guard reads the interpolant where the others cut the step, and its own
        # predicate holds from 0.5 on, so it ties there and wins by priority.
        assert read == [(t, t, t)] and won.kind == "a" and t == 0.5
        read.clear()
        t, won = self.resolve([self.row("b", 1, 0.75), self.row("a", 0, 0.25, guard)])
        assert read == [(0.75, 0.75, 0.75)] and won.kind == "a" and abs(t - 0.25) <= 1e-12
        read.clear()
        t, won = self.resolve([self.row("a", 0, 0.5, guard)])
        assert read == [(1.0, 1.0, 1.0)] and won.kind == "a"

    FL_RADIUS = [row for row in sim._EVENTS if row.kind == "fl_cross"][1]

    def holds(self, lady, r1):
        """The second fl_cross row's guard and predicate at r1, on a snapping lady's run."""
        run, e = types.SimpleNamespace(lady=lady, snap=True), (lady.s, lady.case)
        return self.FL_RADIUS.guard(run, 1.0, r1, 3.0, e), self.FL_RADIUS.past(run, 1.0, r1, 3.0)

    def test_an_unfrozen_lady_does_not_hold_the_radius_row(self, params):
        # Case Two's root stays above r until theta = pi, which the first row
        # locates; where her radii kept at her last step ends extrapolate to
        # below r, that is no entry.
        lady = sim._Lady(params, 0.0)
        lady.s, lady.case, lady.track = 0.25, focal.EntryCase.TWO, ((0.0, 0.27), (0.5, 0.26), (0.75, 0.25))
        assert lady.predict(1.0) < 0.24 < lady.s
        assert self.holds(lady, 0.24) == (False, False)

    def test_a_frozen_lady_holds_it_where_her_kept_radius_is_at_most_r(self, params):
        lady = sim._Lady(params, 0.0)
        lady.freeze(0.25)
        assert [self.holds(lady, r1) for r1 in (0.2, 0.25 - 1e-12, 0.25, 0.3)] == [
            (False, False), (False, False), (True, True), (True, True)]

    def test_delta_psi_minus_005_runs_enter_at_the_kept_radius(self, params, monkeypatch):
        # Each of these runs loses case Two's root, is frozen at the bracket's
        # end, and enters the focal line where r reaches that radius.
        kept, freeze = [], sim._Lady.freeze
        monkeypatch.setattr(sim._Lady, "freeze", lambda lady, s: kept.append(s) or freeze(lady, s))
        entries = 0
        for start in _RUN_SET:
            kept.clear()
            traj = sim.simulate(PolarState(*start), sim.StrategySpec.perturbed(-0.05), _EQ_MAN,
                                dt=1e-3, t_max=20.0, params=params)
            for t, kind in traj.events:
                if kind == "fl_entry":
                    entries += 1
                    assert abs(traj.r[traj.t.index(t)] - kept[-1]) <= 1e-9, start
        assert entries == 7


class TestStrategyError:
    """A LakeGameError raised while a step is taken, or while its events and
    records are taken, ends the run with one strategy_error event at the last
    step end, as a timeout.  The run, (0.2, 1.0) at delta_psi = +0.05, logs
    tangency at 0.6656 unpatched."""

    @staticmethod
    def ended(params, monkeypatch, name):
        """The run with sim's function name wrapped to note run.t at each call,
        and the last time noted."""
        starts, wrapped = [], getattr(sim, name)
        run_t = (lambda a: a[1]) if name == "_dp45" else (lambda a: a[0].t)
        monkeypatch.setattr(sim, name, lambda *a: starts.append(run_t(a)) or wrapped(*a))
        traj = sim.simulate(PolarState(0.2, 1.0), sim.StrategySpec.perturbed(0.05), _EQ_MAN, dt=1e-3, params=params)
        assert traj.outcome == "timeout" and traj.theta_f is None
        assert traj.events == [(starts[-1], "strategy_error")] and traj.t_final == starts[-1]
        return traj.t_final

    def test_inside_a_step(self, params, monkeypatch):
        call = sim._Lady.__call__

        def lady(self, r, th, t=0.0, classical_side=None):
            if t > 0.3:
                raise NoRootError("no entry radius after t = 0.3")
            return call(self, r, th, t, classical_side)

        monkeypatch.setattr(sim._Lady, "__call__", lady)
        assert 0.0 < self.ended(params, monkeypatch, "_dp45") <= 0.3

    def test_while_events_are_taken(self, params, monkeypatch):
        def case_lost(*args):
            raise NoRootError("no entry radius at the tangency")

        monkeypatch.setattr(sim, "_case_lost", case_lost)
        assert 0.3 < self.ended(params, monkeypatch, "_step_event") < 0.6656
