import math
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from ladylake import classical, focal, sim, solution, universal, verify
from ladylake.model import ControlPair, DomainError, GameParams, PolarState

MU = 0.3


@pytest.fixture
def params():
    return GameParams(MU)


class TestCostates:
    def test_classical_terminal_multiplier(self, params):
        co = verify.costate_classical(PolarState(0.5, 2.5), params)
        assert co.lambda_theta == 1.0
        assert co.nu == pytest.approx(math.sqrt(1.0 / MU**2 - 1.0))

    def test_classical_lambda_r_vanishes_at_mu(self, params):
        co = verify.costate_classical(PolarState(MU, 3.0), params)
        assert co.lambda_r == pytest.approx(0.0, abs=1e-12)

    def test_focal_on_line_limit(self, params):
        # The s = r member in phase Two is the focal line's costate, and the
        # tributary costate tends to it as s -> r.
        for r in (1e-6, 0.15, 0.29):
            on = verify.costate_min_time(
                PolarState(r, math.pi), r, focal.EntryCase.TWO, params
            )
            assert on.lambda_r == pytest.approx(-1.0 / math.sqrt(MU**2 - r**2), rel=1e-12)
            assert on.nu == pytest.approx(-(r**2) / (MU**2 - r**2), rel=1e-12)
            assert on.lambda_theta == on.nu
        r = 0.15
        near = verify.costate_min_time(
            PolarState(r, math.pi), r - 1e-9, focal.EntryCase.TWO, params
        )
        on = verify.costate_min_time(PolarState(r, math.pi), r, focal.EntryCase.TWO, params)
        assert near.lambda_r == pytest.approx(on.lambda_r, abs=1e-5)
        assert near.nu == pytest.approx(on.nu, abs=1e-6)

    def test_focal_phase_sign(self, params):
        s = 0.15
        pre = verify.costate_min_time(
            PolarState(0.5, 2.0), s, focal.EntryCase.ONE, params
        )
        post = verify.costate_min_time(
            PolarState(0.5, 2.0), s, focal.EntryCase.TWO, params
        )
        assert pre.lambda_r > 0.0 > post.lambda_r
        assert pre.lambda_r == -post.lambda_r

    def test_universal(self, params):
        co = verify.costate_min_time(
            PolarState(0.4, 0.5), 0.0, focal.EntryCase.ONE, params
        )
        assert (co.lambda_r, co.lambda_theta, co.nu) == (1.0 / MU, 0.0, 0.0)

    @pytest.mark.parametrize("mu", [0.1, 0.2])
    def test_universal_member_is_exactly_one_over_mu(self, mu):
        # Written in p = s/mu, the s = 0 member cancels nothing: 1/mu to the
        # last bit, not mu/mu^2.
        co = verify.costate_min_time(PolarState(0.4, 0.5), 0.0, focal.EntryCase.ONE, GameParams(mu))
        assert co.lambda_r == 1.0 / mu

    def test_min_time_domain(self, params):
        for s in (-1e-9, MU):
            with pytest.raises(DomainError):
                verify.costate_min_time(PolarState(0.5, 2.0), s, focal.EntryCase.ONE, params)


class TestHamiltonians:
    def test_classical_equilibrium_vanishes(self, params):
        state = PolarState(0.5, 2.5)
        co = verify.costate_classical(state, params)
        c = classical.classical_heading(state, params)
        assert abs(verify.hamiltonian(state, co, c, params)) < 1e-10

    def test_classical_man_deviation_raises_h(self, params):
        # The maximizing man at omega < 1 leaves a positive residual.
        state = PolarState(0.5, 2.5)
        co = verify.costate_classical(state, params)
        c = classical.classical_heading(state, params)
        from ladylake.model import ControlPair

        slow = ControlPair(c.cos_psi, c.sin_psi, 0.5)
        assert verify.hamiltonian(state, co, slow, params) > 0.1

    def test_min_time_tributary_vanishes(self, params):
        state = PolarState(0.05, 2.5)
        entry = focal.solve_entry(state, params)
        co = verify.costate_min_time(state, entry.s, focal.EntryCase.ONE, params)
        c = focal.tributary_heading(state, entry.s, focal.EntryCase.ONE, params)
        assert abs(verify.hamiltonian(state, co, c, params)) < 1e-10

    def test_min_time_universal_vanishes(self, params):
        state = PolarState(0.4, 0.5)
        co = verify.costate_min_time(state, 0.0, focal.EntryCase.ONE, params)
        c = universal.ul_tributary_heading(state, params)
        assert abs(verify.hamiltonian(state, co, c, params)) < 1e-12

    def test_lady_heading_is_minimizer(self, params):
        # Rotating the equilibrium heading never lowers the Hamiltonian.
        state = PolarState(0.05, 2.5)
        entry = focal.solve_entry(state, params)
        co = verify.costate_min_time(state, entry.s, focal.EntryCase.ONE, params)
        c = focal.tributary_heading(state, entry.s, focal.EntryCase.ONE, params)
        h0 = verify.hamiltonian(state, co, c, params)
        psi0 = math.atan2(c.sin_psi, c.cos_psi)
        rng = np.random.default_rng(3)
        from ladylake.model import ControlPair

        for d in rng.uniform(-math.pi, math.pi, 100):
            cc = ControlPair(math.cos(psi0 + d), math.sin(psi0 + d), c.omega)
            assert verify.hamiltonian(state, co, cc, params) >= h0 - 1e-12

    def test_running_cost_follows_tag(self, params):
        # The min-time tag adds the unit running cost; the classical tag none.
        state = PolarState(0.5, 2.5)
        c = classical.classical_heading(state, params)
        assert [tag.name for tag in verify.GameTag] == ["CLASSICAL", "MIN_TIME"]
        for co in (
            verify.costate_classical(state, params),
            verify.costate_min_time(state, 0.0, focal.EntryCase.ONE, params),
        ):
            h = [
                verify.hamiltonian(state, replace(co, game_tag=tag), c, params)
                for tag in (verify.GameTag.CLASSICAL, verify.GameTag.MIN_TIME)
            ]
            assert h[1] - h[0] == pytest.approx(1.0, abs=1e-15)


class TestMinTimeValue:
    def test_branches_agree_with_advise(self, params):
        for r, theta in ((0.15, 0.3), (0.05, 2.5), (0.15, math.pi)):
            v = verify.min_time_value(r, theta, params)
            adv = solution.advise(PolarState(r, theta), params, omega_now=1.0)
            assert v == pytest.approx(adv.value, abs=1e-9)

    def test_gradient_matches_costate(self, params):
        # d(value)/d(theta) equals the terminal multiplier nu.
        r, theta = 0.05, 2.5
        entry = focal.solve_entry(PolarState(r, theta), params)
        co = verify.costate_min_time(
            PolarState(r, theta), entry.s, focal.EntryCase.ONE, params
        )
        h = 1e-6
        fd = (
            verify.min_time_value(r, theta + h, params)
            - verify.min_time_value(r, theta - h, params)
        ) / (2 * h)
        assert abs(fd - co.nu) / abs(co.nu) < 1e-3


def _band_filter_count(params, n_r, n_theta, h=1e-5):
    """Cells kept by a band of 2h(1 + 1/mu) around the shore, the barrier,
    both singular lines and the partition theta = r/mu."""
    mu = params.mu
    band = 2.0 * h * (1.0 + 1.0 / mu)
    kept = 0
    for i in range(1, n_r + 1):
        r = i / (n_r + 1)
        if r < band or r > 1.0 - band:
            continue
        for j in range(1, n_theta + 1):
            theta = math.pi * j / (n_theta + 1)
            if theta < band or theta > math.pi - band or abs(theta - r / mu) < band:
                continue
            if r >= mu - band:
                if r + h > 1.0:
                    continue
                try:
                    if theta > classical.barrier_theta(max(r - h, mu), params) - band:
                        continue
                except DomainError:
                    continue
            kept += 1
    return kept


class TestHjiSweep:
    def test_residual_below_threshold(self, params):
        report = verify.hji_sweep(params, n_r=30, n_theta=30)
        assert report.n_samples > 300
        assert report.max_abs_residual < 1e-3

    def test_universal_subgrid_nearly_exact(self, params):
        # On the linear branch the FD gradient is exact to rounding.
        report = verify.hji_sweep(params, n_r=12, n_theta=12, h=1e-6)
        assert report.max_abs_residual < 1e-3

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            verify.hji_sweep(params, n_r=1)

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.6, 0.9])
    def test_keeps_the_band_filter_cells(self, mu, monkeypatch):
        # Stubbed solves make the count cheap: the cells whose stencil lies in
        # one tributary region are the cells the band filter keeps.
        monkeypatch.setattr(verify, "min_time_value", lambda r, theta, p: r + theta)
        p = GameParams(mu)
        for n in (9, 10, 11, 50):
            assert verify.hji_sweep(p, n, n).n_samples == _band_filter_count(p, n, n)

    def test_four_solves_per_focal_cell(self, params, monkeypatch):
        # The Isaacs form needs only the four stencil values: no advise call,
        # so no fifth solve at the cell's centre.
        monkeypatch.setattr(verify, "min_time_value", lambda r, theta, p: 0.0)
        cells = [(r, theta) for r, theta, _, _ in verify._fd_cells(params, 8, 8, 1e-5)]
        focal_cells = sum(solution.region_of(r, theta, params) is solution.Region.FOCAL_TRIBUTARY
                          for r, theta in cells)
        monkeypatch.undo()
        calls, solve = [], focal.solve_entry
        monkeypatch.setattr(focal, "solve_entry", lambda *a: calls.append(a) or solve(*a))
        report = verify.hji_sweep(params, 8, 8)
        assert report.n_samples == len(cells) > focal_cells > 0
        assert len(calls) == 4 * focal_cells

    # The worst distance of advise's heading from the FD argmin on these grids,
    # 6.71e-7 at mu = 0.9 (2.13e-7 at mu = 0.3), both at focal tributaries.
    HEADING_GAP = 7e-7

    @pytest.mark.parametrize("mu", [0.3, 0.9])
    def test_advise_plays_the_saddle(self, mu):
        # The controls that isaacs_residual optimises in closed form are
        # advise's: M's rate is sign(-lambda_theta), and L's heading is
        # -(lambda_r, lambda_theta/r)/|.|, both from the sweep's FD gradient.
        # On a universal tributary the value does not depend on theta, so
        # lambda_theta is 0 and advise flags M's rate as arbitrary.
        p = GameParams(mu)
        n = 0
        for r, theta, lam_r, lam_t in verify._fd_cells(p, 12, 12, 1e-5):
            c = solution.advise(PolarState(r, theta), p, omega_now=1.0).controls
            if c.omega_arbitrary:
                assert lam_t == 0.0
            else:
                assert c.omega == -math.copysign(1.0, lam_t)
            g = math.hypot(lam_r, lam_t / r)
            assert math.hypot(c.cos_psi + lam_r / g, c.sin_psi + lam_t / (r * g)) <= self.HEADING_GAP
            n += 1
        assert n > 100


class TestIsaacsResidual:
    @staticmethod
    def draws(seed, n=200):
        rng = random.Random(seed)
        for _ in range(n):
            yield (GameParams(rng.uniform(0.01, 0.99)), rng.uniform(1e-3, 1.0),
                   rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))

    @staticmethod
    def h(p, r, lam_r, lam_t, cos_psi, sin_psi, omega):
        co = verify.Costate(lam_r, lam_t, lam_t, verify.GameTag.MIN_TIME)
        return verify.hamiltonian(PolarState(r, 1.0), co, ControlPair(cos_psi, sin_psi, omega), p)

    @staticmethod
    def saddle(r, lam_r, lam_t):
        """L's argmin heading and M's argmax rate."""
        g = math.hypot(lam_r, lam_t / r)
        return -lam_r / g, -lam_t / (r * g), -math.copysign(1.0, lam_t)

    def test_is_the_hamiltonian_at_the_saddle(self):
        for p, r, lam_r, lam_t in self.draws(1):
            res = verify.isaacs_residual(r, lam_r, lam_t, p)
            at = self.h(p, r, lam_r, lam_t, *self.saddle(r, lam_r, lam_t))
            scale = 1.0 + abs(lam_t) + p.mu * math.hypot(lam_r, lam_t / r)
            assert res == pytest.approx(at, abs=8 * sys.float_info.epsilon * scale)

    def test_saddle_property(self):
        # H(psi*, omega) <= residual <= H(psi, omega*) for any heading psi and
        # rate omega: no side gains by leaving the saddle alone.
        rng = random.Random(2)
        for p, r, lam_r, lam_t in self.draws(3):
            res = verify.isaacs_residual(r, lam_r, lam_t, p)
            c, s, w = self.saddle(r, lam_r, lam_t)
            tol = 8 * sys.float_info.epsilon * (1.0 + abs(lam_t) + p.mu * math.hypot(lam_r, lam_t / r))
            for _ in range(20):
                psi, omega = rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0)
                assert self.h(p, r, lam_r, lam_t, c, s, omega) <= res + tol
                assert self.h(p, r, lam_r, lam_t, math.cos(psi), math.sin(psi), w) >= res - tol

    @pytest.mark.parametrize("seed", [1, 2])
    def test_vanishes_on_the_closed_form_costate(self, seed):
        # The bound, set before measuring, is rounding: a few ulps of the
        # residual's largest term.
        rng = random.Random(seed)
        kinds = {solution.Region.FOCAL_TRIBUTARY: 0, solution.Region.UNIVERSAL_TRIBUTARY: 0}
        while min(kinds.values()) < 100:
            p = GameParams(rng.uniform(0.05, 0.95))
            r, theta = rng.uniform(p.eps_r, 1.0), rng.uniform(0.0, math.pi)
            region = solution.region_of(r, theta, p)
            if region not in kinds:
                continue
            kinds[region] += 1
            if region is solution.Region.FOCAL_TRIBUTARY:
                s, case = focal.entry_root(r, theta, p)
            else:
                s, case = 0.0, focal.EntryCase.ONE
            co = verify.costate_min_time(PolarState(r, theta), s, case, p)
            scale = 1.0 + abs(co.lambda_theta) + p.mu * math.hypot(co.lambda_r, co.lambda_theta / r)
            res = verify.isaacs_residual(r, co.lambda_r, co.lambda_theta, p)
            assert abs(res) <= 4 * sys.float_info.epsilon * scale, (p.mu, r, theta)


class TestBarrierSweep:
    @pytest.mark.parametrize("mu", [0.25, 0.3, 0.5])
    def test_semipermeable_everywhere(self, mu):
        assert verify.barrier_sweep(GameParams(mu), n=1000) < 1e-10

    def test_n_validation(self, params):
        with pytest.raises(ValueError):
            verify.barrier_sweep(params, n=1)


class TestTrajectoryHamiltonians:
    def _run(self, state, params):
        return sim.simulate(
            state,
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-4,
            t_max=20.0,
            params=params,
        )

    def test_focal_tributary_run(self, params):
        traj = self._run(PolarState(0.05, 2.5), params)
        samples = verify.trajectory_hamiltonians(traj, params)
        assert samples
        assert max(abs(hv) for _, hv in samples) < 1e-6

    def test_classical_run(self, params):
        traj = self._run(PolarState(0.5, 2.8), params)
        samples = verify.trajectory_hamiltonians(traj, params)
        assert max(abs(hv) for _, hv in samples) < 1e-6

    def test_universal_run(self, params):
        traj = self._run(PolarState(0.15, 0.3), params)
        samples = verify.trajectory_hamiltonians(traj, params)
        assert max(abs(hv) for _, hv in samples) < 1e-6

    def test_focal_line_sample_next_to_e(self, params):
        # Criterion 10's run: the sample 8e-4 before E read 3.5e-10, the
        # rounding of the recorded cos_psi = sqrt(1 - sin_psi^2) there times
        # a costate of order 1/(mu - r).  Such samples are left out; the
        # samples kept on the line come within 0.03 of E and read 1e-12 or less.
        traj = self._run(PolarState(0.15, 0.3), params)
        samples = verify.trajectory_hamiltonians(traj, params)
        assert all(abs(t - (traj.t_final - 8e-4)) > 1e-6 for t, _ in samples)
        assert traj.t_final - samples[-1][0] < 0.03
        assert max(abs(hv) for _, hv in samples) <= 1e-12

    def test_arrival_record_at_e_is_skipped(self, params):
        # The record at E (r = mu) has no focal-line costate; keeping only the
        # first and last records puts it on the 0.01 sampling grid.
        traj = sim.simulate(
            PolarState(0.15, math.pi),
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-3,
            params=params,
        )
        assert traj.outcome == "reached_e" and traj.r[-1] == MU
        for name in ("t", "r", "theta", "man_angle", "mirror", "cos_psi", "sin_psi", "omega"):
            values = getattr(traj, name)
            setattr(traj, name, [values[0], values[-1]])
        samples = verify.trajectory_hamiltonians(traj, params)
        assert [t for t, _ in samples] == [0.0]
        assert abs(samples[0][1]) < 1e-12

    @pytest.mark.parametrize("r0, theta0", [(0.0, math.pi), (0.0, 1.0), (1e-10, 2.0)])
    def test_run_from_the_centre(self, params, r0, theta0):
        # Records within eps_r of the centre, where theta is undefined, are
        # skipped; the rest of the run is an equilibrium path.
        traj = sim.simulate(
            PolarState(r0, theta0),
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-3,
            params=params,
        )
        samples = verify.trajectory_hamiltonians(traj, params)
        assert samples
        assert max(abs(hv) for _, hv in samples) < 1e-6
