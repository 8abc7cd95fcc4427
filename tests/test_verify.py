import math

import numpy as np
import pytest

from ladylake import classical, focal, sim, solution, universal, verify
from ladylake.model import DomainError, GameParams, PolarState

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
        # The tributary costate tends to the on-line form as s -> r.
        r = 0.15
        near = verify.costate_focal(
            PolarState(r, math.pi), r - 1e-9, focal.Phase.POST_TANGENT, params
        )
        on = verify.costate_on_focal_line(r, params)
        assert near.lambda_r == pytest.approx(on.lambda_r, abs=1e-5)
        assert near.nu == pytest.approx(on.nu, abs=1e-6)

    def test_focal_phase_sign(self, params):
        s = 0.15
        pre = verify.costate_focal(
            PolarState(0.5, 2.0), s, focal.Phase.PRE_TANGENT, params
        )
        post = verify.costate_focal(
            PolarState(0.5, 2.0), s, focal.Phase.POST_TANGENT, params
        )
        assert pre.lambda_r > 0.0 > post.lambda_r
        assert pre.lambda_r == -post.lambda_r

    def test_universal(self, params):
        co = verify.costate_universal(params)
        assert (co.lambda_r, co.lambda_theta, co.nu) == (1.0 / MU, 0.0, 0.0)


class TestHamiltonians:
    def test_classical_equilibrium_vanishes(self, params):
        state = PolarState(0.5, 2.5)
        co = verify.costate_classical(state, params)
        c = classical.classical_heading(state, params)
        assert abs(verify.hamiltonian_classical(state, co, c, params)) < 1e-10

    def test_classical_man_deviation_raises_h(self, params):
        # The maximizing man at omega < 1 leaves a positive residual.
        state = PolarState(0.5, 2.5)
        co = verify.costate_classical(state, params)
        c = classical.classical_heading(state, params)
        from ladylake.model import ControlPair

        slow = ControlPair(c.cos_psi, c.sin_psi, 0.5)
        assert verify.hamiltonian_classical(state, co, slow, params) > 0.1

    def test_min_time_tributary_vanishes(self, params):
        state = PolarState(0.05, 2.5)
        entry = focal.solve_entry(state, params)
        co = verify.costate_focal(state, entry.s, focal.Phase.PRE_TANGENT, params)
        c = focal.tributary_heading(state, entry.s, focal.Phase.PRE_TANGENT, params)
        assert abs(verify.hamiltonian_min_time(state, co, c, params)) < 1e-10

    def test_min_time_universal_vanishes(self, params):
        state = PolarState(0.4, 0.5)
        co = verify.costate_universal(params)
        c = universal.ul_tributary_heading(state, params)
        assert abs(verify.hamiltonian_min_time(state, co, c, params)) < 1e-12

    def test_lady_heading_is_minimizer(self, params):
        # Rotating the equilibrium heading never lowers the Hamiltonian.
        state = PolarState(0.05, 2.5)
        entry = focal.solve_entry(state, params)
        co = verify.costate_focal(state, entry.s, focal.Phase.PRE_TANGENT, params)
        c = focal.tributary_heading(state, entry.s, focal.Phase.PRE_TANGENT, params)
        h0 = verify.hamiltonian_min_time(state, co, c, params)
        psi0 = math.atan2(c.sin_psi, c.cos_psi)
        rng = np.random.default_rng(3)
        from ladylake.model import ControlPair

        for d in rng.uniform(-math.pi, math.pi, 100):
            cc = ControlPair(math.cos(psi0 + d), math.sin(psi0 + d), c.omega)
            assert verify.hamiltonian_min_time(state, co, cc, params) >= h0 - 1e-12

    def test_tag_mismatch_rejected(self, params):
        state = PolarState(0.5, 2.5)
        co = verify.costate_universal(params)
        c = classical.classical_heading(state, params)
        with pytest.raises(DomainError):
            verify.hamiltonian_classical(state, co, c, params)
        with pytest.raises(DomainError):
            verify.hamiltonian_min_time(
                state, verify.costate_classical(state, params), c, params
            )


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
        co = verify.costate_focal(
            PolarState(r, theta), entry.s, focal.Phase.PRE_TANGENT, params
        )
        h = 1e-6
        fd = (
            verify.min_time_value(r, theta + h, params)
            - verify.min_time_value(r, theta - h, params)
        ) / (2 * h)
        assert abs(fd - co.nu) / abs(co.nu) < 1e-3


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
