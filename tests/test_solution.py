import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ladylake import classical, focal, solution
from ladylake.model import GameParams, PolarState, RegionError
from ladylake.solution import Region, ValueKind, advise, classify, value_grid

MU = 0.3
# Speed ratios over the whole range, plus a dense band around the
# critical ratio where the escape angle changes sign.
MU_SWEEP = st.one_of(
    st.floats(0.01, 0.99),
    st.floats(classical.critical_mu() - 1e-3, classical.critical_mu() + 1e-3),
)


@pytest.fixture
def params():
    return GameParams(MU)


class TestClassify:
    @pytest.mark.parametrize(
        "r,theta,region",
        [
            (1.0, 2.0, Region.SHORE),
            (MU, math.pi, Region.ANTIPODAL_POINT),
            (MU, 3.14159265, Region.ANTIPODAL_POINT),
            (0.15, math.pi, Region.FOCAL_LINE),
            (0.5, 0.0, Region.UNIVERSAL_LINE),
            (0.15, 0.3, Region.UNIVERSAL_TRIBUTARY),
            (0.05, 2.5, Region.FOCAL_TRIBUTARY),
            (0.5, 3.0, Region.ABOVE_BARRIER),
        ],
    )
    def test_examples(self, params, r, theta, region):
        assert classify(PolarState(r, theta), params) is region

    def test_on_barrier(self, params):
        b = classical.barrier_theta(0.6, params)
        assert classify(PolarState(0.6, b), params) is Region.ON_BARRIER

    def test_below_barrier_above_mu_is_tributary(self, params):
        b = classical.barrier_theta(0.6, params)
        assert classify(PolarState(0.6, b - 0.1), params) is Region.FOCAL_TRIBUTARY

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(1e-6, 1.0), theta=st.floats(0.0, math.pi))
    def test_total_and_single_valued(self, r, theta):
        params = GameParams(MU)
        region = classify(PolarState(r, theta), params)
        assert isinstance(region, Region)


class TestAdvise:
    def test_shore_reports_terminal_angle(self, params):
        adv = advise(PolarState(1.0, 2.0), params)
        assert adv.region is Region.SHORE
        assert adv.value == pytest.approx(2.0)
        assert adv.value_kind is ValueKind.TERMINAL_ANGLE

    def test_antipodal_point(self, params):
        adv = advise(PolarState(MU, math.pi), params)
        assert adv.value == 0.0
        assert adv.controls.sin_psi == 1.0

    def test_classical_region(self, params):
        adv = advise(PolarState(0.5, 3.0), params)
        assert adv.value_kind is ValueKind.TERMINAL_ANGLE
        assert adv.value == pytest.approx(
            classical.classical_value(PolarState(0.5, 3.0), params)
        )

    def test_focal_line_needs_omega(self, params):
        with pytest.raises(RegionError):
            advise(PolarState(0.15, math.pi), params)
        adv = advise(PolarState(0.15, math.pi), params, omega_now=1.0)
        assert adv.value == pytest.approx(math.pi / 3)
        assert adv.value == focal.time_on_focal_line(0.15, params)

    def test_universal_tributary(self, params):
        adv = advise(PolarState(0.15, 0.3), params)
        assert adv.region is Region.UNIVERSAL_TRIBUTARY
        assert adv.value == pytest.approx(math.pi / 2 + 0.5)
        assert adv.controls.omega_arbitrary

    def test_focal_tributary_carries_entry(self, params):
        adv = advise(PolarState(0.05, 2.5), params)
        assert adv.region is Region.FOCAL_TRIBUTARY
        assert adv.entry is not None
        assert adv.entry.s == pytest.approx(0.12159414598912888, abs=1e-9)
        assert adv.value == pytest.approx(1.4958944900512612, abs=1e-9)

    def test_controls_unit_norm(self, params):
        for r, theta in ((0.5, 3.0), (0.05, 2.5), (0.15, 0.3), (0.9, 1.0)):
            adv = advise(PolarState(r, theta), params, omega_now=1.0)
            norm = adv.controls.cos_psi**2 + adv.controls.sin_psi**2
            assert norm == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.01, 0.999), theta=st.floats(0.0, math.pi))
    def test_dispatch_totality(self, r, theta):
        # Every interior state gets advice without raising.
        params = GameParams(MU)
        adv = advise(PolarState(r, theta), params, omega_now=1.0)
        assert math.isfinite(adv.value)
        assert adv.value >= 0.0


class TestValueGrid:
    def test_smoke(self, params):
        cells = value_grid(params, 10, 10)
        assert len(cells) == 100
        assert all(c.error is None for c in cells)

    def test_grid_size_validation(self, params):
        with pytest.raises(ValueError):
            value_grid(params, 1, 10)

    def test_min_time_continuity_across_partition(self, params):
        # The two min-time value branches agree on theta = r/mu.
        for r in (0.1, 0.2, 0.29):
            theta = r / MU
            below = advise(PolarState(r, theta - 1e-6), params).value
            above = advise(PolarState(r, theta + 1e-6), params).value
            assert below == pytest.approx(above, abs=1e-4)


class TestFocalTributaryConsistency:
    def test_simulated_entry_matches_advice(self, params):
        # Following the advice from a tributary state enters the focal
        # line at the predicted radius and reaches E at the predicted time.
        from ladylake import sim

        state = PolarState(0.2, 1.0)
        adv = advise(state, params)
        traj = sim.simulate(
            state,
            sim.StrategySpec.equilibrium("lady"),
            sim.StrategySpec.equilibrium("man"),
            dt=1e-4,
            t_max=20.0,
            params=params,
        )
        assert traj.outcome == "reached_e"
        assert traj.t_final == pytest.approx(adv.value, abs=1e-3)
        entries = [t for t, kind in traj.events if kind == "fl_entry"]
        assert entries
        i = min(
            range(len(traj.t)), key=lambda k: abs(traj.t[k] - entries[0])
        )
        assert traj.r[i] == pytest.approx(adv.entry.s, abs=1e-4)


class TestOrigin:
    # theta means nothing at the centre: every direction is the focal line.
    @pytest.mark.parametrize("eps_fraction", [0.0, 0.5])
    @pytest.mark.parametrize("theta", [0.0, 1.0, math.pi])
    def test_centre_is_on_focal_line(self, params, eps_fraction, theta):
        r = eps_fraction * params.eps_r
        state = PolarState(r, theta)
        assert classify(state, params) is Region.FOCAL_LINE
        adv = advise(state, params, omega_now=1.0)
        assert adv.region is Region.FOCAL_LINE
        assert adv.value_kind is ValueKind.TIME_TO_E
        assert adv.value == pytest.approx(math.pi / 2, abs=1e-8)
        assert adv.controls == focal.fl_control(PolarState(r, math.pi), 1.0, params)


class TestMuSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        mu=MU_SWEEP,
        r=st.floats(0.0, 1.0, exclude_max=True),
        theta=st.floats(0.0, math.pi),
    )
    def test_advise_never_raises(self, mu, r, theta):
        adv = advise(PolarState(r, theta), GameParams(mu), omega_now=1.0)
        assert math.isfinite(adv.value)

    @settings(max_examples=150, deadline=None)
    @given(mu=MU_SWEEP, u=st.floats(0.0, 1.0))
    def test_value_continuous_across_partition(self, mu, u):
        params = GameParams(mu)
        h = 1e-7
        r = u * min(1.0, mu * math.pi)
        theta = r / mu
        assume(h < theta < math.pi - h)
        below = advise(PolarState(r, theta - h), params, omega_now=1.0)
        above = advise(PolarState(r, theta + h), params, omega_now=1.0)
        # Where the barrier cuts the partition the payoffs differ in kind.
        assume(below.value_kind is above.value_kind is ValueKind.TIME_TO_E)
        assert above.value == pytest.approx(below.value, abs=1e-6)
