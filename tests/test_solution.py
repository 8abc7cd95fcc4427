import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ladylake import classical, focal, solution
from ladylake.model import GameParams, PolarState, RegionError
from ladylake.solution import Region, ValueKind, advise, classify

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
            (MU, 3.14159265, Region.FOCAL_TRIBUTARY),
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


E_MUS = (0.1, 0.3, 0.6, 0.9)


class TestAtE:
    """E = (mu, pi) is one point, within slack.  Next to it the value falls
    continuously to 0, like 3.27 delta^(1/3) at distance delta."""

    @pytest.mark.parametrize("mu", E_MUS)
    def test_e_is_a_point(self, mu):
        params = GameParams(mu)
        assert solution.region_of(mu, math.pi, params) is Region.ANTIPODAL_POINT
        assert solution.region_of(mu - 1e-11, math.pi, params) is Region.FOCAL_LINE
        assert solution.region_of(mu - 1e-11, math.pi - 1e-11, params) is Region.FOCAL_LINE
        # The classical game starts at E, so r >= mu next to it is on the barrier.
        assert solution.region_of(mu, math.pi - 1e-11, params) is Region.ON_BARRIER
        assert solution.region_of(mu + 1e-11, math.pi, params) is Region.ON_BARRIER

    @pytest.mark.parametrize("mu", E_MUS)
    @pytest.mark.parametrize(
        "dr,last", [(1.0, 12), (0.0, 8)], ids=["diagonal", "along_r_eq_mu"]
    )
    def test_value_falls_monotonically_to_zero(self, mu, dr, last):
        # Along (mu, pi - delta) the path meets the barrier's tol_event band
        # below delta = 1e-9, where advise answers OnBarrier.
        params = GameParams(mu)
        values = []
        for k in range(3, last + 1):
            d = 10.0**-k
            adv = advise(PolarState(mu - dr * d, math.pi - d), params, omega_now=1.0)
            assert adv.value_kind is ValueKind.TIME_TO_E
            assert 0.0 < adv.value <= 4.0 * d ** (1 / 3), d
            values.append(adv.value)
        assert all(a > b for a, b in zip(values, values[1:])), values

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.sampled_from(E_MUS),
        x=st.tuples(st.floats(-1e-4, 1e-4), st.floats(0.0, 1e-4)),
        y=st.tuples(st.floats(-1e-4, 1e-4), st.floats(0.0, 1e-4)),
    )
    def test_hoelder_one_third_near_e(self, mu, x, y):
        # The floor tol_event covers the step at the edge of the focal
        # line's band next to E, 3.3 tol_event^(1/3).
        params = GameParams(mu)
        vx, vy = (
            advise(PolarState(mu + dr, math.pi - dth), params, omega_now=1.0)
            for dr, dth in (x, y)
        )
        assume(vx.value_kind is vy.value_kind is ValueKind.TIME_TO_E)
        dist = math.hypot(x[0] - y[0], x[1] - y[1])
        assert abs(vx.value - vy.value) <= 4.0 * (dist + params.tol_event) ** (1 / 3)

    @pytest.mark.parametrize("mu", E_MUS)
    def test_no_raise_near_e(self, mu):
        # Distances log-uniform down to 1e-12: within about 1e-7 of E the
        # arrival-time mismatch is below the rounding of acos near 1.
        params = GameParams(mu)
        rng = random.Random(11)
        for _ in range(4000):
            d, phi = 10.0 ** rng.uniform(-12.0, -3.0), rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            r, theta = mu + d * math.sin(phi), math.pi - d * math.cos(phi)
            adv = advise(PolarState(r, theta), params, omega_now=1.0)
            assert math.isfinite(adv.value)
            if adv.region is Region.FOCAL_TRIBUTARY:
                assert focal.entry_root(r, theta, params)[0] == pytest.approx(adv.entry.s, abs=1e-9)


class TestValueGrid:
    def test_smoke(self, params):
        # advise answers on a uniform 10 x 10 grid over (eps_r, 1] x [0, pi].
        eps_r = params.eps_r
        states = [PolarState(eps_r + (1.0 - eps_r) * (i + 1) / 10, math.pi * j / 9)
                  for i in range(10) for j in range(10)]
        advice = [advise(state, params, omega_now=1.0) for state in states]
        assert len(advice) == 100

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
