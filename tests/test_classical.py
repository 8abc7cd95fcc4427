import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ladylake import classical
from ladylake.model import DomainError, GameParams, PolarState, RegionError

MU = 0.3
# Five printed digits from the game literature, used only as a cross-check.
CRITICAL_MU_REFERENCE = 0.21723


@pytest.fixture
def params():
    return GameParams(MU)


class TestHeading:
    def test_at_antipodal_radius(self, params):
        c = classical.classical_heading(PolarState(MU, math.pi), params)
        assert c.cos_psi == pytest.approx(0.0, abs=1e-12)
        assert c.sin_psi == 1.0
        assert c.omega == 1.0

    def test_at_shore(self, params):
        c = classical.classical_heading(PolarState(1.0, 2.0), params)
        assert c.sin_psi == pytest.approx(0.3)
        assert c.cos_psi == pytest.approx(math.sqrt(0.91))
        assert c.cos_psi**2 + c.sin_psi**2 == pytest.approx(1.0, abs=1e-15)

    def test_undefined_below_mu(self, params):
        with pytest.raises(RegionError):
            classical.classical_heading(PolarState(0.2, 1.0), params)


class TestValue:
    def test_shore_identity(self, params):
        # At r = 1 the non-theta terms cancel and the value is theta itself.
        for theta in (0.5, 1.7, 3.0):
            v = classical.classical_value(PolarState(1.0, theta), params)
            assert v == pytest.approx(theta, abs=1e-12)

    def test_antipodal_gives_escape_angle(self, params):
        v = classical.classical_value(PolarState(MU, math.pi), params)
        assert v == pytest.approx(classical.escape_angle(params), abs=1e-12)

    def test_constant_along_barrier(self, params):
        # Every barrier state maps to the guaranteed escape angle.
        target = classical.escape_angle(params)
        for r in (0.35, 0.6, 0.85, 1.0):
            theta = classical.barrier_theta(r, params)
            v = classical.classical_value(PolarState(r, theta), params)
            assert v == pytest.approx(target, abs=1e-12)

    def test_undefined_below_mu(self, params):
        with pytest.raises(RegionError):
            classical.classical_value(PolarState(0.1, 1.0), params)


class TestEscapeAngle:
    def test_value_at_reference_mu(self, params):
        assert classical.escape_angle(params) == pytest.approx(1.2279, abs=1e-4)

    def test_zero_at_critical(self):
        mu_c = classical.critical_mu()
        assert classical.escape_angle(GameParams(mu_c)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_sign_either_side_of_critical(self):
        # The escape angle is non-positive below the critical mu, where the
        # min-time game is still defined.
        assert classical.escape_angle(GameParams(0.2)) <= 0.0
        assert not classical.escape_angle(GameParams(0.3)) <= 0.0

    def test_limit_fast_swimmer(self):
        assert classical.escape_angle(GameParams(1.0 - 1e-12)) == pytest.approx(
            math.pi, abs=1e-5
        )


class TestCriticalMu:
    def test_reference_digits(self):
        assert classical.critical_mu() == pytest.approx(
            CRITICAL_MU_REFERENCE, abs=1e-5
        )

    def test_forty_digits(self):
        # The root of pi - sqrt(1/mu^2 - 1) + acos(mu) to 40 digits (mpmath at 50),
        # compared exactly: the double nearest it is 5.8e-18 away.
        exact = Fraction("0.2172336282112216574082793255624707342230")
        assert abs(Fraction(classical.critical_mu()) - exact) <= Fraction(1, 10**16)

    def test_deterministic(self):
        assert classical.critical_mu() == classical.critical_mu()


class TestBarrier:
    def test_endpoints(self, params):
        assert classical.barrier_theta(MU, params) == pytest.approx(math.pi)
        assert classical.barrier_theta(1.0, params) == pytest.approx(
            classical.escape_angle(params), abs=1e-12
        )

    def test_closed_form_at_0_6(self, params):
        # sqrt((0.36/0.09) - 1) = sqrt(3) exactly; acos(0.3/0.6) = pi/3.
        expected = math.pi - math.sqrt(3.0) + math.acos(0.5)
        assert classical.barrier_theta(0.6, params) == pytest.approx(
            expected, abs=1e-14
        )

    def test_domain(self, params):
        with pytest.raises(DomainError):
            classical.barrier_theta(0.1, params)
        with pytest.raises(DomainError):
            classical.barrier_theta(1.1, params)

    def test_strictly_decreasing(self, params):
        n = 1000
        values = [
            classical.barrier_theta(MU + (1.0 - MU) * k / n, params)
            for k in range(n + 1)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_slope_matches_finite_difference(self, params):
        h = 1e-6
        for r in (0.4, 0.6, 0.9):
            fd = (
                classical.barrier_theta(r + h, params)
                - classical.barrier_theta(r - h, params)
            ) / (2 * h)
            assert classical.barrier_slope(r, params) == pytest.approx(fd, abs=1e-8)


class TestSemipermeability:
    @pytest.mark.parametrize("r", [0.5, 0.75, 1.0])
    def test_residual_vanishes_on_barrier(self, params, r):
        assert abs(classical.barrier_residual(r, params)) < 1e-10

    def test_shifted_curve_also_semipermeable(self, params):
        # Adding a constant to the curve leaves the slope, hence the
        # residual, unchanged.
        for r in (0.4, 0.8):
            slope = classical.barrier_slope(r, params)
            res = classical.semipermeability_residual(slope, r, params)
            assert abs(res) < 1e-10

    def test_non_barrier_slope_has_residual(self, params):
        res = classical.semipermeability_residual(-2.0, 0.5, params)
        assert abs(res) > 1e-3

    def test_domain(self, params):
        with pytest.raises(DomainError):
            classical.barrier_residual(MU, params)

    def test_near_mu_endpoint_finite(self, params):
        res = classical.barrier_residual(MU + 1e-9, params)
        assert math.isfinite(res)


class TestClassify:
    def test_above(self, params):
        b = classical.barrier_theta(0.6, params)
        side = classical.barrier_side(0.6, min(b + 0.2, math.pi), params)
        assert side is classical.BarrierSide.ABOVE

    def test_on(self, params):
        b = classical.barrier_theta(0.6, params)
        assert classical.barrier_side(0.6, b, params) is classical.BarrierSide.ON

    def test_below_small_r(self, params):
        assert classical.barrier_side(0.15, 2.0, params) is classical.BarrierSide.BELOW

    @given(r=st.floats(0.31, 1.0), offset=st.floats(1e-6, 0.5))
    def test_above_below_consistency(self, r, offset):
        params = GameParams(MU)
        b = classical.barrier_theta(r, params)
        if b + offset <= math.pi:
            side = classical.barrier_side(r, b + offset, params)
            assert side is classical.BarrierSide.ABOVE
        if b - offset >= 0.0:
            side = classical.barrier_side(r, b - offset, params)
            assert side is classical.BarrierSide.BELOW
