import math

import pytest
from hypothesis import given, strategies as st

from ladylake import solution
from ladylake.model import (
    CartesianPose,
    ControlPair,
    DomainError,
    GameParams,
    PolarState,
    canonicalize,
    from_cartesian,
    reflect_controls,
    state_derivative,
    to_cartesian,
)


@pytest.fixture
def params():
    return GameParams(0.3)


class TestGameParams:
    def test_mu_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                GameParams(bad)

    def test_below_critical_flag(self):
        assert GameParams(0.2).below_critical
        assert not GameParams(0.3).below_critical

    def test_mu_is_the_only_setting(self):
        # The tolerances are one table of class constants, not arguments.
        with pytest.raises(TypeError):
            GameParams(0.3, eps_r=1e-9)
        p = GameParams(0.3)
        assert (p.eps_r, p.tol_root, p.tol_event) == (1e-9, 1e-12, 1e-9)
        assert solution.E_SNAP == 1e-6


class TestPolarState:
    def test_bounds(self):
        with pytest.raises(DomainError):
            PolarState(-0.1, 1.0)
        with pytest.raises(DomainError):
            PolarState(1.5, 1.0)
        with pytest.raises(DomainError):
            PolarState(0.5, 3.5)

    def test_boundary_clamp(self):
        assert PolarState(0.5, math.pi + 1e-13).theta == math.pi


class TestControlPair:
    def test_unit_norm_enforced(self):
        with pytest.raises(DomainError):
            ControlPair(0.8, 0.7, 1.0)
        with pytest.raises(DomainError):
            ControlPair(1.0, 0.0, 1.5)


class TestStateDerivative:
    def test_pure_radial(self, params):
        dr, dth = state_derivative(
            PolarState(0.5, 1.0), ControlPair(1.0, 0.0, 0.0), params
        )
        assert dr == pytest.approx(0.3, abs=1e-15)
        assert dth == 0.0

    def test_angular_standoff_at_mu(self, params):
        # At r = mu, L's max angular rate exactly matches M's.
        dr, dth = state_derivative(
            PolarState(0.3, 1.0), ControlPair(0.0, 1.0, 1.0), params
        )
        assert dr == 0.0
        assert abs(dth) < 1e-15

    def test_fl_control_consistency(self, params):
        # sin psi = r/mu holds theta fixed on the focal line.
        dr, dth = state_derivative(
            PolarState(0.15, math.pi),
            ControlPair(math.sqrt(3) / 2, 0.5, 1.0),
            params,
        )
        assert dr == pytest.approx(0.3 * math.sqrt(3) / 2, rel=1e-12)
        assert abs(dth) < 1e-15

    def test_singular_radius_rejected(self, params):
        with pytest.raises(DomainError):
            state_derivative(
                PolarState(1e-12, 1.0), ControlPair(0.0, 1.0, 0.0), params
            )

    @given(
        r=st.floats(0.01, 1.0),
        theta=st.floats(0.0, math.pi),
        psi=st.floats(-math.pi, math.pi),
        omega=st.floats(-1.0, 1.0),
    )
    def test_oddness(self, r, theta, psi, omega):
        # Negating (sin psi, omega) mirrors the angular rate exactly.
        params = GameParams(0.3)
        c, s = math.cos(psi), math.sin(psi)
        dr1, dth1 = state_derivative(
            PolarState(r, theta), ControlPair(c, s, omega), params
        )
        dr2, dth2 = state_derivative(
            PolarState(r, theta), ControlPair(c, -s, -omega), params
        )
        assert dr1 == dr2
        assert dth1 == -dth2


class TestCanonicalize:
    def test_negative_theta(self):
        state, reflected = canonicalize(0.5, -1.2)
        assert reflected
        assert state.theta == pytest.approx(1.2)

    def test_positive_theta(self):
        state, reflected = canonicalize(0.5, 1.2)
        assert not reflected
        assert state.theta == 1.2

    def test_zero(self):
        state, reflected = canonicalize(0.5, 0.0)
        assert not reflected
        assert state.theta == 0.0

    def test_reflection_involution(self):
        a, _ = canonicalize(0.4, -2.0)
        b, _ = canonicalize(0.4, 2.0)
        assert a == b


class TestReflectControls:
    def test_identity(self):
        c = ControlPair(0.8, 0.6, 1.0)
        assert reflect_controls(c, False) == c

    def test_mirror(self):
        c = reflect_controls(ControlPair(0.8, 0.6, 1.0), True)
        assert (c.cos_psi, c.sin_psi, c.omega) == (0.8, -0.6, -1.0)

    def test_symmetric_fixed_point(self):
        c = reflect_controls(ControlPair(1.0, 0.0, 0.0), True)
        assert (c.cos_psi, c.sin_psi, c.omega) == (1.0, 0.0, 0.0)


class TestCartesian:
    def test_coincident_at_shore(self):
        pose = to_cartesian(PolarState(1.0, 0.0), 0.0)
        assert pose.x_L == pytest.approx(1.0)
        assert pose.y_L == pytest.approx(0.0)
        assert (pose.x_M, pose.y_M) == (1.0, 0.0)

    def test_antipodal_point(self):
        pose = to_cartesian(PolarState(0.3, math.pi), 0.0)
        assert pose.x_L == pytest.approx(-0.3, abs=1e-15)
        assert abs(pose.y_L) < 1e-15

    def test_quarter_turn(self):
        pose = to_cartesian(PolarState(0.5, math.pi / 2), math.pi / 2)
        assert pose.x_L == pytest.approx(-0.5, abs=1e-12)
        assert abs(pose.y_L) < 1e-12
        assert pose.x_M == pytest.approx(0.0, abs=1e-12)
        assert pose.y_M == pytest.approx(1.0)

    @given(
        r=st.floats(0.01, 1.0),
        theta=st.floats(0.0, math.pi),
        alpha=st.floats(-math.pi, math.pi),
    )
    def test_round_trip(self, r, theta, alpha):
        pose = to_cartesian(PolarState(r, theta), alpha)
        state, man_angle, _ = from_cartesian(pose)
        assert state.r == pytest.approx(r, abs=1e-12)
        assert state.theta == pytest.approx(theta, abs=1e-12)
        back = to_cartesian(state, man_angle)
        assert back.x_L == pytest.approx(pose.x_L, abs=1e-12)
        assert back.y_L == pytest.approx(pose.y_L, abs=1e-12)

    def test_pose_invariants(self):
        with pytest.raises(DomainError):
            CartesianPose(1.5, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            CartesianPose(0.0, 0.0, 0.5, 0.5)
