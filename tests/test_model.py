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
    rates,
    to_cartesian,
)


class TestGameParams:
    def test_mu_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                GameParams(bad)

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
        with pytest.raises(DomainError):
            ControlPair(math.nan, 0.0, 1.0)
        with pytest.raises(DomainError):
            ControlPair(1.0, 0.0, math.nan)


class TestStateDerivative:
    # model.rates is the one home of the dynamics: (dr/dt, dtheta/dt).
    def test_pure_radial(self):
        dr, dth = rates(0.5, 1.0, 0.0, 0.0, 0.3)
        assert dr == pytest.approx(0.3, abs=1e-15)
        assert dth == 0.0

    def test_angular_standoff_at_mu(self):
        # At r = mu, L's max angular rate exactly matches M's.
        dr, dth = rates(0.3, 0.0, 1.0, 1.0, 0.3)
        assert dr == 0.0
        assert abs(dth) < 1e-15

    def test_fl_control_consistency(self):
        # sin psi = r/mu holds theta fixed on the focal line.
        dr, dth = rates(0.15, math.sqrt(3) / 2, 0.5, 1.0, 0.3)
        assert dr == pytest.approx(0.3 * math.sqrt(3) / 2, rel=1e-12)
        assert abs(dth) < 1e-15

    @given(
        r=st.floats(0.01, 1.0),
        psi=st.floats(-math.pi, math.pi),
        omega=st.floats(-1.0, 1.0),
    )
    def test_oddness(self, r, psi, omega):
        # Negating (sin psi, omega) mirrors the angular rate exactly.
        c, s = math.cos(psi), math.sin(psi)
        dr1, dth1 = rates(r, c, s, omega, 0.3)
        dr2, dth2 = rates(r, c, -s, -omega, 0.3)
        assert dr1 == dr2
        assert dth1 == -dth2


class TestCanonicalize:
    def test_negative_theta(self):
        state = canonicalize(0.5, -1.2)
        assert state.theta == pytest.approx(1.2)

    def test_positive_theta(self):
        state = canonicalize(0.5, 1.2)
        assert state.theta == 1.2

    def test_zero(self):
        state = canonicalize(0.5, 0.0)
        assert state.theta == 0.0

    def test_reflection_involution(self):
        assert canonicalize(0.4, -2.0) == canonicalize(0.4, 2.0)


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

    def test_pose_invariants(self):
        with pytest.raises(DomainError):
            CartesianPose(1.5, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            CartesianPose(0.0, 0.0, 0.5, 0.5)
