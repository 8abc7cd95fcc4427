"""Reduced relative-state model shared by every other module.

The lake has radius 1 and the man M runs along the shore at unit speed,
so his angular rate is bounded by 1.  The lady L swims at speed mu < 1.
The state is (r, theta): L's distance from the center and the angular
separation between L and M, kept in the canonical half-plane
theta in [0, pi].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class LakeGameError(Exception):
    """Base class for errors raised by this package."""


class DomainError(LakeGameError, ValueError):
    """An argument lies outside the operation's mathematical domain."""


class RegionError(LakeGameError):
    """The queried state is outside the region where a strategy is defined."""


class NoRootError(LakeGameError):
    """No focal-line entry radius could be bracketed for the given state."""


def classical_drift(r: float, mu: float) -> float:
    """Separation lost along the classical equilibrium path from radius mu
    out to radius r >= mu: sqrt(r^2/mu^2 - 1) - acos(mu/r).

    Every closed form of the classical game derives from it.  At r = 1 it
    is sqrt(1/mu^2 - 1) - acos(mu), and the escape angle is pi minus that.
    """
    return math.sqrt(max(0.0, r * r / mu**2 - 1.0)) - math.acos(min(1.0, mu / r))


def _critical_flag(mu: float) -> bool:
    # The min-time game is still defined when the guaranteed escape angle
    # is non-positive, so this is only a flag.
    return math.pi - classical_drift(1.0, mu) <= 0.0


@dataclass(frozen=True)
class GameParams:
    """Game parameter mu plus the numerical tolerances used throughout.

    mu is the ratio of L's speed to M's; everything else is dimensionless
    after normalizing the lake radius and M's speed to 1.
    """

    mu: float
    eps_r: float = 1e-9
    tol_root: float = 1e-12
    tol_event: float = 1e-9
    below_critical: bool = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise DomainError(f"mu must lie in (0, 1), got {self.mu}")
        if self.eps_r <= 0.0 or self.tol_root <= 0.0 or self.tol_event <= 0.0:
            raise DomainError("tolerances must be positive")
        object.__setattr__(self, "below_critical", _critical_flag(self.mu))


@dataclass(frozen=True)
class PolarState:
    """Canonical relative state: r in [0, 1], theta in [0, pi]."""

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r <= 1.0 + 1e-12:
            raise DomainError(f"r must lie in [0, 1], got {self.r}")
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "r", min(max(self.r, 0.0), 1.0))
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))


@dataclass(frozen=True)
class ControlPair:
    """L's heading as direction cosines plus M's angular rate.

    omega_arbitrary marks controls for M that are reported as a convention
    rather than forced by the equilibrium (his rate is indifferent on
    universal-line tributaries).
    """

    cos_psi: float
    sin_psi: float
    omega: float
    omega_arbitrary: bool = False

    def __post_init__(self) -> None:
        norm = self.cos_psi**2 + self.sin_psi**2
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"heading must be a unit vector, |.|^2 = {norm}")
        if abs(self.omega) > 1.0 + 1e-12:
            raise DomainError(f"|omega| must be <= 1, got {self.omega}")


@dataclass(frozen=True)
class CartesianPose:
    """Positions of both agents in the non-rotating lake frame."""

    x_L: float
    y_L: float
    x_M: float
    y_M: float

    def __post_init__(self) -> None:
        if abs(self.x_M**2 + self.y_M**2 - 1.0) > 1e-9:
            raise DomainError("M must sit on the unit circle")
        if self.x_L**2 + self.y_L**2 > 1.0 + 1e-9:
            raise DomainError("L must lie inside the lake")


def state_derivative(
    state: PolarState, controls: ControlPair, params: GameParams
) -> tuple[float, float]:
    """Relative dynamics (dr/dt, dtheta/dt).

    The theta dynamics are singular at the origin, so radii below
    params.eps_r are rejected.
    """
    if state.r < params.eps_r:
        raise DomainError(
            f"r = {state.r} below cutoff {params.eps_r}; theta dynamics singular"
        )
    return rates(state.r, controls.cos_psi, controls.sin_psi, controls.omega, params.mu)


def rates(r, cos_psi, sin_psi, omega, mu: float):
    """(dr/dt, dtheta/dt) on plain floats, unchecked; the one home of the
    dynamics."""
    return mu * cos_psi, mu / r * sin_psi - omega


def canonicalize(r: float, theta_signed: float) -> tuple[PolarState, bool]:
    """Fold a signed-angle state onto the canonical half-plane.

    Returns the canonical state and a flag that is True iff the input
    angle was negative (the state was mirrored).
    """
    if not -math.pi - 1e-12 <= theta_signed <= math.pi + 1e-12:
        raise DomainError(f"theta must lie in [-pi, pi], got {theta_signed}")
    reflected = theta_signed < 0.0
    return PolarState(r, abs(theta_signed)), reflected


def reflect_controls(controls: ControlPair, reflected: bool) -> ControlPair:
    """Map canonical-half-plane controls back through the mirror symmetry."""
    if not reflected:
        return controls
    return ControlPair(
        controls.cos_psi,
        -controls.sin_psi,
        -controls.omega,
        controls.omega_arbitrary,
    )


def to_cartesian(state: PolarState, man_angle: float) -> CartesianPose:
    """Place both agents in the non-rotating frame given M's shore angle."""
    ang_L = man_angle + state.theta
    return CartesianPose(
        state.r * math.cos(ang_L),
        state.r * math.sin(ang_L),
        math.cos(man_angle),
        math.sin(man_angle),
    )


def from_cartesian(pose: CartesianPose) -> tuple[PolarState, float, bool]:
    """Invert to_cartesian: recover (state, man_angle, reflected)."""
    man_angle = math.atan2(pose.y_M, pose.x_M)
    r = math.hypot(pose.x_L, pose.y_L)
    rel = math.atan2(pose.y_L, pose.x_L) - man_angle
    rel = math.remainder(rel, 2.0 * math.pi)
    state, reflected = canonicalize(min(r, 1.0), rel)
    return state, man_angle, reflected
