"""Reduced relative-state model shared by every other module.

The lake has radius 1 and the man M runs along the shore at unit speed,
so his angular rate is bounded by 1.  The lady L swims at speed mu < 1.
The state is (r, theta): L's distance from the center and the angular
separation between L and M, kept in the canonical half-plane
theta in [0, pi].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar


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


@dataclass(frozen=True)
class GameParams:
    """Game parameter mu plus the one table of numerical tolerances.

    mu is the ratio of L's speed to M's; everything else is dimensionless
    after normalizing the lake radius and M's speed to 1.  The tolerances
    are class constants, read as params.<name> or GameParams.<name>.
    """

    mu: float

    eps_r: ClassVar[float] = 1e-9  # theta is singular below this radius
    tol_root: ClassVar[float] = 1e-12  # bracket width at which a root search stops
    tol_event: ClassVar[float] = 1e-9  # band of an event, a singular line or the barrier
    tol_step: ClassVar[float] = 1e-11  # local error of a closed-loop integration step
    slack: ClassVar[float] = 1e-12  # rounding allowed past a closed-form range or a unit norm
    input_slack: ClassVar[float] = 1e-9  # the same allowance for headings and poses given
    # Offset from E of perfbench's snap_in/snap_out probes, read only there (as
    # solution.E_SNAP); region_of calls E only the point itself, within slack.
    e_snap: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < 1.0:
            raise DomainError(f"mu must lie in (0, 1), got {self.mu}")


@dataclass(frozen=True)
class PolarState:
    """Canonical relative state: r in [0, 1], theta in [0, pi]."""

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not -GameParams.slack <= self.r <= 1.0 + GameParams.slack:
            raise DomainError(f"r must lie in [0, 1], got {self.r}")
        if not -GameParams.slack <= self.theta <= math.pi + GameParams.slack:
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
        if not abs(norm - 1.0) <= GameParams.slack:
            raise DomainError(f"heading must be a unit vector, |.|^2 = {norm}")
        if not abs(self.omega) <= 1.0 + GameParams.slack:
            raise DomainError(f"|omega| must be <= 1, got {self.omega}")


@dataclass(frozen=True)
class Segment:
    """One closed-form piece of a path, t0 <= t <= t1: state(t) gives L's
    canonical (r, theta, cos_psi, sin_psi) and omega(t) M's canonical rate,
    both exact at the two ends."""

    kind: str
    t0: float
    t1: float
    state: Callable[[float], tuple[float, float, float, float]]
    omega: Callable[[float], float]


@dataclass(frozen=True)
class CartesianPose:
    """Positions of both agents in the non-rotating lake frame."""

    x_L: float
    y_L: float
    x_M: float
    y_M: float

    def __post_init__(self) -> None:
        if abs(self.x_M**2 + self.y_M**2 - 1.0) > GameParams.input_slack:
            raise DomainError("M must sit on the unit circle")
        if self.x_L**2 + self.y_L**2 > 1.0 + GameParams.input_slack:
            raise DomainError("L must lie inside the lake")


def rates(r, cos_psi, sin_psi, omega, mu: float):
    """(dr/dt, dtheta/dt) on plain floats, unchecked; the one home of the
    dynamics."""
    return mu * cos_psi, mu / r * sin_psi - omega


def canonicalize(r: float, theta_signed: float) -> PolarState:
    """Fold a signed-angle state onto the canonical half-plane by the mirror
    symmetry theta -> -theta."""
    if not -math.pi - GameParams.slack <= theta_signed <= math.pi + GameParams.slack:
        raise DomainError(f"theta must lie in [-pi, pi], got {theta_signed}")
    return PolarState(r, abs(theta_signed))


def to_cartesian(state: PolarState, man_angle: float) -> CartesianPose:
    """Place both agents in the non-rotating frame given M's shore angle."""
    return CartesianPose(*cartesian_at(state.r, state.theta, man_angle))


def cartesian_at(r: float, theta: float, man_angle: float) -> tuple[float, float, float, float]:
    """(x_L, y_L, x_M, y_M) of to_cartesian on floats, unchecked, for a signed
    theta; the one home of the lift."""
    ang_L = man_angle + theta
    return r * math.cos(ang_L), r * math.sin(ang_L), math.cos(man_angle), math.sin(man_angle)
