"""Solver for the lady-in-the-lake pursuit-evasion game.

A swimmer with speed ratio mu < 1 crosses a unit-radius lake while a
faster runner patrols the shore.  The package bundles the classical
terminal-angle solution with barrier, the min-time-to-antipodal-point
solution with its focal and universal lines, closed-loop simulation, and
numerical verification of the optimality conditions.
"""
from .model import (
    CartesianPose,
    ControlPair,
    DomainError,
    GameParams,
    LakeGameError,
    NoRootError,
    PolarState,
    RegionError,
)
from .solution import Region, StrategyAdvice, ValueKind, advise, classify

__all__ = [
    "CartesianPose",
    "ControlPair",
    "DomainError",
    "GameParams",
    "LakeGameError",
    "NoRootError",
    "PolarState",
    "Region",
    "RegionError",
    "StrategyAdvice",
    "ValueKind",
    "advise",
    "classify",
]

__version__ = "0.1.0"
