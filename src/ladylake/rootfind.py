"""Bisection for scalar root finding on a sign-change bracket."""
from __future__ import annotations

import math
from typing import Callable

from .model import NoRootError


def bisect(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    fa: float | None = None,
    fb: float | None = None,
    max_iter: int = 200,
) -> float:
    """Bisection on a sign-change bracket [a, b], to interval width tol."""
    if fa is None:
        fa = f(a)
    if fb is None:
        fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoRootError(f"no sign change on [{a}, {b}]")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if b - a <= tol or m == a or m == b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)

