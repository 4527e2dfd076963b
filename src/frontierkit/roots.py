"""Bracketing root-finding and scalar maximization helpers.

All first-order conditions in this library are strictly monotone in the
unknown, so plain bisection with geometric bracket expansion is globally
safe and is used throughout.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import RootBracketFailure

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def expand_bracket(
    f: Callable[[float], float],
    lo: float = 1e-12,
    hi: float = 1.0,
    factor: float = 2.0,
    max_expansions: int = 200,
) -> tuple[float, float]:
    """Expand ``[lo, hi]`` geometrically until ``f`` changes sign on it.

    The lower endpoint is shrunk toward zero and the upper endpoint grown,
    which covers both increasing and decreasing monotone objectives.
    """
    flo, fhi = f(lo), f(hi)
    for _ in range(max_expansions):
        if flo == 0.0:
            return lo, lo
        if fhi == 0.0:
            return hi, hi
        if flo * fhi < 0.0:
            return lo, hi
        lo /= factor
        hi *= factor
        flo, fhi = f(lo), f(hi)
    raise RootBracketFailure(
        f"no sign change found on [{lo:g}, {hi:g}] after {max_expansions} expansions"
    )


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Find the root of a monotone ``f`` on a sign-change interval ``[lo, hi]``."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RootBracketFailure(f"f({lo:g}) and f({hi:g}) have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval cannot shrink further in float64
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def solve_monotone(
    f: Callable[[float], float],
    lo: float = 1e-12,
    hi: float = 1.0,
    tol: float = 1e-12,
) -> float:
    """Bracket-expand and bisect in one call."""
    a, b = expand_bracket(f, lo, hi)
    if a == b:
        return a
    return bisect(f, a, b, tol=tol)


def bisect_predicate(
    pred: Callable[[float], bool], lo: float, hi: float
) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` around the switch of a monotone predicate.

    ``pred`` is true up to some point and false beyond it; the returned
    bracket keeps ``lo`` on the true side and ``hi`` on the false side, after
    at most 200 halvings or once it spans adjacent floats.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> float:
    """Argmax of a unimodal ``f`` on ``[lo, hi]`` by golden-section search."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
