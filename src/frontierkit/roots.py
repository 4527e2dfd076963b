"""Bracketing root-finding and scalar maximization helpers.

All first-order conditions in this library are strictly monotone in the
unknown, so bisection with geometric bracket expansion is globally safe.
Root solves probe one point per step. The frontier searches,
`golden_section_max` and `bisect_predicate_array`, take array oracles and
look ahead: one oracle call covers their next `LOOKAHEAD` steps (see
`_lookahead`). `interpolated_switch` gives `bisect_predicate_array`'s bracket
for the level test ``T(x) > u`` of a nonincreasing scalar ``T`` in fewer
calls, by interpolating on the values of ``T``; where it cannot, it runs that
bisection with one ``T`` call per point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import RootBracketFailure

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: steps a lookahead search walks per oracle call; the call evaluates the
#: ``2**LOOKAHEAD - 1`` points those steps can probe
LOOKAHEAD = 6

# `interpolated_switch`: rounding steps it probes past an interpolated point,
# and the probes it may spend beyond bisection's count
_NUDGE_ULPS = 4
_SLACK = 4


def expand_bracket(
    f: Callable[[float], float], lo: float = 1e-12, hi: float = 1.0
) -> tuple[float, float]:
    """Expand ``[lo, hi]`` geometrically until ``f`` changes sign on it.

    The lower endpoint is halved toward zero and the upper endpoint doubled,
    at most 200 times, which covers both increasing and decreasing monotone
    objectives.
    """
    flo, fhi = f(lo), f(hi)
    for _ in range(200):
        if flo == 0.0:
            return lo, lo
        if fhi == 0.0:
            return hi, hi
        if flo * fhi < 0.0:
            return lo, hi
        lo /= 2.0
        hi *= 2.0
        flo, fhi = f(lo), f(hi)
    raise RootBracketFailure(f"no sign change found on [{lo:g}, {hi:g}] after 200 expansions")


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


def interpolated_switch(
    T: Callable[[float], float], u: float, lo: float, hi: float, t_lo: float, t_hi: float
) -> tuple[float, float]:
    """``bisect_predicate_array`` on the test ``T(x) > u``, bit for bit, in fewer
    ``T`` calls, for a nonincreasing ``T`` with ``T(lo) = t_lo``, ``T(hi) = t_hi``.

    While the bracket's values fall on both sides of ``u`` the search takes
    Illinois steps: regula falsi that halves the weight of an end kept twice
    (Dowell and Jarratt, BIT 11, 1971). When the secant then puts the switch
    within ``_NUDGE_ULPS`` rounding steps (of the probe, or of ``u`` carried
    along the secant), it probes that far past the point, toward the switch,
    which closes the bracket where ``T`` is linear. Otherwise it bisects. As
    in ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2021), each probe is
    pulled toward the midpoint far enough that the bracket is never wider
    than ``2**_SLACK`` times bisection's after as many steps, so the search
    costs about ``_SLACK`` probes more than bisection at worst. The values only
    weigh the interpolation: each decision is ``T(x) > u`` at the probe, and
    the search stops where bisection does, once ``0.5 * (lo + hi)`` is not
    strictly inside.

    Why the result is the same: where ``T(x) > u`` is monotone in ``x`` over
    the floats of ``[lo, hi]``, with ``lo`` counted true and ``hi`` false,
    the adjacent pair where it switches is unique, and every bracketing
    search that tests this predicate and ends on adjacent floats ends on it.
    Bisection does unless its 200-halving cap binds first, which can happen
    only when the switch lies within ``(hi - lo) * 2**-140`` of 0: 200
    halvings bring the bracket below the spacing of the floats near any
    point farther out. When the pair found lies that close to 0, or the
    search ends on floats that are not adjacent, `bisect_predicate_array`
    runs on the whole bracket, with ``T`` called once per point.
    """
    start = lo, hi
    g_lo, g_hi = t_lo - u, t_hi - u
    kept = 0  # +1 (-1) when the last interpolated probe moved lo (hi)
    nudge = None
    budget = (hi - lo) * 2.0**_SLACK  # the widest the bracket may be after the next probe
    for _ in range(200 + _SLACK):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        width = hi - lo
        budget *= 0.5
        reach = max(0.0, budget - 0.5 * width)
        if nudge is not None:
            x, nudge, interpolated = nudge, None, False
        elif g_lo > 0.0 > g_hi:
            run = width / (g_lo - g_hi)  # x per unit of T along the secant
            x, interpolated = lo + g_lo * run, True
        else:
            x, interpolated = mid, False
        x = min(max(x, mid - reach), mid + reach)
        if not lo < x < hi:
            x, interpolated = mid, False
        tx = T(x)
        moved = 1 if tx > u else -1
        if moved > 0:
            lo, g_lo = x, tx - u
        else:
            hi, g_hi = x, tx - u
        if interpolated:
            if moved == kept:
                if moved > 0:
                    g_hi *= 0.5
                else:
                    g_lo *= 0.5
            kept = moved
            step = _NUDGE_ULPS * max(math.ulp(x), math.ulp(u) * run)
            if abs(tx - u) * run <= step:
                nudge = x + moved * step
    near_zero = min(abs(lo), abs(hi)) <= (start[1] - start[0]) * 2.0**-140
    if near_zero or hi != math.nextafter(lo, math.inf):
        return bisect_predicate_array(lambda xs: np.array([T(x) > u for x in xs.tolist()]), *start)
    return lo, hi


def _lookahead(f, state, probe, decide, move):
    """Walk a binary search, `LOOKAHEAD` steps per call of the array oracle ``f``.

    One step probes ``x = probe(state)`` (``None`` once the search has
    stopped), learns from ``decide(state, f(x))`` which of its two ways it
    goes, and takes it: ``state = move(state, f(x), go)``. ``probe`` reads
    only the bracket, never a value, so the points of the next `LOOKAHEAD`
    steps over every outcome are known before any is evaluated. They form a
    binary tree, stored heap-style (node ``i`` leads to ``2i+1`` when ``go``
    and to ``2i+2`` otherwise) and built by ``move`` with ``fx=None``. One
    ``f`` call on the whole tree lets the walk take those steps with the real
    values. ``f`` is elementwise, so each value is what a one-point call
    gives, and the walk is the one-step search bit for bit. Returns the state
    the search stopped in.
    """
    size, inner = 2**LOOKAHEAD - 1, 2 ** (LOOKAHEAD - 1) - 1
    while True:
        nodes, points = [state], []
        for i in range(size):
            s = nodes[i]
            x = None if s is None else probe(s)
            points.append(x)
            if i < inner:
                nodes += [None, None] if x is None else [move(s, None, True), move(s, None, False)]
        live = [i for i, x in enumerate(points) if x is not None]
        if not live:
            return state
        values = dict(zip(live, f(np.array([points[i] for i in live])).tolist()))
        i = 0
        for _ in range(LOOKAHEAD):
            if points[i] is None:
                return state
            go = decide(state, values[i])
            state = move(state, values[i], go)
            i = 2 * i + (1 if go else 2)


def bisect_predicate_array(
    pred: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` around the switch of a monotone predicate.

    ``pred`` tests an array of points elementwise; it is true up to some point
    and false beyond it. The returned bracket keeps ``lo`` on the true side
    and ``hi`` on the false side, after at most 200 halvings or once it spans
    adjacent floats. One ``pred`` call covers `LOOKAHEAD` halvings."""

    def probe(s):
        lo, hi, steps = s
        mid = 0.5 * (lo + hi)
        return None if steps == 200 or mid <= lo or mid >= hi else mid

    def move(s, fx, go):
        lo, hi, steps = s
        mid = 0.5 * (lo + hi)
        return (mid, hi, steps + 1) if go else (lo, mid, steps + 1)

    lo, hi, _ = _lookahead(pred, (lo, hi, 0), probe, lambda s, fx: fx, move)
    return lo, hi


def golden_section_max(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> float:
    """Argmax of a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    ``f`` takes an array of points and returns their values elementwise. One
    call evaluates the two first points, and each later one the points of
    the next `LOOKAHEAD` steps.
    """
    a, b = lo, hi
    if not b - a > tol:
        return 0.5 * (a + b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(np.array([c, d])).tolist()

    # a state is (a, b, c, d, the value kept from the last step, whether c
    # is the point to probe next); the other inner point holds the kept value
    def probe(s):
        a, b, c, d, _, new_c = s
        return (c if new_c else d) if b - a > tol else None

    def decide(s, fx):
        return fx >= s[4] if s[5] else s[4] >= fx

    def move(s, fx, go):
        a, b, c, d, kept, new_c = s
        fc, fd = (fx, kept) if new_c else (kept, fx)
        if go:
            return a, d, d - _GOLDEN * (d - a), c, fc, True
        return c, b, d, c + _GOLDEN * (b - c), fd, False

    # the first step has both values: c's enters as if it had just been probed
    start = move((a, b, c, d, fd, True), fc, fc >= fd)
    a, b = _lookahead(f, start, probe, decide, move)[:2]
    return 0.5 * (a + b)
