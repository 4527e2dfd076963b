"""Bracketing root-finding and scalar maximization helpers.

All first-order conditions in this library are strictly monotone in the
unknown, so bisection with geometric bracket expansion is globally safe.
Root solves probe one point per step; `speculate` runs such a search with
its points evaluated in array calls, bit for bit. The frontier searches,
`golden_section_max` and `bisect_predicate_array`, take array oracles and
look ahead: each keeps the values it has seen, and a step whose point has
none evaluates, in one oracle call, the tree of the next `LOOKAHEAD` steps
over every outcome, so that tree bounds the calls. Each walks its own tree.
`bisect_predicate_array` reads the oracle's values and adds, as extra points
in the same call, the rest of the path that a guess at the switch predicts.
Both guess by inverse interpolation (Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4) through the two values on either side of
the tightest sign change, in Newton form from the secant on that bracket, so
a linear oracle gets the secant's guess. `interpolated_switch` gives
`bisect_predicate_array`'s bracket for the level test ``T(x) > u`` of a
nonincreasing scalar ``T`` in fewer calls, by interpolating on the values of
``T``; where it cannot, it runs that bisection with one ``T`` call per point.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import RootBracketFailure

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: steps a lookahead search walks per oracle call; the call evaluates at most
#: the ``2**LOOKAHEAD - 1`` points those steps can probe
LOOKAHEAD = 6

#: the bracket `expand_bracket` starts from
BRACKET_LO, BRACKET_HI = 1e-12, 1.0

# `interpolated_switch`: rounding steps it probes past an interpolated point,
# and the probes it may spend beyond bisection's count
_NUDGE_ULPS = 4
_SLACK = 4


def expand_bracket(f: Callable[[float], float]) -> tuple[float, float]:
    """Expand ``[BRACKET_LO, BRACKET_HI]`` geometrically until ``f`` changes
    sign on it.

    The lower endpoint is halved toward zero and the upper endpoint doubled,
    at most 200 times, which covers both increasing and decreasing monotone
    objectives.
    """
    lo, hi = BRACKET_LO, BRACKET_HI
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


def solve_monotone(f: Callable[[float], float], tol: float = 1e-12) -> float:
    """Bracket-expand and bisect in one call."""
    a, b = expand_bracket(f)
    if a == b:
        return a
    return bisect(f, a, b, tol=tol)


def speculate(search: Callable, f: Callable[[np.ndarray], np.ndarray], guess: float):
    """What the one-point search ``search(f)`` returns, with ``f`` evaluated
    in array calls.

    Each pass runs ``search(g)``. The stand-in ``g`` answers a point already
    evaluated with its value, and any other point with the prediction
    ``x - guess`` (right where ``f`` increases through its root at
    ``guess``), recording that point. One ``f`` call then evaluates the
    recorded points, and the guess moves to `_root_guess` from the real
    values. A predicted pass that returns has converged on the guess, and the
    real path mostly ends within a few floats of it, so the call also
    evaluates the guess and the 2 floats on either side. A pass
    that records no point ran on real values only, so its result, or its
    exception, is the one-point search's. An exception in a pass that
    recorded points is dropped with its predictions. Any guess gives that
    result; a good one saves passes. Each pass follows the real path at
    least one point further, so the loop ends.

    ``f`` must be elementwise, give each element the bits of a one-point call,
    and be safe at points the one-point search never reaches: a predicted
    pass, and the floats around a guess it converged on, can probe them.
    """
    known: dict[float, float] = {}
    while True:
        asked: dict[float, None] = {}

        def g(x):
            fx = known.get(x)
            if fx is None:
                asked[x] = None
                return x - guess
            return fx

        try:
            out = search(g)
        except Exception:
            if not asked:
                raise
        else:
            if not asked:
                return out
            near = [guess]
            for _ in range(2):
                near = [math.nextafter(near[0], -math.inf), *near, math.nextafter(near[-1], math.inf)]
            asked.update(dict.fromkeys(near))
        known.update(zip(asked, f(np.array(list(asked))).tolist()))
        guess = _root_guess(known)


def _root_guess(known: dict[float, float]) -> float:
    """Root estimate of an increasing function from its values ``known``, kept
    in the tightest sign-change bracket: the inverse polynomial (``x`` as a
    polynomial in the value, read at 0) through the two points on either side
    of that bracket, fewer where fewer exist. Its Newton form starts from the
    bracket's secant root, so a function linear in ``x`` there gets that root.
    Where two values repeat or the polynomial's root is not finite, the secant
    root (the bracket's midpoint where that is NaN); ``±inf`` while no value on
    one side has its sign."""
    below = sorted([x for x, fx in known.items() if fx < 0.0])[:-3:-1]
    above = sorted([x for x, fx in known.items() if fx > 0.0])[:2]
    if not below or not above:
        return -math.inf if not below else math.inf
    xs = [below[0], above[0], *below[1:], *above[1:]]
    ys = [known[x] for x in xs]
    lo, hi = xs[0], xs[1]
    x = lo - ys[0] * ((hi - lo) / (ys[1] - ys[0]))  # the secant root
    if len(set(ys)) == len(ys):
        c = list(xs)  # divided differences, in place
        for j in range(1, len(c)):
            for i in range(len(c) - 1, j - 1, -1):
                c[i] = (c[i] - c[i - 1]) / (ys[i] - ys[i - j])
        poly = c[-1]
        for i in range(len(c) - 2, -1, -1):
            poly = c[i] - ys[i] * poly
        x = poly if math.isfinite(poly) else x
    return min(max(x, lo), hi) if x == x else 0.5 * (lo + hi)


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
    runs on the whole bracket, with ``T`` called once per point. The search
    hands over as soon as both ends of its bracket lie that close to 0, since
    the pair it would find lies between them.
    """
    start, tiny = (lo, hi), (hi - lo) * 2.0**-140
    g_lo, g_hi = t_lo - u, t_hi - u
    kept = 0  # +1 (-1) when the last interpolated probe moved lo (hi)
    nudge = None
    budget = (hi - lo) * 2.0**_SLACK  # the widest the bracket may be after the next probe
    for _ in range(200 + _SLACK):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or -tiny <= lo and hi <= tiny:
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
    if min(abs(lo), abs(hi)) <= tiny or hi != math.nextafter(lo, math.inf):
        return bisect_predicate_array(lambda xs: np.array([T(x) for x in xs.tolist()]), *start, u)
    return lo, hi


def bisect_predicate_array(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, level: float, strict: bool = True
) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` around the switch of the monotone test ``f(x) > level``
    (``f(x) >= level`` when not ``strict``).

    ``f`` evaluates an array of points elementwise, and the test on its values
    is true up to some point and false beyond it; NaN counts as false. The
    returned bracket keeps ``lo`` on the true side and ``hi`` on the false side,
    after at most 200 halvings or once it spans adjacent floats. Every step
    probes the midpoint and decides on its real value, so the result is the
    one-point bisection's, bit for bit.

    Each ``f`` call evaluates the tree of the `LOOKAHEAD` steps after the last
    one decided, over every outcome, so a call resolves at least `LOOKAHEAD`
    steps and the tree bounds the number of calls. The same call also
    evaluates the rest of the path that a guess at the switch predicts: the
    inverse polynomial through the finite values seen so far nearest the
    switch (`_root_guess`). Where the guess holds, the walk takes those
    steps too, so on a smooth ``f`` a few calls reach adjacent floats.
    """
    level = float(level)  # with Python floats the guess's arithmetic never warns
    above = (lambda v: v > level) if strict else (lambda v: v >= level)
    known: dict[float, float] = {}
    # level - f(x) where it is finite: negative on the true side, as `_root_guess` reads it
    excess: dict[float, float] = {}
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if steps == 200 or mid <= lo or mid >= hi:
            return lo, hi
        if mid in known:
            lo, hi, steps = (mid, hi, steps + 1) if above(known[mid]) else (lo, mid, steps + 1)
            continue
        # the tree, level by level; a bracket that cannot shrink has no point
        points, brackets = [], [(lo, hi)]
        for _ in range(min(LOOKAHEAD, 200 - steps)):
            deeper = []
            for a, b in brackets:
                m = 0.5 * (a + b)
                if a < m < b:
                    points.append(m)
                    deeper += [(a, m), (m, b)]
            brackets = deeper
        # the predicted path past the tree, with the test true below the guess.
        # Where the values leave the switch outside the bracket (flat or not
        # finite near it) and the bracket holds 0, the guess is 0: only a
        # switch within 2**-140 times the start width of 0 takes all 200 halvings
        guess, a, b = _root_guess(excess), lo, hi
        if not lo <= guess <= hi and lo < 0.0 < hi:
            guess = 0.0
        for k in range(steps, 200 if math.isfinite(guess) else steps):
            m = 0.5 * (a + b)
            if not a < m < b:
                break
            if k >= steps + LOOKAHEAD:
                points.append(m)
            a, b = (m, b) if m < guess else (a, m)
        values = f(np.array(points)).tolist()
        known.update(zip(points, values))
        for x, v in zip(points, values):
            if math.isfinite(level - v):
                excess[float(x)] = level - v


def golden_section_max(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Argmax of a unimodal ``f`` on ``[lo, hi]`` by golden-section search.

    ``f`` takes an array of points and returns their values elementwise. One
    call evaluates the two first points. Each step keeps the inner point of
    the larger value and probes one new point; a step whose probe has no value
    yet evaluates, in one call, the tree of the next `LOOKAHEAD` steps over
    every outcome (less the points already known), so the walk is the one-step
    search bit for bit and the tree bounds the calls. The search stops once
    the bracket is no wider than ``tol``, or at the first repeated state: where
    ``tol`` is below the float spacing the bracket stops shrinking, and the
    deterministic walk would cycle.
    """
    a, b = lo, hi
    if not b - a > tol:
        return 0.5 * (a + b)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    known = dict(zip((c, d), f(np.array([c, d])).tolist()))
    # a state is (a, b, c, d, whether c is the step's new point); both inner
    # points of the first state have values
    state, seen = (a, b, c, d, True), set()
    while True:
        a, b, c, d, new_c = state
        if not b - a > tol or state in seen:
            return 0.5 * (a + b)
        if (c if new_c else d) not in known:
            # the tree of the next `LOOKAHEAD` steps, level by level
            points, level = {}, [state]
            for _ in range(LOOKAHEAD):
                deeper = []
                for a, b, c, d, new_c in level:
                    if b - a > tol:
                        points[c if new_c else d] = None
                        deeper.append((a, d, d - _GOLDEN * (d - a), c, True))
                        deeper.append((c, b, d, c + _GOLDEN * (b - c), False))
                level = deeper
            points = [x for x in points if x not in known]
            known.update(zip(points, f(np.array(points)).tolist()))
            continue  # the names above now hold a tree node: read the state again
        seen.add(state)
        if known[c] >= known[d]:
            state = (a, d, d - _GOLDEN * (d - a), c, True)
        else:
            state = (c, b, d, c + _GOLDEN * (b - c), False)
