"""Speculative one-point searches against the one-point reference."""

import math

import numpy as np
import pytest

from frontierkit import technology
from frontierkit.errors import RootBracketFailure
from frontierkit.roots import bisect, solve_monotone, speculate
from frontierkit.technology import MoralHazardPrimitives, PowerCost, PowerUtility, _foc_gap, effort_star


def search(g):
    return solve_monotone(g, tol=0.0)


def one_point(f):
    """``search`` with ``f`` called on one point at a time."""
    return search(lambda x: f(np.float64(x)))


def outcome(run):
    try:
        return run()
    except RootBracketFailure as exc:
        return ("raises", str(exc))


def effort_reference(prims, u):
    """The one-point effort solve: `solve_monotone` on the FOC, one point per step."""
    with np.errstate(divide="ignore", over="ignore"):
        return solve_monotone(lambda L: _foc_gap(prims, u, L), tol=0.0)


# (phi.exponent, kappa.exponent, w): the default, the corner and sets across
# the config box
_PRIMS = [(0.5, 2.0, 1.0), (0.5, 2.0, 4.0), (0.2, 1.2, 0.1), (0.95, 6.0, 30.0), (0.35, 3.1, 2.5), (0.8, 4.0, 10.0)]


def effort_points(rng, n):
    """The special points, then ``n`` uniform and ``n`` log-uniform points."""
    return [0.0, 1e-300, 1e-10, 100.0, 1e6] + (
        rng.uniform(0.0, 5.0, n).tolist() + np.exp(rng.uniform(math.log(1e-12), math.log(1e4), n)).tolist()
    )


@pytest.mark.parametrize("a, b, w", _PRIMS)
def test_effort_star_is_the_one_point_solve_bit_for_bit(a, b, w):
    # 6 sets of 1,705 points
    prims = MoralHazardPrimitives(lam=1.0, w=w, phi=PowerUtility(a), kappa=PowerCost(b))
    us = effort_points(np.random.default_rng(17), 850)
    got = [outcome(lambda: effort_star(prims, u)) for u in us]
    assert got == [outcome(lambda: effort_reference(prims, u)) for u in us]
    assert all(type(L) is float for L in got if not isinstance(L, tuple))


def test_effort_star_raises_where_the_one_point_solve_does():
    # a flat effort cost puts many roots beyond the bracket's 200 expansions
    prims = MoralHazardPrimitives(lam=1.0, w=0.03, phi=PowerUtility(0.05), kappa=PowerCost(1.05))
    us = effort_points(np.random.default_rng(18), 50)
    got = [outcome(lambda: effort_star(prims, u)) for u in us]
    assert got == [outcome(lambda: effort_reference(prims, u)) for u in us]
    assert {type(L) for L in got} == {float, tuple}


_FOCS = {
    "increasing": lambda x: x * x * x - 2.0,
    "decreasing": lambda x: 2.0 - x * x * x,
    # flat at -1 and 1 away from the root, and exactly 0 at it
    "steep": lambda x: np.tanh(40.0 * (x - 3.0)),
}


@pytest.mark.parametrize("name", sorted(_FOCS))
@pytest.mark.parametrize("guess", [0.0, -1.0, 1e300, math.inf, math.nan, "root"])
def test_any_guess_gives_the_one_point_result(name, guess):
    f = _FOCS[name]
    want = one_point(f)
    calls = []
    got = speculate(search, lambda x: calls.append(x.size) or f(x), want if guess == "root" else guess)
    assert got == want and type(got) is type(want)
    assert calls


def test_an_exception_on_real_values_propagates():
    flat = lambda x: x * 0.0 + 1.0
    with pytest.raises(RootBracketFailure) as real:
        one_point(flat)
    with pytest.raises(RootBracketFailure) as replayed:
        speculate(search, flat, 0.5)
    assert str(replayed.value) == str(real.value)
    same_sign = lambda g: bisect(g, 1.0, 2.0, tol=0.0)
    with pytest.raises(RootBracketFailure, match="have the same sign"):
        speculate(same_sign, flat, 1.5)


def test_an_exception_in_a_predicted_pass_does_not_escape():
    # every prediction is negative, so the first pass expands the bracket 200
    # times and raises; the real values have a sign change at 0.5
    raised = []

    def watched(g):
        try:
            return search(g)
        except RootBracketFailure as exc:
            raised.append(exc)
            raise

    f = lambda x: x - 0.5
    assert speculate(watched, f, math.inf) == one_point(f)
    assert len(raised) == 1


def test_effort_star_makes_few_foc_calls(monkeypatch, default_prims, default_tech):
    # the one-point solve makes about 57 FOC calls
    calls = []
    foc = technology._foc_gap
    monkeypatch.setattr(technology, "_foc_gap", lambda p, u, L: calls.append(np.size(L)) or foc(p, u, L))
    for u in [0.0, default_tech.u1, default_tech.u0, *np.linspace(0.0, 2.0, 201).tolist()]:
        calls.clear()
        effort_star(default_prims, u)
        assert 1 <= len(calls) <= 3
