from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_reference
from frontierkit import (
    AffineFrontier,
    EmptySupport,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
    mixture,
    roots,
)
from frontierkit._oracles import brute_force_mixture_value
from frontierkit.mixture import (
    FrontierDistribution,
    mixture_peak,
    mixture_value,
    verify_mixture_regularity,
)


def quad_pair():
    # -(x-1)^2 and -(x-3)^2, each with probability 1/2
    fa = QuadraticFrontier(-1.0, 2.0, -1.0)
    fb = QuadraticFrontier(-9.0, 6.0, -1.0)
    return FrontierDistribution([(fa, 0.5), (fb, 0.5)])


class TestMixtureValue:
    def test_quad_pair_at_two(self):
        val, alloc = mixture_value(quad_pair(), 2.0)
        oracle = brute_force_mixture_value(quad_pair(), 2.0)
        assert abs(val - 0.0) < 1e-10
        assert abs(oracle - 0.0) < 1e-5
        assert np.allclose(alloc, [1.0, 3.0], atol=1e-8)

    def test_quad_pair_at_one_hits_boundary(self):
        val, alloc = mixture_value(quad_pair(), 1.0)
        oracle = brute_force_mixture_value(quad_pair(), 1.0)
        assert abs(val - (-1.0)) < 1e-10
        assert abs(val - oracle) < 1e-5
        assert np.allclose(alloc, [0.0, 2.0], atol=1e-8)

    def test_single_member_degenerate(self):
        f = QuadraticFrontier(-1.0, 2.0, -1.0)
        dist = FrontierDistribution([(f, 1.0)])
        for u in (0.0, 0.7, 2.5):
            val, alloc = mixture_value(dist, u)
            assert abs(val - f.value(u)) < 1e-12
            assert abs(alloc[0] - u) < 1e-12

    def test_quad_pair_closed_form(self):
        # equalization gives F1(u) = -(u-2)^2 for u >= 1
        dist = quad_pair()
        for u in np.linspace(1.0, 4.0, 16):
            val, _ = mixture_value(dist, float(u))
            assert abs(val - (-((u - 2.0) ** 2))) < 1e-6

    def test_expectation_constraint(self):
        dist = quad_pair()
        for u in np.linspace(0.0, 5.0, 21):
            _, alloc = mixture_value(dist, float(u))
            assert abs(dist.probs @ alloc - u) < 1e-10

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            FrontierDistribution([])

    def test_kinked_members_deterministic_ties(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 3.0], [0.0, 1.0, 1.0])
        dist = FrontierDistribution([(f, 0.5), (f, 0.5)])
        _, alloc = mixture_value(dist, 2.0)
        assert abs(dist.probs @ alloc - 2.0) < 1e-10
        # ties broken by support order: first member filled first
        assert alloc[0] >= alloc[1] - 1e-9

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (
                PiecewiseLinearFrontier([0.0, 1.0], [0.0, 1.0]),
                PiecewiseLinearFrontier([0.0, 1.0], [0.0, 0.5]),
            ),
            lambda: (AffineFrontier(0.0, 1.0, (0.0, 1.0)), AffineFrontier(0.0, 0.5, (0.0, 1.0))),
        ],
        ids=["piecewise-linear", "affine"],
    )
    @pytest.mark.parametrize(
        "u, expected_values, expected_value",
        [(0.25, [0.5, 0.0], 0.25), (0.75, [1.0, 0.5], 0.625), (1.0, [1.0, 1.0], 0.75)],
    )
    def test_linear_members_of_different_slopes(self, make, u, expected_values, expected_value):
        # slopes 1 and 1/2 on [0, 1]: the steeper member fills first, and once
        # it is full the level sits at the flatter member's slope, the lowest
        # slope at any ceiling
        steep, flat = make()
        dist = FrontierDistribution([(steep, 0.5), (flat, 0.5)])
        val, alloc = mixture_value(dist, u)
        assert dist.probs @ alloc == pytest.approx(u, abs=1e-12)
        assert alloc == pytest.approx(expected_values, abs=1e-12)
        assert val == pytest.approx(expected_value, abs=1e-12)


class TestMixturePeak:
    def test_quad_pair(self):
        assert abs(mixture_peak(quad_pair()) - 2.0) < 1e-12

    def test_single_member(self):
        f = QuadraticFrontier(-9.0, 6.0, -1.0)
        assert abs(mixture_peak(FrontierDistribution([(f, 1.0)])) - 3.0) < 1e-9

    def test_two_identical(self):
        f = QuadraticFrontier(-1.0, 2.0, -1.0)
        dist = FrontierDistribution([(f, 0.5), (f, 0.5)])
        assert abs(mixture_peak(dist) - f.peak) < 1e-9

    def test_peak_value_and_strictness(self):
        dist = quad_pair()
        peak = mixture_peak(dist)
        val, _ = mixture_value(dist, peak)
        assert abs(val - 0.0) < 1e-10
        for u in (0.5, 1.5, 2.5, 4.0):
            other, _ = mixture_value(dist, u)
            assert other < val


class TestRandomizedAgainstBruteForce:
    def test_random_mixtures(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            k = int(rng.integers(2, 5))
            members = []
            for _ in range(k):
                peak = rng.uniform(0.5, 3.0)
                curv = -rng.uniform(0.3, 2.0)
                members.append(
                    QuadraticFrontier(curv * peak**2, -2 * curv * peak, curv)
                )
            probs = rng.dirichlet(np.ones(k))
            probs = probs / probs.sum()
            dist = FrontierDistribution(list(zip(members, probs)))
            u = float(rng.uniform(0.0, 3.0))
            val, _ = mixture_value(dist, u)
            oracle = brute_force_mixture_value(dist, u)
            assert abs(val - oracle) < 1e-5, f"trial {trial}: {val} vs {oracle}"

    def test_optimum_with_a_member_at_its_floor(self):
        # trial 93 of `frontierkit verify mixture` at seed 42: the optimum
        # puts the first member at 0, which a shrinking grid missed by 3.2e-3
        coeffs = [
            (1.0397851786288752, 1.103564337093495, -0.7490939486209597),
            (-0.6571317134030441, 2.420623303018998, -0.8218084588402155),
            (-3.4032289033530407, 4.233678203718005, -0.8861335435180571),
        ]
        probs = [0.5591559837183607, 0.03163815187556378, 0.40920586440607565]
        dist = FrontierDistribution([(QuadraticFrontier(*c), p) for c, p in zip(coeffs, probs)])
        u = 0.6051519806461108
        val, alloc = mixture_value(dist, u)
        assert alloc[0] == 0.0
        assert abs(val - brute_force_mixture_value(dist, u)) < 1e-12

    def test_oracle_rejects_non_quadratic_members(self):
        dist = FrontierDistribution([(PiecewiseLinearFrontier([0.0, 1.0], [0.0, 1.0]), 1.0)])
        with pytest.raises(TypeError):
            brute_force_mixture_value(dist, 0.5)


@given(
    members=st.lists(
        st.tuples(st.floats(-1.0, 3.0), st.floats(-3.0, 0.3), st.floats(-6.0, 0.0)),
        min_size=2,
        max_size=4,
    ),
    u=st.floats(0.0, 3.0),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_water_filling_matches_the_exact_oracle(members, u):
    """Members ``-c*(x - peak)**2``, against the active-set oracle.

    A peak below 0 puts a member at its floor, ``c = 10**-3`` is near flat,
    and weights down to ``10**-6`` give tiny probabilities.
    """
    weights = np.array([10.0**lw for _, _, lw in members])
    probs = weights / weights.sum()
    dist = FrontierDistribution(
        [
            (QuadraticFrontier(-(10.0**lc) * x * x, 2.0 * 10.0**lc * x, -(10.0**lc)), p)
            for (x, lc, _), p in zip(members, probs)
        ]
    )
    val, alloc = mixture_value(dist, u)
    oracle = brute_force_mixture_value(dist, u)
    assert abs(val - oracle) <= 1e-12 * max(1.0, abs(oracle))
    assert abs(dist.probs @ alloc - u) <= 1e-10
    assert np.all(alloc >= 0.0)


class TestRegularityReport:
    def test_quad_pair_report(self):
        rep = verify_mixture_regularity(quad_pair(), np.linspace(0.0, 4.0, 17))
        assert rep.overall_pass

    def test_cutoff_usc(self):
        cut_a = QuadraticFrontier(-1.0, 2.0, -1.0, domain=(0.0, 2.0))
        cut_b = QuadraticFrontier(-9.0, 6.0, -1.0, domain=(0.0, 3.5))
        dist = FrontierDistribution([(cut_a, 0.5), (cut_b, 0.5)])
        rep = verify_mixture_regularity(dist, np.linspace(0.0, 2.7, 12))
        assert rep["usc-upper"].passed
        # beyond the mixture domain the value is -inf
        val, _ = mixture_value(dist, 100.0)
        assert val == -np.inf

    def test_singleton_reduces_to_member(self):
        f = QuadraticFrontier(-1.0, 2.0, -1.0)
        rep = verify_mixture_regularity(
            FrontierDistribution([(f, 1.0)]), np.linspace(0.0, 3.0, 13)
        )
        assert rep.overall_pass


def bisected_level(T, u, lo, hi, t_lo, t_hi):
    """The reference level search: `mixture_value`'s bisection on ``T > u``
    before it interpolated."""
    return bisect_reference(lambda eta: T(eta) > u, lo, hi)


def solve_with(search, dist, u):
    """``mixture_value(dist, u)`` with ``search`` finding the level; returns
    the level bracket, the value and the allocation, all as hex strings."""
    brackets = []

    def spy(*args):
        brackets.append(search(*args))
        return brackets[-1]

    with mock.patch.object(mixture, "interpolated_switch", spy):
        value, alloc = mixture_value(dist, u)
    return [[x.hex() for x in b] for b in brackets], value.hex(), [float(x).hex() for x in alloc]


def quadratic(peak, log_curv, height):
    c = -(10.0**log_curv)
    return QuadraticFrontier(height + c * peak * peak, -2.0 * c * peak, c)


_QUADRATIC = st.builds(quadratic, st.floats(-1.0, 3.0), st.floats(-3.0, 0.3), st.floats(0.0, 1.0))
# slopes and breakpoints on a grid of quarters keep the slopes exact, so some
# levels fall on a segment slope
_QUARTERS = st.lists(st.integers(-6, 8), min_size=1, max_size=3, unique=True)
_MEMBER = st.one_of(
    _QUADRATIC,
    st.builds(
        lambda slope, width: AffineFrontier(0.0, slope / 4.0, (0.0, width / 4.0)),
        st.integers(-4, 8),
        st.integers(1, 16),
    ),
    st.builds(
        lambda slopes, widths: PiecewiseLinearFrontier(
            np.cumsum([0.0] + [w / 4.0 for w in widths[: len(slopes)]]),
            np.cumsum([0.0] + [s * w / 16.0 for s, w in zip(sorted(slopes, reverse=True), widths)]),
        ),
        _QUARTERS,
        st.lists(st.integers(1, 8), min_size=3, max_size=3),
    ),
    # raised by dy, and cut off at a bounded domain's upper end
    st.builds(
        lambda f, dy: QuadraticFrontier(f.coeffs[0] + dy, *f.coeffs[1:]), _QUADRATIC, st.floats(-1.0, 1.0)
    ),
    st.builds(
        lambda f, cut: QuadraticFrontier(*f.coeffs, domain=(0.0, cut)), _QUADRATIC, st.floats(0.5, 4.0)
    ),
)


@given(
    members=st.lists(st.tuples(_MEMBER, st.floats(-6.0, 0.0)), min_size=1, max_size=5),
    where=st.sampled_from(["lo", "hi", "below lo", "above hi", "peak", "inside"]),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_level_search_lands_on_the_bisected_level(members, where, t):
    """The interpolating level search against the bisection it replaced.

    Families of one to five quadratic (some on a bounded domain), affine and
    piecewise-linear members, with weights down to ``10**-6`` (a quadratic
    whose peak is below 0 sits at its floor), at ``u`` on either end of the
    feasible totals, within 1e-10 outside them, at the mixture peak and
    inside.
    """
    weights = np.array([10.0**lw for _, lw in members])
    dist = FrontierDistribution(list(zip([f for f, _ in members], weights / weights.sum())))
    probs, fs = dist.probs, dist.members
    cap = 10.0 * (1.0 + max(f.peak for f in fs))
    lo_total = float(probs @ [max(0.0, f.domain[0]) for f in fs])
    hi_total = float(probs @ [min(cap, f.domain[1]) for f in fs])
    u = {
        "lo": lo_total,
        "hi": hi_total,
        "below lo": max(0.0, lo_total - 1e-10 * t),
        "above hi": hi_total + 1e-10 * t,
        "peak": mixture_peak(dist),
        "inside": lo_total + t * (hi_total - lo_total),
    }[where]
    assert solve_with(mixture.interpolated_switch, dist, u) == solve_with(bisected_level, dist, u)


def test_level_near_zero_falls_back_to_bisection():
    # the vertex sits at the floor 0, so at u = 0 the level switches within
    # 20 * 2**-140 of 0, where bisection's 200 halvings stop short of
    # adjacent floats: the search must hand over to it
    dist = FrontierDistribution([(QuadraticFrontier(0.0, 0.0, -1.0), 1.0)])
    with mock.patch.object(roots, "bisect_predicate_array", wraps=roots.bisect_predicate_array) as fallback:
        got = solve_with(mixture.interpolated_switch, dist, 0.0)
    assert fallback.call_count == 1
    assert got == solve_with(bisected_level, dist, 0.0)
