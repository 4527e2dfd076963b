import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_reference
from frontierkit import (
    AffineFrontier,
    EmptySupport,
    ParametricFrontier,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
    mixture,
    roots,
)
from frontierkit._oracles import brute_force_mixture_value
from frontierkit.mixture import (
    FrontierDistribution,
    mixture_domain,
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

    def test_negative_promise_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mixture_value(quad_pair(), -0.1)

    def test_nan_promise_is_blamed_on_u(self):
        # NaN passed ``u < 0`` and was reported as the members' slopes
        with pytest.raises(ValueError, match="promised utility `u` must be nonnegative, got nan"):
            mixture_value(quad_pair(), math.nan)
        # an infinite promise still reaches the members' slopes at their ceilings
        with pytest.raises(ValueError, match="finite slopes"):
            mixture_value(quad_pair(), math.inf)

    def test_infinite_slope_at_the_floor_rejected(self):
        # sqrt is vertical at its floor 0, so no finite level brackets the search
        root = ParametricFrontier(np.sqrt, lambda u: 0.5 / np.sqrt(u), domain=(0.0, 4.0), peak=4.0)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite slopes"):
            mixture_value(FrontierDistribution([(root, 1.0)]), 1.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_probability_is_rejected(self, p):
        f = QuadraticFrontier(-1.0, 2.0, -1.0)
        with pytest.raises(ValueError, match="probabilities"):
            FrontierDistribution([(f, 0.5), (f, p)])

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


class TestFrozenDistribution:
    def test_fields_cannot_be_set_and_probs_is_read_only(self):
        dist = quad_pair()
        assert isinstance(dist.support, tuple) and isinstance(dist.members, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.support = ()
        with pytest.raises(ValueError, match="read-only"):
            dist.probs[0] = 1.0
        assert dist.probs is dist.probs and dist.lo_total == 0.0 and dist.floors == (0.0, 0.0)

    def test_a_member_whose_slopes_raise_raises_from_mixture_value_in_order(self):
        class Raising(QuadraticFrontier):
            def left_deriv(self, u):
                raise KeyError("left")

            def right_deriv(self, u):
                raise LookupError("right")

        dist = FrontierDistribution([(Raising(-1.0, 2.0, -1.0, domain=(1.0, 3.0)), 1.0)])
        # no slope is read where no allocation is feasible
        assert mixture_value(dist, 0.5)[0] == -np.inf
        # the ceilings' slopes are read first, then the floors'
        with pytest.raises(KeyError):
            mixture_value(dist, 2.0)
        with mock.patch.object(Raising, "left_deriv", return_value=-1.0), pytest.raises(LookupError):
            mixture_value(dist, 2.0)


class _PeakRaises(QuadraticFrontier):
    @property
    def peak(self):
        raise AssertionError("a member's peak was read")


class TestAllocationBox:
    """The box ``max(2u + 1, u / min p)`` holds every allocation with
    expectation ``u``, whatever the members' peaks."""

    def test_a_flat_member_of_small_weight_takes_most_of_the_promise(self):
        # -(x-1)**2 at 0.99 and -0.001*(x-1)**2 at 0.01: equal slopes give
        # x2 - 1 = 1000*(x1 - 1), and 0.99*x1 + 0.01*x2 = 10 gives x1 = 19.99/10.99
        dist = FrontierDistribution(
            [(QuadraticFrontier(-1.0, 2.0, -1.0), 0.99), (QuadraticFrontier(-0.001, 0.002, -0.001), 0.01)]
        )
        x1 = 19.99 / 10.99
        x2 = 1.0 + 1000.0 * (x1 - 1.0)
        val, alloc = mixture_value(dist, 10.0)
        assert val == -7.370336669699727
        assert val == pytest.approx(-(0.99 * (x1 - 1.0) ** 2 + 0.01 * 0.001 * (x2 - 1.0) ** 2), rel=1e-13)
        assert alloc == pytest.approx([x1, x2], rel=1e-12)
        assert brute_force_mixture_value(dist, 10.0) == pytest.approx(val, rel=1e-13)

    def test_bounded_members_with_a_small_weight_on_the_wide_one(self):
        # the first member is capped at 0.1, so the second holds (0.5 - 0.099) / 0.01
        narrow = QuadraticFrontier(0.0, 1.0, -1.0, domain=(0.0, 0.1))
        wide = QuadraticFrontier(0.0, 1.0, -1.0, domain=(0.0, 1000.0))
        dist = FrontierDistribution([(narrow, 0.99), (wide, 0.01)])
        val, alloc = mixture_value(dist, 0.5)
        assert val == pytest.approx(-15.59, rel=1e-13)
        assert alloc == pytest.approx([0.1, 40.1], rel=1e-12)
        assert brute_force_mixture_value(dist, 0.5) == pytest.approx(val, rel=1e-13)

    def test_the_domain_is_read_off_the_members_without_solving(self):
        narrow = QuadraticFrontier(0.0, 1.0, -1.0, domain=(0.0, 0.1))
        wide = QuadraticFrontier(0.0, 1.0, -1.0, domain=(0.0, 1000.0))
        dist = FrontierDistribution([(narrow, 0.99), (wide, 0.01)])
        with mock.patch.object(mixture, "mixture_value", side_effect=AssertionError("solved")):
            assert mixture_domain(dist) == (0.0, 10.099)
        # and the value is finite on it, -inf past it
        assert np.isfinite(mixture_value(dist, 10.099)[0])
        assert mixture_value(dist, 10.1)[0] == -np.inf

    def test_a_member_without_a_peak(self):
        # log(1 + x) rises for ever; with -(x-1)**2, equal slopes and
        # x1 + x2 = 4 give x1 = 1 + 1.5*sqrt(2)
        dist = FrontierDistribution(
            [(ParametricFrontier(np.log1p, lambda u: 1.0 / (1.0 + u)), 0.5), (QuadraticFrontier(-1.0, 2.0, -1.0), 0.5)]
        )
        x1 = 1.0 + 1.5 * math.sqrt(2.0)
        val, alloc = mixture_value(dist, 2.0)
        assert val == 0.7007274789988418
        assert val == pytest.approx(0.5 * (math.log1p(x1) - (3.0 - x1) ** 2), rel=1e-13)
        assert alloc == pytest.approx([x1, 4.0 - x1], rel=1e-12)

    def test_neither_solver_reads_a_peak(self):
        dist = FrontierDistribution([(_PeakRaises(-1.0, 2.0, -1.0), 0.3), (_PeakRaises(-9.0, 6.0, -1.0), 0.7)])
        for u in (0.0, 1.0, 2.6, 40.0):
            val, _ = mixture_value(dist, u)
            assert val == pytest.approx(brute_force_mixture_value(dist, u), rel=1e-12)

    def test_infeasible_promise_returns_the_floors(self):
        # the cap at u = 0.1 is 1.2, below the member's floor 5
        dist = FrontierDistribution([(QuadraticFrontier(0.0, 1.0, -1.0, domain=(5.0, 9.0)), 1.0)])
        val, alloc = mixture_value(dist, 0.1)
        assert val == -np.inf
        assert alloc.tolist() == [5.0]


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


def active_set_value(dist, u):
    """Mixture value of quadratics ``a + b*x + c*x**2`` on ``[0, inf)`` from
    their KKT conditions, independent of `mixture_value` and the oracle.

    At the level ``eta`` each member takes ``max(0, (b - eta) / (-2c))``, so
    the members enter in decreasing order of ``b``; the level of the first
    active set whose level is at least the next ``b`` meets ``u``."""
    a, b, c = np.array([f.coeffs for f in dist.members]).T
    probs = dist.probs
    rate = probs / (-2.0 * c)  # the expectation's fall per unit rise of eta
    order = np.argsort(-b)
    for m in range(1, b.size + 1):
        active = order[:m]
        eta = (rate[active] @ b[active] - u) / rate[active].sum()
        if m == b.size or eta >= b[order[m]]:
            break
    x = np.maximum(0.0, (b - eta) / (-2.0 * c))
    return float(probs @ (a + b * x + c * x * x)), x


@given(
    members=st.lists(
        st.tuples(st.floats(-1.0, 3.0), st.floats(-3.0, 0.3), st.floats(0.0, 1.0), st.floats(-3.0, 0.0)),
        min_size=1,
        max_size=5,
    ),
    u=st.floats(0.0, 30.0),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_water_filling_matches_the_active_set_solution(members, u):
    """Unbounded quadratic families with weights down to ``10**-3`` and ``u``
    up to 30, where a flat member of small weight can hold far more than
    ``u`` or any member's peak."""
    weights = np.array([10.0**lw for *_, lw in members])
    dist = FrontierDistribution(
        [(quadratic(peak, lc, h), w) for (peak, lc, h, _), w in zip(members, weights / weights.sum())]
    )
    val, alloc = mixture_value(dist, u)
    ref, ref_alloc = active_set_value(dist, u)
    assert val == pytest.approx(ref, rel=1e-10, abs=1e-10)
    assert alloc == pytest.approx(ref_alloc, rel=1e-6, abs=1e-6)
    assert abs(dist.probs @ alloc - u) <= 1e-10 * max(1.0, u)


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

    def test_a_nan_midpoint_value_fails_concavity(self):
        class NanStrip(QuadraticFrontier):
            # NaN on (0.6, 0.7), which holds the grid's midpoint 0.625 but no grid point
            def _values(self, us):
                return np.where((us > 0.6) & (us < 0.7), np.nan, super()._values(us))

        rep = verify_mixture_regularity(FrontierDistribution([(NanStrip(-1.0, 2.0, -1.0), 1.0)]), [0.5, 0.75, 1.0])
        assert not rep["midpoint-concavity"].passed
        assert rep["unique-peak"].passed and rep["usc-lower"].passed

    def test_usc_probes_only_the_three_points_it_reads(self):
        # 9 grid values, 36 midpoints, the peak, and the lower boundary with
        # its three nearest probes; the upper side is unbounded
        with mock.patch.object(mixture, "mixture_value", wraps=mixture.mixture_value) as spy:
            rep = verify_mixture_regularity(quad_pair(), np.linspace(1.0, 3.0, 9))
        assert spy.call_count == 50
        assert rep.render() == (
            "suite: mixture\n"
            "[PASS] midpoint-concavity\n"
            "[PASS] unique-peak\n"
            "[PASS] usc-lower  worst=1.364e-12\n"
            "[PASS] usc-upper  (unbounded side)\n"
            "overall: PASS"
        )

    def test_a_member_without_a_peak_leaves_unique_peak_not_applicable(self):
        # log(1 + x) rises for ever, so the mixture has no peak to check; the
        # other checks run as for any family
        log1p = ParametricFrontier(np.log1p, lambda u: 1.0 / (1.0 + u))
        for support in ([(log1p, 0.5), (QuadraticFrontier(-1.0, 2.0, -1.0), 0.5)],
                        [(QuadraticFrontier(-1.0, 2.0, -1.0), 0.25), (log1p, 0.75)]):
            rep = verify_mixture_regularity(FrontierDistribution(support), np.linspace(1.0, 3.0, 9))
            member = [f for f, _ in support].index(log1p)
            assert rep["unique-peak"].passed
            assert rep["unique-peak"].note == f"not applicable: member {member} has no peak"
            assert rep["midpoint-concavity"].passed and rep["usc-lower"].passed
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
    mixture's domain, within 1e-10 outside them, at the mixture peak and
    inside. An unbounded domain's upper end is taken 8 above its lower end,
    past every member's peak.
    """
    weights = np.array([10.0**lw for _, lw in members])
    dist = FrontierDistribution(list(zip([f for f, _ in members], weights / weights.sum())))
    lo_total, hi_total = mixture_domain(dist)
    if math.isinf(hi_total):
        hi_total = lo_total + 8.0
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


def test_level_at_a_bisected_members_peak_takes_few_T_calls():
    # a member without a closed-form argmax, at its peak u = 1: the level
    # switches at eta = 0, where bisection takes all 200 halvings and T is flat
    # within rounding, so the search hands over to the fallback once its
    # bracket lies within 2**-140 of its start width of 0 (91 calls; it spent
    # all 204 before, 461 in all). The fallback guesses the switch from T's
    # values, and at 0 where they cannot place it; the lookahead trees alone
    # would take 2,286 calls
    q = QuadraticFrontier(-1.0, 2.0, -1.0)
    dist = FrontierDistribution([(ParametricFrontier(q.value, lambda u: q.deriv(u, "right")), 1.0)])
    levels = []
    counted = lambda T, *args: roots.interpolated_switch(lambda eta: levels.append(eta) or T(eta), *args)
    got = solve_with(counted, dist, 1.0)
    assert len(levels) == 348
    assert got == solve_with(bisected_level, dist, 1.0)


def workload_family(seed):
    """Family ``seed`` of the pinned values, drawn as the benchmark's mixture
    workload draws its inputs: two to four quadratics with peaks in
    ``[0.5, 3]``, curvatures in ``[-2, -0.5]`` and heights in ``[0, 2]``,
    Dirichlet weights and a promise in ``[0.5, 2.5]``."""
    rng = np.random.default_rng(seed)
    coeffs = []
    for _ in range(int(rng.integers(2, 5))):
        peak, curv, height = float(rng.uniform(0.5, 3.0)), -float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 2.0))
        coeffs.append((height + curv * peak * peak, -2.0 * curv * peak, curv))
    probs = rng.dirichlet(np.ones(len(coeffs)))
    dist = FrontierDistribution([(QuadraticFrontier(*c), p) for c, p in zip(coeffs, probs)])
    return dist, float(rng.uniform(0.5, 2.5))


def mixture_pinned_values(seed):
    """The value, the allocation and the exact oracle's value, as hex strings,
    at the family's promise and at its peak."""
    dist, u = workload_family(seed)
    out = {}
    for name, x in (("u", u), ("peak", mixture_peak(dist))):
        value, alloc = mixture_value(dist, x)
        out[name] = [float(v).hex() for v in (value, *alloc, brute_force_mixture_value(dist, x))]
    return out


MIXTURE_PINS = json.loads((Path(__file__).parent / "mixture_pins.json").read_text())


@pytest.mark.parametrize("seed", range(len(MIXTURE_PINS)))
def test_mixture_values_are_pinned_bit_for_bit(seed):
    # recorded before the distribution kept its arrays and the oracle its
    # assignment table; both must keep every bit
    assert mixture_pinned_values(seed) == MIXTURE_PINS[seed]
