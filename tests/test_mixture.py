import numpy as np
import pytest

from frontierkit import (
    CutoffFrontier,
    EmptySupport,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
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
        assert np.allclose(alloc.values, [1.0, 3.0], atol=1e-8)

    def test_quad_pair_at_one_hits_boundary(self):
        val, alloc = mixture_value(quad_pair(), 1.0)
        oracle = brute_force_mixture_value(quad_pair(), 1.0)
        assert abs(val - (-1.0)) < 1e-10
        assert abs(val - oracle) < 1e-5
        assert np.allclose(alloc.values, [0.0, 2.0], atol=1e-8)

    def test_single_member_degenerate(self):
        f = QuadraticFrontier(-1.0, 2.0, -1.0)
        dist = FrontierDistribution([(f, 1.0)])
        for u in (0.0, 0.7, 2.5):
            val, alloc = mixture_value(dist, u)
            assert abs(val - f.value(u)) < 1e-12
            assert abs(alloc.values[0] - u) < 1e-12

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
            assert abs(alloc.expectation(dist.probs) - u) < 1e-10

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            FrontierDistribution([])

    def test_kinked_members_deterministic_ties(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 3.0], [0.0, 1.0, 1.0])
        dist = FrontierDistribution([(f, 0.5), (f, 0.5)])
        _, alloc = mixture_value(dist, 2.0)
        assert abs(alloc.expectation(dist.probs) - 2.0) < 1e-10
        # ties broken by support order: first member filled first
        assert alloc.values[0] >= alloc.values[1] - 1e-9


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
        assert alloc.values[0] == 0.0
        assert abs(val - brute_force_mixture_value(dist, u)) < 1e-12

    def test_oracle_rejects_non_quadratic_members(self):
        dist = FrontierDistribution([(PiecewiseLinearFrontier([0.0, 1.0], [0.0, 1.0]), 1.0)])
        with pytest.raises(TypeError):
            brute_force_mixture_value(dist, 0.5)


class TestRegularityReport:
    def test_quad_pair_report(self):
        rep = verify_mixture_regularity(quad_pair(), np.linspace(0.0, 4.0, 17))
        assert rep.overall_pass

    def test_cutoff_usc(self):
        base = QuadraticFrontier(-1.0, 2.0, -1.0)
        cut_a = CutoffFrontier(base, 2.0)
        cut_b = CutoffFrontier(QuadraticFrontier(-9.0, 6.0, -1.0), 3.5)
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
