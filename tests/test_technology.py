import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import assert_batched_equals_scalar, foc_gap
from test_lookahead import interior_peak_pair
from frontierkit import (
    AffineFrontier,
    CallableFrontier,
    DivergenceViolation,
    DomainError,
    Frontier,
    InadmissiblePrimitives,
    MoralHazardPrimitives,
    ParametricFrontier,
    PiecewiseLinearFrontier,
    PowerCost,
    PowerUtility,
    QuadraticFrontier,
    Technology,
    UnresolvablePeaks,
    directional_deriv,
    effort_star,
    make_moral_hazard_technology,
    midpoint_concavity_slack,
    verify_ui_assumptions,
)
from frontierkit import mechanism, technology
from frontierkit.roots import solve_monotone
from frontierkit.smoothing import SmoothingParams, _PiecewiseFrontier, build_smooth_pair
from frontierkit.technology import effort_star_array


def bisect_oracle(f, lo, hi, iters=200):
    """Independent plain bisection used to freeze expected values."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def brute_force_f1(prims, u, resolution=1e-4, L_max=3.0):
    """Grid maximization over effort at the stated resolution."""
    L = np.arange(0.0, L_max, resolution)
    vals = prims.w * L - prims.phi.phi_inv(u + prims.kappa.kappa(L))
    return u + prims.lam * float(vals.max())


class TestDefaultInstancePeaks:
    def test_u0_is_half(self, default_tech):
        # oracle: phi'(phi_inv(u)) = 1/(2u) = lam = 1  =>  u0 = 0.5
        u0_oracle = bisect_oracle(lambda u: 1.0 / (2.0 * u) - 1.0, 1e-6, 10.0)
        assert abs(u0_oracle - 0.5) < 1e-12
        assert abs(default_tech.u0 - 0.5) < 1e-10

    def test_u1_and_effort(self, default_prims, default_tech):
        # coupled FOCs: u1 + L^2 = 1/2 and 4L^3 + 4*u1*L = 1; substitution
        # gives 4L*(u1 + L^2) = 1, so L = 0.5 and u1 = 0.25
        L_oracle = bisect_oracle(lambda L: 4 * L * 0.5 - 1.0, 1e-6, 2.0)
        assert abs(L_oracle - 0.5) < 1e-12
        assert abs(default_tech.u1 - 0.25) < 1e-9
        assert abs(effort_star(default_prims, default_tech.u1) - 0.5) < 1e-9

    def test_u1_cross_check_2d_grid(self, default_prims, default_tech):
        us = np.linspace(0.0, 0.5, 501)
        vals = [brute_force_f1(default_prims, u, resolution=1e-3) for u in us]
        assert abs(us[int(np.argmax(vals))] - default_tech.u1) < 2e-3

    def test_corner_u1(self, corner_tech, corner_prims):
        # corner condition: phi'(phi_inv(kappa(L*(0)))) = 0.5 <= lam = 1
        L0 = effort_star(corner_prims, 0.0)
        assert abs(L0 - 1.0) < 1e-10
        assert corner_tech.u1 == 0.0
        # grid search over u confirms the peak at the origin
        us = np.linspace(0.0, corner_tech.u0, 201)
        vals = corner_tech.f1.value(us)
        assert int(np.argmax(vals)) == 0


def ninety_step_bisection(prims, u):
    """The array solve's reference: bracket [1e-14, 1], the upper end doubled
    until the FOC gap turns nonnegative, then exactly 90 halvings."""
    gap = lambda L: foc_gap(prims, u, L)
    lo, hi = np.full_like(u, 1e-14), np.ones_like(u)
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(200):
            short = gap(hi) < 0.0
            if not short.any():
                break
            hi[short] *= 2.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            up = gap(mid) < 0.0
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def two_end_bisection(prims, u):
    """The array solve's halving loop as it was before it kept one bracket
    end: both ends stored and two selects per halving, with the same
    early exit. Returns the result and the number of halvings taken."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ratio, w = technology._foc_ratio(prims), prims.w
    lo, hi = np.full_like(u, 1e-14), np.ones_like(u)
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(200):
            bad = ratio(u, hi) < w
            if not np.any(bad):
                break
            hi[bad] *= 2.0
        mid = 0.5 * (lo + hi)
        for step in range(90):
            up = ratio(u, mid) < w
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
            prev, mid = mid, 0.5 * (lo + hi)
            if step >= technology._FIRST_REPEAT and not np.count_nonzero(mid != prev):
                break
    return mid, step + 1


class TestEffortStar:
    def test_w4_closed_form(self, corner_prims):
        # 4 L^3 = 4 has root 1
        oracle = bisect_oracle(lambda L: 4 * L**3 - 4.0, 1e-6, 5.0)
        assert abs(oracle - 1.0) < 1e-12
        assert abs(effort_star(corner_prims, 0.0) - 1.0) < 1e-10

    def test_w1_closed_form(self, default_prims):
        oracle = bisect_oracle(lambda L: 4 * L**3 - 1.0, 1e-6, 5.0)
        assert abs(oracle - 0.25 ** (1.0 / 3.0)) < 1e-12
        assert abs(effort_star(default_prims, 0.0) - 0.25 ** (1.0 / 3.0)) < 1e-10

    def test_vanishes_at_large_u(self, default_prims):
        us = np.logspace(0, 6, 13)
        Ls = [effort_star(default_prims, u) for u in us]
        assert all(b < a for a, b in zip(Ls, Ls[1:]))
        assert Ls[-1] < 1e-2

    @given(
        u=st.floats(0.0, 5.0),
        w=st.floats(0.1, 10.0),
        b=st.floats(1.2, 4.0),
        a=st.floats(0.2, 0.8),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_foc_residual_scaled(self, u, w, b, a):
        prims = MoralHazardPrimitives(
            lam=1.0, w=w, phi=PowerUtility(a), kappa=PowerCost(b)
        )
        L = effort_star(prims, u)
        residual = abs(
            w * float(prims.phi.phi_prime_at_inv(u + prims.kappa.kappa(L)))
            - float(prims.kappa.kappa_prime(L))
        )
        assert residual < 1e-10

    def test_most_default_solves_take_one_foc_call(self, default_prims, default_tech, monkeypatch):
        # the first FOC call holds the guess and the 2 floats on either side
        calls = []  # FOC calls per solve
        replay = technology.speculate

        def counting(search, f, guess):
            calls.append(0)

            def counted(L):
                calls[-1] += 1
                return f(L)

            return replay(search, counted, guess)

        monkeypatch.setattr(technology, "speculate", counting)
        us = np.linspace(0.0, 3.0 * default_tech.u0, 400).tolist()
        got = [effort_star(default_prims, u) for u in us]
        with np.errstate(divide="ignore", over="ignore"):
            want = [solve_monotone(lambda L: foc_gap(default_prims, u, L), tol=0.0) for u in us]
        assert [L.hex() for L in got] == [L.hex() for L in want]
        assert calls.count(1) >= 0.9 * len(us)

    def test_vectorized_matches_scalar(self, default_prims):
        us = np.linspace(0.0, 2.0, 17)
        vec = effort_star_array(default_prims, us)
        scal = np.array([effort_star(default_prims, u) for u in us])
        assert np.max(np.abs(vec - scal)) < 1e-10

    @pytest.mark.parametrize("a, b, w", [(0.5, 2.0, 1.0), (0.2, 1.2, 0.1), (0.8, 4.0, 10.0), (0.35, 3.1, 2.5)])
    def test_array_solve_is_the_90_step_bisection_bit_for_bit(self, a, b, w):
        prims = MoralHazardPrimitives(lam=1.0, w=w, phi=PowerUtility(a), kappa=PowerCost(b))
        tech = make_moral_hazard_technology(prims)
        special = np.array([0.0, 1e-12, tech.u1, tech.u0, 2.0])
        rng = np.random.default_rng(7)
        batches = [special[i : i + 1] for i in range(special.size)]
        batches += [np.concatenate([special, rng.uniform(0.0, 5.0, size - special.size)]) for size in (8, 4224)]
        for us in batches:
            np.testing.assert_array_equal(effort_star_array(prims, us), ninety_step_bisection(prims, us))

    def test_both_solvers_keep_the_method_foc_bits_on_random_primitives(self):
        # the solvers' FOC reads the primitives' constants once; the
        # references evaluate it through their methods
        rng = np.random.default_rng(20261019)
        special = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-12, 1.0]
        for _ in range(12):
            a, b, w = rng.uniform(0.05, 0.95), rng.uniform(1.05, 6.0), 10.0 ** rng.uniform(-1.5, 1.5)
            prims = MoralHazardPrimitives(lam=1.0, w=w, phi=PowerUtility(a), kappa=PowerCost(b))
            us = np.concatenate([special, rng.uniform(0.0, 5.0, 200), np.exp(rng.uniform(-27.6, 9.2, 200))])
            np.testing.assert_array_equal(effort_star_array(prims, us), ninety_step_bisection(prims, us))
            with np.errstate(divide="ignore", over="ignore"):
                want = [solve_monotone(lambda L: foc_gap(prims, u, L), tol=0.0) for u in us[:12].tolist()]
            assert [effort_star(prims, u).hex() for u in us[:12].tolist()] == [L.hex() for L in want]

    def test_array_solve_does_not_depend_on_the_batch(self, default_prims, default_tech):
        # repeats, as max(X0, u1) makes them, are each solved as if alone
        rng = np.random.default_rng(11)
        distinct = np.concatenate([[0.0, default_tech.u1, default_tech.u0], rng.uniform(0.0, 3.0, 300)])
        us = rng.choice(distinct, 1000)
        solved = effort_star_array(default_prims, us)
        order = rng.permutation(us.size)
        np.testing.assert_array_equal(effort_star_array(default_prims, us[order]), solved[order])
        alone = np.array([effort_star_array(default_prims, us[i : i + 1])[0] for i in range(50)])
        np.testing.assert_array_equal(alone, solved[:50])
        unique, first = np.unique(us, return_index=True)
        np.testing.assert_array_equal(effort_star_array(default_prims, unique), solved[first])

    def test_effort_star_array_on_repeated_unsorted_points_is_each_point_alone(self, default_prims, default_tech):
        # the solve makes no de-duplication of its own, so a repeat is solved
        # again and must come out with the same bits as every other copy
        rng = np.random.default_rng(26)
        distinct = np.concatenate([[0.0, -0.0, 5e-324, default_tech.u1, default_tech.u0], rng.uniform(0.0, 3.0, 40)])
        us = rng.permutation(np.concatenate([distinct, rng.choice(distinct, 120)]))
        got = effort_star_array(default_prims, us)
        alone = [float(effort_star_array(default_prims, [u])[0]) for u in us.tolist()]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in alone]


class TestOneEndEffortLoop:
    """`effort_star_array` keeps one bracket end per halving: it must give the
    two-end loop's bits and evaluate the FOC at as many points."""

    SPECIAL = np.array([0.0, -0.0, 5e-324, 1e-300, 1e10, 1e14, 1e300, np.inf, np.nan])

    @pytest.fixture
    def foc_evals(self, monkeypatch):
        # elements passed to kappa_prime, as the benchmark tracer counts them
        count = [0]
        kappa_prime = PowerCost.kappa_prime

        def counted(self, L):
            count[0] += np.size(L)
            return kappa_prime(self, L)

        monkeypatch.setattr(PowerCost, "kappa_prime", counted)
        return count

    @staticmethod
    def assert_same(prims, us, foc_evals):
        """Both loops' bits and FOC evaluations agree; returns the halvings."""
        foc_evals[0] = 0
        want, halvings = two_end_bisection(prims, us)
        want_evals, foc_evals[0] = foc_evals[0], 0
        got = effort_star_array(prims, us)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert foc_evals[0] == want_evals
        return halvings

    def test_one_end_effort_loop_keeps_the_bits_on_random_primitives(self, foc_evals):
        rng = np.random.default_rng(35)
        for _ in range(60):
            a, b, w = rng.uniform(0.05, 0.95), rng.uniform(1.05, 6.0), 0.03 * 1000.0 ** rng.uniform()
            prims = MoralHazardPrimitives(lam=1.0, w=w, phi=PowerUtility(a), kappa=PowerCost(b))
            us = np.concatenate([self.SPECIAL, rng.uniform(0.0, 5.0, 200), np.exp(rng.uniform(-30.0, 10.0, 199))])
            self.assert_same(prims, us, foc_evals)

    def test_one_end_effort_loop_keeps_the_bits_at_each_batch_size(self, default_prims, foc_evals):
        rng = np.random.default_rng(36)
        us = np.concatenate([self.SPECIAL, rng.uniform(0.0, 3.0, 4224 - self.SPECIAL.size)])
        for u in us[:40]:
            self.assert_same(default_prims, np.array([u]), foc_evals)
        for batch in (us[:8], us[5:13], rng.permutation(us)):
            self.assert_same(default_prims, batch, foc_evals)

    def test_one_end_effort_loop_exits_early_and_at_the_cap_as_before(self, default_prims, foc_evals):
        # ordinary promises repeat their midpoints before 90 halvings; at u =
        # 1e14 the root lies below the bracket's 1e-14, and NaN never settles
        assert self.assert_same(default_prims, np.linspace(0.0, 2.0, 8), foc_evals) < 90
        for stuck in (1e14, np.nan):
            assert self.assert_same(default_prims, np.array([0.25, stuck]), foc_evals) == 90


def fresh_f1(prims):
    """An F1 on ``prims`` that has solved nothing yet."""
    return technology._PostBreakthroughFrontier(prims, 0.0)


class TestValueMemo:
    """F1's value path keeps the efforts of its last call that solved any: a
    warm F1 must give a fresh one's bits on every call, and solve only the
    points that call did not hold."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = technology.effort_star_array
        monkeypatch.setattr(technology, "effort_star_array", lambda p, u: calls.append(np.size(u)) or solve(p, u))
        return calls

    @staticmethod
    def prims():
        return MoralHazardPrimitives(lam=1.0, w=1.0, phi=PowerUtility(0.5), kappa=PowerCost(2.0))

    @staticmethod
    def check(f, prims, us, solves):
        """``f.value(us)`` against a fresh F1's, bit for bit; returns it, with
        ``solves`` holding the effort solves of ``f``'s call alone."""
        us = np.asarray(us, dtype=float)
        want = np.atleast_1d(fresh_f1(prims).value(us))
        solves.clear()
        got = np.atleast_1d(f.value(us))
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
        return got

    def test_calls_against_the_last(self, solves):
        rng = np.random.default_rng(24)
        prims = self.prims()
        f = fresh_f1(prims)
        base = np.concatenate([[0.0, 0.25, 0.5, 0.5], rng.uniform(0.0, 2.0, 200)])
        other = rng.uniform(0.0, 2.0, 50)
        # (call, distinct points it must solve). A call with nothing to solve
        # keeps the memo, so the subset, the empty call and the rows after
        # them solve nothing; a call that solves replaces it
        calls = [
            (base, 203),
            (base[::-1], 0),  # identical
            (np.concatenate([base, other]), 50),  # superset
            (base[::3], 0),  # subset
            (other[:20], 0),  # in the superset, which the subset left in place
            (base[:10], 0),
            (np.array([]), 0),  # empty
            (base[:10], 0),
            (np.append(base[:10], 2.5), 1),  # one new point: the memo is this call's
            (other[:20], 20),  # gone with the superset
        ]
        for us, new in calls:
            self.check(f, prims, us, solves)
            assert solves == ([new] if new else [])

    def test_a_call_solved_from_the_memo_leaves_it_as_it_was(self, solves):
        prims = self.prims()
        f = fresh_f1(prims)
        f.value(np.linspace(0.0, 1.0, 9))
        last = f._last
        for us in (np.linspace(0.0, 1.0, 9)[::-1], np.array([0.5]), np.array([0.25, 0.25]), np.array([])):
            self.check(f, prims, us, solves)
            assert solves == [] and f._last is last
        self.check(f, prims, [0.5, 3.0], solves)
        assert solves == [1] and f._last[0].tolist() == [0.5, 3.0]

    def test_signed_zeros_and_points_outside_the_domain(self, solves):
        prims = self.prims()
        f = fresh_f1(prims)
        # -0.0 equals 0.0, and both solve alike: u enters only as u + kappa(L)
        for us, new in (([0.0, 0.3], 2), ([-0.0, 0.3], 0), ([0.0, -0.0], 0), ([-0.0], 0), ([0.0], 0)):
            got = self.check(f, prims, us, solves)
            assert solves == ([new] if new else [])
            assert got[0] == float(fresh_f1(prims).value(0.0))
        # the memo still holds the first call's 0.3, so only 5.0 is new
        outside = [-1.0, -5e-324, math.nan, -math.inf, 0.3, 5.0, 0.3]
        for us, new in ((outside, 1), (outside[::-1], 0), ([0.3, 5.0], 0)):
            self.check(f, prims, us, solves)
            assert solves == ([new] if new else [])
        assert np.all(f.value(np.array(outside[:4])) == -math.inf)

    def test_one_sort_keeps_the_bits_of_np_unique_and_intersect1d(self, default_prims):
        # the value path as it was, with `np.unique` and `np.intersect1d`: the
        # one-sort path gives its values, its memo and its memo's identity
        class Reference(technology._PostBreakthroughFrontier):
            @technology._quiet
            def _val(self, us):
                p = self._prims
                u, back = np.unique(us, return_inverse=True)
                _, i, j = np.intersect1d(self._last[0], u, assume_unique=True, return_indices=True)
                L, miss = np.empty_like(u), np.ones(u.shape, dtype=bool)
                L[j], miss[j] = self._last[1][i], False
                if j.size < u.size:
                    L[miss] = technology.effort_star_array(p, u[miss])
                    self._last = (u, L)
                L = L[back]
                return us + p.lam * (p.w * L - p.phi.phi_inv(us + p.kappa.kappa(L)))

        tech = make_moral_hazard_technology(default_prims)
        seen = []
        value = tech.f1.value
        tech.f1.value = lambda u: seen.append(np.array(u, dtype=float)) or value(u)
        grid = mechanism.TimeGrid(horizon=6.0, step=0.05, r=1.0)
        m = mechanism.Mechanism.from_grid(grid, np.linspace(0.05, 0.45, grid.n_cells), x0_tail=0.3)
        mechanism.payoff(mechanism.no_delay_improve(m, tech), tech, mechanism.BreakthroughDistribution.exponential(0.8))
        (runs,) = seen  # the promises of a no-delay payoff: long runs at u1
        assert np.count_nonzero(runs == tech.u1) > runs.size // 4
        rng = np.random.default_rng(38)
        fresh = rng.uniform(0.0, 0.6, 40)
        calls = [
            runs,
            runs[::-1],  # all hits
            np.array([0.0, -0.0, 0.3, -0.0]),
            np.array([-0.0, 0.0]),
            fresh,  # all misses
            np.concatenate([fresh[::2], rng.uniform(0.0, 0.6, 15), fresh[:3]]),  # partial overlap
            np.array([]),
            np.array([-0.0]),
            np.array([0.0, 0.0, 0.25]),
            np.array([0.25]),
        ]
        f, ref = fresh_f1(default_prims), Reference(default_prims, 0.0)
        as_int = lambda a: np.asarray(a, dtype=float).view(np.int64).tolist()
        for us in calls:
            before, ref_before = f._last, ref._last
            assert as_int(f.value(us)) == as_int(ref.value(us))
            assert (f._last is before) == (ref._last is ref_before)
            assert [as_int(a) for a in f._last] == [as_int(a) for a in ref._last]

    @pytest.mark.parametrize("field", ["phi.a", "kappa.b", "w", "lam"])
    def test_frozen_primitives(self, field):
        # the memo has no key: primitives that cannot change keep it valid
        prims = self.prims()
        owner, attr = (prims, field) if "." not in field else (getattr(prims, field.split(".")[0]), field[-1])
        old = getattr(owner, attr)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(owner, attr, old * 1.1)
        assert getattr(owner, attr) == old

    def test_the_derivative_path_neither_reads_nor_writes_it(self, solves, monkeypatch):
        prims = self.prims()
        f = fresh_f1(prims)
        us = np.linspace(0.1, 1.0, 7)
        f.value(us)
        scalar = []
        solve = technology.effort_star
        monkeypatch.setattr(technology, "effort_star", lambda p, u: scalar.append(u) or solve(p, u))
        np.testing.assert_array_equal(f.deriv(us, "right"), fresh_f1(prims).deriv(us, "right"))
        assert len(scalar) == 2 * us.size
        self.check(f, prims, us, solves)
        assert solves == []


class TestOneSidedDerivatives:
    def test_f0_deriv_at_half(self, default_tech):
        # analytic: 1 - 1/phi'(0.25) = 1 - 2*0.5 = 0; finite-difference oracle
        h = 1e-7
        fd = (default_tech.f0.value(0.5 + h) - default_tech.f0.value(0.5 - h)) / (2 * h)
        assert abs(fd) < 1e-6
        assert abs(default_tech.f0.left_deriv(0.5)) < 1e-10
        assert abs(default_tech.f0.right_deriv(0.5)) < 1e-10

    def test_piecewise_linear_kink(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert f.left_deriv(1.0) == 1.0
        assert f.right_deriv(1.0) == -1.0

    def test_array_directional_deriv_is_the_scalar_side_per_element(self, default_tech):
        kinked = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        # a < b, a > b, a == b, both domain ends (+inf/-inf) and the kink at 1
        a = np.array([0.5, 0.5, 0.5, 0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.5])
        b = np.array([0.9, 0.1, 0.5, -1.0, 0.5, 3.0, 1.0, 2.0, 0.0, 1.0, 1.5])
        for f in (kinked, default_tech.f0, default_tech.f1):
            expected = [f.left_deriv(x) if x > y else f.right_deriv(x) for x, y in zip(a, b)]
            np.testing.assert_array_equal(directional_deriv(f, a, b), expected)
            column = directional_deriv(f, a[:, None], b[:, None])
            np.testing.assert_array_equal(column[:, 0], expected)
            assert directional_deriv(f, 0.5, 0.1) == f.left_deriv(0.5)
        assert directional_deriv(kinked, 0.0, -1.0) == math.inf
        assert directional_deriv(kinked, 2.0, 3.0) == -math.inf
        np.testing.assert_array_equal(directional_deriv(kinked, 1.0, [2.0, 0.0]), [-1.0, 1.0])

    def test_array_calls_match_scalar_calls_for_every_class(self, default_tech):
        quad = QuadraticFrontier(0.25, 1.0, -1.0)
        kinked = PiecewiseLinearFrontier([0.0, 0.5, 0.7], [0.0, 0.3, 0.28])
        saddle = CallableFrontier(lambda u: 10.0 * u - 5.0 * u * u - (u - 1.0) ** 3, domain=(0.0, 2.0))
        # within one difference step of both ends, the step shrinks
        h = CallableFrontier.FD_STEP * np.array([0.1, 0.5, 1.0, 2.0])
        cases = [
            (quad, np.linspace(0.0, 3.0, 31)),
            (AffineFrontier(0.2, 0.6, domain=(0.0, 0.5)), np.linspace(0.0, 0.5, 11)),
            (kinked, np.concatenate([kinked.xs, np.nextafter(0.5, [0.0, 1.0]), np.linspace(0.0, 0.7, 15)])),
            (saddle, np.concatenate([[0.0, 1.0, 2.0], h, 2.0 - h])),
            (default_tech.f0, np.linspace(0.0, 1.0, 21)),
            (default_tech.f1, np.linspace(0.0, 1.0, 21)),
        ]
        for f, us in cases:
            assert_batched_equals_scalar(f, us)

    def test_peak_sandwich(self, default_tech):
        for f in (default_tech.f0, default_tech.f1):
            u = f.peak
            assert f.right_deriv(u) <= 1e-8 <= f.left_deriv(u) + 2e-8

    def test_domain_error(self, default_tech):
        with pytest.raises(DomainError):
            default_tech.f0.left_deriv(-0.5)


def assert_within_2_ulps(got, ref):
    # ulps at unit scale below 1: near 0 the float derivative test cannot
    # tell points closer than that apart
    assert abs(got - ref) <= 2.0 * math.ulp(max(abs(got), abs(ref), 1.0)), (got, ref)


class TestArgmaxLinear:
    """``argmax_linear`` overrides against the base-class bisection, and peaks."""

    def test_overrides_match_the_base_bisection(self):
        cases = [QuadraticFrontier(-9.0, 6.0, -1.0), QuadraticFrontier(0.3, 2.5, -0.7, domain=(0.2, 4.0))]
        # eta = 6 puts the tilted vertex at 0, eta = -2 at 4; [2, 2] is a point
        etas = np.linspace(-4.0, 9.0, 53).tolist() + [6.0, -2.0]
        for f in cases:
            for lo, hi in ((None, None), (0.5, 2.0), (0.2, 1.0), (2.0, 2.0)):
                for eta in etas:
                    for largest in (False, True):
                        got = f.argmax_linear(eta, lo, hi, largest)
                        assert_within_2_ulps(got, Frontier.argmax_linear(f, eta, lo, hi, largest))

    def test_piecewise_linear_at_slopes_and_knots(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 2.5, 4.0], [0.0, 2.0, 2.75, 1.25])
        assert f.slopes.tolist() == [2.0, 0.5, -1.0]
        for i, slope in enumerate(f.slopes.tolist()):
            # a flat tilted segment: every point of [xs[i], xs[i+1]] is a maximizer
            assert f.argmax_linear(slope) == f.xs[i]
            assert f.argmax_linear(slope, largest=True) == f.xs[i + 1]
        # between two slopes the kink is the unique maximizer
        assert f.argmax_linear(1.0) == f.argmax_linear(1.0, largest=True) == 1.0
        assert f.argmax_linear(0.0) == f.argmax_linear(0.0, largest=True) == 2.5
        # bounds at knots: the maximizer clips to them
        assert f.argmax_linear(0.0, lo=1.0, hi=2.5) == 2.5
        assert f.argmax_linear(0.0, lo=2.5, hi=4.0) == 2.5
        assert f.argmax_linear(3.0, lo=1.0, hi=2.5) == 1.0
        assert f.argmax_linear(-5.0, lo=1.0, hi=2.5, largest=True) == 2.5
        assert f.argmax_linear(0.5, lo=1.0, hi=2.5) == 1.0
        assert f.argmax_linear(0.5, lo=1.0, hi=2.5, largest=True) == 2.5

    def test_affine_at_and_beside_its_slope(self):
        f = AffineFrontier(0.2, 0.6, domain=(0.1, 0.5))
        assert f.argmax_linear(0.6) == 0.1
        assert f.argmax_linear(0.6, largest=True) == 0.5
        for largest in (False, True):
            assert f.argmax_linear(np.nextafter(0.6, 1.0), largest=largest) == 0.1
            assert f.argmax_linear(np.nextafter(0.6, 0.0), largest=largest) == 0.5
            assert f.argmax_linear(0.6, 0.2, 0.3, largest) == (0.3 if largest else 0.2)

    def test_linear_closed_forms_are_the_base_bisection(self):
        # breakpoints and slopes on a grid of quarters keep every slope
        # exact, so the slopes never rise and some etas hit one exactly. No
        # breakpoint sits at 0: bisection across 0 stops 200 halvings short
        # of a kink there (at about 1e-61), where the closed form is exact
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            xs = np.cumsum(np.concatenate([[rng.integers(-8, 4)], rng.integers(1, 8, n)])) / 4.0 + 0.125
            slopes = np.sort(rng.choice(np.arange(-12, 13), n, replace=False))[::-1] / 4.0
            pl = PiecewiseLinearFrontier(xs, np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))]))
            assert pl.slopes.tolist() == slopes.tolist()
            affine = AffineFrontier(rng.normal(), slopes[0], domain=(xs[0], xs[-1]))
            for f in (pl, affine):
                a, b = sorted(rng.uniform(xs[0], xs[-1], 2).tolist())
                etas = rng.uniform(-4.0, 4.0, 4).tolist() + slopes.tolist()
                for lo, hi in ((None, None), (a, b), (xs[0], b), (a, xs[-1]), (a, a)):
                    for eta in etas:
                        for largest in (False, True):
                            got = f.argmax_linear(eta, lo, hi, largest)
                            assert got == Frontier.argmax_linear(f, eta, lo, hi, largest), (f, eta, lo, hi)

    def test_peaks_keep_their_closed_forms(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = rng.normal(), rng.normal(0.0, 3.0), -rng.uniform(0.05, 3.0)
            lo, hi = sorted(rng.uniform(-1.0, 4.0, 2))
            for domain in ((0.0, math.inf), (lo, hi)):
                quad = QuadraticFrontier(a, b, c, domain=domain)
                expected = min(max(-b / (2.0 * c), domain[0]), domain[1])
                assert quad.peak == expected and math.copysign(1.0, quad.peak) == math.copysign(1.0, expected)

            xs = np.cumsum(rng.uniform(0.1, 1.0, 6)) - 0.5
            slopes = np.sort(rng.uniform(-3.0, 3.0, 5))[::-1]
            ys = rng.normal() + np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
            pl = PiecewiseLinearFrontier(xs, ys)
            assert pl.peak == xs[np.argmax(ys)]

            slope = float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.0, 2.0))
            affine = AffineFrontier(a, slope, domain=(lo, hi))
            assert affine.peak == (hi if slope >= 0 else lo)


class TestFrontierValues:
    def test_f1_matches_brute_force(self, default_prims, default_tech):
        for u in np.linspace(0.0, 0.6, 13):
            expected = brute_force_f1(default_prims, float(u))
            assert abs(default_tech.f1.value(float(u)) - expected) < 1e-6

    def test_derivative_gap_formula(self, default_prims, default_tech):
        # F0'(u) - F1'(u) = lam*[1/phi'(phi_inv(u+kappa(L*))) - 1/phi'(phi_inv(u))]
        p = default_prims
        for u in np.linspace(0.05, 0.45, 9):
            L = effort_star(p, float(u))
            expected = p.lam * (
                1.0 / float(p.phi.phi_prime_at_inv(u + p.kappa.kappa(L)))
                - 1.0 / float(p.phi.phi_prime_at_inv(u))
            )
            got = default_tech.f0.right_deriv(u) - default_tech.f1.right_deriv(u)
            assert expected > 0
            assert abs(got - expected) < 1e-9

    def test_envelope_derivative(self, default_prims, default_tech):
        p = default_prims
        h = 1e-6
        for u in (0.1, 0.25, 0.4):
            fd = (default_tech.f1.value(u + h) - default_tech.f1.value(u - h)) / (2 * h)
            L = effort_star(p, u)
            env = 1.0 - p.lam / float(p.phi.phi_prime_at_inv(u + p.kappa.kappa(L)))
            assert abs(fd - env) < 1e-5


def one_of_each_frontier(tech):
    """A frontier of every class in the package: the closed forms, the
    technology's F0 and F1, both smoothed fronts and a lowered front."""
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    return [
        QuadraticFrontier(-1.0, 2.0, -1.0),
        QuadraticFrontier(0.0, 1.0, -1.0, domain=(0.5, 2.0)),
        AffineFrontier(0.5, -1.0, (0.25, 1.5)),
        PiecewiseLinearFrontier([0.0, 1.0, 3.0], [0.0, 1.0, 1.0]),
        ParametricFrontier(np.log1p, lambda u: 1.0 / (1.0 + u)),
        CallableFrontier(lambda u: -((u - 1.0) ** 2), domain=(0.0, 4.0)),
        tech.f0,
        tech.f1,
        pair.f0n,
        pair.f1n,
        _PiecewiseFrontier(pair.f1n.pieces, lowered=(pair.u_star_n, pair.params.zeta / 8.0)),
    ]


def package_frontier_classes():
    found, todo = set(), [Frontier]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("frontierkit."):
                found.add(cls)
            todo.append(cls)
    return found


class TestOneNumberValue:
    """``value`` on a float or ``np.float64`` skips the array masks and gives
    the bits of a one-point array, for every frontier class."""

    @pytest.fixture(scope="class")
    def fronts(self, default_tech):
        return one_of_each_frontier(default_tech)

    def test_every_frontier_class_is_covered(self, fronts):
        assert {type(f) for f in fronts} == package_frontier_classes()

    def test_a_number_gets_the_bits_of_a_one_point_array(self, fronts):
        for f in fronts:
            lo, hi = f.domain
            top = hi if math.isfinite(hi) else lo + 3.0
            points = [lo, hi, 0.5 * (lo + top), 0.3 * lo + 0.7 * top, top]
            points += [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo - 1.0, hi + 1.0, np.nan]
            for x in points:
                # a closed form overflows at an unbounded domain's end, u = inf
                with np.errstate(over="ignore", invalid="ignore"):
                    want = float(f.value(np.array([x]))[0])
                    for one in (float(x), np.float64(x)):
                        got = f.value(one)
                        assert type(got) is float and got.hex() == want.hex(), (f, x)

    def test_outside_the_domain_the_hook_is_not_called(self, fronts):
        for f in fronts:
            lo, hi = f.domain
            with mock.patch.object(f, "_values", side_effect=AssertionError("hook called")):
                outside = [np.nextafter(lo, -np.inf), np.nan] + [np.nextafter(hi, np.inf)] * math.isfinite(hi)
                for x in outside:
                    assert f.value(float(x)) == -np.inf


class TestVerifyUiAssumptions:
    def test_default_instance_passes(self, default_tech):
        grid = np.linspace(0.01, default_tech.u0, 40)
        rep = verify_ui_assumptions(default_tech, grid)
        assert rep.overall_pass
        rep["peak-identity"]  # identity residual check ran
        assert rep["peak-identity"].worst_violation < 1e-8

    def test_corner_instance(self, corner_tech):
        grid = np.linspace(0.01, corner_tech.u0, 40)
        rep = verify_ui_assumptions(corner_tech, grid)
        assert rep.overall_pass
        assert rep["peak-identity"].note == "not applicable (corner)"

    def test_nan_derivative_gap_fails(self):
        class NanAtHalf(QuadraticFrontier):
            def _derivs(self, u, side):
                d = super()._derivs(u, side)
                return np.where(u == 0.5, math.nan, d) if side == "right" else d

        # F1' - F0' = -1 everywhere except the NaN at u = 0.5
        f0 = QuadraticFrontier(0.0, 2.0, -1.0)
        f1 = NanAtHalf(-0.5, 1.0, -1.0)
        tech = Technology(f0=f0, f1=f1, u0=1.0, u1=0.5, u_star=0.0)
        check = verify_ui_assumptions(tech, np.linspace(0.0, 1.0, 11))["gap-derivative-negative"]
        assert not check.passed
        assert check.location == "u=0.5"
        assert math.isnan(check.worst_violation)
        tech.f1 = QuadraticFrontier(-0.5, 1.0, -1.0)
        check = verify_ui_assumptions(tech, np.linspace(0.0, 1.0, 11))["gap-derivative-negative"]
        assert check.passed and check.location == "u=0" and check.worst_violation == 0.0

    def test_effort_foc_residual(self, default_tech, corner_tech, monkeypatch):
        grid = np.linspace(0.0, default_tech.u0, 200)
        for tech in (default_tech, corner_tech):
            check = verify_ui_assumptions(tech, grid)["effort-foc-residual"]
            assert check.passed and 0.0 < check.worst_violation <= 1e-15
        quad = Technology(f0=default_tech.f0, f1=QuadraticFrontier(0.0, 1.0, -1.0), u0=0.5, u1=0.25, u_star=0.0)
        assert verify_ui_assumptions(quad, grid)["effort-foc-residual"].note == "not applicable (no effort problem)"
        # each solver is checked: one off by a relative 1e-9, or NaN, fails
        for name, off in (("effort_star_array", lambda L: L * (1.0 + 1e-9)), ("effort_star", lambda L: math.nan)):
            with monkeypatch.context() as m:
                solve = getattr(technology, name)
                m.setattr(technology, name, lambda p, u: off(solve(p, u)))
                assert not verify_ui_assumptions(default_tech, grid)["effort-foc-residual"].passed

    def test_u_star_at_origin_reads_the_gap(self, default_prims, monkeypatch):
        # an interior peak (u = 1/3) fails, whatever u_star says
        f0, f1 = interior_peak_pair()
        tech = Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)
        check = verify_ui_assumptions(tech, np.linspace(0.0, 0.5, 7))["u-star-at-origin"]
        assert not check.passed and check.location == "u=0.333333"
        assert check.worst_violation == pytest.approx(0.2 / 6.0)
        tech.f1 = QuadraticFrontier(0.3, 0.0, -1.3)
        check = verify_ui_assumptions(tech, np.linspace(0.0, 0.5, 7))["u-star-at-origin"]
        assert check.passed and check.worst_violation == 0.0 and check.location == ""
        # on the suite's grid F1's efforts come from `concavity-F1`'s solve:
        # the other array solve is `effort-foc-residual`'s
        tech = make_moral_hazard_technology(default_prims)
        sizes, solve = [], technology.effort_star_array
        monkeypatch.setattr(technology, "effort_star_array", lambda p, u: sizes.append(np.size(u)) or solve(p, u))
        assert verify_ui_assumptions(tech, np.linspace(0.0, tech.u0, 200)).overall_pass
        assert len(sizes) == 2 and sizes[1] == 200

    def test_degenerate_grid(self, default_tech):
        rep = verify_ui_assumptions(default_tech, [default_tech.u0])
        assert rep.overall_pass
        assert "skipped" in rep["gap-derivative-negative"].note


    def test_peak_identity_is_bounded_in_solver_steps(self, default_tech):
        # u0 = 6.05e9: the residual 3.43e-7 is 0.36 ulp(u0), under 16 steps
        # of the u0 and u1 solves but over an absolute 1e-8
        prims = MoralHazardPrimitives(
            lam=0.03745174282380609,
            w=3.3142072380841694,
            phi=PowerUtility(0.8771797576704402),
            kappa=PowerCost(5.142785381305769),
        )
        tech = make_moral_hazard_technology(prims)
        check = verify_ui_assumptions(tech, [tech.u0])["peak-identity"]
        assert check.passed and 1e-8 < check.worst_violation <= 16.0 * math.ulp(tech.u0)
        # at u0 = 0.5 a step is 1e-12, so a u1 off by 1e-10 fails
        off = dataclasses.replace(default_tech, u1=default_tech.u1 + 1e-10)
        assert not verify_ui_assumptions(off, [off.u0])["peak-identity"].passed


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["lam", "w"])
def test_non_finite_primitives_are_rejected(field, bad):
    kw = {"lam": 1.0, "w": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must"):
        MoralHazardPrimitives(**kw, phi=PowerUtility(0.5), kappa=PowerCost(2.0))


@pytest.mark.parametrize("b", [math.nan, math.inf])
def test_non_finite_cost_exponent_is_rejected(b):
    with pytest.raises(ValueError, match="cost exponent"):
        PowerCost(b)


def test_exponents_are_stored_as_floats():
    assert type(PowerCost(2).b) is float and type(PowerUtility(np.float32(0.5)).a) is float
    assert PowerCost(2) == PowerCost(2.0) and hash(PowerUtility(0.5)) == hash(PowerUtility(0.5))


def test_values_at_huge_promises_are_quietly_minus_inf(default_prims):
    # phi_inv overflows to +inf there; warnings are errors in this suite
    tech = make_moral_hazard_technology(default_prims)
    huge = [1e200, 1e300, math.inf]
    for f in (tech.f0, tech.f1):
        assert f.value(huge).tolist() == [-math.inf] * 3
        assert [f.value(u) for u in huge] == [-math.inf] * 3


def test_frontiers_overflowing_just_above_u0_are_refused(monkeypatch):
    # u0 = 0.99999999989, but phi_inv(v) = v**(1/a) overflows from about
    # v = 1 + 3.6e-9 on, so F0 and F1 were -inf just above u0; the build
    # refuses it from u0 and a alone, before any effort solve
    def no_solve(*args):
        raise AssertionError("the refusal needs no effort solve")

    monkeypatch.setattr(technology, "effort_star", no_solve)
    monkeypatch.setattr(technology, "effort_star_array", no_solve)
    prims = MoralHazardPrimitives(
        lam=0.017543434968738916,
        w=1.4857360146665404,
        phi=PowerUtility(5.043791355166327e-12),
        kappa=PowerCost(1.2138866499101868),
    )
    with pytest.raises(InadmissiblePrimitives, match="`phi.exponent` = 5.04379e-12 makes phi_inv"):
        make_moral_hazard_technology(prims)


def test_divergence_violation():
    # the marginal effort cost at L = 1e6 stays below twice the wage
    prims = MoralHazardPrimitives(lam=1.0, w=5.0, phi=PowerUtility(0.95), kappa=PowerCost(1.05))
    with pytest.raises(DivergenceViolation):
        make_moral_hazard_technology(prims)


@given(
    lam=st.floats(0.1, 10.0),
    w=st.floats(0.1, 10.0),
    a=st.floats(0.05, 0.95),
    b=st.floats(1.05, 6.0),
)
@example(lam=0.2204, w=0.1626, a=0.5139, b=1.0857)  # kappa(L1) = 1.7e-19
@settings(max_examples=40, deadline=None, derandomize=True)
def test_peak_properties_over_the_admissible_box(lam, w, a, b):
    """``0 <= u1 < u0``, the peak identity and concavity of F1 across the box.

    ``u0 = (a/lam)**(a/(1-a)) > 1e6`` (``a`` near 1, ``lam`` small) is
    excluded: the float spacing at ``u0`` approaches the 1e-8 identity
    tolerance there.

    Where ``u0 - u1 = kappa(L1) <= 16 * max(1e-12, ulp(u0))``, with
    ``kappa'(L1) = w*lam`` (``b`` near 1, ``w*lam`` small), ``u1`` cannot be
    resolved from ``u0`` and the build must refuse the primitives by name.

    Instances that `MoralHazardPrimitives.validate` rejects are not admissible.
    """
    u0 = (a / lam) ** (a / (1.0 - a))
    if u0 > 1e6:
        reject()
    prims = MoralHazardPrimitives(lam=lam, w=w, phi=PowerUtility(a), kappa=PowerCost(b))
    try:
        prims.validate()
    except DivergenceViolation:
        reject()
    if (w * lam / b) ** (b / (b - 1.0)) <= 16.0 * max(1e-12, math.ulp(u0)):
        with pytest.raises(UnresolvablePeaks, match="`lambda`, `w`, `phi.exponent` and `kappa.exponent`"):
            make_moral_hazard_technology(prims)
        return
    tech = make_moral_hazard_technology(prims)
    assert 0.0 <= tech.u1 < tech.u0
    if tech.u1 > 0.0:
        L1 = effort_star(prims, tech.u1)
        assert abs(tech.u0 - tech.u1 - float(prims.kappa.kappa(L1))) <= 1e-8
    assert midpoint_concavity_slack(tech.f1, np.linspace(0.0, tech.u0, 9)) > -1e-10
