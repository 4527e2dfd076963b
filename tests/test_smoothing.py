"""Smooth approximant construction: derivative bounds, ordering, convergence."""

import copy
import dataclasses

import numpy as np
import pytest

from conftest import assert_batched_equals_scalar
from frontierkit import smoothing, technology
from frontierkit.errors import DomainError, ParamsOutOfRange
from frontierkit.frontiers import (
    AffineFrontier,
    ParametricFrontier,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
)
from frontierkit.smoothing import (
    SmoothingParams,
    _Core,
    _core_error,
    _StrictFixFrontier,
    _evaluate,
    _window_plan,
    averaged_right_derivative,
    build_sequence,
    build_smooth_pair,
    verify_monster,
)
from frontierkit.technology import Technology

NS = [8, 16, 32, 64]


def quad_tech() -> Technology:
    # smooth fixture: closed-form parabolic pair with a wide peak separation
    f0 = QuadraticFrontier(0.25, 1.0, -1.0)  # 0.5 - (u - 0.5)^2
    f1 = QuadraticFrontier(0.9975, 0.1, -1.0)  # 1 - (u - 0.05)^2
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.05, u_star=0.0)


def kinked_tech() -> Technology:
    f0 = PiecewiseLinearFrontier([0.0, 0.5, 0.7], [0.0, 0.3, 0.28])
    f1 = PiecewiseLinearFrontier([0.0, 0.1, 0.45, 0.7], [0.8, 0.85, 0.8, 0.6])
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.1, u_star=0.0)


@pytest.fixture(scope="module", params=["quad", "kinked"])
def tech_and_pairs(request):
    tech = quad_tech() if request.param == "quad" else kinked_tech()
    return tech, build_sequence(tech, NS)


def core_grid(tech, n, count=25):
    return np.linspace(1.0 / n, tech.u0 - 2.0 / n, count)


class TestAveragedDerivative:
    def test_affine_source_exact(self):
        f = AffineFrontier(0.2, 0.6, (0.0, 0.5))
        params = SmoothingParams(n=8, delta=0.05, gamma=0.1, zeta=0.2, eps=0.09)
        got = averaged_right_derivative(f, 0.2, params)
        assert got == pytest.approx(0.6 - 0.1 * 0.2, abs=1e-12)

    def test_straddled_kink_averages_the_slopes(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        params = SmoothingParams(n=8, delta=0.1, gamma=1e-9, zeta=0.02, eps=0.009)
        u = 1.0 - 0.05  # window [u, u+delta] straddles the kink symmetrically
        got = averaged_right_derivative(f, u, params)
        assert got == pytest.approx(-params.gamma * u, abs=1e-12)

    def test_window_outside_domain_rejected(self):
        f = PiecewiseLinearFrontier([0.0, 0.5, 0.7], [0.0, 0.3, 0.28])
        params = SmoothingParams(n=8, delta=0.05, gamma=0.1, zeta=0.2, eps=0.09)
        with pytest.raises(DomainError):
            averaged_right_derivative(f, 0.68, params)
        # one window of an array that leaves the domain rejects the call
        with pytest.raises(DomainError, match=r"window \[0.68"):
            averaged_right_derivative(f, np.array([0.1, 0.68, 0.2]), params)

    def test_matches_smoothed_frontier_derivative(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        pair = pairs[0]
        us = core_grid(tech, pair.params.n, 7)
        for u in us:
            direct = averaged_right_derivative(tech.f0, float(u), pair.params)
            assert pair.f0n.right_deriv(float(u)) == pytest.approx(direct, abs=1e-9)
        # an array is the scalar calls, bit for bit
        np.testing.assert_array_equal(
            averaged_right_derivative(tech.f0, us, pair.params),
            [averaged_right_derivative(tech.f0, float(u), pair.params) for u in us],
        )


class TestParams:
    def test_zeta_must_exceed_twice_eps(self):
        with pytest.raises(ParamsOutOfRange):
            SmoothingParams(n=8, delta=0.05, gamma=0.1, zeta=0.1, eps=0.06)

    def test_window_must_fit_below_one_over_n(self):
        with pytest.raises(ParamsOutOfRange):
            SmoothingParams(n=8, delta=0.2, gamma=0.1, zeta=0.2, eps=0.09)

    def test_n_too_small_for_peak_separation(self):
        with pytest.raises(ParamsOutOfRange):
            SmoothingParams.auto(quad_tech(), 4)

    def test_smallest_level_is_the_least_that_validate_for_accepts(self):
        # separations where 1/n meets (u0 - u1)/3 exactly, and random ones
        rng = np.random.default_rng(3)
        seps = [3.0 / k for k in (2, 3, 6, 7, 31, 1000, 2**20)] + list(10.0 ** rng.uniform(-9, 0.5, 200))
        for sep in seps:
            tech = Technology(f0=None, f1=None, u0=1.0 + sep, u1=1.0, u_star=0.0)
            n = smoothing.smallest_level(tech)
            params = SmoothingParams(n=n, delta=0.5 / n, gamma=0.1 / (tech.u0 * n), zeta=0.9 / n, eps=0.4 / n)
            params.validate_for(tech)
            if n > 2:
                with pytest.raises(ParamsOutOfRange, match="too small"):
                    dataclasses.replace(params, n=n - 1).validate_for(tech)

    def test_auto_params_satisfy_ranges(self):
        tech = quad_tech()
        for n in NS:
            p = SmoothingParams.auto(tech, n)
            assert 0 < p.delta < 1 / n
            assert 0 < p.gamma < 1 / (tech.u0 * n)
            assert 2 * p.eps < p.zeta < 2 / n

    @pytest.mark.parametrize("n", [16, 64])
    def test_one_core_error_evaluation_per_auto_and_build(self, n, monkeypatch):
        evaluated = []
        real = smoothing._core_deviation
        monkeypatch.setattr(
            smoothing, "_core_deviation", lambda tech, p: evaluated.append(p) or real(tech, p)
        )
        tech = quad_tech()
        params = SmoothingParams.auto(tech, n)
        build_smooth_pair(tech, params)
        assert evaluated == [params]
        # hand-made params are still checked against the budget
        hand = dataclasses.replace(params, delta=0.5 * params.delta)
        build_smooth_pair(tech, hand)
        assert evaluated == [params, hand]
        # a Technology whose frontier changed is evaluated afresh
        tech.f1 = kinked_tech().f1
        _core_error(tech, params)
        assert evaluated == [params, hand, params]


class TestDerivativeEnvelope:
    def test_natural_bound(self, tech_and_pairs):
        # the smoothed slope sits between F^-(u + 1/n) - 1 and F^+(u) on the core
        tech, pairs = tech_and_pairs
        for pair in pairs:
            n = pair.params.n
            for u in core_grid(tech, n):
                u = float(u)
                for f_src, f_n in ((tech.f0, pair.f0n), (tech.f1, pair.f1n)):
                    d = averaged_right_derivative(f_src, u, pair.params)
                    assert d <= f_src.right_deriv(u) + 1e-9
                    assert d >= f_src.left_deriv(u + 1.0 / n) - 1.0 - 1e-9
                    assert f_n.right_deriv(u) == pytest.approx(d, abs=1e-9)

    def test_strictly_decreasing_slopes(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        for pair in pairs:
            us = np.linspace(1e-3, tech.u0 + 0.1, 301)
            for f in (pair.f0n, pair.f1n):
                ds = np.array([f.right_deriv(float(u)) for u in us])
                assert np.all(np.diff(ds) < 0)

    def test_continuously_differentiable_at_joins(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        for pair in pairs:
            for f in (pair.f0n, pair.f1n):
                for k in f.knots:
                    assert f.left_deriv(float(k)) == pytest.approx(
                        f.right_deriv(float(k)), abs=1e-9
                    )


class TestOrderingAndPeaks:
    def test_pair_strictly_ordered_with_margin(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        for pair in pairs:
            p = pair.params
            us = core_grid(tech, p.n, 41)
            gap = pair.f1n.value(us) - pair.f0n.value(us)
            assert np.min(gap) >= p.zeta - 2 * p.eps - 1e-9
            wide = np.linspace(0.0, tech.u0 + 1.0, 201)
            assert np.min(pair.f1n.value(wide) - pair.f0n.value(wide)) > 0

    def test_peak_locations(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        for pair in pairs:
            n = pair.params.n
            assert tech.u0 - 1.0 / n - 1e-9 <= pair.u0_n <= tech.u0 + 1e-9
            assert abs(pair.u1_n - tech.u1) <= 1.0 / n + 1e-9
            assert abs(pair.u_star_n - tech.u_star) <= 1.0 / n + 1e-9

    def test_gap_argmax_moved_off_the_origin(self, tech_and_pairs):
        # the source gap peaks at 0; each smoothed gap peaks strictly inside
        _, pairs = tech_and_pairs
        for pair in pairs:
            assert pair.u_star_n > 0
            assert pair.gap(pair.u_star_n) > pair.gap(0.0)


class TestConvergence:
    def test_sup_distance_weakly_decreases(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        grid = np.linspace(0.13, 0.24, 81)  # inside every core interval
        f0_src = tech.f0.value(grid)
        f1_src = tech.f1.value(grid)
        errs = [
            max(
                float(np.max(np.abs(pair.f0n.value(grid) - f0_src))),
                float(np.max(np.abs(pair.f1n.value(grid) - f1_src))),
            )
            for pair in pairs
        ]
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert fine <= coarse + 1e-12

    def test_pointwise_convergence_at_interior_point(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        u = 0.2
        errs = [abs(float(pair.f0n.value(u)) - float(tech.f0.value(u))) for pair in pairs]
        assert errs[-1] <= pairs[-1].params.eps
        assert errs[-1] < errs[0] + 1e-12


class TestMonsterReport:
    def test_all_checks_pass(self, tech_and_pairs):
        tech, pairs = tech_and_pairs
        rep = verify_monster(tech, pairs)
        assert rep.overall_pass, rep.render()

    def test_budget_violation_rejected_at_build(self):
        tech = quad_tech()
        good = SmoothingParams.auto(tech, 8)
        # a window far too wide for the accuracy budget cannot build
        bad = SmoothingParams(
            n=8, delta=0.124, gamma=good.gamma, zeta=good.zeta, eps=1e-4
        )
        with pytest.raises(ParamsOutOfRange):
            build_smooth_pair(tech, bad)


def probe_points(f, hi):
    """Joins and their neighbouring floats, the origin and a spread of points."""
    joins = np.array([k for k in f.knots if np.isfinite(k)])
    near = np.concatenate([joins, np.nextafter(joins, -np.inf), np.nextafter(joins, np.inf)])
    return np.concatenate([[0.0, 5e-324, hi, np.inf], near, np.linspace(0.0, hi, 37)])


class TestBatchedEvaluation:
    def test_moral_hazard_pair(self, default_tech):
        pair = build_smooth_pair(default_tech, SmoothingParams.auto(default_tech, 16))
        hi = default_tech.u0 + 2.0
        for f in (pair.f0n, pair.f1n):
            assert_batched_equals_scalar(f, probe_points(f, hi))
        fixed = _StrictFixFrontier(pair.f1n, pair.u_star_n, pair.params.zeta / 8.0)
        assert_batched_equals_scalar(fixed, probe_points(fixed, hi))

    def test_kinked_source_pair(self):
        tech = kinked_tech()
        pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
        for f in (pair.f0n, pair.f1n):
            assert_batched_equals_scalar(f, probe_points(f, tech.u0 + 2.0))

    def test_core_windows_straddling_a_kink(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        params = SmoothingParams(n=8, delta=0.1, gamma=1e-9, zeta=0.02, eps=0.009)
        (h_anchor,) = _evaluate(f, _window_plan(f, np.array([0.5]), params.delta))
        core = _Core(f, params, 0.5, float(h_anchor[0]), f.value(0.5))
        # two windows hold the kink inside, one ends and one starts on it
        us = np.array([0.3, 0.9, 0.95, 1.0 - 1e-12, 1.0, 1.05, 1.5])
        np.testing.assert_array_equal(core.value(us), [core.value(float(u)) for u in us])
        np.testing.assert_array_equal(core.deriv(us), [core.deriv(float(u)) for u in us])
        # split at the kink, GL-8 integrates each linear stretch exactly
        antideriv = lambda x: np.where(x <= 1.0, 0.5 * x * x, 2.0 * x - 0.5 * x * x - 1.0)
        exact = antideriv(us + params.delta) - antideriv(us)
        (h,) = _evaluate(f, _window_plan(f, us, params.delta))
        np.testing.assert_allclose(h, exact, rtol=0, atol=1e-15)


def test_nan_derivative_fails_the_uniform_bounds(default_tech):
    pair = build_smooth_pair(default_tech, SmoothingParams.auto(default_tech, 16))
    # the second frontier of the pair has NaN slopes everywhere
    nan_f1n = _StrictFixFrontier(pair.f1n, pair.u_star_n, np.nan)
    rep = verify_monster(default_tech, [dataclasses.replace(pair, f1n=nan_f1n)])
    assert not rep["uniform-derivative-bounds"].passed
    note = rep["uniform-derivative-bounds"].note
    assert "min=nan" in note and "max=nan" in note


def with_piece(f, i, **changes):
    """A copy of the piecewise frontier ``f`` with piece ``i`` changed."""
    g = copy.copy(f)
    g.pieces = [dataclasses.replace(p, **changes) if j == i else p for j, p in enumerate(f.pieces)]
    return g


def test_a_broken_join_fails_the_model_assumptions():
    tech = quad_tech()
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    assert verify_monster(tech, [pair])["model-assumptions-n16"].passed
    # the left quadratic's slope ends 1e-8 off the core's at their join
    quad = pair.f1n.pieces[0]
    broken = with_piece(pair.f1n, 0, der=lambda u: quad.der(u) + 1e-8)
    join = broken.knots[0]
    assert broken.left_deriv(join) - broken.right_deriv(join) == pytest.approx(1e-8, rel=1e-6)
    fixed = _StrictFixFrontier(broken, pair.u_star_n, pair.params.zeta / 8.0)
    for f1n in (broken, fixed):
        rep = verify_monster(tech, [dataclasses.replace(pair, f1n=f1n)])
        assert not rep["model-assumptions-n16"].passed


@pytest.mark.parametrize("tech", [quad_tech(), kinked_tech()], ids=["quadratic", "kinked"])
def test_a_join_belongs_to_the_piece_on_the_side_read(tech):
    # each piece's slope is replaced by its index, which the dispatch returns
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    for f in (pair.f0n, pair.f1n):
        marked = f
        for i in range(len(f.pieces)):
            marked = with_piece(marked, i, der=lambda u, i=i: 0.0 * u + i)
        joins = np.array(f.knots)
        inside = np.array([0.5 * (p.lo + p.hi) if np.isfinite(p.hi) else p.lo + 1.0 for p in f.pieces])
        below = np.arange(len(joins), dtype=float)
        assert marked._derivs(joins, "left").tolist() == below.tolist()
        assert marked._derivs(joins, "right").tolist() == (below + 1.0).tolist()
        for side in ("left", "right"):
            assert marked._derivs(inside, side).tolist() == list(range(len(f.pieces)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_slopes_inside_a_piece_fail_the_uniform_bounds(bad):
    tech = quad_tech()
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    core = pair.f0n.pieces[1]
    # the slope is not finite around u0/2, which the bounds probe, and
    # finite at the core's joins
    spoiled = with_piece(pair.f0n, 1, der=lambda u: np.where(np.abs(u - 0.25) < 0.05, bad, core.der(u)))
    rep = verify_monster(tech, [dataclasses.replace(pair, f0n=spoiled)])
    assert rep["model-assumptions-n16"].passed
    assert not rep["uniform-derivative-bounds"].passed


def nan_strip_tech(lo, hi):
    """`quad_tech` with F1 NaN on ``(lo, hi)``, inside the core interval at n=8."""
    base = quad_tech()
    f1 = ParametricFrontier(
        lambda u: np.where((u > lo) & (u < hi), np.nan, base.f1.value(u)),
        lambda u: base.f1.deriv(u, "right"),
        peak=base.u1,
    )
    return Technology(f0=base.f0, f1=f1, u0=base.u0, u1=base.u1, u_star=base.u_star)


def test_nan_inside_a_window_fails_the_budget():
    # the n=8 check grid steps 1/256 from 0.125; no grid point lies in the
    # strip, so only the windows of the points below it see the NaN
    params = SmoothingParams.auto(quad_tech(), 8)
    tech = nan_strip_tech(0.2, 0.201)
    assert _core_error(tech, params) == np.inf
    with pytest.raises(ParamsOutOfRange):
        build_smooth_pair(tech, params)
    # NaN at a grid point fails at every window width, so auto gives up
    with pytest.raises(ParamsOutOfRange, match="accuracy budget"):
        SmoothingParams.auto(nan_strip_tech(0.199, 0.2), 8)


def test_effort_solves_per_level_are_batched(default_prims, monkeypatch):
    # a Technology of its own, whose F1 remembers no other test's solves
    tech = technology.make_moral_hazard_technology(default_prims)
    calls = []
    solve = technology.effort_star_array

    def counted(prims, u):
        calls.append(np.size(u))
        return solve(prims, u)

    monkeypatch.setattr(technology, "effort_star_array", counted)
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    assert verify_monster(tech, [pair]).overall_pass
    # one call per point set, not one per point or window
    assert 0 < len(calls) <= 200


def test_array_effort_calls_per_stage(default_prims, monkeypatch):
    # each smoothing step evaluates F1 in one array pass: `auto`'s core error
    # in one, the build's end probes in one per core, the certificate in three
    # (concavity grid, left joins, everything right-sided)
    calls = []
    solve = technology.effort_star_array
    monkeypatch.setattr(technology, "effort_star_array", lambda prims, u: calls.append(np.size(u)) or solve(prims, u))
    tech = technology.make_moral_hazard_technology(default_prims)
    del calls[:]
    params = SmoothingParams.auto(tech, 16)
    assert len(calls) == 1
    pair = build_smooth_pair(tech, params)
    assert len(calls) <= 1 + 13
    del calls[:]
    assert verify_monster(tech, [pair]).overall_pass
    assert len(calls) <= 3
