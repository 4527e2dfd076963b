"""Smooth approximant construction: derivative bounds, ordering, convergence."""

import copy
import dataclasses

import numpy as np
import pytest

from conftest import assert_batched_equals_scalar, piece_fn
from frontierkit import frontiers, smoothing, technology
from frontierkit.errors import DomainError, ParamsOutOfRange, PreconditionViolation
from frontierkit.frontiers import (
    AffineFrontier,
    CallableFrontier,
    ParametricFrontier,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
)
from frontierkit.smoothing import (
    SmoothingParams,
    _Core,
    _core_deviation,
    _PiecewiseFrontier,
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
            smoothing, "_core_deviation", lambda tech, p, **kw: evaluated.append(p) or real(tech, p, **kw)
        )
        tech = quad_tech()
        params = SmoothingParams.auto(tech, n)
        assert evaluated == [params]
        build_smooth_pair(tech, params)
        assert evaluated == [params, params]
        # hand-made params are measured once by their build
        hand = dataclasses.replace(params, delta=0.5 * params.delta)
        build_smooth_pair(tech, hand)
        assert evaluated == [params, params, hand]
        # a Technology whose frontier changed is measured afresh, and the
        # build's verdict follows that measurement
        tech.f1 = kinked_tech().f1
        if real(tech, params)[0] > params.eps:
            with pytest.raises(ParamsOutOfRange, match="eps budget"):
                build_smooth_pair(tech, params)
        else:
            build_smooth_pair(tech, params)
        assert evaluated == [params, params, hand, params]


class TestNoCoreCacheBesideTheEffortMemo:
    """`auto` and the build each measure the cores; F1's effort memo, not a
    cache on the Technology, makes the build's repeat cheap."""

    @pytest.mark.parametrize("n", [16, 64])
    def test_build_after_auto_makes_no_effort_solve(self, n, default_prims, monkeypatch):
        # array effort solves per core measurement: `auto`'s accepted one
        # solves its points, and the build's repeat of it none
        calls, per_measure = [], []
        solve, measure = technology.effort_star_array, smoothing._core_deviation

        def measured(tech, p, **kw):
            before = len(calls)
            out = measure(tech, p, **kw)
            per_measure.append(len(calls) - before)
            return out

        monkeypatch.setattr(technology, "effort_star_array", lambda p, u: calls.append(np.size(u)) or solve(p, u))
        monkeypatch.setattr(smoothing, "_core_deviation", measured)
        tech = technology.make_moral_hazard_technology(default_prims)
        pair = build_smooth_pair(tech, SmoothingParams.auto(tech, n))
        assert per_measure[-2:] == [1, 0]
        assert verify_monster(tech, [pair]).overall_pass

    def test_refused_candidates_solve_no_guard_effort(self, monkeypatch):
        # `auto` halves delta three times on this instance: only its first
        # candidate's F1 solve takes the ordering guard's windows, and the
        # build's measurement solves them for the accepted fourth
        sizes, solve = [], technology.effort_star_array
        monkeypatch.setattr(technology, "effort_star_array", lambda p, u: sizes.append(np.size(u)) or solve(p, u))
        prims = technology.MoralHazardPrimitives(
            lam=0.0956, w=24.04, phi=technology.PowerUtility(0.563), kappa=technology.PowerCost(5.634)
        )
        tech = technology.make_moral_hazard_technology(prims)
        params = SmoothingParams.auto(tech, 16)
        assert params.delta == 0.0625 / 16 and len(sizes) == 4
        assert max(sizes[1:]) < 300 and sizes[0] > 1500
        build_smooth_pair(tech, params)
        assert sizes[4] > 1500

    def test_hand_made_params_go_through_the_effort_budget(self):
        tech = quad_tech()
        params = SmoothingParams.auto(tech, 16)
        hand = dataclasses.replace(params, delta=0.5 * params.delta)
        build_smooth_pair(tech, hand)
        # a budget below the measured error refuses the build
        error = smoothing._core_deviation(tech, hand)[0]
        assert error > 0.0
        with pytest.raises(ParamsOutOfRange, match="eps budget"):
            build_smooth_pair(tech, dataclasses.replace(hand, eps=0.5 * error))

    def test_a_changed_frontier_is_measured_afresh_no_effort_cache(self):
        tech = quad_tech()
        params = SmoothingParams.auto(tech, 8)
        build_smooth_pair(tech, params)
        tech.f1 = nan_strip_tech(0.2, 0.201).f1
        with pytest.raises(ParamsOutOfRange, match="eps budget"):
            build_smooth_pair(tech, params)


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
        lowered = _PiecewiseFrontier(pair.f1n.pieces, lowered=(pair.u_star_n, pair.params.zeta / 8.0))
        assert_batched_equals_scalar(lowered, probe_points(lowered, hi))

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
        for plan in (core.value, core.slope):
            (batched,) = _evaluate(f, plan(us))
            np.testing.assert_array_equal(batched, [_evaluate(f, plan(us[i : i + 1]))[0][0] for i in range(us.size)])
        # split at the kink, GL-8 integrates each linear stretch exactly
        antideriv = lambda x: np.where(x <= 1.0, 0.5 * x * x, 2.0 * x - 0.5 * x * x - 1.0)
        exact = antideriv(us + params.delta) - antideriv(us)
        (h,) = _evaluate(f, _window_plan(f, us, params.delta))
        np.testing.assert_allclose(h, exact, rtol=0, atol=1e-15)


def test_nan_derivative_fails_the_uniform_bounds(default_tech):
    pair = build_smooth_pair(default_tech, SmoothingParams.auto(default_tech, 16))
    # the second frontier of the pair has NaN slopes everywhere
    nan_f1n = _PiecewiseFrontier(pair.f1n.pieces, lowered=(pair.u_star_n, np.nan))
    rep = verify_monster(default_tech, [dataclasses.replace(pair, f1n=nan_f1n)])
    assert not rep["uniform-derivative-bounds"].passed
    note = rep["uniform-derivative-bounds"].note
    assert "min=nan" in note and "max=nan" in note


def test_the_certificate_refuses_a_front_whose_domain_misses_a_point_it_reads():
    # its request calls skip the domain and edge handling of `value` and
    # `deriv`: a front starting above 0 (its values at 0 would be -inf), or
    # with a join at its domain's lower end (+inf on the left), is refused
    tech = quad_tech()
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    late, knotted = copy.copy(pair.f0n), copy.copy(pair.f0n)
    late.domain = (1e-3, np.inf)
    knotted.knots = (0.0, *knotted.knots)
    for f0n in (late, knotted):
        with pytest.raises(PreconditionViolation, match="n=16"):
            verify_monster(tech, [dataclasses.replace(pair, f0n=f0n)])


def with_piece(f, i, **changes):
    """A copy of the piecewise frontier ``f`` with piece ``i`` changed; a
    changed core piece evaluates on its own, with no source to plan on."""
    g = copy.copy(f)
    plain = lambda p: {"val": piece_fn(p, "val"), "der": piece_fn(p, "der"), "src": None}
    g.pieces = [dataclasses.replace(p, **{**plain(p), **changes}) if j == i else p for j, p in enumerate(f.pieces)]
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
    lowered = _PiecewiseFrontier(broken.pieces, lowered=(pair.u_star_n, pair.params.zeta / 8.0))
    for f1n in (broken, lowered):
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
    core_der = piece_fn(pair.f0n.pieces[1], "der")
    # the slope is not finite around u0/2, which the bounds probe, and
    # finite at the core's joins
    spoiled = with_piece(pair.f0n, 1, der=lambda u: np.where(np.abs(u - 0.25) < 0.05, bad, core_der(u)))
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
    assert _core_deviation(tech, params)[0] == np.inf
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
    # in one, which also holds the build's end probes and its ordering
    # guard's core windows; the build's peak search in five, while the gap
    # grid's ceiling spares it any; the certificate in one (concavity grid
    # and both sides' slopes)
    calls = []
    solve = technology.effort_star_array
    monkeypatch.setattr(technology, "effort_star_array", lambda prims, u: calls.append(np.size(u)) or solve(prims, u))
    tech = technology.make_moral_hazard_technology(default_prims)
    del calls[:]
    params = SmoothingParams.auto(tech, 16)
    assert len(calls) == 1
    pair = build_smooth_pair(tech, params)
    assert len(calls) <= 1 + 5
    del calls[:]
    assert verify_monster(tech, [pair]).overall_pass
    assert len(calls) == 1


def test_the_sandwich_solves_each_probe_effort_once(default_prims, monkeypatch):
    # F1's slope is one closed form on both sides, so the certificate's
    # check (d) reads it once: one scalar effort solve per probe point
    tech = technology.make_moral_hazard_technology(default_prims)
    pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    solves, solve = [], technology.effort_star
    monkeypatch.setattr(technology, "effort_star", lambda p, u: solves.append(u) or solve(p, u))
    assert verify_monster(tech, [pair])["derivative-limits-sandwich"].passed
    assert len(solves) == 2 and len(set(solves)) == 2


def callable_kinked_tech() -> Technology:
    # the kinked pair as black boxes: difference quotients on both sides,
    # with the knots declared so that the probes sit on them
    fronts = []
    for f in (kinked_tech().f0, kinked_tech().f1):
        g = CallableFrontier(f.value, domain=f.domain, peak=f.peak)
        g.knots = f.knots
        fronts.append(g)
    return Technology(f0=fronts[0], f1=fronts[1], u0=0.5, u1=0.1, u_star=0.0)


def test_the_sandwich_reads_both_sides_of_a_kinked_source(monkeypatch):
    # F1's knots at 0.1 and 0.45 are probe points, where its sides differ
    for tech in (kinked_tech(), callable_kinked_tech()):
        pair = build_smooth_pair(tech, SmoothingParams.auto(tech, 64))
        read = []
        for name, f in (("f0", tech.f0), ("f1", tech.f1)):
            deriv = lambda us, side, f=f, name=name: read.append((name, side)) or type(f).deriv(f, us, side)
            monkeypatch.setattr(f, "deriv", deriv)
        assert verify_monster(tech, [pair])["derivative-limits-sandwich"].passed
        assert read == [("f0", "right"), ("f0", "left"), ("f1", "right"), ("f1", "left")]
        assert tech.f1.left_deriv(0.1) != tech.f1.right_deriv(0.1)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_peak_search_effort_calls_per_build(n, default_prims, monkeypatch):
    # F1_n's peak is a bisection on its slope: the lookahead trees alone take
    # ten effort calls, and five with the path the inverse cubic predicts
    # past each tree. The core measurement holds the end
    # probes and the ordering guard's core windows, so the build makes no
    # other effort call
    calls, in_peak = [], [False]
    solve, search = technology.effort_star_array, smoothing._PiecewiseFrontier.argmax_linear

    def peak_search(*args):
        in_peak[0] = True
        try:
            return search(*args)
        finally:
            in_peak[0] = False

    monkeypatch.setattr(technology, "effort_star_array", lambda p, u: calls.append((in_peak[0], np.size(u))) or solve(p, u))
    monkeypatch.setattr(smoothing._PiecewiseFrontier, "argmax_linear", peak_search)
    tech = technology.make_moral_hazard_technology(default_prims)
    params = SmoothingParams.auto(tech, n)
    del calls[:]
    build_smooth_pair(tech, params)
    assert 0 < len(calls) <= 5
    assert all(peak for peak, _ in calls)


def effort_tech(lam, w, a, b):
    prims = technology.MoralHazardPrimitives(lam=lam, w=w, phi=technology.PowerUtility(a), kappa=technology.PowerCost(b))
    return technology.make_moral_hazard_technology(prims)


def recorded_gap_searches(monkeypatch):
    """The arguments of each `gap_argmax` call a build makes, with its ceiling."""
    searches, search = [], frontiers.gap_argmax
    monkeypatch.setattr(smoothing, "gap_argmax", lambda *args: searches.append(args) or search(*args))
    return searches


def core_grid_evaluated(monkeypatch, f0, f1, hi, ceiling):
    """`gap_argmax`'s result, and whether one of its calls evaluated the core
    windows of all its grid points on ``(b, B]``. F1's memo may answer such a
    call without an effort solve, so the windows are counted, not the solves."""
    starts, plan = [], smoothing._window_plan
    with monkeypatch.context() as m:
        m.setattr(smoothing, "_window_plan", lambda f, a, delta: starts.append(a.size) or plan(f, a, delta))
        got = frontiers.gap_argmax(f0, f1, hi, ceiling)
    us = np.linspace(0.0, hi, 601)
    return got, max(starts, default=0) >= np.count_nonzero((us > ceiling[0]) & (us <= ceiling[1]))


# (lam, w, phi exponent, kappa exponent) across the box lam, w in [0.3, 3],
# exponents in [0.2, 0.8] and [1.3, 4]; the second and third take the
# strict-local-max fix at their smallest level
EFFORT_BOX = [(1.0, 1.0, 0.5, 2.0), (1.0, 2.0, 0.5, 2.0), (2.0, 0.5, 0.7, 1.5), (0.4, 2.5, 0.3, 3.5), (3.0, 3.0, 0.2, 1.3)]


@pytest.mark.parametrize("inst", EFFORT_BOX)
def test_effort_pairs_certified_gap_argmax_is_the_full_grids(inst, monkeypatch):
    # with its ceiling the search leaves out the core's grid points, and with
    # none it evaluates them all; the two agree bit for bit, the strict fix's
    # re-search included, and on the box the ceiling spares every core
    tech = effort_tech(*inst)
    searches = recorded_gap_searches(monkeypatch)
    n0 = smoothing.smallest_level(tech)
    fixes = 0
    for n in (n0, 2 * n0, 4 * n0):
        del searches[:]
        build_smooth_pair(tech, SmoothingParams.auto(tech, n))
        fixes += len(searches) - 1
        for f0, f1, hi, ceiling in searches:
            certified, full_grid = core_grid_evaluated(monkeypatch, f0, f1, hi, ceiling)
            assert not full_grid
            assert certified == frontiers.gap_argmax(f0, f1, hi)
    assert fixes == (1 if inst in EFFORT_BOX[1:3] else 0)


def test_effort_pair_whose_first_grid_points_lie_in_the_core(default_prims, monkeypatch):
    # at n = 2048 the core starts below us[1], so the ceiling covers every
    # grid point from us[1] to B and the search still evaluates the origin
    tech = technology.make_moral_hazard_technology(default_prims)
    searches = recorded_gap_searches(monkeypatch)
    build_smooth_pair(tech, SmoothingParams.auto(tech, 2048))
    ((f0, f1, hi, ceiling),) = searches
    b, B = ceiling[:2]
    assert b < hi / 600 and 2 * hi / 600 < B
    certified, full_grid = core_grid_evaluated(monkeypatch, f0, f1, hi, ceiling)
    assert not full_grid
    assert certified == frontiers.gap_argmax(f0, f1, hi)


def test_effort_ceiling_not_below_the_outside_gaps_falls_back_to_the_full_grid(default_prims, monkeypatch):
    tech = technology.make_moral_hazard_technology(default_prims)
    searches = recorded_gap_searches(monkeypatch)
    build_smooth_pair(tech, SmoothingParams.auto(tech, 16))
    ((f0, f1, hi, (b, B, top, slope)),) = searches
    us = np.linspace(0.0, hi, 601)
    best = float(np.max(f1.value(us) - f0.value(us)))
    full = frontiers.gap_argmax(f0, f1, hi)
    # a line that ties the best gap, lies above it, or is NaN certifies nothing
    for lifted in (best, np.inf, np.nan):
        assert core_grid_evaluated(monkeypatch, f0, f1, hi, (b, B, lifted, 0.0)) == (full, True)
    assert core_grid_evaluated(monkeypatch, f0, f1, hi, (b, B, top, slope)) == (full, False)


def test_a_build_makes_no_effort_call_over_the_core_grid(monkeypatch):
    # without the ceiling the gap grid's core windows, eight solves each, are
    # one call (about 3,200 solves at the default); the largest call left is
    # the ordering guard's, on the 257 probes' core windows, under half that
    sizes, solve = [], technology.effort_star_array
    monkeypatch.setattr(technology, "effort_star_array", lambda p, u: sizes.append(np.size(u)) or solve(p, u))
    for inst in EFFORT_BOX:
        tech = effort_tech(*inst)
        params = SmoothingParams.auto(tech, 2 * smoothing.smallest_level(tech))
        del sizes[:]
        pair = build_smooth_pair(tech, params)
        us = np.linspace(0.0, pair.u0_n, 601)
        in_core = np.count_nonzero((us > 1.0 / params.n) & (us <= tech.u0 - 2.0 / params.n))
        assert 0 < max(sizes) < 8 * in_core / 2
