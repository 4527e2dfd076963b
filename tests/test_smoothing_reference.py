"""Smoothing against its per-window reference, bit for bit.

`smoothing` evaluates its source once per step: `_window_plan` lays out every
window's GL-8 stretches in arrays, `_core_deviation` takes the anchor's and
the grid's windows and values in one ``value`` call per source, a core's end
slopes and values come from one call, and `verify_monster` asks each front
for its concavity-grid values and its slopes on both sides at once, so each
core's points go to its source in one call. The polynomial pieces take
arrays. The reference is the code before that, kept here only: one Python
list per window and one ``np.dot`` per stretch, a ``value`` call per
quantity, and the polynomial pieces run per point.
"""

import dataclasses
import math

import numpy as np
import pytest

import frontierkit as fk
from frontierkit import cli, smoothing
from frontierkit.cli import _kinked_fixture, _smooth_fixture
from frontierkit.errors import DomainError, ParamsOutOfRange
from frontierkit.frontiers import INF, Frontier, ParametricFrontier, PiecewiseLinearFrontier, midpoint_concavity_slack
from frontierkit.report import VerificationReport
from frontierkit.smoothing import (
    SmoothingParams,
    _GL8_NODES,
    _GL8_WEIGHTS,
    _Piece,
    _PiecewiseFrontier,
    _evaluate,
    _window_plan,
    build_smooth_pair,
    verify_monster,
)
from test_build_reference import box_configs
from test_lookahead import PINNED
from test_smoothing import EFFORT_BOX, effort_tech, probe_points

NS = [8, 16, 32, 64]


def reference_window_integral(f: Frontier, u, delta: float):
    starts = np.atleast_1d(np.asarray(u, dtype=float)).tolist()
    cuts = [[a, *(k for k in f.knots if a < k < a + delta), a + delta] for a in starts]
    lo = np.array([c for cs in cuts for c in cs[:-1]])
    hi = np.array([c for cs in cuts for c in cs[1:]])
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    vals = np.reshape(f.value((mid[:, None] + half[:, None] * _GL8_NODES).ravel()), (-1, 8))
    # each window's stretches are added left to right
    parts = iter([h * float(np.dot(_GL8_WEIGHTS, row)) for h, row in zip(half.tolist(), vals)])
    totals = [sum(next(parts) for _ in cs[1:]) for cs in cuts]
    return totals[0] if np.ndim(u) == 0 else np.array(totals)


def reference_averaged_right_derivative(f: Frontier, u, params: SmoothingParams):
    us = np.atleast_1d(np.asarray(u, dtype=float))
    ends = np.concatenate([us + params.delta, us])
    lo, hi = f.domain
    outside = (us < lo) | (ends[: us.size] > hi)
    if outside.any():
        a = float(us[outside][0])
        raise DomainError(f"window [{a:g}, {a + params.delta:g}] leaves the domain")
    vals = f.value(ends)
    out = (vals[: us.size] - vals[us.size :]) / params.delta - params.gamma * us
    return float(out[0]) if np.ndim(u) == 0 else out


class ReferenceCore:
    def __init__(self, f: Frontier, params: SmoothingParams, anchor: float):
        self.f, self.p = f, params
        self.anchor = anchor
        self._H_anchor = reference_window_integral(f, anchor, params.delta)
        self._F_anchor = float(f.value(anchor))

    # a core's slopes and values themselves, where `_Core` gives plans
    def slope(self, u):
        return reference_averaged_right_derivative(self.f, u, self.p)

    def value(self, u, zeta=None):
        p = self.p
        h = reference_window_integral(self.f, u, p.delta)
        a = self.anchor
        v = self._F_anchor + (h - self._H_anchor) / p.delta - p.gamma * 0.5 * (u * u - a * a)
        return v if zeta is None else v + zeta

    def ends(self, us):
        # the build's end slopes and values, one call each
        return self.slope(us).tolist(), self.value(us).tolist()


def reference_core_deviation(tech, params, guard=True):
    # ``guard`` only adds points to today's source calls
    n = params.n
    cores = [ReferenceCore(f, params, tech.u_star + 1.0 / n) for f in (tech.f0, tech.f1)]
    us = np.linspace(1.0 / n, tech.u0 - 2.0 / n, 33)
    dev = np.concatenate([np.abs(c.value(us) - c.f.value(us)) for c in cores])
    return (float(np.max(dev)) if np.all(np.isfinite(dev)) else INF), *cores


def reference_piece(lo, hi, val, der, batch=True, src=None):
    # only the core's functions take arrays; every other piece runs per point.
    # A core's functions give values, so no piece has a source to plan on
    return _Piece(lo, hi, val, der, isinstance(getattr(der, "__self__", None), ReferenceCore))


def reference_verify_monster(tech, sequence):
    rep = VerificationReport("smoothing")
    u0, u1, u_star = tech.u0, tech.u1, tech.u_star

    for pair in sequence:
        n = pair.params.n
        grid = np.linspace(0.0, u0, 33)

        slack0 = midpoint_concavity_slack(pair.f0n, grid)
        slack1 = midpoint_concavity_slack(pair.f1n, grid)
        c1_ok = all(
            bool(np.all(np.abs(f.deriv(f.knots, "left") - f.deriv(f.knots, "right")) < 1e-9))
            for f in (pair.f0n, pair.f1n)
        )
        ordered = bool(np.min(pair.f1n.value(grid) - pair.f0n.value(grid)) > 0)
        rep.add(
            f"model-assumptions-n{n}",
            slack0 > 0 and slack1 > 0 and c1_ok and ordered and pair.u1_n < pair.u0_n,
        )

        peaks_ok = (
            u0 - 1.0 / n - 1e-9 <= pair.u0_n <= u0 + 1e-9
            and abs(pair.u1_n - u1) <= 1.0 / n + 1e-9
            and abs(pair.u_star_n - u_star) <= 1.0 / n + 1e-9
        )
        rep.add(f"peak-locations-n{n}", peaks_ok)

    u_lo_probe = 0.5 * u0
    fronts = [f for pair in sequence for f in (pair.f0n, pair.f1n)]
    below = float(np.min([f.deriv(np.linspace(1e-9, u_lo_probe, 33), "right") for f in fronts]))
    above = float(np.max([f.deriv(np.linspace(u_lo_probe, u0, 33), "right") for f in fronts]))
    rep.add(
        "uniform-derivative-bounds",
        math.isfinite(below) and math.isfinite(above),
        note=f"min={below:.3g} on [0, u0/2], max={above:.3g} on [u0/2, u0]",
    )

    largest = max(sequence, key=lambda pr: pr.params.n)
    n, half = largest.params.n, 0.5 * largest.params.delta
    probe_points = [0.4 * u0, 0.6 * u0]
    probe_points.extend(k for k in tech.f0.knots if 0 < k < u0)
    probe_points.extend(k for k in tech.f1.knots if 0 < k < u0)
    us = np.array(probe_points)
    us = us[us - half > 0]
    ok_d, worst = True, 0.0
    for f_n, f_src in ((largest.f0n, tech.f0), (largest.f1n, tech.f1)):
        d = f_n.deriv(us - half, "right")
        lo_lim = f_src.deriv(us, "right") - 2.0 / n - 2.0 * largest.params.gamma
        hi_lim = f_src.deriv(us, "left") + 2.0 / n
        inside = (lo_lim <= d) & (d <= hi_lim)
        if not inside.all():
            ok_d = False
            worst = max(worst, float(np.max(np.maximum(lo_lim - d, d - hi_lim)[~inside])))
    rep.add("derivative-limits-sandwich", ok_d, worst_violation=worst)
    return rep


def fresh(tech):
    """``tech`` without its cached cores, so each build starts from scratch."""
    return fk.Technology(f0=tech.f0, f1=tech.f1, u0=tech.u0, u1=tech.u1, u_star=tech.u_star, prims=tech.prims)


def level(tech, n):
    t = fresh(tech)
    return build_smooth_pair(t, SmoothingParams.auto(t, n))


def build_both(tech, ns, monkeypatch):
    """The smoothed sequence at levels ``ns``, built today and by the reference."""
    today = [level(tech, n) for n in ns]
    with monkeypatch.context() as m:
        m.setattr(smoothing, "_core_deviation", reference_core_deviation)
        m.setattr(smoothing, "_Piece", reference_piece)
        ref = [level(tech, n) for n in ns]
    for pair in ref:
        assert [p.batch for p in pair.f1n.pieces] == [False, True, False]
        assert isinstance(pair.f1n.pieces[1].der.__self__, ReferenceCore)
    return today, ref


def window_integral(f, u, delta):
    """`_window_plan`'s integral of ``f`` over ``[u, u + delta]``, at one start or an array."""
    (h,) = _evaluate(f, _window_plan(f, np.atleast_1d(np.asarray(u, dtype=float)), delta))
    return float(h[0]) if np.ndim(u) == 0 else h


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_same_frontier(f, g, hi):
    assert type(f) is type(g) and f.knots == g.knots and f.domain == g.domain
    us = np.concatenate([[0.0, 5e-324], np.linspace(0.0, hi, 97), f.knots, np.nextafter(f.knots, 0.0)])
    assert bits(f.value(us)) == bits(g.value(us))
    inner = us[us > 0.0]
    for side in ("left", "right"):
        assert bits(f.deriv(inner, side)) == bits(g.deriv(inner, side))


def assert_same_pairs(today, ref, hi):
    for a, b in zip(today, ref, strict=True):
        assert a.params == b.params
        assert (a.u0_n.hex(), a.u1_n.hex(), a.u_star_n.hex()) == (b.u0_n.hex(), b.u1_n.hex(), b.u_star_n.hex())
        assert_same_frontier(a.f0n, b.f0n, hi)
        assert_same_frontier(a.f1n, b.f1n, hi)


def assert_same_report(tech, today, ref):
    got, want = verify_monster(tech, today), reference_verify_monster(tech, ref)
    assert [dataclasses.astuple(c) for c in got.checks] == [dataclasses.astuple(c) for c in want.checks]
    assert [c.worst_violation.hex() for c in got.checks] == [c.worst_violation.hex() for c in want.checks]
    return got


def test_default_config_sequence(monkeypatch):
    tech = cli.load_config(None).technology()
    today, ref = build_both(tech, (16, 32, 64), monkeypatch)
    assert_same_pairs(today, ref, tech.u0 + 2.0)
    assert assert_same_report(tech, today, ref).overall_pass


@pytest.mark.parametrize("make", [_smooth_fixture, _kinked_fixture], ids=["smooth", "kinked"])
def test_fixture_sequences(make, monkeypatch):
    tech = make()
    today, ref = build_both(tech, NS, monkeypatch)
    assert_same_pairs(today, ref, tech.u0 + 2.0)
    assert_same_report(tech, today, ref)
    # each level alone, and a sequence whose largest level comes first
    for i in range(len(NS)):
        assert_same_report(tech, today[i : i + 1], ref[i : i + 1])
    assert_same_report(tech, today[::-1], ref[::-1])


def lower(pair, front=_PiecewiseFrontier):
    """``pair`` with F1_n lowered below its ``u_star_n``, as `build_smooth_pair`'s strict-local-max fix lowers it."""
    lowered = (pair.u_star_n, pair.params.zeta / 8.0)
    return dataclasses.replace(pair, f1n=front(pair.f1n.pieces, lowered=lowered))


def test_strict_fix_frontier_in_the_certificate(monkeypatch):
    tech = cli.load_config(None).technology()
    (pair,), (ref,) = build_both(tech, (16,), monkeypatch)
    assert_same_report(tech, [lower(pair)], [lower(ref)])


class ReferenceStrictFixFrontier(Frontier):
    """The strict-local-max fix as a wrapper: the base front minus ``eps*(u -
    u_star)^2`` below ``u_star``, passing `_answer`'s requests through."""

    def __init__(self, base, u_star: float, eps: float):
        self.base, self.u_star, self.eps = base, u_star, eps
        self.domain = base.domain
        self.knots = tuple(sorted(set(base.knots) | {u_star}))

    def _answer(self, requests):
        low = [np.minimum(u - self.u_star, 0.0) for u, *_ in requests]
        return [
            out - (self.eps * np.square(d) if what == "val" else 2.0 * self.eps * d)
            for out, d, (_, what, _) in zip(self.base._answer(requests), low, requests)
        ]

    def _values(self, us):
        return self._answer([(us, "val", "left")])[0]

    def _derivs(self, u, side):
        return self._answer([(u, "der", side)])[0]


def reference_front(pieces, peak=None, lowered=None):
    """`_PiecewiseFrontier`, with a lowering made by the wrapper."""
    base = _PiecewiseFrontier(pieces, peak)
    return base if lowered is None else ReferenceStrictFixFrontier(base, *lowered)


# (technology, levels, builds that take the fix); the effort instances at their smallest level
LOWERED_SETS = {
    "smooth-fixture": (_smooth_fixture, NS, 0),
    "kinked-fixture": (_kinked_fixture, NS, 1),
    "default-config": (lambda: cli.load_config(None).technology(), (16, 32, 64), 0),
    **{f"effort-box-{i}": (lambda inst=inst: effort_tech(*inst), None, 1) for i, inst in enumerate(EFFORT_BOX[1:3], 1)},
}


@pytest.mark.parametrize("name", LOWERED_SETS)
def test_lowered_front_matches_the_wrapper_reference(name, monkeypatch):
    # the lowering of every level's F1_n equals the wrapper's in its joins,
    # domain, values and slopes, and in every certificate check; where a
    # build takes the fix, its search for u*_n on the wrapper's front gives
    # the same bits
    make, ns, want_fixes = LOWERED_SETS[name]
    tech = make()
    ns = ns or (smoothing.smallest_level(tech),)
    pairs = [level(tech, n) for n in ns]
    with monkeypatch.context() as m:
        m.setattr(smoothing, "_PiecewiseFrontier", reference_front)
        built_ref = [level(tech, n) for n in ns]
    hi = tech.u0 + 2.0
    fixes = 0
    for pair, ref_pair in zip(pairs, built_ref, strict=True):
        fixes += pair.f1n.lowered is not None
        assert (pair.f1n.lowered is not None) == isinstance(ref_pair.f1n, ReferenceStrictFixFrontier)
        assert (pair.u1_n.hex(), pair.u_star_n.hex()) == (ref_pair.u1_n.hex(), ref_pair.u_star_n.hex())
        for f, g in ((lower(pair).f1n, lower(pair, reference_front).f1n), (pair.f1n, ref_pair.f1n)):
            assert (f.knots, f.domain) == (g.knots, g.domain)
            us = probe_points(f, hi)
            assert bits(f.value(us)) == bits(g.value(us))
            for side in ("left", "right"):
                assert bits(f.deriv(us, side)) == bits(g.deriv(us, side))
    assert fixes == want_fixes
    for today, ref in ((pairs, built_ref), ([lower(p) for p in pairs], [lower(p, reference_front) for p in pairs])):
        got, want = verify_monster(tech, today), verify_monster(tech, ref)
        assert [dataclasses.astuple(c) for c in got.checks] == [dataclasses.astuple(c) for c in want.checks]
        assert [c.worst_violation.hex() for c in got.checks] == [c.worst_violation.hex() for c in want.checks]


def test_box_configs(monkeypatch):
    # the instances of `mh-smooth-sweep` in perfbench/workloads.py, each at
    # the smallest level in (16, 32, 64, 128) that `SmoothingParams.auto` accepts
    for lam, w, a, b in box_configs(100, 20261021):
        prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
        tech = fk.make_moral_hazard_technology(prims)
        for n in (16, 32, 64, 128):
            try:
                params = SmoothingParams.auto(fresh(tech), n)
                break
            except ParamsOutOfRange:
                continue
        else:
            pytest.fail(f"no level admits {(lam, w, a, b)}")
        got, want = smoothing._core_deviation(tech, params), reference_core_deviation(tech, params)
        assert got[0].hex() == want[0].hex()
        for core, ref_core in zip(got[1:], want[1:]):
            assert (core._H_anchor.hex(), core._F_anchor.hex()) == (ref_core._H_anchor.hex(), ref_core._F_anchor.hex())
        today, ref = build_both(tech, (n,), monkeypatch)
        assert_same_pairs(today, ref, tech.u0 + 2.0)
        assert assert_same_report(tech, today, ref).overall_pass


@pytest.mark.parametrize("inst", [inst for inst, _, _ in PINNED])
def test_pinned_sequences_certificate(inst):
    # every admissible level in 16-128 of each `PINNED` technology, certified
    # on the same pairs by one request call per front and by the accessors
    lam, w, a, b = inst
    prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
    tech = fk.make_moral_hazard_technology(prims)
    pairs = []
    for n in (16, 32, 64, 128):
        try:
            pairs.append(level(tech, n))
        except ParamsOutOfRange:
            continue
    assert pairs
    assert assert_same_report(tech, pairs, pairs).overall_pass


def window_starts(knots, delta):
    """Window starts around each knot: windows that straddle it, start on it,
    end exactly on it, hold two knots, and a spread of plain windows."""
    out = [np.linspace(0.0, 0.6, 41)]
    for k in knots:
        out.append(np.linspace(k - delta, k, 101))
        out.append([k - 0.5 * delta, k - 1e-12, k, np.nextafter(k, 0.0), np.nextafter(k, 1.0)])
        a = k - delta
        while a + delta < k:
            a = np.nextafter(a, 1.0)
        while a + delta > k:
            a = np.nextafter(a, 0.0)
        out.append([a, np.nextafter(a, 0.0), np.nextafter(a, 1.0)])
    return np.concatenate(out)


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.3])
def test_window_integrals(delta, default_tech):
    kinked = PiecewiseLinearFrontier([0.0, 0.1, 0.12, 0.45, 0.5, 1.0], [0.8, 0.85, 0.86, 0.8, 0.78, 0.5])
    fixed = _PiecewiseFrontier(level(_kinked_fixture(), 16).f1n.pieces, lowered=(0.2, 0.01))
    # -0.0 everywhere: each total is still +0.0, as `sum` from 0 gives
    negative_zero = ParametricFrontier(lambda u: np.full_like(u, -0.0), lambda u: 0.0 * u, domain=(0.0, 1.0))
    negative_zero.knots = (0.3, 0.31)
    for f in (kinked, fixed, negative_zero, _kinked_fixture().f0, _smooth_fixture().f1, default_tech.f1):
        us = window_starts(f.knots, delta)
        us = us[(us >= 0.0) & (us + delta <= f.domain[1])]
        assert not f.knots or np.isin(us + delta, f.knots).any()  # windows ending on a knot
        got, want = window_integral(f, us, delta), reference_window_integral(f, us, delta)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
        for u in us[::7].tolist():
            assert window_integral(f, u, delta).hex() == reference_window_integral(f, u, delta).hex()
    assert math.copysign(1.0, window_integral(negative_zero, 0.1, delta)) == 1.0
