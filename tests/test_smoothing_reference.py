"""Smoothing against its per-window reference, bit for bit.

`smoothing` evaluates its source once per step: `_window_plan` lays out every
window's GL-8 stretches in arrays, `_core_deviation` takes the anchor's and
the grid's windows and values in one ``value`` call per source, a core's end
slopes and values come from one call, and `verify_monster` makes one
right-side call per front for the joins, the uniform-bound grids and the
sandwich probes. The polynomial pieces take arrays. The reference is the code
before that, kept here only: one Python list per window and one ``np.dot``
per stretch, a ``value`` call per quantity, and the polynomial pieces run
per point.
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
    _StrictFixFrontier,
    _evaluate,
    _window_plan,
    build_smooth_pair,
    verify_monster,
)
from test_build_reference import box_configs

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

    def deriv(self, u):
        return reference_averaged_right_derivative(self.f, u, self.p)

    def value(self, u):
        p = self.p
        h = reference_window_integral(self.f, u, p.delta)
        a = self.anchor
        return self._F_anchor + (h - self._H_anchor) / p.delta - p.gamma * 0.5 * (u * u - a * a)

    def ends(self, us):
        # the build's end slopes and values, one call each
        return self.deriv(us).tolist(), self.value(us).tolist()


def reference_core_deviation(tech, params):
    n = params.n
    cores = [ReferenceCore(f, params, tech.u_star + 1.0 / n) for f in (tech.f0, tech.f1)]
    us = np.linspace(1.0 / n, tech.u0 - 2.0 / n, 33)
    dev = np.concatenate([np.abs(c.value(us) - c.f.value(us)) for c in cores])
    return (float(np.max(dev)) if np.all(np.isfinite(dev)) else INF), *cores


def reference_piece(lo, hi, val, der, batch=True):
    # only the core's functions take arrays; every other piece runs per point
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
        base = getattr(pair.f1n, "base", pair.f1n)
        assert [p.batch for p in base.pieces] == [False, True, False]
        assert isinstance(base.pieces[1].der.__self__, ReferenceCore)
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


def test_strict_fix_frontier_in_the_certificate(monkeypatch):
    tech = cli.load_config(None).technology()
    (pair,), (ref,) = build_both(tech, (16,), monkeypatch)
    fix = lambda p: dataclasses.replace(p, f1n=_StrictFixFrontier(p.f1n, p.u_star_n, p.params.zeta / 8.0))
    assert_same_report(tech, [fix(pair)], [fix(ref)])


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
    fixed = _StrictFixFrontier(level(_kinked_fixture(), 16).f1n, 0.2, 0.01)
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
