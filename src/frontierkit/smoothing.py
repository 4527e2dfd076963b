"""Smooth strictly concave approximants of a kinked technology.

For a window width ``delta`` and tilt ``gamma``, the smoothed derivative is
the windowed average of the source's right derivative minus a linear tilt,

    f_n(u) = (F(u + delta) - F(u)) / delta - gamma * u,

(the window average of ``F^+`` equals the value difference, so no derivative
quadrature is needed). Integrating ``f_n`` from an anchor yields the smoothed
frontier on the core interval ``I_n = [1/n, u0 - 2/n]``; beyond it the pair
is extended by closed-form strictly concave pieces: concave quadratics on
the left (making the gap strictly increasing near 0, so its argmax is
positive) and derivative-clamped exponential-approach pieces on the right
(locating the pre-breakthrough peak at ``u0 - 1/(2n)`` and keeping the
post-breakthrough frontier above forever).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParamsOutOfRange, PreconditionViolation
from .frontiers import INF, Frontier, gap_argmax, midpoint_concavity_plan
from .quadrature import cell_index
from .report import VerificationReport
from .technology import Technology

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)

#: the most a smoothed front's two slopes at a join may differ by
_C1_GATE = 1e-9


@dataclass(frozen=True)
class SmoothingParams:
    """Window, tilt, vertical gap and accuracy budgets for one smoothing level.

    All four scale parameters live below ``1/n`` scales, with ``zeta > 2 *
    eps`` so the smoothed pair stays strictly ordered.
    """

    n: int
    delta: float
    gamma: float
    zeta: float
    eps: float

    def __post_init__(self):
        if self.n < 2:
            raise ParamsOutOfRange("n must be at least 2")
        if not 0.0 < self.delta < 1.0 / self.n:
            raise ParamsOutOfRange("delta must lie in (0, 1/n)")
        if not 0.0 < self.eps < 1.0 / self.n:
            raise ParamsOutOfRange("eps must lie in (0, 1/n)")
        if not 0.0 < self.zeta < 2.0 / self.n:
            raise ParamsOutOfRange("zeta must lie in (0, 2/n)")
        if self.zeta <= 2.0 * self.eps:
            raise ParamsOutOfRange("need zeta > 2*eps for strict ordering")

    def validate_for(self, tech: Technology) -> None:
        if 1.0 / self.n >= (tech.u0 - tech.u1) / 3.0:
            raise ParamsOutOfRange(
                f"n={self.n} too small: need 1/n < (u0 - u1)/3"
            )
        if not 0.0 < self.gamma < 1.0 / (tech.u0 * self.n):
            raise ParamsOutOfRange("gamma must lie in (0, 1/(u0 n))")

    @classmethod
    def auto(cls, tech: Technology, n: int) -> "SmoothingParams":
        """Pick (delta, gamma) small enough that the core error is below eps."""
        eps = 0.4 / n
        zeta = 0.9 / n
        delta = 0.5 / n
        gamma = 0.4 / (tech.u0 * n)
        for k in range(40):
            params = cls(n=n, delta=delta, gamma=gamma, zeta=zeta, eps=eps)
            params.validate_for(tech)
            if _core_deviation(tech, params, guard=k == 0)[0] <= 0.95 * eps:
                return params
            delta *= 0.5
            gamma *= 0.5
        raise ParamsOutOfRange("could not reach the accuracy budget eps")


def smallest_level(tech: Technology) -> int:
    """The least ``n >= 2`` with ``1/n < (u0 - u1)/3``, as `SmoothingParams.validate_for`
    asks, for ``u1 < u0``; every larger level passes that test too."""
    need = (tech.u0 - tech.u1) / 3.0
    return next(n for n in itertools.count(max(2, math.floor(1.0 / need) - 1)) if 1.0 / n < need)


def _window_plan(f: Frontier, starts: np.ndarray, delta: float):
    """GL-8 nodes of the windows ``[a, a + delta]``, ``a`` in ``starts``, each
    split at the source's knots inside it (exact per linear piece, accurate per
    smooth one), and the rule from the values there to the windows' integrals."""
    ends = starts + delta
    knots = np.asarray(f.knots, dtype=float)
    cuts = np.column_stack([starts, np.broadcast_to(knots, (starts.size, knots.size)), ends])
    keep = np.pad((knots > starts[:, None]) & (knots < ends[:, None]), ((0, 0), (1, 1)), constant_values=True)
    lo, hi = cuts[:, :-1][keep[:, :-1]], cuts[:, 1:][keep[:, 1:]]
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    def integrals(vals):
        parts = np.zeros(keep[:, 1:].shape)
        parts[keep[:, 1:]] = half * np.vecdot(np.reshape(vals, (-1, 8)), _GL8_WEIGHTS)
        # each window's stretches added left to right from +0.0, so no total is -0.0
        return sum(parts.T, 0.0)

    return (mid[:, None] + half[:, None] * _GL8_NODES).ravel(), integrals


def _slope_plan(f: Frontier, us: np.ndarray, params: SmoothingParams):
    """`averaged_right_derivative`'s window ends at ``us``, and the rule from the values there."""
    lo, hi = f.domain
    outside = (us < lo) | (us + params.delta > hi)
    if outside.any():
        a = float(us[outside][0])
        raise DomainError(f"window [{a:g}, {a + params.delta:g}] leaves the domain")
    slopes = lambda vals: (vals[: us.size] - vals[us.size :]) / params.delta - params.gamma * us
    return np.concatenate([us + params.delta, us]), slopes


def _evaluate(f: Frontier, *plans):
    """The result of each ``(points, rule)`` plan, from one ``f.value`` call."""
    vals = f.value(np.concatenate([points for points, _ in plans]))
    return [rule(v) for (_, rule), v in zip(plans, np.split(vals, np.cumsum([p.size for p, _ in plans])[:-1]))]


def averaged_right_derivative(f: Frontier, u, params: SmoothingParams):
    """Windowed average of the right derivative minus the linear tilt, at one
    window start ``u`` or an array of them.

    Computed as a value difference, which equals the window average of
    ``F^+`` exactly for concave ``f``. Both ends of every window go to ``f``
    in one ``value`` call.
    """
    (out,) = _evaluate(f, _slope_plan(f, np.atleast_1d(np.asarray(u, dtype=float)), params))
    return float(out[0]) if np.ndim(u) == 0 else out


class _Core:
    """Windowed-average smoother of one source frontier on ``I_n``, through
    ``F_anchor`` at ``anchor``, whose window integral is ``H_anchor``. `value`
    and `slope` give `_evaluate`'s plans on the source at an array ``us``, so a
    caller can merge several into one source call; `ends` gives both for one."""

    def __init__(self, f: Frontier, params: SmoothingParams, anchor: float, H_anchor: float, F_anchor: float):
        self.f, self.p, self.anchor, self._H_anchor, self._F_anchor = f, params, anchor, H_anchor, F_anchor

    def slope(self, us):
        return _slope_plan(self.f, us, self.p)

    def value(self, us, zeta=None):
        """The plan of the values at ``us``, plus ``zeta`` added last if given."""
        points, integrals = _window_plan(self.f, us, self.p.delta)
        rule = lambda v: self._from_integral(us, integrals(v))
        return points, rule if zeta is None else lambda v: rule(v) + zeta

    def ends(self, us: np.ndarray) -> tuple[list, list]:
        slopes, vals = _evaluate(self.f, self.slope(us), self.value(us))
        return slopes.tolist(), vals.tolist()

    def _from_integral(self, u, h):
        p, a = self.p, self.anchor
        return self._F_anchor + (h - self._H_anchor) / p.delta - p.gamma * 0.5 * (u * u - a * a)


def _core_range(tech: Technology, n: int) -> tuple[float, float]:
    """The ends ``b, B`` of a level-``n`` pair's core pieces."""
    return 1.0 / n, tech.u0 - 2.0 / n


def _guard_probes(u0: float) -> np.ndarray:
    """The points where `build_smooth_pair` certifies the pair's ordering."""
    return np.linspace(0.0, u0 + 2.0, 257)


def _core_deviation(tech: Technology, params: SmoothingParams, guard: bool = True) -> tuple[float, _Core, _Core]:
    """Max deviation of the core pair, anchored at ``u_star + 1/n``, from the
    source, with the two cores. `SmoothingParams.auto` measures it and
    `build_smooth_pair` measures it again on the same points, so a
    moral-hazard F1 answers the build's repeat from its last solve. The
    source calls also take the far ends of the end windows and, F1's where
    ``guard``, the windows of the ordering guard's probes (`_guard_probes`)
    in the core ``(b, B]`` (`_core_range`), so that solve holds every source
    point of the build's `_Core.ends` and of its guard as well; F1 keeps it
    across calls that solve nothing. `auto` asks for the guard's windows
    only with its first candidate, which passes on every sampled
    `mh-smooth-sweep` instance: they are a waste on a candidate it refuses.

    A deviation that is not finite (a NaN from either side) makes it inf, so
    it can never pass an accuracy budget.
    """
    n = params.n
    b, B = _core_range(tech, n)
    anchor, us, probes = tech.u_star + 1.0 / n, np.linspace(b, B, 33), _guard_probes(tech.u0)
    points = np.append(anchor, us)  # their windows and values, one source call per core
    starts = np.append(points, probes[(probes > b) & (probes <= B)])
    far_ends = us[[0, -1]] + params.delta  # for the build's end slopes
    cores, dev = [], []
    for f, guarded in ((tech.f0, False), (tech.f1, guard)):
        plan = _window_plan(f, starts if guarded else points, params.delta)
        h, vals = _evaluate(f, plan, (np.append(points, far_ends), lambda v: v[:-2]))
        cores.append(_Core(f, params, anchor, float(h[0]), float(vals[0])))
        dev.append(np.abs(cores[-1]._from_integral(us, h[1 : points.size]) - vals[1:]))
    dev = np.concatenate(dev)
    return (float(np.max(dev)) if np.all(np.isfinite(dev)) else INF), *cores


@dataclass
class _Piece:
    lo: float
    hi: float
    val: object
    der: object
    #: ``val`` and ``der`` take arrays. The exponential pieces run per point
    #: instead: they use ``math.exp``, which ``np.exp`` does not match bit for bit
    batch: bool = True
    #: a core piece's source: ``val`` and ``der`` then give `_evaluate`'s plans on it
    src: Frontier | None = None


class _PiecewiseFrontier(Frontier):
    """Concave C1 frontier assembled from closed-form pieces, less ``eps*(u -
    u_star)^2`` below ``u_star`` (still C1, concave) if ``lowered = (u_star, eps)``."""

    def __init__(self, pieces: list[_Piece], peak: float | None = None, lowered: tuple[float, float] | None = None):
        self.pieces, self.lowered = pieces, lowered
        self.domain = (pieces[0].lo, pieces[-1].hi)
        knots = tuple(p.lo for p in pieces[1:])
        self.knots = knots if lowered is None else tuple(sorted({*knots, lowered[0]}))
        self._edges = np.array([pieces[0].lo, *(p.hi for p in pieces)])
        if peak is not None:
            self._peak = float(peak)

    def _answer(self, requests):
        """For each ``(u, what, side)`` request, piece ``what`` ('val' or 'der')
        at in-domain ``u``, in the shape of ``u``, less the lowering.

        A join belongs to the piece on its ``side``: the piece below it
        ("left") or above it ("right"). Batch pieces get a request's points in
        one call. A core piece gives its plan instead, and the plans of all
        requests on one source go to it in one `_evaluate` call.
        """
        outs, planned = [], {}
        for u, what, side in requests:
            us = np.atleast_1d(np.asarray(u, dtype=float))
            idx = cell_index(self._edges, us, side)
            outs.append(np.empty_like(us))
            for i in set(idx.tolist()):
                piece, sel = self.pieces[i], idx == i
                fn = getattr(piece, what)
                if piece.src is not None:
                    planned.setdefault(piece.src, []).append((outs[-1], sel, fn(us[sel])))
                else:
                    outs[-1][sel] = fn(us[sel]) if piece.batch else [fn(x) for x in us[sel].tolist()]
        for f, parts in planned.items():
            for (out, sel, _), vals in zip(parts, _evaluate(f, *(plan for *_, plan in parts))):
                out[sel] = vals
        outs = [out.reshape(np.shape(u)) for out, (u, *_) in zip(outs, requests)]
        if self.lowered is not None:
            u_star, eps = self.lowered
            for i, (u, what, _) in enumerate(requests):
                d = np.minimum(u - u_star, 0.0)
                outs[i] = outs[i] - (eps * np.square(d) if what == "val" else 2.0 * eps * d)
        return outs

    def _values(self, us):
        return self._answer([(us, "val", "left")])[0]

    def _derivs(self, u, side):
        # C1 by construction; at a join each side reads its own piece, so the
        # two sides there compare the adjacent pieces' slopes
        return self._answer([(u, "der", side)])[0]


@dataclass
class SmoothedPair:
    """One smoothing level: the frontier pair, its peaks and parameters."""

    f0n: Frontier
    f1n: Frontier
    params: SmoothingParams
    u0_n: float
    u1_n: float
    u_star_n: float

    def gap(self, u):
        return self.f1n.value(u) - self.f0n.value(u)


def build_smooth_pair(tech: Technology, params: SmoothingParams) -> SmoothedPair:
    """Construct one smoothing level of the pair with all extensions attached."""
    params.validate_for(tech)
    n, zeta = params.n, params.zeta
    error, core0, core1 = _core_deviation(tech, params)
    if error > params.eps:
        raise ParamsOutOfRange("core deviation exceeds the eps budget")

    u0 = tech.u0
    b, B = _core_range(tech, n)
    (d_b0, d_B0), (V_b0, V_B0) = core0.ends(np.array([b, B]))
    (d_b1, d_B1), (V_b1, V_B1) = core1.ends(np.array([b, B]))
    V_b1, V_B1 = V_b1 + zeta, V_B1 + zeta
    if d_B0 <= 0.0:
        raise ParamsOutOfRange("pre-breakthrough frontier must still rise at u0-2/n")
    if d_B1 - 1.5 / n >= 0.0:
        raise ParamsOutOfRange("post-breakthrough frontier must fall at u0-2/n")

    # left extension: concave quadratics whose curvature difference makes the
    # gap strictly increasing near 0
    c0 = 0.5 * n
    g_b = d_b1 - d_b0
    c1 = c0 + n * (max(0.0, -g_b) + 1.0 / n)

    def quad_piece(V, d, c):
        return _Piece(
            0.0, b,
            lambda u, V=V, d=d, c=c: V + d * (u - b) - 0.5 * c * (u - b) ** 2,
            lambda u, d=d, c=c: d + c * (b - u),
        )

    core_piece0 = _Piece(b, B, core0.value, core0.slope, src=tech.f0)
    core_piece1 = _Piece(b, B, lambda us: core1.value(us, zeta), core1.slope, src=tech.f1)

    # right extension of F1: derivative glides down to its clamp d_B1 - 1/n
    m1 = d_B1 - 1.0 / n
    right1 = _Piece(
        B, INF,
        lambda u: V_B1 + m1 * (u - B) + (d_B1 - m1) * (1 - math.exp(-n * (u - B))) / n,
        lambda u: m1 + (d_B1 - m1) * math.exp(-n * (u - B)),
        batch=False,
    )

    # right extension of F0 in three pieces: rise to a peak at p = u0 - 1/(2n),
    # fall fast to just below F1's slope clamp, then glide to the asymptote
    p = u0 - 0.5 / n
    m0_mid = d_B1 - 1.5 / n
    m0_lim = d_B1 - 2.0 / n
    K = n * max(1.0, -m0_mid)
    u_m = p + (-m0_mid) / K
    V_p = V_B0 + 0.5 * d_B0 * (p - B)  # integral of the linear descent to 0
    V_um = V_p - 0.5 * K * (u_m - p) ** 2

    rise = _Piece(
        B, p,
        lambda u: V_B0 + d_B0 * ((u - B) - 0.5 * (u - B) ** 2 / (p - B)),
        lambda u: d_B0 * (1.0 - (u - B) / (p - B)),
    )
    fall = _Piece(
        p, u_m,
        lambda u: V_p - 0.5 * K * (u - p) ** 2,
        lambda u: -K * (u - p),
    )
    glide = _Piece(
        u_m, INF,
        lambda u: V_um
        + m0_lim * (u - u_m)
        + (m0_mid - m0_lim) * (1 - math.exp(-n * (u - u_m))) / n,
        lambda u: m0_lim + (m0_mid - m0_lim) * math.exp(-n * (u - u_m)),
        batch=False,
    )
    # u_m rounds, which moves the fall's slope there by K times that: refuse a
    # level whose two slopes at that join float64 leaves past the C1 gate
    if (drift := abs(fall.der(u_m) - glide.der(u_m))) >= _C1_GATE:
        raise ParamsOutOfRange(f"float64 leaves F0_n's slopes at its last join {drift:.3g} apart, past {_C1_GATE:g}")

    f0n = _PiecewiseFrontier([quad_piece(V_b0, d_b0, c0), core_piece0, rise, fall, glide], peak=p)
    f1n = _PiecewiseFrontier([quad_piece(V_b1, d_b1, c1), core_piece1, right1])

    # ordering guard: the extensions keep F1_n above F0_n by construction at
    # the chosen scales, but the margin is instance-dependent, so certify it.
    # The core measurement's source call holds the probes' core windows
    probes = _guard_probes(u0)
    gaps = f1n.value(probes) - f0n.value(probes)
    if not np.min(gaps) > 0.0:
        raise ParamsOutOfRange("extensions failed to keep the pair ordered")

    u1_n = f1n.peak
    # the gap's ceiling on the core, which spares the grid its windows there;
    # `gap_argmax` derives the margin
    S = max(B, abs(V_b0), abs(V_B0), abs(V_b1), abs(V_B1), abs(V_b1 + d_b1 * (B - b)))
    margin = 2.0**-40 * S * (6.0 + 2.0 * (B - b) / params.delta)
    ceiling = (b, B, V_b1 - V_b0 + margin, d_b1 - (V_B0 - V_b0) / (B - b))
    u_star_n = gap_argmax(f0n, f1n, p, ceiling)

    # strict-local-max fix: lower F1_n slightly below u_star_n if the gap's
    # argmax is not strict there
    top = float(f1n.value(u_star_n) - f0n.value(u_star_n))
    rivals = gaps[np.abs(probes - u_star_n) > 0.5 / n]
    if rivals.size and np.max(rivals) >= top - 1e-12:
        f1n = _PiecewiseFrontier(f1n.pieces, lowered=(u_star_n, params.zeta / 8.0))
        # the fix only lowers F1_n, so the ceiling still holds
        u_star_n = gap_argmax(f0n, f1n, p, ceiling)

    return SmoothedPair(
        f0n=f0n, f1n=f1n, params=params,
        u0_n=f0n.peak, u1_n=u1_n, u_star_n=u_star_n,
    )


def build_sequence(tech: Technology, ns) -> list[SmoothedPair]:
    return [build_smooth_pair(tech, SmoothingParams.auto(tech, n)) for n in ns]


def verify_monster(tech: Technology, sequence: list[SmoothedPair]) -> VerificationReport:
    """Certify the approximation properties of a built smoothing sequence."""
    rep = VerificationReport("smoothing")
    u0, u1, u_star = tech.u0, tech.u1, tech.u_star
    concavity_points, slack = midpoint_concavity_plan(np.linspace(0.0, u0, 33))
    # (c)'s two grids, and (d)'s probe points at the largest level
    grids = np.concatenate([np.linspace(1e-9, 0.5 * u0, 33), np.linspace(0.5 * u0, u0, 33)])
    largest = max(sequence, key=lambda pr: pr.params.n)
    half = 0.5 * largest.params.delta
    us = np.array([0.4 * u0, 0.6 * u0, *(k for f in (tech.f0, tech.f1) for k in f.knots if 0 < k < u0)])
    us = us[us - half > 0]  # each window straddles its probe point
    bounds, sandwich = [], []

    for pair in sequence:
        n = pair.params.n
        # one request call per front, on points inside its domain (the slopes'
        # strictly): the concavity grid's values, the right side at (c)'s
        # grids, the joins and, at the largest level, (d)'s starts, and the
        # left side at the joins
        probes = us - half if pair is largest else us[:0]
        # `_answer` skips `Frontier.value`'s and `deriv`'s domain and edge
        # handling, which none of these points may reach
        for f in (pair.f0n, pair.f1n):
            lo, hi = f.domain
            if not (lo <= 0.0 and u0 < hi and all(lo < k < hi for k in f.knots)):
                raise PreconditionViolation(f"n={n}: a front's domain must hold [0, u0] and its joins inside")
        (vals0, rights0, lefts0), (vals1, rights1, lefts1) = (
            f._answer([
                (concavity_points, "val", "left"),
                (np.concatenate([grids, f.knots, probes]), "der", "right"),
                (np.array(f.knots), "der", "left"),
            ])
            for f in (pair.f0n, pair.f1n)
        )
        ordered = bool(np.min(vals1[:33] - vals0[:33]) > 0)
        bounds += [rights0[:66], rights1[:66]]
        if pair is largest:
            sandwich = [d[d.size - us.size :] for d in (rights0, rights1)]
        # each piece is C1, so the pair is C1 if the two sides agree at every
        # join (a NaN fails); uniform-derivative-bounds catches other non-finite slopes
        c1_ok = all(
            bool(np.all(np.abs(left - right[66 : 66 + left.size]) < _C1_GATE))
            for left, right in ((lefts0, rights0), (lefts1, rights1))
        )
        rep.add(
            f"model-assumptions-n{n}",
            slack(vals0) > 0 and slack(vals1) > 0 and c1_ok and ordered and pair.u1_n < pair.u0_n,
        )

        peaks_ok = (
            u0 - 1.0 / n - 1e-9 <= pair.u0_n <= u0 + 1e-9
            and abs(pair.u1_n - u1) <= 1.0 / n + 1e-9
            and abs(pair.u_star_n - u_star) <= 1.0 / n + 1e-9
        )
        rep.add(f"peak-locations-n{n}", peaks_ok)

    # (c) uniform derivative bounds across the sequence; np.min and np.max
    # keep a NaN, which then fails the finiteness test
    below, above = float(np.min([d[:33] for d in bounds])), float(np.max([d[33:] for d in bounds]))
    rep.add(
        "uniform-derivative-bounds",
        math.isfinite(below) and math.isfinite(above),
        note=f"min={below:.3g} on [0, u0/2], max={above:.3g} on [u0/2, u0]",
    )

    # (d) derivative limits along convergent probes sandwich into [F^+, F^-]
    n = largest.params.n
    ok_d, worst = True, 0.0
    for d, f_src in zip(sandwich, (tech.f0, tech.f1)):
        right, left = f_src.deriv_sides(us)
        lo_lim, hi_lim = right - 2.0 / n - 2.0 * largest.params.gamma, left + 2.0 / n
        inside = (lo_lim <= d) & (d <= hi_lim)
        if not inside.all():
            ok_d = False
            worst = max(worst, float(np.max(np.maximum(lo_lim - d, d - hi_lim)[~inside])))
    rep.add("derivative-limits-sandwich", ok_d, worst_violation=worst)
    return rep
