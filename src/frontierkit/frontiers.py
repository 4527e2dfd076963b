"""Concave frontiers: evaluable value, one-sided derivatives, domain, peak.

A frontier maps promised utility ``u`` to the best attainable payoff. It is
concave, finite on the interior of its effective domain and ``-inf`` outside
the domain's closure. One-sided derivatives may be ``+inf``/``-inf`` at the
domain endpoints; any ``eta`` in ``[right_deriv(u), left_deriv(u)]`` is a
supergradient at ``u``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import cell_index
from .roots import bisect_predicate_array, golden_section_max

INF = math.inf


class Frontier:
    """Base class: domain, edge and scalar/array handling around two hooks.

    A subclass implements exactly two hooks, both on in-domain points only:

    - ``_values(us)`` takes a 1-D array of points inside the domain closure
      and returns their values;
    - ``_derivs(u, side)`` takes a float or an array of interior points and
      returns the ``side`` ("left" or "right") derivative in the same shape.

    This class does the rest. ``value`` accepts a scalar or an array, gives
    ``-inf`` outside the domain (and at NaN) and a ``float`` for a scalar. A
    ``float`` (or ``np.float64``) is tested against the domain in Python and
    handed to the hook as the one-element array the array path would build,
    so one number skips the array masks and keeps the bits. ``left_deriv``
    and ``right_deriv`` are scalar-only, for callers that need one
    derivative at a time (the mixture's per-member level test, one-off
    checks), where an array test per call would cost more than the
    derivative: they check the domain, return ``+inf``/``-inf`` at its ends
    and pass a float to the hook. Every array caller uses ``deriv(us,
    side)``, which passes the whole interior array to the hook at once, or
    `directional_deriv` to pick the side per point. ``argmax_linear`` (and so
    ``peak``) bisects on ``deriv``, several steps per call; a closed form may
    override it.
    """

    #: closure of the effective domain, as a pair (lo, hi); hi may be inf
    domain: tuple[float, float] = (0.0, INF)

    #: derivative breakpoints, if any (used for exact windowed integrals)
    knots: tuple[float, ...] = ()

    #: whether ``deriv`` gives one value for both sides at every point
    sides_agree: bool = False

    def _values(self, us: np.ndarray):
        raise NotImplementedError

    def _derivs(self, u, side: str):
        raise NotImplementedError

    def value(self, u):
        lo, hi = self.domain
        if isinstance(u, float):
            return float(self._values(np.array([u]))[0]) if lo <= u <= hi else -INF
        us = np.asarray(u, dtype=float)
        inside = (us >= lo) & (us <= hi)
        out = np.full(us.shape, -INF)
        out[inside] = self._values(us[inside])
        return float(out) if out.ndim == 0 else out

    def _check_domain(self, u: float) -> None:
        lo, hi = self.domain
        if u < lo or u > hi:
            raise DomainError(f"u={u:g} outside domain closure [{lo:g}, {hi:g}]")

    def left_deriv(self, u: float) -> float:
        self._check_domain(u)
        if u <= self.domain[0]:
            return INF
        return float(self._derivs(u, "left"))

    def right_deriv(self, u: float) -> float:
        self._check_domain(u)
        if u >= self.domain[1]:
            return -INF
        return float(self._derivs(u, "right"))

    def deriv(self, us, side: str) -> np.ndarray:
        """``left_deriv`` or ``right_deriv`` (``side``) at each point of ``us``.

        The whole array is checked against the domain first.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        us = np.asarray(us, dtype=float)
        lo, hi = self.domain
        outside = (us < lo) | (us > hi)
        if outside.any():
            self._check_domain(float(us[outside][0]))
        edge = us <= lo if side == "left" else us >= hi
        out = np.full(us.shape, INF if side == "left" else -INF)
        out[~edge] = self._derivs(us[~edge], side)
        return out

    def deriv_sides(self, us) -> tuple[np.ndarray, np.ndarray]:
        """``deriv(us, "right")`` and ``deriv(us, "left")``, from one call where
        the sides agree: they then differ only at the domain's ends."""
        us = np.asarray(us, dtype=float)
        right = self.deriv(us, "right")
        if not self.sides_agree:
            return right, self.deriv(us, "left")
        left, top = np.where(us <= self.domain[0], INF, right), us >= self.domain[1]
        if top.any():  # the right side is -inf there
            left[top] = self.deriv(us[top], "left")
        return right, left

    def _bounds(self, lo, hi) -> tuple[float, float]:
        return (self.domain[0] if lo is None else lo, self.domain[1] if hi is None else hi)

    def argmax_linear(self, eta: float, lo=None, hi=None, largest: bool = False) -> float:
        """Smallest (or ``largest``) maximizer of ``f(u) - eta*u`` on ``[lo, hi]``.

        ``[lo, hi]`` defaults to the domain. The smallest maximizer is the
        least ``u`` with ``right_deriv(u) <= eta``, the largest the greatest
        ``u`` with ``left_deriv(u) >= eta``; both tests are monotone in ``u``,
        so one bisection finds either (to adjacent floats, kink-safe). It
        gives the bisection ``deriv``'s values on arrays of points, which also
        guide its probes. An unbounded upper end is doubled out first.
        """
        lo, hi = self._bounds(lo, hi)
        slope = lambda us: self.deriv(us, "left" if largest else "right")
        above = (lambda d: d >= eta) if largest else (lambda d: d > eta)
        if math.isinf(hi):
            hi = max(1.0, lo + 1.0)
            while above(slope(hi)):
                hi = lo + 2.0 * (hi - lo)
                if hi > 1e12:
                    raise DomainError(f"no maximizer of f(u) - {eta:g}*u found below u=1e12")
        above_lo, above_hi = above(slope(np.array([lo, hi])))
        if not above_lo:
            return lo
        if above_hi:
            return hi
        lo, hi = bisect_predicate_array(slope, lo, hi, eta, strict=not largest)
        return lo if largest else hi

    @property
    def peak(self) -> float:
        """Argmax of the frontier over its domain, ``argmax_linear(0.0)`` (cached)."""
        cached = getattr(self, "_peak", None)
        if cached is None:
            cached = self._peak = self.argmax_linear(0.0)
        return cached


class ParametricFrontier(Frontier):
    """Smooth concave frontier given by closed-form value and derivative.

    ``value_fn`` and ``deriv_fn`` are elementwise: each takes a float or an
    array and returns the same shape, so ``deriv`` evaluates a whole array in
    one ``deriv_fn`` call, for either side (`sides_agree`).
    """

    sides_agree = True

    def __init__(
        self,
        value_fn: Callable,
        deriv_fn: Callable,
        domain: tuple[float, float] = (0.0, INF),
        peak: float | None = None,
    ):
        self._value_fn = value_fn
        self._deriv_fn = deriv_fn
        self.domain = (float(domain[0]), float(domain[1]))
        if peak is not None:
            self._peak = float(peak)

    def _values(self, us):
        # an unbounded domain holds +inf, where a closed form gives nan
        return self._value_fn(np.minimum(us, 1e300))

    def _derivs(self, u, side):
        return self._deriv_fn(u)


class QuadraticFrontier(ParametricFrontier):
    """``a + b*u + c*u**2`` with ``c < 0``, on a given domain."""

    def __init__(self, a: float, b: float, c: float, domain=(0.0, INF)):
        if c >= 0:
            raise ValueError("quadratic frontier needs negative curvature")
        super().__init__(lambda u: a + b * u + c * u * u, lambda u: b + 2.0 * c * u, domain=domain)
        self.coeffs = (a, b, c)

    def argmax_linear(self, eta, lo=None, hi=None, largest=False):
        # the tilted parabola's vertex, clipped: the one maximizer, so ``largest``
        # changes nothing. At eta = 0 this is -b/(2c) bit for bit
        _, b, c = self.coeffs
        x = max(-(b - eta) / (2.0 * c), self.domain[0] if lo is None else lo)
        return min(x, self.domain[1] if hi is None else hi)


class AffineFrontier(ParametricFrontier):
    """``a + b*u`` on a bounded domain; its peak sits at a domain endpoint."""

    def __init__(self, a: float, b: float, domain: tuple[float, float]):
        if math.isinf(domain[1]):
            raise ValueError("affine frontier needs a bounded domain")
        peak = domain[1] if b >= 0 else domain[0]
        super().__init__(
            lambda u: a + b * u, lambda u: np.full_like(u, b), domain=domain, peak=peak
        )
        self.coeffs = (a, b)

    def argmax_linear(self, eta, lo=None, hi=None, largest=False):
        # the tilted line rises (or, for ``largest``, does not fall) to ``hi``
        lo, hi = self._bounds(lo, hi)
        b = self.coeffs[1]
        return hi if (b >= eta if largest else b > eta) else lo


class PiecewiseLinearFrontier(Frontier):
    """Concave piecewise-linear frontier through ``(xs, ys)`` breakpoints."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) < 2 or np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(np.diff(slopes) > 1e-12):
            raise ValueError("breakpoint values are not concave")
        self.xs, self.ys, self.slopes = xs, ys, slopes
        self.domain = (float(xs[0]), float(xs[-1]))
        self.knots = tuple(xs[1:-1])

    def _values(self, us):
        return np.interp(us, self.xs, self.ys)

    def _derivs(self, u, side):
        # at a kink the left side takes the segment below it, the right side
        # the one above
        return self.slopes[cell_index(self.xs, u, side)]

    def argmax_linear(self, eta, lo=None, hi=None, largest=False):
        # the first breakpoint whose right slope is <= eta, or the last whose
        # left slope is >= eta when ``largest`` (the last breakpoint's right
        # slope is -inf and the first's left slope +inf), clipped
        lo, hi = self._bounds(lo, hi)
        k = np.count_nonzero(self.slopes >= eta if largest else self.slopes > eta)
        return min(max(float(self.xs[k]), lo), hi)


class CallableFrontier(ParametricFrontier):
    """Black-box concave function; one-sided difference quotients, step 1e-6."""

    FD_STEP = 1e-6
    sides_agree = False  # the two quotients differ at a kink

    def __init__(self, fn: Callable, domain=(0.0, INF), peak: float | None = None):
        super().__init__(fn, None, domain=domain, peak=peak)

    def _derivs(self, u, side):
        # the step shrinks to fit inside the domain
        lo, hi = self.domain
        if side == "left":
            h = np.minimum(self.FD_STEP, u - lo)
            return (self.value(u) - self.value(u - h)) / h
        h = np.minimum(self.FD_STEP, hi - u)
        return (self.value(u + h) - self.value(u)) / h


def directional_deriv(f: Frontier, a, b):
    """Derivative of ``f`` at ``a`` in the direction of ``b``, elementwise.

    Left derivative where ``a > b``, right derivative elsewhere; the
    ``a == b`` case is inert (it always multiplies a zero difference) and
    takes the right derivative by convention. ``a`` and ``b`` broadcast; a
    float comes back for scalars.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    left = a > b
    out = np.empty(a.shape)
    out[left] = f.deriv(a[left], "left")
    out[~left] = f.deriv(a[~left], "right")
    return out if out.ndim else float(out)


def gap_argmax(f0: Frontier, f1: Frontier, hi: float, ceiling=None) -> float:
    """Argmax of ``f1 - f0`` on ``[0, hi]`` for a smoothed pair: the best of
    601 even grid points, then golden section at ``tol=1e-12`` between the
    grid points two steps either side of it.

    ``ceiling = (b, B, top, slope)`` bounds every computed gap on ``(b, B]``
    by ``top + slope * (u - b)``. While that line lies strictly below the
    largest gap of the other grid points, all of them finite, the grid points
    it covers are left out: the full grid's argmax is among those evaluated,
    and the search returns it bit for bit. Otherwise the whole grid is
    evaluated.

    A smoothed pair passes its core ``(b, B] = (1/n, u0 - 2/n]``, where each
    gap costs a window of source solves. By concavity ``F1_n`` lies below its
    tangent at ``b`` (``V_b1``, slope ``d_b1``) and ``F0_n`` above its chord
    from ``b`` to ``B`` (``V_b0``, ``V_B0``), so ``slope = d_b1 - (V_B0 -
    V_b0) / (B - b)`` and ``top = V_b1 - V_b0 + margin``. If each value
    read, and each source value in ``d_b1``'s difference over ``delta``, lies
    within ``rho`` of the concave function it computes, then a computed gap
    exceeds the exact one by ``2 rho``, ``V_b1`` and the chord are off by
    ``rho`` each, ``d_b1`` by ``2 rho / delta`` (``2 rho (B - b) / delta``
    across the core), and the line's own arithmetic by under ``2 rho``: the
    margin is ``rho (6 + 2 (B - b) / delta)``, growing as
    `SmoothingParams.auto` halves ``delta``. ``rho = 2**-40 S``, with ``S``
    the largest of ``B`` (the source's ``u`` term) and ``|V_b0|``,
    ``|V_B0|``, ``|V_b1|``, ``|V_B1|`` and ``|V_b1 + d_b1 (B - b)|``, which
    bound both cores in magnitude. On moral-hazard pairs with ``lam`` and
    ``w`` in ``[0.3, 3]`` and exponents in ``[0.2, 0.8]`` and ``[1.3, 4]``,
    three levels each, the computed cores crossed that tangent or chord by at
    most ``1.1e-15 S``, about ``2**-50 S``.
    """
    gap = lambda u: f1.value(u) - f0.value(u)
    us = np.linspace(0.0, hi, 601)
    gaps = None
    if ceiling is not None:
        b, B, top, slope = ceiling
        skip = (us > b) & (us <= B)
        part = gap(us[~skip])
        if np.all(np.isfinite(part)) and np.max(top + slope * (us[skip] - b), initial=-INF) < np.max(part):
            gaps = np.full(us.shape, -INF)
            gaps[~skip] = part
    if gaps is None:
        gaps = gap(us)
    i = int(np.argmax(gaps))
    return golden_section_max(gap, float(us[max(0, i - 2)]), float(us[min(600, i + 2)]))


def midpoint_concavity_plan(us: Sequence[float]):
    """The points ``us`` and the midpoints of all their pairs, and the rule
    from a frontier's values there to its worst midpoint-concavity slack: the
    ``min over pairs of value(mid) - (value(u)+value(v))/2`` over the pairs
    whose two values are finite. A concave function yields a nonnegative
    result up to rounding."""
    us = np.asarray(list(us), dtype=float)
    iu, iv = np.triu_indices(us.size, k=1)
    def slack(vals):
        vals, mid_vals = vals[: us.size], vals[us.size :]
        finite = np.isfinite(vals[iu]) & np.isfinite(vals[iv])
        return float(np.min((mid_vals - 0.5 * (vals[iu] + vals[iv]))[finite])) if finite.any() else INF

    return np.concatenate([us, 0.5 * (us[iu] + us[iv])]), slack


def midpoint_concavity_slack(f: Frontier, us: Sequence[float]) -> float:
    """Worst midpoint-concavity slack of ``f`` over all pairs of the sample
    points ``us`` (see `midpoint_concavity_plan`), from one ``value`` call."""
    points, slack = midpoint_concavity_plan(us)
    return slack(np.atleast_1d(np.asarray(f.value(points), dtype=float)))
