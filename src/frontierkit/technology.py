"""Moral-hazard technologies: frontier construction, effort problem, peaks.

The pre-breakthrough frontier is ``F0(u) = u - lam * phi_inv(u)`` and the
post-breakthrough frontier is

    F1(u) = u + lam * max_{L >= 0} { w*L - phi_inv(u + kappa(L)) },

with the inner effort problem solved by its first-order condition
``w = kappa'(L) / phi'(phi_inv(u + kappa(L)))``, whose left side is constant
and right side strictly increasing in ``L``.

The gap ``F1 - F0`` peaks at ``u* = 0``. By the envelope theorem its slope
is ``lam / phi'(phi_inv(u)) - lam / phi'(phi_inv(u + kappa(L*)))``, and
``phi'(phi_inv(v)) = a v**(1 - 1/a)`` strictly decreases while the optimal
effort ``L* > 0`` makes ``kappa(L*) > 0``: the slope is negative, so the gap
strictly decreases on ``[0, inf)`` for every admissible instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InadmissiblePrimitives, UnresolvablePeaks
from .frontiers import INF, Frontier, ParametricFrontier, midpoint_concavity_slack
from .report import VerificationReport
from .roots import BRACKET_HI, BRACKET_LO, bisect, solve_monotone, speculate

#: ``phi'(phi_inv(u))`` divides by zero at 0 and, for small exponents,
#: overflows to +inf near 0; every solve that evaluates it handles those
#: limits. Only used as a decorator, which enters a fresh context per call
#: (one per solve) and so nests, where a shared ``with`` instance cannot.
_quiet = np.errstate(divide="ignore", over="ignore")

# `MoralHazardPrimitives.validate`: the effort at which the marginal effort
# cost must exceed ``_DIVERGENCE_FACTOR`` times the wage
_DIVERGENCE_L = 1e6
_DIVERGENCE_FACTOR = 2.0

# `make_frontier_f0`: the log of the largest float
_LN_DBL_MAX = math.log(np.finfo(float).max)

# `_effort_guess`: Newton steps on the log-FOC
_NEWTON_STEPS = 6

# `_u1_condition`: its guards' distances from the identity's u1, narrow first,
# in solver steps (1e-12 or the float spacing at u0), and the margin their
# values must clear, per unit of ``lam / a``
_U1_WINDOWS = (32.0, 2048.0)
_U1_MARGIN = 2.0**-40

# `effort_star_array` tests for repeated midpoints from this halving on
# (counted from 0). A bracket starts at least 1 wide and lies in [0, hi], so
# after k halvings it is about 2**-k * hi wide, more than the float spacing
# below hi (at most 2**-52 * hi) while k < 52: no midpoint repeats sooner.
# Steps past a fixed point change nothing, so the test only saves time.
_FIRST_REPEAT = 47


@dataclass(frozen=True)
class PowerUtility:
    """Utility of consumption ``phi(c) = c**a`` with ``0 < a < 1``."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError("utility exponent must lie in (0, 1)")
        object.__setattr__(self, "a", float(self.a))

    def phi_inv(self, u):
        return np.power(u, 1.0 / self.a)

    def phi_prime_at_inv(self, u):
        """``phi'(phi_inv(u))``, which is ``a * u**(1 - 1/a)``; +inf at 0
        (and, for small ``a``, already overflowing to +inf near 0). It warns
        there, so callers run under `_quiet`."""
        return self.a * np.power(u, 1.0 - 1.0 / self.a)


@dataclass(frozen=True)
class PowerCost:
    """Effort cost ``kappa(L) = L**b`` with ``b > 1``."""

    b: float

    def __post_init__(self):
        if not 1.0 < self.b < math.inf:
            raise ValueError("cost exponent must be finite and exceed 1")
        object.__setattr__(self, "b", float(self.b))

    def kappa(self, L):
        return np.power(L, self.b)

    def kappa_prime(self, L):
        return self.b * np.power(L, self.b - 1.0)


@dataclass(frozen=True)
class MoralHazardPrimitives:
    """Cost weight, wage, utility-of-consumption and effort-cost specs (frozen)."""

    lam: float
    w: float
    phi: PowerUtility
    kappa: PowerCost

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0.0 < self.w < math.inf:
            raise ValueError("w must be positive and finite")

    @_quiet
    def validate(self) -> None:
        """Check that the marginal effort cost diverges; the power constructors
        already make ``phi'`` strictly decreasing and ``kappa(0) = 0``. Extreme
        exponents overflow to inf or divide by zero at ``_DIVERGENCE_L``; the
        comparison handles those limits, so the warnings are silenced.
        """
        L = _DIVERGENCE_L
        marginal = float(self.kappa.kappa_prime(L) / self.phi.phi_prime_at_inv(self.kappa.kappa(L)))
        if marginal < _DIVERGENCE_FACTOR * self.w:
            raise InadmissiblePrimitives(
                f"`w`, `phi.exponent` and `kappa.exponent` give a marginal effort cost "
                f"{marginal:.3g} at L={L:g} that does not exceed w={self.w:g} by factor "
                f"{_DIVERGENCE_FACTOR:g}, so the effort problem may have no interior maximizer"
            )


def _foc_ratio(prims: MoralHazardPrimitives):
    """The FOC's right side ``(u, L) -> kappa'(L)/phi'(phi_inv(u + kappa(L)))``,
    strictly increasing in L, with the primitives' constants read once.

    Each power is the one `PowerUtility` and `PowerCost` compute, so the
    ratio has their bits. ``kappa_prime`` stays a call: the benchmark tracer
    counts FOC evaluations by its elements.
    """
    a, b, kappa_prime = prims.phi.a, prims.kappa.b, prims.kappa.kappa_prime
    e, power = 1.0 - 1.0 / a, np.power
    return lambda u, L: kappa_prime(L) / (a * power(u + power(L, b), e))


@_quiet
def effort_star(prims: MoralHazardPrimitives, u: float) -> float:
    """Unique positive effort solving the inner first-order condition.

    Solved to the machine-precision limit so that the FOC residual in scaled
    form stays below 1e-10: `solve_monotone` at ``tol=0``, one point per
    step. `speculate` replays that search on the FOC's array values, so one
    solve costs about one array call of the FOC: the result is the one-point
    search's bit for bit, whatever `_effort_guess` predicts.
    """
    ratio, w = _foc_ratio(prims), prims.w
    return speculate(lambda g: solve_monotone(g, tol=0.0), lambda L: ratio(u, L) - w, _effort_guess(prims, u))


def _effort_guess(prims: MoralHazardPrimitives, u: float) -> float:
    """The effort root estimated by Newton steps in ``y = log L`` on the
    log-FOC ``h(y) = log(b/(a*w)) + (b-1)*y + (1/a-1)*log(u + e^{b*y})``.

    ``h`` increases with slope between ``b - 1`` and ``b/a - 1``. It lies
    above both of its asymptotes, at ``u = 0`` and at ``L = 0``, so the
    smaller of their roots is at or above the root, where the steps start.
    Python `math` can differ from numpy in the last bit, which is fine here:
    only `speculate`'s pass count depends on the guess.
    """
    a, b = prims.phi.a, prims.kappa.b
    d = 1.0 / a - 1.0
    try:
        c = math.log(b / (a * prims.w))
        lu = math.log(u) if u > 0.0 else -INF
        y = min(-c / (b - 1.0 + d * b), -(c + d * lu) / (b - 1.0))
        for _ in range(_NEWTON_STEPS):
            by = b * y
            t = math.exp(-abs(by - lu))
            share = 1.0 / (1.0 + t) if by >= lu else t / (1.0 + t)  # e^{by} / (u + e^{by})
            h = c + (b - 1.0) * y + d * (max(by, lu) + math.log1p(t))
            y -= h / (b - 1.0 + d * b * share)
        return math.exp(y)
    except (ArithmeticError, ValueError):
        return 1.0


@_quiet
def effort_star_array(prims: MoralHazardPrimitives, u) -> np.ndarray:
    """Vectorized solve of the same FOC as `effort_star`, by array bisection.

    Each element's bracket starts at ``[1e-14, 1]``, with the upper end
    doubled until the FOC gap turns nonnegative, and is halved at most 90
    times. The result is the midpoint of the bisection's fixed-point bracket:
    bit for bit what all 90 steps give. It can differ from `effort_star` in
    the last bits, since that one brackets and stops differently.

    An element's steps are its own and the loop ends only once no midpoint
    moves, so each element gets the bits of its solve alone, in any batch,
    repeated or not: de-duplicating is the caller's business (F1's value
    path passes distinct points). ``ratio < w`` is the FOC gap's ``ratio - w
    < 0.0``: a finite difference rounds to 0 only where the two are equal,
    and both tests are false at +inf and NaN.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    ratio, w = _foc_ratio(prims), prims.w
    lo = np.full_like(u, 1e-14)
    hi = np.ones_like(u)
    # expand upper bracket elementwise until the FOC gap turns positive
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
        if step >= _FIRST_REPEAT and not np.count_nonzero(mid != prev):
            # Each midpoint repeated, so it is an end of its bracket: the next
            # step either keeps the bracket or collapses it onto that midpoint,
            # and every later step changes nothing. ``mid`` is already the
            # final midpoint, so the remaining FOC evaluations are skipped.
            break
    return mid


@dataclass
class Technology:
    """A frontier pair with its peaks and the gap's argmax."""

    f0: Frontier
    f1: Frontier
    u0: float
    u1: float
    u_star: float
    prims: MoralHazardPrimitives | None = field(default=None, repr=False)

    def gap(self, u):
        return self.f1.value(u) - self.f0.value(u)


class _PostBreakthroughFrontier(ParametricFrontier):
    """F1 with the effort problem solved pointwise (vectorized bisection).

    The value path remembers its last solve: the distinct inputs of the
    latest call that solved any and their efforts, which the frozen
    primitives keep valid. A call reuses the inputs that equal one of those
    and solves only the rest; a call with nothing to solve leaves the memo as
    it was. So a payoff pair sharing most of its promises, or a smoothing
    build repeating its parameter choice's points, solves most of them once.
    `effort_star_array` solves each input on its own, so the reused efforts
    are the bits a fresh solve gives. The derivative path never reads or
    writes them: its scalar solve can differ in the last bits.
    """

    def __init__(self, prims: MoralHazardPrimitives, peak: float):
        self._prims = prims
        self._last = (np.empty(0), np.empty(0))
        super().__init__(self._val, self._deriv, domain=(0.0, INF), peak=peak)

    @_quiet
    def _val(self, us):
        # quiet: phi_inv overflows to +inf at huge promises, where F1 is -inf
        p = self._prims
        u, back = np.unique(us, return_inverse=True)
        _, i, j = np.intersect1d(self._last[0], u, assume_unique=True, return_indices=True)
        L, miss = np.empty_like(u), np.ones(u.shape, dtype=bool)
        L[j], miss[j] = self._last[1][i], False
        if j.size < u.size:
            L[miss] = effort_star_array(p, u[miss])
            self._last = (u, L)
        L = L[back]
        return us + p.lam * (p.w * L - p.phi.phi_inv(us + p.kappa.kappa(L)))

    @_quiet
    def _deriv(self, u):
        # envelope theorem: only the direct u-dependence matters. The effort
        # comes from the scalar solve, one point at a time, because
        # `effort_star_array` differs from it in the last bits; each point
        # costs about one array call of the FOC (see `effort_star`)
        p = self._prims
        L = np.reshape([effort_star(p, x) for x in np.ravel(u).tolist()], np.shape(u))
        return 1.0 - p.lam / p.phi.phi_prime_at_inv(u + p.kappa.kappa(L))


def make_frontier_f0(prims: MoralHazardPrimitives) -> Frontier:
    p = prims
    # u0 = (a/lam)**(a/(1-a)) solves phi'(phi_inv(u0)) = lam; solve_monotone
    # reaches it only within 199 doublings of its bracket [1e-12, 1]
    a = p.phi.a
    log2_u0 = a / (1.0 - a) * math.log2(a / p.lam)
    if not math.log2(BRACKET_LO) - 199.0 < log2_u0 < math.log2(BRACKET_HI) + 199.0:
        raise UnresolvablePeaks(
            f"`lambda` and `phi.exponent` put u0 = (a/lambda)**(a/(1-a)) = 2**{log2_u0:.6g}, "
            f"beyond the reach [1e-12 * 2**-199, 2**199] of the peak solve"
        )
    u0 = _quiet(solve_monotone)(lambda u: float(p.phi.phi_prime_at_inv(u)) - p.lam)
    # phi_inv(v) = v**(1/a) is finite only while ln(v)/a < ln(DBL_MAX), and F0
    # and F1 are -inf past that; both are evaluated up to about 2 u0
    reach = math.log(2.0 * u0) / a
    if not reach < _LN_DBL_MAX:
        raise InadmissiblePrimitives(
            f"`phi.exponent` = {a:.6g} makes phi_inv(v) = v**(1/a) overflow by v = 2 u0 = {2.0 * u0:.6g}: "
            f"ln(v)/a = {reach:.6g} reaches ln(DBL_MAX) = {_LN_DBL_MAX:.6g}, so F0 and F1 are -inf just above u0"
        )
    return ParametricFrontier(
        _quiet(lambda u: u - p.lam * p.phi.phi_inv(u)),
        _quiet(lambda u: 1.0 - p.lam / p.phi.phi_prime_at_inv(u)),
        domain=(0.0, INF),
        peak=u0,
    )


def make_moral_hazard_technology(prims: MoralHazardPrimitives) -> Technology:
    """Build both frontiers and solve for ``u0`` and ``u1``; ``u* = 0``.

    The ``u1`` bisection runs on `_u1_condition`, which gives the plain
    bisection's bits with fewer effort solves.
    """
    prims.validate()
    f0 = make_frontier_f0(prims)
    u0 = f0.peak

    @_quiet
    def u1_foc(u: float) -> float:
        L = effort_star(prims, u)
        return float(prims.phi.phi_prime_at_inv(u + prims.kappa.kappa(L))) - prims.lam

    # kappa'(L1) = w*lam gives u0 - u1 <= kappa(L1) = (w*lam/b)**(b/(b-1)),
    # with equality at an interior u1. The u0 and u1 solves stop at a 1e-12
    # bracket or at float spacing; within about 5 such steps the u1 condition
    # loses its sign change on [0, u0], so 16 steps or fewer are refused
    b = prims.kappa.b
    try:
        gap = (prims.w * prims.lam / b) ** (b / (b - 1.0))
    except OverflowError:
        gap = INF
    resolution = max(1e-12, math.ulp(u0))
    if gap <= 16.0 * resolution:
        raise UnresolvablePeaks(
            f"`lambda`, `w`, `phi.exponent` and `kappa.exponent` give u0 - u1 <= "
            f"kappa(L1) = {gap:.3g}, within 16 solver steps of {resolution:.3g} (1e-12 "
            f"or the float spacing at u0 = {u0:.6g}), so u1 cannot be told apart from u0"
        )
    # corner first: the FOC holds with inequality at u1 = 0
    at_zero = u1_foc(0.0)
    if at_zero <= 0.0:
        u1 = 0.0
    else:
        # the guards sit `_U1_WINDOWS` steps either side of the identity's u1
        tau = _U1_MARGIN * prims.lam / prims.phi.a
        u1 = bisect(_u1_condition(u1_foc, at_zero, u0, u0 - gap, resolution, tau), 0.0, u0, tol=1e-12)
    # the solved peaks must meet that identity. In random scans of a wide
    # box, admissible instances miss it by at most about 16 steps; a tiny
    # `phi.exponent` (1e-8 and below at the other defaults) puts phi_inv's
    # rounding into the u1 condition and misses it by thousands or more
    miss = (u0 - u1) - gap if u1 > 0.0 else max(0.0, u0 - gap)
    if not abs(miss) <= 1024.0 * resolution:
        raise UnresolvablePeaks(
            f"`lambda`, `w`, `phi.exponent` and `kappa.exponent` give u0 = {u0:.6g} and "
            f"u1 = {u1:.6g}, off the identity u0 - u1 = kappa(L1) = {gap:.3g} (at most, for "
            f"u1 = 0) by {abs(miss):.3g}, more than 1024 solver steps of {resolution:.3g}, "
            f"so the peaks are not resolved"
        )
    # F1 - F0 has slope F1's `_deriv` minus F0's ``1 - lam / phi'(phi_inv(u))``,
    # ``lam / phi'(phi_inv(u)) - lam / phi'(phi_inv(u + kappa(L)))``, negative
    # since phi'(phi_inv(.)) strictly decreases and the effort L > 0: u* = 0
    return Technology(f0=f0, f1=_PostBreakthroughFrontier(prims, u1), u0=u0, u1=u1, u_star=0.0, prims=prims)


def _u1_condition(u1_foc, at_zero: float, u0: float, est: float, step: float, tau: float):
    """A stand-in for ``u1_foc``, strictly decreasing on ``[0, u0]``, with its
    sign and zeros at every point: `bisect` reads nothing else, so it takes the
    same steps and returns the same bits.

    Guards straddle ``est``, the identity's u1, 32 solver steps (``step``)
    either side of it and, where those fail, 2048 (`_U1_WINDOWS`): the build
    refuses a u1 more than 1024 steps off ``est``, so the wide pair holds
    every u1 it accepts, and on the `mh-smooth-sweep` box u1 lay within a
    step of it. Where the condition is flat at u1, the narrow guards stay
    inside the margin below though u1 is as close (15 of the 200 wide
    configs of `test_build_reference`), and the wide pair saves about 35
    solves. Where ``u1_foc`` exceeds ``tau`` at a pair's lower guard and
    lies below ``-tau`` at its upper one, every point left (right) of the
    window has the lower (upper) guard's sign, and the stand-in returns that
    guard's value there: only the bisection's last 7 or so steps (13 for the
    wide pair) solve the effort problem. ``tau = 2**-40 lam/a`` is
    2**12 times the condition's rounding at the root, where one float of
    ``v = u + kappa(L) = u0`` moves ``a v**(1 - 1/a)`` by about ``lam/a *
    2**-52``; at a tiny ``phi.exponent`` that rounding is a staircase that is
    not monotone, and the guards fail. Where neither pair certifies, or a
    guard leaves ``(0, u0)``, the stand-in is ``u1_foc`` with ``at_zero``, its
    value at 0, reused.
    """
    for d in _U1_WINDOWS:
        lo, hi = est - d * step, est + d * step
        if 0.0 < lo and hi < u0:
            f_lo, f_hi = u1_foc(lo), u1_foc(hi)
            if f_lo > tau and f_hi < -tau:
                return lambda u: f_lo if u < lo else f_hi if u > hi else u1_foc(u)
    return lambda u: at_zero if u == 0.0 else u1_foc(u)


def verify_ui_assumptions(tech: Technology, grid) -> VerificationReport:
    """Certify the model assumptions on a grid inside ``(0, u0]``."""
    rep = VerificationReport("ui-assns")
    grid = sorted(float(u) for u in grid)

    for name, f in (("F0", tech.f0), ("F1", tech.f1)):
        slack = midpoint_concavity_slack(f, grid) if len(grid) >= 2 else INF
        rep.add(
            f"concavity-{name}",
            slack > -1e-10,
            worst_violation=max(0.0, -slack),
            note="vacuous" if len(grid) < 2 else "",
        )

    rep.add("conflict-of-interest", 0.0 <= tech.u1 < tech.u0)

    # derivative comparison is skipped at the peak; np.argmax takes the
    # first maximum, or the first NaN, which then fails the check
    us = np.array(grid)
    us = us[np.abs(us - tech.u0) >= 1e-9]
    checked = us.size > 0
    worst, loc = 0.0, ""
    if checked:
        diff = tech.f1.deriv(us, "right") - tech.f0.deriv(us, "right")
        i = int(np.argmax(diff))
        worst, loc = float(diff[i]), f"u={us[i]:g}"
    rep.add(
        "gap-derivative-negative",
        worst < 0.0 if checked else True,
        worst_violation=float(np.maximum(0.0, worst)),
        location=loc,
        note="" if checked else "skipped (grid only contains the peak)",
    )

    # the origin's gap is at least every grid point's (a NaN fails). A
    # moral-hazard F1 remembers the grid from `concavity-F1`, so the grid's
    # efforts are not solved again
    gaps = tech.gap(np.array([0.0, *grid]))
    rise = float(np.max(gaps[1:] - gaps[0], initial=0.0))
    rep.add(
        "u-star-at-origin",
        abs(tech.u_star) < 1e-8 and rise <= 0.0,
        worst_violation=rise,
        location=f"u={grid[int(np.argmax(gaps[1:]))]:g}" if rise > 0.0 else "",
    )

    if tech.prims is None or not grid:
        note = "not applicable (no effort problem)" if tech.prims is None else "vacuous"
        rep.add("effort-foc-residual", True, note=note)
    else:
        # both solvers' scaled FOC residual |w phi'(phi_inv(u + kappa(L))) -
        # kappa'(L)|, through the primitives' own methods, against the 1e-10
        # that `effort_star` promises; NaN fails
        p = tech.prims
        at = np.array(grid + grid)
        L = np.concatenate([effort_star_array(p, grid), [effort_star(p, u) for u in grid]])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            res = np.abs(p.w * p.phi.phi_prime_at_inv(at + p.kappa.kappa(L)) - p.kappa.kappa_prime(L))
        i = int(np.argmax(res))
        rep.add("effort-foc-residual", res[i] <= 1e-10, worst_violation=float(res[i]), location=f"u={at[i]:g}")

    if tech.u1 > 0.0 and tech.prims is not None:
        L1 = effort_star(tech.prims, tech.u1)
        residual = abs(tech.u0 - tech.u1 - float(tech.prims.kappa.kappa(L1)))
        # 16 steps of the u0 and u1 solves, the unit of the build's identity check:
        # at a large u0 the float spacing alone exceeds a fixed bound
        step = max(1e-12, math.ulp(tech.u0))
        rep.add("peak-identity", residual <= 16.0 * step, worst_violation=residual)
    else:
        rep.add("peak-identity", True, note="not applicable (corner)")
    return rep
