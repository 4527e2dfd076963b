"""Moral-hazard technologies: frontier construction, effort problem, peaks.

The pre-breakthrough frontier is ``F0(u) = u - lam * phi_inv(u)`` and the
post-breakthrough frontier is

    F1(u) = u + lam * max_{L >= 0} { w*L - phi_inv(u + kappa(L)) },

with the inner effort problem solved by its first-order condition
``w = kappa'(L) / phi'(phi_inv(u + kappa(L)))``, whose left side is constant
and right side strictly increasing in ``L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceViolation, UnresolvablePeaks
from .frontiers import INF, Frontier, ParametricFrontier, midpoint_concavity_slack
from .report import VerificationReport
from .roots import bisect, golden_section_max, solve_monotone


class PowerUtility:
    """Utility of consumption ``phi(c) = c**a`` with ``0 < a < 1``."""

    kind = "power"

    def __init__(self, exponent: float):
        if not 0.0 < exponent < 1.0:
            raise ValueError("utility exponent must lie in (0, 1)")
        self.a = float(exponent)

    def phi(self, c):
        return np.power(c, self.a)

    def phi_inv(self, u):
        return np.power(u, 1.0 / self.a)

    def phi_prime_at_inv(self, u):
        """``phi'(phi_inv(u))``, which is ``a * u**(1 - 1/a)``; +inf at 0
        (and, for small ``a``, already overflowing to +inf near 0)."""
        with np.errstate(divide="ignore", over="ignore"):
            return self.a * np.power(u, 1.0 - 1.0 / self.a)


class PowerCost:
    """Effort cost ``kappa(L) = L**b`` with ``b > 1``."""

    kind = "power"

    def __init__(self, exponent: float):
        if exponent <= 1.0:
            raise ValueError("cost exponent must exceed 1")
        self.b = float(exponent)

    def kappa(self, L):
        return np.power(L, self.b)

    def kappa_prime(self, L):
        return self.b * np.power(L, self.b - 1.0)


@dataclass
class MoralHazardPrimitives:
    """Cost weight, wage, utility-of-consumption and effort-cost specs."""

    lam: float
    w: float
    phi: PowerUtility
    kappa: PowerCost

    #: upper effort grid point and safety factor for the divergence check
    divergence_grid_L: float = 1e6
    divergence_factor: float = 2.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.w <= 0:
            raise ValueError("w must be positive")

    def validate(self) -> None:
        """Check the qualitative-shape invariants at the grid endpoints.

        Extreme exponents overflow to inf or divide by zero there; the
        comparisons handle those limits, so the warnings are silenced.
        """
        with np.errstate(over="ignore", divide="ignore"):
            ratio_small = float(self.phi.phi_prime_at_inv(1e-10))
            ratio_large = float(self.phi.phi_prime_at_inv(1e10))
            L = self.divergence_grid_L
            marginal = float(
                self.kappa.kappa_prime(L) / self.phi.phi_prime_at_inv(self.kappa.kappa(L))
            )
        if not ratio_small > ratio_large:
            raise DivergenceViolation("phi' must be strictly decreasing")
        if float(self.kappa.kappa(0.0)) != 0.0:
            raise DivergenceViolation("kappa(0) must equal 0")
        if marginal < self.divergence_factor * self.w:
            raise DivergenceViolation(
                f"marginal effort cost {marginal:.3g} at L={L:g} does not exceed "
                f"w={self.w:g} by factor {self.divergence_factor:g}"
            )


def _foc_gap(prims: MoralHazardPrimitives, u: float, L: float) -> float:
    """``kappa'(L)/phi'(phi_inv(u + kappa(L))) - w``; strictly increasing in L."""
    denom = prims.phi.phi_prime_at_inv(u + prims.kappa.kappa(L))
    return prims.kappa.kappa_prime(L) / denom - prims.w


def effort_star(prims: MoralHazardPrimitives, u: float) -> float:
    """Unique positive effort solving the inner first-order condition.

    Solved to the machine-precision limit so that the FOC residual in scaled
    form stays below 1e-10.
    """
    return solve_monotone(lambda L: _foc_gap(prims, u, L), lo=1e-12, hi=1.0, tol=0.0)


def effort_star_array(prims: MoralHazardPrimitives, u) -> np.ndarray:
    """Vectorized solve of the same FOC as `effort_star`, by array bisection.

    Each element's bracket starts at ``[1e-14, 1]``, with the upper end
    doubled until the FOC gap turns nonnegative, and is halved at most 90
    times. The result is the midpoint of the bisection's fixed-point bracket:
    bit for bit what all 90 steps give. It can differ from `effort_star` in
    the last bits, since that one brackets and stops differently.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lo = np.full_like(u, 1e-14)
    hi = np.ones_like(u)
    # expand upper bracket elementwise until the FOC gap turns positive
    for _ in range(200):
        bad = _foc_gap(prims, u, hi) < 0.0
        if not np.any(bad):
            break
        hi[bad] *= 2.0
    mid = 0.5 * (lo + hi)
    for _ in range(90):
        up = _foc_gap(prims, u, mid) < 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        prev, mid = mid, 0.5 * (lo + hi)
        if not np.count_nonzero(mid != prev):
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
    """F1 with the effort problem solved pointwise (vectorized bisection)."""

    def __init__(self, prims: MoralHazardPrimitives):
        self._prims = prims
        super().__init__(self._val, self._deriv, domain=(0.0, INF))

    def _val(self, us):
        p = self._prims
        L = effort_star_array(p, us)
        return us + p.lam * (p.w * L - p.phi.phi_inv(us + p.kappa.kappa(L)))

    def _deriv(self, u):
        # envelope theorem: only the direct u-dependence matters. The effort
        # comes from the scalar solve, one point at a time, because
        # `effort_star_array` differs from it in the last bits
        p = self._prims
        L = np.reshape([effort_star(p, x) for x in np.ravel(u).tolist()], np.shape(u))
        return 1.0 - p.lam / p.phi.phi_prime_at_inv(u + p.kappa.kappa(L))


def make_frontier_f0(prims: MoralHazardPrimitives) -> Frontier:
    p = prims
    u0 = solve_monotone(
        lambda u: float(p.phi.phi_prime_at_inv(u)) - p.lam, lo=1e-12, hi=1.0
    )
    return ParametricFrontier(
        lambda u: u - p.lam * p.phi.phi_inv(u),
        lambda u: 1.0 - p.lam / p.phi.phi_prime_at_inv(u),
        domain=(0.0, INF),
        peak=u0,
    )


def make_moral_hazard_technology(prims: MoralHazardPrimitives) -> Technology:
    """Build both frontiers and solve for ``u0``, ``u1`` and the gap argmax."""
    prims.validate()
    f0 = make_frontier_f0(prims)
    u0 = f0.peak
    f1 = _PostBreakthroughFrontier(prims)

    def u1_foc(u: float) -> float:
        L = effort_star(prims, u)
        return float(prims.phi.phi_prime_at_inv(u + prims.kappa.kappa(L))) - prims.lam

    # kappa'(L1) = w*lam gives u0 - u1 <= kappa(L1) = (w*lam/b)**(b/(b-1)),
    # with equality at an interior u1. The u0 and u1 solves stop at a 1e-12
    # bracket or at float spacing; within about 5 such steps the u1 condition
    # loses its sign change on [0, u0], so 16 steps or fewer are refused
    b = prims.kappa.b
    ratio = prims.w * prims.lam / b
    gap = ratio ** (b / (b - 1.0)) if ratio < 1.0 else INF
    resolution = max(1e-12, math.ulp(u0))
    if gap <= 16.0 * resolution:
        raise UnresolvablePeaks(
            f"`lambda`, `w`, `phi.exponent` and `kappa.exponent` give u0 - u1 <= "
            f"kappa(L1) = {gap:.3g}, within 16 solver steps of {resolution:.3g} (1e-12 "
            f"or the float spacing at u0 = {u0:.6g}), so u1 cannot be told apart from u0"
        )
    # corner first: the FOC holds with inequality at u1 = 0
    if u1_foc(0.0) <= 0.0:
        u1 = 0.0
    else:
        u1 = bisect(u1_foc, 0.0, u0, tol=1e-12)
    f1._peak = u1

    u_star = _gap_argmax(f0, f1, u0)
    return Technology(f0=f0, f1=f1, u0=u0, u1=u1, u_star=u_star, prims=prims)


def _gap_argmax(f0: Frontier, f1: Frontier, u_hi: float) -> float:
    """Argmax of ``F1 - F0`` on ``[0, u_hi]`` with a derivative post-check.

    The gap is a difference of concave functions, so golden section alone is
    not trusted: the candidate is compared against the endpoints and checked
    for first-order optimality on a fallback grid.
    """
    gap = lambda u: f1.value(u) - f0.value(u)
    cand = golden_section_max(gap, 0.0, u_hi, tol=1e-10)
    us = np.linspace(0.0, u_hi, 4097)
    grid_best = float(us[np.argmax(f1.value(us) - f0.value(us))])
    if gap(grid_best) > gap(cand) + 1e-12:
        cand = golden_section_max(
            gap, max(0.0, grid_best - u_hi / 4096), min(u_hi, grid_best + u_hi / 4096)
        )
    if gap(0.0) >= gap(cand) - 1e-12:
        return 0.0
    if gap(u_hi) >= gap(cand) - 1e-12:
        return u_hi
    # first-order post-check: right deriv <= 0 <= left deriv at the candidate
    right = f1.right_deriv(cand) - f0.right_deriv(cand)
    left = f1.left_deriv(cand) - f0.left_deriv(cand)
    if not (right <= 1e-6 and left >= -1e-6):
        raise DivergenceViolation(
            f"gap argmax candidate {cand:g} fails the one-sided derivative check"
        )
    return cand


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

    rep.add("u-star-at-origin", abs(tech.u_star) < 1e-8, worst_violation=abs(tech.u_star))

    if tech.u1 > 0.0 and tech.prims is not None:
        L1 = effort_star(tech.prims, tech.u1)
        residual = abs(tech.u0 - tech.u1 - float(tech.prims.kappa.kappa(L1)))
        rep.add("peak-identity", residual < 1e-8, worst_violation=residual)
    else:
        rep.add("peak-identity", True, note="not applicable (corner)")
    return rep
