"""First-order calculus for the discounted payoff functional.

Contains the Stieltjes integration-by-parts identity, the Euler-equation
residual, the closed-form Gateaux (directional) derivative with its
finite-difference oracle, the integrability bounds that make the Euler
equation meaningful at an infinite horizon, and a strict-concavity probe.

Measures and integrals follow the rules of `frontierkit.quadrature`: each
expectation check builds one `NodePlan`, running integrals included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidProfile, NonConvergent, PreconditionViolation
from .frontiers import directional_deriv
from .mechanism import BreakthroughDistribution, Mechanism, _GridTimes, _payoffs, _pinned
from .quadrature import MeasureOnTime, NodePlan, integration_edges, sorted_unique, step_value, subdivide
from .technology import Technology

# ---------------------------------------------------------------------------
# integration by parts


def stieltjes_ibp(nu: MeasureOnTime, L0: float, l, T: float):
    """Both sides of ``int_[0,T] L dnu = L(T) nu([0,T]) - int_0^T nu([0,t]) l(t) dt``.

    ``l`` is the density of the absolutely continuous ``L`` (so ``L(t) = L0 +
    int_0^t l``); each side is computed by its own formula on one `NodePlan`,
    and the two are returned as a pair for comparison.
    """
    knots = sorted({0.0, T} | set(nu.knots))
    knots = [k for k in knots if 0.0 <= k <= T]
    edges = sorted_unique(
        np.concatenate([subdivide(a, b, 0.5) for a, b in zip(knots[:-1], knots[1:])])
        if len(knots) > 1
        else np.array([0.0, T])
    )
    plan = NodePlan.build(nu, edges)
    t = plan.nodes[: plan.pdf.size]
    l_t = np.asarray(l(t), dtype=float)
    # L at the GL nodes, then at every atom: those past T are dropped below
    L = L0 + plan.running(l_t, np.asarray(l(plan.partial[2].ravel()), dtype=float))

    lhs = plan.integrate(plan.pdf * L[: t.size])
    lhs += sum(m * L_s for (s, m), L_s in zip(nu.atoms, L[t.size :].tolist()) if s <= T)

    # nu([0, t]) = nu - nu((t, inf)), which counts an atom at t
    total = nu.total_mass()
    rhs = (L0 + plan.integrate(l_t)) * (total - nu.sf(T))
    rhs -= plan.integrate((total - nu.sf(t)) * l_t)
    return lhs, rhs


# ---------------------------------------------------------------------------
# supergradient profiles


@dataclass
class SupergradientProfile:
    """Supergradient paths ``phi0_t`` of F0 along x and ``phi1_t`` of F1
    along X, each a function of an array of times, on the grid ``edges``.

    A per-cell path is ``lambda t: step_value(edges, cells, tail, t)``.
    """

    edges: np.ndarray
    phi0: Callable[[np.ndarray], np.ndarray]
    phi1: Callable[[np.ndarray], np.ndarray]
    #: for an `exact` profile: the mechanism it follows, phi0's cells and tail, and F1
    _exact: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def exact(cls, m: Mechanism, tech: Technology) -> "SupergradientProfile":
        """Exact-derivative profile for smooth frontiers along ``m``.

        ``phi0`` follows the flow path cell-by-cell; ``phi1`` follows the
        continuation promise continuously, as F1's right derivative at
        ``m.X0_at(t)``. On times placed on ``m``'s grid where X0 is already
        known, `_paths_on` reads both from that placement and that X0.
        """
        d0 = lambda u: tech.f0.deriv(u, "right")
        cells, tail = d0(m.x0), float(d0(m.x0_tail))
        prof = cls(
            edges=m.edges,
            phi0=lambda t: step_value(m.edges, cells, tail, t),
            phi1=lambda t: tech.f1.deriv(m.X0_at(t), "right"),
        )
        prof._exact = (m, cells, tail, tech.f1)
        return prof

    def _paths_on(self, m: Mechanism, at: _GridTimes, X0=None) -> tuple[np.ndarray, np.ndarray]:
        """``phi0`` and ``phi1`` at the times of ``at``, a placement on
        ``m``'s grid; ``X0``, if given, is m's continuation promise there. The
        exact profile along ``m`` reads its step and F1's slope from them, with
        the bits of ``phi0(at.t)`` and ``phi1(at.t)``; any other profile is
        called on the times."""
        if self._exact is None or self._exact[0] is not m:
            return self.phi0(at.t), self.phi1(at.t)
        _, cells, tail, f1 = self._exact
        return at.step(cells, tail), f1.deriv(m._X0_on(at) if X0 is None else X0, "right")

    def validity_flags(self, m: Mechanism, tech: Technology) -> np.ndarray:
        """Per-cell supergradient membership at the cell midpoints."""
        at = _GridTimes(m.edges, m.r, 0.5 * (m.edges[:-1] + m.edges[1:]))
        X0 = m._X0_on(at)
        p0, p1 = self._paths_on(m, at, X0)
        right0, left0 = tech.f0.deriv_sides(np.clip(m.x0, *tech.f0.domain))
        right1, left1 = tech.f1.deriv_sides(np.clip(X0, *tech.f1.domain))
        return (
            (right0 - 1e-9 <= p0)
            & (p0 <= left0 + 1e-9)
            & (right1 - 1e-9 <= p1)
            & (p1 <= left1 + 1e-9)
        )


# ---------------------------------------------------------------------------
# Euler residual and integrability


def euler_residual(prof: SupergradientProfile, G: BreakthroughDistribution) -> np.ndarray:
    """``[1 - G(t_k)] phi0(t_k) + int_[0, t_k] phi1 dG`` at the grid points.

    Cells where ``G(t) >= 1`` are excluded (the Euler equation is vacuous
    there). Exact at grid points for per-cell-constant ``phi1``: cell masses
    come from differences of ``1 - sf``, atoms inside cells included.
    """
    edges = prof.edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    phi1_mid = prof.phi1(mids)
    sf_vals = G.sf(edges)
    cum = np.concatenate([[0.0], np.cumsum(phi1_mid * np.diff(1.0 - sf_vals))])
    # an atom exactly at 0 belongs to [0, t_k] for every k
    atom0 = sum(m * float(prof.phi1(np.array([0.0]))[0]) for s, m in G.atoms if s == 0.0)
    phi0_vals = np.asarray(prof.phi0(edges), dtype=float)
    out = np.where(sf_vals > 0.0, sf_vals * phi0_vals + cum + atom0, np.nan)
    return out


@dataclass
class IntegrabilityReport:
    capital_phi_expectation: float
    phi1_abs_expectation: float
    bound_holds: bool
    slack: float


def integrability_bounds(
    prof: SupergradientProfile,
    G: BreakthroughDistribution,
    m: Mechanism,
) -> IntegrabilityReport:
    """Expectations behind the Euler equation's integrability argument.

    ``Phi(t) = r int_0^t e^{-rs} phi0(s) ds`` must be G-integrable with
    ``E_G Phi(tau) <= E_G |phi1(tau)|`` whenever the Euler residual vanishes.
    ``m`` gives the rate ``r`` and the grid the expectations split at.
    """
    r = m.r
    plan = NodePlan.build(G, integration_edges(G, r, m.edges))
    e_phi = plan.expect_running(lambda s: r * np.exp(-r * s) * prof.phi0(s))
    e_abs1 = plan.expect_values(np.abs(prof.phi1(plan.nodes)))
    slack = e_abs1 - e_phi
    return IntegrabilityReport(
        capital_phi_expectation=e_phi,
        phi1_abs_expectation=e_abs1,
        bound_holds=slack > -1e-8,
        slack=slack,
    )


def warmup_identity(G: BreakthroughDistribution, r: float) -> float:
    """``E_G[ r int_0^tau e^{-rt} / (1 - G(t)) dt ]``, which by Fubini is
    ``int_{sf > 0} r e^{-rt} dt``: 1 for a G with an exponential tail, whose
    ``sf`` is positive on ``[0, inf)``. A G without one has ``sf = 0`` past
    the end ``T`` of its support, where the value is ``1 - e^{-rT}``, and is
    refused with `PreconditionViolation`.

    The outer integrand decays as G does, so where G's tail is slower than
    ``e^{-rt}`` the edges run ``37 / tail_rate`` past the ``37/r`` horizon of
    `integration_edges`, in 19 cells, each within the tail's scale ``2 / tail_rate``."""
    if G.tail_mass <= 0.0:
        raise PreconditionViolation("G must have an unbounded (exponential) tail")

    def integrand(t):
        sf = G.sf(t)
        return r * np.exp(-r * t) / np.where(sf > 0, sf, np.nan)

    edges = integration_edges(G, r)
    if G.tail_mass > 0 and G.tail_rate < r:
        end = edges[-1]
        edges = np.append(edges, subdivide(end, end + 37.0 / G.tail_rate, 2.0 / G.tail_rate)[1:])
    return NodePlan.build(G, edges).expect_running(integrand)


# ---------------------------------------------------------------------------
# Gateaux derivative


def _require_one_grid(m: Mechanism, m_dag: Mechanism) -> None:
    """Refuse a pair off one grid and rate: the checks blend flows cell by cell."""
    if not m._same_grid(m_dag):
        raise PreconditionViolation(
            f"m and m_dag need one grid and rate, but have {m.x0.size} and {m_dag.x0.size} cells, "
            f"horizons {m.horizon!r} and {m_dag.horizon!r}, and rates {m.r!r} and {m_dag.r!r}"
        )


def gateaux_closed_form(
    m: Mechanism,
    m_dag: Mechanism,
    prof: SupergradientProfile,
    tech: Technology,
    G: BreakthroughDistribution,
    return_terms: bool = False,
):
    """Directional derivative of the payoff at ``m`` toward ``m_dag``.

    Sum of four terms: the survival-weighted ``phi0`` integral, the
    accumulated-``phi1`` integral, and two corrections that replace the
    profile with the true directional derivatives along the paths. The
    corrections vanish when the profile equals the exact derivatives on a
    smooth instance.

    Each factor is evaluated once on each node set of one `NodePlan`: its
    nodes and the inner nodes of its running integrals. Each set is placed on
    the one grid of ``m`` and ``m_dag`` once (one `_GridTimes`), and the flows,
    F0's directional derivative, both promises and the exact profile's paths
    read that placement. The integration edges contain the grid, so an inner
    node's flows are those of the node whose partial cell holds it.
    """
    _require_one_grid(m, m_dag)
    flags = prof.validity_flags(m, tech)
    sf_mids = G.sf(0.5 * (m.edges[:-1] + m.edges[1:]))
    if np.any(~flags & (sf_mids > 0)):
        raise InvalidProfile("profile is not a supergradient where G(t) < 1")

    r = m.r
    plan = NodePlan.build(G, integration_edges(G, r, m.edges))
    n, t, width = plan.pdf.size, plan.nodes, plan.partial[2].shape[1]
    ti = plan.partial[2].ravel()
    at, at_in = _GridTimes(m.edges, r, t), _GridTimes(m.edges, r, ti)

    x, x_dag = at.step(m.x0, m.x0_tail), at.step(m_dag.x0, m_dag.x0_tail)
    dx_t, dd0_t = x_dag - x, directional_deriv(tech.f0, x, x_dag)
    dx, dd0 = dx_t[:n], dd0_t[:n]
    X, X_dag = m._X0_on(at), m_dag._X0_on(at)
    E, E_in = np.exp(-r * t), np.exp(-r * ti)
    phi0, phi1 = prof._paths_on(m, at, X)
    phi0_in, phi1_in = prof._paths_on(m, at_in)

    rE = r * E[:n]
    term_b = plan.integrate(rE * G.sf(t[:n]) * phi0[:n] * dx)
    cum1 = plan.running(phi1[:n] * plan.pdf, phi1_in * G.pdf(ti))[:n]
    for (s, mass), p1 in zip(G.atoms, phi1[n:].tolist()):
        cum1 = cum1 + np.where(t[:n] >= s, mass * p1, 0.0)
    term_c = plan.integrate(rE * cum1 * dx)

    dens0 = rE * (dd0 - phi0[:n]) * dx
    dens0_in = r * E_in * (np.repeat(dd0_t, width) - phi0_in) * np.repeat(dx_t, width)
    corr0 = plan.expect_values(plan.running(dens0, dens0_in))

    corr1 = plan.expect_values(E * (directional_deriv(tech.f1, X, X_dag) - phi1) * (X_dag - X))
    if return_terms:
        return {
            "survival": term_b,
            "accumulated": term_c,
            "corr0": corr0,
            "corr1": corr1,
            "total": term_b + term_c + corr0 + corr1,
        }
    return term_b + term_c + corr0 + corr1


#: blend weights of `gateaux_fd`'s difference quotients, largest first: 0.1 halved five
#: times. Payoff rounding over alpha stays near 1e-13; at alpha 1e-6 it reaches 1e-10
FD_ALPHAS = tuple(0.1 * 2.0**-k for k in range(6))


def gateaux_fd(
    m: Mechanism,
    m_dag: Mechanism,
    tech: Technology,
    G: BreakthroughDistribution,
) -> float:
    """Finite-difference directional derivative with Richardson extrapolation.

    Uses the payoff with the promise pinned to its own continuation
    (`pi_G`); the difference quotients of a concave objective are
    nonincreasing in alpha, so the last three are extrapolated to alpha = 0.
    All the payoffs share one grid, so they share one payoff plan.
    """
    _require_one_grid(m, m_dag)
    m, m_dag = _pinned(m), _pinned(m_dag)
    blends = [
        m._with_flow(m.x0 + a * (m_dag.x0 - m.x0), m.x0_tail + a * (m_dag.x0_tail - m.x0_tail))
        for a in FD_ALPHAS
    ]
    base, *vals = _payoffs([m, *blends], tech, G)
    quots = [(a, (v - base) / a) for a, v in zip(FD_ALPHAS, vals)]
    diffs = [abs(q2 - q1) for (_, q1), (_, q2) in zip(quots[:-1], quots[1:])]
    # smooth quotients halve their differences with alpha: none may grow
    if any(d2 > d1 + 1e-6 for d1, d2 in zip(diffs[:-1], diffs[1:])):
        raise NonConvergent("difference quotients diverge as alpha decreases")
    # Neville polynomial-in-alpha extrapolation through the last three points
    pts = quots[-3:]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts], dtype=float)
    for level in range(1, len(pts)):
        for i in range(len(pts) - level):
            ys[i] = (xs[i + level] * ys[i] - xs[i] * ys[i + 1]) / (
                xs[i + level] - xs[i]
            )
    return float(ys[0])


# ---------------------------------------------------------------------------
# strict concavity


def strict_concavity_probe(
    m: Mechanism,
    m_dag: Mechanism,
    lam: float,
    tech: Technology,
    G: BreakthroughDistribution,
) -> tuple[float, bool]:
    """``pi_G`` at the blend minus the blended values; positive iff strictly
    concave between the two flow paths.

    Returns ``(gap, valid)`` where ``valid`` is False when the paths coincide
    (no strictness to test) — the gap is still returned.
    """
    _require_one_grid(m, m_dag)
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    if G.tail_mass <= 0.0:
        raise PreconditionViolation("G must have an unbounded (exponential) tail")
    m, m_dag = _pinned(m), _pinned(m_dag)
    valid = bool(
        np.max(np.abs(m.x0 - m_dag.x0)) > 1e-12
        or abs(m.x0_tail - m_dag.x0_tail) > 1e-12
    )
    blend = m._with_flow(lam * m.x0 + (1 - lam) * m_dag.x0, lam * m.x0_tail + (1 - lam) * m_dag.x0_tail)
    at_blend, at_m, at_dag = _payoffs([blend, m, m_dag], tech, G)
    gap = at_blend - (lam * at_m + (1 - lam) * at_dag)
    return gap, valid
