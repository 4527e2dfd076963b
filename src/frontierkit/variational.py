"""First-order calculus for the discounted payoff functional.

Contains the Stieltjes integration-by-parts identity, the Euler-equation
residual, the closed-form Gateaux (directional) derivative with its
finite-difference oracle, the integrability bounds that make the Euler
equation meaningful at an infinite horizon, and a strict-concavity probe.

Measures and integrals follow the rules of `frontierkit.quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidProfile, NonConvergent, PreconditionViolation
from .frontiers import directional_deriv
from .mechanism import BreakthroughDistribution, Mechanism, pi_G
from .quadrature import (
    MeasureOnTime,
    cumulative,
    cumulative_against,
    expect,
    integral,
    integration_edges,
    step_value,
    subdivide,
)
from .technology import Technology

# ---------------------------------------------------------------------------
# integration by parts


def stieltjes_ibp(nu: MeasureOnTime, L0: float, l, T: float):
    """Both sides of ``int_[0,T] L dnu = L(T) nu([0,T]) - int_0^T nu([0,t]) l(t) dt``.

    ``l`` is the density of the absolutely continuous ``L`` (so ``L(t) = L0 +
    int_0^t l``); the two sides are computed independently and returned as a
    pair for comparison.
    """
    knots = sorted({0.0, T} | set(nu.knots))
    knots = [k for k in knots if 0.0 <= k <= T]
    edges = np.unique(
        np.concatenate([subdivide(a, b, 0.5) for a, b in zip(knots[:-1], knots[1:])])
        if len(knots) > 1
        else np.array([0.0, T])
    )
    L_cum = cumulative(l, edges)
    L = lambda t: L0 + L_cum(t)

    lhs = integral(lambda t: nu.pdf(t) * L(t), edges)
    lhs += sum(m * float(L(np.array([s]))[0]) for s, m in nu.atoms if s <= T)

    LT = float(L(np.array([T]))[0])
    rhs = LT * float(nu.mass_upto(np.array([T]))[0])
    rhs -= integral(lambda t: nu.mass_upto(t) * np.asarray(l(t), dtype=float), edges)
    return lhs, rhs


# ---------------------------------------------------------------------------
# supergradient profiles


@dataclass
class SupergradientProfile:
    """Supergradient paths for F0 along x and F1 along X, per grid cell.

    Per-cell constant values (with tail constants beyond the horizon) are the
    canonical representation; optional callables override them for smooth
    exact-derivative profiles.
    """

    edges: np.ndarray
    phi0_cells: np.ndarray
    phi1_cells: np.ndarray
    phi0_tail: float = 0.0
    phi1_tail: float = 0.0
    phi0_fn: object | None = None
    phi1_fn: object | None = None

    def phi0(self, t):
        if self.phi0_fn is not None:
            return np.asarray(self.phi0_fn(np.asarray(t, dtype=float)), dtype=float)
        return step_value(self.edges, self.phi0_cells, self.phi0_tail, t)

    def phi1(self, t):
        if self.phi1_fn is not None:
            return np.asarray(self.phi1_fn(np.asarray(t, dtype=float)), dtype=float)
        return step_value(self.edges, self.phi1_cells, self.phi1_tail, t)

    @classmethod
    def exact(cls, m: Mechanism, tech: Technology) -> "SupergradientProfile":
        """Exact-derivative profile for smooth frontiers along ``m``.

        ``phi0`` follows the flow path cell-by-cell; ``phi1`` follows the
        continuation promise continuously.
        """
        d0 = lambda u: tech.f0.deriv(u, "right")
        d1 = lambda u: tech.f1.deriv(u, "right")
        return cls(
            edges=m.edges,
            phi0_cells=d0(m.x0),
            phi1_cells=d1(m.X0_at(0.5 * (m.edges[:-1] + m.edges[1:]))),
            phi0_tail=float(d0(m.x0_tail)),
            phi1_tail=float(d1(m.x0_tail)),
            phi0_fn=lambda t: d0(m.x0_at(t)),
            phi1_fn=lambda t: d1(m.X0_at(t)),
        )

    def validity_flags(self, m: Mechanism, tech: Technology) -> np.ndarray:
        """Per-cell supergradient membership at the cell midpoints."""
        mids = 0.5 * (m.edges[:-1] + m.edges[1:])
        x = np.clip(m.x0, *tech.f0.domain)
        X = np.clip(m.X0_at(mids), *tech.f1.domain)
        p0, p1 = self.phi0(mids), self.phi1(mids)
        return (
            (tech.f0.deriv(x, "right") - 1e-9 <= p0)
            & (p0 <= tech.f0.deriv(x, "left") + 1e-9)
            & (tech.f1.deriv(X, "right") - 1e-9 <= p1)
            & (p1 <= tech.f1.deriv(X, "left") + 1e-9)
        )


# ---------------------------------------------------------------------------
# Euler residual and integrability


def euler_residual(
    prof: SupergradientProfile, G: BreakthroughDistribution, edges=None
) -> np.ndarray:
    """``[1 - G(t_k)] phi0(t_k) + int_[0, t_k] phi1 dG`` at the grid points.

    Cells where ``G(t) >= 1`` are excluded (the Euler equation is vacuous
    there). Exact at grid points for per-cell-constant ``phi1``: cell masses
    come from CDF differences, which also capture atoms inside cells.
    """
    edges = prof.edges if edges is None else np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    phi1_mid = prof.phi1(mids)
    cdf_vals = G.cdf(edges)
    cum = np.concatenate([[0.0], np.cumsum(phi1_mid * np.diff(cdf_vals))])
    # an atom exactly at 0 belongs to [0, t_k] for every k
    atom0 = sum(m * float(prof.phi1(np.array([0.0]))[0]) for s, m in G.atoms if s == 0.0)
    sf_vals = G.sf(edges)
    phi0_vals = np.asarray(prof.phi0(edges), dtype=float)
    out = np.where(sf_vals > 0.0, sf_vals * phi0_vals + cum + atom0, np.nan)
    return out


@dataclass
class IntegrabilityReport:
    capital_phi_expectation: float
    phi1_abs_expectation: float
    psi0_expectation: float
    psi1_expectation: float
    bound_holds: bool
    slack: float


def integrability_bounds(
    prof: SupergradientProfile,
    G: BreakthroughDistribution,
    m: Mechanism,
    tech: Technology,
    probe_u: float,
) -> IntegrabilityReport:
    """Expectations behind the Euler equation's integrability argument.

    ``Phi(t) = r int_0^t e^{-rs} phi0(s) ds`` must be G-integrable with
    ``E_G Phi(tau) <= E_G |phi1(tau)|`` whenever the Euler residual vanishes.
    Also reports the discounted one-sided-derivative accumulations toward a
    probe promise ``probe_u``.
    """
    r = m.r
    edges = integration_edges(G, r, m.edges)
    Phi = cumulative(lambda t: r * np.exp(-r * t) * prof.phi0(t), edges)
    e_phi = expect(G, Phi, edges)
    e_abs1 = expect(G, lambda t: np.abs(prof.phi1(t)), edges)

    psi0_cum = cumulative(
        lambda t: r * np.exp(-r * t) * directional_deriv(tech.f0, m.x0_at(t), probe_u), edges
    )
    psi0 = expect(G, psi0_cum, edges)
    psi1 = expect(
        G, lambda t: np.exp(-r * t) * directional_deriv(tech.f1, m.X0_at(t), probe_u), edges
    )

    slack = e_abs1 - e_phi
    return IntegrabilityReport(
        capital_phi_expectation=e_phi,
        phi1_abs_expectation=e_abs1,
        psi0_expectation=psi0,
        psi1_expectation=psi1,
        bound_holds=slack > -1e-8,
        slack=slack,
    )


def warmup_identity(G: BreakthroughDistribution, r: float) -> float:
    """``E_G[ r int_0^tau e^{-rt} / (1 - G(t)) dt ]``; equals 1 for atom-free G."""
    edges = integration_edges(G, r)

    def integrand(t):
        sf = G.sf(t)
        return r * np.exp(-r * t) / np.where(sf > 0, sf, np.nan)

    cum = cumulative(integrand, edges)
    return expect(G, cum, edges)


# ---------------------------------------------------------------------------
# Gateaux derivative


def _align(m: Mechanism, m_dag: Mechanism) -> tuple[Mechanism, Mechanism]:
    if len(m.edges) == len(m_dag.edges) and np.allclose(m.edges, m_dag.edges):
        return m, m_dag
    a = m.with_knots(m_dag.edges)
    b = m_dag.with_knots(m.edges)
    return a, b


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
    """
    m, m_dag = _align(m, m_dag)
    flags = prof.validity_flags(m, tech)
    sf_mids = G.sf(0.5 * (m.edges[:-1] + m.edges[1:]))
    if np.any(~flags & (sf_mids > 0)):
        raise InvalidProfile("profile is not a supergradient where G(t) < 1")

    r = m.r
    edges = integration_edges(G, r, [*m.edges, *m_dag.edges])
    dx = lambda t: m_dag.x0_at(t) - m.x0_at(t)
    dX = lambda t: m_dag.X0_at(t) - m.X0_at(t)

    term_b = integral(
        lambda t: r * np.exp(-r * t) * G.sf(t) * prof.phi0(t) * dx(t), edges
    )
    cum1 = cumulative_against(prof.phi1, G, edges)
    term_c = integral(lambda t: r * np.exp(-r * t) * cum1(t) * dx(t), edges)

    corr0_cum = cumulative(
        lambda t: r
        * np.exp(-r * t)
        * (directional_deriv(tech.f0, m.x0_at(t), m_dag.x0_at(t)) - prof.phi0(t))
        * dx(t),
        edges,
    )
    corr0 = expect(G, corr0_cum, edges)
    corr1 = expect(
        G,
        lambda t: np.exp(-r * t)
        * (directional_deriv(tech.f1, m.X0_at(t), m_dag.X0_at(t)) - prof.phi1(t))
        * dX(t),
        edges,
    )
    if return_terms:
        return {
            "survival": term_b,
            "accumulated": term_c,
            "corr0": corr0,
            "corr1": corr1,
            "total": term_b + term_c + corr0 + corr1,
        }
    return term_b + term_c + corr0 + corr1


def gateaux_fd(
    m: Mechanism,
    m_dag: Mechanism,
    tech: Technology,
    G: BreakthroughDistribution,
    alphas=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
) -> float:
    """Finite-difference directional derivative with Richardson extrapolation.

    Uses the payoff with the promise pinned to its own continuation; the
    difference quotients of a concave objective are nonincreasing in alpha,
    so the last three are extrapolated to alpha = 0.
    """
    m, m_dag = _align(m, m_dag)
    base = pi_G(m, tech, G)
    quots = []
    for a in sorted(alphas, reverse=True):
        blend = replace(
            m,
            x0=m.x0 + a * (m_dag.x0 - m.x0),
            x0_tail=m.x0_tail + a * (m_dag.x0_tail - m.x0_tail),
        )
        quots.append((a, (pi_G(blend, tech, G) - base) / a))
    diffs = [abs(q2 - q1) for (_, q1), (_, q2) in zip(quots[:-1], quots[1:])]
    if len(diffs) >= 2 and diffs[-1] > 10.0 * diffs[0] + 1e-6:
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
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    if G.tail_mass <= 0.0:
        raise PreconditionViolation("G must have an unbounded (exponential) tail")
    m, m_dag = _align(m, m_dag)
    valid = bool(
        np.max(np.abs(m.x0 - m_dag.x0)) > 1e-12
        or abs(m.x0_tail - m_dag.x0_tail) > 1e-12
    )
    blend = replace(
        m,
        x0=lam * m.x0 + (1 - lam) * m_dag.x0,
        x0_tail=lam * m.x0_tail + (1 - lam) * m_dag.x0_tail,
    )
    gap = pi_G(blend, tech, G) - (
        lam * pi_G(m, tech, G) + (1 - lam) * pi_G(m_dag, tech, G)
    )
    return gap, valid
