"""The benchmark's four workloads: input generators, timed ops and correctness gates.

Every input is drawn here from a seeded generator; the library only ever sees
generated instances. The generators and fixtures mirror the CLI suites' private
helpers but are kept here, so the inputs stay fixed when those helpers change.
Each workload has

- ``setup(rng)``: the work a user pays before the first op (config load,
  shared Technology or fixture build, one warm-up op on a throwaway input);
- ``draw(rng, k)``: the inputs of op ``k``;
- ``op(inp)``: the timed call into frontierkit, returning plain numbers;
- ``check(inp, out)``: the gate of the CLI suite the op mirrors, as a
  ``Verdict``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

import frontierkit as fk
from frontierkit import _oracles, cli

# the CLI's default time grid (`--horizon 6 --grid-step 0.05`, rate 1)
CLI_GRID = fk.TimeGrid(horizon=6.0, step=0.05, r=1.0)
# the 8-cell grid of `verify gateaux` and `verify concavity`
SMALL_GRID = fk.TimeGrid(horizon=2.0, step=0.25, r=1.0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op's gate.

    ``passed`` is the CLI suite's bound; ``program_ok`` is False only when
    frontierkit's own answer is shown wrong. They can differ where the suite's
    oracle is known to be inexact: the brute-force mixture oracle misses some
    optima, and the finite-difference Gateaux oracle is only accurate to about
    1e-10, which its relative bound cannot resolve when the derivative is
    near 0. There an exact reference decides which side is at fault.
    """

    passed: bool
    err: float
    program_ok: bool


def _flow_path(rng, grid: fk.TimeGrid, hi: float) -> fk.Mechanism:
    """Random per-cell flow in [0.05 hi, 0.9 hi] with promise X1 = X0."""
    x0 = rng.uniform(0.05 * hi, 0.9 * hi, grid.n_cells)
    return fk.Mechanism.from_grid(grid, x0, x0_tail=float(rng.uniform(0.05 * hi, 0.9 * hi)))


def _mixed_G(rate: float) -> fk.BreakthroughDistribution:
    """Half the mass uniform on [0, 1], half an exponential tail from 1."""
    return fk.BreakthroughDistribution(
        density_edges=np.array([0.0, 1.0]),
        density_values=np.array([0.5]),
        tail_rate=rate,
        tail_mass=0.5,
        tail_start=1.0,
    )


def quad_fixture() -> fk.Technology:
    """The quadratic pair of `verify gateaux`: F0 peaks at 0.5, F1 at 0.25."""
    f0 = fk.QuadraticFrontier(0.25, 1.0, -1.0)
    f1 = fk.QuadraticFrontier(0.9375, 0.5, -1.0)
    return fk.Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


class MhPayoff:
    """Payoff before and after the no-delay improvement, one shared Technology."""

    name = "mh-payoff"
    batch = 20

    def setup(self, rng):
        self.tech = cli.load_config(None).technology()
        self.op(self.draw(rng, 0))

    def draw(self, rng, k):
        m = _flow_path(rng, CLI_GRID, self.tech.u0)
        # alternate the two distribution families as `verify no-delay` does
        if k % 2 == 0:
            G = fk.BreakthroughDistribution.exponential(float(rng.uniform(0.3, 2.0)))
        else:
            G = _mixed_G(float(rng.uniform(0.5, 1.5)))
        return m, G

    def op(self, inp):
        m, G = inp
        before = fk.payoff(m, self.tech, G)
        after = fk.payoff(fk.no_delay_improve(m, self.tech), self.tech, G)
        return before, after

    def check(self, inp, out):
        before, after = out
        ok = after - before >= -1e-10
        return Verdict(ok, max(0.0, before - after), ok)


# instance box around the default config (lambda, w, phi.exponent, kappa.exponent)
SMOOTH_BOX = ((0.9, 1.1), (0.9, 1.1), (0.45, 0.55), (1.8, 2.2))
SMOOTH_LEVELS = (16, 32, 64, 128)


class MhSmoothSweep:
    """A fresh moral-hazard instance per op, smoothed at one level and certified."""

    name = "mh-smooth-sweep"
    batch = 1

    def setup(self, rng):
        # a warm-up op costs seconds here, so set-up stops at the default
        # Technology, which is what `frontierkit smooth` builds first
        cli.load_config(None).technology()

    def draw(self, rng, k):
        return tuple(float(rng.uniform(lo, hi)) for lo, hi in SMOOTH_BOX)

    def op(self, inp):
        lam, w, a, b = inp
        prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
        tech = fk.make_moral_hazard_technology(prims)
        # the smallest level whose parameters pass SmoothingParams.validate_for
        for n in SMOOTH_LEVELS:
            try:
                params = fk.SmoothingParams.auto(tech, n)
                break
            except fk.ParamsOutOfRange:
                continue
        else:
            raise fk.ParamsOutOfRange(f"no level in {SMOOTH_LEVELS} admits {inp}")
        pair = fk.build_smooth_pair(tech, params)
        rep = fk.verify_monster(tech, [pair])
        worst = max(c.worst_violation for c in rep.checks)
        return n, params.delta, params.gamma, pair.u0_n, pair.u1_n, pair.u_star_n, rep.overall_pass, worst

    def check(self, inp, out):
        ok = bool(out[6])
        return Verdict(ok, float(out[7]), ok)


class QuadGateaux:
    """Closed-form Gateaux derivative against finite differences, quadratic pair."""

    name = "quad-gateaux"
    batch = 10

    def setup(self, rng):
        self.tech = quad_fixture()
        self.op(self.draw(rng, 0))

    def draw(self, rng, k):
        m = _flow_path(rng, SMALL_GRID, self.tech.u0)
        m_dag = _flow_path(rng, SMALL_GRID, self.tech.u0)
        return m, m_dag, _mixed_G(float(rng.uniform(0.6, 1.5)))

    def op(self, inp):
        m, m_dag, G = inp
        prof = fk.SupergradientProfile.exact(m, self.tech)
        closed = fk.gateaux_closed_form(m, m_dag, prof, self.tech, G)
        fd = fk.gateaux_fd(m, m_dag, self.tech, G)
        return closed, fd

    def check(self, inp, out):
        closed, fd = out
        rel = abs(closed - fd) / max(abs(fd), 1e-6)
        exact = exact_quadratic_gateaux(*inp, self.tech)
        return Verdict(rel < 1e-4, rel, abs(closed - exact) / max(abs(exact), 1e-6) < 1e-4)


def exact_quadratic_gateaux(m, m_dag, G, tech, step: float = 0.05) -> float:
    """Central difference of ``pi_G`` from ``m`` toward ``m_dag``, exact up to rounding.

    With quadratic frontiers and the promise pinned to its own continuation,
    the discretised ``pi_G`` is a quadratic in the step (its quadrature nodes
    do not move), so a central difference has no truncation error. Flows stay
    inside F0's domain: they start at 0.025 or more and move by at most
    ``0.05 * 0.425``.
    """

    def at(a):
        blend = replace(m, x0=m.x0 + a * (m_dag.x0 - m.x0), x0_tail=m.x0_tail + a * (m_dag.x0_tail - m.x0_tail))
        return fk.pi_G(blend, tech, G)

    return (at(step) - at(-step)) / (2.0 * step)


def _random_quadratic(rng):
    peak = float(rng.uniform(0.5, 3.0))
    curv = -float(rng.uniform(0.5, 2.0))
    height = float(rng.uniform(0.0, 2.0))
    return (height + curv * peak * peak, -2.0 * curv * peak, curv)


def exact_quadratic_mixture(coeffs, probs, u: float) -> float:
    """Exact mixture value for quadratic members on [0, inf), by active sets.

    Every optimum is a KKT point: members in a set S sit at the floor 0 and
    the rest share one slope ``eta``, ``x_i = (eta - b_i) / (2 c_i)``, with
    ``eta`` fixed by the expectation constraint. Each choice of S gives at most
    one candidate; the best feasible candidate is the optimum. Shares no code
    with the water-filling solver or the grid oracle. The library's allocation
    cap never binds on this workload's inputs (u <= 2.5, member peaks <= 3).
    """
    k = len(coeffs)
    best = -np.inf
    for n_free in range(1, k + 1):
        for free in combinations(range(k), n_free):
            s = sum(probs[i] / (2.0 * coeffs[i][2]) for i in free)
            eta = (u + sum(probs[i] * coeffs[i][1] / (2.0 * coeffs[i][2]) for i in free)) / s
            x = np.zeros(k)
            for i in free:
                x[i] = (eta - coeffs[i][1]) / (2.0 * coeffs[i][2])
            if np.any(x < 0.0):
                continue
            value = sum(p * (a + b * xi + c * xi * xi) for p, (a, b, c), xi in zip(probs, coeffs, x))
            best = max(best, value)
    return float(best)


class MixtureWaterfill:
    """Water-filling mixture value against the brute-force grid oracle."""

    name = "mixture-waterfill"
    batch = 30

    def setup(self, rng):
        self.op(self.draw(rng, 0))

    def draw(self, rng, k):
        coeffs = [_random_quadratic(rng) for _ in range(int(rng.integers(2, 5)))]
        probs = rng.dirichlet(np.ones(len(coeffs)))
        dist = fk.FrontierDistribution([(fk.QuadraticFrontier(*c), p) for c, p in zip(coeffs, probs)])
        return coeffs, probs, dist, float(rng.uniform(0.5, 2.5))

    def op(self, inp):
        _, _, dist, u = inp
        value, _ = fk.mixture_value(dist, u)
        return value, _oracles.brute_force_mixture_value(dist, u)

    def check(self, inp, out):
        coeffs, probs, _, u = inp
        value, oracle = out
        err = abs(value - oracle)
        exact = exact_quadratic_mixture(coeffs, probs, u)
        return Verdict(err < 1e-5, err, abs(value - exact) < 1e-5)


WORKLOADS = {w.name: w for w in (MhPayoff, MhSmoothSweep, QuadGateaux, MixtureWaterfill)}
