import dataclasses
import gc
import json
import math
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frontierkit
from frontierkit import (
    InvalidProfile,
    PiecewiseLinearFrontier,
    PreconditionViolation,
    QuadraticFrontier,
    Technology,
)
from frontierkit import NonConvergent, mechanism, technology, variational
from frontierkit.quadrature import NodePlan, integration_edges, step_value
from frontierkit.mechanism import BreakthroughDistribution, Mechanism, TimeGrid
from frontierkit.variational import (
    IntegrabilityReport,
    MeasureOnTime,
    SupergradientProfile,
    euler_residual,
    gateaux_closed_form,
    gateaux_fd,
    integrability_bounds,
    stieltjes_ibp,
    strict_concavity_probe,
    warmup_identity,
)

GRID = TimeGrid(horizon=2.0, step=0.25, r=1.0)


def cell_profile(edges, phi0_cells, phi1_cells, phi0_tail=0.0, phi1_tail=0.0):
    """A profile constant on each cell of ``edges``, with tails past the last edge."""
    return SupergradientProfile(
        edges=edges,
        phi0=lambda t: step_value(edges, phi0_cells, phi0_tail, t),
        phi1=lambda t: step_value(edges, phi1_cells, phi1_tail, t),
    )


def exact_euler_profile(edges):
    # G = Exp(1), phi1 = -1, phi0(t) = G/(1-G) = e^t - 1 solves the equation
    n = len(edges) - 1
    return SupergradientProfile(
        edges=edges,
        phi0=np.expm1,
        phi1=lambda t: step_value(edges, -np.ones(n), -1.0, t),
    )


def quad_tech():
    f0 = QuadraticFrontier(0.25, 1.0, -1.0)  # 0.5 - (u - 0.5)^2
    f1 = QuadraticFrontier(0.9375, 0.5, -1.0)  # 1 - (u - 0.25)^2
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


def mixed_G(rate=1.0):
    """Atom-free G with a uniform piece and an exponential tail."""
    return BreakthroughDistribution(
        density_edges=np.array([0.0, 1.0]),
        density_values=np.array([0.5]),
        tail_rate=rate,
        tail_mass=0.5,
        tail_start=1.0,
    )


class TestStieltjesIBP:
    def test_hand_case_atom(self):
        nu = MeasureOnTime(atoms=((1.0, 1.0),))
        lhs, rhs = stieltjes_ibp(nu, 0.0, lambda t: np.ones_like(t), 2.0)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_zero_measure(self):
        nu = MeasureOnTime()
        lhs, rhs = stieltjes_ibp(nu, 0.3, lambda t: np.cos(t), 2.0)
        assert lhs == 0.0 and abs(rhs) < 1e-12

    def test_constant_integrand(self):
        nu = MeasureOnTime(
            atoms=((0.5, 0.2),),
            density_edges=np.array([0.0, 2.0]),
            density_values=np.array([0.3]),
        )
        lhs, rhs = stieltjes_ibp(nu, 1.7, lambda t: np.zeros_like(t), 2.0)
        mass = 0.2 + 0.3 * 2.0
        assert lhs == pytest.approx(1.7 * mass, abs=1e-12)
        assert rhs == pytest.approx(1.7 * mass, abs=1e-12)

    def test_an_atom_at_T_counts_once_and_one_past_T_not_at_all(self):
        a, b, c, L0, T = 0.4, -0.3, 0.25, 0.7, 1.5
        L = lambda t: L0 + a * t + b * t * t / 2 + c * t**3 / 3
        nu = MeasureOnTime(atoms=((0.5, 0.3), (T, 0.4), (T + 0.75, 0.9)))
        lhs, rhs = stieltjes_ibp(nu, L0, lambda t: a + b * t + c * t * t, T)
        exact = 0.3 * L(0.5) + 0.4 * L(T)
        assert lhs == pytest.approx(exact, abs=1e-12)
        assert rhs == pytest.approx(exact, abs=1e-12)

    def test_randomized_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            T = float(rng.uniform(0.5, 3.0))
            atoms = tuple(
                (float(rng.uniform(0, T)), float(rng.uniform(0, 1)))
                for _ in range(rng.integers(0, 4))
            )
            n_pieces = int(rng.integers(1, 4))
            edges = np.sort(rng.uniform(0, T, n_pieces + 1))
            edges[0], edges[-1] = 0.0, T
            if np.any(np.diff(edges) <= 1e-6):
                continue
            nu = MeasureOnTime(
                atoms=atoms,
                density_edges=edges,
                density_values=rng.uniform(0, 1, n_pieces),
            )
            a, b, c = rng.uniform(-1, 1, 3)
            l = lambda t: a + b * t + c * t * t
            lhs, rhs = stieltjes_ibp(nu, float(rng.uniform(-1, 1)), l, T)
            assert abs(lhs - rhs) < 1e-9


class TestEulerResidual:
    def test_zero_profile(self):
        prof = cell_profile(GRID.edges, np.zeros(GRID.n_cells), np.zeros(GRID.n_cells))
        res = euler_residual(prof, BreakthroughDistribution.exponential(1.0))
        assert np.allclose(res, 0.0, atol=0)

    def test_construct_and_check_exponential(self):
        prof = exact_euler_profile(np.linspace(0.0, 4.0, 41))
        res = euler_residual(prof, BreakthroughDistribution.exponential(1.0))
        assert np.nanmax(np.abs(res)) < 1e-9

    def test_single_cell_perturbation_is_local_and_exact(self):
        G = BreakthroughDistribution.exponential(1.0)
        edges, n = GRID.edges, GRID.n_cells
        base = cell_profile(edges, np.zeros(n), np.zeros(n))
        eps, j = 0.01, 3
        bumped_cells = np.zeros(n)
        bumped_cells[j] = eps
        bumped = cell_profile(edges, bumped_cells, np.zeros(n))
        delta = euler_residual(bumped, G) - euler_residual(base, G)
        expected = np.zeros(n + 1)
        expected[j] = eps * G.sf(float(edges[j]))  # cell value read at its left edge
        assert np.allclose(delta, expected, atol=1e-15)

    def test_linearity(self):
        G = mixed_G()
        rng = np.random.default_rng(9)
        edges, n = GRID.edges, GRID.n_cells
        mk = lambda p0, p1: cell_profile(edges, p0, p1, float(p0[-1]), float(p1[-1]))
        a0, a1 = rng.normal(size=n), rng.normal(size=n)
        b0, b1 = rng.normal(size=n), rng.normal(size=n)
        combo = euler_residual(mk(2 * a0 + 3 * b0, 2 * a1 + 3 * b1), G)
        split = 2 * euler_residual(mk(a0, a1), G) + 3 * euler_residual(mk(b0, b1), G)
        assert np.allclose(combo, split, atol=1e-12)

    def test_profile_needs_both_paths(self):
        with pytest.raises(TypeError, match="phi1"):
            SupergradientProfile(edges=GRID.edges, phi0=np.zeros_like)
        with pytest.raises(TypeError, match="phi0"):
            SupergradientProfile(edges=GRID.edges, phi1=np.zeros_like)


class TestIntegrability:
    def test_construct_and_check_bound(self):
        r = 2.0
        grid = TimeGrid(horizon=2.0, step=0.25, r=r)
        m = Mechanism.from_grid(grid, np.full(grid.n_cells, 0.3), x0_tail=0.3)
        prof = exact_euler_profile(np.linspace(0.0, 6.0, 61))
        G = BreakthroughDistribution.exponential(1.0)
        rep = integrability_bounds(prof, G, m)
        assert rep.phi1_abs_expectation == pytest.approx(1.0, abs=1e-8)
        assert rep.bound_holds
        assert rep.slack > 0

    def test_report_holds_the_two_expectations_and_the_verdict_only(self):
        names = [f.name for f in dataclasses.fields(IntegrabilityReport)]
        assert names == ["capital_phi_expectation", "phi1_abs_expectation", "bound_holds", "slack"]

    def test_zero_phi0(self):
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.3))
        n = GRID.n_cells
        prof = cell_profile(GRID.edges, np.zeros(n), np.full(n, -0.5), phi1_tail=-0.5)
        rep = integrability_bounds(prof, BreakthroughDistribution.exponential(1.0), m)
        assert rep.capital_phi_expectation == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_holds

    def test_warmup_identity(self):
        assert warmup_identity(
            BreakthroughDistribution.exponential(1.3), r=1.0
        ) == pytest.approx(1.0, abs=1e-6)
        assert warmup_identity(mixed_G(0.8), r=0.7) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("tail_rate", [0.03, 0.8, 2.9])
    def test_warmup_identity_runs_past_a_slow_tail_in_19_cells(self, tail_rate, monkeypatch):
        # past the 37/r horizon a tail slower than e^{-rt} still carries
        # e^{-37 tail_rate / r} of the identity: 1.4e-5 at rate 2.75 and tail 0.8
        built = []
        build = NodePlan.build.__func__
        monkeypatch.setattr(NodePlan, "build", classmethod(lambda cls, G, e: built.append(e) or build(cls, G, e)))
        G = mixed_G(tail_rate)
        assert abs(warmup_identity(G, r=3.0) - 1.0) < 1e-14
        (edges,) = built
        base = integration_edges(G, 3.0)
        assert edges.size == base.size + 19
        np.testing.assert_array_equal(edges[: base.size], base)
        np.testing.assert_allclose(np.diff(edges[base.size - 1 :]), 37.0 / tail_rate / 19, rtol=1e-12)


def random_mechanism(rng, grid=GRID, lo=0.05, hi=0.45):
    return Mechanism.from_grid(
        grid,
        rng.uniform(lo, hi, grid.n_cells),
        x0_tail=float(rng.uniform(lo, hi)),
    )


class TestGateaux:
    def test_zero_direction(self):
        tech = quad_tech()
        rng = np.random.default_rng(1)
        m = random_mechanism(rng)
        prof = SupergradientProfile.exact(m, tech)
        G = mixed_G()
        assert gateaux_closed_form(m, m, prof, tech, G) == pytest.approx(0.0, abs=1e-14)
        assert gateaux_fd(m, m, tech, G) == pytest.approx(0.0, abs=1e-10)

    def test_exact_profile_corrections_vanish(self):
        tech = quad_tech()
        rng = np.random.default_rng(2)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        prof = SupergradientProfile.exact(m, tech)
        terms = gateaux_closed_form(
            m, m_dag, prof, tech, mixed_G(), return_terms=True
        )
        assert abs(terms["corr0"]) < 1e-10
        assert abs(terms["corr1"]) < 1e-10

    def test_smooth_randomized_matches_fd(self):
        tech = quad_tech()
        rng = np.random.default_rng(17)
        for _ in range(15):
            m, m_dag = random_mechanism(rng), random_mechanism(rng)
            prof = SupergradientProfile.exact(m, tech)
            G = mixed_G(float(rng.uniform(0.6, 1.5)))
            closed = gateaux_closed_form(m, m_dag, prof, tech, G)
            fd = gateaux_fd(m, m_dag, tech, G)
            assert closed == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_atom_at_zero(self):
        tech = quad_tech()
        rng = np.random.default_rng(3)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        prof = SupergradientProfile.exact(m, tech)
        G = BreakthroughDistribution.point_mass(0.0)
        val = gateaux_closed_form(m, m_dag, prof, tech, G)
        X, Xd = float(m.X0_edges[0]), float(m_dag.X0_edges[0])
        expected = tech.f1.right_deriv(X) * (Xd - X)
        assert val == pytest.approx(expected, abs=1e-9)

    def test_monotone_quotients_on_concave_objective(self):
        from frontierkit.mechanism import pi_G
        from dataclasses import replace

        tech = quad_tech()
        rng = np.random.default_rng(29)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        G = mixed_G()
        base = pi_G(m, tech, G)
        quots = []
        for a in (0.5, 0.25, 0.1, 0.01):
            blend = replace(
                m,
                x0=m.x0 + a * (m_dag.x0 - m.x0),
                x0_tail=m.x0_tail + a * (m_dag.x0_tail - m.x0_tail),
            )
            quots.append((pi_G(blend, tech, G) - base) / a)
        assert all(q2 >= q1 - 1e-12 for q1, q2 in zip(quots[:-1], quots[1:]))

    def test_payoff_noise_trips_the_divergence_guard(self, monkeypatch):
        # noise s on the payoffs, alternating in sign, puts 2 s / alpha into
        # every other quotient. At rounding size the estimate keeps within
        # 1e-12 of the closed form. The clean differences halve, from 9.1e-4
        # to 5.7e-5; the noise adds 320 s to the last and takes it from the
        # one before, so the guard refuses s above about 9.1e-8 (2.5e-6
        # times the payoff's curvature along alpha, 0.037 here). At 3e-6 the
        # estimate would be 1.9e-3 off
        rng = np.random.default_rng(5)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        tech, G = quad_tech(), mixed_G(0.9)
        closed = gateaux_closed_form(m, m_dag, SupergradientProfile.exact(m, tech), tech, G)
        payoffs = variational._payoffs

        def noisy(s):
            noise = lambda vals: [v + s * (-1) ** i for i, v in enumerate(vals)]
            monkeypatch.setattr(variational, "_payoffs", lambda ms, t, g: noise(payoffs(ms, t, g)))
            return gateaux_fd(m, m_dag, tech, G)

        assert abs(noisy(1e-15) - closed) < 1e-12
        for s in (3e-6, 1e-4):
            with pytest.raises(NonConvergent, match="diverge"):
                noisy(s)

    def test_profile_off_the_supergradients_is_rejected(self):
        tech = quad_tech()
        rng = np.random.default_rng(4)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        exact = SupergradientProfile.exact(m, tech)
        prof = replace(exact, phi0=lambda t: exact.phi0(t) + 0.1)
        with pytest.raises(InvalidProfile, match="not a supergradient"):
            gateaux_closed_form(m, m_dag, prof, tech, mixed_G())

    def test_kinked_supergradient_direction(self):
        # kinked F0 at u = 0.3; the flow sits exactly on the kink
        f0 = PiecewiseLinearFrontier([0.0, 0.3, 0.6], [0.0, 0.24, 0.3])
        f1 = QuadraticFrontier(0.9375, 0.5, -1.0)
        tech = Technology(f0=f0, f1=f1, u0=0.3, u1=0.25, u_star=0.0)
        n = GRID.n_cells
        m = Mechanism.from_grid(GRID, np.full(n, 0.3), x0_tail=0.3)
        m_dag = Mechanism.from_grid(GRID, np.full(n, 0.5), x0_tail=0.5)
        # any slope in [0.2, 0.8] is a valid supergradient at the kink
        prof = cell_profile(
            GRID.edges,
            np.full(n, 0.5),
            np.array(
                [tech.f1.right_deriv(float(u)) for u in
                 m.X0_at(0.5 * (GRID.edges[:-1] + GRID.edges[1:]))]
            ),
            phi0_tail=0.5,
            phi1_tail=tech.f1.right_deriv(0.3),
        )
        G = mixed_G()
        closed = gateaux_closed_form(m, m_dag, prof, tech, G)
        fd = gateaux_fd(m, m_dag, tech, G)
        assert closed >= fd - 1e-6  # supergradient overestimates the derivative


class TestStrictConcavity:
    def test_equal_paths_flagged(self):
        tech = quad_tech()
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.25), x0_tail=0.25)
        gap, valid = strict_concavity_probe(
            m, m, 0.5, tech, BreakthroughDistribution.exponential(1.0)
        )
        assert not valid
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_constant_paths_strict(self):
        tech = quad_tech()
        n = GRID.n_cells
        m = Mechanism.from_grid(GRID, np.full(n, 0.25), x0_tail=0.25)
        m_dag = Mechanism.from_grid(GRID, np.full(n, 0.125), x0_tail=0.125)
        gap, valid = strict_concavity_probe(
            m, m_dag, 0.5, tech, BreakthroughDistribution.exponential(1.0)
        )
        assert valid and gap > 1e-6

    def test_gap_vanishes_with_direction(self):
        tech = quad_tech()
        rng = np.random.default_rng(31)
        m = random_mechanism(rng)
        d = rng.uniform(-0.05, 0.05, GRID.n_cells)
        G = BreakthroughDistribution.exponential(1.0)
        gaps = []
        from dataclasses import replace

        for scale in (1.0, 0.5, 0.25):
            m_dag = replace(m, x0=np.clip(m.x0 + scale * d, 0.0, 0.5))
            gaps.append(strict_concavity_probe(m, m_dag, 0.5, tech, G)[0])
        assert gaps[0] > gaps[1] > gaps[2] > 0

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 1.5])
    def test_blend_weight_outside_the_open_unit_interval_rejected(self, lam):
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.25))
        with pytest.raises(ValueError, match="lam must lie strictly"):
            strict_concavity_probe(m, m, lam, quad_tech(), BreakthroughDistribution.exponential(1.0))

    def test_bounded_support_rejected(self):
        tech = quad_tech()
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.25))
        with pytest.raises(PreconditionViolation):
            strict_concavity_probe(
                m, m, 0.5, tech, BreakthroughDistribution.point_mass(1.0)
            )

    def test_randomized_positive(self):
        tech = quad_tech()
        rng = np.random.default_rng(41)
        for _ in range(50):
            m, m_dag = random_mechanism(rng), random_mechanism(rng)
            lam = float(rng.uniform(0.05, 0.95))
            G = BreakthroughDistribution.exponential(float(rng.uniform(0.5, 2.0)))
            gap, valid = strict_concavity_probe(m, m_dag, lam, tech, G)
            assert valid and gap > 0


def pinned_G(rng, kind):
    """The five kinds of G the pinned instances cycle through."""
    rate = float(rng.uniform(0.6, 1.5))
    if kind == 0:
        return mixed_G(rate)
    if kind == 1:
        return BreakthroughDistribution.exponential(rate)
    if kind == 2:
        # an atom inside a cell, three density pieces and a tail
        w = rng.dirichlet(np.ones(5))
        edges = np.sort(np.concatenate([[0.0, 1.7], rng.uniform(0.1, 1.6, 2)]))
        return BreakthroughDistribution(
            atoms=((float(rng.uniform(0.1, 1.9)), float(w[0])),),
            density_edges=edges,
            density_values=w[1:4] / np.diff(edges),
            tail_rate=rate,
            tail_mass=float(1.0 - w[:4].sum()),
            tail_start=1.7 + float(rng.uniform(0, 0.5)),
        )
    if kind == 3:
        return BreakthroughDistribution(
            atoms=((0.0, 0.25),), tail_rate=rate, tail_mass=0.75, tail_start=0.0
        )
    b = float(rng.uniform(0.5, 2.5))
    return BreakthroughDistribution(density_edges=np.array([0.0, b]), density_values=np.array([1.0 / b]))


def pinned_instance(i, mh_tech):
    """Instance ``i`` of the pinned values: rates 1, 2 and 0.7, every fourth
    ``m_dag`` on a coarser grid (so `_align` refines both), and the
    moral-hazard technology at 7 and 17."""
    rng = np.random.default_rng(900 + i)
    tech = mh_tech if i % 10 == 7 else quad_tech()
    r = (1.0, 2.0, 0.7)[i % 3]
    grid = TimeGrid(horizon=2.0, step=0.25, r=r)
    lo, hi = 0.05 * tech.u0, 0.9 * tech.u0

    def flow(g):
        x0 = rng.uniform(lo, hi, g.n_cells)
        return Mechanism.from_grid(g, x0, x0_tail=float(rng.uniform(lo, hi)))

    m = flow(grid)
    m_dag = flow(TimeGrid(horizon=2.0, step=0.5, r=r) if i % 4 == 3 else grid)
    G = pinned_G(rng, i % 5)
    return tech, m, m_dag, G, float(rng.uniform(0.05, 0.95)), float(rng.uniform(lo, hi))


def pinned_values(i, mh_tech):
    tech, m, m_dag, G, lam, _ = pinned_instance(i, mh_tech)
    prof = SupergradientProfile.exact(m, tech)
    out = {"fd": [gateaux_fd(m, m_dag, tech, G)]}
    if G.tail_mass > 0:
        gap, valid = strict_concavity_probe(m, m_dag, lam, tech, G)
        out["probe"] = [gap, float(valid)]
        out["warmup"] = [warmup_identity(G, r=m.r)]
    out["euler"] = euler_residual(prof, G).tolist()
    if tech is not mh_tech:
        # skipped for the moral-hazard F1, whose derivative is solved one
        # point at a time: seconds per instance
        terms = gateaux_closed_form(m, m_dag, prof, tech, G, return_terms=True)
        out["closed"] = [terms[k] for k in ("survival", "accumulated", "corr0", "corr1", "total")]
        out["closed"].append(gateaux_closed_form(m, m_dag, prof, tech, G))
        b = integrability_bounds(prof, G, m)
        out["integrability"] = [b.capital_phi_expectation, b.phi1_abs_expectation, b.slack]
    return {k: [float(x).hex() for x in v] for k, v in out.items()}


PINS = json.loads((Path(__file__).parent / "variational_pins.json").read_text())


@pytest.mark.parametrize("i", [i for i in range(len(PINS)) if i % 5 == 4])
def test_warmup_identity_refuses_a_law_without_a_tail(i, default_tech):
    # past the end T of such a support sf is 0, and the identity reads 1 - e^{-rT}
    _, m, _, G, _, _ = pinned_instance(i, default_tech)
    assert G.tail_mass == 0.0
    with pytest.raises(PreconditionViolation, match="exponential"):
        warmup_identity(G, r=m.r)


@pytest.mark.parametrize("i", range(len(PINS)))
def test_variational_values_are_pinned_bit_for_bit(i, default_tech):
    # recorded before the payoff node plan and the array survival function;
    # both must keep every bit. Entries 2 and 3 of an integrability pin are
    # expectations toward a probe promise that `integrability_bounds` does
    # not report
    expected = dict(PINS[i])
    if "integrability" in expected:
        expected["integrability"] = [expected["integrability"][k] for k in (0, 1, 4)]
    assert pinned_values(i, default_tech) == expected


class TestPayoffPlan:
    @pytest.fixture
    def plans(self, monkeypatch):
        built = []

        class Counting(mechanism._PayoffPlan):
            def __init__(self, m, G):
                super().__init__(m, G)
                built.append(weakref.ref(self))

        monkeypatch.setattr(mechanism, "_PayoffPlan", Counting)
        return built

    def check_one_plan_not_kept(self, plans):
        assert len(plans) == 1
        gc.collect()
        assert plans[0]() is None

    def test_one_plan_per_finite_difference_sweep(self, plans):
        rng = np.random.default_rng(5)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        gateaux_fd(m, m_dag, quad_tech(), mixed_G(0.9))
        self.check_one_plan_not_kept(plans)

    def test_one_plan_per_concavity_probe(self, plans):
        rng = np.random.default_rng(6)
        m, m_dag = random_mechanism(rng), random_mechanism(rng)
        strict_concavity_probe(m, m_dag, 0.3, quad_tech(), mixed_G(1.2))
        self.check_one_plan_not_kept(plans)

    def test_a_pass_over_paths_on_two_grids_raises(self):
        # the pass builds one plan, from its first path
        rng = np.random.default_rng(7)
        tech, G = quad_tech(), mixed_G()
        coarse = random_mechanism(rng, TimeGrid(horizon=2.0, step=0.5, r=1.0))
        other_rate = random_mechanism(rng, TimeGrid(horizon=2.0, step=0.25, r=2.0))
        no_delay = replace(random_mechanism(rng), u1=0.2)
        for odd in (coarse, other_rate, no_delay):
            with pytest.raises(ValueError, match="one grid and rate"):
                mechanism._payoffs([random_mechanism(rng), odd], tech, G)


class TestSweepRows:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.integers(0, 4),
        moral_hazard=st.booleans(),
        n_paths=st.integers(1, 7),
        r=st.sampled_from([1.0, 2.0, 0.7]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_rows_are_each_path_on_its_own_bit_for_bit(self, default_tech, seed, kind, moral_hazard, n_paths, r):
        # kinds 2 and 3 put atoms in G, inside a cell and at 0
        rng = np.random.default_rng(seed)
        tech = default_tech if moral_hazard else quad_tech()
        grid = TimeGrid(horizon=2.0, step=0.25, r=r)
        paths = [random_mechanism(rng, grid, 0.05 * tech.u0, 0.9 * tech.u0) for _ in range(n_paths)]
        G = pinned_G(rng, kind)
        rows = mechanism._payoffs([mechanism._pinned(p) for p in paths], tech, G)
        alone = [mechanism.pi_G(p, tech, G) for p in paths]
        assert [x.hex() for x in rows] == [x.hex() for x in alone]

    def test_one_effort_solve_per_moral_hazard_sweep(self, default_prims, monkeypatch):
        # a Technology of its own: F1 keeps its last call's efforts, so a
        # shared one would carry other tests' solves
        tech = technology.make_moral_hazard_technology(default_prims)
        inputs, calls = [], []
        value, solve = tech.f1.value, technology.effort_star_array
        monkeypatch.setattr(tech.f1, "value", lambda u: inputs.append(np.unique(u)) or value(u))
        monkeypatch.setattr(technology, "effort_star_array", lambda p, u: calls.append(np.size(u)) or solve(p, u))
        rng = np.random.default_rng(11)
        lo, hi = 0.05 * tech.u0, 0.9 * tech.u0
        m, m_dag = random_mechanism(rng, lo=lo, hi=hi), random_mechanism(rng, lo=lo, hi=hi)
        gateaux_fd(m, m_dag, tech, mixed_G())
        assert len(inputs) == 1 and calls == [inputs[0].size]


class TestNodePlanPerCheck:
    @pytest.fixture
    def plans(self, monkeypatch):
        built = []
        build = NodePlan.build.__func__

        def counting(cls, G, edges):
            plan = build(cls, G, edges)
            built.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(NodePlan, "build", classmethod(counting))
        return built

    def check_one_plan_not_kept(self, plans):
        assert len(plans) == 1
        gc.collect()
        assert plans[0]() is None

    def test_one_plan_per_closed_form(self, plans):
        rng = np.random.default_rng(8)
        tech = quad_tech()
        m, m_dag = random_mechanism(rng), random_mechanism(rng, TimeGrid(horizon=2.0, step=0.5, r=1.0))
        prof = SupergradientProfile.exact(m, tech)
        gateaux_closed_form(m, m_dag, prof, tech, pinned_G(rng, 2), return_terms=True)
        self.check_one_plan_not_kept(plans)

    def test_one_plan_per_integrability_check(self, plans):
        rng = np.random.default_rng(9)
        tech, m = quad_tech(), random_mechanism(rng)
        integrability_bounds(SupergradientProfile.exact(m, tech), pinned_G(rng, 2), m)
        self.check_one_plan_not_kept(plans)

    def test_one_plan_per_warmup_identity(self, plans):
        warmup_identity(pinned_G(np.random.default_rng(10), 2), r=1.0)
        self.check_one_plan_not_kept(plans)


def test_exact_phi0_is_the_derivative_along_the_flow(default_tech):
    # phi0 reads its cells, where it used to evaluate d0 at the flow per point
    rng = np.random.default_rng(12)
    for tech in (quad_tech(), default_tech):
        m = random_mechanism(rng, lo=0.05 * tech.u0, hi=0.9 * tech.u0)
        t = np.concatenate([rng.uniform(0.0, 3.0, 200), m.edges, [2.0, 2.5, 1e6]])
        prof = SupergradientProfile.exact(m, tech)
        want = tech.f0.deriv(step_value(m.edges, m.x0, m.x0_tail, t), "right")
        assert prof.phi0(t).tobytes() == want.tobytes()


def test_exact_profile_makes_no_effort_solve(default_tech, monkeypatch):
    # phi1 is read through F1's slope at X0_at(t) only, so the profile holds no per-cell F1
    # slopes, each of which would cost a scalar effort solve
    calls = []
    for name in ("effort_star", "effort_star_array"):
        solve = getattr(technology, name)
        monkeypatch.setattr(technology, name, lambda p, u, solve=solve: calls.append(u) or solve(p, u))
    m = random_mechanism(np.random.default_rng(14), lo=0.05 * default_tech.u0, hi=0.9 * default_tech.u0)
    assert m.edges.size == 9
    SupergradientProfile.exact(m, default_tech)
    assert calls == []


def test_grids_one_ulp_apart_are_aligned(default_tech):
    # the closed form gathers the flows by cell, so grids that are only close
    # must be refined to one grid first
    rng = np.random.default_rng(13)
    tech = quad_tech()
    m = random_mechanism(rng)
    edges = m.edges.copy()
    edges[1:-1] = np.nextafter(edges[1:-1], np.inf)
    m_dag = Mechanism(edges=edges, x0=rng.uniform(0.05, 0.45, len(edges) - 1), r=m.r, x0_tail=0.3)
    G = mixed_G(0.8)
    closed = gateaux_closed_form(m, m_dag, SupergradientProfile.exact(m, tech), tech, G)
    fd = gateaux_fd(m, m_dag, tech, G)
    assert abs(closed - fd) / max(abs(fd), 1e-6) < 1e-6


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda m, m_dag, tech, G: mechanism.payoff(m, tech, G),
        lambda m, m_dag, tech, G: mechanism.pi_G(m, tech, G),
        gateaux_fd,
        lambda m, m_dag, tech, G: strict_concavity_probe(m, m_dag, 0.5, tech, G),
    ],
    ids=["payoff", "pi_G", "gateaux_fd", "strict_concavity_probe"],
)
def test_evaluation_leaves_its_mechanisms_unchanged(evaluate):
    # the promise at the edges comes from construction; no caller writes it
    rng = np.random.default_rng(17)
    tech = quad_tech()
    m, m_dag = random_mechanism(rng), random_mechanism(rng)
    before = [dict(vars(p)) for p in (m, m_dag)]
    evaluate(m, m_dag, tech, mixed_G(0.8))
    for p, was in zip((m, m_dag), before):
        assert vars(p).keys() == was.keys()
        assert all(vars(p)[k] is v for k, v in was.items())


def test_package_has_no_np_vectorize():
    # np.vectorize is a Python loop over points; survival and the frontier
    # derivatives take arrays instead
    src = Path(frontierkit.__file__).parent
    pattern = re.compile(r"\b(?:np|numpy)\.vectorize\b|\bvectorize\s*\(")
    offenders = [p.name for p in sorted(src.rglob("*.py")) if pattern.search(p.read_text())]
    assert offenders == []
