import dataclasses
import inspect
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import frontierkit
from frontierkit import (
    AffineFrontier,
    NonFiniteValue,
    PreconditionViolation,
    QuadraticFrontier,
    Technology,
    make_moral_hazard_technology,
)
from frontierkit import mechanism, technology
from frontierkit.mechanism import (
    BreakthroughDistribution,
    Mechanism,
    TimeGrid,
    deadline_for_promise,
    dominance_check,
    make_deadline_mechanism,
    no_delay_improve,
    normalize,
    payoff,
    payoff_affine_rewrite,
    pi_G,
)
from frontierkit.quadrature import step_value

GRID = TimeGrid(horizon=6.0, step=0.05, r=1.0)


def affine_tech(slope=0.6, intercept=0.2):
    """Affine pre-breakthrough frontier, quadratic post; peaks 0.5 and 0.25."""
    f0 = AffineFrontier(intercept, slope, domain=(0.0, 0.5))
    f1 = QuadraticFrontier(1.0 - 0.25**2, 0.5, -1.0)  # 1 - (u - 0.25)^2
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


def quad_tech():
    """Smooth all-quadratic technology with peaks 0.5 and 0.25."""
    f0 = QuadraticFrontier(0.5 - 0.25, 1.0, -1.0)  # 0.5 - (u - 0.5)^2
    f1 = QuadraticFrontier(1.0 - 0.0625, 0.5, -1.0)  # 1 - (u - 0.25)^2
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


class TestTimeGrid:
    @pytest.mark.parametrize(
        "horizon, step, r",
        [
            (6.0, math.inf, 1.0),  # no cells
            (1.0, 1e12, 1.0),  # within 1e-9 of zero steps: no cells either
            (math.inf, 0.05, 1.0),  # horizon / step is inf
            (1e300, 1e-300, 1.0),  # horizon / step overflows
            (6.0, 0.05, math.inf),
            (math.nan, 0.05, 1.0),
        ],
    )
    def test_non_finite_or_empty_grid_is_a_value_error(self, horizon, step, r):
        with pytest.raises(ValueError):
            TimeGrid(horizon=horizon, step=step, r=r)

    def test_one_cell_grid(self):
        assert TimeGrid(horizon=2.0, step=2.0, r=1.0).edges.tolist() == [0.0, 2.0]


class TestPromisedUtility:
    def test_constant_paths_are_fixed_points(self):
        n = GRID.n_cells
        X = Mechanism.from_grid(GRID, np.full(n, 0.5), x0_tail=0.5).X0_edges
        assert np.allclose(X, 0.5, atol=1e-12)
        X = Mechanism.from_grid(GRID, np.zeros(n)).X0_edges
        assert np.allclose(X, 0.0, atol=1e-14)

    def test_deadline_path_closed_form(self, default_tech):
        T = math.log(2.0)
        m = make_deadline_mechanism(T, default_tech, GRID)
        # u0 * (1 - e^{-rT}) = 0.5 * 0.5
        assert m.X0_edges[0] == pytest.approx(0.25, abs=1e-12)
        # independent quadrature oracle for X0_0 = r int_0^inf e^{-rt} x_t dt
        oracle, _ = quad(lambda t: math.exp(-t) * (0.5 if t <= T else 0.0), 0, 20,
                         points=[T], limit=200)
        assert m.X0_edges[0] == pytest.approx(oracle, abs=1e-9)

    def test_linear_and_monotone(self):
        rng = np.random.default_rng(3)
        n = GRID.n_cells
        x = rng.uniform(0.0, 0.5, n)
        y = rng.uniform(0.0, 0.5, n)
        X0_edges = lambda x0: Mechanism.from_grid(GRID, x0).X0_edges
        Xx, Xy = X0_edges(x), X0_edges(y)
        assert np.allclose(X0_edges(0.3 * x + 0.7 * y), 0.3 * Xx + 0.7 * Xy, atol=1e-12)
        assert np.all(X0_edges(np.maximum(x, y)) >= np.maximum(Xx, Xy) - 1e-12)

    def test_continuity_across_cells(self):
        rng = np.random.default_rng(4)
        m = Mechanism.from_grid(GRID, rng.uniform(0.0, 0.5, GRID.n_cells))
        for t in GRID.edges[1:-1][:10]:
            below = m.X0_at(t - 1e-10)
            assert m.X0_at(t) == pytest.approx(below, abs=1e-8)

    def test_with_knots_keeps_an_explicit_promise(self):
        n = GRID.n_cells
        cells = np.random.default_rng(8).uniform(0.1, 0.5, n)
        X1 = lambda t: step_value(GRID.edges, cells, 0.45, t)
        m = Mechanism.from_grid(GRID, np.full(n, 0.3), x0_tail=0.3, X1=X1)
        fine = m.with_knots([0.123, 1.0 + 1e-3, 5.525, 9.0])
        assert len(fine.edges) == len(m.edges) + 3
        ts = np.concatenate([fine.edges, np.linspace(0.0, 8.0, 97)])
        assert fine.X1_at(ts).tobytes() == m.X1_at(ts).tobytes() == X1(ts).tobytes()


class TestDeadlineMechanism:
    def test_zero_deadline(self, default_tech):
        m = make_deadline_mechanism(0.0, default_tech, GRID)
        assert np.all(m.x0 == 0.0)
        assert m.X1_at(0.0) == pytest.approx(0.25)
        assert m.X1_at(3.7) == pytest.approx(0.25)

    def test_infinite_deadline(self, default_tech):
        m = make_deadline_mechanism(math.inf, default_tech, GRID)
        assert np.allclose(m.x0, 0.5, atol=1e-10) and m.x0_tail == pytest.approx(0.5)
        assert m.X1_at(2.0) == pytest.approx(0.5)  # u0 > u1

    def test_log_two_deadline(self, default_tech):
        m = make_deadline_mechanism(math.log(2.0), default_tech, GRID)
        assert m.X0_edges[0] == pytest.approx(0.25, abs=1e-12)
        assert m.X1_at(0.0) == pytest.approx(0.25, abs=1e-12)

    def test_deadline_for_promise(self, default_tech):
        assert deadline_for_promise(0.0, default_tech, GRID) == 0.0
        assert deadline_for_promise(default_tech.u0, default_tech, GRID) == math.inf
        T = deadline_for_promise(0.25, default_tech, GRID)
        assert T == pytest.approx(math.log(2.0), abs=1e-12)

    def test_round_trip(self, default_tech):
        for v in (0.1, 0.25, 0.4, 0.49):
            T = deadline_for_promise(v, default_tech, GRID)
            m = make_deadline_mechanism(T, default_tech, GRID)
            assert m.X0_edges[0] == pytest.approx(v, abs=1e-10)


class TestPayoff:
    def test_atom_at_zero(self):
        tech = quad_tech()
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.3), u1=tech.u1)
        val = payoff(m, tech, BreakthroughDistribution.point_mass(0.0))
        assert val == pytest.approx(float(tech.f1.value(m.X1_at(0.0))), abs=1e-12)

    def test_exponential_infinite_deadline_closed_form(self, default_tech):
        G = BreakthroughDistribution.exponential(1.0)
        m = make_deadline_mechanism(math.inf, default_tech, GRID)
        val = payoff(m, default_tech, G)
        r, g = GRID.r, 1.0
        f0_u0 = float(default_tech.f0.value(0.5))
        f1_u0 = float(default_tech.f1.value(0.5))
        expected = f0_u0 * (1.0 - g / (g + r)) + f1_u0 * g / (g + r)
        assert val == pytest.approx(expected, abs=1e-10)
        # full quadrature oracle over the breakthrough time
        a_fn = lambda tau: f0_u0 * (1.0 - math.exp(-r * tau))
        oracle, _ = quad(
            lambda tau: g * math.exp(-g * tau) * (a_fn(tau) + math.exp(-r * tau) * f1_u0),
            0, 50, limit=200,
        )
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_atom_after_zero_deadline(self, default_tech):
        G = BreakthroughDistribution.point_mass(1.0)
        m = make_deadline_mechanism(0.0, default_tech, GRID)
        val = payoff(m, default_tech, G)
        expected = math.exp(-GRID.r) * float(default_tech.f1.value(0.25))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_finite_deadline_quadrature_oracle(self, default_tech):
        T = math.log(2.0)
        G = BreakthroughDistribution.exponential(0.7)
        m = make_deadline_mechanism(T, default_tech, GRID)
        val = payoff(m, default_tech, G)
        r, g, u0 = GRID.r, 0.7, 0.5
        f0_u0 = float(default_tech.f0.value(u0))
        f1 = lambda u: float(default_tech.f1.value(u))

        def X0(t):
            return u0 * (1.0 - math.exp(-r * (T - t))) if t < T else 0.0

        def integrand(tau):
            a = f0_u0 * (1.0 - math.exp(-r * min(tau, T)))
            x1 = max(X0(tau), 0.25)
            return g * math.exp(-g * tau) * (a + math.exp(-r * tau) * f1(x1))

        oracle, _ = quad(integrand, 0, 60, points=[T], limit=400)
        assert val == pytest.approx(oracle, abs=1e-7)

    def test_nonfinite_frontier_raises(self):
        tech = affine_tech()  # F0 domain ends at 0.5
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.9), u1=tech.u1)
        with pytest.raises(NonFiniteValue):
            payoff(m, tech, BreakthroughDistribution.exponential(1.0))


def _flow_path(tech, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.05 * tech.u0, 0.9 * tech.u0, GRID.n_cells)
    return Mechanism.from_grid(GRID, x0, x0_tail=float(rng.uniform(0.05 * tech.u0, 0.9 * tech.u0)))


SINGLE_BATCH_GS = {
    "exponential": BreakthroughDistribution.exponential(0.8),
    "mixed": BreakthroughDistribution(
        density_edges=np.array([0.0, 1.0]),
        density_values=np.array([0.5]),
        tail_rate=1.2,
        tail_mass=0.5,
        tail_start=1.0,
    ),
    "atoms": BreakthroughDistribution(
        atoms=((0.5, 0.25), (2.0, 0.25)), tail_rate=1.0, tail_mass=0.5, tail_start=2.0
    ),
}

# (payoff, payoff after no_delay_improve) for the three Gs above, recorded
# while the tail and each atom still had F1 solved in calls of their own
PINNED_PAYOFFS = {
    0: [(0.31264495281464116, 0.3126562716557176), (0.303227896266426, 0.30323884813268226),
        (0.239773719374016, 0.2397938169991508)],
    1: [(0.3175234105751377, 0.317548078597097), (0.30797906976150213, 0.30799986842930305),
        (0.24237367661511436, 0.24237768125883583)],
    2: [(0.3092788355256234, 0.30931824897198146), (0.29957849091510097, 0.29960722154153546),
        (0.23484724063207027, 0.23486525897955823)],
}


class TestSingleF1Batch:
    """Effort solves per payoff, each on a Technology of its own: F1 keeps its
    last call's efforts, so a shared one would carry other tests' solves."""

    @pytest.fixture
    def counted(self, default_prims, monkeypatch):
        """A fresh Technology, the distinct inputs of each of its F1 value
        calls from here on, and the points of each effort solve."""
        tech = make_moral_hazard_technology(default_prims)
        inputs, solves = [], []
        value, solve = tech.f1.value, technology.effort_star_array
        monkeypatch.setattr(tech.f1, "value", lambda u: inputs.append(np.unique(u)) or value(u))
        monkeypatch.setattr(technology, "effort_star_array", lambda p, u: solves.append(np.size(u)) or solve(p, u))
        return tech, inputs, solves

    @pytest.mark.parametrize("family", sorted(SINGLE_BATCH_GS))
    def test_one_effort_solve_per_payoff(self, counted, family):
        # the pair solves each distinct promise once: the improved payoff
        # solves only the promises the first one did not
        tech, inputs, solves = counted
        G = SINGLE_BATCH_GS[family]
        m = _flow_path(tech, 0)
        payoff(m, tech, G)
        assert len(inputs) == 1 and solves == [inputs[0].size]
        payoff(no_delay_improve(m, tech), tech, G)
        new = np.setdiff1d(inputs[1], inputs[0]).size
        assert 0 < new < inputs[1].size
        assert solves == [inputs[0].size, new]

    def test_one_effort_solve_per_affine_rewrite(self, counted):
        # the three Gs' knots are grid edges, so all three place the same
        # nodes: the first G solves every promise there, the second none, and
        # the atoms' G only the one new promise at its atoms' times
        tech, inputs, solves = counted
        f0 = AffineFrontier(0.1, 0.6, domain=(0.0, tech.u0))
        tech = Technology(f0=f0, f1=tech.f1, u0=tech.u0, u1=tech.u1, u_star=0.0)
        m = normalize(_flow_path(tech, 1), tech)
        for G in SINGLE_BATCH_GS.values():
            payoff_affine_rewrite(m, tech, G)
        assert list(SINGLE_BATCH_GS) == ["exponential", "mixed", "atoms"]
        assert [x.size for x in inputs] == [978, 978, 979]
        assert np.array_equal(inputs[1], inputs[0]) and np.setdiff1d(inputs[2], inputs[1]).size == 1
        assert solves == [978, 1]

    def test_one_promise_edge_solve_per_mechanism_built(self, default_tech, monkeypatch):
        # X0_edges is computed by the constructor, replace included, and by
        # nothing that evaluates a mechanism; a copy that changes only the
        # promise carries it over
        calls, builds = [], []
        solve, init = mechanism._promise_edges, Mechanism.__post_init__
        monkeypatch.setattr(mechanism, "_promise_edges", lambda *a: calls.append(1) or solve(*a))
        monkeypatch.setattr(Mechanism, "__post_init__", lambda m: builds.append(1) or init(m))
        for G in SINGLE_BATCH_GS.values():
            calls.clear()
            builds.clear()
            m = _flow_path(default_tech, 0)
            assert len(calls) == len(builds) == 1
            improved = no_delay_improve(m, default_tech)
            assert improved.X0_edges is m.X0_edges
            payoff(m, default_tech, G)
            payoff(improved, default_tech, G)
            pi_G(m, default_tech, G)
            pi_G(improved, default_tech, G)
            assert len(calls) == len(builds) == 1
            mechanism._payoffs([m, replace(m, x0_tail=0.1)], default_tech, G)
            assert len(calls) == len(builds) == 2

    @pytest.mark.parametrize("seed", sorted(PINNED_PAYOFFS))
    def test_payoffs_are_unchanged_bit_for_bit(self, default_tech, seed):
        m = _flow_path(default_tech, seed)
        got = [
            (payoff(m, default_tech, G), payoff(no_delay_improve(m, default_tech), default_tech, G))
            for G in SINGLE_BATCH_GS.values()
        ]
        assert got == PINNED_PAYOFFS[seed]


class TestNoDelayImprove:
    def test_identity_when_already_no_delay(self):
        tech = quad_tech()
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.3), u1=tech.u1)
        m2 = no_delay_improve(m, tech)
        ts = np.linspace(0.0, 8.0, 50)
        assert np.allclose(m2.X1_at(ts), m.X1_at(ts), atol=0)

    def test_strict_gain_above_promise(self, default_tech):
        # X1 = u0 = 0.5 > X0 = 0.3 > u1 = 0.25 at the atom
        n = GRID.n_cells
        X1 = lambda t: step_value(GRID.edges, np.full(n, 0.5), 0.5, t)
        m = Mechanism.from_grid(GRID, np.full(n, 0.3), x0_tail=0.3, X1=X1)
        G = BreakthroughDistribution.point_mass(1.0)
        before = payoff(m, default_tech, G)
        after = payoff(no_delay_improve(m, default_tech), default_tech, G)
        assert after > before + 1e-6
        gain = math.exp(-1.0) * (
            float(default_tech.f1.value(0.3)) - float(default_tech.f1.value(0.5))
        )
        assert after - before == pytest.approx(gain, abs=1e-10)

    def test_strict_gain_below_peak(self, default_tech):
        # X0 = 0 <= u1 and X1 = 0: the improvement moves X1 to the peak u1
        n = GRID.n_cells
        X1 = lambda t: step_value(GRID.edges, np.zeros(n), 0.0, t)
        m = Mechanism.from_grid(GRID, np.zeros(n), X1=X1)
        G = BreakthroughDistribution.point_mass(1.0)
        before = payoff(m, default_tech, G)
        after = payoff(no_delay_improve(m, default_tech), default_tech, G)
        gain = math.exp(-1.0) * (
            float(default_tech.f1.value(0.25)) - float(default_tech.f1.value(0.0))
        )
        assert gain > 0
        assert after - before == pytest.approx(gain, abs=1e-10)

    def test_randomized_never_decreases(self):
        tech = quad_tech()
        grid = TimeGrid(horizon=2.0, step=0.25, r=1.0)
        rng = np.random.default_rng(11)
        n = grid.n_cells
        strict_seen = 0
        for _ in range(200):
            x0 = rng.uniform(0.0, 0.5, n)
            m = Mechanism.from_grid(grid, x0, x0_tail=float(rng.uniform(0, 0.5)))
            cell_sup = np.maximum(m.X0_edges[:-1], m.X0_edges[1:])
            cells = cell_sup + rng.uniform(0.0, 0.3, n)
            X1 = partial(step_value, grid.edges, cells, max(m.x0_tail, float(rng.uniform(0, 0.6))))
            m = Mechanism.from_grid(grid, x0, x0_tail=m.x0_tail, X1=X1)
            t_atom = float(rng.uniform(0.0, 3.0))
            G = BreakthroughDistribution(
                atoms=((t_atom, 0.4),), tail_rate=1.0, tail_mass=0.6, tail_start=0.0
            )
            gain = payoff(no_delay_improve(m, tech), tech, G) - payoff(m, tech, G)
            assert gain > -1e-10
            strict_seen += gain > 1e-9
        assert strict_seen > 150  # the replacement almost always bites


class TestAffineRewrite:
    def test_agrees_with_direct_payoff(self):
        tech = affine_tech()
        for T in (0.5, math.log(2.0), 2.0, math.inf):
            m = make_deadline_mechanism(T, tech, GRID)
            G = BreakthroughDistribution.exponential(1.3)
            direct = payoff(m, tech, G)
            rewrite = payoff_affine_rewrite(m, tech, G)
            assert rewrite == pytest.approx(direct, abs=1e-7)

    def test_agrees_on_decreasing_affine_f0(self):
        # the identity needs affinity only, not monotonicity
        f0 = AffineFrontier(1.0, -1.0, domain=(0.0, 0.5))
        f1 = QuadraticFrontier(2.0 - 0.0625, 0.5, -1.0)
        tech = Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)
        m = make_deadline_mechanism(1.0, tech, GRID)
        G = BreakthroughDistribution(density_edges=np.array([0.2, 2.2]), density_values=np.array([0.5]))
        assert payoff_affine_rewrite(m, tech, G) == pytest.approx(
            payoff(m, tech, G), abs=1e-7
        )

    def test_randomized_mechanisms_and_distributions(self):
        tech = affine_tech()
        rng = np.random.default_rng(23)
        grid = TimeGrid(horizon=3.0, step=0.25, r=1.0)
        for _ in range(20):
            m = Mechanism.from_grid(
                grid,
                rng.uniform(0.0, 0.5, grid.n_cells),
                x0_tail=float(rng.uniform(0.0, 0.5)),
                u1=tech.u1,
            )
            w = rng.dirichlet(np.ones(3))
            G = BreakthroughDistribution(
                atoms=((float(rng.uniform(0.1, 4.0)), w[0]),),
                density_edges=np.array([0.0, 1.5]),
                density_values=np.array([w[1] / 1.5]),
                tail_rate=float(rng.uniform(0.5, 2.0)),
                tail_mass=w[2],
                tail_start=1.5,
            )
            assert payoff_affine_rewrite(m, tech, G) == pytest.approx(
                payoff(m, tech, G), abs=1e-7
            )

    def test_infinite_deadline_constant_path(self):
        tech = affine_tech()
        m = make_deadline_mechanism(math.inf, tech, GRID)
        G = BreakthroughDistribution.exponential(1.0)
        phi_u0 = float(tech.f1.value(0.5)) - float(tech.f0.value(0.5))
        expected = float(tech.f0.value(0.5)) + (1.0 / 2.0) * phi_u0  # E e^{-r tau}
        assert payoff_affine_rewrite(m, tech, G) == pytest.approx(expected, abs=1e-9)

    def test_nodes_are_placed_on_the_grid_once(self, monkeypatch):
        built = []
        init = mechanism._GridTimes.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(mechanism._GridTimes, "__init__", counting)
        tech = affine_tech()
        m = make_deadline_mechanism(1.0, tech, GRID)
        built.clear()
        payoff_affine_rewrite(m, tech, BreakthroughDistribution.exponential(0.8))
        assert len(built) == 1

    def test_atom_at_zero_rejected(self):
        tech = affine_tech()
        m = make_deadline_mechanism(1.0, tech, GRID)
        with pytest.raises(PreconditionViolation):
            payoff_affine_rewrite(m, tech, BreakthroughDistribution.point_mass(0.0))

    def test_non_affine_f0_rejected(self, default_tech):
        m = make_deadline_mechanism(1.0, default_tech, GRID)
        with pytest.raises(PreconditionViolation):
            payoff_affine_rewrite(
                m, default_tech, BreakthroughDistribution.exponential(1.0)
            )


def two_step_mechanism(tech, grid):
    """Half flow on [0,1], full flow on (1,2], zero after."""
    starts = grid.edges[:-1]
    x0 = np.where(starts < 1.0, 0.5 * tech.u0, np.where(starts < 2.0, tech.u0, 0.0))
    return Mechanism.from_grid(grid, x0, u1=tech.u1)


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0])
def test_mechanism_rate_must_be_positive_and_finite(r):
    with pytest.raises(ValueError, match="r must"):
        Mechanism(edges=[0.0, 1.0], x0=[0.1], r=r)


@pytest.mark.parametrize("u1", [math.nan, math.inf, -math.inf])
def test_mechanism_promise_level_must_be_finite(u1):
    # payoff raised "F1 is -inf", naming the frontier, on these
    with pytest.raises(ValueError, match="u1"):
        Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.1), u1=u1)
    with pytest.raises(ValueError, match="u1"):
        replace(Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.1)), u1=u1)


@pytest.mark.parametrize(
    "X1",
    [
        lambda t: 0.3 + 0.01 * np.maximum(t - GRID.horizon, 0.0),  # rises past the horizon
        lambda t: np.where(t < 20.0, 0.4, 0.3),  # steps down well past it
        lambda t: np.where(t >= GRID.horizon, np.nan, 0.3),  # no value from the horizon on
    ],
)
def test_mechanism_explicit_promise_must_be_constant_from_the_horizon(X1):
    # the payoff takes the tail from one value of X1, so it came out wrong
    x0 = np.full(GRID.n_cells, 0.1)
    with pytest.raises(ValueError, match="X1 must be constant from the horizon"):
        Mechanism.from_grid(GRID, x0, X1=X1)
    with pytest.raises(ValueError, match="X1"):
        replace(Mechanism.from_grid(GRID, x0), X1=X1)
    # constant from the horizon on, whatever it does before
    steps = partial(step_value, GRID.edges, np.linspace(0.2, 0.4, GRID.n_cells), 0.35)
    assert Mechanism.from_grid(GRID, x0, X1=steps).X1_at(GRID.horizon + 5.0) == 0.35


class TestPromiseCopies:
    """`no_delay_improve` and `_pinned` change only the promise, so they carry
    the flow's ``X0_edges`` over; every other copy recomputes it."""

    @staticmethod
    def assert_same(a, b):
        for name in ("edges", "x0", "X0_edges"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.r, a.x0_tail, a.u1, a.X1) == (b.r, b.x0_tail, b.u1, b.X1)

    def test_promise_copies_are_replace_bit_for_bit(self, default_tech):
        m = _flow_path(default_tech, 3)
        X1 = partial(step_value, GRID.edges, np.linspace(0.3, 0.45, GRID.n_cells), 0.45)
        G = SINGLE_BATCH_GS["atoms"]
        for src in (m, replace(m, u1=0.1), replace(m, X1=X1)):
            for copy, u1 in ((no_delay_improve(src, default_tech), default_tech.u1), (mechanism._pinned(src), None)):
                ref = replace(src, u1=u1, X1=None)
                assert copy.X0_edges is src.X0_edges
                self.assert_same(copy, ref)
                assert payoff(copy, default_tech, G) == payoff(ref, default_tech, G)
        nan_u1 = Technology(f0=default_tech.f0, f1=default_tech.f1, u0=default_tech.u0, u1=math.nan, u_star=0.0)
        with pytest.raises(ValueError, match="u1 must be finite"):
            no_delay_improve(m, nan_u1)

    def test_flow_changes_recompute_the_promise(self, default_tech):
        m = no_delay_improve(Mechanism.from_grid(GRID, np.linspace(0.0, 0.8, GRID.n_cells), x0_tail=0.7), default_tech)
        fresh = lambda c: Mechanism(edges=c.edges, x0=c.x0, r=c.r, x0_tail=c.x0_tail, u1=c.u1)
        for copy in (
            normalize(m, default_tech),
            m.with_knots([0.123, 2.5]),
            replace(m, x0_tail=0.2),
            replace(m, r=2.0),
            replace(m, edges=2.0 * m.edges),
        ):
            assert copy.X0_edges.tobytes() != m.X0_edges.tobytes()
            self.assert_same(copy, fresh(copy))


@pytest.mark.parametrize("name", ["edges", "x0", "r", "x0_tail", "u1", "X1", "X0_edges"])
def test_mechanism_is_frozen(name):
    m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.1), u1=0.2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(m, name, getattr(m, name))


@pytest.mark.parametrize("cell, tail", [(math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan), (0.1, -math.inf)])
def test_mechanism_flow_must_be_finite(cell, tail):
    # payoff raised "F0 is -inf", naming the frontier, on these
    x0 = np.full(GRID.n_cells, 0.1)
    x0[7] = cell
    with pytest.raises(ValueError, match="x0 and x0_tail"):
        Mechanism.from_grid(GRID, x0, x0_tail=tail)
    with pytest.raises(ValueError, match="x0 and x0_tail"):
        replace(Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.1)), x0=x0, x0_tail=tail)


class TestDominance:
    def test_two_step_strict_under_atom(self):
        tech = affine_tech()
        m = two_step_mechanism(tech, GRID)
        G_atom = BreakthroughDistribution.point_mass(0.5)
        rep = dominance_check(m, tech, [G_atom, BreakthroughDistribution.exponential(1.0)])
        assert rep.overall_pass
        assert "strict" in rep["payoff-dominance-0"].note

    def test_twin_path_below_with_strict_stretch(self):
        tech = affine_tech()
        m = two_step_mechanism(tech, GRID)
        v = m.X0_edges[0]
        T = deadline_for_promise(float(v), tech, GRID)
        twin = make_deadline_mechanism(T, tech, GRID)
        ts = np.linspace(0.0, 5.0, 200)
        diff = m.X0_at(ts) - twin.X0_at(ts)
        assert np.min(diff) > -1e-9
        assert np.max(diff) > 1e-3  # the paths genuinely separate somewhere

    def test_deadline_mechanism_is_its_own_twin(self):
        tech = affine_tech()
        m = make_deadline_mechanism(1.0, tech, GRID)
        rep = dominance_check(
            m, tech, [BreakthroughDistribution.exponential(1.0)]
        )
        assert rep.overall_pass
        assert "weak" in rep["payoff-dominance-0"].note

    def test_mass_off_changed_set_gives_equality(self):
        tech = affine_tech()
        m = two_step_mechanism(tech, GRID)
        # both paths are zero promise by t = 5: atom there sees no difference
        G_far = BreakthroughDistribution.point_mass(5.5)
        rep = dominance_check(m, tech, [G_far])
        assert rep.overall_pass
        assert "weak" in rep["payoff-dominance-0"].note

    def test_requires_normalized(self):
        tech = affine_tech()
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.3))  # not no-delay
        with pytest.raises(PreconditionViolation):
            dominance_check(m, tech, [])
        m2 = normalize(m, tech)
        assert m2.u1 is not None

    def test_a_tail_flow_above_u0_is_not_normalized(self):
        tech = affine_tech()
        m = Mechanism.from_grid(GRID, np.full(GRID.n_cells, 0.3), x0_tail=0.8, u1=tech.u1)
        with pytest.raises(PreconditionViolation, match="normalized"):
            dominance_check(m, tech, [BreakthroughDistribution.exponential(1.0)])
        assert dominance_check(normalize(m, tech), tech, [BreakthroughDistribution.exponential(1.0)]).overall_pass

    def test_a_G_with_mass_at_zero_is_skipped_and_noted(self):
        tech = affine_tech()
        family = [BreakthroughDistribution.exponential(1.0), BreakthroughDistribution.point_mass(0.0)]
        rep = dominance_check(two_step_mechanism(tech, GRID), tech, family)
        check = rep["affine-rewrite-matches-payoff"]
        assert check.passed and check.note == "skipped G 1: mass at time 0"
        assert {c.check_id for c in rep.checks} >= {"payoff-dominance-0", "payoff-dominance-1"}

    def test_a_rewrite_off_by_1e_9_fails_the_line(self, monkeypatch):
        rewrite = mechanism.payoff_affine_rewrite
        monkeypatch.setattr(mechanism, "payoff_affine_rewrite", lambda *a: rewrite(*a) + 1e-9)
        tech = affine_tech()
        rep = dominance_check(two_step_mechanism(tech, GRID), tech, [BreakthroughDistribution.exponential(1.0)])
        check = rep["affine-rewrite-matches-payoff"]
        assert not check.passed and check.worst_violation == pytest.approx(1e-9, rel=1e-3)
        assert all(c.passed for c in rep.checks if c is not check)


class TestOnePayoffBody:
    def test_payoff_plans_are_built_only_by_the_payoff_pass_and_the_rewrite(self):
        src = Path(frontierkit.__file__).parent
        counts = {p.name: p.read_text().count("_PayoffPlan(") for p in sorted(src.rglob("*.py"))}
        assert {name: n for name, n in counts.items() if n} == {"mechanism.py": 2}
        assert "_PayoffPlan(" in inspect.getsource(mechanism._payoffs)
        assert "_PayoffPlan(" in inspect.getsource(mechanism.payoff_affine_rewrite)

    def test_one_deadline_inversion(self):
        assert Path(mechanism.__file__).read_text().count("log1p") == 1
        assert "log1p" in inspect.getsource(mechanism.deadline_for_promise)
