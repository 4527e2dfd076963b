"""The time axis: measures, cell lookup, Gauss-Legendre rules, bisection."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_reference
import frontierkit
from frontierkit import BreakthroughDistribution, MeasureOnTime, PiecewiseLinearFrontier
from frontierkit.mechanism import Mechanism
from frontierkit.quadrature import (
    _GL_WEIGHTS,
    NodePlan,
    _partial_cells,
    cell_index,
    gl_nodes,
    integration_edges,
    sorted_unique,
    step_value,
    subdivide,
)
from frontierkit.variational import stieltjes_ibp


def full_measure():
    """Atoms (one at 0), two density pieces and a tail starting after them."""
    return MeasureOnTime(
        atoms=((0.0, 0.2), (0.7, 0.3), (2.5, 0.1)),
        density_edges=np.array([0.0, 0.5, 1.5]),
        density_values=np.array([0.4, 0.8]),
        tail_rate=1.3,
        tail_mass=0.6,
        tail_start=2.0,
    )


def probe_times(nu):
    """Atoms, density edges, the tail start, times below 0 and far in the
    tail; dense enough in the tail that `np.exp` would differ from `math.exp`."""
    tail = np.linspace(2.0, 42.0, 2001)
    return np.array([*nu.knots, *np.linspace(-0.5, 8.0, 35), *tail, -3.0, 800.0])


def unit_distribution():
    """`full_measure`'s kinds of pieces with unit total mass."""
    return BreakthroughDistribution(
        atoms=((0.0, 0.1), (0.7, 0.15)),
        density_edges=np.array([0.0, 0.5, 1.5]),
        density_values=np.array([0.2, 0.4]),
        tail_rate=1.3,
        tail_mass=0.25,
        tail_start=2.0,
    )


def sf_reference(nu, t: float) -> float:
    """Per-point survival sum: one 1-D dot product, `math.exp` for the tail."""
    mass = sum(m for s, m in nu.atoms if s > t)
    if nu.density_edges is not None:
        e = nu.density_edges
        mass += float((np.clip(e[1:], t, None) - np.clip(e[:-1], t, None)) @ nu.density_values)
    if nu.tail_mass > 0:
        mass += nu.tail_mass * math.exp(-nu.tail_rate * max(0.0, t - nu.tail_start))
    return float(mass)


class TestMeasureOnTime:
    def test_array_sf_is_the_scalar_value_bit_for_bit(self):
        # many density pieces, where a 2-D matmul would differ from the 1-D dots
        fine = MeasureOnTime(
            density_edges=np.linspace(0.0, 3.0, 13),
            density_values=np.random.default_rng(5).uniform(0.1, 1.0, 12),
        )
        G = unit_distribution()
        for nu in (full_measure(), fine, G):
            ts = probe_times(nu)
            scalar = np.array([nu.sf(float(t)) for t in ts])
            ref = np.array([sf_reference(nu, float(t)) for t in ts])
            np.testing.assert_array_equal(scalar, ref)
            assert all(type(nu.sf(float(t))) is float for t in ts[:3])
            np.testing.assert_array_equal(nu.sf(ts), scalar)
            np.testing.assert_array_equal(nu.sf(ts[:, None]), scalar[:, None])
        # the distribution function is 1 - sf: nondecreasing, in [0, 1] on [0, inf)
        ts = np.sort(probe_times(G))
        dist = 1.0 - G.sf(ts[ts >= 0.0])
        assert np.all(np.diff(dist) >= 0.0) and 0.0 <= dist[0] and dist[-1] <= 1.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n_atoms=st.integers(0, 4),
        n_pieces=st.integers(1, 60),
        tail=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_array_sf_is_the_reference_on_random_measures(self, n_atoms, n_pieces, tail, seed):
        rng = np.random.default_rng(seed)
        edges = rng.uniform(0.0, 3.0) + np.cumsum(rng.uniform(0.01, 1.0, n_pieces + 1))
        times = [0.0, *rng.uniform(0.0, edges[-1] + 2.0, 3)][:n_atoms]
        nu = MeasureOnTime(
            atoms=tuple((float(t), float(m)) for t, m in zip(times, rng.uniform(0.0, 1.0, 4))),
            density_edges=edges,
            density_values=rng.uniform(0.0, 2.0, n_pieces),
            tail_rate=float(rng.uniform(0.05, 5.0)),
            tail_mass=float(rng.uniform(0.1, 2.0)) if tail else 0.0,
            tail_start=float(edges[-1] + rng.uniform(0.0, 2.0)),
        )
        ts = np.concatenate(
            [
                nu.knots,
                rng.uniform(-1.0, edges[-1] + 5.0, 300),
                nu.tail_start + rng.exponential(10.0 / nu.tail_rate, 100),
            ]
        )
        ref = np.array([sf_reference(nu, float(t)) for t in ts])
        assert np.array_equal(nu.sf(ts), ref)
        assert np.array_equal(nu.sf(ts[:400].reshape(20, 20)), ref[:400].reshape(20, 20))
        for t, want in zip(ts[:8].tolist(), ref[:8].tolist()):
            got = nu.sf(np.asarray(t))
            assert type(got) is float and got == want

    def test_sf_is_the_per_point_tail_comprehension_bit_for_bit(self):
        # the tail maps `math.exp` over the points; this is the body that
        # added a list of per-point products instead, compared as int64 views
        rng = np.random.default_rng(37)
        for nu in (full_measure(), unit_distribution()):
            ts = np.concatenate([probe_times(nu), rng.uniform(-1.0, 60.0, 3000), rng.exponential(5.0, 1000)])
            want = np.zeros(ts.shape)
            for s, m in nu.atoms:
                want += np.where(ts < s, m, 0.0)
            e, v = nu.density_edges, nu.density_values
            want += np.vecdot(np.clip(e[1:], ts[:, None], None) - np.clip(e[:-1], ts[:, None], None), v)
            args = -nu.tail_rate * np.fmax(0.0, ts - nu.tail_start)
            want += [nu.tail_mass * math.exp(a) for a in args.tolist()]
            assert nu.sf(ts).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_pdf_integrates_to_the_continuous_mass(self):
        nu = full_measure()
        edges = np.concatenate([np.linspace(0.0, 2.0, 9), np.linspace(2.0, 40.0, 60)[1:]])
        plan = NodePlan.build(nu, edges)
        assert plan.integrate(plan.pdf) == pytest.approx(0.4 * 0.5 + 0.8 + 0.6, abs=1e-12)

    def test_knots(self):
        nu = full_measure()
        assert nu.knots == (0.0, 0.5, 0.7, 1.5, 2.0, 2.5)

    def test_tail_before_density_end_is_rejected(self):
        with pytest.raises(ValueError, match="tail must start"):
            MeasureOnTime(
                density_edges=np.array([0.0, 1.0]),
                density_values=np.array([0.5]),
                tail_mass=0.5,
                tail_start=0.5,
            )

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_atom_time_is_rejected(self, t):
        with pytest.raises(ValueError, match="atoms need"):
            MeasureOnTime(atoms=((t, 0.5),))

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_atom_mass_is_rejected(self, mass):
        with pytest.raises(ValueError, match="atoms need"):
            MeasureOnTime(atoms=((1.0, mass),))

    @pytest.mark.parametrize("edge", [math.nan, math.inf])
    def test_non_finite_density_edge_is_rejected(self, edge):
        with pytest.raises(ValueError, match="malformed"):
            MeasureOnTime(density_edges=np.array([0.0, 1.0, edge]), density_values=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_density_value_is_rejected(self, value):
        with pytest.raises(ValueError, match="malformed"):
            MeasureOnTime(density_edges=np.array([0.0, 1.0, 2.0]), density_values=np.array([0.5, value]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["tail_mass", "tail_rate", "tail_start"])
    def test_non_finite_tail_is_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasureOnTime(**{"tail_rate": 1.0, "tail_mass": 0.5, "tail_start": 1.0, field: bad})

    def test_negative_tail_mass_is_rejected(self):
        # payoff returned 0.4269 under this distribution, whose masses sum to 1
        with pytest.raises(ValueError, match="tail mass must be nonnegative"):
            BreakthroughDistribution(atoms=((1.0, 1.5),), tail_mass=-0.5, tail_rate=1.0, tail_start=2.0)
        with pytest.raises(ValueError, match="tail mass must be nonnegative"):
            MeasureOnTime(tail_mass=-1e-300)

    @pytest.mark.parametrize("atom", [(1.0, math.nan), (math.nan, 1.0)])
    def test_non_finite_distribution_atom_is_rejected(self, atom):
        # payoff and pi_G returned NaN, or raised "F1 is -inf", on these
        with pytest.raises(ValueError):
            BreakthroughDistribution(atoms=(atom,))

    def test_distribution_is_a_unit_mass_measure(self):
        G = BreakthroughDistribution.exponential(2.0)
        assert isinstance(G, MeasureOnTime)
        assert 1.0 - G.sf(1.0) == pytest.approx(-math.expm1(-2.0), abs=1e-15)
        with pytest.raises(ValueError, match="total mass"):
            BreakthroughDistribution(atoms=((1.0, 0.5),))


class TestStieltjesWithTail:
    def test_distribution_with_tail(self):
        G = BreakthroughDistribution(
            atoms=((0.3, 0.25),),
            density_edges=np.array([0.0, 1.0]),
            density_values=np.array([0.35]),
            tail_rate=0.8,
            tail_mass=0.4,
            tail_start=1.2,
        )
        for T in (0.5, 1.2, 2.0, 4.5):
            lhs, rhs = stieltjes_ibp(G, 0.3, lambda t: 1.0 - 0.5 * t + 0.2 * t * t, T)
            assert abs(lhs - rhs) < 1e-9

    def test_pure_exponential_against_closed_form(self):
        # int_[0,T] sin dG for G = Exp(g): g (1 - e^{-gT}(g sin T + cos T)) / (1 + g^2)
        g, T = 1.5, 3.0
        lhs, rhs = stieltjes_ibp(BreakthroughDistribution.exponential(g), 0.0, np.cos, T)
        exact = g * (1.0 - math.exp(-g * T) * (g * math.sin(T) + math.cos(T))) / (1.0 + g * g)
        assert lhs == pytest.approx(exact, abs=1e-12)
        assert rhs == pytest.approx(exact, abs=1e-12)


class TestCellLookup:
    def test_cell_index_clips_to_first_and_last_cell(self):
        edges = np.array([0.0, 1.0, 2.0, 4.0])
        t = np.array([-1.0, 0.0, 0.5, 1.0, 3.9, 4.0, 9.0])
        assert cell_index(edges, t).tolist() == [0, 0, 0, 1, 2, 2, 2]
        # with side="left" an edge belongs to the cell below it
        assert cell_index(edges, t, side="left").tolist() == [0, 0, 0, 0, 2, 2, 2]

    def test_searchsorted_occurs_only_in_cell_index(self):
        # one cell lookup: every other module calls cell_index
        src = Path(frontierkit.__file__).parent
        counts = {p.name: p.read_text().count("searchsorted") for p in sorted(src.rglob("*.py"))}
        assert {name: n for name, n in counts.items() if n} == {"quadrature.py": 1}
        assert "np.searchsorted(" in inspect.getsource(cell_index)

    def test_no_plain_np_unique_is_left(self):
        # a plain np.unique imports numpy.ma on its first call: every module
        # calls sorted_unique, and F1's return_inverse call is the one left
        src = Path(frontierkit.__file__).parent
        calls = {p.name: p.read_text().count("np.unique(") for p in sorted(src.rglob("*.py"))}
        assert {name: n for name, n in calls.items() if n} == {"technology.py": 1}
        assert "np.unique(us, return_inverse=True)" in (src / "technology.py").read_text()

    def test_sorted_unique_is_np_unique_bit_for_bit(self):
        rng = np.random.default_rng(5)
        ties = rng.integers(0, 50, 400) / 7.0
        for x in (ties, np.sort(ties)[::-1], rng.uniform(0.0, 6.0, (3, 40)), [2.0], []):
            x = np.asarray(x, dtype=float)
            assert sorted_unique(x).tobytes() == np.unique(x).tobytes()

    def test_piecewise_linear_kinks_take_the_slope_on_their_side(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 2.0, 4.0], [0.0, 2.0, 3.0, 3.0])
        us = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        assert f.deriv(us, "left").tolist() == [2.0, 2.0, 1.0, 1.0, 0.0]
        assert f.deriv(us, "right").tolist() == [2.0, 1.0, 1.0, 0.0, 0.0]
        assert [f.left_deriv(1.0), f.right_deriv(1.0)] == [2.0, 1.0]

    def test_one_cell_subdivide_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(43)
        a = np.concatenate([[0.0, 0.0, 1.0, 2.0], rng.uniform(0.0, 60.0, 3000)])
        width = np.concatenate([[0.5, 2.0, 2.0, 0.25], rng.uniform(1e-3, 20.0, 3000)])
        # a piece of at most one width, the width itself included, or a point
        b = a + width * np.concatenate([[1.0, 0.0, 1.0, 1.0], rng.uniform(0.0, 1.0, 3000)])
        for lo, hi, w in zip(a.tolist(), b.tolist(), width.tolist()):
            one = subdivide(lo, hi, w)
            assert one.dtype == np.float64
            assert one.view(np.int64).tolist() == np.linspace(lo, hi, 2).view(np.int64).tolist()
        assert subdivide(0.0, 1.0, 0.4).tolist() == np.linspace(0.0, 1.0, 4).tolist()

    def test_step_value_switches_to_tail_at_last_edge(self):
        edges = np.array([0.0, 1.0, 2.0])
        cells = np.array([3.0, 5.0])
        out = step_value(edges, cells, -1.0, [0.0, 0.99, 1.0, 2.0, 7.0])
        assert out.tolist() == [3.0, 3.0, 5.0, -1.0, -1.0]


# the reference that NodePlan.running meets bit for bit at its nodes
def cumulative(fn, edges: np.ndarray):
    """Callable ``t -> int_0^t fn``, exact to GL accuracy per piece."""
    ts = gl_nodes(edges)
    vals = np.asarray(fn(ts.ravel()), dtype=float).reshape(ts.shape)
    cum_edges = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(edges) * (vals @ _GL_WEIGHTS))])

    def cum(t):
        k, h, nodes = _partial_cells(edges, np.atleast_1d(np.asarray(t, dtype=float)))
        part = h * (np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape) @ _GL_WEIGHTS)
        return cum_edges[k] + part

    return cum


def plan_case(seed: int, ulp_off: bool):
    """A random grid and a G with atoms on, near and between its edges, and
    with ``ulp_off`` a G knot one ulp past a grid edge (a one-ulp cell)."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, float(rng.uniform(0.5, 4.0)), int(rng.integers(2, 12)))
    atoms = [float(grid[int(rng.integers(0, len(grid)))]), float(rng.uniform(0.0, 1.5 * grid[-1]))]
    if ulp_off:
        atoms.append(float(np.nextafter(grid[int(rng.integers(1, len(grid)))], np.inf)))
    w = rng.dirichlet(np.ones(len(atoms) + 2))
    G = BreakthroughDistribution(
        atoms=tuple(zip(atoms, w[:-2].tolist())),
        density_edges=np.array([0.0, 0.9]),
        density_values=np.array([w[-2] / 0.9]),
        tail_rate=float(rng.uniform(0.5, 2.0)),
        tail_mass=float(1.0 - w[:-1].sum()),
        tail_start=0.9,
    )
    return grid, G, NodePlan.build(G, integration_edges(G, float(rng.uniform(0.5, 2.0)), grid))


class TestNodePlan:
    @pytest.mark.parametrize("seed", range(6))
    def test_running_is_cumulative_at_the_nodes(self, seed):
        # the GL nodes in one call, each atom alone, as an expectation meets them
        grid, G, plan = plan_case(seed, ulp_off=seed % 2 == 1)
        fn = lambda t: np.exp(-0.7 * t) * np.cos(3.0 * t)
        n = plan.pdf.size
        cum = cumulative(fn, plan.edges)
        want = np.concatenate([cum(plan.nodes[:n])] + [cum(np.array([s])) for s, _ in G.atoms])
        got = plan.running(fn(plan.nodes[:n]), fn(plan.partial[2].ravel()))
        assert got.tobytes() == want.tobytes()

    def test_running_matches_partial_integrals(self):
        # atoms place running integrals at these times, on and between edges
        t = (0.0, 0.2, 1.0, 2.75, 3.0)
        plan = NodePlan.build(MeasureOnTime(atoms=tuple((s, 0.2) for s in t)), np.linspace(0.0, 3.0, 7))
        got = plan.running(np.exp(plan.nodes[: plan.pdf.size]), np.exp(plan.partial[2].ravel()))
        assert np.allclose(got, np.expm1(plan.nodes), rtol=0, atol=1e-13)

    def test_one_running_integral_rule_and_one_distribution_function(self):
        # NodePlan.running and MeasureOnTime.sf: no module defines another
        src = Path(frontierkit.__file__).parent
        texts = {p.name: p.read_text() for p in sorted(src.rglob("*.py"))}
        pattern = re.compile(r"def (cumulative|mass_upto|cdf)\b")
        defined = {name: pattern.findall(text) for name, text in texts.items()}
        assert {name: found for name, found in defined.items() if found} == {}
        # a mechanism's promise is set by its constructor, a frontier's peak
        # by its own class
        promise = re.compile(r"\.X0_edges\s*=(?!=)|setattr\w*\([^,]+,\s*[\"']X0_edges[\"']")
        assert sum(len(promise.findall(text)) for text in texts.values()) == 1
        assert promise.search(inspect.getsource(Mechanism.__post_init__))
        peak = re.compile(r"\._peak\s*=(?!=)")
        assert sorted(name for name, text in texts.items() if peak.search(text)) == ["frontiers.py", "smoothing.py"]


class TestBisectPredicate:
    def test_brackets_the_switch_to_adjacent_floats(self):
        lo, hi = bisect_reference(lambda x: x * x < 2.0, 0.0, 2.0)
        assert lo * lo < 2.0 <= hi * hi
        assert np.nextafter(lo, 3.0) == hi

    def test_endpoints_are_never_evaluated(self):
        seen = []

        def pred(x):
            seen.append(x)
            return x < 0.3

        lo, hi = bisect_reference(pred, 0.0, 1.0)
        assert 0.0 not in seen and 1.0 not in seen
        assert lo < 0.3 <= hi
