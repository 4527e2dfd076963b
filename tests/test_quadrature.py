"""The time axis: measures, cell lookup, Gauss-Legendre rules, bisection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_reference
from frontierkit import BreakthroughDistribution, MeasureOnTime
from frontierkit.quadrature import cell_index, cumulative, integral, step_value
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
    def test_mass_upto_plus_sf_is_total_mass(self):
        nu = full_measure()
        total = nu.total_mass()
        assert total == pytest.approx(0.6 + 0.2 + 0.8 + 0.6, abs=1e-15)
        t = np.linspace(-0.5, 8.0, 35)
        np.testing.assert_allclose(nu.mass_upto(t) + nu.sf(t), total, rtol=0, atol=1e-14)

    def test_array_sf_and_cdf_are_the_scalar_values_bit_for_bit(self):
        # many density pieces, where a 2-D matmul would differ from the 1-D dots
        fine = MeasureOnTime(
            density_edges=np.linspace(0.0, 3.0, 13),
            density_values=np.random.default_rng(5).uniform(0.1, 1.0, 12),
        )
        G = unit_distribution()
        for nu, accessor in ((full_measure(), "sf"), (fine, "sf"), (G, "sf"), (G, "cdf")):
            fn = getattr(nu, accessor)
            ts = probe_times(nu)
            scalar = np.array([fn(float(t)) for t in ts])
            ref = np.array([sf_reference(nu, float(t)) for t in ts])
            if accessor == "cdf":
                ref = np.where(ts < 0, 0.0, 1.0 - ref)
            np.testing.assert_array_equal(scalar, ref)
            assert all(type(fn(float(t))) is float for t in ts[:3])
            np.testing.assert_array_equal(fn(ts), scalar)
            np.testing.assert_array_equal(fn(ts[:, None]), scalar[:, None])

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

    def test_mass_upto_includes_atoms_at_t(self):
        nu = full_measure()
        assert float(nu.mass_upto(0.0)) == pytest.approx(0.2, abs=1e-15)
        jump = float(nu.mass_upto(0.7)) - float(nu.mass_upto(np.nextafter(0.7, 0.0)))
        assert jump == pytest.approx(0.3, abs=1e-12)

    def test_pdf_integrates_to_the_continuous_mass(self):
        nu = full_measure()
        edges = np.concatenate([np.linspace(0.0, 2.0, 9), np.linspace(2.0, 40.0, 60)[1:]])
        assert integral(nu.pdf, edges) == pytest.approx(0.4 * 0.5 + 0.8 + 0.6, abs=1e-12)

    def test_knots_and_cutoff(self):
        nu = full_measure()
        assert nu.knots == (0.0, 0.5, 0.7, 1.5, 2.0, 2.5)
        assert nu.finite_cutoff() == 2.5

    def test_tail_before_density_end_is_rejected(self):
        with pytest.raises(ValueError, match="tail must start"):
            MeasureOnTime(
                density_edges=np.array([0.0, 1.0]),
                density_values=np.array([0.5]),
                tail_mass=0.5,
                tail_start=0.5,
            )

    def test_distribution_is_a_unit_mass_measure(self):
        G = BreakthroughDistribution.exponential(2.0)
        assert isinstance(G, MeasureOnTime)
        assert G.cdf(1.0) == pytest.approx(-math.expm1(-2.0), abs=1e-15)
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

    def test_step_value_switches_to_tail_at_last_edge(self):
        edges = np.array([0.0, 1.0, 2.0])
        cells = np.array([3.0, 5.0])
        out = step_value(edges, cells, -1.0, [0.0, 0.99, 1.0, 2.0, 7.0])
        assert out.tolist() == [3.0, 3.0, 5.0, -1.0, -1.0]

    def test_cumulative_matches_partial_integrals(self):
        edges = np.linspace(0.0, 3.0, 7)
        cum = cumulative(np.exp, edges)
        t = np.array([0.0, 0.2, 1.0, 2.75, 3.0])
        assert np.allclose(cum(t), np.expm1(t), rtol=0, atol=1e-13)


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
