"""The Gateaux closed form places each node set on the grid once, and keeps
every bit of the evaluation that placed each factor's times on its own.

`tests/gateaux_pins.json` holds the int64 views, as hex, of
`gateaux_closed_form` and `gateaux_fd` on the first 100 trials of the default
`verify gateaux`, on trial 260 at rate 0.6725137967407795 and on the placement
cases below, recorded with each factor looking up its own times.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from frontierkit import cli, variational
from frontierkit.mechanism import BreakthroughDistribution, Mechanism, TimeGrid
from frontierkit.quadrature import NodePlan, cell_index, integration_edges
from frontierkit.errors import PreconditionViolation
from frontierkit.variational import (
    SupergradientProfile,
    _align,
    gateaux_closed_form,
    gateaux_fd,
    strict_concavity_probe,
)

PINS = json.loads((Path(__file__).parent / "gateaux_pins.json").read_text())

ULP1 = 2.0**-52  # the spacing of the floats just above 1.0


def bits(x: float) -> str:
    return format(int(np.float64(x).view(np.int64)) & (2**64 - 1), "016x")


def flow(rng, edges, r):
    x0 = rng.uniform(0.025, 0.45, len(edges) - 1)
    return Mechanism(edges=edges, x0=x0, r=r, x0_tail=float(rng.uniform(0.025, 0.45)))


def random_edges(rng, horizon=None):
    end = float(rng.uniform(2.6, 3.0)) if horizon is None else horizon
    inside = np.sort(rng.uniform(0.05, 2.5, int(rng.integers(2, 9)))) * end / 2.6
    return np.concatenate([[0.0], inside, [end]])


def placement_cases():
    """``name -> (m, m_dag, G)``: random grids, `_align`ed pairs of different
    grids, a law with atoms, tiny cells where inner nodes round below an edge
    that is a power of two, and two grids of different horizons, which
    `_align` leaves apart."""
    rng = np.random.default_rng(20261021)
    grid = TimeGrid(horizon=2.0, step=0.25, r=1.0).edges
    out = {}
    for k in range(3):
        edges, r = random_edges(rng), float(rng.uniform(0.4, 2.5))
        out[f"random-grid-{k}"] = flow(rng, edges, r), flow(rng, edges, r), cli._mixed_G(float(rng.uniform(0.6, 1.5)))
    for k in range(3):
        r = float(rng.uniform(0.4, 2.5))
        m, m_dag = flow(rng, grid, r), flow(rng, random_edges(rng, 2.0), r)
        out[f"two-grids-{k}"] = m, m_dag, cli._mixed_G(float(rng.uniform(0.6, 1.5)))
    atoms = BreakthroughDistribution(
        atoms=((0.0, 0.2), (0.6, 0.15), (1.0, 0.1)),
        density_edges=np.array([0.0, 1.7]),
        density_values=np.array([0.2]),
        tail_rate=1.1,
        tail_mass=0.21,
        tail_start=1.7,
    )
    out["atoms"] = flow(rng, grid, 1.0), flow(rng, grid, 1.0), atoms
    for k in (2, 3):
        tiny = BreakthroughDistribution(atoms=((1.0 + k * ULP1, 0.25),), tail_rate=0.9, tail_mass=0.75)
        out[f"tiny-atom-{k}"] = flow(rng, grid, 1.0), flow(rng, grid, 1.0), tiny
    near = grid.copy()
    near[4] = 1.0 + 2 * ULP1  # the aligned grid has a cell 2 ulp wide at 1.0
    out["tiny-two-grids"] = flow(rng, grid, 0.8), flow(rng, near, 0.8), cli._mixed_G(1.2)
    out["two-horizons"] = flow(rng, grid, 1.3), flow(rng, random_edges(rng), 1.3), cli._mixed_G(0.9)
    return out


CASES = placement_cases()


@pytest.fixture
def placements(monkeypatch):
    """Every `_GridTimes` the variational layer builds, and every `NodePlan`."""
    made, plans = [], []

    class Recording(variational._GridTimes):
        def __init__(self, edges, r, t):
            super().__init__(edges, r, t)
            made.append(self)

    build = NodePlan.build.__func__
    monkeypatch.setattr(variational, "_GridTimes", Recording)
    monkeypatch.setattr(NodePlan, "build", classmethod(lambda cls, G, edges: plans.append(build(cls, G, edges)) or plans[-1]))
    return made, plans


@pytest.mark.parametrize("name", list(CASES))
def test_each_node_set_is_placed_on_the_grid_once(name, placements):
    made, plans = placements
    m, m_dag, G = CASES[name]
    tech = cli._quad_tech()
    prof = SupergradientProfile.exact(m, tech)
    closed = gateaux_closed_form(m, m_dag, prof, tech, G)

    (plan,) = plans
    a, a_dag = _align(m, m_dag)
    for at in made:
        assert at.cell.tolist() == cell_index(at.edges, at.t).tolist()
        assert at.beyond.tolist() == (at.t >= at.edges[-1]).tolist()
    # the mids, the nodes and the inner nodes on m's grid, once each; m_dag's
    # grid only where `_align` cannot make the two one
    inner = plan.partial[2].ravel()
    on_m = [at.t for at in made if np.array_equal(at.edges, a.edges)]
    assert len(on_m) == 3
    assert [t.tobytes() for t in on_m] == [
        (0.5 * (a.edges[:-1] + a.edges[1:])).tobytes(),
        plan.nodes.tobytes(),
        inner.tobytes(),
    ]
    apart = [at for at in made if not np.array_equal(at.edges, a.edges)]
    if name == "two-horizons":
        assert len(apart) == 1 and np.array_equal(apart[0].edges, a_dag.edges) and apart[0].t is plan.nodes
    else:
        assert np.array_equal(a.edges, a_dag.edges) and apart == []

    # the callables' own lookups give the same bits
    again = SupergradientProfile(edges=prof.edges, phi0=prof.phi0, phi1=prof.phi1)
    assert bits(gateaux_closed_form(m, m_dag, again, tech, G)) == bits(closed)
    closed_pin, fd_pin = PINS["placement_cases"][name]
    assert bits(closed) == closed_pin
    if fd_pin is not None:
        assert bits(gateaux_fd(m, m_dag, tech, G)) == fd_pin


def test_blends_across_two_horizons_are_refused_by_name():
    # `_align` cannot make grids of two horizons one, so the FD blends and the
    # concavity probe refuse the pair before any payoff; the closed form keeps
    # its two placements (above)
    m, m_dag, G = CASES["two-horizons"]
    tech = cli._quad_tech()
    horizons = re.escape(f"horizons {float(m.edges[-1])!r} and {float(m_dag.edges[-1])!r}")
    with pytest.raises(PreconditionViolation, match=horizons):
        gateaux_fd(m, m_dag, tech, G)
    with pytest.raises(PreconditionViolation, match=horizons):
        strict_concavity_probe(m, m_dag, 0.5, tech, G)


@pytest.mark.parametrize("name", ["tiny-atom-2", "tiny-atom-3", "tiny-two-grids"])
def test_inner_nodes_below_their_cell_need_their_own_lookup(name):
    # an inner node of a cell 1 ulp wide at 1.0 rounds below 1.0, into the
    # grid cell before its node's: the cell of its node's integration cell is
    # not its own, so the inner nodes get their own `cell_index`
    m, m_dag, G = CASES[name]
    a, a_dag = _align(m, m_dag)
    plan = NodePlan.build(G, integration_edges(G, a.r, [*a.edges, *a_dag.edges]))
    cell, _, inner = plan.partial
    gathered = cell_index(a.edges, plan.edges[:-1])[np.repeat(cell, inner.shape[1])]
    assert np.any(gathered != cell_index(a.edges, inner.ravel()))
    # a node's own integration cell does hold it: the nodes could be gathered
    assert np.array_equal(cell_index(a.edges, plan.edges[:-1])[cell], cell_index(a.edges, plan.nodes))


def gateaux_trials(rate, count):
    """The first ``count`` trials of `verify gateaux` at seed 42, drawn as the suite draws them."""
    rng = np.random.default_rng(42)
    tech = cli._quad_tech()
    grid = TimeGrid(horizon=2.0, step=0.25, r=rate)
    cli._random_mechanism(rng, grid, tech.u0)  # the zero-direction check's
    for _ in range(count):
        m, m_dag = cli._random_mechanism(rng, grid, tech.u0), cli._random_mechanism(rng, grid, tech.u0)
        yield tech, m, m_dag, cli._mixed_G(float(rng.uniform(0.6, 1.5)))


def trial_bits(tech, m, m_dag, G):
    closed = gateaux_closed_form(m, m_dag, SupergradientProfile.exact(m, tech), tech, G)
    return [bits(closed), bits(gateaux_fd(m, m_dag, tech, G))]


def test_default_gateaux_trials_keep_their_bits():
    assert [trial_bits(*trial) for trial in gateaux_trials(1.0, 100)] == PINS["default_trials"]


def test_gateaux_trial_260_at_rate_0_67_keeps_its_bits():
    *_, trial = gateaux_trials(0.6725137967407795, 261)
    assert trial_bits(*trial) == PINS["rate_0_67_trial_260"]
