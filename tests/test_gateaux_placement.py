"""The Gateaux closed form places each node set on the grid once, and keeps
every bit of the evaluation that placed each factor's times on its own.

`tests/gateaux_pins.json` holds the int64 views, as hex, of
`gateaux_closed_form` and `gateaux_fd` on the first 100 trials of the default
`verify gateaux`, on trial 260 at rate 0.6725137967407795 and on the placement
cases below, recorded with each factor looking up its own times. The three
Gateaux-layer checks take ``m`` and ``m_dag`` on one grid and rate, and refuse
any other pair by name.
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
    """``name -> (m, m_dag, G)``: random grids, a law with atoms, and tiny
    cells where inner nodes round below an edge that is a power of two."""
    rng = np.random.default_rng(20261021)
    grid = TimeGrid(horizon=2.0, step=0.25, r=1.0).edges
    out = {}
    for k in range(3):
        edges, r = random_edges(rng), float(rng.uniform(0.4, 2.5))
        out[f"random-grid-{k}"] = flow(rng, edges, r), flow(rng, edges, r), cli._mixed_G(float(rng.uniform(0.6, 1.5)))
    for _ in range(3):
        # the draws of three pairs on two grids, which the checks refuse, so
        # that the later cases keep theirs
        r = float(rng.uniform(0.4, 2.5))
        flow(rng, grid, r), flow(rng, random_edges(rng, 2.0), r), float(rng.uniform(0.6, 1.5))
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
    for at in made:
        assert at.cell.tolist() == cell_index(at.edges, at.t).tolist()
        assert at.beyond.tolist() == (at.t >= at.edges[-1]).tolist()
    # the mids, the nodes and the inner nodes on the one grid, once each
    assert all(at.edges is m.edges for at in made)
    assert [at.t.tobytes() for at in made] == [
        (0.5 * (m.edges[:-1] + m.edges[1:])).tobytes(),
        plan.nodes.tobytes(),
        plan.partial[2].ravel().tobytes(),
    ]

    # the callables' own lookups give the same bits
    again = SupergradientProfile(edges=prof.edges, phi0=prof.phi0, phi1=prof.phi1)
    assert bits(gateaux_closed_form(m, m_dag, again, tech, G)) == bits(closed)
    assert [bits(closed), bits(gateaux_fd(m, m_dag, tech, G))] == PINS["placement_cases"][name]


def off_grid_pairs():
    """``name -> (m, m_dag, what the refusal names)``: pairs off one grid and rate."""
    rng = np.random.default_rng(20261022)
    fine = TimeGrid(horizon=2.0, step=0.25, r=1.0).edges
    near = fine.copy()
    near[1:-1] = np.nextafter(near[1:-1], np.inf)
    coarse, longer = TimeGrid(horizon=2.0, step=0.5, r=1.0).edges, TimeGrid(horizon=2.5, step=0.25, r=1.0).edges
    return {
        "two-grids": (
            flow(rng, fine, 1.0), flow(rng, coarse, 1.0), "8 and 4 cells, horizons 2.0 and 2.0, and rates 1.0 and 1.0"
        ),
        "grids-one-ulp-apart": (
            flow(rng, fine, 1.0), flow(rng, near, 1.0), "8 and 8 cells, horizons 2.0 and 2.0, and rates 1.0 and 1.0"
        ),
        "two-horizons": (
            flow(rng, fine, 1.3), flow(rng, longer, 1.3), "8 and 10 cells, horizons 2.0 and 2.5, and rates 1.3 and 1.3"
        ),
        "two-rates": (
            flow(rng, fine, 1.0), flow(rng, fine, 2.0), "8 and 8 cells, horizons 2.0 and 2.0, and rates 1.0 and 2.0"
        ),
    }


OFF_GRID = off_grid_pairs()

GATEAUX_CHECKS = {
    "closed": lambda m, m_dag, tech, G: gateaux_closed_form(m, m_dag, SupergradientProfile.exact(m, tech), tech, G),
    "fd": gateaux_fd,
    "probe": lambda m, m_dag, tech, G: strict_concavity_probe(m, m_dag, 0.5, tech, G),
}


@pytest.mark.parametrize("check", list(GATEAUX_CHECKS))
@pytest.mark.parametrize("name", list(OFF_GRID))
def test_a_pair_off_one_grid_and_rate_is_refused_by_name(name, check, placements):
    # the blend m + alpha (m_dag - m) is taken cell by cell at one discount
    # rate, so every check refuses such a pair before it builds a node plan
    _, plans = placements
    m, m_dag, text = OFF_GRID[name]
    with pytest.raises(PreconditionViolation, match=re.escape(f"m and m_dag need one grid and rate, but have {text}")):
        GATEAUX_CHECKS[check](m, m_dag, cli._quad_tech(), cli._mixed_G(0.9))
    assert plans == []


@pytest.mark.parametrize("name", ["tiny-atom-2", "tiny-atom-3"])
def test_inner_nodes_below_their_cell_need_their_own_lookup(name):
    # an inner node of a cell 1 ulp wide at 1.0 rounds below 1.0, into the
    # grid cell before its node's: the cell of its node's integration cell is
    # not its own, so the inner nodes get their own `cell_index`
    m, _, G = CASES[name]
    plan = NodePlan.build(G, integration_edges(G, m.r, m.edges))
    cell, _, inner = plan.partial
    gathered = cell_index(m.edges, plan.edges[:-1])[np.repeat(cell, inner.shape[1])]
    assert np.any(gathered != cell_index(m.edges, inner.ravel()))
    # a node's own integration cell does hold it: the nodes could be gathered
    assert np.array_equal(cell_index(m.edges, plan.edges[:-1])[cell], cell_index(m.edges, plan.nodes))


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
