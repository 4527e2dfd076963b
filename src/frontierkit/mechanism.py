"""Mechanisms on a time grid and their discounted payoffs.

A mechanism is a flow-utility path ``x0`` (piecewise constant on grid cells,
constant beyond the horizon) together with a post-breakthrough promise path
``X1``. The continuation promise ``X0_t = r * int_t^inf e^{-r(s-t)} x0_s ds``
is computed cell-exactly by a backward recursion, so no quadrature error
enters the payoff core. Breakthrough times follow a `MeasureOnTime` of unit
mass; the quadrature rules are those of `frontierkit.quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonFiniteValue, PreconditionViolation
from .frontiers import INF
from .quadrature import MeasureOnTime, NodePlan, cell_index, sorted_unique
from .report import VerificationReport
from .technology import Technology

#: `Mechanism` checks an explicit ``X1`` at these multiples of the horizon
_TAIL_PROBES = np.array([1.0, 1.5, 2.0, 10.0, 1e3])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with discount rate ``r``."""

    horizon: float
    step: float
    r: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.horizon, self.step, self.r)):
            raise ValueError("horizon, step and r must be positive and finite")
        count = self.horizon / self.step
        if not 0.5 <= count < math.inf or abs(count - round(count)) > 1e-9:
            raise ValueError("horizon must be a whole number of steps, at least one")

    @property
    def n_cells(self) -> int:
        return int(round(self.horizon / self.step))

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_cells + 1)


# ---------------------------------------------------------------------------
# breakthrough distributions


@dataclass(frozen=True)
class BreakthroughDistribution(MeasureOnTime):
    """Probability measure of the breakthrough time: a `MeasureOnTime` of
    unit mass."""

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.total_mass() - 1.0) <= 1e-12:
            raise ValueError(f"total mass {self.total_mass()!r} is not 1")

    @staticmethod
    def exponential(rate: float) -> "BreakthroughDistribution":
        """Exponential(rate) on [0, inf), represented exactly as a pure tail."""
        return BreakthroughDistribution(tail_rate=rate, tail_mass=1.0, tail_start=0.0)

    @staticmethod
    def point_mass(t: float) -> "BreakthroughDistribution":
        return BreakthroughDistribution(atoms=((float(t), 1.0),))


# ---------------------------------------------------------------------------
# mechanisms


def _check_u1(u1: float | None) -> None:
    if u1 is not None and not math.isfinite(u1):
        raise ValueError(f"u1 must be finite, got {u1!r}")


def _promise_edges(edges: np.ndarray, x0: np.ndarray, r: float, x0_tail: float) -> np.ndarray:
    """Continuation promises at cell edges by exact backward discounting of
    one flow path. The steps run on Python floats, which round as numpy's
    float64 does and cost less per step than numpy scalars."""
    X = [float(x0_tail)]  # constant flow forever delivers itself
    for d, x in zip(np.exp(-r * np.diff(edges)).tolist()[::-1], x0.tolist()[::-1]):
        X.append((1.0 - d) * x + d * X[-1])
    return np.array(X[::-1])


class _GridTimes:
    """Times on a mechanism grid (``edges`` at rate ``r``): each time's cell,
    whether it lies at or past the horizon and, on first use, the discount
    ``e^{-r(edges[k+1] - t)}`` from it to the end of its cell. Every path on
    the grid reads this one placement of the times."""

    def __init__(self, edges: np.ndarray, r: float, t: np.ndarray):
        self.edges, self.r, self.t = edges, r, t
        self.cell, self.beyond = cell_index(edges, t), t >= edges[-1]

    def step(self, cells: np.ndarray, tail):
        """The piecewise-constant path ``cells`` per cell, ``tail`` from the
        horizon on, at the times: `step_value` on this placement."""
        return np.where(self.beyond, tail, cells[self.cell])

    def X0(self, x0: np.ndarray, X0_edges: np.ndarray, x0_tail):
        """X0 at the times from the flow ``x0`` per cell, the promises at the
        edges and the flow's tail, for one path or one per row (a tail each,
        as a column). Elementwise, so a row has the bits of its path alone."""
        # ``a.T[k].T`` gathers along the last axis, ``a[k]`` for one path and
        # ``a[:, k]`` for rows, on numpy's fast gather (``a[..., k]`` is not)
        x, X_end = x0.T[self.cell].T, X0_edges.T[self.cell + 1].T
        return np.where(self.beyond, x0_tail, x + (X_end - x) * self.to_edge)

    @cached_property
    def to_edge(self) -> np.ndarray:
        return np.exp(-self.r * (self.edges[self.cell + 1] - self.t))


@dataclass(frozen=True)
class Mechanism:
    """Flow path per cell plus a post-breakthrough promise convention, frozen.

    ``u1`` set means the no-delay form ``X1_t = max(X0_t, u1)``; otherwise
    ``X1``, a function of an array of times, constant from the horizon on, is
    an explicit promise, and if it is absent ``X1 = X0`` (the minimal promise
    allowed by the pointwise incentive surrogate ``X1 >= X0``). The promise
    ``X0_edges`` at the edges depends on the flow alone; construction sets it.
    """

    edges: np.ndarray
    x0: np.ndarray
    r: float
    x0_tail: float = 0.0
    u1: float | None = None
    X1: Callable[[np.ndarray], np.ndarray] | None = None
    X0_edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if len(self.x0) != len(self.edges) - 1:
            raise ValueError("need one flow value per grid cell")
        if not (np.isfinite(self.x0).all() and math.isfinite(self.x0_tail)):
            raise ValueError("flow path x0 and x0_tail must be finite")
        _check_u1(self.u1)
        if not 0.0 < self.r < math.inf:
            raise ValueError("r must be positive and finite")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if self.X1 is not None:
            # the payoff integrates the tail in closed form from one value of X1
            tail = np.asarray(self.X1(self.horizon * _TAIL_PROBES), dtype=float)
            if not np.all(tail == tail[0]):
                raise ValueError(f"X1 must be constant from the horizon on, got {tail.tolist()}")
        object.__setattr__(self, "X0_edges", _promise_edges(self.edges, self.x0, self.r, self.x0_tail))

    @classmethod
    def from_grid(cls, grid: TimeGrid, x0, **kw) -> "Mechanism":
        return cls(edges=grid.edges, x0=np.asarray(x0, dtype=float), r=grid.r, **kw)

    @property
    def horizon(self) -> float:
        return float(self.edges[-1])

    def X0_at(self, t):
        """Continuation promise at arbitrary times (continuous in t)."""
        out = self._X0_on(_GridTimes(self.edges, self.r, np.asarray(t, dtype=float)))
        return out if out.ndim else float(out)

    def _X0_on(self, at: _GridTimes):
        return at.X0(self.x0, self.X0_edges, self.x0_tail)

    def X1_at(self, t):
        """Post-breakthrough promise at arbitrary times."""
        out = self._X1_on(_GridTimes(self.edges, self.r, np.asarray(t, dtype=float)))
        return out if np.ndim(out) else float(out)

    def _X1_on(self, at: _GridTimes, X0=None):
        """X1 at ``at``; ``X0``, if given, is X0 there."""
        if self.u1 is None and self.X1 is not None:
            return self.X1(at.t)
        X0 = self._X0_on(at) if X0 is None else X0
        return X0 if self.u1 is None else np.maximum(X0, self.u1)

    def _with_promise(self, u1: float | None) -> "Mechanism":
        """This flow with the promise ``max(X0, u1)``, or ``X0`` for ``u1``
        None. The flow, and so its checks and ``X0_edges``, carry over, which
        `replace` would redo."""
        _check_u1(u1)
        out = object.__new__(Mechanism)
        out.__dict__.update(vars(self), u1=u1, X1=None)
        return out

    def _with_flow(self, x0: np.ndarray, x0_tail: float) -> "Mechanism":
        """This grid, rate and promise form with the flow ``x0``, ``x0_tail``
        (``x0`` one float per cell). Only the flow is checked, and its
        ``X0_edges`` computed: `replace` would check the grid and promise
        again."""
        if not (np.isfinite(x0).all() and math.isfinite(x0_tail)):
            raise ValueError("flow path x0 and x0_tail must be finite")
        out = object.__new__(Mechanism)
        X0_edges = _promise_edges(self.edges, x0, self.r, x0_tail)
        out.__dict__.update(vars(self), x0=x0, x0_tail=x0_tail, X0_edges=X0_edges)
        return out

    def _same_grid(self, other: "Mechanism") -> bool:
        """Whether ``other`` has this rate and these edges."""
        return self.r == other.r and (self.edges is other.edges or np.array_equal(self.edges, other.edges))


def make_deadline_mechanism(T: float, tech: Technology, grid: TimeGrid | Mechanism) -> Mechanism:
    """Flow ``u0`` until the deadline, zero after; no-delay promise form. Reads
    only ``grid.edges`` and ``grid.r``, so a `Mechanism` serves as its grid."""
    if T < 0:
        raise ValueError("deadline must be nonnegative")
    edges, r = grid.edges, grid.r
    if math.isinf(T):
        x0 = np.full(len(edges) - 1, tech.u0)
        return Mechanism(edges=edges, x0=x0, r=r, x0_tail=tech.u0, u1=tech.u1)
    if T > 0.0:
        edges = sorted_unique(np.append(edges, T))
    x0 = np.where(edges[:-1] < T - 1e-15, tech.u0, 0.0)
    return Mechanism(edges=edges, x0=x0, r=r, x0_tail=0.0, u1=tech.u1)


def deadline_for_promise(v: float, tech: Technology, grid: TimeGrid | Mechanism) -> float:
    """The deadline whose mechanism delivers initial promise ``v``.

    Inverts ``v = u0 * (1 - e^{-rT})``; ``v = u0`` maps to an infinite
    deadline (represented as the explicit extended value).
    """
    if not 0.0 <= v <= tech.u0 + 1e-12:
        raise ValueError(f"promise {v:g} outside [0, u0={tech.u0:g}]")
    frac = min(v / tech.u0, 1.0)
    if frac >= 1.0 - 1e-15:
        return INF
    return -math.log1p(-frac) / grid.r


def _pinned(m: Mechanism) -> Mechanism:
    """``m`` with its promise pinned to its own continuation, ``X1 = X0``."""
    if m.u1 is None and m.X1 is None:
        return m
    return m._with_promise(None)


def no_delay_improve(m: Mechanism, tech: Technology) -> Mechanism:
    """Replace the post-breakthrough promise with ``max(X0, u1)``."""
    return m._with_promise(tech.u1)


def normalize(m: Mechanism, tech: Technology) -> Mechanism:
    """Clip the flow to [0, u0] and apply the no-delay form (explicit op)."""
    m = replace(
        m,
        x0=np.clip(m.x0, 0.0, tech.u0),
        x0_tail=float(np.clip(m.x0_tail, 0.0, tech.u0)),
    )
    return no_delay_improve(m, tech)


# ---------------------------------------------------------------------------
# payoff evaluation


def _crossing_knots(m: Mechanism, level: float) -> np.ndarray:
    """Times where X0 crosses ``level`` inside a cell (one per monotone cell).

    A cell's time is ``edges[k+1] + log(ratio) / r``, with ``math.log`` mapped
    over the crossing cells: `np.log` differs from it on some points."""
    if level is None:
        return np.empty(0)
    Xe, x0, edges = m.X0_edges, m.x0, m.edges
    b = Xe[1:]
    (k,) = np.nonzero(((Xe[:-1] - level) * (b - level) < 0) & (b != x0))
    ratio = (level - x0[k]) / (b[k] - x0[k])
    k, ratio = k[ratio > 0], ratio[ratio > 0]
    t = edges[k + 1] + np.fromiter(map(math.log, ratio.tolist()), float, ratio.size) / m.r
    return t[(edges[k] < t) & (t < edges[k + 1])]


class _PayoffPlan:
    """What the payoff quadrature of ``m`` needs of its grid and ``G``.

    ``quad`` holds the nodes of ``E_G`` on ``[0, T_max]``, split at the
    knots: m's edges, where X0 crosses ``u1`` and G's knots, the last of
    which is ``T_max``.
    ``at`` places the F1 evaluation times on the grid: the nodes and, for
    G's tail, ``T_max + 1``. ``disc`` is ``e^{-rt}`` at the nodes and
    ``tail_disc`` is ``e^{-r T_max}``. Each comes from the expression, and
    the array, that a payoff evaluated on its own would use, so a payoff on
    a shared plan keeps its bits.
    """

    def __init__(self, m: Mechanism, G: BreakthroughDistribution):
        knots = np.concatenate([[0.0], m.edges, _crossing_knots(m, m.u1), G.knots])
        self.T_max = T_max = float(knots[1:].max())
        edges = sorted_unique(knots)
        self.quad = NodePlan.build(G, edges[edges >= 0.0])
        times = np.concatenate([self.quad.nodes, [T_max + 1.0] if G.tail_mass > 0 else []])
        self.at = _GridTimes(m.edges, m.r, times)
        self.disc = np.exp(-m.r * self.quad.nodes)
        self.tail_disc = float(np.exp(-m.r * np.array([T_max]))[0])

    def expect(self, rows: np.ndarray, tail) -> list[float]:
        """``E_G[h(tau)]`` for each row of h at the nodes, h smooth between the
        plan's knots. If G has a tail, ``tail()`` gives arrays ``a, b`` (one
        entry per row) with ``h(t) = a + b e^{-rt}`` from ``T_max`` on, which
        is integrated in closed form; the last time of ``at`` lies there."""
        totals = [self.quad.expect_values(h) for h in rows]
        G = self.quad.G
        if G.tail_mass > 0:
            T, r, g = self.T_max, self.at.r, G.tail_rate
            rem = G.sf(T)
            a, b = tail()
            beyond = rem * (a + b * math.exp(-r * T) * g / (g + r))
            totals = [x + y for x, y in zip(totals, beyond.tolist())]
        return totals


def payoff(m: Mechanism, tech: Technology, G: BreakthroughDistribution) -> float:
    """Expected discounted principal payoff.

    ``E_G[ r int_0^tau e^{-rt} F0(x0_t) dt + e^{-r tau} F1(X1_tau) ]`` with
    atoms and the exponential tail integrated in closed form and the density
    pieces by per-cell Gauss-Legendre (the integrand is smooth between the
    merged knots). ``tech.f1.value`` is called once (see `_payoffs`).
    """
    return _payoffs([m], tech, G)[0]


def _payoffs(mechs, tech: Technology, G: BreakthroughDistribution) -> list[float]:
    """`payoff` of each path in ``mechs``, as the rows of one array pass on
    the one `_PayoffPlan` of ``mechs[0]``: one F0 call and one
    ``tech.f1.value`` call, so one effort solve. Every step is elementwise
    or runs along a row, so each row has the bits of its path alone. The
    plan splits at the first path's edges and at its crossings of ``u1``, so
    several paths must share one grid and rate and have no ``u1``."""
    plan = _PayoffPlan(mechs[0], G)
    if len(mechs) > 1 and any(m.u1 is not None or not mechs[0]._same_grid(m) for m in mechs):
        raise ValueError("the paths of one payoff pass need one grid and rate, and no u1")
    at, n, r = plan.at, plan.quad.nodes.size, plan.at.r
    x0 = np.array([m.x0 for m in mechs])
    x0_tails = np.array([[m.x0_tail] for m in mechs])
    F0 = np.asarray(tech.f0.value(np.hstack([x0, x0_tails])), dtype=float)
    if not np.all(np.isfinite(F0)):
        raise NonFiniteValue("F0 is -inf somewhere on the flow path's range")
    F0x, F0tail = F0[:, :-1], F0[:, -1:]

    exp_edges = np.exp(-r * at.edges)
    A = np.hstack([np.zeros((len(mechs), 1)), np.cumsum(F0x * (exp_edges[:-1] - exp_edges[1:]), axis=1)])

    X0 = at.X0(x0, np.array([m.X0_edges for m in mechs]), x0_tails)
    F1 = tech.f1.value(np.array([m._X1_on(at, X0=row) for m, row in zip(mechs, X0)]))

    disc, k = plan.disc, at.cell[:n]
    inner = A[:, k] + F0x[:, k] * (exp_edges[k] - disc)
    beyond = A[:, -1:] + F0tail * (exp_edges[-1] - disc)
    vals = np.where(at.beyond[:n], beyond, inner) + disc * F1[:, :n]
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("F1 is -inf somewhere on the promise path's range")

    def tail():
        # beyond T = T_max, which is past the horizon: A(t) = A(T) + F0tail
        # (e^{-rT} - e^{-rt}) and X1 constant, so h(t) = [A(T) + F0tail
        # e^{-rT}] + [F1(X1c) - F0tail] e^{-rt}
        f0c = F0tail[:, 0]
        A_T = A[:, -1] + f0c * (exp_edges[-1] - plan.tail_disc)
        return A_T + f0c * math.exp(-r * plan.T_max), F1[:, -1] - f0c

    return plan.expect(vals, tail)


def _require_affine_f0(tech: Technology) -> None:
    """Raise unless F0 is affine on [0, u0]."""
    us = np.linspace(0.0, tech.u0, 9)
    vals = np.asarray(tech.f0.value(us), dtype=float)
    slope = (vals[-1] - vals[0]) / (us[-1] - us[0])
    fit = vals[0] + slope * (us - us[0])
    if np.max(np.abs(vals - fit)) > 1e-9:
        raise PreconditionViolation("F0 is not affine on [0, u0]")


def _mass_at_zero(G: BreakthroughDistribution) -> bool:
    return any(t == 0.0 and mass > 0.0 for t, mass in G.atoms)


def payoff_affine_rewrite(
    m: Mechanism, tech: Technology, G: BreakthroughDistribution
) -> float:
    """Payoff via ``E_G[F0(X0_0) + e^{-r tau} phi(X0_tau)]``.

    Valid when F0 is affine on [0, u0], the mechanism is in no-delay form and
    G has no mass at 0; here ``phi(u) = F1(max(u, u1)) - F0(u)``.
    """
    _require_affine_f0(tech)
    if m.u1 is None:
        raise PreconditionViolation("mechanism must be in no-delay form")
    if _mass_at_zero(G):
        raise PreconditionViolation("G must have no mass at time 0")
    r = m.r
    plan = _PayoffPlan(m, G)
    t = plan.quad.nodes
    X0 = m._X0_on(plan.at)
    F1 = tech.f1.value(np.maximum(X0, m.u1))
    # X0 is x0_tail from the horizon on, and T_max is past it
    tail = lambda: (0.0, F1[-1:] - tech.f0.value(m.x0_tail))
    total = plan.expect([np.exp(-r * t) * (F1[: t.size] - tech.f0.value(X0[: t.size]))], tail)
    return float(tech.f0.value(m.X0_edges[0])) + total[0]


def pi_G(x0_mech: Mechanism, tech: Technology, G: BreakthroughDistribution) -> float:
    """Payoff of a flow path with the promise pinned to its own continuation.

    This is the objective whose concavity and Gateaux derivative the
    variational checks exercise: ``X = X0`` (no separate promise choice).
    """
    return payoff(_pinned(x0_mech), tech, G)


# ---------------------------------------------------------------------------
# dominance


def _mass_on_region(G: BreakthroughDistribution, in_region, probes) -> float:
    """Approximate G-mass of ``{t : in_region(t)}`` at the probe resolution."""
    mass = sum(m for t, m in G.atoms if in_region(np.array([t]))[0])
    flags = in_region(probes)
    cell_masses = np.diff(1.0 - G.sf(probes))[flags[:-1] & flags[1:]]
    mass = sum(cell_masses.tolist(), mass)
    if G.tail_mass > 0 and flags[-1]:
        mass += G.sf(float(probes[-1]))
    return float(mass)


def dominance_check(m: Mechanism, tech: Technology, G_family) -> VerificationReport:
    """Compare a normalized mechanism against its deadline twin.

    The twin delivers the same initial promise; with affine F0 its
    continuation path is pointwise below the original's and its payoff is
    weakly higher for every G, strictly when G puts mass where the paths
    differ. Under each G without mass at time 0, both payoffs must also
    match `payoff_affine_rewrite`, the form the argument rests on.
    """
    rep = VerificationReport("no-delay")
    _require_affine_f0(tech)
    if m.u1 is None or np.any(m.x0 > tech.u0 + 1e-12) or m.x0_tail > tech.u0 + 1e-12:
        raise PreconditionViolation("mechanism must be normalized first")

    v = float(m.X0_edges[0])
    twin = make_deadline_mechanism(deadline_for_promise(v, tech, m), tech, m)

    rep.add(
        "same-initial-promise",
        abs(float(twin.X0_edges[0]) - v) < 1e-9,
        worst_violation=abs(float(twin.X0_edges[0]) - v),
    )

    probes = sorted_unique(np.concatenate([m.edges, twin.edges, [m.horizon + 1.0]]))
    diff = m.X0_at(probes) - twin.X0_at(probes)
    rep.add(
        "twin-pointwise-below",
        bool(np.min(diff) > -1e-9),
        worst_violation=max(0.0, -float(np.min(diff))),
    )

    changed = lambda t: (m.X0_at(t) - twin.X0_at(t)) > 1e-9
    rewrite_errs, skipped = [], []
    for i, G in enumerate(G_family):
        twin_pay, m_pay = payoff(twin, tech, G), payoff(m, tech, G)
        if _mass_at_zero(G):
            skipped.append(str(i))
        else:
            rewrite_errs += [abs(payoff_affine_rewrite(x, tech, G) - v) for x, v in ((twin, twin_pay), (m, m_pay))]
        gain = twin_pay - m_pay
        mass = _mass_on_region(G, changed, probes)
        if mass > 1e-9:
            ok = gain > 1e-12
            note = "strict (mass on changed set)"
        else:
            ok = gain > -1e-9
            note = "weak (no mass on changed set)"
        rep.add(f"payoff-dominance-{i}", ok, worst_violation=max(0.0, -gain), note=note)
    rep.add(
        "affine-rewrite-matches-payoff",
        all(e <= 1e-10 for e in rewrite_errs),  # NaN fails
        worst_violation=float(np.max(rewrite_errs, initial=0.0)),
        note=f"skipped G {', '.join(skipped)}: mass at time 0" if skipped else "",
    )
    return rep
