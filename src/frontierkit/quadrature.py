"""The time axis: finite measures on [0, inf), cell lookup and quadrature.

Payoffs, Euler residuals, Gateaux derivatives and the Stieltjes identity all
integrate against one kind of object, a finite nonnegative measure on
``[0, inf)`` made of atoms, a piecewise-constant density and an optional
exponential tail (`MeasureOnTime`).

Quadrature rules, shared by `mechanism` and `variational`:

- Smooth pieces are integrated by 16-node Gauss-Legendre per cell of an edge
  set that contains every knot (grid edges, atoms, density breakpoints, the
  tail start), so each integrand is smooth on each cell
  (`NodePlan.integrate`).
- Running integrals ``t -> int_0^t`` add the whole cells before ``t`` to a
  fresh 16-node rule on the partial cell ``[edge, t]`` (`NodePlan.running`).
- Expectations add atoms exactly to the density integral. A `NodePlan` holds
  what an expectation on one edge set needs of ``G`` (the nodes, then the
  atoms, G's density at the nodes and the half-widths), so that many
  integrands share one build: `mechanism` builds one per payoff pass (one
  path, or the rows of a sweep on one grid), and `variational` one per
  check, running integrals included.
- An improper horizon is truncated ``37 / r`` past the last knot, where
  ``e^{-rt}`` is below machine scale, and the far region is subdivided at the
  decay scale ``2 / max(r, decay)`` (`integration_edges`). Where the
  integrand is affine in ``e^{-rt}`` beyond the last knot, the caller may
  instead integrate the exponential tail in closed form, as `payoff` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# cell lookup


def cell_index(edges: np.ndarray, t, side: str = "right") -> np.ndarray:
    """Index of the cell ``[edges[k], edges[k+1])`` holding ``t``, clipped to
    the first and last cell. With ``side="left"`` the cells are
    ``(edges[k], edges[k+1]]``: an edge belongs to the cell below it."""
    k = np.searchsorted(edges, t, side=side) - 1
    # np.minimum/np.maximum give np.clip's integers without its Python wrapper
    return np.minimum(np.maximum(k, 0), len(edges) - 2)


def sorted_unique(x) -> np.ndarray:
    """The sorted distinct values of ``x``, as ``np.unique`` gives them for an
    array without NaN, by one sort: ``np.unique`` imports ``numpy.ma`` (9-18
    ms) on its first call in a process, and its inverse path, which does not,
    takes twice as long."""
    s = np.sort(x, axis=None)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def step_value(edges: np.ndarray, cells: np.ndarray, tail: float, t):
    """Piecewise-constant path: ``cells[k]`` on cell ``k``, ``tail`` from the
    last edge on."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= edges[-1], tail, cells[cell_index(edges, t)])


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class MeasureOnTime:
    """Finite nonnegative measure on [0, inf): atoms, a piecewise-constant
    density and an exponential tail ``tail_mass * Exp(tail_rate)`` shifted to
    start at ``tail_start``.

    The survival function is computed by summing the mass *beyond* a time,
    which keeps it exact near total mass.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density_edges: np.ndarray | None = None
    density_values: np.ndarray | None = None
    tail_rate: float = 1.0
    tail_mass: float = 0.0
    tail_start: float = 0.0

    def __post_init__(self):
        # each bound is written so that NaN fails it
        for t, m in self.atoms:
            if not (0.0 <= t < math.inf and 0.0 <= m < math.inf):
                raise ValueError("atoms need finite nonnegative times and masses")
        if (self.density_edges is None) != (self.density_values is None):
            raise ValueError("density edges and values must come together")
        if self.density_edges is not None:
            e = np.asarray(self.density_edges, dtype=float)
            v = np.asarray(self.density_values, dtype=float)
            finite = np.all(np.isfinite(e)) and np.all(np.isfinite(v))
            if len(e) != len(v) + 1 or not (finite and np.all(np.diff(e) > 0) and np.all(v >= 0)):
                raise ValueError("malformed piecewise-constant density")
            object.__setattr__(self, "density_edges", e)
            object.__setattr__(self, "density_values", v)
            if self.tail_mass > 0 and self.tail_start < e[-1]:
                raise ValueError("tail must start at or after the last density edge")
        if not all(map(math.isfinite, (self.tail_mass, self.tail_rate, self.tail_start))):
            raise ValueError("tail mass, rate and start must be finite")
        if self.tail_mass < 0:
            raise ValueError("tail mass must be nonnegative")
        if self.tail_mass > 0 and self.tail_rate <= 0:
            raise ValueError("tail rate must be positive")

    def total_mass(self) -> float:
        mass = sum(m for _, m in self.atoms) + self.tail_mass
        if self.density_edges is not None:
            mass += float(np.diff(self.density_edges) @ self.density_values)
        return float(mass)

    def sf(self, t):
        """``nu((t, inf))`` at a time or an array of times (a float for a
        scalar), summed directly from the remaining pieces.

        A point's density mass is its row of remaining widths dotted with the
        values. `np.vecdot` runs the 1-D dot kernel of ``w @ v`` on each row,
        so one call is bit for bit the per-point dots; the 2-D matmul
        ``widths @ v`` sums in another order and differs in the last bit on
        some rows. The tail stays `math.exp` per point, which `np.exp` also
        differs from on some points. It is mapped over the points, and only
        its argument and the product with the mass are computed in numpy, by
        the same IEEE operations (`np.fmax` ignores a NaN as Python's
        ``max(0.0, x)`` does). Exported residuals would change with either.
        """
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        mass = np.zeros(flat.shape)
        for s, m in self.atoms:
            mass += np.where(flat < s, m, 0.0)
        if self.density_edges is not None:
            e, v = self.density_edges, self.density_values
            widths = np.clip(e[1:], flat[:, None], None) - np.clip(e[:-1], flat[:, None], None)
            mass += np.vecdot(widths, v)
        if self.tail_mass > 0:
            args = -self.tail_rate * np.fmax(0.0, flat - self.tail_start)
            mass += self.tail_mass * np.fromiter(map(math.exp, args.tolist()), float, args.size)
        return mass.reshape(ts.shape) if ts.ndim else float(mass[0])

    def pdf(self, t):
        """Density (piecewise-constant pieces plus the exponential tail)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        if self.density_edges is not None:
            e, v = self.density_edges, self.density_values
            out = np.where((t >= e[0]) & (t < e[-1]), v[cell_index(e, t)], out)
        if self.tail_mass > 0:
            g = self.tail_rate
            tail = self.tail_mass * g * np.exp(-g * (t - self.tail_start))
            out = np.where(t >= self.tail_start, out + tail, out)
        return out if out.ndim else float(out)

    @property
    def knots(self) -> tuple[float, ...]:
        """Times where the density or atom structure changes."""
        ks = [t for t, _ in self.atoms]
        if self.density_edges is not None:
            ks.extend(self.density_edges.tolist())
        if self.tail_mass > 0:
            ks.append(self.tail_start)
        return tuple(sorted(set(ks)))


# ---------------------------------------------------------------------------
# edge sets and Gauss-Legendre rules


def subdivide(a: float, b: float, max_width: float) -> np.ndarray:
    """Equal cells of width at most ``max_width`` covering ``[a, b]``. One
    cell is ``[a, b]`` itself, which is what ``np.linspace(a, b, 2)`` gives."""
    n = math.ceil((b - a) / max_width)
    return np.linspace(a, b, n + 1) if n > 1 else np.array([a, b], dtype=float)


def integration_edges(G: MeasureOnTime, r: float, knots=()) -> np.ndarray:
    """Edges covering [0, T_struct + 37/r] for integrating against ``G`` at
    discount rate ``r``, split at ``knots``, at G's knots and at the decay
    scale of ``e^{-rt}`` and of G's tail."""
    decay = G.tail_rate if G.tail_mass > 0 else r
    ks = sorted({0.0} | {float(k) for k in (*knots, *G.knots) if math.isfinite(k) and k >= 0.0})
    ks.append(ks[-1] + 37.0 / r)
    width = 2.0 / max(r, decay)
    pieces = [subdivide(a, b, width) for a, b in zip(ks[:-1], ks[1:]) if b > a]
    return sorted_unique(np.concatenate(pieces))


def gl_nodes(edges: np.ndarray) -> np.ndarray:
    """The 16 Gauss-Legendre nodes of each cell of ``edges``, one row per cell."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return mid[:, None] + half[:, None] * _GL_NODES[None, :]


def _partial_cells(edges: np.ndarray, t: np.ndarray):
    """Each time's cell ``k``, the half-width of ``[edges[k], t]`` and its 16 GL nodes."""
    k = cell_index(edges, t)
    h = 0.5 * (t - edges[k])
    m = 0.5 * (t + edges[k])
    return k, h, m[:, None] + h[:, None] * _GL_NODES[None, :]


@dataclass(frozen=True)
class NodePlan:
    """The nodes of ``int h dG`` on ``edges``, built once for any number of ``h``.

    ``nodes`` holds the `gl_nodes` of every cell, flattened, then G's atom
    times; ``pdf`` is G's density at the GL nodes and ``half`` the cells'
    half-widths. `integrate` reduces a function at the GL nodes cell by cell
    with ``@ _GL_WEIGHTS`` and sums the cells, `expect_values` adds G's atoms
    to that, and `running` gives the running integral at every node.
    """

    G: MeasureOnTime
    edges: np.ndarray
    nodes: np.ndarray
    pdf: np.ndarray
    half: np.ndarray

    @classmethod
    def build(cls, G: MeasureOnTime, edges: np.ndarray) -> "NodePlan":
        gl = gl_nodes(edges).ravel()
        nodes = np.concatenate([gl, [t for t, _ in G.atoms]])
        return cls(G, edges, nodes, G.pdf(gl), 0.5 * np.diff(edges))

    @cached_property
    def partial(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_partial_cells` of the nodes, built on first use."""
        return _partial_cells(self.edges, self.nodes)

    def _per_cell(self, vals: np.ndarray) -> np.ndarray:
        return self.half * (vals.reshape(-1, _GL_NODES.size) @ _GL_WEIGHTS)

    def integrate(self, vals: np.ndarray) -> float:
        """``int f dt`` over the edges from ``vals``, f at the GL nodes."""
        return float(np.sum(self._per_cell(vals)))

    def expect_values(self, hs: np.ndarray) -> float:
        """``int h dG`` from ``hs``, the values of h at `nodes`."""
        n = self.pdf.size
        total = self.integrate(self.pdf * hs[:n])
        for (_, mass), h in zip(self.G.atoms, hs[n:].tolist()):
            total += mass * h
        return total

    def running(self, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """``int_0^t f`` at every node ``t`` from f at the GL nodes (``outer``)
        and the inner nodes (``inner``). Each atom row is reduced on its own,
        so an atom gets the bits of a running integral taken at its time
        alone: a matrix product's bits can change with its row count."""
        cell, reach, _ = self.partial
        cum = np.concatenate([[0.0], np.cumsum(self._per_cell(outer))])
        rows, n = inner.reshape(-1, _GL_NODES.size), self.pdf.size
        parts = [rows[:n] @ _GL_WEIGHTS] + [rows[i : i + 1] @ _GL_WEIGHTS for i in range(n, len(rows))]
        return cum[cell] + reach * np.concatenate(parts)

    def expect_running(self, fn) -> float:
        """``int (int_0^t fn) dG(t)``, with ``fn`` called on each node set."""
        return self.expect_values(self.running(fn(self.nodes[: self.pdf.size]), fn(self.partial[2].ravel())))
