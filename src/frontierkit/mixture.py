"""Post-breakthrough frontier over a finitely supported random frontier.

The mixture frontier at promised utility ``u`` is the maximum of the expected
member value over allocations with expectation ``u``. The maximizer is found
by supergradient equalization (water-filling): all members with an interior
allocation share one supergradient level, with nonnegativity clamping at the
bottom and the member domains (plus a configurable cap) at the top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySupport
from .frontiers import INF, Frontier
from .report import VerificationReport
from .roots import bisect_predicate

_PROB_TOL = 1e-12
_EXPECT_TOL = 1e-10


@dataclass
class FrontierDistribution:
    """Finitely many concave frontiers with strictly positive probabilities."""

    support: list[tuple[Frontier, float]]

    def __post_init__(self):
        if not self.support:
            raise EmptySupport("frontier distribution needs at least one member")
        probs = np.array([p for _, p in self.support], dtype=float)
        if np.any(probs <= 0):
            raise ValueError("probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")

    @property
    def members(self) -> list[Frontier]:
        return [f for f, _ in self.support]

    @property
    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.support], dtype=float)


@dataclass
class Allocation:
    """Promised utility per realized frontier; expectation pinned to ``u``."""

    values: np.ndarray
    cap_binds: bool = field(default=False)

    def expectation(self, probs: np.ndarray) -> float:
        return float(np.dot(probs, self.values))


def _alloc_floor(f: Frontier) -> float:
    return max(0.0, f.domain[0])


def _alloc_ceiling(f: Frontier, cap: float) -> float:
    return min(cap, f.domain[1])


def _member_alloc(f: Frontier, eta: float, cap: float, largest: bool) -> float:
    """Smallest (or largest) maximizer of ``f(x) - eta*x`` on the clamped range.

    The smallest maximizer is the least ``x`` with ``right_deriv(x) <= eta``;
    the largest is the greatest ``x`` with ``left_deriv(x) >= eta``.
    """
    lo, hi = _alloc_floor(f), _alloc_ceiling(f, cap)
    if largest:
        above = lambda x: f.left_deriv(x) >= eta
    else:
        above = lambda x: f.right_deriv(x) > eta
    if not above(lo):
        return lo
    if above(hi):
        return hi
    # predicate is monotone (derivatives nonincreasing)
    lo, hi = bisect_predicate(above, lo, hi)
    return lo if largest else hi


def _totals(dist: FrontierDistribution, eta: float, cap: float, largest: bool):
    xs = np.array(
        [_member_alloc(f, eta, cap, largest) for f in dist.members], dtype=float
    )
    return xs, float(np.dot(dist.probs, xs))


def mixture_value(
    dist: FrontierDistribution, u: float, cap: float | None = None
) -> tuple[float, Allocation]:
    """Maximum expected frontier value at expectation ``u``, with a maximizer."""
    if u < 0:
        raise ValueError("promised utility must be nonnegative")
    members, probs = dist.members, dist.probs
    if cap is None:
        peaks = [f.peak for f in members]
        cap = max(10.0 * (1.0 + max(peaks)), 2.0 * u + 1.0)

    floors = np.array([_alloc_floor(f) for f in members])
    ceils = np.array([_alloc_ceiling(f, cap) for f in members])
    lo_total, hi_total = float(probs @ floors), float(probs @ ceils)
    if u < lo_total - _EXPECT_TOL or u > hi_total + _EXPECT_TOL:
        # no allocation in the clamped feasible box has expectation u
        binds = u > hi_total  # the cap (or member domains) is what bites
        return -INF, Allocation(np.clip(floors, floors, ceils), cap_binds=binds)

    # bisect the shared supergradient level; total allocation is nonincreasing
    eta_lo, eta_hi = -1.0, 1.0
    for _ in range(200):
        if _totals(dist, eta_lo, cap, largest=True)[1] >= u:
            break
        eta_lo *= 2.0
    for _ in range(200):
        if _totals(dist, eta_hi, cap, largest=False)[1] <= u:
            break
        eta_hi *= 2.0
    eta_lo, eta_hi = bisect_predicate(
        lambda eta: _totals(dist, eta, cap, largest=False)[1] > u, eta_lo, eta_hi
    )

    xs, total = _totals(dist, eta_hi, cap, largest=False)
    deficit = u - total
    if deficit > 0:
        # distribute the remaining budget over members flat at the level,
        # in support order, keeping every allocation as small as possible
        xs_hi, _ = _totals(dist, eta_hi, cap, largest=True)
        for i in range(len(xs)):
            room = xs_hi[i] - xs[i]
            take = min(room, deficit / probs[i])
            xs[i] += take
            deficit -= take * probs[i]
            if deficit <= _EXPECT_TOL:
                break
    # final exactness polish on the largest-room member
    resid = u - float(probs @ xs)
    if abs(resid) > 0:
        i = int(np.argmax(ceils - floors))
        xs[i] = np.clip(xs[i] + resid / probs[i], floors[i], ceils[i])

    value = float(sum(p * f.value(x) for (f, p), x in zip(dist.support, xs)))
    cap_binds = bool(np.any(np.isclose(xs, cap)))
    return value, Allocation(xs, cap_binds=cap_binds)


def mixture_peak(dist: FrontierDistribution) -> float:
    """Expected member peak; the unique argmax of the mixture frontier."""
    return float(np.dot(dist.probs, [f.peak for f in dist.members]))


def mixture_domain(dist: FrontierDistribution, resolution: float = 1e-6) -> tuple[float, float]:
    """Effective domain endpoints, confirmed by a finite/-inf transition scan."""
    members, probs = dist.members, dist.probs
    lo = float(probs @ np.array([_alloc_floor(f) for f in members]))
    his = np.array([f.domain[1] for f in members])
    hi = INF if np.any(np.isinf(his)) else float(probs @ his)
    if not math.isinf(hi):
        # scan across the candidate boundary at the stated resolution
        v_in, _ = mixture_value(dist, max(lo, hi - resolution))
        v_out, _ = mixture_value(dist, hi + resolution)
        if not (np.isfinite(v_in) and v_out == -INF):
            raise AssertionError("effective-domain scan disagrees with endpoints")
    return lo, hi


def verify_mixture_regularity(dist: FrontierDistribution, grid) -> VerificationReport:
    """Concavity, unique-peak and upper semi-continuity checks on a grid."""
    rep = VerificationReport("mixture")
    grid = sorted(float(u) for u in grid)
    vals = {u: mixture_value(dist, u)[0] for u in grid}
    finite = [u for u in grid if np.isfinite(vals[u])]

    worst = INF
    for i, a in enumerate(finite):
        for b in finite[i + 1 :]:
            mid_val, _ = mixture_value(dist, 0.5 * (a + b))
            worst = min(worst, mid_val - 0.5 * (vals[a] + vals[b]))
    rep.add(
        "midpoint-concavity",
        worst > -1e-9 if finite else True,
        worst_violation=max(0.0, -worst) if finite else 0.0,
    )

    peak = mixture_peak(dist)
    peak_val, alloc = mixture_value(dist, peak)
    expected_peak_val = float(
        sum(p * f.value(f.peak) for f, p in dist.support)
    )
    ok = abs(peak_val - expected_peak_val) < 1e-9
    strict = all(peak_val > vals[u] for u in finite if abs(u - peak) > 1e-4)
    member_peaks = np.array([f.peak for f in dist.members])
    at_peaks = np.max(np.abs(alloc.values - member_peaks)) < 1e-8
    rep.add("unique-peak", ok and strict and at_peaks)

    lo, hi = mixture_domain(dist)
    for name, boundary, signs in (("lower", lo, +1), ("upper", hi, -1)):
        if math.isinf(boundary):
            rep.add(f"usc-{name}", True, note="unbounded side")
            continue
        bound_val, _ = mixture_value(dist, boundary)
        seq = [boundary + signs * 2.0 ** (-k) for k in range(3, 45)]
        seq_vals = [mixture_value(dist, s)[0] for s in seq if s >= 0]
        limsup = max(seq_vals[-3:]) if seq_vals else -INF
        rep.add(
            f"usc-{name}",
            limsup <= bound_val + 1e-8,
            worst_violation=max(0.0, limsup - bound_val),
        )
    return rep
