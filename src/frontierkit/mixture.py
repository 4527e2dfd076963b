"""Post-breakthrough frontier over a finitely supported random frontier.

The mixture frontier at promised utility ``u`` is the maximum of the expected
member value over allocations with expectation ``u``. It is found by
water-filling with one rule per member: at a level ``eta`` each member takes
its tilted argmax ``f.argmax_linear(eta, floor, ceiling)``, the maximizer of
``f(x) - eta*x`` between ``max(0, domain lo)`` and its domain's upper end,
capped at ``max(2u + 1, u / min p)`` (floors are nonnegative, so ``p_i x_i <=
u``). Total allocation is nonincreasing in ``eta``, and the members' slopes at
their ceilings and floors bracket the level where it meets ``u``. An
interpolating bracket search, `roots.interpolated_switch`, finds that level on
the same float as bisection would, in about a seventh of the evaluations on
quadratic families. Members flat at that level share what is left in support
order (breakpoint water-filling: Palomar and Fonollosa, IEEE TSP 53(2), 2005)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptySupport
from .frontiers import INF, Frontier, midpoint_concavity_plan
from .report import VerificationReport
from .roots import interpolated_switch

_PROB_TOL = 1e-12
_EXPECT_TOL = 1e-10


@dataclass(frozen=True)
class FrontierDistribution:
    """Finitely many concave frontiers with strictly positive probabilities.

    Frozen: ``support`` is a tuple, and the ``members``, the read-only
    ``probs``, the allocation ``floors`` ``max(0, domain lo)`` and their
    expectation ``lo_total`` are made once here; ``eta_hi``, the largest
    right slope at the floors, on first use.
    """

    support: tuple[tuple[Frontier, float], ...]

    def __post_init__(self):
        if not self.support:
            raise EmptySupport("frontier distribution needs at least one member")
        probs = np.array([p for _, p in self.support], dtype=float)
        if np.any(probs <= 0):
            raise ValueError("probabilities must be strictly positive")
        if not abs(probs.sum() - 1.0) <= _PROB_TOL:  # NaN fails
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs.flags.writeable = False
        members = tuple(f for f, _ in self.support)
        floors = tuple(max(0.0, f.domain[0]) for f in members)
        lo_total = float(probs @ floors)
        made = dict(support=tuple(self.support), members=members, probs=probs, floors=floors, lo_total=lo_total)
        for name, v in made.items():
            object.__setattr__(self, name, v)

    @cached_property
    def eta_hi(self) -> float:
        return max(f.right_deriv(x) for f, x in zip(self.members, self.floors))


def mixture_value(dist: FrontierDistribution, u: float) -> tuple[float, np.ndarray]:
    """Maximum expected frontier value at expectation ``u``, with a maximizer:
    the array of each member's promised utility, in support order. Where no
    allocation has expectation ``u`` the value is ``-inf`` and the array holds
    the members' floors.

    Each member must have finite one-sided derivatives at its floor and
    ceiling, which bracket the level.
    """
    if not u >= 0.0:  # NaN fails
        raise ValueError(f"promised utility `u` must be nonnegative, got {u!r}")
    members, probs, floors = dist.members, dist.probs, dist.floors
    cap = max(2.0 * u + 1.0, u / float(probs.min()))
    ceils = [min(cap, f.domain[1]) for f in members]
    lo_total, hi_total = dist.lo_total, float(probs @ ceils)
    if u < lo_total - _EXPECT_TOL or u > hi_total + _EXPECT_TOL:
        # no allocation in the box has expectation u
        return -INF, np.array(floors)

    alloc = lambda eta, largest: np.array(
        [f.argmax_linear(eta, lo, hi, largest) for f, lo, hi in zip(members, floors, ceils)]
    )

    # just below eta_lo every member's smallest maximizer is its ceiling (the
    # predicate holds there even when a member is flat at the lowest ceiling
    # slope); at eta_hi every one is its floor. Total allocation is
    # nonincreasing between
    eta_lo = min(f.left_deriv(x) for f, x in zip(members, ceils))
    eta_hi = dist.eta_hi
    if not math.isfinite(eta_lo) or not math.isfinite(eta_hi):
        raise ValueError("mixture members need finite slopes at their floor and ceiling")
    eta_lo = math.nextafter(eta_lo, -INF)
    # the total is monotone in eta in floating point too, as the search needs:
    # so are the closed forms (the clipped quadratic vertex, a chain of
    # monotone roundings; the affine and piecewise-linear slope thresholds)
    # and every decision of a bisected argmax_linear, and probs > 0. Its
    # values at eta_lo and eta_hi are hi_total and lo_total
    T = lambda eta: float(probs @ alloc(eta, False))
    _, eta = interpolated_switch(T, u, eta_lo, eta_hi, hi_total, lo_total)

    xs = alloc(eta, False)
    deficit = u - float(probs @ xs)
    if deficit > 0:
        # distribute the remaining budget over members flat at the level,
        # in support order, keeping every allocation as small as possible
        xs_hi = alloc(eta, True)
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
        i = int(np.argmax(np.subtract(ceils, floors)))
        xs[i] = np.clip(xs[i] + resid / probs[i], floors[i], ceils[i])

    value = float(sum(p * f.value(x) for (f, p), x in zip(dist.support, xs)))
    return value, xs


def mixture_peak(dist: FrontierDistribution) -> float:
    """Expected member peak; the unique argmax of the mixture frontier."""
    return float(np.dot(dist.probs, [f.peak for f in dist.members]))


def mixture_domain(dist: FrontierDistribution) -> tuple[float, float]:
    """Effective domain endpoints: the expected floor and the expected domain
    upper end, between which `mixture_value` is finite."""
    his = np.array([f.domain[1] for f in dist.members])
    hi = INF if np.any(np.isinf(his)) else float(dist.probs @ his)
    return dist.lo_total, hi


def verify_mixture_regularity(dist: FrontierDistribution, grid) -> VerificationReport:
    """Concavity, unique-peak and upper semi-continuity checks on a grid."""
    rep = VerificationReport("mixture")
    grid = sorted(float(u) for u in grid)
    points, slack = midpoint_concavity_plan(grid)
    all_vals = np.array([mixture_value(dist, u)[0] for u in points.tolist()])
    vals = dict(zip(grid, all_vals[: len(grid)].tolist()))
    finite = [u for u in grid if np.isfinite(vals[u])]

    # inf where no pair is finite; a NaN slack fails
    worst = slack(all_vals)
    rep.add("midpoint-concavity", worst > -1e-9, worst_violation=max(0.0, -worst))

    peaks = []
    for f in dist.members:
        try:
            peaks.append(f.peak)
        except DomainError:  # it rises without bound, so the mixture has no peak
            break
    if len(peaks) < len(dist.members):
        rep.add("unique-peak", True, note=f"not applicable: member {len(peaks)} has no peak")
    else:
        peak = mixture_peak(dist)
        peak_val, alloc = mixture_value(dist, peak)
        expected_peak_val = float(sum(p * f.value(x) for (f, p), x in zip(dist.support, peaks)))
        ok = abs(peak_val - expected_peak_val) < 1e-9
        strict = all(peak_val > vals[u] for u in finite if abs(u - peak) > 1e-4)
        at_peaks = np.max(np.abs(alloc - peaks)) < 1e-8
        rep.add("unique-peak", ok and strict and at_peaks)

    lo, hi = mixture_domain(dist)
    for name, boundary, signs in (("lower", lo, +1), ("upper", hi, -1)):
        if math.isinf(boundary):
            rep.add(f"usc-{name}", True, note="unbounded side")
            continue
        bound_val, _ = mixture_value(dist, boundary)
        # the limsup is read off the three probes nearest the boundary; the
        # ``s >= 0`` filter drops only probes farther out
        seq = [boundary + signs * 2.0 ** (-k) for k in range(42, 45)]
        seq_vals = [mixture_value(dist, s)[0] for s in seq if s >= 0]
        limsup = max(seq_vals) if seq_vals else -INF
        rep.add(
            f"usc-{name}",
            limsup <= bound_val + 1e-8,
            worst_violation=max(0.0, limsup - bound_val),
        )
    return rep
