"""Exact reference maximizers used only by the test suites.

Kept in the package (not the tests) so the CLI's randomized suites can reuse
them, but never called from the production solvers they cross-check, and
sharing no code with them. The mixture oracle's table of assignments is made
once per member count and kept for the life of the process.
"""

from __future__ import annotations

import itertools

import numpy as np

from .frontiers import QuadraticFrontier

#: per member count ``k``, the floor and free masks of the ``3**k`` assignments
_ASSIGNMENTS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def brute_force_mixture_value(dist, u: float) -> float:
    """Exact mixture value at expectation ``u`` for quadratic members.

    At an optimum each member ``a + b*x + c*x**2`` sits at its floor
    ``max(0, domain lo)``, at its ceiling ``min(cap, domain hi)``, or is
    free, and the free members share one slope ``eta``: ``x = (eta - b) /
    (2c)``, with ``eta`` fixed by the expectation constraint. The cap
    ``max(2u + 1, u / min p)`` holds every feasible allocation. Every one of the
    ``3**k`` assignments gives at most one allocation; the optimum is among
    them, so the best feasible one is the mixture value (``-inf`` if none is).
    """
    members, probs = dist.members, dist.probs
    if not all(isinstance(f, QuadraticFrontier) for f in members):
        raise TypeError("the exact mixture oracle needs quadratic members")
    cap = max(2.0 * u + 1.0, u / float(probs.min()))
    a, b, c = np.array([f.coeffs for f in members]).T
    lo = np.array([max(0.0, f.domain[0]) for f in members])
    hi = np.array([min(cap, f.domain[1]) for f in members])

    # one row per assignment: 0 floor, 1 ceiling, 2 free
    if len(members) not in _ASSIGNMENTS:
        state = np.array(list(itertools.product((0, 1, 2), repeat=len(members))))
        _ASSIGNMENTS[len(members)] = state == 0, state == 2
    at_floor, free = _ASSIGNMENTS[len(members)]
    x = np.where(at_floor, lo, hi)
    slope_mass = np.where(free, probs / (2.0 * c), 0.0)  # d(expectation)/d(eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = (u - np.where(free, 0.0, probs * x).sum(1) + (slope_mass * b).sum(1)) / slope_mass.sum(1)
    x = np.where(free, (eta[:, None] - b) / (2.0 * c), x)
    # rows without a free member meet the constraint only at a corner total
    feasible = np.all((x >= lo) & (x <= hi), axis=1) & (np.abs(x @ probs - u) <= 1e-12)
    if not feasible.any():
        return -np.inf
    x = x[feasible]
    return float(np.max((a + b * x + c * x * x) @ probs))
