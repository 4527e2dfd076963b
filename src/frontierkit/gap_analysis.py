"""Trichotomy of the frontier gap at its argmax.

Let ``psi = F1 - F0``. At the gap's argmax ``u_star`` exactly one of three
things happens: ``psi`` has a local maximum, ``psi`` has a saddle point
(neither a local max nor a local min, with arbitrarily flat difference
quotients through the point), or both frontiers are kinked there and share a
supergradient. The classifier probes a shrinking family of windows around
``u_star`` and reports a witness with the one-sided derivatives behind the
verdict.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UStarAtOrigin
from .technology import Technology

#: shrinking probe radii for the saddle definition's "for every epsilon",
#: largest first
PROBE_EPSILONS = (1e-1, 1e-2, 1e-3)

#: grid points on each side of the probe point, per epsilon window
PROBE_POINTS_PER_SIDE = 64

#: strict-comparison tolerance for the local max/min probes
STRICT_TOL = 1e-10


class GapKind(enum.Enum):
    LOCAL_MAX = "LocalMax"
    SADDLE = "Saddle"
    MUTUAL_KINK = "MutualKink"


@dataclass
class GapWitness:
    """One-sided slopes at the probed point and the shared supergradients."""

    f0_left: float
    f0_right: float
    f1_left: float
    f1_right: float
    shared_interval: tuple[float, float]


@dataclass
class GapClassification:
    kind: GapKind
    witness: GapWitness


def shared_supergradient_interval(tech: Technology, u: float) -> tuple[float, float]:
    """Slopes supergradient to both frontiers at ``u``.

    Returns ``(lo, hi)`` with ``lo = max_j right_deriv_j(u)`` and
    ``hi = min_j left_deriv_j(u)``; the interval is empty (no shared
    supergradient) exactly when ``lo > hi``. Raises `DomainError` when ``u``
    lies outside either frontier's domain closure.
    """
    lo = max(tech.f0.right_deriv(u), tech.f1.right_deriv(u))
    hi = min(tech.f0.left_deriv(u), tech.f1.left_deriv(u))
    return lo, hi


def _windows(psi, u_bar: float, lo: float, hi: float):
    """Each probe window, largest ``eps`` first: its points strictly left and
    right of ``u_bar`` within ``eps`` and ``psi`` on both, in one call made
    when the window is reached."""
    n = PROBE_POINTS_PER_SIDE
    for eps in PROBE_EPSILONS:
        left_lo, right_hi = max(lo, u_bar - eps), min(hi, u_bar + eps)
        left = np.linspace(left_lo, u_bar, n + 1)[:-1] if left_lo < u_bar else np.array([])
        right = np.linspace(u_bar, right_hi, n + 1)[1:] if right_hi > u_bar else np.array([])
        yield eps, left, right, np.asarray(psi(np.concatenate([left, right])), dtype=float)


def _saddle_verdict(center: float, windows) -> bool:
    """Saddle probe on the `_windows` around ``u_bar``, where ``psi`` is
    ``center``.

    True iff, in every window of radius ``eps``, (a) some straddling pair
    ``u < u_bar < u'`` has ``|psi(u') - psi(u)|/(u' - u) < eps`` and (b) the
    local-max and local-min probes both fail. A finite grid can support but
    never prove the verdict: it holds down to the finest radius,
    ``PROBE_EPSILONS[-1]``.
    """
    for eps, left, right, vals in windows:
        if left.size == 0 or right.size == 0:
            return False
        lv, rv = vals[: left.size], vals[left.size :]
        quot = np.abs(rv[None, :] - lv[:, None]) / (right[None, :] - left[:, None])
        not_max = np.any(vals > center + STRICT_TOL)
        not_min = np.any(vals < center - STRICT_TOL)
        if not (quot.min() < eps and not_max and not_min):
            return False
    return True


def classify_u_star(tech: Technology) -> GapClassification:
    """Sort ``u_star`` into the local-max / saddle / mutual-kink trichotomy.

    Only defined for an interior argmax: raises UStarAtOrigin when
    ``u_star = 0``, as on every moral-hazard technology.
    """
    u = tech.u_star
    if abs(u) < 1e-8:
        raise UStarAtOrigin("gap argmax sits at the origin; trichotomy undefined")

    witness = GapWitness(
        f0_left=tech.f0.left_deriv(u),
        f0_right=tech.f0.right_deriv(u),
        f1_left=tech.f1.left_deriv(u),
        f1_right=tech.f1.right_deriv(u),
        shared_interval=shared_supergradient_interval(tech, u),
    )

    lo = max(tech.f0.domain[0], tech.f1.domain[0])
    hi = min(tech.f0.domain[1], tech.f1.domain[1])
    # the local-max test and the saddle test read one evaluation of each window
    center = float(tech.gap(u))
    for_max, for_saddle = itertools.tee(_windows(tech.gap, u, lo, hi))
    if not any(np.any(vals > center + STRICT_TOL) for *_, vals in for_max):
        return GapClassification(GapKind.LOCAL_MAX, witness)
    if _saddle_verdict(center, for_saddle):
        return GapClassification(GapKind.SADDLE, witness)
    return GapClassification(GapKind.MUTUAL_KINK, witness)
