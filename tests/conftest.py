import numpy as np
import pytest

from frontierkit import (
    MoralHazardPrimitives,
    PowerCost,
    PowerUtility,
    make_moral_hazard_technology,
)
from frontierkit.errors import DomainError


@pytest.fixture(scope="session")
def default_prims():
    """lam=1, w=1, phi = sqrt, kappa = L**2."""
    return MoralHazardPrimitives(
        lam=1.0, w=1.0, phi=PowerUtility(0.5), kappa=PowerCost(2.0)
    )


@pytest.fixture(scope="session")
def default_tech(default_prims):
    return make_moral_hazard_technology(default_prims)


@pytest.fixture(scope="session")
def corner_prims():
    """lam=1, w=4 drives the post-breakthrough peak to the corner u1 = 0."""
    return MoralHazardPrimitives(
        lam=1.0, w=4.0, phi=PowerUtility(0.5), kappa=PowerCost(2.0)
    )


@pytest.fixture(scope="session")
def corner_tech(corner_prims):
    return make_moral_hazard_technology(corner_prims)


def foc_gap(prims, u, L):
    """The effort FOC gap ``kappa'(L)/phi'(phi_inv(u + kappa(L))) - w`` from
    the primitives' own methods: the reference for the solvers' FOC."""
    return prims.kappa.kappa_prime(L) / prims.phi.phi_prime_at_inv(u + prims.kappa.kappa(L)) - prims.w


def bisect_reference(pred, lo, hi):
    """Predicate bisection with one scalar probe per step, at most 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def piece_by_piece(f, u, what):
    """The per-point piece lookup of a `_PiecewiseFrontier`, as a plain loop.

    A join's slope on either side is that side's piece's; its value is the
    left piece's."""
    if what == "value" and (u < f.domain[0] or u > f.domain[1]):
        return -np.inf
    if what == "left":
        for p in reversed(f.pieces):
            if u > p.lo:
                return p.der(u)
    if what == "right":
        return next((p for p in f.pieces if u < p.hi), f.pieces[-1]).der(u)
    piece = next((p for p in f.pieces if u <= p.hi), f.pieces[-1])
    return piece.val(u) if what == "value" else piece.der(u)


def assert_batched_equals_scalar(f, us):
    """Array ``value``/``deriv`` equal the scalar calls bit for bit at ``us``.

    ``us`` lies in the domain closure, which must start at 0.
    """
    outside = np.array([-1.0, -5e-324])
    both = np.concatenate([outside, us])
    np.testing.assert_array_equal(f.value(both), [f.value(float(u)) for u in both])
    assert np.all(f.value(outside) == -np.inf)
    for side in ("left", "right"):
        scalar = f.left_deriv if side == "left" else f.right_deriv
        np.testing.assert_array_equal(f.deriv(us, side), [scalar(float(u)) for u in us])
        with pytest.raises(DomainError):
            f.deriv(np.array([0.1, -1.0]), side)
    if hasattr(f, "pieces"):
        np.testing.assert_array_equal(f.value(both), [piece_by_piece(f, float(u), "value") for u in both])
        inner = us[us > 0.0]
        for side in ("left", "right"):
            np.testing.assert_array_equal(
                f._derivs(inner, side), [piece_by_piece(f, float(u), side) for u in inner]
            )
