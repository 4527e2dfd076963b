import numpy as np
import pytest

from frontierkit import (
    CallableFrontier,
    DomainError,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
    Technology,
    UStarAtOrigin,
)
from frontierkit.gap_analysis import (
    GapKind,
    classify_u_star,
    is_saddle,
    shared_supergradient_interval,
)


def mutual_kink_tech():
    # both frontiers kinked at u = 1: slopes (1, -1) and (0.5, -2)
    f0 = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    f1 = PiecewiseLinearFrontier([0.0, 1.0, 1.5], [1.0, 1.5, 0.5])
    return Technology(f0=f0, f1=f1, u0=1.0, u1=1.0, u_star=1.0)


def local_max_tech():
    # psi = 3 - (u-1)^2: a smooth strict local max of the gap at u = 1
    f0 = QuadraticFrontier(0.0, 2.0, -1.0)
    f1 = QuadraticFrontier(3.0, 4.0, -2.0)
    return Technology(f0=f0, f1=f1, u0=1.0, u1=1.0, u_star=1.0)


def saddle_tech():
    # psi = -(u-1)^3; f1 keeps enough curvature from f0 to stay concave
    f0 = QuadraticFrontier(0.0, 10.0, -5.0)
    f1 = CallableFrontier(
        lambda u: 10.0 * u - 5.0 * u * u - (u - 1.0) ** 3,
        domain=(0.0, 2.0),
        peak=1.0,
    )
    return Technology(f0=f0, f1=f1, u0=1.0, u1=1.0, u_star=1.0)


class TestSharedSupergradientInterval:
    def test_kinked_pair(self):
        lo, hi = shared_supergradient_interval(mutual_kink_tech(), 1.0)
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(0.5)

    def test_differentiable_pair_empty_unless_equal(self):
        f0 = QuadraticFrontier(0.0, 2.0, -1.0)  # slope 2 - 2u
        f1 = QuadraticFrontier(1.0, 3.0, -1.0)  # slope 3 - 2u
        tech = Technology(f0=f0, f1=f1, u0=1.0, u1=1.5, u_star=0.5)
        lo, hi = shared_supergradient_interval(tech, 0.8)
        assert lo > hi  # derivatives differ: empty interval
        # identical slopes at every u when f1 is a vertical shift of f0
        tech2 = Technology(f0=f0, f1=QuadraticFrontier(1.0, 2.0, -1.0), u0=1.0, u1=1.0, u_star=0.0)
        lo, hi = shared_supergradient_interval(tech2, 0.8)
        assert lo == pytest.approx(hi)
        assert lo == pytest.approx(2.0 - 1.6)

    def test_identical_frontiers(self):
        f = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        tech = Technology(f0=f, f1=f, u0=1.0, u1=1.0, u_star=1.0)
        lo, hi = shared_supergradient_interval(tech, 1.0)
        assert (lo, hi) == (f.right_deriv(1.0), f.left_deriv(1.0))
        assert (lo, hi) == (-1.0, 1.0)

    def test_out_of_domain_raises_for_the_first_frontier_that_excludes_u(self):
        tech = mutual_kink_tech()  # F0 on [0, 2], F1 on [0, 1.5]
        for u, closure in ((1.8, r"\[0, 1.5\]"), (2.5, r"\[0, 2\]"), (-0.5, r"\[0, 2\]")):
            with pytest.raises(DomainError, match=rf"u={u:g} outside domain closure {closure}"):
                shared_supergradient_interval(tech, u)


class TestIsSaddle:
    def test_cubic_is_saddle(self):
        ok, witness = is_saddle(lambda u: -((u - 1.0) ** 3), 1.0)
        assert ok
        # symmetric pairs at distance delta give quotient delta^2 -> 0
        for delta in (1e-1, 1e-2, 1e-3):
            quot = abs(-(delta**3) - delta**3) / (2 * delta)
            assert quot == pytest.approx(delta**2)
        assert witness["note"].startswith("supported at resolution")

    def test_quadratic_local_max_is_not(self):
        ok, _ = is_saddle(lambda u: -((u - 1.0) ** 2), 1.0)
        assert not ok

    def test_abs_local_min_is_not(self):
        ok, _ = is_saddle(lambda u: abs(u - 1.0), 1.0)
        assert not ok

    def test_requires_positive_point(self):
        with pytest.raises(ValueError):
            is_saddle(lambda u: u, 0.0)


class TestClassifyUStar:
    def test_mutual_kink(self):
        cls = classify_u_star(mutual_kink_tech())
        assert cls.kind is GapKind.MUTUAL_KINK
        w = cls.witness
        # the chain of one-sided slopes around a shared supergradient
        assert w.f1_right < w.f0_right <= w.shared_interval[0]
        assert w.shared_interval[0] <= w.shared_interval[1]
        assert w.shared_interval[1] <= w.f1_left < w.f0_left
        assert w.psi_left < 0 and w.psi_right < 0

    def test_local_max(self):
        cls = classify_u_star(local_max_tech())
        assert cls.kind is GapKind.LOCAL_MAX

    def test_saddle(self):
        cls = classify_u_star(saddle_tech())
        assert cls.kind is GapKind.SADDLE

    def test_kinds_mutually_exclusive(self):
        kinds = {
            classify_u_star(t).kind
            for t in (mutual_kink_tech(), local_max_tech(), saddle_tech())
        }
        assert kinds == {GapKind.MUTUAL_KINK, GapKind.LOCAL_MAX, GapKind.SADDLE}

    def test_default_technology_errors_at_origin(self, default_tech):
        assert abs(default_tech.u_star) < 1e-8
        with pytest.raises(UStarAtOrigin):
            classify_u_star(default_tech)
