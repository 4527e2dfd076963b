"""End-to-end acceptance gate: one printed pass/fail line per criterion."""

import numpy as np
import pytest

from frontierkit import (
    AffineFrontier,
    QuadraticFrontier,
    Technology,
)
from frontierkit._oracles import brute_force_mixture_value
from frontierkit.cli import (
    _kinked_fixture,
    _local_max_tech,
    _mutual_kink_tech,
    _saddle_tech,
    _smooth_fixture,
)
from frontierkit.frontiers import midpoint_concavity_slack
from frontierkit.gap_analysis import GapKind, classify_u_star
from frontierkit.mechanism import (
    BreakthroughDistribution,
    Mechanism,
    TimeGrid,
    dominance_check,
    no_delay_improve,
    normalize,
    payoff,
    payoff_affine_rewrite,
)
from frontierkit.mixture import FrontierDistribution, mixture_value
from frontierkit.quadrature import step_value
from frontierkit.smoothing import build_sequence
from frontierkit.technology import effort_star, verify_ui_assumptions
from frontierkit.variational import (
    MeasureOnTime,
    SupergradientProfile,
    euler_residual,
    gateaux_closed_form,
    gateaux_fd,
    integrability_bounds,
    stieltjes_ibp,
    strict_concavity_probe,
    warmup_identity,
)

SMALL = TimeGrid(horizon=2.0, step=0.25, r=1.0)

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    # let _report write through to the terminal even under output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {name}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, line


def _quad_tech() -> Technology:
    f0 = QuadraticFrontier(0.25, 1.0, -1.0)
    f1 = QuadraticFrontier(0.9375, 0.5, -1.0)
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


def _affine_tech() -> Technology:
    f0 = AffineFrontier(0.2, 0.6, domain=(0.0, 0.5))
    f1 = QuadraticFrontier(0.9375, 0.5, -1.0)
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


def _mixed_G(rate=1.0):
    return BreakthroughDistribution(
        density_edges=np.array([0.0, 1.0]),
        density_values=np.array([0.5]),
        tail_rate=rate,
        tail_mass=0.5,
        tail_start=1.0,
    )


def _random_mechanism(rng, grid=SMALL, lo=0.05, hi=0.45):
    return Mechanism.from_grid(
        grid, rng.uniform(lo, hi, grid.n_cells), x0_tail=float(rng.uniform(lo, hi))
    )


def test_01_default_instance_values(default_tech, default_prims):
    L1 = effort_star(default_prims, default_tech.u1)
    residual = abs(
        default_tech.u0 - default_tech.u1 - float(default_prims.kappa.kappa(L1))
    )
    ok = (
        abs(default_tech.u0 - 0.5) < 1e-9
        and abs(default_tech.u1 - 0.25) < 1e-9
        and abs(L1 - 0.5) < 1e-9
        and residual < 1e-8
    )
    _report("01 default-instance-values", ok, f"identity residual {residual:.2e}")


def test_02_ui_assumption_suite(default_tech, corner_tech):
    ok, worst = True, np.inf
    for tech in (default_tech, corner_tech):
        grid = np.linspace(0.0, tech.u0, 200)
        rep = verify_ui_assumptions(tech, grid)
        ok &= rep.overall_pass
        for f in (tech.f0, tech.f1):
            slack = midpoint_concavity_slack(f, grid)
            worst = min(worst, slack)
            ok &= slack > 1e-10
        ok &= abs(tech.u_star) < 1e-8
    ok &= corner_tech.u1 == 0.0
    _report("02 ui-assumption-suite", ok, f"min concavity slack {worst:.2e}")


def test_03_mixture_water_filling():
    pair = FrontierDistribution(
        [(QuadraticFrontier(-1.0, 2.0, -1.0), 0.5), (QuadraticFrontier(-9.0, 6.0, -1.0), 0.5)]
    )
    worst_closed = max(
        abs(mixture_value(pair, float(u))[0] + (u - 2.0) ** 2)
        for u in np.linspace(1.0, 3.0, 41)
    )
    rng = np.random.default_rng(42)
    worst_bf = 0.0
    for _ in range(50):
        members = []
        for _ in range(int(rng.integers(2, 5))):
            peak = float(rng.uniform(0.5, 3.0))
            curv = -float(rng.uniform(0.5, 2.0))
            height = float(rng.uniform(0.0, 2.0))
            members.append(
                QuadraticFrontier(height + curv * peak * peak, -2.0 * curv * peak, curv)
            )
        dist = FrontierDistribution(list(zip(members, rng.dirichlet(np.ones(len(members))))))
        u = float(rng.uniform(0.5, 2.5))
        worst_bf = max(worst_bf, abs(mixture_value(dist, u)[0] - brute_force_mixture_value(dist, u)))
    ok = worst_closed < 1e-6 and worst_bf < 1e-5
    _report(
        "03 mixture-water-filling", ok,
        f"closed-form err {worst_closed:.2e}, oracle err {worst_bf:.2e}",
    )


def test_04_trichotomy():
    kinds = {
        "local-max": classify_u_star(_local_max_tech()).kind,
        "saddle": classify_u_star(_saddle_tech()).kind,
        "mutual-kink": classify_u_star(_mutual_kink_tech()).kind,
    }
    ok = (
        kinds["local-max"] == GapKind.LOCAL_MAX
        and kinds["saddle"] == GapKind.SADDLE
        and kinds["mutual-kink"] == GapKind.MUTUAL_KINK
    )
    w = classify_u_star(_mutual_kink_tech()).witness
    lo, hi = w.shared_interval
    # exact chain F1+ < F0+ <= eta <= F1- < F0- at the mutual kink
    ok &= w.f1_right < w.f0_right <= lo <= hi <= w.f1_left < w.f0_left
    ok &= (lo, hi) == (-1.0, 0.5)
    _report("04 trichotomy", ok, ", ".join(f"{k}:{v.name}" for k, v in kinds.items()))


def test_05_no_delay_and_dominance():
    tech = _quad_tech()
    rng = np.random.default_rng(42)
    worst_gain, strict_failures = np.inf, 0
    for k in range(1000):
        m = _random_mechanism(rng, lo=0.05, hi=0.45)
        G = (
            BreakthroughDistribution.exponential(float(rng.uniform(0.3, 2.0)))
            if k % 2 == 0
            else _mixed_G(float(rng.uniform(0.5, 1.5)))
        )
        gain = payoff(no_delay_improve(m, tech), tech, G) - payoff(m, tech, G)
        worst_gain = min(worst_gain, gain)
        # G has full support, so mass meets any nonempty changed set; demand a
        # material dip below u1 since the lift is second order near the peak
        ts = np.linspace(0.0, SMALL.horizon, 201)
        dip = tech.u1 - min(float(np.min(m.X0_at(ts))), m.x0_tail)
        if dip > 1e-2 and gain <= 1e-12:
            strict_failures += 1
    ok = worst_gain > -1e-10 and strict_failures == 0

    affine = _affine_tech()
    grid = TimeGrid(horizon=6.0, step=0.05, r=1.0)
    starts = grid.edges[:-1]
    x0 = np.where(starts < 1.0, 0.5 * affine.u0, np.where(starts < 2.0, affine.u0, 0.0))
    two_step = Mechanism.from_grid(grid, x0, u1=affine.u1)
    rep = dominance_check(two_step, affine, [BreakthroughDistribution.point_mass(0.5)])
    ok &= rep.overall_pass and "strict" in rep["payoff-dominance-0"].note

    worst_rewrite = 0.0
    for _ in range(50):
        m = normalize(_random_mechanism(rng), affine)
        G = _mixed_G(float(rng.uniform(0.5, 1.5)))
        worst_rewrite = max(
            worst_rewrite,
            abs(payoff(m, affine, G) - payoff_affine_rewrite(m, affine, G)),
        )
    ok &= worst_rewrite < 1e-7
    _report(
        "05 no-delay-and-dominance", ok,
        f"worst gain {worst_gain:.2e}, rewrite err {worst_rewrite:.2e}",
    )


def test_06_stieltjes_ibp():
    nu = MeasureOnTime(atoms=((1.0, 1.0),))
    lhs, rhs = stieltjes_ibp(nu, 0.0, lambda t: np.ones_like(t), 2.0)
    ok = abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12

    rng = np.random.default_rng(42)
    worst, done = 0.0, 0
    while done < 200:
        T = float(rng.uniform(0.5, 3.0))
        atoms = tuple(
            (float(rng.uniform(0, T)), float(rng.uniform(0, 1)))
            for _ in range(rng.integers(0, 4))
        )
        n_pieces = int(rng.integers(1, 4))
        edges = np.sort(rng.uniform(0, T, n_pieces + 1))
        edges[0], edges[-1] = 0.0, T
        if np.any(np.diff(edges) <= 1e-6):
            continue
        nu = MeasureOnTime(
            atoms=atoms, density_edges=edges, density_values=rng.uniform(0, 1, n_pieces)
        )
        a, b, c = rng.uniform(-1, 1, 3)
        lhs, rhs = stieltjes_ibp(
            nu, float(rng.uniform(-1, 1)), lambda t: a + b * t + c * t * t, T
        )
        worst = max(worst, abs(lhs - rhs))
        done += 1
    ok &= worst < 1e-9
    _report("06 stieltjes-ibp", ok, f"worst identity gap {worst:.2e}")


def test_07_gateaux():
    tech = _quad_tech()
    rng = np.random.default_rng(42)
    m = _random_mechanism(rng)
    prof = SupergradientProfile.exact(m, tech)
    zero = gateaux_closed_form(m, m, prof, tech, _mixed_G())
    ok = zero == 0.0

    worst = 0.0
    for _ in range(100):
        m, m_dag = _random_mechanism(rng), _random_mechanism(rng)
        prof = SupergradientProfile.exact(m, tech)
        G = _mixed_G(float(rng.uniform(0.6, 1.5)))
        closed = gateaux_closed_form(m, m_dag, prof, tech, G)
        fd = gateaux_fd(m, m_dag, tech, G)
        worst = max(worst, abs(closed - fd) / max(abs(fd), 1e-6))
    ok &= worst < 1e-4
    _report("07 gateaux", ok, f"worst relative error {worst:.2e}")


def test_08_euler():
    edges = np.linspace(0.0, 4.0, 41)
    cells = -np.ones(len(edges) - 1)
    prof = SupergradientProfile(
        edges=edges,
        phi0=np.expm1,
        phi1=lambda t: step_value(edges, cells, -1.0, t),
    )
    G = BreakthroughDistribution.exponential(1.0)
    worst = float(np.nanmax(np.abs(euler_residual(prof, G))))
    ok = worst < 1e-9

    grid = TimeGrid(horizon=2.0, step=0.25, r=2.0)
    m = Mechanism.from_grid(grid, np.full(grid.n_cells, 0.3), x0_tail=0.3)
    bounds = integrability_bounds(prof, G, m)
    ok &= bounds.bound_holds and bounds.slack > 0

    warm = max(
        abs(warmup_identity(BreakthroughDistribution.exponential(1.3), r=1.0) - 1.0),
        abs(warmup_identity(_mixed_G(0.8), r=0.7) - 1.0),
    )
    ok &= warm < 1e-6
    _report(
        "08 euler", ok,
        f"max residual {worst:.2e}, bound slack {bounds.slack:.2e}, warm-up err {warm:.2e}",
    )


def test_09_strict_concavity():
    tech = _quad_tech()
    rng = np.random.default_rng(42)
    min_gap, all_valid = np.inf, True
    for _ in range(1000):
        m, m_dag = _random_mechanism(rng), _random_mechanism(rng)
        lam = float(rng.uniform(0.05, 0.95))
        G = BreakthroughDistribution.exponential(float(rng.uniform(0.5, 2.0)))
        gap, valid = strict_concavity_probe(m, m_dag, lam, tech, G)
        min_gap = min(min_gap, gap)
        all_valid &= valid
    ok = all_valid and min_gap > 0
    _report("09 strict-concavity", ok, f"min probe gap {min_gap:.2e}")


def test_10_smoothing():
    ok, worst_bound = True, 0.0
    for tech in (_smooth_fixture(), _kinked_fixture()):
        pairs = build_sequence(tech, (8, 16, 32, 64))
        for pair in pairs:
            p = pair.params
            for u in np.linspace(1.0 / p.n, tech.u0 - 2.0 / p.n, 33):
                u = float(u)
                for f_src, f_n in ((tech.f0, pair.f0n), (tech.f1, pair.f1n)):
                    d = f_n.right_deriv(u)
                    viol = max(
                        d - f_src.right_deriv(u),
                        (f_src.left_deriv(u + 1.0 / p.n) - 1.0) - d,
                    )
                    worst_bound = max(worst_bound, viol)
                    ok &= viol <= 1e-9
                ok &= pair.gap(u) >= p.zeta - 2 * p.eps - 1e-9
            ok &= tech.u0 - 1.0 / p.n - 1e-9 <= pair.u0_n <= tech.u0 + 1e-9
            ok &= abs(pair.u1_n - tech.u1) <= 1.0 / p.n + 1e-9

        grid = np.linspace(0.13, 0.24, 81)
        f0_src, f1_src = tech.f0.value(grid), tech.f1.value(grid)
        errs = [
            max(
                float(np.max(np.abs(pair.f0n.value(grid) - f0_src))),
                float(np.max(np.abs(pair.f1n.value(grid) - f1_src))),
            )
            for pair in pairs
        ]
        ok &= all(b <= a + 1e-12 for a, b in zip(errs[:-1], errs[1:]))
    _report("10 smoothing", ok, f"worst derivative-bound violation {worst_bound:.2e}")
