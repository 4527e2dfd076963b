"""Command-line entry point: config ingestion, verification suites, CSV export.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 bad
configuration, 3 computation failed.

Only what every command needs is imported here. Each suite and command
imports `smoothing`, `variational`, `mixture`, `gap_analysis` and `_oracles`
where it uses them, so a command never loads a suite it does not run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, FrontierKitError, ParamsOutOfRange
from .frontiers import (
    INF,
    AffineFrontier,
    CallableFrontier,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
)
from .mechanism import (
    BreakthroughDistribution,
    Mechanism,
    TimeGrid,
    _pinned,
    deadline_for_promise,
    dominance_check,
    make_deadline_mechanism,
    no_delay_improve,
    normalize,
    payoff,
)
from .quadrature import MeasureOnTime, step_value
from .report import VerificationReport
from .technology import (
    MoralHazardPrimitives,
    PowerCost,
    PowerUtility,
    Technology,
    effort_star,
    make_moral_hazard_technology,
    verify_ui_assumptions,
)

EXPORTS = ("frontiers", "mechanism", "residuals", "smoothing")

#: most rows a curve on the u-grid, or cells the time grid, may have: at the
#: post-breakthrough frontier's derivative cost, more would run for minutes
MAX_GRID_ROWS = 100_000

#: the default time grid, ``--horizon`` and ``--grid-step``
_HORIZON, _GRID_STEP = 6.0, 0.05

_DEFAULT_CONFIG = {
    "lambda": 1.0,
    "w": 1.0,
    "phi": {"kind": "power", "exponent": 0.5},
    "kappa": {"kind": "power", "exponent": 2.0},
}


@dataclass
class InstanceConfig:
    """Validated run configuration."""

    lam: float
    w: float
    phi_exponent: float
    kappa_exponent: float
    rate: float = 1.0
    perturb: float = 0.0

    def primitives(self) -> MoralHazardPrimitives:
        return MoralHazardPrimitives(
            lam=self.lam,
            w=self.w,
            phi=PowerUtility(self.phi_exponent),
            kappa=PowerCost(self.kappa_exponent),
        )

    def technology(self) -> Technology:
        return make_moral_hazard_technology(self.primitives())


def _number(value, key: str) -> float:
    """``value`` as a float; booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"key `{key}` must be a finite number, got {value!r}")
    return float(value)


def _positive(data: dict, key: str, default: float) -> float:
    value = _number(data.get(key, default), key)
    if value <= 0:
        raise ConfigError(f"key `{key}` must be a positive number, got {value!r}")
    return value


def _refuse_unknown_keys(data: dict, known: tuple, prefix: str = "") -> None:
    unknown = sorted(map(str, data.keys() - set(known)))
    if unknown:
        raise ConfigError(f"unknown key `{prefix}{unknown[0]}`; expected one of {', '.join(known)}")


def _shape_spec(data: dict, key: str, default: dict) -> float:
    spec = data.get(key, default)
    if not isinstance(spec, dict):
        raise ConfigError(f"key `{key}` must be a mapping with kind/exponent")
    _refuse_unknown_keys(spec, ("kind", "exponent"), f"{key}.")
    kind = spec.get("kind", "power")
    if kind != "power":
        raise ConfigError(f"key `{key}.kind` must be 'power', got {kind!r}")
    return _number(spec.get("exponent"), f"{key}.exponent")


def load_config(path: str | None) -> InstanceConfig:
    if path is None:
        data = dict(_DEFAULT_CONFIG)
    else:
        import yaml  # only a config file needs the parser (about 0.3 MB of peak RSS)

        try:
            with open(path) as fh:
                data = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
    _refuse_unknown_keys(data, ("lambda", "w", "phi", "kappa", "rate", "perturb"))

    phi_exp = _shape_spec(data, "phi", _DEFAULT_CONFIG["phi"])
    if not 0.0 < phi_exp < 1.0:
        raise ConfigError(f"key `phi.exponent` must lie in (0, 1), got {phi_exp}")
    kappa_exp = _shape_spec(data, "kappa", _DEFAULT_CONFIG["kappa"])
    if kappa_exp <= 1.0:
        raise ConfigError(f"key `kappa.exponent` must exceed 1, got {kappa_exp}")

    return InstanceConfig(
        lam=_positive(data, "lambda", 1.0),
        w=_positive(data, "w", 1.0),
        phi_exponent=phi_exp,
        kappa_exponent=kappa_exp,
        rate=_positive(data, "rate", 1.0),
        perturb=_number(data.get("perturb", 0.0), "perturb"),
    )


# ---------------------------------------------------------------------------
# canonical fixtures shared by suites (independent of the config instance)


def _quad_tech() -> Technology:
    f0 = QuadraticFrontier(0.25, 1.0, -1.0)  # 0.5 - (u - 0.5)^2
    f1 = QuadraticFrontier(0.9375, 0.5, -1.0)  # 1 - (u - 0.25)^2
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


def _affine_tech() -> Technology:
    f0 = AffineFrontier(0.2, 0.6, domain=(0.0, 0.5))
    f1 = QuadraticFrontier(0.9375, 0.5, -1.0)
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.25, u_star=0.0)


def _smooth_fixture() -> Technology:
    f0 = QuadraticFrontier(0.25, 1.0, -1.0)
    f1 = QuadraticFrontier(0.9975, 0.1, -1.0)
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.05, u_star=0.0)


def _kinked_fixture() -> Technology:
    f0 = PiecewiseLinearFrontier([0.0, 0.5, 0.7], [0.0, 0.3, 0.28])
    f1 = PiecewiseLinearFrontier([0.0, 0.1, 0.45, 0.7], [0.8, 0.85, 0.8, 0.6])
    return Technology(f0=f0, f1=f1, u0=0.5, u1=0.1, u_star=0.0)


def _mutual_kink_tech() -> Technology:
    f0 = PiecewiseLinearFrontier([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    f1 = PiecewiseLinearFrontier([0.0, 1.0, 1.5], [1.0, 1.5, 0.5])
    return Technology(f0=f0, f1=f1, u0=1.0, u1=1.0, u_star=1.0)


def _local_max_tech() -> Technology:
    f0 = QuadraticFrontier(0.0, 2.0, -1.0)
    f1 = QuadraticFrontier(3.0, 4.0, -2.0)
    return Technology(f0=f0, f1=f1, u0=1.0, u1=1.0, u_star=1.0)


def _saddle_tech() -> Technology:
    f0 = QuadraticFrontier(0.0, 10.0, -5.0)
    f1 = CallableFrontier(
        lambda u: 10.0 * u - 5.0 * u * u - (u - 1.0) ** 3,
        domain=(0.0, 2.0),
        peak=1.0,
    )
    return Technology(f0=f0, f1=f1, u0=1.0, u1=1.0, u_star=1.0)


def _mixed_G(rate: float = 1.0) -> BreakthroughDistribution:
    return BreakthroughDistribution(
        density_edges=np.array([0.0, 1.0]),
        density_values=np.array([0.5]),
        tail_rate=rate,
        tail_mass=0.5,
        tail_start=1.0,
    )


def _random_quadratic(rng) -> QuadraticFrontier:
    peak = float(rng.uniform(0.5, 3.0))
    curv = -float(rng.uniform(0.5, 2.0))
    height = float(rng.uniform(0.0, 2.0))
    return QuadraticFrontier(height + curv * peak * peak, -2.0 * curv * peak, curv)


def _random_mechanism(rng, grid: TimeGrid, hi: float) -> Mechanism:
    return Mechanism.from_grid(
        grid,
        rng.uniform(0.05 * hi, 0.9 * hi, grid.n_cells),
        x0_tail=float(rng.uniform(0.05 * hi, 0.9 * hi)),
    )


# ---------------------------------------------------------------------------
# verification suites


def _suite_ui_assns(cfg, rng, trials, grid) -> VerificationReport:
    tech = cfg.technology()
    return verify_ui_assumptions(tech, np.linspace(0.0, tech.u0, 200))


def _suite_mixture(cfg, rng, trials, grid) -> VerificationReport:
    from ._oracles import brute_force_mixture_value
    from .mixture import FrontierDistribution, mixture_value, verify_mixture_regularity

    rep = VerificationReport("mixture")
    pair = FrontierDistribution(
        [(QuadraticFrontier(-1.0, 2.0, -1.0), 0.5), (QuadraticFrontier(-9.0, 6.0, -1.0), 0.5)]
    )
    us = np.linspace(1.0, 3.0, 21)
    worst = max(abs(mixture_value(pair, float(u))[0] + (u - 2.0) ** 2) for u in us)
    rep.add("closed-form-quadratic-pair", worst < 1e-6, worst)

    rep.extend("regularity/", verify_mixture_regularity(pair, np.linspace(1.0, 3.0, 9)))

    worst = 0.0
    for _ in range(trials):
        members = [_random_quadratic(rng) for _ in range(int(rng.integers(2, 5)))]
        probs = rng.dirichlet(np.ones(len(members)))
        dist = FrontierDistribution(list(zip(members, probs)))
        u = float(rng.uniform(0.5, 2.5))
        value, _ = mixture_value(dist, u)
        oracle = brute_force_mixture_value(dist, u)
        worst = max(worst, abs(value - oracle))
    rep.add("water-filling-vs-brute-force", worst < 1e-5, worst, note=f"{trials} trials")
    return rep


def _suite_saddle(cfg, rng, trials, grid) -> VerificationReport:
    from .gap_analysis import GapKind, classify_u_star

    rep = VerificationReport("saddle")
    # the build refuses a bad config; a built one has u* = 0, where the
    # trichotomy does not apply
    cfg.technology()
    rep.add("config-instance", True, note="gap argmax at the origin; trichotomy not applicable")

    kinked = classify_u_star(_mutual_kink_tech())
    w = kinked.witness
    chain_ok = (
        kinked.kind == GapKind.MUTUAL_KINK
        and w.f1_right < w.f0_right
        and w.f1_left < w.f0_left
        and w.shared_interval[0] <= w.shared_interval[1]
    )
    rep.add("mutual-kink-fixture", chain_ok)
    rep.add("local-max-fixture", classify_u_star(_local_max_tech()).kind == GapKind.LOCAL_MAX)
    rep.add("saddle-fixture", classify_u_star(_saddle_tech()).kind == GapKind.SADDLE)
    return rep


# `verify no-delay` draws an explicit promise in `--trials` trials, at most
# this many: one costs as much as a trial of the first line
_EXPLICIT_PROMISE_TRIALS = 100


def _suite_no_delay(cfg, rng, trials, grid) -> VerificationReport:
    rep = VerificationReport("no-delay")
    tech = cfg.technology()

    def gain(m, G):
        return payoff(no_delay_improve(m, tech), tech, G) - payoff(m, tech, G)

    worst_gain, strict_seen = math.inf, 0
    for k in range(trials):
        # the raw draw has its post-breakthrough promise glued to the flow
        # (X1 = X0); the improvement lifts it to max(X0, u1)
        m = _random_mechanism(rng, grid, tech.u0)
        if k % 2 == 0:
            G = BreakthroughDistribution.exponential(float(rng.uniform(0.3, 2.0)))
        else:
            G = _mixed_G(float(rng.uniform(0.5, 1.5)))
        g = gain(m, G)
        worst_gain, strict_seen = min(worst_gain, g), strict_seen + (g > 1e-9)
    # at a corner (u1 = 0) max(X0, u1) = X0, so no improvement can be strict
    corner = tech.u1 == 0.0
    note = "not applicable (corner)" if corner else f"{strict_seen} strict"
    if not corner and not strict_seen:
        # the draws keep X0 above a small u1; a deadline flow's X0 falls to 0
        # after its deadline, where Exp(1) has mass, so lifting it must gain
        T = deadline_for_promise(0.5 * tech.u0, tech, grid)
        deadline = _pinned(make_deadline_mechanism(T, tech, grid))
        g = gain(deadline, BreakthroughDistribution.exponential(1.0))
        worst_gain, strict_seen = min(worst_gain, g), g > 1e-9
        note += f", deadline witness gain {g:.3g}"
    rep.add(
        "no-delay-never-decreases",
        worst_gain > -1e-10,
        worst_violation=max(0.0, -worst_gain),
        note=f"{trials} trials",
    )
    rep.add("no-delay-strict-sometimes", corner or strict_seen > 0, note=note)

    # the lemma's other half: an explicit promise X1 >= X0 above max(X0, u1) is
    # lowered to it. The draws come from a generator of their own, so the
    # lines above keep theirs
    own, worst_gain, count = rng.spawn(1)[0], math.inf, min(trials, _EXPLICIT_PROMISE_TRIALS)
    for k in range(count):
        m = _random_mechanism(own, grid, tech.u0)
        cells = np.maximum(m.X0_edges[:-1], m.X0_edges[1:]) + own.uniform(0.0, 0.6 * tech.u0, grid.n_cells)
        tail = max(m.x0_tail, float(own.uniform(0.0, 1.2 * tech.u0)))
        m = replace(m, X1=partial(step_value, grid.edges, cells, tail))
        rate = float(own.uniform(0.3, 2.0))
        worst_gain = min(worst_gain, gain(m, BreakthroughDistribution.exponential(rate) if k % 2 == 0 else _mixed_G(rate)))
    rep.add(
        "no-delay-explicit-promise",
        worst_gain > -1e-10,
        worst_violation=max(0.0, -worst_gain),
        note=f"{count} trials",
    )

    affine = _affine_tech()
    starts = grid.edges[:-1]
    x0 = np.where(starts < 1.0, 0.5 * affine.u0, np.where(starts < 2.0, affine.u0, 0.0))
    two_step = normalize(Mechanism.from_grid(grid, x0), affine)
    family = [BreakthroughDistribution.point_mass(0.5), BreakthroughDistribution.exponential(1.0)]
    rep.extend("dominance/", dominance_check(two_step, affine, family))
    return rep


def _exact_euler_profile(perturb: float = 0.0) -> SupergradientProfile:
    from .variational import SupergradientProfile

    # G = Exp(1), phi1 = -1, phi0(t) = G/(1-G) = e^t - 1 solves the equation
    edges = np.linspace(0.0, 4.0, 41)
    cells = -np.ones(len(edges) - 1)
    return SupergradientProfile(
        edges=edges,
        phi0=lambda t: (1.0 + perturb) * np.expm1(t),
        phi1=lambda t: step_value(edges, cells, -1.0, t),
    )


def _suite_euler(cfg, rng, trials, grid) -> VerificationReport:
    from .variational import euler_residual, integrability_bounds, warmup_identity

    rep = VerificationReport("euler")
    res = euler_residual(_exact_euler_profile(cfg.perturb), BreakthroughDistribution.exponential(1.0))
    worst = float(np.nanmax(np.abs(res)))
    rep.add("construct-and-check-residual", worst < 1e-9, worst)

    for label, G in (("exponential", BreakthroughDistribution.exponential(1.3)), ("mixed", _mixed_G(0.8))):
        err = abs(warmup_identity(G, r=cfg.rate) - 1.0)
        rep.add(f"warmup-identity-{label}", err < 1e-6, err)

    grid = TimeGrid(horizon=2.0, step=0.25, r=2.0)
    m = Mechanism.from_grid(grid, np.full(grid.n_cells, 0.3), x0_tail=0.3)
    bounds = integrability_bounds(_exact_euler_profile(), BreakthroughDistribution.exponential(1.0), m)
    rep.add("integrability-bound", bounds.bound_holds and bounds.slack > 0, note=f"slack={bounds.slack:.3g}")
    return rep


def _suite_gateaux(cfg, rng, trials, grid) -> VerificationReport:
    from .variational import SupergradientProfile, gateaux_closed_form, gateaux_fd

    rep = VerificationReport("gateaux")
    tech = _quad_tech()
    small = TimeGrid(horizon=2.0, step=0.25, r=cfg.rate)

    m = _random_mechanism(rng, small, tech.u0)
    prof = SupergradientProfile.exact(m, tech)
    zero = gateaux_closed_form(m, m, prof, tech, _mixed_G())
    rep.add("zero-direction-exact", zero == 0.0, abs(zero))

    worst = 0.0
    for _ in range(trials):
        m = _random_mechanism(rng, small, tech.u0)
        m_dag = _random_mechanism(rng, small, tech.u0)
        prof = SupergradientProfile.exact(m, tech)
        G = _mixed_G(float(rng.uniform(0.6, 1.5)))
        closed = gateaux_closed_form(m, m_dag, prof, tech, G)
        fd = gateaux_fd(m, m_dag, tech, G)
        rel = abs(closed - fd) / max(abs(fd), 1e-6)
        worst = max(worst, rel)
    rep.add("closed-vs-finite-difference", worst < 1e-4, worst, note=f"{trials} trials")
    return rep


def _suite_ibp(cfg, rng, trials, grid) -> VerificationReport:
    from .variational import stieltjes_ibp

    rep = VerificationReport("ibp")
    nu = MeasureOnTime(atoms=((1.0, 1.0),))
    lhs, rhs = stieltjes_ibp(nu, 0.0, lambda t: np.ones_like(t), 2.0)
    rep.add("hand-case-atom", abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12)

    worst = 0.0
    done = 0
    while done < trials:
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
    rep.add("randomized-identity", worst < 1e-9, worst, note=f"{trials} trials")
    return rep


def _suite_smoothing(cfg, rng, trials, grid) -> VerificationReport:
    from .smoothing import build_sequence, verify_monster

    rep = VerificationReport("smoothing")
    ns = (8, 16, 32, 64)
    for label, tech in (("smooth", _smooth_fixture()), ("kinked", _kinked_fixture())):
        pairs = build_sequence(tech, ns)
        rep.extend(f"{label}/", verify_monster(tech, pairs))

        bound_ok, gap_ok = True, True
        for pair in pairs:
            p = pair.params
            us = np.linspace(1.0 / p.n, tech.u0 - 2.0 / p.n, 33)
            for f_src, f_n in ((tech.f0, pair.f0n), (tech.f1, pair.f1n)):
                d = f_n.deriv(us, "right")
                bound_ok &= bool(np.all(d <= f_src.deriv(us, "right") + 1e-9))
                bound_ok &= bool(np.all(d >= f_src.deriv(us + 1.0 / p.n, "left") - 1.0 - 1e-9))
            gap_ok &= bool(np.all(pair.gap(us) >= p.zeta - 2 * p.eps - 1e-9))
        rep.add(f"{label}/windowed-derivative-bound", bound_ok)
        rep.add(f"{label}/ordered-with-margin", gap_ok)
    return rep


def _suite_concavity(cfg, rng, trials, grid) -> VerificationReport:
    from .variational import strict_concavity_probe

    rep = VerificationReport("concavity")
    tech = _quad_tech()
    small = TimeGrid(horizon=2.0, step=0.25, r=1.0)
    min_gap, all_valid = math.inf, True
    for _ in range(trials):
        m = _random_mechanism(rng, small, tech.u0)
        m_dag = _random_mechanism(rng, small, tech.u0)
        lam = float(rng.uniform(0.05, 0.95))
        G = BreakthroughDistribution.exponential(float(rng.uniform(0.5, 2.0)))
        gap, valid = strict_concavity_probe(m, m_dag, lam, tech, G)
        min_gap = min(min_gap, gap)
        all_valid &= valid
    rep.add(
        "strictly-concave-in-the-flow",
        all_valid and min_gap > 0,
        worst_violation=max(0.0, -min_gap),
        note=f"{trials} trials, min gap {min_gap:.3g}",
    )
    return rep


_SUITES = {
    "ui-assns": _suite_ui_assns,
    "mixture": _suite_mixture,
    "saddle": _suite_saddle,
    "no-delay": _suite_no_delay,
    "euler": _suite_euler,
    "gateaux": _suite_gateaux,
    "ibp": _suite_ibp,
    "smoothing": _suite_smoothing,
    "concavity": _suite_concavity,
}
SUITES = tuple(_SUITES)


def run_suite(
    cfg: InstanceConfig,
    suite: str,
    seed: int = 42,
    trials: int = 1000,
    grid: TimeGrid | None = None,
) -> VerificationReport:
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}")
    if trials < 1:
        raise ConfigError(f"`--trials` must be at least 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"`--seed` must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    grid = grid or TimeGrid(horizon=_HORIZON, step=_GRID_STEP, r=cfg.rate)
    return _SUITES[suite](cfg, rng, trials, grid)


# ---------------------------------------------------------------------------
# CSV export


def _fmt(x) -> str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _write_csv(path: Path, header: str, rows) -> Path:
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return path


def _out_dir(path) -> Path:
    """The directory ``path``, made with its parents where missing, or a config
    error naming `--out` where it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"`--out` {str(path)!r} cannot be used as an output directory: {exc}") from exc
    return Path(path)


def _curve_grid(u0: float, step: float) -> np.ndarray:
    """The points ``0, step, 2*step, ...`` up to ``u0`` at which curves are
    written; a step that gives more than `MAX_GRID_ROWS` is refused."""
    stop = u0 + 0.5 * step
    if not 0.0 < step < INF or math.ceil(stop / step) > MAX_GRID_ROWS:
        raise ConfigError(
            f"`--grid-step` {step:g} must be finite, positive and give at most "
            f"{MAX_GRID_ROWS} points on [0, u0 = {u0:.6g}]"
        )
    return np.arange(0.0, stop, step)


def _time_grid(horizon: float, step: float, rate: float) -> TimeGrid:
    """The time grid of ``--horizon`` and ``--grid-step``, or a config error
    naming both where `TimeGrid` refuses them or they exceed `MAX_GRID_ROWS`."""
    try:
        grid = TimeGrid(horizon=horizon, step=step, r=rate)
    except ValueError:
        grid = None
    if grid is None or grid.n_cells > MAX_GRID_ROWS:
        raise ConfigError(
            f"`--grid-step` {step:g} must divide `--horizon` {horizon:g} into 1 to {MAX_GRID_ROWS} cells"
        )
    return grid


def _smooth_pairs(tech: Technology, ns, source: str) -> list:
    """The smoothed pairs at levels ``ns``, or a config error naming ``source``
    for a level below `smallest_level` or one the construction cannot smooth."""
    from .smoothing import SmoothingParams, build_smooth_pair, smallest_level

    least = smallest_level(tech)
    if not ns or min(ns) < least:
        raise ConfigError(f"{source} needs levels of {least} or more, so that 1/n < (u0 - u1)/3")
    pairs = []
    for n in ns:
        try:
            pairs.append(build_smooth_pair(tech, SmoothingParams.auto(tech, n)))
        except ParamsOutOfRange as exc:
            raise ConfigError(f"{source} level {n} cannot be smoothed for this config: {exc}") from exc
    return pairs


def _write_frontiers_csv(out: Path, tech: Technology, us: np.ndarray) -> Path:
    f0, f1 = tech.f0, tech.f1
    rows = zip(
        us,
        f0.value(us),
        f1.value(us),
        f0.deriv(us, "left"),
        f0.deriv(us, "right"),
        f1.deriv(us, "left"),
        f1.deriv(us, "right"),
    )
    return _write_csv(out / "frontiers.csv", "u,F0,F1,F0_left,F0_right,F1_left,F1_right", rows)


def _write_smoothing_csv(out: Path, pair, us: np.ndarray) -> Path:
    f0n, f1n = pair.f0n, pair.f1n
    rows = zip(us, f0n.value(us), f1n.value(us), f0n.deriv(us, "right"), f1n.deriv(us, "right"))
    return _write_csv(out / f"smoothing_n{pair.params.n}.csv", "u,F0n,F1n,f0n,f1n", rows)


def export_curves(
    cfg: InstanceConfig,
    what: str,
    out_dir: str | Path = ".",
    grid_step: float = _GRID_STEP,
    horizon: float = _HORIZON,
) -> list[Path]:
    out = _out_dir(out_dir)
    tech = cfg.technology()

    if what == "frontiers":
        return [_write_frontiers_csv(out, tech, _curve_grid(tech.u0, grid_step))]

    if what == "mechanism":
        grid = _time_grid(horizon, grid_step, cfg.rate)
        T = deadline_for_promise(0.5 * tech.u0, tech, grid)
        m = make_deadline_mechanism(T, tech, grid)
        x0 = np.append(m.x0, m.x0_tail)
        rows = zip(m.edges, x0, m.X0_at(m.edges), m.X1_at(m.edges))
        return [_write_csv(out / "mechanism.csv", "t,x0,X0,X1", rows)]

    if what == "residuals":
        from .variational import euler_residual

        G = BreakthroughDistribution.exponential(cfg.rate)
        prof = _exact_euler_profile(cfg.perturb)
        ts = prof.edges
        res = euler_residual(prof, G)
        sf = G.sf(ts)
        phi0 = prof.phi0(ts)
        cum = res - sf * phi0
        rows = zip(ts, res, phi0, cum, sf)
        return [_write_csv(out / "residuals.csv", "t,residual,phi0,cum_phi1_dG,one_minus_G", rows)]

    if what == "smoothing":
        us = _curve_grid(tech.u0, grid_step)
        try:
            pairs = _smooth_pairs(tech, (16, 32, 64), "`export --what smoothing` (levels 16, 32, 64)")
        except ConfigError as exc:
            raise ConfigError(
                f"{exc}; `lambda`, `w`, `phi.exponent` and `kappa.exponent` set u0 - u1, "
                "and `smooth --n-list` builds other levels"
            ) from exc
        return [_write_smoothing_csv(out, pair, us) for pair in pairs]

    raise ConfigError(f"unknown export {what!r}; choose one of {', '.join(EXPORTS)}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_frontier(cfg: InstanceConfig, args) -> int:
    out = _out_dir(args.out) if args.out else None
    tech = cfg.technology()
    print(f"u0 = {tech.u0:.12g}")
    print(f"u1 = {tech.u1:.12g}")
    print(f"u_star = {tech.u_star:.12g}")
    print(f"L_star(u1) = {effort_star(tech.prims, tech.u1):.12g}")
    if out:
        print(f"wrote {_write_frontiers_csv(out, tech, _curve_grid(tech.u0, args.grid_step))}")
    return 0


def _cmd_solve_deadline(cfg: InstanceConfig, args) -> int:
    tech = cfg.technology()
    grid = _time_grid(args.horizon, args.grid_step, cfg.rate)
    try:
        T = deadline_for_promise(args.promise, tech, grid)
    except ValueError as exc:
        raise ConfigError(f"`--promise` must lie in [0, u0]: {exc}") from exc
    print(f"T = {'inf' if math.isinf(T) else format(T, '.12g')}")
    m = make_deadline_mechanism(T, tech, grid)
    for rate in (0.5, 1.0, 2.0):
        G = BreakthroughDistribution.exponential(rate)
        print(f"G=exp({rate:g})  payoff = {payoff(m, tech, G):.12g}")
    return 0


def _cmd_verify(cfg: InstanceConfig, args) -> int:
    out = _out_dir(args.out) if args.out else None
    # only the no-delay suite runs on the time grid
    grid = _time_grid(args.horizon, args.grid_step, cfg.rate) if args.suite == "no-delay" else None
    rep = run_suite(cfg, args.suite, seed=args.seed, trials=args.trials, grid=grid)
    print(rep.render())
    if out:
        (out / f"{args.suite}.txt").write_text(rep.render() + "\n")
    return 0 if rep.overall_pass else 1


def _cmd_smooth(cfg: InstanceConfig, args) -> int:
    from .smoothing import verify_monster

    out = _out_dir(args.out or ".")
    tech = cfg.technology()
    try:
        ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers: {exc}") from exc
    if len(set(ns)) < len(ns):
        raise ConfigError(f"`--n-list` repeats level {next(n for n in ns if ns.count(n) > 1)}")
    pairs = _smooth_pairs(tech, ns, "`--n-list`")
    us = _curve_grid(tech.u0, args.grid_step)
    for pair in pairs:
        print(f"wrote {_write_smoothing_csv(out, pair, us)}")
    rep = verify_monster(tech, pairs)
    (out / "smoothing_report.txt").write_text(rep.render() + "\n")
    print(rep.render())
    return 0 if rep.overall_pass else 1


def _cmd_export(cfg: InstanceConfig, args) -> int:
    paths = export_curves(
        cfg, args.what, args.out or ".", grid_step=args.grid_step, horizon=args.horizon
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


_OPTIONS = {
    "--config": dict(help="YAML instance configuration"),
    "--out": dict(help="output directory for reports and CSV files"),
    "--seed": dict(type=int, default=42, help="RNG seed for randomized suites"),
    "--trials": dict(type=int, default=1000, help="randomized trial count"),
    "--grid-step": dict(type=float, default=_GRID_STEP, help="sampling step"),
    "--horizon": dict(type=float, default=_HORIZON, help="time-grid horizon"),
}


def _build_parser() -> argparse.ArgumentParser:
    # argparse (and the gettext it imports) loads only with the command line:
    # `load_config` and `export_curves` need neither
    import argparse

    parser = argparse.ArgumentParser(prog="frontierkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_, *options):
        """The subcommand ``name`` with ``--config`` and the `_OPTIONS` it reads."""
        cmd = sub.add_parser(name, help=help_)
        for option in ("--config", *options):
            cmd.add_argument(option, **_OPTIONS[option])
        return cmd

    command("frontier", "print peak values, optionally export curves", "--out", "--grid-step")
    sd = command("solve-deadline", "deadline for a promise plus payoffs", "--grid-step", "--horizon")
    sd.add_argument("--promise", type=float, required=True, help="initial promised utility")
    v = command("verify", "run a verification suite", "--out", "--seed", "--trials", "--grid-step", "--horizon")
    v.add_argument("suite", choices=SUITES)
    sm = command("smooth", "build and certify smoothing levels", "--out", "--grid-step")
    sm.add_argument("--n-list", default="16,32,64", help="comma-separated smoothing levels")
    ex = command("export", "write CSV curves", "--out", "--grid-step", "--horizon")
    ex.add_argument("--what", choices=EXPORTS, required=True)
    return parser


_COMMANDS = {
    "frontier": _cmd_frontier,
    "solve-deadline": _cmd_solve_deadline,
    "verify": _cmd_verify,
    "smooth": _cmd_smooth,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FrontierKitError, ValueError, ArithmeticError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
