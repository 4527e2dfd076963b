"""The moral-hazard Technology build against its one-step reference, bit for bit.

The build takes two shortcuts: `gap_argmax` certifies ``u* = 0`` from two
slopes instead of running golden section, and the ``u1`` bisection runs on
`technology._u1_condition`, which answers its far steps from two guards. The
reference is the path without them: the 601-point grid, `golden_section_max`
on ``[us[i-2], us[i+2]]``, `_checked_gap_argmax`, and the plain
``bisect(u1_foc, 0.0, u0, tol=1e-12)``.
"""

import math

import numpy as np

import frontierkit as fk
from frontierkit import frontiers, technology
from frontierkit.roots import golden_section_max
from test_lookahead import PINNED

# lambda, w, phi.exponent and kappa.exponent of `mh-smooth-sweep` in perfbench/workloads.py
SMOOTH_BOX = ((0.9, 1.1), (0.9, 1.1), (0.45, 0.55), (1.8, 2.2))


def reference_gap_argmax(f0, f1, hi):
    gap = lambda u: f1.value(u) - f0.value(u)
    us = np.linspace(0.0, hi, 601)
    i = int(np.argmax(gap(us)))
    return golden_section_max(gap, float(us[max(0, i - 2)]), float(us[min(600, i + 2)]), tol=1e-12)


def outcome(inst):
    """``(u0, u1, u_star)`` as hex strings, or the type and text of the error."""
    lam, w, a, b = inst
    try:
        prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
        tech = fk.make_moral_hazard_technology(prims)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    return tech.u0.hex(), tech.u1.hex(), tech.u_star.hex()


def reference_outcome(inst, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(technology, "gap_argmax", reference_gap_argmax)
        # the plain condition: `bisect(u1_foc, 0.0, u0, tol=1e-12)`
        m.setattr(technology, "_u1_condition", lambda u1_foc, *rest: u1_foc)
        return outcome(inst)


def box_configs(count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(float(rng.uniform(lo, hi)) for lo, hi in SMOOTH_BOX) for _ in range(count)]


def wide_configs(count, seed):
    # lambda and w over four decades, phi.exponent from 1e-12 to 0.99 (log
    # scale below 0.05), kappa.exponent from 1.01 to 8: corners, refusals
    # and tiny exponents whose u1 condition is rounding-dominated included
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        lam, w = 10.0 ** rng.uniform(-2.0, 2.0, 2)
        tiny = rng.random() < 0.3
        a = 10.0 ** rng.uniform(-12.0, math.log10(0.05)) if tiny else float(rng.uniform(0.05, 0.99))
        out.append((float(lam), float(w), a, float(rng.uniform(1.01, 8.0))))
    return out


CONFIGS = (
    [inst for inst, _, _ in PINNED]
    + box_configs(200, 20261019)
    + wide_configs(200, 20261020)
    # the CLI's tiny `phi.exponent` cases, whose u1 condition is rounding
    + [(1.0, 1.0, a, 2.0) for a in (1e-7, 1e-8, 1e-12, 1e-16, 1e-17, 1e-20, 1e-300)]
    # built, with u0 - u1 below the guards' half-width: the effort solve has no
    # bracket just above u0, where an upper guard would fall
    + [
        (0.017543434968738916, 1.4857360146665404, 5.043791355166327e-12, 1.2138866499101868),
        (0.006752754450929283, 0.09450124486106361, 3.4283322095622814e-15, 1.5086077665510969),
        (0.0015308871289022412, 0.001244212406415195, 1.823869738722041e-13, 3.4250887116260325),
    ]
)


def test_build_is_the_reference_bit_for_bit(monkeypatch):
    outcomes = [outcome(inst) for inst in CONFIGS]
    references = [reference_outcome(inst, monkeypatch) for inst in CONFIGS]
    mismatched = [(inst, got, ref) for inst, got, ref in zip(CONFIGS, outcomes, references) if got != ref]
    assert not mismatched
    # the sample holds corners (u1 = 0) and refusals as well as interior peaks
    built = [o for o in outcomes if len(o) == 3]
    assert sum(o[1] == (0.0).hex() for o in built) >= 1
    assert len(built) >= 300 and len(outcomes) - len(built) >= 10


def test_default_build_counts(monkeypatch, default_prims):
    counts = {"grid": 0, "golden": 0, "scalar": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(technology, "effort_star_array", counted("grid", technology.effort_star_array))
    monkeypatch.setattr(technology, "effort_star", counted("scalar", technology.effort_star))
    monkeypatch.setattr(frontiers, "golden_section_max", counted("golden", frontiers.golden_section_max))
    tech = fk.make_moral_hazard_technology(default_prims)
    assert tech.u_star == 0.0
    # F1's one array call is the gap search's grid
    assert counts["grid"] == 1 and counts["golden"] == 0
    assert counts["scalar"] <= 18
