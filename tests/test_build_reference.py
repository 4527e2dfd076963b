"""The moral-hazard Technology build against its full reference, bit for bit.

The build takes two shortcuts. It sets ``u* = 0`` from the envelope theorem
(the gap's slope is negative on ``[0, inf)``) instead of searching for it,
and the ``u1`` bisection runs on `technology._u1_condition`, which answers
its far steps from two guards. The reference is the path without them: the
plain ``bisect(u1_foc, 0.0, u0, tol=1e-12)``, then the search the build used
to run, the 601-point grid and `golden_section_max` on ``[us[i-2], us[i+2]]``
followed by the trust step below.
"""

import math

import numpy as np

import frontierkit as fk
from frontierkit import technology
from frontierkit.roots import golden_section_max
from test_lookahead import PINNED

# lambda, w, phi.exponent and kappa.exponent of `mh-smooth-sweep` in perfbench/workloads.py
SMOOTH_BOX = ((0.9, 1.1), (0.9, 1.1), (0.45, 0.55), (1.8, 2.2))


def reference_u_star(tech):
    """The gap's argmax on ``[0, u0]`` by search: grid, golden section, and a
    trust step that keeps an end whose gap is within 1e-12 of the candidate's
    and holds an interior candidate to a one-sided first-order check."""
    f0, f1, hi = tech.f0, tech.f1, tech.u0
    gap = lambda u: f1.value(u) - f0.value(u)
    us = np.linspace(0.0, hi, 601)
    i = int(np.argmax(gap(us)))
    cand = golden_section_max(gap, float(us[max(0, i - 2)]), float(us[min(600, i + 2)]), tol=1e-12)
    g0, g_cand, g_hi = gap(np.array([0.0, cand, hi])).tolist()
    if g0 >= g_cand - 1e-12:
        return 0.0
    if g_hi >= g_cand - 1e-12:
        return hi
    right = f1.right_deriv(cand) - f0.right_deriv(cand)
    left = f1.left_deriv(cand) - f0.left_deriv(cand)
    if not (right <= 1e-6 and left >= -1e-6):
        raise fk.DivergenceViolation(f"gap argmax candidate {cand:g} fails the one-sided derivative check")
    return cand


def outcome(inst, u_star=lambda tech: tech.u_star):
    """``(u0, u1, u_star(tech))`` as hex strings, or the type and text of the error."""
    lam, w, a, b = inst
    try:
        prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
        tech = fk.make_moral_hazard_technology(prims)
        return tech.u0.hex(), tech.u1.hex(), u_star(tech).hex()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)


def reference_outcome(inst, monkeypatch):
    with monkeypatch.context() as m:
        # the plain condition: `bisect(u1_foc, 0.0, u0, tol=1e-12)`
        m.setattr(technology, "_u1_condition", lambda u1_foc, *rest: u1_foc)
        return outcome(inst, reference_u_star)


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
    # u0 - u1 below the guards' half-width: the effort solve has no bracket
    # just above u0, where an upper guard would fall. phi_inv overflows there
    # too, so the build now refuses all three
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
    # the sample holds corners (u1 = 0) and refusals as well as interior peaks,
    # and the search finds u* = 0 on every built one, +0.0 as the build sets it
    built = [o for o in outcomes if len(o) == 3]
    assert all(o[2] == (0.0).hex() for o in built)
    assert sum(o[1] == (0.0).hex() for o in built) >= 1
    assert len(built) >= 300 and len(outcomes) - len(built) >= 10


def build_counts(monkeypatch, prims):
    """The Technology built from ``prims`` and the effort solves its build made."""
    counts = {"array": 0, "scalar": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(technology, "effort_star_array", counted("array", technology.effort_star_array))
    monkeypatch.setattr(technology, "effort_star", counted("scalar", technology.effort_star))
    return fk.make_moral_hazard_technology(prims), counts


def test_default_build_counts(monkeypatch, default_prims):
    tech, counts = build_counts(monkeypatch, default_prims)
    assert tech.u_star == 0.0
    # no gap search, so no call of F1's values; the scalar solves are the u1
    # bisection's: the corner test, two guards 32 steps either side of the
    # identity's u1 and the steps between them
    assert counts["array"] == 0
    assert counts["scalar"] <= 10


# u1 lies within a step of the identity's estimate, but the u1 condition is so
# flat there that the guards 32 steps away stay inside its margin
FLAT_U1 = (0.05371968940179944, 1.5800806265297505, 0.6891656120894794, 4.031721092803687)


def test_wide_u1_guards_save_effort_solves(monkeypatch):
    assert FLAT_U1 in CONFIGS  # so its u1 is checked against the reference
    lam, w, a, b = FLAT_U1
    prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
    _, counts = build_counts(monkeypatch, prims)
    # the wide guards 2048 steps away certify: the corner test, four guards and
    # about 13 steps, where the plain bisection makes about 50 solves
    assert counts["scalar"] <= 20
