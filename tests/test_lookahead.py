"""The lookahead frontier searches against one-step references, and their cost."""

import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import bisect_reference
import frontierkit as fk
from frontierkit import frontiers, roots, smoothing, technology
from frontierkit.roots import bisect_predicate_array, golden_section_max

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_reference(f, lo, hi, tol=1e-10):
    """Golden section with one scalar probe per step."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class Recorder:
    """An elementwise oracle that records each call's points."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, us):
        self.calls.append(np.array(us, dtype=float))
        return self.fn(us)

    @property
    def points(self):
        return np.concatenate(self.calls) if self.calls else np.empty(0)


def unimodal_oracles(rng, lo, hi):
    p = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo))
    q = rng.uniform(0.5, 3.0)
    yield lambda x: -np.abs(x - p) ** q
    # flat runs make the two inner values tie
    yield lambda x: -np.round(np.abs(x - p), 2)
    # -inf away from the peak, where the two inner values also tie
    yield lambda x: np.where(np.abs(x - p) < 0.1 * (hi - lo), -((x - p) ** 2), -np.inf)


@pytest.mark.parametrize("depth", [1, 2, 4, 5, 6])
def test_golden_section_is_the_one_step_search_bit_for_bit(monkeypatch, depth):
    monkeypatch.setattr(roots, "LOOKAHEAD", depth)
    rng = np.random.default_rng(depth)
    for _ in range(40):
        lo = rng.uniform(-2.0, 2.0)
        hi = lo + 10.0 ** rng.uniform(-6, 2)
        for tol in (1e-12, 1e-10, 1e-4, 0.3 * (hi - lo), hi - lo, 2.0 * (hi - lo)):
            for fn in unimodal_oracles(rng, lo, hi):
                f = Recorder(fn)
                got = golden_section_max(f, lo, hi, tol=tol)
                steps = []
                ref = golden_reference(lambda x: steps.append(x) or fn(x), lo, hi, tol=tol)
                assert got == ref
                # the reference's last probe cannot move its result, so it is skipped
                assert len(f.calls) <= 1 + math.ceil(max(len(steps) - 3, 0) / depth)
                assert np.all((lo <= f.points) & (f.points <= hi))


# (code, argmax): searches whose tolerance lies below the float spacing at
# the argmax, where the bracket stops shrinking. Each used to run forever
STOP_RULE = {
    "golden-tol-0": ("roots.golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=0.0)", 0.3),
    **{
        f"gap-argmax-at-{hi:g}": (
            f"fk.gap_argmax(fk.QuadraticFrontier(0, 1, -1e-9), fk.QuadraticFrontier(0, 3, -1e-9), {hi!r})",
            hi,
        )
        for hi in (9000.0, 2e4, 1e8)
    },
}


@pytest.mark.parametrize("code, argmax", STOP_RULE.values(), ids=STOP_RULE.keys())
def test_golden_section_stops_where_the_floats_stop_it(code, argmax):
    # in a subprocess with a timeout, so that a search that cycles fails
    # the test instead of hanging it
    src = os.path.dirname(os.path.dirname(fk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", f"import frontierkit as fk; from frontierkit import roots; print(repr({code}))"],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert abs(float(run.stdout) - argmax) <= 8 * math.ulp(argmax)


@pytest.mark.parametrize("depth", [1, 3, 5, 6])
def test_bisection_is_the_one_step_search_bit_for_bit(monkeypatch, depth):
    monkeypatch.setattr(roots, "LOOKAHEAD", depth)
    rng = np.random.default_rng(10 + depth)
    brackets = [(0.0, 2.0), (-1.0, 1.0), (-1e300, 1e300), (1.0, np.nextafter(1.0, 2.0)), (0.5, 0.5)]
    brackets += [tuple(sorted(rng.uniform(-3.0, 3.0, 2))) for _ in range(30)]
    for lo, hi in brackets:
        for switch in (lo, hi, 0.0, rng.uniform(lo, hi), np.nextafter(hi, -np.inf)):
            # (values, level, strict): x < switch, x <= switch and arctan(x) < 0.5
            tests = [(np.negative, -switch, True), (np.negative, -switch, False), (lambda x: -np.arctan(x), -0.5, True)]
            for fn, level, strict in tests:
                f = Recorder(fn)
                test = operator.gt if strict else operator.ge
                probed = []
                ref = bisect_reference(lambda x: probed.append(x) or test(fn(x), level), lo, hi)
                assert bisect_predicate_array(f, lo, hi, level, strict) == ref
                # the tree of each call resolves `depth` steps, so no call resolves fewer
                assert len(f.calls) <= math.ceil(len(probed) / depth)
                assert np.all((lo < f.points) & (f.points < hi))


def test_bisection_follows_the_secant_guess_on_a_smooth_oracle():
    # arctan(x) < 0.5 on [0, 2]: 53 halvings, which the tree alone covers in
    # 9 calls. The first call has no value to guess from; after it each
    # secant guess holds for about twice as many steps as the last
    probed = []
    ref = bisect_reference(lambda x: probed.append(x) or np.arctan(x) < 0.5, 0.0, 2.0)
    f = Recorder(lambda x: -np.arctan(x))
    assert bisect_predicate_array(f, 0.0, 2.0, -0.5) == ref
    assert math.ceil(len(probed) / roots.LOOKAHEAD) == 9
    assert len(f.calls) == 5


def test_bisection_guess_skips_infinite_and_nan_values():
    # the test is true below 0.3 and false above. The values are +inf just
    # below the switch, and -inf, then NaN, well above it
    def fn(x):
        with np.errstate(invalid="ignore"):
            v = np.where((x > 0.2) & (x < 0.3), np.inf, 0.3 - x)
            return np.where(x > 0.9, np.nan, np.where(x > 0.5, -np.inf, v))

    # calls: the secant through the finite values on either side of the switch
    # holds from the second call on. Above 0.29 every true value is +inf, so
    # there is no guess and the trees resolve 6 steps a call; the widest
    # bracket's trees see no finite value at all
    probed = []
    wide = np.float64(1e300)
    for lo, hi, calls in ((0.0, 1.0, 2), (-5.0, 5.0, 2), (0.29, 2.0, 10), (-wide, wide, 34)):
        f = Recorder(fn)
        ref = bisect_reference(lambda x: bool(fn(np.array(x)) > 0.0), lo, hi)
        assert bisect_predicate_array(f, lo, hi, 0.0) == ref
        assert len(f.calls) == calls
        probed.append(fn(f.points))
    values = np.concatenate(probed)
    assert (values == np.inf).any() and (values == -np.inf).any() and np.isnan(values).any()


def test_bisect_returns_exact_zeros_and_rejects_a_same_sign_bracket():
    f = lambda x: x - 1.0
    assert roots.bisect(f, 1.0, 3.0) == 1.0  # at lo
    assert roots.bisect(f, -1.0, 1.0) == 1.0  # at hi
    assert roots.bisect(f, 0.0, 2.0) == 1.0  # at the first midpoint
    with pytest.raises(fk.RootBracketFailure, match="same sign"):
        roots.bisect(f, 2.0, 3.0)


def test_bisection_stops_after_200_halvings():
    probed = []
    lo, hi = bisect_reference(lambda x: probed.append(x) or x < 0.0, -1.0, 1.0)
    assert len(probed) == 200 and (lo, hi) == (-(2.0**-199), 0.0)
    f = Recorder(np.negative)
    assert bisect_predicate_array(f, -1.0, 1.0, 0.0) == (lo, hi)
    assert f.points.size < 2**roots.LOOKAHEAD * 40


def test_bisection_ends_on_adjacent_floats():
    lo, hi = bisect_predicate_array(lambda x: 2.0 - x * x, 0.0, 2.0, 0.0)
    assert lo * lo < 2.0 <= hi * hi
    assert np.nextafter(lo, 3.0) == hi


# (lambda, w, phi.exponent, kappa.exponent), (u0, u1, u_star) and (n, u0_n,
# u1_n, u_star_n) at the smallest admissible level, drawn from the
# `mh-smooth-sweep` box and solved by the one-step searches
PINNED = [
    ((0.9358, 1.028, 0.4967, 1.9482), (0.5352029317537117, 0.3005945522196115, 0.0), (16, 0.5039529317537117, 0.2719551404629621, 0.005323261879206148)),
    ((0.971, 1.0581, 0.5405, 1.8709), (0.5020269753577373, 0.22609384841581065, 0.0), (16, 0.4707769753577373, 0.1986253559266375, 0.005254083494269183)),
    ((1.0306, 0.9597, 0.5467, 2.1679), (0.46550720445437743, 0.23250022673285803, 0.0), (16, 0.43425720445437743, 0.20577458297865653, 0.005630877561712357)),
    ((1.0272, 1.0505, 0.5015, 2.1304), (0.48611833351975764, 0.20862179748877951, 0.0), (16, 0.45486833351975764, 0.18332722993701192, 0.004988118556135535)),
    ((0.9897, 0.9678, 0.4778, 1.8905), (0.5136086500515691, 0.27749826129252425, 0.0), (16, 0.4823586500515691, 0.24987055364161406, 0.005128595875395112)),
    ((1.0052, 0.9862, 0.5163, 1.8051), (0.4910754878129042, 0.23020648723130077, 0.0), (16, 0.4598254878129042, 0.2029592531106484, 0.0051268702439352136)),
    ((0.9895, 0.973, 0.4695, 2.0379), (0.5169516713849873, 0.28755709659857054, 0.0), (16, 0.4857016713849873, 0.2603211413529843, 0.005199805573503509)),
    ((0.9871, 0.96, 0.4709, 2.1498), (0.5175168584519547, 0.3013350927282265, 0.0), (16, 0.4862668584519547, 0.2740853407914209, 0.005361329854812151)),
    ((1.0595, 1.0213, 0.4845, 2.1787), (0.4793220341435449, 0.2050422237406649, 0.0), (16, 0.4480720341435449, 0.18028254531552582, 0.004896608418457659)),
    ((1.0127, 0.9866, 0.54, 1.9277), (0.4779908133069275, 0.22276709900877623, 0.0), (16, 0.4467408133069275, 0.19582820857219527, 0.005360660039124906)),
    ((1.0392, 0.9628, 0.4762, 2.0803), (0.4919131879997246, 0.24765580290922354, 0.0), (16, 0.4606631879997246, 0.22153965883171373, 0.005070742807685031)),
    ((0.9456, 0.9986, 0.508, 1.8756), (0.5264787445921872, 0.2965603622506938, 0.0), (16, 0.49522874459218724, 0.2675856591323656, 0.00538335086689712)),
    ((1.0462, 1.0097, 0.5122, 1.9489), (0.47239984093728715, 0.18814269605229678, 0.0), (16, 0.44114984093728715, 0.16307064890991937, 0.004952609747075126)),
    ((0.984, 0.999, 0.497, 2.0703), (0.50921328343069, 0.2724572198876282, 0.0), (16, 0.47796328343068994, 0.2451071655232568, 0.005293274772779205)),
    ((1.0154, 0.9833, 0.4502, 2.1176), (0.5137580558166834, 0.2731463004615826, 0.0), (16, 0.48250805581668343, 0.24681650751861292, 0.00503605302780924)),
    ((1.0039, 0.9653, 0.5, 1.8374), (0.4980575754553246, 0.2523904184608121, 0.0), (16, 0.4668075754553246, 0.2248815682544007, 0.0051413454103450655)),
    ((1.0809, 1.0979, 0.4559, 1.9433), (0.48513086314693843, 0.12310278999329988, 0.0), (16, 0.45388086314693843, 0.10135503485591742, 0.004284344640545674)),
    ((1.046, 0.9628, 0.5067, 1.9666), (0.4749725545498925, 0.21872462136978071, 0.0), (16, 0.4437225545498925, 0.19271734572430813, 0.00510440625332206)),
    ((1.0548, 1.0917, 0.5388, 2.0484), (0.4562152764338844, 0.1316775048444019, 0.0), (16, 0.4249652764338844, 0.10899610282498517, 0.004897277764762198)),
    ((0.9321, 1.0894, 0.4524, 1.9191), (0.5503492676207267, 0.28563864348363777, 0.0), (16, 0.5190992676207267, 0.2580101934497448, 0.0049065492910210454)),
    # the corner fixture, u1 = 0
    ((1.0, 4.0, 0.5, 2.0), (0.5000000000000453, 0.0, 0.0), (16, 0.4687500000000453, 0.0356523818311181, 0.0019932523013568623)),
]


def smallest_level_pair(tech):
    for n in (16, 32, 64, 128):
        try:
            return fk.build_smooth_pair(tech, fk.SmoothingParams.auto(tech, n))
        except fk.ParamsOutOfRange:
            continue
    raise AssertionError("no admissible level")


@pytest.mark.parametrize("inst, peaks, smoothed", PINNED)
def test_peaks_and_gap_argmaxes_are_pinned(inst, peaks, smoothed):
    lam, w, a, b = inst
    prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
    tech = fk.make_moral_hazard_technology(prims)
    assert (tech.u0, tech.u1, tech.u_star) == peaks
    pair = smallest_level_pair(tech)
    assert (pair.params.n, pair.u0_n, pair.u1_n, pair.u_star_n) == smoothed


def test_golden_section_oracle_calls_over_the_pinned_builds(monkeypatch):
    # known values carry from one tree to the next: 195 calls, where trees
    # that evaluate every point they hold made 198
    calls = []
    search = frontiers.golden_section_max

    def spy(f, *args, **kwargs):
        return search(lambda us: calls.append(len(us)) or f(us), *args, **kwargs)

    monkeypatch.setattr(frontiers, "golden_section_max", spy)
    for (lam, w, a, b), _, _ in PINNED:
        prims = fk.MoralHazardPrimitives(lam=lam, w=w, phi=fk.PowerUtility(a), kappa=fk.PowerCost(b))
        smallest_level_pair(fk.make_moral_hazard_technology(prims))
    assert len(calls) <= 198


def interior_peak_pair():
    # the gap 0.3 + 0.2 u - 0.3 u^2 peaks at u = 1/3
    return fk.QuadraticFrontier(0.0, 1.0, -1.0), fk.QuadraticFrontier(0.3, 1.2, -1.3)


def test_gap_argmax_of_an_interior_peak_is_golden_section_around_the_grid_best():
    f0, f1 = interior_peak_pair()
    gap = lambda u: float(f1.value(u)) - float(f0.value(u))
    us = np.linspace(0.0, 0.5, 601)
    i = int(np.argmax(f1.value(us) - f0.value(us)))
    assert 2 <= i <= 598
    ref = golden_reference(gap, float(us[i - 2]), float(us[i + 2]), tol=1e-12)
    assert 0.0 < ref < 0.5
    assert fk.gap_argmax(f0, f1, 0.5) == ref


def test_technology_trust_step_returns_an_end_or_the_candidate():
    f0, f1 = interior_peak_pair()
    cand = fk.gap_argmax(f0, f1, 0.5)
    assert technology._checked_gap_argmax(f0, f1, cand, 0.5) == cand
    # a falling gap gives the origin, a rising one the upper end
    falling = fk.QuadraticFrontier(1.0, -1.0, -1.0)
    assert technology._checked_gap_argmax(f0, falling, fk.gap_argmax(f0, falling, 0.5), 0.5) == 0.0
    rising = fk.QuadraticFrontier(1.0, 3.0, -1.0)
    assert technology._checked_gap_argmax(f0, rising, fk.gap_argmax(f0, rising, 0.5), 0.5) == 0.5
    # a candidate short of the peak beats both ends but fails the first-order check
    with pytest.raises(fk.DivergenceViolation, match="one-sided derivative check"):
        technology._checked_gap_argmax(f0, f1, 0.8 * cand, 0.5)


def grid_and_golden(f0, f1, hi):
    """`gap_argmax` without its certificate: golden section around the grid's best."""
    gap = lambda u: float(f1.value(u)) - float(f0.value(u))
    us = np.linspace(0.0, hi, 601)
    i = int(np.argmax(f1.value(us) - f0.value(us)))
    return golden_reference(gap, float(us[max(0, i - 2)]), float(us[min(600, i + 2)]), tol=1e-12)


def test_gap_argmax_certifies_the_origin_without_golden_section(monkeypatch):
    golden = []
    search = frontiers.golden_section_max
    monkeypatch.setattr(frontiers, "golden_section_max", lambda *a, **k: golden.append(a) or search(*a, **k))
    f0, _ = interior_peak_pair()
    # the falling pair of the trust-step test: gap 1 - 2u, slopes -1 and 1 - 2 us[2]
    falling = fk.QuadraticFrontier(1.0, -1.0, -1.0)
    assert fk.gap_argmax(f0, falling, 0.5) == 0.0 and not golden
    # golden section would have landed within its tolerance of 0, which the
    # trust step turns into 0 as well
    assert 0.0 < grid_and_golden(f0, falling, 0.5) < 1e-12
    assert technology._checked_gap_argmax(f0, falling, 0.0, 0.5) == 0.0


@pytest.mark.parametrize(
    "f1",
    [
        interior_peak_pair()[1],
        fk.QuadraticFrontier(1.0, 3.0, -1.0),  # rising: the grid peaks at the upper end
        fk.QuadraticFrontier(0.0, 1.0, -2.0),  # gap -u^2: peaks at 0, but flat there
        fk.QuadraticFrontier(6.0, -1.0, -1.0),  # peaks at 0 and falls, but gap(0) = 6
    ],
)
def test_gap_argmax_outside_the_certificate_is_golden_section(monkeypatch, f1):
    golden = []
    search = frontiers.golden_section_max
    monkeypatch.setattr(frontiers, "golden_section_max", lambda *a, **k: golden.append(a) or search(*a, **k))
    f0, _ = interior_peak_pair()
    assert fk.gap_argmax(f0, f1, 0.5) == grid_and_golden(f0, f1, 0.5)
    assert len(golden) == 1


def test_both_builders_call_the_one_gap_argmax(monkeypatch, default_prims):
    assert technology.gap_argmax is smoothing.gap_argmax is frontiers.gap_argmax
    his = []
    search = frontiers.gap_argmax
    spy = lambda f0, f1, hi, *ceiling: his.append(hi) or search(f0, f1, hi, *ceiling)
    for module in (technology, smoothing):
        monkeypatch.setattr(module, "gap_argmax", spy)
    tech = fk.make_moral_hazard_technology(default_prims)
    assert his == [tech.u0]
    pair = fk.build_smooth_pair(tech, fk.SmoothingParams.auto(tech, 16))
    assert his[1:] and all(hi == pair.u0_n for hi in his[1:])


def test_builds_make_few_effort_calls(monkeypatch, default_prims):
    # searches with one probe per step make 86 calls per build and 64 per pair
    calls = []
    solve = technology.effort_star_array
    monkeypatch.setattr(technology, "effort_star_array", lambda p, u: calls.append(1) or solve(p, u))
    tech = fk.make_moral_hazard_technology(default_prims)
    assert len(calls) <= 11
    for n in (16, 32, 64):
        params = fk.SmoothingParams.auto(tech, n)
        calls.clear()
        fk.build_smooth_pair(tech, params)
        assert len(calls) <= 25
