"""Command-line behavior: exit codes, config validation, CSV export contracts."""

import contextlib
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from frontierkit import cli
from frontierkit.cli import export_curves, load_config, main, run_suite
from frontierkit.errors import ConfigError, FrontierKitError
from frontierkit.mechanism import TimeGrid
from frontierkit.variational import SupergradientProfile, gateaux_closed_form, gateaux_fd


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.lam == 1.0 and cfg.w == 1.0
        assert cfg.phi_exponent == 0.5 and cfg.kappa_exponent == 2.0

    def test_negative_lambda_names_key(self, tmp_path):
        # NaN, infinities and booleans are rejected like a negative number
        cases = [
            ("lambda: -1", "lambda"),
            ("lambda: .nan", "lambda"),
            ("lambda: true", "lambda"),
            ("w: .inf", "w"),
            ("w: -.inf", "w"),
            ("rate: .nan", "rate"),
            ("rate: false", "rate"),
            ("perturb: .inf", "perturb"),
            ("perturb: true", "perturb"),
            ("phi: {kind: power, exponent: .nan}", "phi.exponent"),
            ("phi: {kind: power, exponent: true}", "phi.exponent"),
            ("kappa: {kind: power, exponent: .inf}", "kappa.exponent"),
            ("kappa: {kind: power, exponent: true}", "kappa.exponent"),
        ]
        path = tmp_path / "bad.yaml"
        for text, key in cases:
            path.write_text(text + "\n")
            with pytest.raises(ConfigError, match=f"`{key}`"):
                load_config(str(path))

    def test_bad_phi_exponent_names_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("phi: {kind: power, exponent: 1.5}\n")
        with pytest.raises(ConfigError, match="phi.exponent"):
            load_config(str(path))

    def test_unknown_key_is_config_error_naming_it(self, tmp_path, capsys):
        # YAML keys may be ints, bools or null: the first in string order is named
        cases = [
            ("lamda: 3.0", "lamda"),
            ("phi: {exponent: 0.5, expo: 3}", "phi.expo"),
            ("kappa: {kind: power, exponent: 2.0, shape: 1}", "kappa.shape"),
            ("lambda: 1.0\ntrue: 1\nnull: 2\n7: 3", "7"),
            ("phi: {exponent: 0.5, false: 1, null: 2}", "phi.False"),
        ]
        path = tmp_path / "typo.yaml"
        for text, key in cases:
            path.write_text(text + "\n")
            assert main(["frontier", "--config", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert f"unknown key `{key}`" in err

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/conf.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("lambda: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestExitCodes:
    def test_frontier_prints_default_peaks(self, capsys):
        assert main(["frontier"]) == 0
        out = capsys.readouterr().out
        assert "u0 = 0.5" in out and "u1 = 0.25" in out and "L_star(u1) = 0.5" in out

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        for text, key in (("w: 0", "w"), ("lambda: .nan", "lambda"), ("w: .inf", "w"), ("lambda: true", "lambda")):
            path.write_text(text + "\n")
            assert main(["verify", "ui-assns", "--config", str(path)]) == 2
            assert f"`{key}`" in capsys.readouterr().err

    def test_unresolvable_peak_gap_is_exit_2(self, tmp_path, capsys):
        # u0 - u1 = kappa(L1) = 1.7e-19 at u0 = 2.45: the u1 bisection used to
        # lose its bracket and exit 3 with a message that named no key
        path = tmp_path / "corner.yaml"
        path.write_text(
            "lambda: 0.2204\nw: 0.1626\nphi: {kind: power, exponent: 0.5139}\n"
            "kappa: {kind: power, exponent: 1.0857}\n"
        )
        assert main(["frontier", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "within 16 solver steps" in err
        for key in ("lambda", "w", "phi.exponent", "kappa.exponent"):
            assert f"`{key}`" in err

    @pytest.mark.parametrize("argv", [["frontier"], ["verify", "ui-assns"]])
    def test_frontiers_overflowing_just_above_u0_is_exit_2(self, tmp_path, capsys, argv):
        # u0 = 0.99999999989, but phi_inv overflows from about 1 + 3.6e-9 on:
        # this was built, with F0 and F1 -inf at every point above about 1.0
        path = tmp_path / "overflow.yaml"
        path.write_text(
            "lambda: 0.017543434968738916\nw: 1.4857360146665404\n"
            "phi: {kind: power, exponent: 5.043791355166327e-12}\n"
            "kappa: {kind: power, exponent: 1.2138866499101868}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "`phi.exponent`" in err and "overflow" in err

    @pytest.mark.parametrize("exponent", ["1.0e-16", "1.0e-17", "1.0e-20", "1.0e-300"])
    def test_tiny_phi_exponent_is_exit_2(self, tmp_path, capsys, exponent):
        # phi_inv's rounding reaches the u1 condition: these used to print
        # u1 = 0 or 0.99937 where u0 - u1 = kappa(L1) = 0.25, with exit 0,
        # and from 1e-20 on a RuntimeWarning reached stderr
        path = tmp_path / "tiny.yaml"
        path.write_text(f"phi: {{kind: power, exponent: {exponent}}}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["frontier", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "`phi.exponent`" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "text, keys",
        [
            # validate() rejects the primitives: no interior effort maximizer
            (
                "w: 5\nphi: {kind: power, exponent: 0.95}\nkappa: {kind: power, exponent: 1.05}\n",
                ("w", "phi.exponent", "kappa.exponent"),
            ),
            # u0 = (a/lambda)**(a/(1-a)) is about 1e197, past the peak solver's bracket
            ("lambda: 0.01\nphi: {kind: power, exponent: 0.99}\n", ("lambda", "phi.exponent")),
        ],
    )
    def test_inadmissible_primitives_are_exit_2(self, tmp_path, capsys, text, keys):
        path = tmp_path / "prims.yaml"
        path.write_text(text)
        assert main(["frontier", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        for key in keys:
            assert f"`{key}`" in err

    def test_extreme_exponent_emits_no_warnings(self, tmp_path, capsys):
        path = tmp_path / "small.yaml"
        path.write_text("phi: {kind: power, exponent: 0.01}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["frontier", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_failing_check_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "pert.yaml"
        path.write_text("perturb: 0.01\n")
        assert main(["verify", "euler", "--config", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_passing_suite_is_exit_0(self, tmp_path, capsys):
        rc = main(["verify", "ui-assns", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "ui-assns.txt").read_text().endswith("overall: PASS\n")


_ANY = st.one_of(
    st.floats(),
    st.floats(min_value=0.05, max_value=20.0),
    st.integers(-3, 3),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
_EXPONENT = st.one_of(
    _ANY,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e6),
    st.sampled_from([5e-324, 1e-300, 1e-8, 1.0 - 1e-16, 1.0 + 2.3e-16, 1e300]),
)
_SHAPE = st.one_of(
    _ANY,
    st.fixed_dictionaries(
        {}, optional={"kind": st.one_of(st.just("power"), _ANY), "exponent": _EXPONENT}
    ),
)
_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "lambda": _ANY,
        "w": _ANY,
        "rate": _ANY,
        "perturb": _ANY,
        "phi": _SHAPE,
        "kappa": _SHAPE,
        "unknown": _ANY,
    },
)


@given(config=_CONFIGS)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_fuzzed_config_exits_0_or_2_and_names_the_key(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("fuzz") / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["frontier", "--config", str(path)])
    err = err.getvalue()
    assert rc in (0, 2), err
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert re.search(r"`[a-z.]+`", err), err


# the box of configs that every command should accept or refuse by name
_BOX = st.fixed_dictionaries(
    {
        "lambda": st.floats(0.03, 30.0),
        "w": st.floats(0.03, 30.0),
        "phi": st.fixed_dictionaries({"kind": st.just("power"), "exponent": st.floats(0.05, 0.95)}),
        "kappa": st.fixed_dictionaries({"kind": st.just("power"), "exponent": st.floats(1.05, 6.0)}),
        "rate": st.floats(0.3, 3.0),
    }
)


def run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def out_option(argv, out):
    """``--out out`` for a command that takes it; `solve-deadline` writes no file."""
    return [] if argv[0] == "solve-deadline" else ["--out", str(out)]


def run_on_config(tmp_path_factory, config, argv):
    """Run ``argv`` on ``config``; it must exit 0 with empty stderr, or exit 2
    with one line that names a key. (The no-delay test below keeps its own
    copy: a derandomized Hypothesis test draws its examples from a seed
    hashed from its source.)"""
    out = tmp_path_factory.mktemp("box")
    path = out / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    rc, err = run_quietly([*argv, "--config", str(path), *out_option(argv, out)])
    assert rc in (0, 2), err
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert re.search(r"`[-a-z.]+`", err), err


@given(config=_BOX)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_no_delay_on_the_config_box_exits_0_or_2_and_names_the_key(tmp_path_factory, config):
    # most of the box is corners (u1 = 0), where no improvement can be strict
    path = tmp_path_factory.mktemp("box") / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    rc, err = run_quietly(["verify", "no-delay", "--trials", "2", "--config", str(path)])
    assert rc in (0, 2), err
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert re.search(r"`[a-z.]+`", err), err


def _interior(config) -> bool:
    """Whether ``config`` builds a technology whose u1 is interior (u1 > 0)."""
    cfg = cli.InstanceConfig(
        config["lambda"], config["w"], config["phi"]["exponent"], config["kappa"]["exponent"], config["rate"]
    )
    try:
        return cfg.technology().u1 > 0.0
    except FrontierKitError:
        return False


# u1 is small against u0: the random flows keep X0 above it, so only the
# deadline witness gains strictly
_SMALL_U1 = {
    "lambda": 1.5,
    "w": 1.5,
    "phi": {"kind": "power", "exponent": 0.125},
    "kappa": {"kind": "power", "exponent": 3.0},
    "rate": 1.0,
}


@given(config=_BOX.filter(_interior))
@example(config=_SMALL_U1)
@settings(
    max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much]
)
def test_no_delay_on_the_interior_box_exits_0_or_2_and_names_the_key(tmp_path_factory, config):
    # at an interior u1 the improvement must be strict somewhere
    run_on_config(tmp_path_factory, config, ["verify", "no-delay", "--trials", "20"])


def run_verify(suite, path, trials):
    rc, err = run_quietly(["verify", suite, "--trials", str(trials), "--config", str(path)])
    assert (rc, err) == (0, "")


@given(config=_BOX)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_euler_passes_on_the_config_box(tmp_path_factory, config):
    # the warm-up identity's tail runs past e^{-rt}'s horizon where G decays
    # slower: at rate 2.75 the mixed G's line read 1.4e-5 against its 1e-6 gate
    path = tmp_path_factory.mktemp("box") / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    run_verify("euler", path, 3)


def test_euler_passes_at_rate_2_75(tmp_path):
    path = tmp_path / "rate.yaml"
    path.write_text("rate: 2.75\n")
    run_verify("euler", path, 1000)


@given(config=_BOX)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_gateaux_passes_on_the_config_box(tmp_path_factory, config):
    # the suite reads only the config's rate
    path = tmp_path_factory.mktemp("box") / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    run_verify("gateaux", path, 3)


def test_gateaux_trial_that_failed_at_rate_0_67():
    # trial 260 of `verify gateaux` at seed 42 and rate 0.6725137967407795,
    # drawn as the suite draws it. Its derivative, 1.56e-6, sits near the 1e-6
    # floor of the relative error, so the payoffs' rounding divided by alpha
    # 1e-4 to 1e-6 read 1.6e-4 against the 1e-4 gate; halving alpha from 0.1
    # down to 0.003125 reads 6.4e-8
    rng = np.random.default_rng(42)
    tech = cli._quad_tech()
    grid = TimeGrid(horizon=2.0, step=0.25, r=0.6725137967407795)
    cli._random_mechanism(rng, grid, tech.u0)  # the zero-direction check's
    for _ in range(261):
        m, m_dag = cli._random_mechanism(rng, grid, tech.u0), cli._random_mechanism(rng, grid, tech.u0)
        G = cli._mixed_G(float(rng.uniform(0.6, 1.5)))
    closed = gateaux_closed_form(m, m_dag, SupergradientProfile.exact(m, tech), tech, G)
    fd = gateaux_fd(m, m_dag, tech, G)
    assert (closed.hex(), fd.hex()) == ("0x1.a1ccd19020c00p-20", "0x1.a1cccfcd55554p-20")
    assert abs(closed - fd) / max(abs(fd), 1e-6) < 1e-7


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ui-assns"],
        ["verify", "saddle", "--trials", "3"],
        ["export", "--what", "frontiers"],
        ["solve-deadline", "--promise", "0.2"],
        ["smooth"],
        ["export", "--what", "smoothing"],
        ["export", "--what", "mechanism"],
        ["export", "--what", "residuals"],
        ["frontier"],
    ],
    ids=[
        "verify-ui-assns",
        "verify-saddle",
        "export-frontiers",
        "solve-deadline",
        "smooth",
        "export-smoothing",
        "export-mechanism",
        "export-residuals",
        "frontier",
    ],
)
def test_commands_on_the_config_box_exit_0_or_2_and_name_the_key(tmp_path_factory, argv):
    # the scalar effort solve runs in the peak identity, the derivative checks
    # and the per-row F1 slopes; 0.2 lies above u0 on much of the box
    @given(config=_BOX)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def check(config):
        run_on_config(tmp_path_factory, config, argv)

    check()


class TestTimeGridOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "--what", "mechanism"],
            ["solve-deadline", "--promise", "0.2"],
            ["verify", "no-delay", "--trials", "2"],
        ],
    )
    def test_step_that_does_not_divide_the_horizon_is_config_error(self, tmp_path, argv):
        # used to exit 3 with "horizon must be an integer number of steps"
        rc, err = run_quietly([*argv, "--grid-step", "0.07", *out_option(argv, tmp_path)])
        assert rc == 2
        assert err.startswith("config error:") and "`--grid-step`" in err and "`--horizon`" in err

    @pytest.mark.parametrize("step", ["inf", "1e-300"])
    def test_non_finite_or_overflowing_grid_is_config_error(self, step):
        rc, err = run_quietly(["solve-deadline", "--promise", "0.2", "--grid-step", step])
        assert rc == 2
        assert err.startswith("config error:") and "`--grid-step`" in err

    @pytest.mark.parametrize(
        "argv", [["export", "--what", "smoothing"], ["verify", "gateaux", "--trials", "2"]]
    )
    def test_commands_off_the_time_grid_do_not_build_it(self, tmp_path, argv):
        rc, err = run_quietly([*argv, "--grid-step", "0.07", "--out", str(tmp_path)])
        assert (rc, err) == (0, "")

    def test_export_smoothing_needs_the_least_level(self, tmp_path):
        # lambda 5 gives u0 = 0.1, least level 31; this used to exit 3 with
        # "n=16 too small"
        path = tmp_path / "lam5.yaml"
        path.write_text("lambda: 5.0\n")
        rc, err = run_quietly(["export", "--what", "smoothing", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert err == (
            "config error: `export --what smoothing` (levels 16, 32, 64) needs levels of 31 or more, "
            "so that 1/n < (u0 - u1)/3; `lambda`, `w`, `phi.exponent` and `kappa.exponent` set "
            "u0 - u1, and `smooth --n-list` builds other levels\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_export_smoothing_level_it_cannot_smooth_names_the_keys(self, tmp_path):
        # every level passes 1/n < (u0 - u1)/3, but F0 no longer rises at u0 - 2/16
        path = tmp_path / "flat.yaml"
        path.write_text(
            "lambda: 0.5311829644122512\nw: 14.822339651503583\n"
            "phi: {kind: power, exponent: 0.9244385721021992}\n"
            "kappa: {kind: power, exponent: 2.4630528824886135}\n"
        )
        rc, err = run_quietly(["export", "--what", "smoothing", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert err.startswith("config error: `export --what smoothing` (levels 16, 32, 64) level 16 cannot")
        for key in ("`lambda`", "`w`", "`phi.exponent`", "`kappa.exponent`", "`smooth --n-list`"):
            assert key in err
        assert err.count("\n") == 1 and not list(tmp_path.glob("*.csv"))


_STEPS = st.one_of(st.floats(0.01, 2.0), st.sampled_from([0.07, 0.0, -0.05, 1e-9, math.inf, math.nan]))
_HORIZONS = st.one_of(st.floats(0.05, 20.0), st.sampled_from([6.0, 0.0, -1.0, math.inf, math.nan]))


@st.composite
def _grid_options(draw):
    """``(--grid-step, --horizon)``: half the finite steps get a horizon that
    is a whole number of them."""
    step = draw(_STEPS)
    if math.isfinite(step) and step > 0.0 and draw(st.booleans()):
        return step, step * draw(st.integers(1, 200))
    return step, draw(_HORIZONS)


@pytest.mark.parametrize(
    "argv, examples",
    [
        (["export", "--what", "mechanism"], 50),
        (["solve-deadline", "--promise", "0.2"], 50),
        (["export", "--what", "smoothing"], 15),
    ],
)
def test_grid_options_exit_0_or_2_and_name_the_key(tmp_path_factory, argv, examples):
    @given(options=_grid_options())
    @settings(max_examples=examples, deadline=None, derandomize=True)
    def check(options):
        step, horizon = options
        out = tmp_path_factory.mktemp("grid")
        rc, err = run_quietly([*argv, "--grid-step", repr(step), "--horizon", repr(horizon), *out_option(argv, out)])
        assert rc in (0, 2), err
        if rc == 0:
            assert err == ""
        else:
            assert err.startswith("config error:") and err.count("\n") == 1, err
            assert "`--grid-step`" in err, err

    check()


class TestSuites:
    @pytest.mark.parametrize(
        "suite", ["mixture", "saddle", "euler", "ibp", "gateaux", "concavity"]
    )
    def test_fast_suites_pass(self, suite, capsys):
        assert main(["verify", suite, "--trials", "4"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suite, trials",
        [
            ("saddle", 1000),
            ("ibp", 1000),
            ("euler", 1000),
            ("gateaux", 100),
            ("ui-assns", 1000),
            ("concavity", 1000),
            ("no-delay", 100),
            ("smoothing", 1000),
        ],
    )
    def test_suite_stdout_is_pinned(self, capsys, suite, trials):
        # byte for byte: guards the gap classifier's probe windows, the
        # Stieltjes identity's quadrature and the closed form's node placement
        expected = (Path(__file__).parent / "data" / f"verify_{suite}_{trials}.txt").read_text()
        assert main(["verify", suite, "--trials", str(trials)]) == 0
        out, err = capsys.readouterr()
        assert out == expected and err == ""

    @pytest.mark.parametrize(
        "argv, name",
        [(["frontier"], "frontier"), (["solve-deadline", "--promise", "0.2"], "solve_deadline_0.2")],
        ids=["frontier", "solve-deadline"],
    )
    def test_command_stdout_is_pinned(self, capsys, argv, name):
        expected = (Path(__file__).parent / "data" / f"{name}.txt").read_text()
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == expected and err == ""

    def test_smooth_stdout_and_report_are_pinned(self, tmp_path, monkeypatch, capsys):
        # the stored stdout names its CSV files under the relative directory o
        data = Path(__file__).parent / "data"
        monkeypatch.chdir(tmp_path)
        assert main(["smooth", "--out", "o"]) == 0
        out, err = capsys.readouterr()
        assert out == (data / "smooth.txt").read_text() and err == ""
        report = (tmp_path / "o" / "smoothing_report.txt").read_text()
        assert report == (data / "smoothing_report.txt").read_text()

    def test_smooth_csvs_match_benchmark_digests(self, tmp_path, monkeypatch):
        digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "csv_digests.json").read_text())
        monkeypatch.chdir(tmp_path)
        assert main(["smooth", "--out", "o"]) == 0
        for n in (16, 32, 64):
            name = f"smoothing_n{n}.csv"
            assert hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() == digests[name]

    def test_mixture_suite_at_its_default_trials(self, capsys):
        # the stdout of `verify mixture` before its level search interpolated
        expected = (Path(__file__).parent / "data" / "verify_mixture_1000.txt").read_text()
        assert main(["verify", "mixture"]) == 0
        out, err = capsys.readouterr()
        assert out == expected and err == ""

    def test_no_delay_suite(self, capsys):
        assert main(["verify", "no-delay", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "no-delay-strict-sometimes" in out

    def test_no_delay_strictness_does_not_apply_at_a_corner(self, tmp_path, capsys):
        path = tmp_path / "corner.yaml"
        path.write_text(
            "lambda: 1.0850877837800164\nw: 22.459034846596182\n"
            "phi: {kind: power, exponent: 0.17974365144767035}\n"
            "kappa: {kind: power, exponent: 5.745814763329357}\n"
        )
        assert main(["verify", "no-delay", "--trials", "3", "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "[PASS] no-delay-strict-sometimes  (not applicable (corner))" in out
        assert err == ""

    def test_unknown_suite_raises(self):
        with pytest.raises(ConfigError):
            run_suite(load_config(None), "nope")

    @pytest.mark.parametrize("suite", ["concavity", "mixture"])
    @pytest.mark.parametrize(
        "flag, value", [("--trials", "0"), ("--trials", "-3"), ("--seed", "-1")]
    )
    def test_no_trials_or_a_negative_seed_is_config_error(self, capsys, suite, flag, value):
        # a suite run on no trials would pass on no evidence, and numpy's own
        # refusal of a negative seed names no flag
        assert main(["verify", suite, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"`{flag}`" in err and value in err

    def test_reports_deterministic_for_fixed_seed(self):
        cfg = load_config(None)
        a = run_suite(cfg, "ibp", seed=7, trials=5).render()
        b = run_suite(cfg, "ibp", seed=7, trials=5).render()
        assert a == b


_WRITERS = [["frontier"], ["verify", "euler"], ["smooth", "--n-list", "16"], ["export", "--what", "residuals"]]


class TestOptions:
    @pytest.mark.parametrize("argv", _WRITERS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_is_config_error(self, tmp_path, capsys, argv, below):
        # used to exit 1 with a FileExistsError traceback, after `verify` had
        # printed a passing report; now no command prints before the check
        path = tmp_path / "afile"
        path.write_text("")
        out = path / "sub" if below else path
        assert main([*argv, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert err.startswith("config error: `--out`") and err.count("\n") == 1, err
        assert stdout == ""
        assert path.read_text() == ""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["frontier"], "--seed"),
            (["frontier"], "--trials"),
            (["frontier"], "--horizon"),
            (["solve-deadline", "--promise", "0.2"], "--out"),
            (["solve-deadline", "--promise", "0.2"], "--seed"),
            (["solve-deadline", "--promise", "0.2"], "--trials"),
            (["smooth"], "--seed"),
            (["smooth"], "--trials"),
            (["smooth"], "--horizon"),
            (["export", "--what", "frontiers"], "--seed"),
            (["export", "--what", "frontiers"], "--trials"),
        ],
    )
    def test_option_a_command_does_not_read_is_refused(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {option} 1" in err

    def test_each_command_takes_only_the_options_it_reads(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        taken = {
            name: {a.option_strings[0] if a.option_strings else a.dest for a in parser._actions} - {"-h"}
            for name, parser in sub.choices.items()
        }
        # 23 (command, option) pairs, where every command took the six shared ones
        assert taken == {
            "frontier": {"--config", "--out", "--grid-step"},
            "solve-deadline": {"--config", "--grid-step", "--horizon", "--promise"},
            "verify": {"--config", "--out", "--seed", "--trials", "--grid-step", "--horizon", "suite"},
            "smooth": {"--config", "--out", "--grid-step", "--n-list"},
            "export": {"--config", "--out", "--grid-step", "--horizon", "--what"},
        }


class TestSolveDeadline:
    def test_prints_deadline_and_payoffs(self, capsys):
        assert main(["solve-deadline", "--promise", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("T = ")
        assert out.count("payoff") == 3

    @pytest.mark.parametrize("promise", ["0.6", "5", "-0.1", "nan", "inf", "-inf"])
    def test_promise_outside_0_u0_is_config_error(self, capsys, promise):
        # used to exit 3 with "compute error: promise ... outside [0, u0=...]"
        assert main(["solve-deadline", f"--promise={promise}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "`--promise`" in err and "[0, u0]" in err

    def test_promise_above_a_small_u0_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("lambda: 5.0\n")
        assert main(["solve-deadline", "--promise", "0.2", "--config", str(path)]) == 2
        assert "`--promise` must lie in [0, u0]: promise 0.2 outside [0, u0=0.1]" in capsys.readouterr().err


class TestExport:
    def test_frontiers_header_and_determinism(self, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["export", "--what", "frontiers", "--out", str(run_a)]) == 0
        assert main(["export", "--what", "frontiers", "--out", str(run_b)]) == 0
        data = (run_a / "frontiers.csv").read_bytes()
        assert data == (run_b / "frontiers.csv").read_bytes()
        assert data.splitlines()[0] == b"u,F0,F1,F0_left,F0_right,F1_left,F1_right"

    def test_mechanism_and_residual_headers(self, tmp_path):
        assert main(["export", "--what", "mechanism", "--out", str(tmp_path)]) == 0
        assert main(["export", "--what", "residuals", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "mechanism.csv").read_text().splitlines()[0] == "t,x0,X0,X1"
        assert (
            tmp_path / "residuals.csv"
        ).read_text().splitlines()[0] == "t,residual,phi0,cum_phi1_dG,one_minus_G"

    def test_grid_beyond_the_row_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # u0 = 335,661.6 gives 6.7 M rows at the default step; the export used
        # to evaluate them all, for over an hour
        path = tmp_path / "wide.yaml"
        path.write_text(
            "lambda: 0.0555\nw: 11.63\nphi: {kind: power, exponent: 0.825}\n"
            "kappa: {kind: power, exponent: 5.39}\n"
        )
        for what in ("frontiers", "smoothing"):
            assert main(["export", "--what", what, "--config", str(path), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "`--grid-step`" in err
        assert not list(tmp_path.glob("*.csv"))
        assert main(["export", "--what", "frontiers", "--grid-step", "0", "--out", str(tmp_path)]) == 2
        # the default config has 11 rows: the cap counts them as written
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", 11)
        assert main(["export", "--what", "frontiers", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "frontiers.csv").read_text().splitlines()) == 1 + 11
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", 10)
        assert main(["export", "--what", "frontiers", "--out", str(tmp_path)]) == 2

    def test_frontier_out_builds_the_technology_once(self, tmp_path, monkeypatch, capsys):
        builds = []
        build = cli.InstanceConfig.technology
        monkeypatch.setattr(cli.InstanceConfig, "technology", lambda cfg: builds.append(1) or build(cfg))
        assert main(["frontier", "--out", str(tmp_path)]) == 0
        assert len(builds) == 1
        out, err = capsys.readouterr()
        pinned = (Path(__file__).parent / "data" / "frontier.txt").read_text()
        assert out == pinned + f"wrote {tmp_path / 'frontiers.csv'}\n" and err == ""
        digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "csv_digests.json").read_text())
        assert hashlib.sha256((tmp_path / "frontiers.csv").read_bytes()).hexdigest() == digests["frontiers.csv"]

    def test_default_exports_match_benchmark_digests(self, tmp_path):
        digests = Path(__file__).resolve().parents[1] / "perfbench" / "csv_digests.json"
        expected = json.loads(digests.read_text())
        cfg = load_config(None)
        got = {}
        for what in ("frontiers", "mechanism", "residuals", "smoothing"):
            for path in export_curves(cfg, what, tmp_path):
                got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == expected

    def test_residual_columns_reconstruct_the_equation(self, tmp_path):
        main(["export", "--what", "residuals", "--out", str(tmp_path)])
        rows = np.loadtxt(tmp_path / "residuals.csv", delimiter=",", skiprows=1)
        t, res, phi0, cum, sf = rows.T
        assert np.allclose(res, sf * phi0 + cum, atol=1e-12)


class TestSmoothCommand:
    def test_strict_fix_csvs_are_pinned(self, tmp_path, monkeypatch):
        # at w = 2 the smallest level's gap has a rival within 1e-12 of its
        # peak, so F1_6 is lowered below u*_6; the default config never is
        data = Path(__file__).parent / "data"
        (tmp_path / "w2.yaml").write_text("w: 2.0\n")
        monkeypatch.chdir(tmp_path)
        assert run_quietly(["smooth", "--config", "w2.yaml", "--n-list", "6,12,24", "--out", "o"]) == (0, "")
        digests = {
            "smoothing_n6.csv": "6021d1ed618afb97bf7cb78b3f47d699c18603eecb1074718425027d6688e0a0",
            "smoothing_n12.csv": "acfebfc9b90c76430baf4091162a512dcfe210df1bd0f6e5e75ec5e77f625d63",
            "smoothing_n24.csv": "3fdc4d11b2757e50d3e99227b1a6ef77eb363341f45450f7a02d0348d8690766",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() == digest
        report = (tmp_path / "o" / "smoothing_report.txt").read_text()
        assert report == (data / "smoothing_report_w2.txt").read_text()

    @pytest.mark.parametrize(
        "level, code", [(2**25, 0), (40826961, 2), (41545131, 0), (2**26, 2), (10**8, 2)]
    )
    def test_levels_past_float64_resolution_are_refused(self, tmp_path, capsys, level, code):
        # F0_n's fall meets its glide at u_m, which rounds; the fall's slope
        # there moves K (about n) times that. A level whose two slopes at that
        # join end 1e-9 or more apart used to fail model-assumptions and is
        # refused (1.06e-9 at 40826961, 1.49e-9 at 2^26, 2.35e-9 at 1e8); a
        # finer one whose rounding lands closer, as 41545131's does, still passes
        assert main(["smooth", "--n-list", str(level), "--out", str(tmp_path), "--grid-step", "0.25"]) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith(f"config error: `--n-list` level {level} cannot be smoothed")
            assert "past 1e-09" in err
        else:
            assert "overall: PASS" in out and err == ""

    def test_writes_curves_and_report(self, tmp_path, capsys):
        rc = main(
            ["smooth", "--n-list", "16", "--out", str(tmp_path), "--grid-step", "0.1"]
        )
        assert rc == 0
        csv = (tmp_path / "smoothing_n16.csv").read_text()
        assert csv.splitlines()[0] == "u,F0n,F1n,f0n,f1n"
        assert "overall: PASS" in (tmp_path / "smoothing_report.txt").read_text()

    def test_bad_n_list_is_config_error(self, capsys):
        assert main(["smooth", "--n-list", "abc"]) == 2

    def test_repeated_n_list_level_is_config_error_before_any_build(self, tmp_path, capsys, monkeypatch):
        # a repeated level was built, written and reported once per mention
        from frontierkit import smoothing

        built = []
        monkeypatch.setattr(smoothing, "build_smooth_pair", lambda tech, params: built.append(params))
        assert main(["smooth", "--n-list", "32,16,16", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: `--n-list` repeats level 16\n"
        assert built == [] and list(tmp_path.iterdir()) == []

    def test_too_small_level_is_config_error_naming_the_least_level(self, tmp_path, capsys):
        # lambda 5 gives u0 = 0.1, so the default level 16 is too small
        path = tmp_path / "lam5.yaml"
        path.write_text("lambda: 5.0\n")
        argv = ["smooth", "--config", str(path), "--out", str(tmp_path), "--grid-step", "0.1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: `--n-list` needs levels of 31 or more, so that 1/n < (u0 - u1)/3\n"
        assert main([*argv, "--n-list", "30"]) == 2
        assert main([*argv, "--n-list", "31"]) == 0

    @pytest.mark.parametrize(
        "level, reason",
        [("32", "must still rise at u0-2/n"), ("64", "could not reach the accuracy budget eps")],
    )
    def test_level_the_construction_cannot_smooth_is_config_error(self, tmp_path, capsys, level, reason):
        # both levels pass the 1/n < (u0 - u1)/3 test here, and used to exit 3
        path = tmp_path / "narrow.yaml"
        path.write_text(
            "lambda: 0.030485818732047747\nw: 24.253737953796037\n"
            "phi: {kind: power, exponent: 0.8316445310278713}\n"
            "kappa: {kind: power, exponent: 4.643204035332835}\n"
        )
        assert main(["smooth", "--config", str(path), "--out", str(tmp_path), "--n-list", level]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: `--n-list` level {level} cannot be smoothed") and reason in err
