"""A fresh process loads only what it runs: ``import frontierkit`` loads no
submodule, a payoff never loads the suites or ``numpy.ma``, and each command
imports only the suites it runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frontierkit

SRC = Path(frontierkit.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
CLI_BENCH = Path(__file__).resolve().parents[1] / "bench" / "cli_bench.py"

#: what a payoff on the default config never needs
SUITES = ("frontierkit.smoothing", "frontierkit.variational", "frontierkit.mixture", "frontierkit.gap_analysis")

#: the package's public names, submodules included
ALL = [
    "AffineFrontier", "BreakthroughDistribution", "CallableFrontier", "Check", "ConfigError", "DivergenceViolation",
    "DomainError", "EmptySupport", "Frontier", "FrontierDistribution", "FrontierKitError", "GapClassification",
    "GapKind", "GapWitness", "InadmissiblePrimitives", "IntegrabilityReport", "InvalidProfile", "MeasureOnTime",
    "Mechanism", "MoralHazardPrimitives", "NonConvergent", "NonFiniteValue", "ParametricFrontier",
    "ParamsOutOfRange", "PiecewiseLinearFrontier", "PowerCost", "PowerUtility", "PreconditionViolation",
    "QuadraticFrontier", "RootBracketFailure", "SmoothedPair", "SmoothingParams", "SupergradientProfile",
    "Technology", "TimeGrid", "UStarAtOrigin", "UnresolvablePeaks", "VerificationReport",
    "averaged_right_derivative", "build_sequence", "build_smooth_pair", "classify_u_star", "deadline_for_promise",
    "directional_deriv", "dominance_check", "effort_star", "errors", "euler_residual", "frontiers", "gap_analysis",
    "gap_argmax", "gateaux_closed_form", "gateaux_fd", "integrability_bounds", "make_deadline_mechanism",
    "make_moral_hazard_technology", "mechanism", "midpoint_concavity_slack", "mixture", "mixture_domain",
    "mixture_peak", "mixture_value", "no_delay_improve", "normalize", "payoff", "payoff_affine_rewrite", "pi_G",
    "quadrature", "report", "roots", "shared_supergradient_interval", "smoothing", "stieltjes_ibp",
    "strict_concavity_probe", "technology", "variational", "verify_mixture_regularity", "verify_monster",
    "verify_ui_assumptions", "warmup_identity",
]


#: modules outside frontierkit that a library call should not load
HEAVY = ("numpy.ma", "numpy.polynomial", "argparse")


def loaded_after(code: str) -> list[str]:
    """The ``frontierkit`` and `HEAVY` modules loaded once ``code`` has run
    in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import json, sys\n"
        f"{code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith('frontierkit') or m in {HEAVY!r})))"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_after("import frontierkit") == ["frontierkit"]


def test_payoff_edges_and_knots_load_no_suite_and_no_numpy_ma():
    loaded = loaded_after(
        "import numpy as np\n"
        "import frontierkit as fk\n"
        "from frontierkit import cli\n"
        "from frontierkit.quadrature import integration_edges\n"
        "tech = cli.load_config(None).technology()\n"
        "m = fk.Mechanism.from_grid(fk.TimeGrid(horizon=6.0, step=0.05, r=1.0), np.full(120, 0.3), x0_tail=0.3)\n"
        "fk.payoff(m, tech, fk.BreakthroughDistribution.exponential(1.0))\n"
        "integration_edges(fk.BreakthroughDistribution.exponential(2.0), 1.0, (0.3,))\n"
        "m.with_knots([0.33, 1.77])"
    )
    assert "frontierkit.mechanism" in loaded
    assert set(loaded) & {"numpy.ma", *SUITES} == set()


def test_a_payoff_and_the_cli_module_load_no_numpy_polynomial_and_no_argparse():
    # the Gauss-Legendre rules are stored, and argparse loads with the parser
    code = (
        "import numpy as np\n"
        "import frontierkit as fk\n"
        "from frontierkit import cli\n"
        "tech = cli.load_config(None).technology()\n"
        "m = fk.Mechanism.from_grid(fk.TimeGrid(horizon=6.0, step=0.05, r=1.0), np.full(120, 0.3), x0_tail=0.3)\n"
        "fk.payoff(fk.no_delay_improve(m, tech), tech, fk.BreakthroughDistribution.exponential(1.0))"
    )
    assert set(loaded_after(code)) & set(HEAVY) == set()
    assert "argparse" in loaded_after("from frontierkit import cli\ncli._build_parser()")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify", "ui-assns", "--trials", "1"], ("frontierkit._oracles", *SUITES)),
        (["solve-deadline", "--promise", "0.2"], ("frontierkit._oracles", *SUITES)),
        (["verify", "no-delay", "--trials", "2"], ("frontierkit._oracles", *SUITES)),
        (["verify", "ibp", "--trials", "2"], ("frontierkit._oracles", "frontierkit.smoothing", "frontierkit.mixture")),
    ],
)
def test_a_command_loads_only_the_suites_it_runs(argv, absent):
    loaded = loaded_after(f"from frontierkit import cli\nassert cli.main({argv!r}) == 0")
    assert set(loaded) & {"numpy.ma", *absent} == set()


def test_all_is_pinned_and_dir_lists_it():
    assert frontierkit.__all__ == ALL
    assert set(ALL) <= set(dir(frontierkit))


def test_every_name_is_its_submodules_object():
    for name in ALL:
        obj = getattr(frontierkit, name)
        if name in frontierkit._NAMES:
            assert obj is sys.modules[f"frontierkit.{name}"]
        else:
            assert obj is getattr(sys.modules[f"frontierkit.{frontierkit._SOURCE[name]}"], name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        frontierkit.nope


def test_a_name_read_while_traced_is_untraced_after_uninstall():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_startup", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = frontierkit.mechanism.payoff
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert frontierkit.payoff is not original
    finally:
        tracer.uninstall()
    assert frontierkit.payoff is original
    assert "payoff" not in vars(frontierkit)


def test_cli_bench_times_every_entry_cold_and_warm(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_bench", CLI_BENCH)
    cli_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_bench)
    out = tmp_path / "bench.json"
    assert cli_bench.main(["--runs", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["runs"] == 1
    assert {"git_sha", "git_dirty", "cpu_model", "nproc", "python", "numpy"} <= set(result["environment"])
    assert list(result["entries"]) == list(cli_bench.ENTRIES)
    for name, modes in result["entries"].items():
        assert list(modes) == list(cli_bench.MODES), name
        for metrics in modes.values():
            assert list(metrics) == list(cli_bench.METRICS) == ["wall_s", "peak_rss_mb"], name
            for summary in metrics.values():
                assert len(summary["samples"]) == 1 and summary["median"] > 0, name
        # every child loads numpy, which alone takes more than 10 MB
        assert modes["cold"]["peak_rss_mb"]["median"] > 10.0, name
