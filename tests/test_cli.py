"""Command-line behavior: exit codes, config validation, CSV export contracts."""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from frontierkit.cli import export_curves, load_config, main, run_suite
from frontierkit.errors import ConfigError


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


class TestSuites:
    @pytest.mark.parametrize(
        "suite", ["mixture", "saddle", "euler", "ibp", "gateaux", "concavity"]
    )
    def test_fast_suites_pass(self, suite, capsys):
        assert main(["verify", suite, "--trials", "4"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_no_delay_suite(self, capsys):
        assert main(["verify", "no-delay", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "no-delay-strict-sometimes" in out

    def test_unknown_suite_raises(self):
        with pytest.raises(ConfigError):
            run_suite(load_config(None), "nope")

    def test_reports_deterministic_for_fixed_seed(self):
        cfg = load_config(None)
        a = run_suite(cfg, "ibp", seed=7, trials=5).render()
        b = run_suite(cfg, "ibp", seed=7, trials=5).render()
        assert a == b


class TestSolveDeadline:
    def test_prints_deadline_and_payoffs(self, capsys):
        assert main(["solve-deadline", "--promise", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("T = ")
        assert out.count("payoff") == 3

    def test_promise_beyond_reach_is_compute_error(self, capsys):
        assert main(["solve-deadline", "--promise", "0.6"]) == 3
        assert "compute error" in capsys.readouterr().err


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

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = load_config(None)
        (path,) = export_curves(cfg, "frontiers", tmp_path, u_grid=np.array([]))
        assert path.read_text() == "u,F0,F1,F0_left,F0_right,F1_left,F1_right\n"

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
