"""Self-test of the benchmark harness at tiny op counts.

    python3 perfbench/selftest.py      # from the root of a checkout

Checks that
1. every metric named in BENCHMARK.json is printed, with its unit, by the
   untraced and the traced run of every workload, and the report line has
   all end-to-end metrics;
2. each workload's gate catches a deliberately wrong reference value, and the
   CSV gate catches a changed byte;
3. traced and untraced runs produce identical op outputs, so tracing
   changes no result.
Exits 0 when all hold; prints each failure otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from frontierkit import cli  # noqa: E402

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                expect(False, f"{label} exits 0 and prints a result: {proc.stderr[-500:]}")
                continue
            result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result has exactly the four keys")
            expect(result["correct"] is True, f"{label}: correct")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: every {kind} metric printed with its unit")
            numeric = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            expect(numeric, f"{label}: every value is a number")
            if trace:
                expect(report["traced_equals_untraced"], f"{label}: traced and untraced op outputs are identical")
            else:
                e2e = {"setup_s", "wall_s", "op_ms_p50", "op_ms_tail", "ops_failed_ratio", "worst_err", "peak_rss_mb"}
                expect(e2e <= set(report["metrics"]), f"{label}: report has all 7 end-to-end metrics")


def check_gates_catch_wrong_references() -> None:
    rng = np.random.default_rng(5)
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.setup(rng)
        inp = wl.draw(rng, 0)
        out = wl.op(inp)
        if name == "mh-payoff":
            wrong = (out[0] + 1e-3, out[1])  # reference payoff above the improved one
        elif name == "quad-gateaux":
            wrong = (out[0], out[1] * 1.01 + 1e-3)  # finite-difference reference off by 1%
            bad_program = wl.check(inp, (out[0] * 1.01 + 1e-3, out[1] * 1.01 + 1e-3))
            expect(not bad_program.program_ok, f"{name}: exact reference catches a wrong closed form")
        elif name == "mixture-waterfill":
            wrong = (out[0], out[1] + 1e-3)  # oracle off by 1e-3
            bad_program = wl.check(inp, (out[0] + 1e-3, out[1] + 1e-3))
            expect(not bad_program.program_ok, f"{name}: exact reference catches a wrong solver value")
        else:
            wrong = out[:6] + (False,) + out[7:]  # certification report says FAIL
        verdict = wl.check(inp, wrong)
        expect(not verdict.passed, f"{name}: gate catches a wrong reference value")


def check_csv_gate_catches_a_changed_byte() -> None:
    clean = worker.csv_gate(cli, ROOT / ".bench_out")
    expect(clean["ok"], "CSV gate passes on unchanged exports")

    original = cli.export_curves

    def tampered(*args, **kwargs):
        paths = original(*args, **kwargs)
        for path in paths:
            data = path.read_bytes()
            path.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
        return paths

    cli.export_curves = tampered
    try:
        dirty = worker.csv_gate(cli, ROOT / ".bench_out")
    finally:
        cli.export_curves = original
    expect(not dirty["ok"] and len(dirty["mismatched"]) == 6, "CSV gate catches one changed byte in every file")


def main() -> int:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_gates_catch_wrong_references()
    check_csv_gate_catches_a_changed_byte()
    check_printed_metrics()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
