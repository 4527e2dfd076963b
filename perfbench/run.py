"""Benchmark entry point for frontierkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics in untraced worker processes; ``--trace 1`` runs a fixed amount of
work twice, untraced and traced, and reports the per-layer metrics. The last
line of output is the result object; the line before it is the full report
with the environment. Uses only the standard library; each worker is a fresh
interpreter that imports frontierkit from ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out"
WORKLOADS = ("mh-payoff", "mh-smooth-sweep", "quad-gateaux", "mixture-waterfill")
SETUP_SAMPLES_EACH_SIDE = 4  # set-up-only workers before and after the timed run
TRACE_BATCHES = 2  # batches a traced run (and its untraced twin) executes
DEADLINE_S = 170.0  # every run must end within 180 s
# Timings are reported at a reference host speed: each batch's is divided by the
# time of worker.reference_kernel measured next to it and multiplied by this, the
# kernel's typical time on the 2-vCPU development host. On a shared machine
# the raw times swing by up to 1.8x within minutes; the scaled ones much less.
KERNEL_NOMINAL_S = 0.004
# Set-up is scaled by worker.python_kernel, timed before and after it, and
# this nominal time. Set-up (imports, page faults, file reads) slows only
# about half as much as that kernel on a busy host: over 70 set-ups on the
# development host, log set-up time against log kernel time had slope 0.45.
# Set-up is therefore scaled by the square root of the kernel's ratio; the
# full ratio over-corrects.
SETUP_KERNEL_NOMINAL_S = 0.0022
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# printed in the report but not gated in BENCHMARK.json: the tail and the raw
# (unscaled) times follow the host's speed more than any bound allows, and
# the last two are 0 on most workloads
REPORT_ONLY_UNITS = {
    "op_ms_tail": "ms",
    "setup_raw_s": "s",
    "wall_raw_s": "s",
    "op_raw_ms_p50": "ms",
    "op_raw_ms_tail": "ms",
    "ops_failed_ratio": "ratio",
    "worst_err": "1",
}


class WorkerFailed(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(_nproc()) for var in THREAD_VARS})
    return env


def _worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--scratch", str(SCRATCH), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Never reported below the median: with fewer than 20 ops the median stands
    in. Returns ``(value, percentile)``.
    """
    xs = sorted(latencies)
    j = len(xs) - 11
    if j + 1 < len(xs) / 2:
        return statistics.median(xs), 50.0
    return xs[j], 100.0 * (j + 1) / len(xs)


def _git(*args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    if (ROOT / ".git").exists():
        source = {"git_sha": _git("rev-parse", "HEAD"), "git_dirty": bool(_git("status", "--porcelain"))}
    else:
        # outside git the sources' own digest identifies the code measured
        sources = hashlib.sha256()
        for path in sorted((ROOT / "src" / "frontierkit").glob("*.py")):
            sources.update(path.name.encode() + b"\0" + path.read_bytes())
        source = {"git_sha": "not a git checkout", "git_dirty": None, "source_sha256": sources.hexdigest()}
    return {
        **source,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "thread_caps": {var: str(_nproc()) for var in THREAD_VARS},
    }


def _units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _scaled(seconds: float, kernel_s: float) -> float:
    return seconds * KERNEL_NOMINAL_S / kernel_s


def _scaled_setup(w: dict) -> float:
    return w["setup_s"] * math.sqrt(SETUP_KERNEL_NOMINAL_S / w["setup_kernel_s"])


def _scaled_walls(w: dict) -> list[float]:
    return [_scaled(wall, kernel) for wall, kernel in zip(w["batch_walls"], w["kernel_s"])]


def run_untraced(args, base: list[str], deadline: float) -> tuple[dict, dict]:
    # set-up samples straddle the timed run, so a slow spell on the host
    # moves at most some of them
    setups = [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    main = _worker(base + ["--seconds", str(args.seconds), "--csv-gate"], deadline)
    setups.append(main)
    setups += [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    # op i ran in batch i // batch_size, next to that batch's kernel timing
    lats = [_scaled(lat, main["kernel_s"][i // main["batch"]]) for i, lat in enumerate(main["latencies"])]
    tail, pct = _tail(lats)
    raw_tail, _ = _tail(main["latencies"])
    values = {
        "setup_s": statistics.median(_scaled_setup(w) for w in setups),
        "wall_s": statistics.median(_scaled_walls(main)),
        "op_ms_p50": 1e3 * statistics.median(lats),
        "op_ms_tail": 1e3 * tail,
        "setup_raw_s": statistics.median(w["setup_s"] for w in setups),
        "wall_raw_s": statistics.median(main["batch_walls"]),
        "op_raw_ms_p50": 1e3 * statistics.median(main["latencies"]),
        "op_raw_ms_tail": 1e3 * raw_tail,
        "peak_rss_mb": main["peak_rss_mb"],
        "ops_failed_ratio": main["failed"] / main["attempted"],
        "worst_err": main["worst_err"],
    }
    report = {
        "metrics": _with_units(values, _units("end_to_end") | REPORT_ONLY_UNITS),
        "op_ms_tail_percentile": pct,
        "reference_kernel_ms": 1e3 * statistics.median(main["kernel_s"]),
        "ops": main["attempted"],
        "batches": len(main["batch_walls"]),
        "batch_size": main["batch"],
        "setup_samples_raw_s": [w["setup_s"] for w in setups],
        "op_errors": main["errors"],
        "program_failures": main["program_failures"],
        "csv_gate": main["csv"],
    }
    return main, report


def run_traced(args, base: list[str], deadline: float) -> tuple[dict, dict]:
    fixed = ["--batches", str(TRACE_BATCHES)]
    plain = _worker(base + fixed, deadline)
    traced = _worker(base + fixed + ["--trace", "--csv-gate"], deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = sum(_scaled_walls(traced)) / sum(_scaled_walls(plain)) - 1.0
    report = {
        "metrics": _with_units(layers, _units("per_layer")),
        "ops": traced["attempted"],
        "traced_equals_untraced": plain["digests"] == traced["digests"],
        "op_errors": traced["errors"],
        "program_failures": traced["program_failures"],
        "csv_gate": traced["csv"],
        "spans": str(SCRATCH / f"spans-{args.workload}-{args.seed}.json"),
    }
    return traced, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "frontierkit" / "__init__.py").is_file():
        print(f"frontierkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run = run_traced if args.trace else run_untraced
        worker, report = run(args, base, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    csv_ok = worker["csv"]["ok"]
    gated = _units("per_layer" if args.trace else "end_to_end")
    metrics = {name: report["metrics"][name] for name in gated}
    env = _environment()
    env.update(workload=args.workload, seed=args.seed, ops=report["ops"], trace=args.trace)
    print(json.dumps({"report": report, "environment": env}))
    print(
        json.dumps(
            {
                "correct": csv_ok and report.get("traced_equals_untraced", True) and worker["program_failures"] == 0,
                # the CSV gate counts as one more op. An op fails when
                # frontierkit's own output is shown wrong; ops that miss only
                # an inexact suite oracle's bound are in the report's
                # ops_failed_ratio instead
                "attempted": worker["attempted"] + 1,
                "failed": worker["program_failures"] + (not csv_ok),
                "metrics": metrics,
            }
        )
    )
    return 0 if csv_ok else 1


if __name__ == "__main__":
    sys.exit(main())
