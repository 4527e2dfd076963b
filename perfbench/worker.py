"""One benchmark process: set-up, the timed op loop, and the CSV gate.

Started by ``run.py`` in a fresh interpreter so that one run's caches never
serve the next. Prints one JSON object as its last line of output.
"""

import time


def python_kernel() -> float:
    """The pure-Python half of ``reference_kernel``: a scalar loop."""
    acc = 0.0
    for i in range(25000):
        acc += (i % 7) * 0.5 - acc * 1e-4
    return acc


def _median_time(kernel) -> float:
    """Median of three timings, so one stall does not skew the scale."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


# set-up is scaled by the host's speed on both sides of it; numpy is not
# loaded yet, so only the pure-Python half of the kernel can run here
SETUP_KERNEL_BEFORE_S = _median_time(python_kernel)
T0 = time.perf_counter()  # set-up is timed from here, before frontierkit loads

import argparse
import hashlib
import json
import resource
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPORTS = ("frontiers", "mechanism", "residuals", "smoothing")


_KERNEL_X = [0.1 + 0.9 * i / 63 for i in range(64)]


def reference_kernel() -> float:
    """Fixed work that uses no frontierkit code: small-array numpy calls and a
    scalar Python loop, the two kinds of work the ops are made of.

    ``run.py`` divides each timing by this kernel's time measured next to it,
    which takes out most of the host's speed swings.
    """
    import numpy as np

    a = np.array(_KERNEL_X)
    b = a[::-1].copy()
    s = 0.0
    for _ in range(600):
        s += float(np.dot(np.sqrt(a * 1.0001 + b), b))
    return s + python_kernel()


def _digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def csv_gate(cli, scratch: Path) -> dict:
    """Export the default-config curves and compare their sha256 with the
    digests recorded from the seed commit."""
    expected = json.loads((HERE / "csv_digests.json").read_text())
    got, nbytes, error = {}, 0, ""
    start = time.perf_counter()
    try:
        cfg = cli.load_config(None)
        with tempfile.TemporaryDirectory(dir=scratch) as out:
            for what in EXPORTS:
                for path in cli.export_curves(cfg, what, out):
                    data = path.read_bytes()
                    got[path.name] = hashlib.sha256(data).hexdigest()
                    nbytes += len(data)
    except Exception as exc:  # the gate reports a crash as a mismatch
        error = f"{type(exc).__name__}: {exc}"
    mismatched = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    return {
        "ok": not mismatched and not error,
        "mismatched": mismatched,
        "error": error,
        "bytes": nbytes,
        "seconds": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0, help="run batches until this much time has passed")
    ap.add_argument("--batches", type=int, default=0, help="run exactly this many batches instead")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--csv-gate", action="store_true")
    ap.add_argument("--scratch", required=True, help="directory for the trace dump and CSV files")
    args = ap.parse_args(argv)

    import numpy as np

    import workloads
    from frontierkit import cli

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(np.random.default_rng([args.seed, 0]))
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "setup_kernel_s": 0.5 * (SETUP_KERNEL_BEFORE_S + _median_time(python_kernel))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    batch = wl.batch
    walls, latencies, kernels, digests, errors = [], [], [], [], []
    failed = program_failures = 0
    worst_err = 0.0
    k = 0
    loop_start = time.perf_counter()
    while True:
        inputs = [wl.draw(np.random.default_rng([args.seed, 1, k + i]), k + i) for i in range(batch)]
        outs = []
        kernel_before = _median_time(reference_kernel)
        batch_start = time.perf_counter()
        for i, inp in enumerate(inputs):
            if tracer:
                tracer.op = k + i
            t = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception as exc:  # a raising op is a failed op, never a skipped one
                out = exc
            latencies.append(time.perf_counter() - t)
            outs.append(out)
        walls.append(time.perf_counter() - batch_start)
        kernels.append(0.5 * (kernel_before + _median_time(reference_kernel)))
        if tracer:
            tracer.op = "check"
        for inp, out in zip(inputs, outs):
            if isinstance(out, Exception):
                failed += 1
                program_failures += 1
                errors.append(f"op {k}: {type(out).__name__}: {out}")
                digests.append(_digest(type(out).__name__))
            else:
                verdict = wl.check(inp, out)
                failed += not verdict.passed
                program_failures += not verdict.program_ok
                worst_err = max(worst_err, verdict.err)
                digests.append(_digest(out))
            k += 1
        if args.batches:
            if len(walls) >= args.batches:
                break
        elif time.perf_counter() - loop_start >= args.seconds:
            break

    result.update(
        batch=batch,
        batch_walls=walls,
        latencies=latencies,
        kernel_s=kernels,
        digests=digests,
        attempted=k,
        failed=failed,
        program_failures=program_failures,
        worst_err=worst_err,
        errors=errors[:5],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.csv_gate:
        if tracer:
            tracer.start_csv()
        result["csv"] = csv_gate(cli, Path(args.scratch))
    if tracer:
        tracer.uninstall()
        tracer.dump(Path(args.scratch) / f"spans-{args.workload}-{args.seed}.json")
        result["layers"] = tracing.layer_metrics(tracer, sum(walls), result.get("csv", {}).get("bytes", 0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
