"""Start-up and command timings and peak memory of frontierkit, cold and warm, in fresh interpreters.

    python bench/cli_bench.py --out BENCH.json                      # 7 runs per entry
    python bench/cli_bench.py --runs 9 --against BENCH_old.json     # ratios to an older file

Each entry starts a fresh interpreter and is timed from outside, wall clock
from start to exit, and its peak resident set size is read from the
resource usage ``os.wait4`` reports when it exits. The sources of
``src/frontierkit`` are copied into a temporary directory twice:

- *cold*: no ``__pycache__``, so every module compiles from source, as on a
  host that keeps no bytecode;
- *warm*: bytecode compiled beforehand inside the copy.

Children run with ``PYTHONDONTWRITEBYTECODE=1``, so no run writes bytecode,
and nothing is written inside the checkout: ``smooth`` and ``export`` write
their files into the temporary directory. Runs go round the entries in
turn, so a slow spell on the host spreads over all of them. The JSON holds,
per entry and mode, the samples of each of `METRICS` with their median and
quartiles, and the host: git SHA and dirty flag, a hash of the sources, CPU
model, ``nproc``, and the Python and numpy versions. Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frontierkit"

#: entry name -> the interpreter's arguments
ENTRIES = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import frontierkit": ["-c", "import frontierkit"],
    "import frontierkit.cli": ["-c", "import frontierkit.cli"],
    "solve-deadline --promise 0.2": ["-m", "frontierkit.cli", "solve-deadline", "--promise", "0.2"],
    "verify ui-assns --trials 1000": ["-m", "frontierkit.cli", "verify", "ui-assns", "--trials", "1000"],
    "verify gateaux --trials 1000": ["-m", "frontierkit.cli", "verify", "gateaux", "--trials", "1000"],
    "smooth": ["-m", "frontierkit.cli", "smooth"],
    "export --what smoothing": ["-m", "frontierkit.cli", "export", "--what", "smoothing"],
}
MODES = ("cold", "warm")
#: what each run records: wall time from start to exit, and peak RSS (MiB)
METRICS = ("wall_s", "peak_rss_mb")


def _git(*args: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return ""


def environment() -> dict:
    sources = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "src_sha256": sources.hexdigest(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "platform": platform.platform(),
    }


def _copy_sources(dest: Path) -> Path:
    """A copy of the package's sources under ``dest``, for ``PYTHONPATH``."""
    shutil.copytree(PACKAGE, dest / "frontierkit", ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return dest


def _summary(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def _run_once(args: list[str], env: dict, cwd: Path) -> tuple[float, float]:
    """One fresh interpreter: its wall time and its peak RSS in MiB."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"{args} exited {proc.returncode}: {err.read().decode()[-2000:]}")
    # Linux reports ru_maxrss in KiB
    return elapsed, usage.ru_maxrss / 1024.0


def run(runs: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="cli_bench_") as tmp:
        tmp = Path(tmp)
        paths = {mode: _copy_sources(tmp / mode) for mode in MODES}
        if not compileall.compile_dir(paths["warm"], quiet=1):
            raise RuntimeError("the warm copy did not compile")
        envs = {mode: dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1") for mode, path in paths.items()}
        for mode, env in envs.items():
            # the copy, not the checkout or an installed package, must load
            where = subprocess.run(
                [sys.executable, "-c", "import frontierkit; print(frontierkit.__file__)"],
                env=env, cwd=tmp, capture_output=True, text=True, check=True,
            ).stdout.strip()
            if not Path(where).is_relative_to(paths[mode]):
                raise RuntimeError(f"{mode} runs load frontierkit from {where}, not from the copy")

        samples = {(name, mode): [] for name in ENTRIES for mode in MODES}
        for _ in range(runs):
            for name, args in ENTRIES.items():
                for mode in MODES:
                    samples[name, mode].append(_run_once(args, envs[mode], tmp))
        if any(paths["cold"].rglob("*.pyc")):
            raise RuntimeError("a cold run wrote bytecode")

    return {
        "environment": environment(),
        "runs": runs,
        "entries": {
            name: {
                mode: {metric: _summary([run[i] for run in samples[name, mode]]) for i, metric in enumerate(METRICS)}
                for mode in MODES
            }
            for name in ENTRIES
        },
    }


def _table(result: dict) -> str:
    heads = [f"{mode} {metric} median [q1, q3]" for mode in MODES for metric in METRICS]
    lines = [f"{'entry':<30}" + "".join(f"{h:>36}" for h in heads)]
    for name, modes in result["entries"].items():
        cells = [f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]" for m in modes.values() for s in m.values()]
        lines.append(f"{name:<30}" + "".join(f"{cell:>36}" for cell in cells))
    return "\n".join(lines)


def compare(result: dict, other: dict) -> str:
    """Each entry's median over ``other``'s, per mode."""
    lines = []
    host = ("cpu_model", "nproc", "python", "numpy")
    mine, theirs = result["environment"], other["environment"]
    for key in host:
        if mine.get(key) != theirs.get(key):
            lines.append(f"warning: {key} differs: {mine.get(key)!r} here, {theirs.get(key)!r} there")
    heads = [f"{mode} {metric}" for mode in MODES for metric in METRICS]
    lines.append(f"{'median ratio to the other file':<32}" + "".join(f"{h:>18}" for h in heads))
    for name, modes in result["entries"].items():
        ratios = []
        for mode in MODES:
            for metric in METRICS:
                base = other["entries"].get(name, {}).get(mode, {}).get(metric)
                ratios.append(f"{modes[mode][metric]['median'] / base['median']:.3f}" if base else "-")
        lines.append(f"{name:<32}" + "".join(f"{r:>18}" for r in ratios))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=7, help="fresh runs per entry and mode (default 7)")
    ap.add_argument("--out", help="write the JSON here as well as to stdout")
    ap.add_argument("--against", help="a JSON from an earlier run: print each entry's ratio to it")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    other = json.loads(Path(args.against).read_text()) if args.against else None

    result = run(args.runs)
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(_table(result), file=sys.stderr)
    if other is not None:
        print(compare(result, other), file=sys.stderr)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
