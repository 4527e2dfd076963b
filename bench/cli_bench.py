"""Start-up and command timings of frontierkit, cold and warm, in fresh interpreters.

    python bench/cli_bench.py --out BENCH.json                      # 7 runs per entry
    python bench/cli_bench.py --runs 9 --against BENCH_old.json     # ratios to an older file

Each entry starts a fresh interpreter and is timed from outside, wall clock
from start to exit. The sources of ``src/frontierkit`` are copied into a
temporary directory twice:

- *cold*: no ``__pycache__``, so every module compiles from source, as on a
  host that keeps no bytecode;
- *warm*: bytecode compiled beforehand inside the copy.

Children run with ``PYTHONDONTWRITEBYTECODE=1``, so no run writes bytecode,
and nothing is written inside the checkout. Runs go round the entries in
turn, so a slow spell on the host spreads over all of them. The JSON holds
each entry's samples with their median and quartiles, and the host: git SHA
and dirty flag, a hash of the sources, CPU model, ``nproc``, and the Python
and numpy versions. Standard library only.
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
}
MODES = ("cold", "warm")


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
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}


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
                    start = time.perf_counter()
                    proc = subprocess.run([sys.executable, *args], env=envs[mode], cwd=tmp, capture_output=True)
                    elapsed = time.perf_counter() - start
                    if proc.returncode != 0:
                        raise RuntimeError(f"{name} ({mode}) exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
                    samples[name, mode].append(elapsed)
        if any(paths["cold"].rglob("*.pyc")):
            raise RuntimeError("a cold run wrote bytecode")

    return {
        "environment": environment(),
        "runs": runs,
        "entries": {name: {mode: _summary(samples[name, mode]) for mode in MODES} for name in ENTRIES},
    }


def _table(result: dict) -> str:
    heads = [f"{mode} median [q1, q3] s" for mode in MODES]
    lines = [f"{'entry':<30}" + "".join(f"{h:>30}" for h in heads)]
    for name, modes in result["entries"].items():
        cells = [f"{m['median_s']:.4f} [{m['q1_s']:.4f}, {m['q3_s']:.4f}]" for m in modes.values()]
        lines.append(f"{name:<30}" + "".join(f"{cell:>30}" for cell in cells))
    return "\n".join(lines)


def compare(result: dict, other: dict) -> str:
    """Each entry's median over ``other``'s, per mode."""
    lines = []
    host = ("cpu_model", "nproc", "python", "numpy")
    mine, theirs = result["environment"], other["environment"]
    for key in host:
        if mine.get(key) != theirs.get(key):
            lines.append(f"warning: {key} differs: {mine.get(key)!r} here, {theirs.get(key)!r} there")
    lines.append(f"{'median ratio to the other file':<32}" + "".join(f"{mode:>11}" for mode in MODES))
    for name, modes in result["entries"].items():
        ratios = []
        for mode in MODES:
            base = other["entries"].get(name, {}).get(mode)
            ratios.append(f"{modes[mode]['median_s'] / base['median_s']:.3f}" if base else "-")
        lines.append(f"{name:<32}" + "".join(f"{r:>11}" for r in ratios))
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
