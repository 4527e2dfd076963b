"""Every function in ``src/frontierkit`` is entered by a default command, or
named in `UNREACHED` with the reason it stays.

The 16 default commands (every ``verify`` suite, ``frontier``, ``smooth``,
``solve-deadline`` and every ``export``) run in process under
``sys.setprofile``, which sees each Python function call. A ``def`` that none
of them enters is code only tests reach: give it a command that needs it,
delete it, or add it here with a reason.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import frontierkit
from frontierkit import cli

SRC = Path(frontierkit.__file__).resolve().parent

_BRANCH_AT_0 = "exact at a breakpoint at 0, where the base bisection stops 200 halvings short"

#: the functions no default command enters, and why each stays
UNREACHED = {
    "__init__.__getattr__": "`frontierkit.<name>` loads through it; the commands import from the submodules",
    "__init__.__dir__": "`dir(frontierkit)`; no command lists the package",
    "frontiers.Frontier._values": "the protocol's value hook declaration; every frontier class overrides it",
    "frontiers.Frontier._derivs": "the protocol's derivative hook declaration; every frontier class overrides it",
    "frontiers.AffineFrontier.argmax_linear": _BRANCH_AT_0,
    "frontiers.PiecewiseLinearFrontier.argmax_linear": _BRANCH_AT_0,
    "mechanism.pi_G": "the benchmark's quad-gateaux gate calls fk.pi_G",
    "report.VerificationReport.__getitem__": "tests read a report's checks by id",
    "smoothing.averaged_right_derivative": "public; a smoothed front merges the same slope plan into its source calls",
}


def package_defs() -> dict[tuple[Path, int], str]:
    """Each ``def`` in the package, keyed by its file and the first line of
    its code object (its first decorator's, if any), as ``module.qualname``."""
    out = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = f"{prefix}{child.name}"
                walk(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, f"{prefix}{child.name}.")
            else:
                walk(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(path, ast.parse(path.read_text()), f"{path.stem}.")
    return out


def default_commands(out: Path) -> list[list[str]]:
    cmds = [["verify", suite, "--trials", "3"] for suite in cli.SUITES]
    cmds += [["frontier", "--out", str(out)], ["smooth", "--out", str(out)], ["solve-deadline", "--promise", "0.2"]]
    return cmds + [["export", "--what", what, "--out", str(out)] for what in cli.EXPORTS]


def entered(cmds) -> tuple[set[tuple[Path, int]], list[int]]:
    """The package functions that running ``cmds`` enters, and the exit codes."""
    calls = set()

    def hook(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in cmds]
    finally:
        sys.setprofile(before)
    resolved = {name: Path(name).resolve() for name, _ in calls}
    return {(resolved[name], line) for name, line in calls}, codes


def test_every_function_is_entered_by_a_default_command_or_allowed(tmp_path):
    cmds = default_commands(tmp_path)
    assert len(cmds) == 16
    seen, codes = entered(cmds)
    assert codes == [0] * 16
    defs = package_defs()
    unreached = {name for key, name in defs.items() if key not in seen}
    assert unreached - UNREACHED.keys() == set(), "only tests reach these: use, delete or allow them"
    # an entry that a command now enters, or that names no def, is stale
    assert UNREACHED.keys() - unreached == set()
    assert all(reason for reason in UNREACHED.values())
