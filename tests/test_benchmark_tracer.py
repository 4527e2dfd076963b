"""The benchmark binds frontierkit's names: the tracer's and the workloads'
must resolve, and installing then uninstalling the tracer must leave the
package as it was."""

import ast
import importlib.util
import sys
from pathlib import Path

import frontierkit
from frontierkit import _oracles, cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(tracing):
    """Every namespace the tracer may write to: the package's modules and the
    classes it names."""
    owners = [m for n, m in sys.modules.items() if n == "frontierkit" or n.startswith("frontierkit.")]
    owners += [owner for targets in tracing.SPANNED.values() for owner, _ in targets if isinstance(owner, type)]
    owners += [frontierkit.frontiers.Frontier, frontierkit.technology.PowerCost]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_every_spanned_name_resolves():
    tracing = load_tracing()
    for name, targets in tracing.SPANNED.items():
        for owner, attr in targets:
            assert attr in vars(owner), (name, owner, attr)


def test_install_wraps_each_name_and_uninstall_restores_every_attribute():
    tracing = load_tracing()
    before = namespaces(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for targets in tracing.SPANNED.values():
            for owner, attr in targets:
                assert vars(owner)[attr] is not before[id(owner)][1][attr], (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attrs in before.values():
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_every_library_name_the_workloads_read_resolves():
    # a wrong rename or deletion in the package fails here, not only as a
    # benchmark run that cannot start
    roots = {"fk": frontierkit, "cli": cli, "_oracles": _oracles}
    read = 0
    for name in ("workloads.py", "worker.py"):
        for node in ast.walk(ast.parse((_PERFBENCH / name).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "frontierkit":
                chains = [[alias.name] for alias in node.names]
                owner = frontierkit
            elif isinstance(node, ast.Attribute):
                attrs = []
                while isinstance(node, ast.Attribute):
                    attrs.insert(0, node.attr)
                    node = node.value
                if not (isinstance(node, ast.Name) and node.id in roots):
                    continue
                chains, owner = [attrs], roots[node.id]
            else:
                continue
            for attrs in chains:
                obj = owner
                for attr in attrs:
                    assert hasattr(obj, attr), (name, ".".join(attrs))
                    obj = getattr(obj, attr)
                read += 1
    assert read > 20
