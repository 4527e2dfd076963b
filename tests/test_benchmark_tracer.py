"""The benchmark's tracer binds frontierkit's functions by name: every name
must resolve, and installing then uninstalling must leave the package as it was."""

import importlib.util
import sys
from pathlib import Path

import frontierkit

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
