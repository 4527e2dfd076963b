"""Run-time spans and counters around frontierkit's public functions.

Nothing here edits the library: ``Tracer.install`` swaps each traced function
for a wrapper in every ``frontierkit`` module namespace that binds it (and on
the class, for methods), and ``uninstall`` puts the originals back.

Per-call functions get spans ``(name, op, parent, start, end)`` plus how much
each global counter grew while the span was open. Per-point accessors (the
scalar derivative accessors and the FOC's ``kappa_prime``) only bump a
counter, which keeps the overhead bounded. Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from frontierkit import _oracles, cli, frontiers, mechanism, mixture, roots, smoothing, technology, variational

# span name -> [(owner, attribute)]; an owner is a module or a class
SPANNED = {
    "technology.build": [(technology, "make_moral_hazard_technology")],
    "technology.effort_solve": [(technology, "effort_star_array"), (technology, "effort_star")],
    "mechanism.payoff": [(mechanism, "payoff")],
    "variational.gateaux_closed_form": [(variational, "gateaux_closed_form")],
    "variational.gateaux_fd": [(variational, "gateaux_fd")],
    "variational.profile_exact": [(variational.SupergradientProfile, "exact")],
    "mixture.mixture_value": [(mixture, "mixture_value")],
    "oracles.brute_force_mixture_value": [(_oracles, "brute_force_mixture_value")],
    "smoothing.params_auto": [(smoothing.SmoothingParams, "auto")],
    "smoothing.build_smooth_pair": [(smoothing, "build_smooth_pair")],
    "smoothing.verify_monster": [(smoothing, "verify_monster")],
    "roots": [(roots, n) for n in ("expand_bracket", "bisect", "solve_monotone", "golden_section_max")],
    "cli.export_curves": [(cli, "export_curves")],
}
EFFORT = "technology.effort_solve"
SMOOTHING = ("smoothing.params_auto", "smoothing.build_smooth_pair", "smoothing.verify_monster")

# counter slots: scalar derivative calls, FOC evaluations inside an effort
# solve (elements passed to kappa_prime), effort points solved, effort calls
DERIV, FOC, POINTS, EFFORT_CALLS = range(4)


class Tracer:
    def __init__(self):
        self.op = "setup"  # "setup", an op index, "check" or "csv"
        self.spans = []  # (name, op, parent, start, end, counter growth)
        self.counts = [0, 0, 0, 0]
        self.effort_solves = []  # (op, prims, u, L) of each solve, for the FOC residual
        self._stack = []
        self._effort_depth = 0
        self._undo = []
        self.counts_before_csv = None

    def start_csv(self):
        """Attribute what follows to the CSV gate, not to the workload's layers."""
        self.op = "csv"
        self.counts_before_csv = list(self.counts)

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        effort = name == EFFORT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = list(counts)
            self._effort_depth += effort
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._effort_depth -= effort
                if effort:
                    counts[EFFORT_CALLS] += 1
                    counts[POINTS] += int(np.size(args[1]))
                spans[idx] = (name, self.op, parent, start, end, [a - b for a, b in zip(counts, before)])
            if effort:
                self.effort_solves.append((self.op, args[0], np.array(args[1], dtype=float), np.array(out, dtype=float)))
            return out

        return wrapper

    def _counted(self, slot, fn, weigh):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj, x):
            counts[slot] += weigh(x)
            return fn(obj, x)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "frontierkit" or n.startswith("frontierkit.")]
        for name, targets in SPANNED.items():
            for owner, attr in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._spanned(name, raw.__func__)))
                    continue
                wrapped = self._spanned(name, raw)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._set(mod, key, wrapped)
        for attr in ("left_deriv", "right_deriv"):
            self._set(frontiers.Frontier, attr, self._counted(DERIV, vars(frontiers.Frontier)[attr], lambda u: 1))
        self._set(
            technology.PowerCost,
            "kappa_prime",
            self._counted(FOC, vars(technology.PowerCost)["kappa_prime"], lambda L: int(np.size(L)) if self._effort_depth else 0),
        )

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "parent", "start", "end", "counter_growth"], "spans": self.spans}, fh)


def foc_residual_max(effort_solves) -> float:
    """Worst scaled FOC residual ``|w phi'(phi_inv(u + kappa(L))) - kappa'(L)|``.

    Call after ``uninstall`` so these evaluations are not counted.
    """
    worst = 0.0
    for op, prims, u, L in effort_solves:
        if op == "csv":
            continue
        res = prims.w * prims.phi.phi_prime_at_inv(u + prims.kappa.kappa(L)) - prims.kappa.kappa_prime(L)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def layer_metrics(tracer: Tracer, loop_wall: float, csv_bytes: int) -> dict:
    """Per-layer numbers from the spans: set-up and ops for the layers, the
    CSV gate for ``cli.export_curves`` alone."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, op, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = {}
    csv_self = 0.0
    top_in_ops = 0.0
    for i, (name, op, parent, start, end, grew) in enumerate(spans):
        dur = end - start
        if op == "csv":
            if name == "cli.export_curves":
                csv_self += dur - child[i]
            continue
        if op == "check":  # the gates' own references, not workload work
            continue
        if parent < 0 and isinstance(op, int):
            top_in_ops += dur
        a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "grew": [0, 0, 0, 0]})
        a["calls"] += 1
        a["self_s"] += dur - child[i]
        a["incl_s"] += dur
        a["grew"] = [x + y for x, y in zip(a["grew"], grew)]

    get = lambda name: agg.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "grew": [0, 0, 0, 0]})
    per = lambda num, den: num / den if den else 0.0
    eff, pay, gcf, mv = get(EFFORT), get("mechanism.payoff"), get("variational.gateaux_closed_form"), get("mixture.mixture_value")
    smooth_effort_calls = sum(get(n)["grew"][EFFORT_CALLS] for n in SMOOTHING)
    points = eff["grew"][POINTS]
    scalar_derivs = (tracer.counts_before_csv or tracer.counts)[DERIV]
    return {
        "technology.build.calls": get("technology.build")["calls"],
        "technology.build.self_s": get("technology.build")["self_s"],
        "technology.effort_solve.calls": eff["calls"],
        "technology.effort_solve.points": points,
        "technology.effort_solve.points_per_call": per(points, eff["calls"]),
        "technology.effort_solve.self_s": eff["self_s"],
        "technology.effort_solve.us_per_point": 1e6 * per(eff["incl_s"], points),
        "technology.foc_evals_per_point": per(eff["grew"][FOC], points),
        "technology.foc_residual_max": foc_residual_max(tracer.effort_solves),
        "frontiers.scalar_deriv.calls": scalar_derivs,
        "mechanism.payoff.calls": pay["calls"],
        "mechanism.payoff.self_s": pay["self_s"],
        "mechanism.payoff.ms_per_call": 1e3 * per(pay["incl_s"], pay["calls"]),
        "mechanism.payoff.effort_points_per_call": per(pay["grew"][POINTS], pay["calls"]),
        "variational.gateaux_closed_form.calls": gcf["calls"],
        "variational.gateaux_closed_form.self_s": gcf["self_s"],
        "variational.gateaux_closed_form.deriv_evals_per_call": per(gcf["grew"][DERIV], gcf["calls"]),
        "variational.gateaux_fd.self_s": get("variational.gateaux_fd")["self_s"],
        "variational.profile_exact.self_s": get("variational.profile_exact")["self_s"],
        "mixture.mixture_value.calls": mv["calls"],
        "mixture.mixture_value.self_s": mv["self_s"],
        "mixture.mixture_value.deriv_evals_per_call": per(mv["grew"][DERIV], mv["calls"]),
        "oracles.brute_force_mixture_value.self_s": get("oracles.brute_force_mixture_value")["self_s"],
        "smoothing.params_auto.self_s": get("smoothing.params_auto")["self_s"],
        "smoothing.build_smooth_pair.self_s": get("smoothing.build_smooth_pair")["self_s"],
        "smoothing.verify_monster.self_s": get("smoothing.verify_monster")["self_s"],
        "smoothing.effort_calls_per_level": per(smooth_effort_calls, get("smoothing.build_smooth_pair")["calls"]),
        "roots.calls": get("roots")["calls"],
        "roots.self_s": get("roots")["self_s"],
        "cli.export_curves.self_s": csv_self,
        "cli.export_curves.bytes": csv_bytes,
        "trace.unattributed_s": loop_wall - top_in_ops,
    }
