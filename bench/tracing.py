"""In-process tracing of svaudit's public functions for the per-layer run.

Wrappers are installed by the benchmark, not by the program: each replaces
a function object wherever a module of the package holds it, because the
modules import names by value (``from .models import find_counterexample``).
``evaluate`` and ``validate_point`` are wrapped on their classes.

A timed wrapper pushes a frame; on exit its self time is its duration minus
the time of the timed calls beneath it. Calls of the hot leaves (per-point
evaluation, cube sums, counterexample and witness probes) are aggregated
into per-name totals; every other timed call is also kept as a span
``(name, start, end, parent span, op id, self time)`` and written out at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

REPS = ("table", "dt", "omdd")
_REP = {"TabularClassifier": "table", "DecisionTree": "dt", "Omdd": "omdd"}


def rep_of(model) -> str:
    return _REP[type(model).__name__]


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, op, self_s)
        self.calls = {}      # name -> call count
        self.self_s = {}     # name -> total self time
        self.extra = {}      # name -> counter (found, hits, rounds, axps)
        self.stack = []      # [child time, span index of nearest spanned frame]
        self.op = -1
        self._undo = []

    def bump(self, name, n=1):
        self.extra[name] = self.extra.get(name, 0) + n

    def call(self, name, fn, args, kwargs, keep_span=True):
        stack = self.stack
        parent = stack[-1][1] if stack else -1
        sid = parent
        if keep_span:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [0.0, sid]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            own = dur - frame[0]
            if stack:
                stack[-1][0] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if keep_span:
                self.spans[sid] = (name, start, end, parent, self.op, own)

    # -- installing wrappers -------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "svaudit" and not modname.startswith("svaudit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _set_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def timed(self, original, name_of, keep_span=True, on_result=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = name_of(*args, **kwargs)
            result = tracer.call(name, original, args, kwargs, keep_span)
            if on_result is not None:
                on_result(name, result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, original, name):
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    def install(self):
        import svaudit.adversarial as adversarial
        import svaudit.cli  # noqa: F401  (its by-value imports are replaced too)
        import svaudit.explain as explain
        import svaudit.model_io as model_io
        import svaudit.models as models
        import svaudit.scan as scan
        import svaudit.shapley as shapley

        def fixed(name):
            return lambda *a, **k: name

        for cls in (models.TabularClassifier, models.DecisionTree, models.Omdd):
            name = f"models.evaluate.{_REP[cls.__name__]}"
            self._set_method(cls, "evaluate",
                             self.timed(cls.evaluate, fixed(name), keep_span=False))
        self._set_method(models.FeatureSpace, "validate_point",
                         self.counted(models.FeatureSpace.validate_point, "models.validate_point"))

        def cube_name(model, S, v, backend="auto"):
            if backend == "auto":
                backend = "enumerate" if rep_of(model) == "table" else "paths"
            return f"models.cube_sum.{backend}"

        def found(name, result, *a, **k):
            if result is not None:
                self.bump(name + ".found")

        def rounds(name, result, problem, engine="duality", **k):
            axps, cxps = result
            if engine == "duality":
                self.bump("explain.duality_rounds", len(axps) + len(cxps) + 1)
                self.bump("explain.axps", len(axps))

        plan = [
            (models.sum_kappa_over_cube, cube_name, False, None),
            (models.find_counterexample,
             lambda model, *a, **k: f"models.counterexample.{rep_of(model)}", False, found),
            (models.to_tabular, fixed("models.to_tabular"), True, None),
            (models.tabular_to_omdd, fixed("models.tabular_to_omdd"), True, None),
            (models.reduce_omdd, fixed("models.reduce_omdd"), True, None),
            (model_io.load_model, fixed("model_io.load_model"), True, None),
            (model_io.model_to_json, fixed("model_io.model_to_json"), True, None),
            (shapley.shapley_values,
             lambda problem, *a, **k: f"shapley.shapley_values.{rep_of(problem.model)}", True, None),
            (explain.enumerate_explanations, fixed("explain.enumerate_explanations"), True, rounds),
            (explain.minimal_hitting_sets, fixed("explain.minimal_hitting_sets"), True, None),
            (adversarial.minimal_adversarial_sets,
             fixed("adversarial.minimal_adversarial_sets"), True, None),
            (adversarial.min_l0_distance, fixed("adversarial.min_l0_distance"), True, None),
            (adversarial.find_witness, fixed("adversarial.find_witness"), False, found),
            (scan.analyze_instance, fixed("scan.analyze_instance"), True, None),
            (scan.records_to_csv, fixed("scan.records_to_csv"), True, None),
            (scan.load_consistent_dataset, fixed("scan.load_consistent_dataset"), True, None),
            (scan.build_omdd_from_dataset, fixed("scan.build_omdd_from_dataset"), True, None),
        ]
        for original, name_of, keep_span, on_result in plan:
            self._replace_everywhere(original, self.timed(original, name_of, keep_span, on_result))
        self._replace_everywhere(shapley.phi, self.counted(shapley.phi, "shapley.phi"))
        self._replace_everywhere(explain.is_counterfactual,
                                 self.counted(explain.is_counterfactual, "explain.is_counterfactual"))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")

    def inclusive_share(self, child, parent, command=None):
        """Share of the parent spans' wall time spent in child spans directly
        beneath them; with ``command``, only within that CLI command."""
        spans = self.spans

        def root(s):
            while s[3] >= 0:
                s = spans[s[3]]
            return s[0]

        parents = {i for i, s in enumerate(spans) if s[0].startswith(parent)
                   and (command is None or root(s) == f"cli.{command}")}
        total = sum(spans[i][2] - spans[i][1] for i in parents)
        part = sum(s[2] - s[1] for s in spans if s[0].startswith(child) and s[3] in parents)
        return part / total if total else 0.0

    def self_p50(self, name):
        values = [s[5] for s in self.spans if s[0] == name]
        return statistics.median(values) if values else 0.0

    def metrics(self):
        """Per-layer metrics: (name, value, unit); calls and self time per
        representation where the issue asks for them."""
        c, t, x = self.calls, self.self_s, self.extra
        out = []
        for rep in REPS:
            out.append((f"models.evaluate.calls.{rep}", c.get(f"models.evaluate.{rep}", 0), "count"))
        for rep in REPS:
            out.append((f"models.evaluate.self_s.{rep}", t.get(f"models.evaluate.{rep}", 0.0), "s"))
        out.append(("models.validate_point.calls", c.get("models.validate_point", 0), "count"))
        cube = [f"models.cube_sum.{b}" for b in ("enumerate", "paths")]
        out.append(("models.cube_sum.calls", sum(c.get(n, 0) for n in cube), "count"))
        out.append(("models.cube_sum.self_s.enumerate", t.get(cube[0], 0.0), "s"))
        out.append(("models.cube_sum.self_s.paths", t.get(cube[1], 0.0), "s"))
        for rep in REPS:
            name = f"models.counterexample.{rep}"
            n = c.get(name, 0)
            out.append((f"models.counterexample.calls.{rep}", n, "count"))
            out.append((f"models.counterexample.self_s.{rep}", t.get(name, 0.0), "s"))
            out.append((f"models.counterexample.found_ratio.{rep}",
                        x.get(name + ".found", 0) / n if n else 0.0, "ratio"))
        for name in ("models.to_tabular", "models.tabular_to_omdd", "models.reduce_omdd",
                     "model_io.load_model", "model_io.model_to_json"):
            out.append((f"{name}.self_s", t.get(name, 0.0), "s"))
        for rep in ("table", "omdd"):  # no workload scans a tree
            out.append((f"shapley.shapley_values.self_s_p50.{rep}",
                        self.self_p50(f"shapley.shapley_values.{rep}"), "s"))
        out.append(("shapley.phi.calls", c.get("shapley.phi", 0), "count"))
        rounds = x.get("explain.duality_rounds", 0)
        out += [
            ("explain.enumerate_explanations.self_s", t.get("explain.enumerate_explanations", 0.0), "s"),
            ("explain.duality_rounds", rounds, "count"),
            ("explain.minimal_hitting_sets.calls", c.get("explain.minimal_hitting_sets", 0), "count"),
            ("explain.minimal_hitting_sets.self_s", t.get("explain.minimal_hitting_sets", 0.0), "s"),
            ("explain.is_counterfactual.calls", c.get("explain.is_counterfactual", 0), "count"),
            ("explain.axp_yield", x.get("explain.axps", 0) / rounds if rounds else 0.0, "ratio"),
            ("explain.enumerate_explanations.mhs_share",
             self.inclusive_share("explain.minimal_hitting_sets", "explain.enumerate_explanations",
                                  command="explain"),
             "ratio"),
        ]
        witness = c.get("adversarial.find_witness", 0)
        out += [
            ("adversarial.minimal_adversarial_sets.self_s",
             t.get("adversarial.minimal_adversarial_sets", 0.0), "s"),
            ("adversarial.min_l0_distance.self_s", t.get("adversarial.min_l0_distance", 0.0), "s"),
            ("adversarial.find_witness.calls", witness, "count"),
            ("adversarial.find_witness.hit_ratio",
             x.get("adversarial.find_witness.found", 0) / witness if witness else 0.0, "ratio"),
            ("scan.analyze_instance.self_s_p50", self.self_p50("scan.analyze_instance"), "s"),
            ("scan.analyze_instance.shapley_share",
             self.inclusive_share("shapley.shapley_values", "scan.analyze_instance"), "ratio"),
        ]
        for name in ("scan.records_to_csv", "scan.load_consistent_dataset",
                     "scan.build_omdd_from_dataset"):
            out.append((f"{name}.self_s", t.get(name, 0.0), "s"))
        return out
