"""The two benchmark workloads: their input files, set-up commands, the
CLI calls of one cycle of the closed loop, and the checks on every output.

Every workload runs the three query commands (`scan`, `explain`,
`adversarial`), because every end-to-end metric is reported on every
workload; what differs is the models, and so which engine dominates:

* ``scan-omdd`` -- an OMDD built from a 40k-row CSV (m = 10): `scan` is
  graph Shapley (`paths` cube sums); the table `enumerate` path never runs.
* ``queries`` -- `explain` on a k-of-n model whose answers have 126 sets
  (minimal hitting sets dominate) and `adversarial` on a 14-feature tree,
  each on the tree file and on its OMDD; its `scan` is on a table (m = 8),
  table Shapley (`enumerate` cube sums), and the `paths` backend never runs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import inputs

# Templates are fixed; the workload seed relabels them (see inputs.relabel).
TEMPLATE_SEEDS = {"table": 11, "omdd": 7, "adv": 3, "kofn": 5}

# The 45 instances of the k-of-n model with 8 ones (two zeros): 56 AXps + 70
# CXps each. Their costs differ by up to 2x, so a run visits them without
# replacement in a seeded order and every run sees nearly the same mix.
KOFN_INSTANCES = [tuple(int(j not in zeros) for j in range(inputs.KOFN_M))
                  for zeros in itertools.combinations(range(inputs.KOFN_M), 2)]


class Op(NamedTuple):
    kind: str            # "scan", "explain" or "adversarial"
    argv: tuple          # CLI arguments after the program name
    model: str           # key into Workload.models
    instance: tuple = ()  # the instance of explain / adversarial
    sample: int = 0      # instances asked of a scan


def _inst(point):
    return ",".join(map(str, point))


class CheckError(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckError(what)


def dec_str(q: Fraction) -> str:
    """The reports' 4-place decimal: half away from zero, exact arithmetic."""
    units = (abs(q.numerator) * 10_000 + q.denominator // 2) // q.denominator
    sign = "-" if q < 0 and units else ""
    return f"{sign}{units // 10_000}.{units % 10_000:04d}"


class Workload:
    """One workload in a work directory; ``models`` maps a model key to
    (file name, domain sizes, class function) for checking outputs."""

    name = ""
    scan_sample = 1
    brute_explain = True  # affordable to run o_axps / o_cxps on this model
    layers: frozenset = frozenset()  # wrapped names the traced run must see called

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.models = {}

    def path(self, name):
        return f"{self.workdir}/{name}"

    def prepare(self):
        raise NotImplementedError

    def setup_steps(self):
        """(CLI arguments before ``--out``, output file name) of each
        set-up call."""
        raise NotImplementedError

    def setup_argvs(self, prefix=""):
        """The set-up calls; ``prefix`` renames their output files, so a
        repeat of the set-up leaves the files the cycles read alone."""
        return [(*argv, "--out", self.path(prefix + out)) for argv, out in self.setup_steps()]

    def cycle(self, i):
        raise NotImplementedError

    # -- checks ------------------------------------------------------------

    def check_cycle(self, ops, outputs, oracle: bool):
        """Raise CheckError if any output of one cycle is wrong. ``oracle``
        adds the brute-force oracles of tests/oracle.py (first cycle only)."""
        raise NotImplementedError

    def check_scan(self, op, out, oracle):
        _, domains, fn = self.models[op.model]
        m = len(domains)
        rows = list(csv.reader(io.StringIO(out.decode())))
        header = ["instance_index", *(f"x{i + 1}" for i in range(m)), "class",
                  *(f"sv_{i + 1}" for i in range(m)), "relevant", "issue", "v_i", "v_j"]
        _require(rows and rows[0] == header, "scan header")
        rows = rows[1:]
        _require(len(rows) == op.sample, "scan record count")
        indices = [int(r[0]) for r in rows]
        _require(indices == sorted(set(indices)), "scan records sorted and distinct")
        for r in rows:
            point = tuple(int(x) for x in r[1:m + 1])
            idx = 0
            for x, d in zip(point, domains):
                idx = idx * d + x
            _require(idx == int(r[0]), "scan instance index")
            _require(int(r[m + 1]) == fn(point), "scan class")
            sv = [Fraction(x) for x in r[m + 2:2 * m + 2]]
            relevant = {int(k) - 1 for k in r[2 * m + 2].split(";") if k}
            _require(relevant, "scan: some feature is relevant")
            irrelevant = set(range(m)) - relevant
            v_i = max((abs(sv[k]) for k in irrelevant), default=None)
            v_j = min(abs(sv[k]) for k in relevant)
            _require(r[2 * m + 4] == ("" if v_i is None else dec_str(v_i)), "scan v_i")
            _require(r[2 * m + 5] == dec_str(v_j), "scan v_j")
        if oracle:
            import oracle as o
            r = rows[0]
            point = tuple(int(x) for x in r[1:m + 1])
            exact = o.o_shapley(fn, domains, point)
            _require(r[m + 2:2 * m + 2] == [dec_str(q) for q in exact], "scan sv vs o_shapley")
            if self.brute_explain:
                relevant = set().union(*o.o_axps(fn, domains, point))
                _require(r[2 * m + 2] == ";".join(str(k + 1) for k in sorted(relevant)),
                         "scan relevant vs o_axps")
                irr = max((abs(exact[k]) for k in range(m) if k not in relevant), default=None)
                rel = min(abs(exact[k]) for k in relevant)
                _require(r[2 * m + 3] == str(int(irr is not None and irr > rel)),
                         "scan issue vs oracle")

    def check_explain(self, op, out, oracle):
        """Returns the CXps (0-based frozensets) for cross-checks."""
        doc = json.loads(out)
        m = len(self.models[op.model][1])
        axps = [frozenset(i - 1 for i in s) for s in doc["axps"]]
        cxps = [frozenset(i - 1 for i in s) for s in doc["cxps"]]
        import oracle as o
        _require(o.check_mutual_mhs(axps, cxps), "explain: AXps and CXps mutual MHS")
        relevant = frozenset().union(*axps)
        _require(doc["relevant"] == sorted(i + 1 for i in relevant), "explain relevant")
        necessary = frozenset(range(m)).intersection(*axps)
        _require(doc["necessary"] == sorted(i + 1 for i in necessary), "explain necessary")
        _require(doc["irrelevant"] == sorted(i + 1 for i in set(range(m)) - relevant),
                 "explain irrelevant")
        if oracle and self.brute_explain:
            _, domains, fn = self.models[op.model]
            _require(sorted(axps, key=sorted) == sorted(o.o_axps(fn, domains, op.instance), key=sorted),
                     "explain AXps vs o_axps")
            _require(sorted(cxps, key=sorted) == sorted(o.o_cxps(fn, domains, op.instance), key=sorted),
                     "explain CXps vs o_cxps")
        return cxps

    def check_adversarial(self, op, out, cxps):
        doc = json.loads(out)
        fn = self.models[op.model][2]
        v = op.instance
        c = fn(v)
        changed_sets = []
        for entry in doc["minimal_sets"]:
            changed = frozenset(i - 1 for i in entry["changed"])
            w = tuple(entry["witness"])
            _require(len(w) == len(v), "adversarial witness arity")
            _require({i for i in range(len(v)) if w[i] != v[i]} == changed,
                     "adversarial witness differs exactly on changed")
            _require(entry["class"] == fn(w) != c, "adversarial witness class")
            changed_sets.append(changed)
        _require(sorted(changed_sets, key=sorted) == sorted(cxps, key=sorted),
                 "adversarial changed-sets equal the CXps")
        _require(doc["min_l0"] == min(len(s) for s in changed_sets), "adversarial min_l0")


class ScanOmdd(Workload):
    """A cycle: one scan, then explain and adversarial on each of a few
    instances, all on one OMDD."""

    name = "scan-omdd"
    scan_sample = 3
    pairs = 3
    model_file = "model.omdd.json"
    brute_explain = False  # o_axps over 6,912 points x 1,024 subsets is too slow
    layers = frozenset({
        "models.evaluate.omdd", "models.validate_point", "models.cube_sum.paths",
        "models.counterexample.omdd", "models.tabular_to_omdd", "models.reduce_omdd",
        "model_io.load_model", "model_io.model_to_json", "shapley.shapley_values.omdd",
        "shapley.phi", "explain.enumerate_explanations", "explain.minimal_hitting_sets",
        "explain.is_counterfactual", "adversarial.minimal_adversarial_sets",
        "adversarial.min_l0_distance", "adversarial.find_witness",
        "scan.analyze_instance", "scan.records_to_csv", "scan.load_consistent_dataset",
        "scan.build_omdd_from_dataset"})

    def prepare(self):
        domains = inputs.OMDD_DOMAINS
        template = inputs.random_tree(random.Random(TEMPLATE_SEEDS["omdd"]), domains)
        rng = random.Random(self.seed)
        root = inputs.relabel(rng, domains, template)
        inputs.write_dataset(self.path("data.csv"), rng, domains, root)
        self.models["main"] = (self.model_file, domains, dataset_function(self.path("data.csv")))

    def setup_steps(self):
        return [(("build-omdd", "--data", self.path("data.csv")), self.model_file)]

    def cycle(self, i):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        _, domains, _ = self.models["main"]
        model = self.path(self.model_file)
        ops = [Op("scan", ("scan", "--model", model, "--sample", str(self.scan_sample),
                           "--seed", str(rng.randrange(1 << 30)), "--jobs", "1"),
                  "main", sample=self.scan_sample)]
        for _ in range(self.pairs):
            v = tuple(rng.randrange(d) for d in domains)
            for kind in ("explain", "adversarial"):
                ops.append(Op(kind, (kind, "--model", model, "--instance", _inst(v)), "main", v))
        return ops

    def check_cycle(self, ops, outputs, oracle):
        self.check_scan(ops[0], outputs[0], oracle)
        for j in range(1, len(ops), 2):
            cxps = self.check_explain(ops[j], outputs[j], oracle and j == 1)
            self.check_adversarial(ops[j + 1], outputs[j + 1], cxps)


def dataset_function(path):
    """The function build-omdd documents for a CSV of integer codes 0..d-1:
    first row wins for each point, unseen points take the majority class
    (ties to the smallest)."""
    with open(path, encoding="utf-8") as fp:
        rows = list(csv.reader(fp))[1:]
    first = {}
    for row in rows:
        first.setdefault(tuple(map(int, row[:-1])), int(row[-1]))
    counts = Counter(first.values())
    default = min(counts, key=lambda c: (-counts[c], c))
    return lambda p: first.get(tuple(p), default)


class Queries(Workload):
    name = "queries"
    scan_sample = 16
    layers = frozenset({
        "models.evaluate.dt", "models.evaluate.omdd", "models.evaluate.table",
        "models.validate_point", "models.cube_sum.enumerate", "models.counterexample.dt",
        "models.counterexample.omdd", "models.counterexample.table", "models.to_tabular",
        "models.tabular_to_omdd", "models.reduce_omdd", "model_io.load_model",
        "model_io.model_to_json", "shapley.shapley_values.table", "shapley.phi",
        "explain.enumerate_explanations", "explain.minimal_hitting_sets",
        "explain.is_counterfactual", "adversarial.minimal_adversarial_sets",
        "adversarial.min_l0_distance", "adversarial.find_witness",
        "scan.analyze_instance", "scan.records_to_csv"})

    def prepare(self):
        rng = random.Random(self.seed)
        m = inputs.KOFN_M
        kofn = inputs.kofn_tree(random.Random(TEMPLATE_SEEDS["kofn"]))
        inputs.write_json(self.path("kofn.dt.json"), inputs.tree_doc((2,) * m, kofn))
        adv_template = inputs.random_tree(random.Random(TEMPLATE_SEEDS["adv"]), inputs.ADV_DOMAINS)
        adv = inputs.relabel(rng, inputs.ADV_DOMAINS, adv_template)
        inputs.write_json(self.path("adv.dt.json"), inputs.tree_doc(inputs.ADV_DOMAINS, adv))
        table_template = inputs.random_tree(random.Random(TEMPLATE_SEEDS["table"]), inputs.TABLE_DOMAINS)
        table = inputs.relabel(rng, inputs.TABLE_DOMAINS, table_template)
        inputs.write_json(self.path("tree.dt.json"), inputs.tree_doc(inputs.TABLE_DOMAINS, table))
        kofn_fn = lambda p: inputs.tree_eval(kofn, p)
        adv_fn = lambda p: inputs.tree_eval(adv, p)
        self.models.update({
            "kofn.dt": ("kofn.dt.json", (2,) * m, kofn_fn),
            "kofn.omdd": ("kofn.omdd.json", (2,) * m, kofn_fn),
            "adv.dt": ("adv.dt.json", inputs.ADV_DOMAINS, adv_fn),
            "adv.omdd": ("adv.omdd.json", inputs.ADV_DOMAINS, adv_fn),
            "table": ("model.table.json", inputs.TABLE_DOMAINS, lambda p: inputs.tree_eval(table, p)),
        })
        self._cxp_cache = {}
        self._kofn_order = random.Random(f"{self.name}:{self.seed}").sample(
            KOFN_INSTANCES, len(KOFN_INSTANCES))

    def setup_steps(self):
        return [(("convert", "--model", self.path("tree.dt.json"), "--to", "table"),
                 "model.table.json"),
                *((("convert", "--model", self.path(f"{name}.dt.json"), "--to", "omdd"),
                   f"{name}.omdd.json") for name in ("kofn", "adv"))]

    def cycle(self, i):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        u = self._kofn_order[i % len(KOFN_INSTANCES)]
        w = tuple(rng.randrange(d) for d in inputs.ADV_DOMAINS)
        ops = []
        for kind, name, point in (("explain", "kofn", u), ("adversarial", "adv", w)):
            for form in ("dt", "omdd"):
                key = f"{name}.{form}"
                ops.append(Op(kind, (kind, "--model", self.path(self.models[key][0]),
                                     "--instance", _inst(point)), key, point))
        ops.append(Op("scan", ("scan", "--model", self.path("model.table.json"),
                               "--sample", str(self.scan_sample),
                               "--seed", str(rng.randrange(1 << 30)), "--jobs", "1"),
                      "table", sample=self.scan_sample))
        return ops

    def check_cycle(self, ops, outputs, oracle):
        ex_dt, ex_omdd, adv_dt, adv_omdd, scan = ops
        _require(outputs[0] == outputs[1], "explain: tree and OMDD reports identical")
        _require(outputs[2] == outputs[3], "adversarial: tree and OMDD reports identical")
        self.check_explain(ex_dt, outputs[0], oracle=False)
        u = ex_dt.instance
        ones = [j for j in range(len(u)) if u[j]]
        k = inputs.KOFN_K
        doc = json.loads(outputs[0])
        # closed form for [sum >= k] at an instance with >= k ones: the AXps
        # are the k-subsets of the ones, the CXps the (ones-k+1)-subsets
        _require(doc["axps"] == [[j + 1 for j in s] for s in itertools.combinations(ones, k)],
                 "explain AXps closed form")
        _require(doc["cxps"] == [[j + 1 for j in s]
                                 for s in itertools.combinations(ones, len(ones) - k + 1)],
                 "explain CXps closed form")
        self.check_adversarial(adv_dt, outputs[2], self._adv_cxps(adv_dt.instance))
        self.check_scan(scan, outputs[4], oracle)

    def _adv_cxps(self, point):
        """CXps of the 14-feature tree by the library's duality engine, an
        engine independent of the brute-force adversarial search."""
        if point not in self._cxp_cache:
            from svaudit import model_io
            from svaudit.explain import enumerate_explanations
            from svaudit.models import ExplanationProblem
            model = model_io.load_model(self.path("adv.dt.json"))
            _, cxps = enumerate_explanations(ExplanationProblem.of(model, point))
            self._cxp_cache[point] = list(cxps)
        return self._cxp_cache[point]


WORKLOADS = {cls.name: cls for cls in (ScanOmdd, Queries)}
