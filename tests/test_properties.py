"""Property tests: mutated inputs end in a clean error, never a traceback.

A valid table, tree (with a shared subtree) and diagram are written to
documents, then mutated: keys and list entries are dropped, and values are
swapped for atoms of every JSON type. Each mutated document either fails to
load with an ``SvauditError``, or loads into a model on which explain,
Shapley, adversarial and the writer all run, and whose written bytes load
and write back unchanged.

The command line is fuzzed the same way: argument lists drawn from the
subcommands, their flags and awkward atoms exit 0, 1 or 2, as does a fixed
sweep over every pair of each command's flags, and a small CSV with bytes
inserted or deleted makes ``build-omdd`` exit 0 or 1.

A differential property draws small classifiers as a tree with shared
subtrees, its table, its diagram under a shuffled order and a raw diagram,
and checks every engine against the brute-force oracles of ``oracle.py``.
"""

import contextlib
import copy
import io
import itertools
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    check_mutual_mhs,
    o_axps,
    o_counterexample,
    o_cxps,
    o_min_l0_distance,
    o_minimal_adversarial_sets,
    o_shapley,
    o_witness,
    random_dag,
    random_raw_omdd,
)

from svaudit.adversarial import adversarial_report, min_l0_distance, minimal_adversarial_sets
from svaudit.cli import main
from svaudit.errors import SvauditError
from svaudit.explain import enumerate_explanations, relevancy_report
from svaudit.families import instantiate, solve_family
from svaudit.model_io import model_from_dict, model_to_dict, model_to_json
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    TabularClassifier,
    find_counterexample,
    to_omdd,
    to_tabular,
)
from svaudit.scan import analyze_instance
from svaudit.shapley import shapley_values


def _base_documents():
    space = FeatureSpace((2, 3, 2))
    shared = Node(2, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(2))))
    middle = Node(1, ((frozenset({0}), shared), (frozenset({1, 2}), Leaf(1))))
    tree = DecisionTree(space, Node(0, ((frozenset({0}), middle), (frozenset({1}), shared))))
    table = TabularClassifier(FeatureSpace((2, 3)), (0, 1, 1, 2, 0, 1))
    return [model_to_dict(m) for m in (table, tree, to_omdd(tree, (2, 1, 0)))]


BASE_DOCUMENTS = _base_documents()
ATOMS = (True, False, None, 0, 1, 2, -1, 1.5, 10 ** 20, "x", [], {})
# (position, drop it or swap in the atom): a position is taken modulo the
# number of keys and list entries in the document as it stands
EDITS = st.lists(st.tuples(st.integers(0, 10 ** 4), st.booleans(), st.sampled_from(ATOMS)),
                 min_size=1, max_size=3)


def _positions(doc):
    out = []
    stack = [doc]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            keys = list(obj)
        elif isinstance(obj, list):
            keys = range(len(obj))
        else:
            continue
        for key in keys:
            out.append((obj, key))
            stack.append(obj[key])
    return out


def _mutate(doc, edits):
    doc = copy.deepcopy(doc)
    for where, drop, atom in edits:
        positions = _positions(doc)
        if not positions:
            break
        obj, key = positions[where % len(positions)]
        if drop:
            del obj[key]
        else:
            obj[key] = copy.deepcopy(atom)
    return doc


# A fixed seed keeps the suite deterministic; 600 documents take about a second.
@settings(max_examples=600, deadline=None, derandomize=True)
@given(base=st.sampled_from(BASE_DOCUMENTS), edits=EDITS)
def test_mutated_model_documents_load_or_fail_cleanly(base, edits):
    try:
        model = model_from_dict(_mutate(base, edits))
    except SvauditError:
        return
    problem = ExplanationProblem.of(model, (0,) * model.space.m)
    relevancy_report(problem)
    assert shapley_values(problem).residual == 0
    adversarial_report(problem)
    text = model_to_json(model)
    assert model_to_json(model_from_dict(json.loads(text))) == text


C5_TABLE = instantiate(solve_family("c5")).model
INPUT_FILES = {
    "table.json": model_to_json(C5_TABLE).encode(),
    "omdd.json": model_to_json(to_omdd(C5_TABLE, (1, 2, 0))).encode(),
    "data.csv": b"x1,x2,y\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n",
}
# each subcommand's required flags, then its other flags
COMMAND_FLAGS = {
    "explain": (("--model", "--instance"), ("--method", "--out")),
    "shapley": (("--model", "--instance"), ("--method", "--out")),
    "adversarial": (("--model", "--instance"), ("--out",)),
    "validate": (("--model", "--instance"), ("--method", "--out")),
    "scan": (("--model",), ("--all", "--sample", "--seed", "--jobs", "--out")),
    "synth": (("--family",), ("--paper", "--solve", "--budget", "--seed", "--psi", "--out",
                              "--cert")),
    "build-omdd": (("--data",), ("--out",)),
    "convert": (("--model", "--to"), ("--order", "--out")),
}
BARE_FLAGS = ("--all", "--paper", "--solve")
# values some command accepts; ``--jobs`` takes only these, so no run starts
# more than two worker processes, and every other flag may also get an atom
FLAG_VALUES = {
    "--model": ("table.json", "omdd.json"), "--instance": ("1,1,2", "0,1,0"),
    "--method": ("brute",), "--out": ("out.json",),
    "--sample": ("2",), "--seed": ("0", "7"), "--jobs": ("1", "2"),
    "--family": ("a", "b", "c", "c5", "d"), "--budget": ("50", "-1", "0"), "--psi": ("3",),
    "--cert": ("cert.json",), "--data": ("data.csv",), "--to": ("table", "omdd"),
    "--order": ("2,3,1",),
}
ALL_FLAGS = (*BARE_FLAGS, *FLAG_VALUES)
# a missing file, a directory and malformed values
ARG_ATOMS = ("missing.json", ".", "", "1,,2", "1e3", "1" * 5000, "\uff11,\uff11,\uff12", "\x00",
             "-1", "0")


@st.composite
def _argument_lists(draw):
    """A subcommand, its required flags, then up to four more items: two in
    three its own flags, else any flag or a stray atom. A flag's value is,
    two in three, one it accepts somewhere, else an atom."""
    command = draw(st.sampled_from(tuple(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    own, stray = st.sampled_from(optional), st.sampled_from(ALL_FLAGS + ARG_ATOMS)
    others = draw(st.lists(st.one_of(own, own, stray), max_size=4))
    argv = [command]
    for item in (*required, *others):
        argv.append(item)
        if item == "--jobs":
            argv.append(draw(st.sampled_from(FLAG_VALUES[item])))
        elif item in FLAG_VALUES:
            accepted = st.sampled_from(FLAG_VALUES[item])
            argv.append(draw(st.one_of(accepted, accepted, st.sampled_from(ARG_ATOMS))))
    return argv


def _flag_sweep():
    """Each subcommand with its required flags at their first value, then
    each pair of its other flags (the one other flag, where it has only one)
    with every value of each: no draw is left to reach a combination."""
    for command, (required, optional) in COMMAND_FLAGS.items():
        head = [command]
        for flag in required:
            head += [flag, FLAG_VALUES[flag][0]]
        for flags in itertools.combinations(optional, min(2, len(optional))):
            spelled = [[[flag]] if flag in BARE_FLAGS
                       else [[flag, value] for value in FLAG_VALUES[flag]] for flag in flags]
            for parts in itertools.product(*spelled):
                yield head + [item for part in parts for item in part]


CSV_ATOMS = (b"\x00", b"\xef\xbb\xbf", b'"', b"\r\n", b"1" * 5000, b"\xff")
# (position, delete the byte there or insert the atom), positions modulo the length
CSV_EDITS = st.lists(st.tuples(st.integers(0, 10 ** 4), st.booleans(),
                               st.sampled_from(CSV_ATOMS)),
                     min_size=1, max_size=4)


def _run_in_scratch_dir(argv, files=INPUT_FILES):
    """``main(argv)`` in a fresh directory holding ``files``, so relative
    paths read and write only there; returns the exit status and stderr."""
    cwd = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in files.items():
            with open(os.path.join(scratch, name), "wb") as fp:
                fp.write(data)
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main(argv)
        finally:
            os.chdir(cwd)
    return status, err.getvalue()


# Fixed seeds keep both deterministic; 150 argument lists, or 150 CSVs, take under a second.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argument_lists())
def test_cli_argument_lists_exit_cleanly(argv):
    status, err = _run_in_scratch_dir(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err


# 66 argument lists; as ``FLAG_VALUES`` gives ``--jobs`` no more than 2, no
# run starts more than two worker processes
def test_every_pair_of_a_commands_flags_exits_cleanly():
    for argv in _flag_sweep():
        status, err = _run_in_scratch_dir(argv)
        assert status in (0, 1, 2), argv
        assert "Traceback" not in err, argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=CSV_EDITS)
def test_mutated_csv_files_build_or_fail_cleanly(edits):
    data = bytearray(INPUT_FILES["data.csv"])
    for where, delete, atom in edits:
        if delete and data:
            del data[where % len(data)]
        else:
            at = where % (len(data) + 1)
            data[at:at] = atom
    status, err = _run_in_scratch_dir(["build-omdd", "--data", "data.csv"],
                                      {"data.csv": bytes(data)})
    assert status in (0, 1)
    assert "Traceback" not in err


def _walk(root):
    """The class the ``Node`` and ``Leaf`` objects below ``root`` give a
    point, edge by edge: the function as drawn, read from no node list."""
    def fn(point):
        node = root
        while isinstance(node, Node):
            node = next(child for values, child in node.edges if point[node.feature] in values)
        return node.class_value
    return fn


def _o_issue(sv, axps):
    """The scan's issue verdict from the definition: some irrelevant i and
    relevant j (a feature of some AXp) with |Sv(i)| > |Sv(j)|."""
    relevant = frozenset().union(*axps)
    irrelevant = [abs(q) for i, q in enumerate(sv) if i not in relevant]
    relevant = [abs(sv[i]) for i in relevant]
    return bool(irrelevant and relevant) and max(irrelevant) > min(relevant)


# A fixed seed keeps it deterministic; 200 seeds, 1,600 instances, take about 3 s.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_every_engine_equals_the_oracles_on_every_representation(seed):
    rng = random.Random(seed)
    space = FeatureSpace(tuple(rng.choice((2, 3)) for _ in range(rng.randint(1, 4))))
    dag = random_dag(rng, space, classes=(-2, -1, 0, 2))
    order = list(range(space.m))
    rng.shuffle(order)
    raw = random_raw_omdd(rng, max_features=4, domain_pool=(2, 3))
    for model, fn in ((dag, _walk(dag.root)), (to_tabular(dag), _walk(dag.root)),
                      (to_omdd(dag, order), _walk(dag.root)), (raw, _walk(raw.root))):
        domains = model.space.domain_sizes
        for _ in range(2):
            v = tuple(rng.randrange(d) for d in domains)
            problem = ExplanationProblem(model, v, fn(v))
            sv = o_shapley(fn, domains, v)
            for backend in ("auto", "enumerate", "paths"):
                report = shapley_values(problem, backend=backend)
                assert report.values == sv and report.residual == 0
            axps, cxps = o_axps(fn, domains, v), o_cxps(fn, domains, v)
            for engine in ("duality", "brute"):
                assert enumerate_explanations(problem, engine) == (tuple(axps), tuple(cxps))
            assert check_mutual_mhs(axps, cxps)
            sets = o_minimal_adversarial_sets(fn, domains, v)
            assert [(a.changed, (a.witness, a.class_value))
                    for a in minimal_adversarial_sets(problem)] \
                == [(A, o_witness(fn, domains, v, A)) for A in sets]
            k, hits = min_l0_distance(problem)
            assert (k, [(h.changed, h.witness, h.class_value) for h in hits]) \
                == o_min_l0_distance(fn, domains, v)
            S = frozenset(i for i in range(len(domains)) if rng.random() < 0.5)
            target = rng.choice(sorted(model.class_values()))
            assert find_counterexample(model, S, v, target) \
                == o_counterexample(model, S, v, target)
            assert analyze_instance(problem).issue == _o_issue(sv, axps)
