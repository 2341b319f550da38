"""Property tests: mutated inputs end in a clean error, never a traceback.

A valid table, tree (with a shared subtree) and diagram are written to
documents, then mutated: keys and list entries are dropped, and values are
swapped for atoms of every JSON type. Each mutated document either fails to
load with an ``SvauditError``, or loads into a model on which explain,
Shapley, adversarial and the writer all run, and whose written bytes load
and write back unchanged.

The command line is fuzzed the same way: argument lists drawn from the
subcommands, their flags and awkward atoms exit 0, 1 or 2, and a small CSV
with bytes inserted or deleted makes ``build-omdd`` exit 0 or 1.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from svaudit.adversarial import adversarial_report
from svaudit.cli import main
from svaudit.errors import SvauditError
from svaudit.explain import relevancy_report
from svaudit.families import instantiate, solve_family
from svaudit.model_io import model_from_dict, model_to_dict, model_to_json
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    TabularClassifier,
    to_omdd,
)
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
