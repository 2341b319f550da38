"""Property tests: mutated model documents end in a clean ``SvauditError``.

A valid table, tree (with a shared subtree) and diagram are written to
documents, then mutated: keys and list entries are dropped, and values are
swapped for atoms of every JSON type. Each mutated document either fails to
load with an ``SvauditError``, or loads into a model on which explain,
Shapley, adversarial and the writer all run, and whose written bytes load
and write back unchanged.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from svaudit.adversarial import adversarial_report
from svaudit.errors import SvauditError
from svaudit.explain import relevancy_report
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
