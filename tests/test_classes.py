"""The value classes: construction, equality, hashing, repr, immutability and
pickling, pinned class by class."""

import pickle
import random
from fractions import Fraction

import pytest

from oracle import random_dag, random_space
from svaudit.adversarial import AdversarialSet, minimal_adversarial_sets
from svaudit.dataset import Dataset
from svaudit.errors import InputError, SvauditError
from svaudit.explain import RelevancyReport, one_axp, relevancy_report
from svaudit.families import _FAMILIES, FamilySpec, _FamilyDef
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    TabularClassifier,
    to_omdd,
)
from svaudit.scan import ScanRecord, ScanSummary, scan_model
from svaudit.shapley import SvReport, shapley_values

SPACE = FeatureSpace((2, 3), ("a", "b"))
TABLE_VALUES = (0, 1, 1, 1, 1, 1)
FIELDS = {  # constructor arguments, in order
    FeatureSpace: ("domain_sizes", "names"),
    TabularClassifier: ("space", "values"),
    Leaf: ("class_value",),
    Node: ("feature", "edges"),
    DecisionTree: ("space", "root"),
    Omdd: ("space", "order", "root"),
    ExplanationProblem: ("model", "point", "predicted"),
    SvReport: ("values", "phi_empty", "predicted", "residual"),
    RelevancyReport: ("axps", "cxps", "relevant", "necessary", "irrelevant"),
    AdversarialSet: ("changed", "witness", "class_value"),
    ScanRecord: ("index", "point", "predicted", "sv", "relevant", "issue", "v_irrelevant_max",
                 "v_relevant_min"),
    ScanSummary: ("total", "issues", "zero_sv_relevant"),
    Dataset: ("feature_names", "domain_sizes", "value_maps", "class_map", "rows", "dropped"),
    FamilySpec: ("family", "alpha", "sigmas", "psi"),
    _FamilyDef: ("domain_sizes", "block", "paper"),
}


def _graph():
    """A fresh ``x1 = 0 and x2 = 0 -> 0, else 1`` graph over SPACE."""
    low = Node(1, ((frozenset({0}), Leaf(0)), (frozenset({1, 2}), Leaf(1))))
    return Node(0, ((frozenset({0}), low), (frozenset({1}), Leaf(1))))


def _instances():
    """One instance of every value class, built positionally."""
    table = TabularClassifier(SPACE, TABLE_VALUES)
    problem = ExplanationProblem(table, (0, 1), 1)
    return [
        SPACE, table, Leaf(1), DecisionTree(SPACE, _graph()), Omdd(SPACE, (0, 1), _graph()),
        problem, shapley_values(problem), relevancy_report(problem),
        AdversarialSet(frozenset({1}), (0, 0), 0), scan_model(table, sample=1)[0][0],
        ScanSummary(3, 1, 0), Dataset(("a",), (2,), ({"0": 0, "1": 1},), None, (((0,), 1),), 0),
        FamilySpec("a", 3, (4, 0)), _FAMILIES["a"],
    ]


def test_positional_and_keyword_construction_agree_with_defaults():
    assert FeatureSpace((2, 3)) == FeatureSpace(domain_sizes=[2, 3], names=None)
    assert FeatureSpace((2, 3)).names == ("x1", "x2")
    assert FeatureSpace([2, 3], ["a", "b"]) == SPACE  # lists are stored as tuples
    assert TabularClassifier(SPACE, list(TABLE_VALUES)) == \
        TabularClassifier(space=SPACE, values=TABLE_VALUES)
    assert Leaf(1) == Leaf(class_value=1)
    node = Node(feature=0, edges=())
    assert (node.feature, node.edges) == (0, ())
    assert DecisionTree(SPACE, _graph()) == DecisionTree(space=SPACE, root=_graph())
    assert Omdd(SPACE, [0, 1], _graph()) == Omdd(space=SPACE, order=(0, 1), root=_graph())
    assert Omdd(SPACE, [0, 1], _graph()).order == (0, 1)
    table = TabularClassifier(SPACE, TABLE_VALUES)
    problem = ExplanationProblem(model=table, point=[0, 1], predicted=1)
    assert problem == ExplanationProblem(table, (0, 1), 1) == ExplanationProblem.of(table, (0, 1))
    assert problem.point == (0, 1)
    half = Fraction(1, 2)
    assert SvReport((half,), half, 1, Fraction(0)) == \
        SvReport(values=(half,), phi_empty=half, predicted=1, residual=Fraction(0))
    one = frozenset({0})
    assert RelevancyReport((one,), (one,), one, one, frozenset()) == RelevancyReport(
        axps=(one,), cxps=(one,), relevant=one, necessary=one, irrelevant=frozenset())
    assert AdversarialSet(one, (1,), 0) == AdversarialSet(changed=one, witness=(1,), class_value=0)
    assert ScanRecord(0, (0,), 1, (half,), one, False, None, half) == ScanRecord(
        index=0, point=(0,), predicted=1, sv=(half,), relevant=one, issue=False,
        v_irrelevant_max=None, v_relevant_min=half)
    assert ScanSummary(3, 1, 0) == ScanSummary(total=3, issues=1, zero_sv_relevant=0)
    assert Dataset(("a",), (2,), ({},), None, (), 0) == Dataset(
        feature_names=("a",), domain_sizes=(2,), value_maps=({},), class_map=None, rows=(),
        dropped=0)
    spec = FamilySpec("A", 3, [4, 0])
    assert (spec.family, spec.sigmas, spec.psi) == ("a", (4, 0), 1)
    assert spec == FamilySpec(family="a", alpha=3, sigmas=(4, 0), psi=1)
    assert FamilySpec("a", 3, (4, 0), 2).params == (6, 8, 0)
    fam = _FamilyDef((2, 2), (1, 0), None)
    assert (fam.arity, fam.instance) == (2, (1, 1))
    assert fam == _FamilyDef(domain_sizes=(2, 2), block=(1, 0), paper=None)


@pytest.mark.parametrize("make, message", [
    (lambda: FeatureSpace((2, 1)), "at least two values"),
    (lambda: FeatureSpace((2, 2), ("a",)), "names do not match"),
    (lambda: TabularClassifier(SPACE, (0,) * 6), "constant"),
    (lambda: TabularClassifier(SPACE, (0, 1)), "has 2 rows"),
    (lambda: DecisionTree(SPACE, Node(0, ((frozenset({0, 1}), Leaf(0)),))), "constant"),
    (lambda: Omdd(SPACE, (0, 0), _graph()), "not a permutation"),
    (lambda: Omdd(SPACE, (1, 0), _graph()), "does not advance"),
    (lambda: ExplanationProblem(TabularClassifier(SPACE, TABLE_VALUES), (0, 1), 0), "disagrees"),
    (lambda: ExplanationProblem(TabularClassifier(SPACE, TABLE_VALUES), (0, 3), 1), "outside"),
    (lambda: FamilySpec("a", 4, (4, 0)), "alpha must differ"),
    (lambda: FamilySpec("d", 0, (5, 2, 4, 9)), "class of every x1=0 row"),
    (lambda: FamilySpec("a", 3, (4, 0), psi=0), "psi"),
    (lambda: FamilySpec("z", 3, (4, 0)), "unknown family"),
    # integers only, as in model files: no booleans, no truncated floats
    (lambda: FamilySpec("a", True, (4, 0)), "must be integers"),
    (lambda: FamilySpec("a", 3, (4, 0), psi=True), "must be integers"),
    (lambda: FamilySpec("a", 3, (4.7, 0)), "must be integers"),
    (lambda: FamilySpec("a", 3, (4, False)), "must be integers"),
    # edge labels are frozensets: a list does not compare, a set does not hash
    (lambda: DecisionTree(SPACE, Node(0, (([0], Leaf(0)), ([1], Leaf(1))))), "not a frozenset"),
    (lambda: Omdd(SPACE, (0, 1), Node(0, (({0}, Leaf(0)), ({1}, Leaf(1))))), "not a frozenset"),
    # the shared constructor binds its arguments like a signature (TypeError)
    (lambda: ScanSummary(3, 1), r"^ScanSummary\(\) is missing 'zero_sv_relevant'$"),
    (lambda: ScanSummary(issues=1, zero_sv_relevant=0), "missing 'total'$"),
    (lambda: ScanSummary(3, 1, 0, 4), "takes 3 arguments, 4 given"),
    (lambda: ScanSummary(3, 1, 0, other=4), "unexpected argument 'other'"),
    (lambda: ScanSummary(3, 1, total=0), "multiple values for 'total'"),
    (lambda: _FamilyDef((2, 2), (1, 0)), "missing 'paper'$"),
    # label values are ints, as in model files: 1.0 and True only compare equal to 1
    (lambda: DecisionTree(FeatureSpace((2,)), Node(0, ((frozenset({1.0}), Leaf(0)),
                                                       (frozenset({0}), Leaf(1))))),
     r"^edge label value 1\.0 is not an integer$"),
    (lambda: Omdd(FeatureSpace((2,)), (0,), Node(0, ((frozenset({True}), Leaf(0)),
                                                     (frozenset({0}), Leaf(1))))),
     "^edge label value True is not an integer$"),
    # value types are checked before a message sorts a label: mixed types do not compare
    (lambda: DecisionTree(FeatureSpace((2,)), Node(0, ((frozenset({"a", 1}), Leaf(0)),
                                                       (frozenset({0}), Leaf(1))))),
     "^edge label value 'a' is not an integer$"),
    (lambda: DecisionTree(FeatureSpace((2,)), Node(0, ((frozenset({None, 0}), Leaf(0)),
                                                       (frozenset({0}), Leaf(1))))),
     "^edge label value None is not an integer$"),
    # a node's feature is an int, as in model files: not a bool, a float or a string
    (lambda: DecisionTree(SPACE, Node(True, ((frozenset({0}), Leaf(0)),
                                             (frozenset({1}), Leaf(1))))),
     "^node tests unknown feature True$"),
    (lambda: DecisionTree(SPACE, Node(1.0, ((frozenset({0}), Leaf(0)),
                                            (frozenset({1}), Leaf(1))))),
     r"^node tests unknown feature 1\.0$"),
    (lambda: Omdd(SPACE, (0, 1), Node("1", ((frozenset({0}), Leaf(0)),
                                            (frozenset({1}), Leaf(1))))),
     "^node tests unknown feature '1'$"),
])
def test_construction_keeps_its_checks(make, message):
    with pytest.raises((SvauditError, TypeError), match=message):
        make()


# integers are ints: a float or a string is refused, not truncated, converted
# or left to fail later with a TypeError, and a bool order is refused too
@pytest.mark.parametrize("make, message", [
    (lambda: ExplanationProblem(TabularClassifier(SPACE, TABLE_VALUES), (0, 1), 1.0),
     r"^instance class 1\.0 is not an integer$"),
    (lambda: FeatureSpace((2.5, 2)), r"^domain size 2\.5 is not an integer$"),
    (lambda: FeatureSpace(("3", 2)), "^domain size '3' is not an integer$"),
    (lambda: to_omdd(TabularClassifier(SPACE, TABLE_VALUES), (0.0, 1.0)),
     r"^order \(0\.0, 1\.0\) is not a permutation of the features$"),
    (lambda: to_omdd(TabularClassifier(SPACE, TABLE_VALUES), ("0", 1)),
     r"^order \('0', 1\) is not a permutation"),
    (lambda: to_omdd(TabularClassifier(SPACE, TABLE_VALUES), (True, 0)),
     r"^order \(True, 0\) is not a permutation"),
    (lambda: to_omdd(DecisionTree(SPACE, _graph()), (1.0, 0)), r"^order \(1\.0, 0\)"),
    (lambda: Omdd(SPACE, (0.0, 1.0), _graph()), r"^order \(0\.0, 1\.0\) is not a permutation"),
    (lambda: one_axp(ExplanationProblem.of(TabularClassifier(SPACE, TABLE_VALUES), (0, 1)),
                     (1.0, 0)),
     r"^order \[1\.0, 0\] is not a permutation"),
])
def test_integer_inputs_are_refused_not_converted(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_equality_and_hashing():
    # by value
    assert FeatureSpace((2, 3), "ab") == SPACE and hash(FeatureSpace((2, 3), "ab")) == hash(SPACE)
    assert FeatureSpace((2, 3)) != SPACE
    assert Leaf(1) == Leaf(1) and hash(Leaf(1)) == hash(Leaf(1)) and Leaf(0) != Leaf(1)
    table = TabularClassifier(SPACE, TABLE_VALUES)
    twin = TabularClassifier(SPACE, TABLE_VALUES)
    assert table == twin and hash(table) == hash(twin)
    assert table != TabularClassifier(SPACE, (1, 0, 0, 0, 0, 0))
    problem = ExplanationProblem.of(table, (0, 1))
    assert problem == ExplanationProblem.of(twin, (0, 1))
    assert hash(problem) == hash(ExplanationProblem.of(twin, (0, 1)))
    assert problem != ExplanationProblem.of(table, (1, 1))
    for first, second in zip(_instances()[5:-1], _instances()[5:-1]):
        if not isinstance(first, Dataset):  # its code maps are dicts, so it has no hash
            assert hash(first) == hash(second)
        assert first is not second and first == second
    family = _FAMILIES["a"]
    twin = _FamilyDef(*(getattr(family, name) for name in FIELDS[_FamilyDef]))
    assert family == twin and hash(family) == hash(twin)
    # another class never compares equal, even with the same fields
    assert FeatureSpace((2, 2)) != (2, 2) and Leaf(1) != 1
    assert ScanSummary(3, 1, 0) != (3, 1, 0)
    # by identity
    node = _graph()
    assert node == node and node != _graph() and hash(node) == object.__hash__(node)
    assert len({node, _graph()}) == 2
    # graphs by their stored node lists
    tree, tree_twin = DecisionTree(SPACE, _graph()), DecisionTree(SPACE, _graph())
    assert tree.root is not tree_twin.root
    assert tree == tree_twin and hash(tree) == hash(tree_twin) == hash((SPACE, tree.nodes))
    omdd = Omdd(SPACE, (0, 1), _graph())
    assert omdd == Omdd(SPACE, (0, 1), _graph()) and hash(omdd) == hash((SPACE, (0, 1), omdd.nodes))
    assert omdd != tree and tree.nodes == omdd.nodes
    assert to_omdd(table) == to_omdd(tree)


def test_reprs_are_pinned():
    space = "FeatureSpace(domain_sizes=(2, 3), names=('a', 'b'))"
    frac = "Fraction"
    expected = [
        space,
        f"TabularClassifier(space={space}, values=(0, 1, 1, 1, 1, 1))",
        "Leaf(class_value=1)",
        f"DecisionTree(space={space}, nodes=5)",
        f"Omdd(space={space}, order=(0, 1), nodes=5)",
        f"ExplanationProblem(model=TabularClassifier(space={space}, "
        "values=(0, 1, 1, 1, 1, 1)), point=(0, 1), predicted=1)",
        f"SvReport(values=({frac}(-1, 12), {frac}(1, 4)), phi_empty={frac}(5, 6), "
        f"predicted=1, residual={frac}(0, 1))",
        "RelevancyReport(axps=(frozenset({1}),), cxps=(frozenset({1}),), "
        "relevant=frozenset({1}), necessary=frozenset({1}), irrelevant=frozenset({0}))",
        "AdversarialSet(changed=frozenset({1}), witness=(0, 0), class_value=0)",
        f"ScanRecord(index=3, point=(1, 0), predicted=1, sv=({frac}(1, 3), {frac}(-1, 6)), "
        f"relevant=frozenset({{0}}), issue=False, v_irrelevant_max={frac}(1, 6), "
        f"v_relevant_min={frac}(1, 3))",
        "ScanSummary(total=3, issues=1, zero_sv_relevant=0)",
        "Dataset(feature_names=('a',), domain_sizes=(2,), value_maps=({'0': 0, '1': 1},), "
        "class_map=None, rows=(((0,), 1),), dropped=0)",
        "FamilySpec(family='a', alpha=3, sigmas=(4, 0), psi=1)",
    ]
    assert [repr(x) for x in _instances()[:-1]] == expected
    assert repr(Node(1, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(1))))) == \
        "Node(feature=1, edges=2)"
    assert repr(_FAMILIES["d"]) == (
        "_FamilyDef(domain_sizes=(2, 2, 2, 3), "
        "block=(None, 0, None, None, 1, None, None, 2, None, None, 3, None), "
        "paper=(1, (5, 2, 4, 9)))")


def test_assignment_and_deletion_raise():
    for obj in _instances() + [_graph()]:
        for name in (*FIELDS[type(obj)], "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    tree = DecisionTree(SPACE, _graph())
    for name in ("nodes", "classes"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(tree, name, ())


def test_table_caches_its_diagram_on_the_instance():
    table = TabularClassifier(SPACE, TABLE_VALUES)
    assert "nodes" not in vars(table)
    assert table.nodes is table.nodes == to_omdd(table).nodes
    assert "nodes" in vars(table)


def test_the_traced_methods_stay_where_the_bench_wraps_them(monkeypatch):
    # the traced benchmark wraps ``evaluate`` per class and ``validate_point``
    # on FeatureSpace, and counts ``ExplanationProblem.of``'s evaluate call
    for cls in (TabularClassifier, DecisionTree, Omdd):
        assert "evaluate" in vars(cls)
    assert "validate_point" in vars(FeatureSpace)
    calls = []
    original = TabularClassifier.evaluate
    monkeypatch.setattr(TabularClassifier, "evaluate",
                        lambda self, point: calls.append(point) or original(self, point))
    ExplanationProblem.of(TabularClassifier(SPACE, TABLE_VALUES), (0, 1))
    assert calls == [(0, 1)]


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_every_value_class_pickles():
    for obj in _instances():
        copy = _round_trip(obj)
        assert type(copy) is type(obj) and copy == obj and copy is not obj
    leaf = _round_trip(Leaf(2))
    assert leaf == Leaf(2)
    node = _round_trip(_graph())
    assert node.feature == 0 and [len(values) for values, _ in node.edges] == [1, 1]
    assert repr(node.edges[0][1]) == "Node(feature=1, edges=2)"


def test_models_reports_and_records_pickle():
    rng = random.Random(0)
    space = random_space(rng, max_features=5)
    tree = random_dag(rng, space)
    edges = sum(len(set(kids)) for f, kids in tree.nodes if f is not None)
    assert edges + 1 > len(tree.nodes)  # some node has two parents
    # the copy stores the same node list, so each shared node stays one object
    assert _round_trip(tree).nodes == tree.nodes
    omdd = to_omdd(tree)
    table = TabularClassifier.from_function(space, tree.lookup)
    table.nodes  # fill the cached diagram
    for model in (tree, omdd, table):
        problem = ExplanationProblem.of(model, space.point_at(space.size - 1))
        assert _round_trip(model) == model
        assert _round_trip(problem) == problem
        assert _round_trip(shapley_values(problem)) == shapley_values(problem)
        assert _round_trip(relevancy_report(problem)) == relevancy_report(problem)
        assert _round_trip(minimal_adversarial_sets(problem)) == minimal_adversarial_sets(problem)
    assert _round_trip(table).nodes == table.nodes
    records, summary = scan_model(omdd, sample=4, seed=1)
    assert _round_trip(records) == records
    assert _round_trip(summary) == summary
