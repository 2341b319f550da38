"""Representations, cube arithmetic, conversions, and the model file format."""

import json
import pickle
import random
from collections import Counter

import pytest

from oracle import (
    all_points,
    k_of_n_tree,
    o_counterexample,
    o_is_reduced,
    o_model_doc,
    random_dag,
    random_dt,
    random_raw_omdd,
    random_space,
    random_table,
    uneven_partition,
)
from svaudit.adversarial import adversarial_report
from svaudit.errors import CapacityError, InputError
from svaudit.model_io import load_model, model_from_dict, model_to_dict, model_to_json, save_model
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    TabularClassifier,
    cube_size,
    find_counterexample,
    is_reduced,
    reduce_omdd,
    sum_kappa_over_cube,
    tabular_to_omdd,
    to_omdd,
    to_tabular,
)

K1_ROWS = [  # the 8-row truth table of the first worked example
    ((0, 0, 0), 0), ((0, 0, 1), 3), ((0, 1, 0), 2), ((0, 1, 1), 3),
    ((1, 0, 0), 1), ((1, 0, 1), 1), ((1, 1, 0), 1), ((1, 1, 1), 1),
]


def test_space_invariants():
    with pytest.raises(InputError):
        FeatureSpace(())
    with pytest.raises(InputError):
        FeatureSpace((2, 1))
    with pytest.raises(CapacityError):
        FeatureSpace((2,) * 25)
    space = FeatureSpace((2, 3, 3))
    assert space.m == 3 and space.size == 18
    assert space.feature_names == ("x1", "x2", "x3")
    for point in ((1, 3, 0), (1, 0), (True, False, 0)):
        with pytest.raises(InputError):
            space.validate_point(point)
    for features in ({0, 3}, {True}, {2, False}):
        with pytest.raises(InputError):
            space.validate_subset(features)


def test_mixed_radix_indexing():
    space = FeatureSpace((2, 3, 3))
    pts = list(space.points())
    assert len(pts) == 18
    for k, p in enumerate(pts):
        assert space.index(p) == k
        assert space.point_at(k) == p


def test_evaluate_k1(k1_table, k1_dt):
    assert k1_table.evaluate((0, 1, 0)) == 2
    assert k1_table.evaluate((1, 0, 0)) == 1
    for point, cls in K1_ROWS:
        assert k1_table.evaluate(point) == cls
        assert k1_dt.evaluate(point) == cls
    with pytest.raises(InputError):
        k1_table.evaluate((0, 2, 0))


def test_instance_consistency(k1_table):
    problem = ExplanationProblem.of(k1_table, (1, 0, 0))
    assert problem.predicted == k1_table.evaluate(problem.point) == 1
    with pytest.raises(InputError):
        ExplanationProblem(k1_table, (1, 0, 0), 2)


def test_problem_checks_its_point_twice(monkeypatch, k1_table, k1_dt):
    # ``of`` checks the point in ``evaluate`` and the constructor once more;
    # the constructor compares the class by an unchecked lookup
    counts = Counter()

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(FeatureSpace, "validate_point",
                        counting("validate_point", FeatureSpace.validate_point))
    for model in (k1_table, k1_dt, to_omdd(k1_dt)):
        monkeypatch.setattr(type(model), "evaluate", counting("evaluate", type(model).evaluate))
        counts.clear()
        assert ExplanationProblem.of(model, (1, 0, 0)).predicted == 1
        assert counts == {"validate_point": 2, "evaluate": 1}
        with pytest.raises(InputError):
            ExplanationProblem(model, (1, 0, 2), 1)


def test_constant_classifiers_rejected():
    space = FeatureSpace((2, 2))
    with pytest.raises(InputError):
        TabularClassifier(space, (1, 1, 1, 1))
    with pytest.raises(InputError):
        DecisionTree(space, Leaf(0))
    with pytest.raises(InputError):
        DecisionTree(space, Node(0, ((frozenset({0, 1}), Leaf(1)),)))


def test_classes_must_be_integers():
    space = FeatureSpace((2, 2))
    with pytest.raises(InputError, match="not an integer"):
        TabularClassifier(space, (0, 1.5, 1, 0))
    with pytest.raises(InputError, match="not an integer"):
        TabularClassifier(space, (0, "1", 1, 0))
    half = Node(1, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(1.5))))
    with pytest.raises(InputError, match="not an integer"):
        DecisionTree(space, Node(0, ((frozenset({0}), half), (frozenset({1}), Leaf(0)))))
    with pytest.raises(InputError, match="not an integer"):
        Omdd(space, (0, 1), half)
    # integer types other than int are taken as their int value
    table = TabularClassifier(space, (False, True, 1, 0))
    assert table.values == (0, 1, 1, 0) and all(type(c) is int for c in table.values)
    predicted = ExplanationProblem(table, (0, 1), True).predicted
    assert predicted == 1 and type(predicted) is int
    # a graph's point lookups read its checked node list, not its leaves
    low = Node(1, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(2))))
    tree = DecisionTree(space, Node(0, ((frozenset({0}), Leaf(True)), (frozenset({1}), low))))
    for model in (tree, Omdd(space, (0, 1), tree.root)):
        assert type(model.evaluate((0, 0))) is int and model.evaluate((0, 0)) == 1
        report = json.dumps(adversarial_report(ExplanationProblem.of(model, (1, 1))))
        assert '"witness": [0, 1], "class": 1}' in report and "true" not in report


def test_dt_structural_validation():
    space = FeatureSpace((2, 2))
    leaf0, leaf1 = Leaf(0), Leaf(1)
    with pytest.raises(InputError):  # overlap
        DecisionTree(space, Node(0, ((frozenset({0, 1}), leaf0), (frozenset({1}), leaf1))))
    with pytest.raises(InputError):  # not total
        DecisionTree(space, Node(0, ((frozenset({0}), leaf0),)))
    with pytest.raises(InputError):  # repeated feature on a path
        inner = Node(0, ((frozenset({0}), leaf0), (frozenset({1}), leaf1)))
        DecisionTree(space, Node(0, ((frozenset({0}), inner), (frozenset({1}), leaf1))))


def test_shared_nodes_are_checked_on_every_path():
    # each shared node is first reached by a path that is fine
    space = FeatureSpace((2, 2, 2))
    leaf0, leaf1 = Leaf(0), Leaf(1)
    d = Node(1, ((frozenset({0}), leaf0), (frozenset({1}), leaf1)))
    c = Node(2, ((frozenset({0}), d), (frozenset({1}), leaf1)))
    a = Node(1, ((frozenset({0}), c), (frozenset({1}), leaf0)))
    with pytest.raises(InputError, match="feature 2 tested twice"):  # x1, x2, x3, x2
        DecisionTree(space, Node(0, ((frozenset({0}), c), (frozenset({1}), a))))
    a = Node(2, ((frozenset({0}), d), (frozenset({1}), leaf0)))
    root = Node(0, ((frozenset({0}), d), (frozenset({1}), a)))
    DecisionTree(space, root)
    with pytest.raises(InputError, match="does not advance"):  # x3 then x2
        Omdd(space, (0, 1, 2), root)
    assert Omdd(space, (0, 2, 1), root).nonterminal_count() == 3


def test_cube_size_examples(k1_table, k2_table):
    assert cube_size(k2_table.space, frozenset()) == 18
    assert cube_size(k2_table.space, frozenset(range(3))) == 1
    assert cube_size(k1_table.space, {1}) == 4  # fixing feature 2 leaves 4 points


def test_cube_size_identities():
    rng = random.Random(7)
    for _ in range(25):
        space = random_space(rng)
        assert cube_size(space, frozenset()) == space.size
        S = frozenset(i for i in range(space.m) if rng.random() < 0.4)
        for i in range(space.m):
            if i not in S:
                assert cube_size(space, S | {i}) * space.domain_sizes[i] == cube_size(space, S)


def test_cube_sum_examples(k1_table, k2_table):
    v = (1, 0, 0)
    assert sum_kappa_over_cube(k1_table, {1, 2}, v) == 1
    assert sum_kappa_over_cube(k1_table, {0, 1, 2}, v) == 1
    assert sum_kappa_over_cube(k2_table, {1}, (1, 2, 2)) == 5


def test_cube_sum_backend_agreement(k1_dt):
    v = (1, 0, 0)
    for mask in range(8):
        S = frozenset(i for i in range(3) if mask >> i & 1)
        assert sum_kappa_over_cube(k1_dt, S, v, backend="enumerate") \
            == sum_kappa_over_cube(k1_dt, S, v, backend="paths")


def test_cube_sum_backend_agreement_random_dts():
    rng = random.Random(11)
    for k in range(60):
        if k < 30:
            m = rng.randint(2, 12)
            space = FeatureSpace(tuple(rng.choice((2, 2, 3)) for _ in range(m)))
            model = random_dt(rng, space)
        else:  # a table counts paths over its reduced diagram
            model = random_table(rng, max_features=8)
            space, m = model.space, model.space.m
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        if m <= 6:  # exhaustive over subsets when affordable
            subsets = [frozenset(i for i in range(m) if mask >> i & 1)
                       for mask in range(1 << m)]
        else:
            subsets = [frozenset(i for i in range(m) if rng.random() < 0.5)
                       for _ in range(12)]
        for S in subsets:
            assert sum_kappa_over_cube(model, S, v, backend="enumerate") \
                == sum_kappa_over_cube(model, S, v, backend="paths")


def test_table_counterexamples_come_from_its_cached_diagram():
    # a table runs the graph traversal over its reduced OMDD, which neither
    # constructing nor converting the table builds
    rng = random.Random(23)
    outcomes = Counter()
    for _ in range(60):
        table = random_table(rng, domain_pool=(2, 3, 4), classes=rng.randint(2, 4))
        assert "nodes" not in vars(table) and "nodes" not in vars(to_tabular(to_omdd(table)))
        space = table.space
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        for _ in range(8):
            S = frozenset(i for i in range(space.m) if rng.random() < 0.5)
            target = rng.choice((table.lookup(v), *table.class_values()))
            other = any(table.lookup(p) != target for p in space.cube_points(S, v))
            cex = find_counterexample(table, S, v, target)
            outcomes[other] += 1
            if not other:
                assert cex is None
            else:
                assert all(cex[i] == v[i] for i in S) and table.evaluate(cex) != target
        assert table.nodes == to_omdd(table).nodes
    assert outcomes[True] > 300 and outcomes[False] > 30


def test_counterexample_is_the_first_point_in_stored_edge_order():
    # the memo over failed nodes changes no visit: the point equals a walk
    # of every path, on shared subtrees, unreduced diagrams and tables
    rng = random.Random(31)
    outcomes = Counter()
    for k in range(120):
        if k % 4 == 0:
            model = random_dag(rng, random_space(rng, domain_pool=(2, 3, 4)))
        elif k % 4 == 1:
            model = random_dag(rng, random_space(rng, domain_pool=(2, 3, 4)),
                               partition=uneven_partition)
        elif k % 4 == 2:
            model = random_raw_omdd(rng)
        else:
            model = random_table(rng, domain_pool=(2, 3, 4))
        space = model.space
        assert space.m <= 6
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        for _ in range(6):
            S = frozenset(i for i in range(space.m) if rng.random() < 0.5)
            target = rng.choice(sorted(model.class_values()))
            cex = find_counterexample(model, S, v, target)
            assert cex == o_counterexample(model, S, v, target)
            outcomes[cex is None] += 1
    assert outcomes[True] > 100 and outcomes[False] > 300


def test_tabular_to_omdd_k1(k1_table):
    omdd = tabular_to_omdd(k1_table)
    assert omdd.nonterminal_count() == 4
    per_feature = {}

    def walk(node, seen):
        if isinstance(node, Leaf) or id(node) in seen:
            return
        seen.add(id(node))
        per_feature[node.feature] = per_feature.get(node.feature, 0) + 1
        for _, child in node.edges:
            walk(child, seen)

    walk(omdd.root, set())
    assert per_feature == {0: 1, 1: 1, 2: 2}
    assert is_reduced(omdd)
    for point, cls in K1_ROWS:
        assert omdd.evaluate(point) == cls


def test_tabular_to_omdd_k2(k2_table):
    omdd = tabular_to_omdd(k2_table)
    for p in k2_table.space.points():
        assert omdd.evaluate(p) == k2_table.evaluate(p)


def test_constant_branch_collapses():
    # x1=1 half constant: the root edge must jump straight to a terminal
    space = FeatureSpace((2, 2, 2))
    table = TabularClassifier.from_function(space, lambda x: 7 if x[0] else x[1] + x[2])
    omdd = tabular_to_omdd(table)
    assert isinstance(omdd.root, Node) and omdd.root.feature == 0
    branch = {min(vs): ch for vs, ch in omdd.root.edges}
    assert isinstance(branch[1], Leaf) and branch[1].class_value == 7


def test_representation_agreement_random_orders():
    rng = random.Random(23)
    for _ in range(25):
        table = random_table(rng)
        order = list(range(table.space.m))
        rng.shuffle(order)
        omdd = tabular_to_omdd(table, order)
        assert omdd.order == tuple(order)
        assert is_reduced(omdd)
        for p in table.space.points():
            assert omdd.evaluate(p) == table.evaluate(p)
        assert to_tabular(omdd).values == table.values


def test_dt_to_tabular_k1(k1_dt, k1_table):
    assert to_tabular(k1_dt).values == k1_table.values


def test_dt_to_tabular_kc1(kc1_dt):
    from svaudit.families import FamilySpec, instantiate
    expected = instantiate(FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0))).model
    assert to_tabular(kc1_dt).values == expected.values


def test_reduce_idempotent_and_detects_duplicates():
    # structurally identical but distinct objects: unreduced by definition
    space = FeatureSpace((2, 2))
    t0a, t0b, t1 = Leaf(0), Leaf(0), Leaf(1)
    inner_a = Node(1, ((frozenset({0}), t0a), (frozenset({1}), t1)))
    inner_b = Node(1, ((frozenset({0}), t0b), (frozenset({1}), t1)))
    raw = Omdd(space, (0, 1), Node(0, ((frozenset({0}), inner_a),
                                       (frozenset({1}), inner_b))))
    assert not is_reduced(raw)
    reduced = reduce_omdd(raw)
    assert is_reduced(reduced)
    assert reduced == reduce_omdd(reduced)
    for p in space.points():
        assert reduced.evaluate(p) == raw.evaluate(p)
    # both branches collapse onto one shared node, then the root is elided
    assert reduced.nonterminal_count() == 1


def test_reduce_merges_parallel_edges():
    # a node stores one child per value, so parallel edges are joined when
    # the diagram is built: it is reduced as built, and its view has one
    # edge per child
    space = FeatureSpace((2, 3))
    t0, t1 = Leaf(0), Leaf(1)
    messy = Node(1, ((frozenset({0}), t0), (frozenset({1}), t0), (frozenset({2}), t1)))
    raw = Omdd(space, (0, 1), Node(0, ((frozenset({0}), messy), (frozenset({1}), t1))))
    joined = Node(1, ((frozenset({0, 1}), t0), (frozenset({2}), t1)))
    assert raw == Omdd(space, (0, 1), Node(0, ((frozenset({0}), joined), (frozenset({1}), t1))))
    assert is_reduced(raw) and o_is_reduced(raw)
    assert reduce_omdd(raw) is raw
    assert model_to_dict(raw)["nodes"][1]["edges"] == [{"values": [0, 1], "to": 2},
                                                        {"values": [2], "to": 3}]


def test_one_reducer_agrees_with_the_reference_on_random_diagrams():
    # draws hold duplicate leaves and nodes, parallel edges (joined when the
    # diagram is built), redundant nodes and shared children under random
    # orders (m 1-6, domains 2-4)
    rng = random.Random(707)
    unreduced = 0
    for _ in range(500):
        raw = random_raw_omdd(rng)
        verdict = is_reduced(raw)
        assert verdict == o_is_reduced(raw)
        unreduced += not verdict
        reduced = reduce_omdd(raw)
        assert (reduced is raw) == verdict
        assert o_is_reduced(reduced) and is_reduced(reduced)
        assert reduce_omdd(reduced) is reduced
        table = to_tabular(raw)
        assert to_tabular(reduced).values == table.values
        assert model_to_json(reduced) == model_to_json(tabular_to_omdd(table, raw.order))
    assert 100 < unreduced < 500  # both verdicts are exercised


def test_omdd_structural_validation():
    space = FeatureSpace((2, 2))
    t0, t1 = Leaf(0), Leaf(1)
    node1 = Node(1, ((frozenset({0}), t0), (frozenset({1}), t1)))
    with pytest.raises(InputError):  # order not a permutation
        Omdd(space, (0, 0), node1)
    with pytest.raises(InputError):  # root layer after child layer
        bad = Node(1, ((frozenset({0}), Node(0, ((frozenset({0}), t0),
                                                 (frozenset({1}), t1)))),
                       (frozenset({1}), t1)))
        Omdd(space, (0, 1), bad)
    with pytest.raises(InputError):  # constant diagram
        Omdd(space, (0, 1), Leaf(3))


def test_model_io_round_trips(tmp_path, k1_table, k1_dt):
    omdd = tabular_to_omdd(k1_table)
    for name, model in (("t", k1_table), ("d", k1_dt), ("o", omdd)):
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        for p in model.space.points():
            assert loaded.evaluate(p) == model.evaluate(p)
        assert loaded.space.feature_names == model.space.feature_names


def test_save_model_leaves_the_file_when_the_model_cannot_be_serialized(tmp_path, k1_table):
    path = tmp_path / "model.json"
    save_model(k1_table, path)
    before = path.read_bytes()
    for model in (42, k1_table.space):
        with pytest.raises(InputError, match="cannot serialize"):
            model_to_json(model)
        with pytest.raises(InputError, match="cannot serialize"):
            save_model(model, path)
        assert path.read_bytes() == before


def test_models_equal_themselves_read_back_from_their_files(tmp_path):
    # an unnamed space holds the names its file gets, x1 .. xm; a loaded
    # diagram is reduced, so the diagrams drawn here are
    rng = random.Random(29)
    path = tmp_path / "model.json"
    for _ in range(30):
        space = random_space(rng)
        dag = random_dag(rng, space)
        order = list(range(space.m))
        rng.shuffle(order)
        for model in (random_table(rng, space), random_dt(rng, space), dag,
                      to_omdd(dag, order), reduce_omdd(random_raw_omdd(rng))):
            assert model_from_dict(model_to_dict(model)) == model
            save_model(model, path)
            assert load_model(path) == model


def test_model_io_table_schema(k1_table):
    doc = model_to_dict(k1_table)
    assert doc["type"] == "table"
    assert doc["features"] == [{"name": f"x{i}", "domain": 2} for i in (1, 2, 3)]
    assert doc["classes"] == [0, 1, 2, 3]
    assert doc["rows"] == [list(p) + [c] for p, c in K1_ROWS]


def test_model_io_rejects_bad_documents(k1_table):
    doc = model_to_dict(k1_table)
    incomplete = dict(doc, rows=doc["rows"][:-1])
    with pytest.raises(InputError):
        model_from_dict(incomplete)
    conflicting = dict(doc, rows=doc["rows"] + [[1, 1, 1, 0]])
    with pytest.raises(InputError):
        model_from_dict(conflicting)
    undeclared = dict(doc, classes=[0, 1, 2])
    with pytest.raises(InputError):
        model_from_dict(undeclared)
    with pytest.raises(InputError):
        model_from_dict(dict(doc, type="mystery"))
    with pytest.raises(InputError):
        model_from_dict(dict(doc, rows=[[0, 0, 0, 0.5]] + doc["rows"][1:]))


def test_model_io_rejects_bad_graphs():
    base = {
        "type": "dt",
        "features": [{"name": "x1", "domain": 2}],
        "classes": [0, 1],
    }
    with pytest.raises(InputError):  # dangling edge
        model_from_dict(dict(base, nodes=[
            {"id": 0, "feature": 1, "edges": [{"values": [0], "to": 9},
                                              {"values": [1], "to": 1}]},
            {"id": 1, "class": 1}]))
    with pytest.raises(InputError):  # cycle
        model_from_dict(dict(base, nodes=[
            {"id": 0, "feature": 1, "edges": [{"values": [0, 1], "to": 0}]}]))
    with pytest.raises(InputError):  # duplicate id
        model_from_dict(dict(base, nodes=[{"id": 0, "class": 0}, {"id": 0, "class": 1}]))


def test_loaded_omdd_is_canonicalized(tmp_path, k1_table):
    # hand-written diagram with duplicate structure collapses on load
    doc = {
        "type": "omdd",
        "features": [{"name": "x1", "domain": 2}, {"name": "x2", "domain": 2}],
        "classes": [0, 1],
        "order": [1, 2],
        "nodes": [
            {"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                              {"values": [1], "to": 2}]},
            {"id": 1, "feature": 2, "edges": [{"values": [0], "to": 3},
                                              {"values": [1], "to": 4}]},
            {"id": 2, "feature": 2, "edges": [{"values": [0], "to": 3},
                                              {"values": [1], "to": 4}]},
            {"id": 3, "class": 0},
            {"id": 4, "class": 1},
        ],
    }
    path = tmp_path / "o.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_model(path)
    assert is_reduced(loaded)
    assert loaded.nonterminal_count() == 1


def test_loading_builds_each_model_once(monkeypatch, k1_table, k1_dt):
    # a reduced diagram is kept as loaded; only an unreduced one is folded
    # into a second diagram. Each file is checked once, by the walk that
    # flattens it; the fold's list is stored unchecked
    import svaudit.model_io as model_io
    import svaudit.models as models
    walks, stores = [], []
    walk = models._flatten
    monkeypatch.setattr(model_io, "_flatten", lambda *a, **k: walks.append(1) or walk(*a, **k))
    store = models._DecisionGraph._store
    monkeypatch.setattr(models._DecisionGraph, "_store",
                        lambda self, nodes: stores.append(1) or store(self, nodes))
    raw = model_to_dict(tabular_to_omdd(k1_table, (2, 0, 1)))
    # point one of the edges into the class-1 leaf at a copy of that leaf
    unreduced = json.loads(json.dumps(raw))
    leaf = next(e for e in unreduced["nodes"] if e.get("class") == 1)
    unreduced["nodes"].append(dict(leaf, id="copy"))
    into = [edge for e in unreduced["nodes"] for edge in e.get("edges", ())
            if edge["to"] == leaf["id"]]
    assert len(into) > 1
    into[0]["to"] = "copy"
    for doc, builds in ((model_to_dict(k1_dt), 1), (raw, 1), (unreduced, 2)):
        walks.clear()
        stores.clear()
        model = model_from_dict(json.loads(json.dumps(doc)))
        assert len(walks) == 1 and len(stores) == builds
        assert [model.evaluate(p) for p in model.space.points()] == list(k1_table.values)


def test_to_omdd_is_canonical_whatever_order_a_tree_lists_its_edges_in():
    # every node the fold builds stores one child per value, as the table
    # collapse does, so the two diagrams are equal in memory and their
    # traversals pick the same counterexamples
    rng = random.Random(5)
    for _ in range(200):
        space = random_space(rng, max_features=5, domain_pool=(2, 3, 4))
        tree = random_dag(rng, space)
        folded, collapsed = to_omdd(tree), to_omdd(to_tabular(tree))
        assert folded == collapsed
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        c = tree.evaluate(v)
        assert find_counterexample(folded, frozenset(), v, c) \
            == find_counterexample(collapsed, frozenset(), v, c)


def test_to_omdd_of_a_graph_equals_the_table_collapse_under_any_order():
    # trees with shared subtrees, diagrams drawn under one order and
    # converted under another, and tables: the fold splits wherever a child
    # starts earlier in the new order than its parent, and must give the
    # diagram the table collapse gives, reduced and left alone by reduce_omdd
    assert tabular_to_omdd is to_omdd
    rng = random.Random(8086)
    models = []
    for _ in range(200):
        space = random_space(rng, max_features=6, domain_pool=(2, 3, 4))
        models.append(random_dag(rng, space, stop=rng.choice((0.05, 0.15, 0.3))))
        models.append(random_raw_omdd(rng))
    for _ in range(100):  # labels of uneven sizes, such as 3 + 1 values
        space = random_space(rng, max_features=6, domain_pool=(3, 4))
        models.append(random_dag(rng, space, stop=0.15, partition=uneven_partition))
    models += [random_table(rng, domain_pool=(2, 3)) for _ in range(50)]
    labels = Counter()  # (domain size, values per child) of every node the fold reads
    for model in models:
        if not isinstance(model, TabularClassifier):
            labels.update((model.space.domain_sizes[f], n) for f, kids in model.nodes
                          if f is not None for n in Counter(kids).values())
        order = list(range(model.space.m))
        rng.shuffle(order)
        omdd = to_omdd(model, order)
        assert omdd.order == tuple(order)
        assert model_to_json(omdd) == model_to_json(tabular_to_omdd(to_tabular(model), order))
        assert o_is_reduced(omdd)
        assert reduce_omdd(omdd) == omdd
    with pytest.raises(InputError):
        to_omdd(models[0], [0] * models[0].space.m)
    # edges joining several values, on domains up to 4, went through the fold
    assert min(labels[3, 2], labels[4, 2], labels[4, 3]) > 50


def test_to_omdd_makes_objects_only_for_the_result(monkeypatch):
    # the fold, its splits and the emitted node list work on ids and list
    # positions: no Node or Leaf is made until ``root`` is read, and then one
    # per node of the result, once
    made = Counter()
    for cls in (Node, Leaf):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, _cls=cls:
                            made.update((_cls,)) or _init(self, *a))
    rng = random.Random(31)
    trees = [k_of_n_tree(8, 4)]
    for _ in range(60):
        space = random_space(rng, max_features=6, domain_pool=(2, 3, 4))
        trees.append(random_dag(rng, space, stop=0.1))
    splits = 0
    for tree in trees:
        order = list(reversed(range(tree.space.m)))
        made.clear()
        omdd = to_omdd(tree, order)
        assert not made
        root = omdd.root
        assert omdd.root is root
        assert made[Node] == omdd.nonterminal_count()
        assert made[Leaf] == len(omdd.nodes) - omdd.nonterminal_count()
        # a node below the root tests a feature that comes earlier in the
        # order than the root's, so the fold had to split
        splits += any(f is not None and order.index(f) < order.index(tree.nodes[-1][0])
                      for f, _ in tree.nodes)
        assert omdd == to_omdd(to_tabular(tree), order)
    assert splits > 30


def test_reducer_lists_equal_the_lists_of_their_roots():
    # the reducer emits what flattening its diagram's root gives: postorder,
    # edges grouped by child in order of first value; equal hashes, and
    # pickling rebuilds the same list
    rng = random.Random(2023)
    kinds = Counter()
    for _ in range(120):
        space = random_space(rng, max_features=6, domain_pool=(2, 3, 4))
        order = list(range(space.m))
        rng.shuffle(order)
        tree = random_dag(rng, space, stop=rng.choice((0.05, 0.15, 0.3)))
        raw = random_raw_omdd(rng)
        raw_order = list(raw.order)
        rng.shuffle(raw_order)
        for model, by in ((random_table(rng, space), None), (tree, None), (tree, order),
                          (raw, raw_order)):
            omdd = to_omdd(model, by)
            rebuilt = Omdd(omdd.space, omdd.order, omdd.root)
            assert rebuilt.nodes == omdd.nodes and rebuilt == omdd
            assert hash(rebuilt) == hash(omdd)
            copy = pickle.loads(pickle.dumps(omdd))
            assert copy.nodes == omdd.nodes and hash(copy) == hash(omdd)
            kinds[type(model).__name__] += 1
    assert set(kinds) == {"TabularClassifier", "DecisionTree", "Omdd"}


def test_mixed_type_feature_subsets_are_input_errors(k1_table):
    # the message lists the subset without ordering strings against integers
    from svaudit.adversarial import find_witness
    from svaudit.explain import is_sufficient
    problem = ExplanationProblem.of(k1_table, (0, 0, 0))
    for call in (lambda S: cube_size(k1_table.space, S), lambda S: is_sufficient(problem, S),
                 lambda S: find_witness(problem, S)):
        with pytest.raises(InputError, match=r"^feature subset \[1, 'a'\] not within 0\.\.2$"):
            call({"a", 1})
        with pytest.raises(InputError, match=r"^feature subset \[-1, 5\] not within 0\.\.2$"):
            call({5, -1})


# name characters that need escapes or lie outside ASCII
_NAME_CHARS = ("a", "x1", " ", "/", "\u00e9", "\u00df", "\u03a9", "\u6f22", "\U0001f600",
               '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028")


def test_model_to_json_writes_the_bytes_json_dumps_writes():
    rng = random.Random(2718)
    classes = (-7, -1, 0, 3)
    escaped = 0
    for _ in range(150):
        sizes = random_space(rng, max_features=5, domain_pool=(2, 3, 4)).domain_sizes
        names = tuple("".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(0, 5)))
                      for _ in sizes)
        space = FeatureSpace(sizes, names)
        tree = random_dag(rng, space, classes=classes)  # shares subtrees
        order = list(range(space.m))
        rng.shuffle(order)
        for model in (to_tabular(tree), tree, to_omdd(tree, order)):
            text = model_to_json(model)
            assert text == json.dumps(o_model_doc(model), indent=2) + "\n"
            assert model_to_dict(model) == o_model_doc(model)
            escaped += "\\u" in text
    assert escaped > 100


def test_enumeration_cap_on_cube(k1_table, monkeypatch):
    import svaudit.models as models
    monkeypatch.setattr(models, "ENUMERATION_CAP", 4)
    with pytest.raises(CapacityError):
        sum_kappa_over_cube(k1_table, set(), (1, 0, 0), backend="enumerate")


def test_random_tables_round_trip_all_points():
    rng = random.Random(3)
    for _ in range(10):
        table = random_table(rng)
        assert list(all_points(table.space.domain_sizes)) == list(table.space.points())


def test_omdd_cube_sum_matches_enumeration():
    rng = random.Random(43)
    for _ in range(25):
        table = random_table(rng)
        order = list(range(table.space.m))
        rng.shuffle(order)
        omdd = tabular_to_omdd(table, order)
        v = tuple(rng.randrange(d) for d in table.space.domain_sizes)
        for _ in range(12):
            S = frozenset(i for i in range(table.space.m) if rng.random() < 0.5)
            assert sum_kappa_over_cube(omdd, S, v, backend="paths") \
                == sum_kappa_over_cube(table, S, v, backend="enumerate")


def test_model_io_rejects_malformed_edge_shapes():
    base = {
        "type": "dt",
        "features": [{"name": "x1", "domain": 2}],
        "classes": [0, 1],
    }
    with pytest.raises(InputError):  # edge is not an object
        model_from_dict(dict(base, nodes=[
            {"id": 0, "feature": 1, "edges": ["junk"]}, {"id": 1, "class": 1}]))
    with pytest.raises(InputError):  # edge missing its target
        model_from_dict(dict(base, nodes=[
            {"id": 0, "feature": 1, "edges": [{"values": [0, 1]}]}]))
    omdd = {
        "type": "omdd",
        "features": [{"name": "x1", "domain": 2}],
        "classes": [0, 1],
        "order": ["x1"],
        "nodes": [{"id": 0, "feature": 1,
                   "edges": [{"values": [0], "to": 1}, {"values": [1], "to": 2}]},
                  {"id": 1, "class": 0}, {"id": 2, "class": 1}],
    }
    with pytest.raises(InputError):  # order must be integer feature indices
        model_from_dict(omdd)


def _one_feature_docs():
    table = {"type": "table", "features": [{"name": "x1", "domain": 2}],
             "classes": [0, 1], "rows": [[0, 0], [1, 1]]}
    dt = {"type": "dt", "features": [{"name": "x1", "domain": 2}], "classes": [0, 1],
          "nodes": [{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                                      {"values": [1], "to": 2}]},
                    {"id": 1, "class": 0}, {"id": 2, "class": 1}]}
    return table, dt, dict(dt, type="omdd", order=[1])


@pytest.mark.parametrize("site", ["row value", "row class", "classes", "domain", "order",
                                  "feature", "edge values", "leaf class"])
def test_model_io_rejects_json_booleans(site):
    table, dt, omdd = _one_feature_docs()
    for doc in (table, dt, omdd):
        model_from_dict(json.loads(json.dumps(doc)))
    doc = {"row value": table, "row class": table, "classes": dt, "domain": dt,
           "order": omdd}.get(site, dt)
    doc = json.loads(json.dumps(doc))
    if site == "row value":
        doc["rows"][1][0] = True
    elif site == "row class":
        doc["rows"][1][1] = True
    elif site == "classes":
        doc["classes"] = [0, True]
    elif site == "domain":
        doc["features"][0]["domain"] = True
    elif site == "order":
        doc["order"] = [True]
    elif site == "feature":
        doc["nodes"][0]["feature"] = True
    elif site == "edge values":
        doc["nodes"][0]["edges"][1]["values"] = [True]
    else:
        doc["nodes"][2]["class"] = True
    with pytest.raises(InputError):
        model_from_dict(doc)


def test_model_io_rejects_unhashable_node_ids():
    _, dt, _ = _one_feature_docs()
    for bad in ([0], {"n": 0}):
        doc = json.loads(json.dumps(dt))
        doc["nodes"][0]["id"] = bad
        with pytest.raises(InputError, match="node entry 0"):
            model_from_dict(doc)
        doc = json.loads(json.dumps(dt))
        doc["nodes"][0]["edges"][0]["to"] = bad
        with pytest.raises(InputError, match="node 0"):
            model_from_dict(doc)


def test_model_io_takes_only_integer_or_string_node_ids():
    # under Python equality 1, 1.0 and True are one id; in a file they are three
    _, dt, _ = _one_feature_docs()
    leaves = [{"id": 1, "class": 0}, {"id": 2, "class": 1}]
    docs = [
        dict(dt, nodes=[{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1.0},
                                                          {"values": [1], "to": True}]},
                        *leaves]),
        dict(dt, nodes=[{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                                          {"values": [1], "to": 2}]},
                        *leaves, {"id": True, "class": 1}]),
        dict(dt, nodes=[{"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                                          {"values": [1], "to": 2}]},
                        leaves[0], {"id": 1.5, "class": 1}]),
    ]
    for doc in docs:
        with pytest.raises(InputError, match="ids must be integers or strings"):
            model_from_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("entry,message", [
    ({"id": 9, "class": "x"}, "leaf classes must be integers"),
    ({"id": 9, "feature": 99, "edges": "x"}, "node 9 needs a feature and an edge list"),
    ({"id": 9, "feature": 1, "edges": [{"values": [0, 1], "to": "nowhere"}]},
     "edge points to unknown node nowhere"),
])
def test_model_io_checks_entries_the_root_does_not_reach(entry, message):
    # every entry is checked and linked, whether or not the root reaches it
    _, dt, omdd = _one_feature_docs()
    for doc in (dt, omdd):
        doc = json.loads(json.dumps(doc))
        model_from_dict(doc)
        doc["nodes"].append(entry)
        with pytest.raises(InputError, match=f"^{message}$"):
            model_from_dict(doc)


def test_model_io_ignores_well_formed_entries_the_root_does_not_reach():
    _, dt, _ = _one_feature_docs()
    doc = json.loads(json.dumps(dt))
    doc["nodes"] += [{"id": 9, "feature": 1, "edges": [{"values": [0, 1], "to": 1}]},
                     {"id": 10, "class": 1}]
    assert model_from_dict(doc) == model_from_dict(dt)


def test_model_io_resolves_long_chains_without_recursion():
    # a chain far deeper than the interpreter's recursion limit
    n = 5000
    nodes = [{"id": k, "feature": 1, "edges": [{"values": [0], "to": k + 1},
                                               {"values": [1], "to": n + 1}]}
             for k in range(n)]
    nodes += [{"id": n, "class": 0}, {"id": n + 1, "class": 1}]
    doc = {"type": "dt", "features": [{"name": "x1", "domain": 2}],
           "classes": [0, 1], "nodes": nodes}
    with pytest.raises(InputError, match="tested twice"):
        model_from_dict(doc)
    with pytest.raises(InputError, match="tested twice"):
        model_from_dict(dict(doc, type="omdd", order=[1]))


def test_load_model_makes_no_node_objects(monkeypatch, tmp_path):
    # a file's entries go from the document straight to the node list
    made = Counter()
    for cls in (Node, Leaf):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, _cls=cls:
                            made.update((_cls,)) or _init(self, *a))
    tree = k_of_n_tree(8, 4)
    omdd = to_omdd(tree, list(reversed(range(8))))
    for model, name in ((tree, "kofn.dt.json"), (omdd, "kofn.omdd.json")):
        save_model(model, tmp_path / name)
        made.clear()
        loaded = load_model(tmp_path / name)
        assert not made
        assert model_to_json(loaded) == model_to_json(model)


def _labels(kids):
    """A node's ``(values, child)`` labels, one per child, values ascending."""
    groups = {}
    for x, c in enumerate(kids):
        groups.setdefault(c, []).append(x)
    return [(values, c) for c, values in groups.items()]


def _shuffled_doc(rng, model, split=False):
    """``model``'s document with its entries out of postorder (the root still
    first), each node's edges shuffled, mixed integer and string ids, each
    label's values shuffled, and one well-formed entry the root does not
    reach. With ``split``, every label is cut into one edge per value."""
    nodes = model.nodes
    ids = [k if rng.random() < 0.5 else f"n{k}" for k in range(len(nodes))]
    entries = []
    for k, (f, kids) in enumerate(nodes):
        if f is None:
            entries.append({"id": ids[k], "class": kids})
        else:
            edges = _labels(kids)
            if split:
                edges = [([x], c) for values, c in edges for x in values]
            rng.shuffle(edges)
            entries.append({"id": ids[k], "feature": f + 1, "edges": [
                {"values": rng.sample(values, len(values)), "to": ids[c]} for values, c in edges]})
    f, kids = nodes[-1]
    entries.append({"id": "spare", "feature": f + 1,
                    "edges": [{"values": values, "to": ids[c]} for values, c in _labels(kids)]})
    rest = entries[:-2] + entries[-1:]
    rng.shuffle(rest)
    doc = {"type": "dt" if isinstance(model, DecisionTree) else "omdd",
           "features": [{"name": f"x{i + 1}", "domain": d}
                        for i, d in enumerate(model.space.domain_sizes)],
           "classes": sorted(model.class_values()), "nodes": [entries[-2], *rest]}
    if isinstance(model, Omdd):
        doc["order"] = [f + 1 for f in model.order]
    return json.loads(json.dumps(doc))


def test_file_entries_and_node_objects_flatten_alike():
    # the walk over a file's ids lists what the walk over the objects lists
    rng = random.Random(2707)
    shared = 0
    for _ in range(100):
        space = random_space(rng, max_features=6, domain_pool=(2, 3, 4))
        tree = random_dag(rng, space, stop=0.15, partition=uneven_partition)
        parents = Counter(c for f, kids in tree.nodes if f is not None for c in set(kids))
        shared += max(parents.values()) > 1
        assert model_from_dict(_shuffled_doc(rng, tree)).nodes == tree.nodes
    for _ in range(100):
        omdd = random_raw_omdd(rng)
        assert model_from_dict(_shuffled_doc(rng, omdd)).nodes == reduce_omdd(omdd).nodes
    assert shared > 50  # trees with a node that several edges reach


def _split_copy(rng, node, memo):
    """Copy of the graph below ``node``, each shared node still shared, with
    every label cut into one edge per value and each node's edges shuffled."""
    if id(node) not in memo:
        if isinstance(node, Leaf):
            memo[id(node)] = Leaf(node.class_value)
        else:
            edges = [(frozenset({x}), _split_copy(rng, child, memo))
                     for values, child in node.edges for x in sorted(values)]
            rng.shuffle(edges)
            memo[id(node)] = Node(node.feature, tuple(edges))
    return memo[id(node)]


def test_graphs_are_equal_however_their_edges_are_listed_or_split():
    # over domains (3, 2): a label {0, 2} to a shared node, against {2} and
    # {0} as separate edges listed after the edge for 1
    space = FeatureSpace((3, 2))
    t0, t1 = Leaf(0), Leaf(1)
    shared = Node(1, ((frozenset({0}), t0), (frozenset({1}), t1)))
    joined = DecisionTree(space, Node(0, ((frozenset({0, 2}), shared), (frozenset({1}), t1))))
    split = DecisionTree(space, Node(0, ((frozenset({1}), t1), (frozenset({2}), shared),
                                         (frozenset({0}), shared))))
    assert joined.nodes == split.nodes and joined == split and hash(joined) == hash(split)
    assert model_to_json(joined) == model_to_json(split)
    assert find_counterexample(joined, frozenset(), (1, 1), 1) == (0, 0)
    assert find_counterexample(split, frozenset(), (1, 1), 1) == (0, 0)
    # the view made from the list groups the values by child again
    root = pickle.loads(pickle.dumps(split)).root
    assert [sorted(values) for values, _ in root.edges] == [[0, 2], [1]]

    rng = random.Random(2810)
    splits = 0
    for k in range(200):
        if k % 2:
            model = random_raw_omdd(rng)
            rebuilt = Omdd(model.space, model.order, _split_copy(rng, model.root, {}))
            loaded = reduce_omdd(model)
        else:
            model = random_dag(rng, random_space(rng, domain_pool=(2, 3, 4)),
                               partition=uneven_partition)
            rebuilt = DecisionTree(model.space, _split_copy(rng, model.root, {}))
            loaded = model
        splits += any(len(values) > 1 for f, kids in model.nodes if f is not None
                      for values in _labels(kids))
        # a file names its features, so the shuffled file is set against one
        # the writer wrote
        from_file = model_from_dict(_shuffled_doc(rng, model, split=True))
        written = model_from_dict(model_to_dict(loaded))
        assert written.nodes == loaded.nodes
        for first, second in ((model, rebuilt), (written, from_file)):
            assert first.nodes == second.nodes and first == second
            assert hash(first) == hash(second)
            assert model_to_json(first) == model_to_json(second)
            space = first.space
            for _ in range(4):
                v = tuple(rng.randrange(d) for d in space.domain_sizes)
                S = frozenset(i for i in range(space.m) if rng.random() < 0.5)
                target = rng.choice(sorted(first.class_values()))
                assert find_counterexample(first, S, v, target) \
                    == find_counterexample(second, S, v, target) \
                    == o_counterexample(second, S, v, target)
    assert splits > 150  # most graphs had a label to split
