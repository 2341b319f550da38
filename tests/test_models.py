"""Representations, cube arithmetic, conversions, and the model file format."""

import json
import random

import pytest

from oracle import (
    all_points,
    o_is_reduced,
    random_dag,
    random_dt,
    random_raw_omdd,
    random_space,
    random_table,
)
from svaudit.errors import CapacityError, InputError
from svaudit.model_io import load_model, model_from_dict, model_to_dict, model_to_json, save_model
from svaudit.models import (
    DecisionTree,
    DTLeaf,
    DTNode,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    OmddNode,
    OmddTerminal,
    TabularClassifier,
    cube_size,
    dt_to_tabular,
    is_reduced,
    omdd_to_tabular,
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
    with pytest.raises(InputError):
        space.validate_point((1, 3, 0))
    with pytest.raises(InputError):
        space.validate_point((1, 0))
    with pytest.raises(InputError):
        space.validate_subset({0, 3})


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


def test_constant_classifiers_rejected():
    space = FeatureSpace((2, 2))
    with pytest.raises(InputError):
        TabularClassifier(space, (1, 1, 1, 1))
    with pytest.raises(InputError):
        DecisionTree(space, DTLeaf(0))
    with pytest.raises(InputError):
        DecisionTree(space, DTNode(0, ((frozenset({0, 1}), DTLeaf(1)),)))


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


def test_dt_structural_validation():
    space = FeatureSpace((2, 2))
    leaf0, leaf1 = DTLeaf(0), DTLeaf(1)
    with pytest.raises(InputError):  # overlap
        DecisionTree(space, DTNode(0, ((frozenset({0, 1}), leaf0), (frozenset({1}), leaf1))))
    with pytest.raises(InputError):  # not total
        DecisionTree(space, DTNode(0, ((frozenset({0}), leaf0),)))
    with pytest.raises(InputError):  # repeated feature on a path
        inner = DTNode(0, ((frozenset({0}), leaf0), (frozenset({1}), leaf1)))
        DecisionTree(space, DTNode(0, ((frozenset({0}), inner), (frozenset({1}), leaf1))))


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
    for _ in range(30):
        m = rng.randint(2, 12)
        space = FeatureSpace(tuple(rng.choice((2, 2, 3)) for _ in range(m)))
        dt = random_dt(rng, space)
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        if m <= 6:  # exhaustive over subsets when affordable
            subsets = [frozenset(i for i in range(m) if mask >> i & 1)
                       for mask in range(1 << m)]
        else:
            subsets = [frozenset(i for i in range(m) if rng.random() < 0.5)
                       for _ in range(12)]
        for S in subsets:
            assert sum_kappa_over_cube(dt, S, v, backend="enumerate") \
                == sum_kappa_over_cube(dt, S, v, backend="paths")


def test_cube_sum_rejects_paths_on_table(k1_table):
    with pytest.raises(InputError):
        sum_kappa_over_cube(k1_table, set(), (1, 0, 0), backend="paths")


def test_tabular_to_omdd_k1(k1_table):
    omdd = tabular_to_omdd(k1_table)
    assert omdd.nonterminal_count() == 4
    per_feature = {}

    def walk(node, seen):
        if isinstance(node, OmddTerminal) or id(node) in seen:
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
    assert isinstance(omdd.root, OmddNode) and omdd.root.feature == 0
    branch = {min(vs): ch for vs, ch in omdd.root.edges}
    assert isinstance(branch[1], OmddTerminal) and branch[1].class_value == 7


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
        assert omdd_to_tabular(omdd).values == table.values


def test_dt_to_tabular_k1(k1_dt, k1_table):
    assert dt_to_tabular(k1_dt).values == k1_table.values


def test_dt_to_tabular_kc1(kc1_dt):
    from svaudit.families import FamilySpec, instantiate
    expected = instantiate(FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0))).model
    assert dt_to_tabular(kc1_dt).values == expected.values


def test_reduce_idempotent_and_detects_duplicates():
    # structurally identical but distinct objects: unreduced by definition
    space = FeatureSpace((2, 2))
    t0a, t0b, t1 = OmddTerminal(0), OmddTerminal(0), OmddTerminal(1)
    inner_a = OmddNode(1, ((frozenset({0}), t0a), (frozenset({1}), t1)))
    inner_b = OmddNode(1, ((frozenset({0}), t0b), (frozenset({1}), t1)))
    raw = Omdd(space, (0, 1), OmddNode(0, ((frozenset({0}), inner_a),
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
    space = FeatureSpace((2, 3))
    t0, t1 = OmddTerminal(0), OmddTerminal(1)
    messy = OmddNode(1, ((frozenset({0}), t0), (frozenset({1}), t0), (frozenset({2}), t1)))
    raw = Omdd(space, (0, 1), OmddNode(0, ((frozenset({0}), messy), (frozenset({1}), t1))))
    assert not is_reduced(raw)
    reduced = reduce_omdd(raw)
    assert is_reduced(reduced)
    assert reduced == reduce_omdd(reduced)


def test_one_reducer_agrees_with_the_reference_on_random_diagrams():
    # draws hold duplicate leaves and nodes, parallel edges, redundant nodes
    # and shared children under random orders (m 1-6, domains 2-4)
    rng = random.Random(707)
    unreduced = 0
    for _ in range(500):
        raw = random_raw_omdd(rng)
        verdict = is_reduced(raw)
        assert verdict == o_is_reduced(raw)
        unreduced += not verdict
        reduced = reduce_omdd(raw)
        assert o_is_reduced(reduced) and is_reduced(reduced)
        assert reduce_omdd(reduced) == reduced
        table = to_tabular(raw)
        assert to_tabular(reduced).values == table.values
        assert model_to_json(reduced) == model_to_json(tabular_to_omdd(table, raw.order))
    assert 100 < unreduced < 500  # both verdicts are exercised


def test_omdd_structural_validation():
    space = FeatureSpace((2, 2))
    t0, t1 = OmddTerminal(0), OmddTerminal(1)
    node1 = OmddNode(1, ((frozenset({0}), t0), (frozenset({1}), t1)))
    with pytest.raises(InputError):  # order not a permutation
        Omdd(space, (0, 0), node1)
    with pytest.raises(InputError):  # root layer after child layer
        bad = OmddNode(1, ((frozenset({0}), OmddNode(0, ((frozenset({0}), t0),
                                                         (frozenset({1}), t1)))),
                           (frozenset({1}), t1)))
        Omdd(space, (0, 1), bad)
    with pytest.raises(InputError):  # constant diagram
        Omdd(space, (0, 1), OmddTerminal(3))


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
    models += [random_table(rng, domain_pool=(2, 3)) for _ in range(50)]
    for model in models:
        order = list(range(model.space.m))
        rng.shuffle(order)
        omdd = to_omdd(model, order)
        assert omdd.order == tuple(order)
        assert model_to_json(omdd) == model_to_json(tabular_to_omdd(to_tabular(model), order))
        assert o_is_reduced(omdd)
        assert reduce_omdd(omdd) == omdd
    with pytest.raises(InputError):
        to_omdd(models[0], [0] * models[0].space.m)


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
    with pytest.raises(InputError, match="does not advance"):
        model_from_dict(dict(doc, type="omdd", order=[1]))
