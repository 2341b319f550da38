"""Exact attribution: phi goldens, Shapley goldens, efficiency, backends."""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from oracle import (
    o_shapley,
    random_dag,
    random_dt,
    random_problem,
    random_raw_omdd,
    random_space,
    random_table,
)
from svaudit import models as models_module
from svaudit.errors import CapacityError, InputError
from svaudit.model_io import model_from_dict
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    TabularClassifier,
    cube_size,
    sum_kappa_over_cube,
    tabular_to_omdd,
)
from svaudit.rat import dec_str, rat_str
from svaudit.shapley import phi, shapley_values, varsigma

F = Fraction

# reference table of conditional averages for the first worked example
K1_PHI = {
    frozenset(): F(3, 2),
    frozenset({0}): F(1),
    frozenset({1}): F(5, 4),
    frozenset({2}): F(1),
    frozenset({0, 1}): F(1),
    frozenset({0, 2}): F(1),
    frozenset({1, 2}): F(1, 2),
    frozenset({0, 1, 2}): F(1),
}

K2_PHI = {
    frozenset(): F(11, 18),
    frozenset({0}): F(1),
    frozenset({1}): F(5, 6),
    frozenset({2}): F(5, 6),
    frozenset({0, 1}): F(1),
    frozenset({0, 2}): F(1),
    frozenset({1, 2}): F(3, 2),
    frozenset({0, 1, 2}): F(1),
}


def test_phi_golden_k1(k1_problem, k1_dt_problem):
    for S, expected in K1_PHI.items():
        assert phi(k1_problem, S) == expected
        assert phi(k1_dt_problem, S, backend="paths") == expected


def test_phi_golden_k2(k2_problem):
    for S, expected in K2_PHI.items():
        assert phi(k2_problem, S) == expected


def test_phi_of_full_set_is_prediction(k2_problem):
    assert phi(k2_problem, frozenset(range(3))) == k2_problem.predicted


def _efficiency_residual(problem, report):
    """The efficiency identity recomputed from the values, apart from
    ``report.residual``."""
    return sum(report.values) + report.phi_empty - problem.model.evaluate(problem.point)


def test_shapley_golden_k1(k1_problem, k1_dt_problem):
    expected = (F(-1, 24), F(-1, 6), F(-7, 24))
    for problem, backend in ((k1_problem, "enumerate"), (k1_dt_problem, "paths")):
        report = shapley_values(problem, backend=backend)
        assert report.values == expected
        assert report.phi_empty == F(3, 2)
        assert report.residual == 0
        assert _efficiency_residual(problem, report) == 0


def test_shapley_golden_k2(k2_problem):
    report = shapley_values(k2_problem)
    assert report.values == (F(2, 108), F(10, 54), F(10, 54))
    # the third value is +10/54: symmetry with feature 2 and the efficiency
    # identity rule out the negated variant
    assert report.values[2] == F(10, 54) and report.values[2] != F(-10, 54)
    assert report.residual == 0


def test_efficiency_identity_examples(k1_problem, k2_problem):
    from svaudit.families import FamilySpec, instantiate
    kc5 = instantiate(FamilySpec("c5", 1, (2, 0, 0, 4, 4, 0)))
    report = shapley_values(kc5)
    assert sum(report.values) == F(-1, 3)
    assert report.phi_empty == F(4, 3)
    assert _efficiency_residual(kc5, report) == 0
    assert _efficiency_residual(k1_problem, shapley_values(k1_problem)) == 0
    assert _efficiency_residual(k2_problem, shapley_values(k2_problem)) == 0


def test_efficiency_on_random_problems():
    rng = random.Random(53)
    for _ in range(80):
        problem = random_problem(rng, max_features=5)
        report = shapley_values(problem)
        assert report.residual == 0


def test_matches_independent_oracle():
    rng = random.Random(59)
    for _ in range(25):
        problem = random_problem(rng, max_features=4)
        report = shapley_values(problem)
        expected = o_shapley(problem.model.evaluate, problem.space.domain_sizes,
                             problem.point)
        assert report.values == expected


def test_symmetry_of_equal_features():
    rng = random.Random(61)
    space = FeatureSpace((2, 2, 2))
    for _ in range(20):
        # symmetrize a random table in features 2 and 3
        base = random_table(rng, space=space)
        values = list(base.values)
        for x in space.points():
            swapped = (x[0], x[2], x[1])
            values[space.index(swapped)] = values[space.index(x)]
        if len(set(values)) < 2:
            continue
        table = TabularClassifier(space, tuple(values))
        problem = ExplanationProblem.of(table, (1, 1, 1))
        report = shapley_values(problem)
        assert report.values[1] == report.values[2]


def test_function_level_dummy_gets_zero():
    rng = random.Random(67)
    for _ in range(15):
        inner = random_table(rng, space=FeatureSpace((2, 3)))
        # feature 3 never read
        space = FeatureSpace((2, 3, 3))
        table = TabularClassifier.from_function(
            space, lambda x: inner.evaluate((x[0], x[1])))
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        report = shapley_values(ExplanationProblem.of(table, v))
        assert report.values[2] == 0


def test_backend_equivalence_on_random_dts():
    rng = random.Random(71)
    for _ in range(12):
        m = rng.randint(3, 8)
        space = FeatureSpace(tuple(rng.choice((2, 2, 3)) for _ in range(m)))
        dt = random_dt(rng, space)
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        problem = ExplanationProblem.of(dt, v)
        assert shapley_values(problem, backend="enumerate") \
            == shapley_values(problem, backend="paths")


def test_varsigma_normalization():
    for m in range(1, 8):
        total = sum(comb(m - 1, k) * varsigma(m, k) for k in range(m))
        assert total == 1


def test_report_json_k1(k1_problem):
    doc = shapley_values(k1_problem).to_json_dict()
    assert doc == {
        "sv": [
            {"feature": 1, "num": -1, "den": 24, "decimal": "-0.0417"},
            {"feature": 2, "num": -1, "den": 6, "decimal": "-0.1667"},
            {"feature": 3, "num": -7, "den": 24, "decimal": "-0.2917"},
        ],
        "phi_empty": {"num": 3, "den": 2, "decimal": "1.5000"},
        "residual": "0",
    }


def test_rational_rendering():
    assert rat_str(F(-7, 24)) == "-7/24"
    assert rat_str(F(4, 2)) == "2"
    assert dec_str(F(-7, 24)) == "-0.2917"
    assert dec_str(F(10, 54)) == "0.1852"
    assert dec_str(F(0)) == "0.0000"
    assert dec_str(F(-1, 100000)) == "0.0000"  # rounds to zero, no stray sign
    assert dec_str(F(1, 2)) == "0.5000"


def test_backend_equivalence_on_omdds():
    from svaudit.models import tabular_to_omdd
    rng = random.Random(73)
    for _ in range(10):
        table = random_table(rng, max_features=5)
        order = list(range(table.space.m))
        rng.shuffle(order)
        omdd = tabular_to_omdd(table, order)
        v = tuple(rng.randrange(d) for d in table.space.domain_sizes)
        table_report = shapley_values(ExplanationProblem.of(table, v))
        omdd_report = shapley_values(ExplanationProblem.of(omdd, v), backend="paths")
        assert omdd_report.values == table_report.values
        assert omdd_report.residual == 0


def _relabel(node, fn, memo=None):
    """Copy of a graph with every leaf class c replaced by fn(c); a node
    shared in the graph stays shared in the copy."""
    memo = {} if memo is None else memo
    if id(node) not in memo:
        if isinstance(node, Leaf):
            memo[id(node)] = Leaf(fn(node.class_value))
        else:
            memo[id(node)] = Node(node.feature, tuple((E, _relabel(ch, fn, memo))
                                                      for E, ch in node.edges))
    return memo[id(node)]


def test_polynomial_engine_matches_reference_loop_and_oracle():
    # tables, trees, trees with shared subtrees and OMDDs under random
    # orders; domains 2-4, classes -3..3
    rng = random.Random(79)
    dag_rng = random.Random(83)
    for _ in range(45):
        m = rng.randint(1, 6)
        space = FeatureSpace(tuple(rng.randint(2, 4) for _ in range(m)))
        while space.size > 1200:
            space = FeatureSpace(space.domain_sizes[:-1])
            m -= 1
        table = random_table(rng, space=space, classes=7)
        table = TabularClassifier(space, tuple(c - 3 for c in table.values))
        order = list(range(m))
        rng.shuffle(order)
        v = tuple(rng.randrange(d) for d in space.domain_sizes)

        expected = shapley_values(ExplanationProblem.of(table, v), backend="enumerate")
        models = [table, tabular_to_omdd(table, order)]
        dt = random_dt(rng, space, classes=5)
        models.append(DecisionTree(space, _relabel(dt.root, lambda c: c - 2)))
        models.append(random_dag(dag_rng, space, classes=range(-3, 4)))
        for model in models:
            problem = ExplanationProblem.of(model, v)
            report = shapley_values(problem)
            reference = "enumerate" if model is table else "paths"
            assert report == shapley_values(problem, backend=reference)
            assert report.residual == 0
            if m <= 4:
                assert report.values == o_shapley(model.evaluate, space.domain_sizes, v)
        assert shapley_values(ExplanationProblem.of(models[1], v)) == expected


def test_polynomial_engine_unfolds_shared_tree_nodes():
    # a tree file may point two edges at one node id; the subtree is then
    # shared in memory although its paths test different features
    doc = {
        "type": "dt",
        "features": [{"name": f"x{i}", "domain": d} for i, d in enumerate((2, 3, 2), 1)],
        "classes": [-1, 0, 4],
        "nodes": [
            {"id": 0, "feature": 1, "edges": [{"values": [0], "to": 1},
                                              {"values": [1], "to": 2}]},
            {"id": 1, "feature": 2, "edges": [{"values": [0, 2], "to": 2},
                                              {"values": [1], "to": 5}]},
            {"id": 2, "feature": 3, "edges": [{"values": [0], "to": 3},
                                              {"values": [1], "to": 4}]},
            {"id": 3, "class": -1}, {"id": 4, "class": 4}, {"id": 5, "class": 0},
        ],
    }
    dt = model_from_dict(doc)
    for v in dt.space.points():
        problem = ExplanationProblem.of(dt, v)
        report = shapley_values(problem)
        assert report == shapley_values(problem, backend="paths")
        assert report.values == o_shapley(dt.evaluate, dt.space.domain_sizes, v)


def test_default_engine_calls_phi_once(monkeypatch, k2_problem):
    import svaudit.shapley as shapley
    calls = []
    original = shapley.phi

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(shapley, "phi", counting)
    shapley.shapley_values(k2_problem)
    assert calls == [frozenset()]
    calls.clear()
    shapley.shapley_values(k2_problem, backend="enumerate")
    assert len(calls) == 1 << k2_problem.m


def _k_of_n_omdd(n, k):
    """[x1 + ... + xn >= k] over binary features, one node per (layer, ones)."""
    one, zero = Leaf(1), Leaf(0)
    below = {}
    for p in reversed(range(n)):
        layer = {}
        for c in range(k):
            if c + (n - p) < k:
                continue
            hi = one if c + 1 == k else below[c + 1]
            lo = zero if c + (n - p - 1) < k else below[c]
            layer[c] = Node(p, ((frozenset({0}), lo), (frozenset({1}), hi)))
        below = layer
    return Omdd(FeatureSpace((2,) * n), tuple(range(n)), below[0])


def test_polynomial_engine_at_twenty_features():
    # out of reach of the 2^m loop; symmetry fixes every value
    omdd = _k_of_n_omdd(20, 10)
    assert omdd.nonterminal_count() == 11 * 10
    problem = ExplanationProblem.of(omdd, (1,) * 20)
    report = shapley_values(problem)
    phi_empty = F(sum(comb(20, j) for j in range(10, 21)), 1 << 20)
    assert report.phi_empty == phi_empty
    assert report.values == ((1 - phi_empty) / 20,) * 20
    assert report.residual == 0


def test_phi_checks_its_subset_once(monkeypatch, k2_problem, k1_dt_problem):
    # the cube sum is the one boundary check of S and of the point; the
    # cube size and the enumeration cap reuse the subset it checked
    counts = Counter()
    for name in ("validate_subset", "validate_point"):
        def counting(self, arg, _name=name, _original=getattr(FeatureSpace, name)):
            counts[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(FeatureSpace, name, counting)
    for problem, backend, expected in ((k2_problem, "auto", K2_PHI), (k1_dt_problem, "auto", K1_PHI),
                                       (k1_dt_problem, "enumerate", K1_PHI)):
        counts.clear()
        assert phi(problem, [0], backend) == expected[frozenset({0})]
        assert counts == {"validate_subset": 1, "validate_point": 1}
    with pytest.raises(InputError):
        phi(k2_problem, {3})
    with pytest.raises(InputError):
        cube_size(k2_problem.space, {3})
    with pytest.raises(InputError):
        sum_kappa_over_cube(k2_problem.model, {0}, (1, 2, 3))
    monkeypatch.setattr(models_module, "ENUMERATION_CAP", 5)
    with pytest.raises(CapacityError):
        phi(k2_problem, {0})
    with pytest.raises(CapacityError):
        sum_kappa_over_cube(k2_problem.model, {0}, k2_problem.point)
    assert phi(k2_problem, {0, 1}) == K2_PHI[frozenset({0, 1})]  # 3 points


def test_graph_engine_with_classes_near_a_trillion():
    # the packed engine holds each polynomial as one integer, with digits
    # wide enough for cmax D^2 9^m; classes of about 1e12 on graphs of up to
    # 4096 points overflow a width that drops cmax or D^2
    rng = random.Random(97)
    for _ in range(30):
        space = random_space(rng, domain_pool=(2, 3, 4))
        dag = random_dag(rng, space, classes=[rng.randint(-10 ** 12, 10 ** 12) for _ in range(4)])
        raw = random_raw_omdd(rng)
        big = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(3)]
        raw = Omdd(raw.space, raw.order, _relabel(raw.root, big.__getitem__))
        for model in (dag, raw):
            sizes = model.space.domain_sizes
            v = tuple(rng.randrange(d) for d in sizes)
            problem = ExplanationProblem.of(model, v)
            report = shapley_values(problem)
            assert report == shapley_values(problem, backend="paths")
            assert report.residual == 0
            if len(sizes) <= 4:
                assert report.values == o_shapley(model.evaluate, sizes, v)


def _shared_chain(m, top):
    """top * x_m over binary features: node k tests feature k+1 and sends
    both edges to node k+1, so the m+2 nodes hold 2^m paths."""
    node = Node(m - 1, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(top))))
    for f in reversed(range(m - 1)):
        node = Node(f, ((frozenset({0}), node), (frozenset({1}), node)))
    return DecisionTree(FeatureSpace((2,) * m), node)


def test_scaling_the_classes_scales_every_value():
    kofn = _k_of_n_omdd(20, 10)

    def scaled_kofn(K):
        return Omdd(kofn.space, kofn.order, _relabel(kofn.root, lambda c: K * c))

    rng = random.Random(101)
    for build, m in ((scaled_kofn, 20), (lambda K: _shared_chain(24, K), 24)):
        for v in ((1,) * m, tuple(rng.randrange(2) for _ in range(m))):
            base = shapley_values(ExplanationProblem.of(build(1), v))
            if m == 24:
                assert base.values == (0,) * 23 + (F(2 * v[-1] - 1, 2),)
            for K in (10 ** 12 + 39, -(10 ** 30) - 39):
                report = shapley_values(ExplanationProblem.of(build(K), v))
                assert report.values == tuple(K * q for q in base.values)
                assert report.phi_empty == K * base.phi_empty
                assert report.residual == 0
