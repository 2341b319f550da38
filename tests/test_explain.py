"""Sufficiency predicates, explanation enumeration, duality, relevancy."""

import itertools
import json
import random

import pytest

from oracle import (
    check_mutual_mhs,
    k_of_n_tree,
    o_axps,
    o_cxps,
    o_minimal_hitting_sets,
    random_problem,
)
from svaudit import explain
from svaudit.adversarial import adversarial_report
from svaudit.cli import main
from svaudit.errors import CapacityError, InputError
from svaudit.explain import (
    axp_rule,
    enumerate_explanations,
    is_counterfactual,
    is_sufficient,
    minimal_hitting_sets,
    one_axp,
    one_cxp,
    relevancy_report,
)
from svaudit.model_io import save_model
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    TabularClassifier,
    tabular_to_omdd,
    to_tabular,
)

# sufficiency verdicts for every feature subset of the first worked example
K1_SUFFICIENT = {
    frozenset(): False,
    frozenset({0}): True,
    frozenset({1}): False,
    frozenset({2}): False,
    frozenset({0, 1}): True,
    frozenset({0, 2}): True,
    frozenset({1, 2}): False,
    frozenset({0, 1, 2}): True,
}


def test_sufficiency_table_k1(k1_problem):
    for S, expected in K1_SUFFICIENT.items():
        assert is_sufficient(k1_problem, S) is expected


def test_sufficiency_table_k2(k2_problem):
    # same analysis as the boolean example, feature for feature
    for S, expected in K1_SUFFICIENT.items():
        assert is_sufficient(k2_problem, S) is expected


def test_sufficiency_on_dt_matches_table(k1_problem, k1_dt_problem):
    for S in K1_SUFFICIENT:
        assert is_sufficient(k1_dt_problem, S) == is_sufficient(k1_problem, S)


def test_counterfactual_k1(k1_problem):
    assert is_counterfactual(k1_problem, {0})
    assert not is_counterfactual(k1_problem, {1, 2})
    assert not is_counterfactual(k1_problem, frozenset())


def test_one_axp_k1_any_order(k1_problem):
    for order in itertools.permutations(range(3)):
        assert one_axp(k1_problem, order) == frozenset({0})


def test_one_axp_k2_and_family_b(k2_problem):
    from svaudit.families import FamilySpec, instantiate
    assert one_axp(k2_problem) == frozenset({0})
    kb = instantiate(FamilySpec("b", 1, (0, 3, 3, 0)))
    for order in itertools.permutations(range(3)):
        assert one_axp(kb, order) == frozenset({0})


def test_one_cxp_goldens(k1_problem):
    from svaudit.families import FamilySpec, instantiate
    assert one_cxp(k1_problem) == frozenset({0})
    kc5 = instantiate(FamilySpec("c5", 1, (2, 0, 0, 4, 4, 0)))
    assert one_cxp(kc5) == frozenset({0})


def test_full_complement_cxp():
    # class flips only at the antipode of v: the single CXp is all of F
    space = FeatureSpace((2, 2))
    table = TabularClassifier(space, (0, 1, 1, 1))
    problem = ExplanationProblem.of(table, (1, 1))
    axps, cxps = enumerate_explanations(problem)
    assert cxps == (frozenset({0, 1}),)
    assert axps == (frozenset({0}), frozenset({1}))
    assert one_cxp(problem) == frozenset({0, 1})


def test_enumerate_k1(k1_problem, k1_dt_problem):
    for problem in (k1_problem, k1_dt_problem):
        for engine in ("brute", "duality"):
            axps, cxps = enumerate_explanations(problem, engine=engine)
            assert axps == (frozenset({0}),)
            assert cxps == (frozenset({0}),)


def test_enumerate_kc1():
    from svaudit.families import FamilySpec, instantiate
    problem = instantiate(FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0)))
    axps, cxps = enumerate_explanations(problem)
    assert axps == (frozenset({0}),) and cxps == (frozenset({0}),)


def test_engines_agree_with_oracle_on_random_tables():
    rng = random.Random(101)
    for _ in range(40):
        problem = random_problem(rng, max_features=6)
        fn, domains, v = problem.model.evaluate, problem.space.domain_sizes, problem.point
        expected_axps = tuple(o_axps(fn, domains, v))
        expected_cxps = tuple(o_cxps(fn, domains, v))
        for engine in ("brute", "duality"):
            axps, cxps = enumerate_explanations(problem, engine=engine)
            assert axps == expected_axps
            assert cxps == expected_cxps


def test_monotonicity_of_predicates():
    rng = random.Random(5)
    for _ in range(20):
        problem = random_problem(rng, max_features=5)
        m = problem.m
        for _ in range(10):
            S = frozenset(i for i in range(m) if rng.random() < 0.5)
            extra = frozenset(i for i in range(m) if rng.random() < 0.5)
            if is_sufficient(problem, S):
                assert is_sufficient(problem, S | extra)
            if is_counterfactual(problem, S):
                assert is_counterfactual(problem, S | extra)


def test_duality_on_random_tables():
    rng = random.Random(17)
    for _ in range(30):
        problem = random_problem(rng, max_features=6)
        axps, cxps = enumerate_explanations(problem)
        assert check_mutual_mhs(axps, cxps)
        assert frozenset().union(*axps) == frozenset().union(*cxps)
        # cross-check through the independent hitting-set builder
        assert tuple(minimal_hitting_sets(cxps)) == axps
        assert tuple(minimal_hitting_sets(axps)) == cxps


def test_every_axp_minimal_sufficient():
    rng = random.Random(29)
    for _ in range(20):
        problem = random_problem(rng, max_features=5)
        axps, _ = enumerate_explanations(problem)
        for X in axps:
            assert is_sufficient(problem, X)
            for t in X:
                assert not is_sufficient(problem, X - {t})


def test_one_axp_member_of_enumeration_for_any_order():
    rng = random.Random(31)
    for _ in range(15):
        problem = random_problem(rng, max_features=5)
        axps, cxps = enumerate_explanations(problem)
        order = list(range(problem.m))
        rng.shuffle(order)
        assert one_axp(problem, order) in axps
        assert one_cxp(problem, order) in cxps


def test_minimal_hitting_sets_small_cases():
    assert minimal_hitting_sets([]) == [frozenset()]
    fam = [frozenset({0, 1}), frozenset({1, 2})]
    assert minimal_hitting_sets(fam) == [frozenset({0, 2}), frozenset({1})]
    with pytest.raises(InputError):
        minimal_hitting_sets([frozenset()])


def test_minimal_hitting_sets_match_the_transversal_oracle():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 8)
        family = [frozenset(rng.sample(range(n), rng.randint(1, n)))
                  for _ in range(rng.randint(0, 12))]
        expected = o_minimal_hitting_sets(family)
        assert minimal_hitting_sets(family) == expected
        assert minimal_hitting_sets(family, None) == expected
        assert minimal_hitting_sets(family, [frozenset()]) == expected
        # folding the sets in one at a time, in any order, through ``start``
        order = family[:]
        rng.shuffle(order)
        hs = minimal_hitting_sets([])
        for S in order:
            hs = minimal_hitting_sets([S], hs)
        assert hs == expected
        # or in two chunks
        cut = rng.randint(0, len(family))
        assert minimal_hitting_sets(family[cut:], minimal_hitting_sets(family[:cut])) == expected


def test_duality_hands_each_cxp_to_the_hitting_sets_once(monkeypatch):
    received = []
    original = explain.minimal_hitting_sets

    def recording(family, start=None):
        family = list(family)
        received.append(family)
        return original(family, start)

    monkeypatch.setattr(explain, "minimal_hitting_sets", recording)
    rng = random.Random(73)
    for _ in range(30):
        problem = random_problem(rng, max_features=5)
        received.clear()
        _, cxps = enumerate_explanations(problem)
        handed = [S for family in received for S in family]
        assert len(handed) == len(cxps)
        assert sorted(handed, key=sorted) == list(cxps)


def test_duality_closed_form_on_the_all_ones_k_of_n_instance():
    # at the all-ones point of [sum >= 5] over 10 features, the AXps fix any
    # 5 ones and the CXps free any 6: C(10,5) = 252 and C(10,6) = 210 sets
    tree = k_of_n_tree(10, 5)
    expected = (tuple(frozenset(c) for c in itertools.combinations(range(10), 5)),
                tuple(frozenset(c) for c in itertools.combinations(range(10), 6)))
    for model in (tree, tabular_to_omdd(to_tabular(tree))):
        assert enumerate_explanations(ExplanationProblem.of(model, (1,) * 10)) == expected


def test_relevancy_k1(k1_problem):
    report = relevancy_report(k1_problem)
    assert report.relevant == frozenset({0})
    assert report.necessary == frozenset({0})
    assert report.irrelevant == frozenset({1, 2})
    assert report.to_json_dict() == {
        "axps": [[1]], "cxps": [[1]],
        "relevant": [1], "necessary": [1], "irrelevant": [2, 3],
    }


def test_necessary_subset_of_relevant():
    rng = random.Random(37)
    for _ in range(20):
        report = relevancy_report(random_problem(rng, max_features=5))
        assert report.necessary <= report.relevant
        assert report.relevant | report.irrelevant
        assert not (report.relevant & report.irrelevant)


def test_axp_rule_renderings(k1_problem):
    assert axp_rule(k1_problem, {0}) == "IF x1=1 THEN class=1"
    from svaudit.families import FamilySpec, instantiate
    kc5 = instantiate(FamilySpec("c5", 1, (2, 0, 0, 4, 4, 0)))
    assert axp_rule(kc5, {0}) == "IF x1=1 THEN class=1"
    # a problem whose only explanation is the full feature set
    space = FeatureSpace((2, 2))
    table = TabularClassifier(space, (0, 0, 0, 1))
    problem = ExplanationProblem.of(table, (1, 1))
    assert axp_rule(problem, {0, 1}) == "IF x1=1 AND x2=1 THEN class=1"


def test_axp_rule_uses_model_file_names(tmp_path, k1_table):
    from svaudit.model_io import load_model, model_to_dict
    import json
    doc = model_to_dict(k1_table)
    doc["features"][0]["name"] = "honors"
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    problem = ExplanationProblem.of(load_model(path), (1, 0, 0))
    assert axp_rule(problem, {0}) == "IF honors=1 THEN class=1"


def test_axp_rule_rejects_non_axps(k1_problem):
    with pytest.raises(InputError):
        axp_rule(k1_problem, {1})  # not sufficient
    with pytest.raises(InputError):
        axp_rule(k1_problem, {0, 1})  # not minimal


def test_explanation_cap_guards_only_the_brute_engine(tmp_path):
    # x1 AND x21 over 21 binary features: 2^21 points, under the point cap,
    # but one feature past the 20 whose 2^m subsets the brute engine filters
    m = 21
    x21 = Node(m - 1, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(1))))
    tree = DecisionTree(FeatureSpace((2,) * m),
                        Node(0, ((frozenset({0}), Leaf(0)), (frozenset({1}), x21))))
    ends = frozenset({0, m - 1})
    middle = [i + 1 for i in range(1, m - 1)]
    cases = [
        # at all ones: {x1, x21} is the one AXp, {x1} and {x21} the CXps
        ((1,) * m, (ends,), (frozenset({0}), frozenset({m - 1})), [1, m],
         {"min_l0": 1, "minimal_sets": [
             {"changed": [1], "witness": [0] + [1] * (m - 1), "class": 0},
             {"changed": [m], "witness": [1] * (m - 1) + [0], "class": 0}]}),
        # at all zeros: {x1} and {x21} are the AXps, {x1, x21} the one CXp
        ((0,) * m, (frozenset({0}), frozenset({m - 1})), (ends,), [],
         {"min_l0": 2, "minimal_sets": [
             {"changed": [1, m], "witness": [1] + [0] * (m - 2) + [1], "class": 1}]}),
    ]
    for point, axps, cxps, necessary, adversarial in cases:
        problem = ExplanationProblem.of(tree, point)
        with pytest.raises(CapacityError, match="21 features exceed the enumeration cap 20"):
            enumerate_explanations(problem, engine="brute")
        assert enumerate_explanations(problem) == (axps, cxps)
        assert relevancy_report(problem).to_json_dict() == {
            "axps": [sorted(i + 1 for i in X) for X in axps],
            "cxps": [sorted(i + 1 for i in Y) for Y in cxps],
            "relevant": [1, m], "necessary": necessary, "irrelevant": middle}
        assert adversarial_report(problem) == adversarial
    # the CLI runs duality on this model and refuses only --method brute
    path = tmp_path / "and.json"
    save_model(tree, path)
    out = tmp_path / "duality.json"
    argv = ["explain", "--model", str(path), "--instance", ",".join(["1"] * m)]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["axps"] == [[1, m]]
    assert main(argv + ["--method", "brute"]) == 1


def test_enumeration_agrees_across_representations():
    from svaudit.models import tabular_to_omdd, to_tabular
    from oracle import random_dag, random_dt, random_table
    rng = random.Random(47)
    for _ in range(15):
        table = random_table(rng, max_features=5)
        order = list(range(table.space.m))
        rng.shuffle(order)
        omdd = tabular_to_omdd(table, order)
        v = tuple(rng.randrange(d) for d in table.space.domain_sizes)
        expected = enumerate_explanations(ExplanationProblem.of(table, v))
        got = enumerate_explanations(ExplanationProblem.of(omdd, v))
        assert got == expected
    for _ in range(15):
        space = FeatureSpace(tuple(rng.choice((2, 3)) for _ in range(rng.randint(2, 5))))
        dt = random_dt(rng, space)
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        expected = enumerate_explanations(ExplanationProblem.of(to_tabular(dt), v))
        got = enumerate_explanations(ExplanationProblem.of(dt, v))
        assert got == expected
    dag_rng = random.Random(97)
    for _ in range(15):
        space = FeatureSpace(tuple(dag_rng.choice((2, 3)) for _ in range(dag_rng.randint(2, 5))))
        dag = random_dag(dag_rng, space)
        v = tuple(dag_rng.randrange(d) for d in space.domain_sizes)
        problem = ExplanationProblem.of(dag, v)
        table_problem = ExplanationProblem.of(to_tabular(dag), v)
        assert enumerate_explanations(problem) == enumerate_explanations(table_problem)
        for mask in range(1 << space.m):
            S = frozenset(i for i in range(space.m) if mask >> i & 1)
            assert is_sufficient(problem, S) == is_sufficient(table_problem, S)
            assert is_counterfactual(problem, S) == is_counterfactual(table_problem, S)


def test_sufficiency_on_omdd(k1_table, k1_problem):
    from svaudit.models import tabular_to_omdd
    omdd_problem = ExplanationProblem.of(tabular_to_omdd(k1_table), (1, 0, 0))
    for S in K1_SUFFICIENT:
        assert is_sufficient(omdd_problem, S) == is_sufficient(k1_problem, S)
        assert is_counterfactual(omdd_problem, S) == is_counterfactual(k1_problem, S)


def test_engines_agree_on_larger_trees():
    # the contract scale for engine equivalence: trees up to 12 features
    from oracle import random_dt
    rng = random.Random(53)
    for m in (11, 12):
        space = FeatureSpace((2,) * m)
        dt = random_dt(rng, space, classes=2, stop=0.12)
        v = tuple(rng.randrange(2) for _ in range(m))
        problem = ExplanationProblem.of(dt, v)
        assert enumerate_explanations(problem, engine="duality") \
            == enumerate_explanations(problem, engine="brute")
