"""Minimal l0 adversarial change-sets and their ties to contrastive explanations."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from oracle import (
    k_of_n_tree,
    o_min_l0_distance,
    o_minimal_adversarial_sets,
    o_witness,
    random_dag,
    random_problem,
    random_table,
)
from svaudit import adversarial
from svaudit.adversarial import (
    adversarial_report,
    find_witness,
    min_l0_distance,
    minimal_adversarial_sets,
)
from svaudit.errors import InputError, SvauditError
from svaudit.explain import enumerate_explanations, relevancy_report
from svaudit.model_io import model_to_json
from svaudit.models import (
    ExplanationProblem,
    FeatureSpace,
    TabularClassifier,
    tabular_to_omdd,
    to_tabular,
)


def test_find_witness_k1(k1_problem):
    hit = find_witness(k1_problem, {0})
    assert hit is not None
    assert hit.witness == (0, 0, 0) and hit.class_value == 0
    assert hit.changed == frozenset({0})
    assert find_witness(k1_problem, {1}) is None
    assert find_witness(k1_problem, frozenset()) is None


def test_witness_changes_exactly_the_set():
    rng = random.Random(83)
    for _ in range(20):
        problem = random_problem(rng, max_features=5)
        for _ in range(6):
            A = frozenset(i for i in range(problem.m) if rng.random() < 0.5)
            hit = find_witness(problem, A)
            if hit is not None:
                assert sum(a != b for a, b in zip(hit.witness, problem.point)) == len(A)
                assert hit.changed == A
                assert hit.class_value != problem.predicted
                diff = {i for i in range(problem.m)
                        if hit.witness[i] != problem.point[i]}
                assert diff == A


def test_minimal_sets_k1_k2(k1_problem, k2_problem):
    sets = minimal_adversarial_sets(k1_problem)
    assert [a.changed for a in sets] == [frozenset({0})]
    sets2 = minimal_adversarial_sets(k2_problem)
    assert [a.changed for a in sets2] == [frozenset({0})]


def test_min_l0_k1(k1_problem):
    k, hits = min_l0_distance(k1_problem)
    assert k == 1
    assert [(h.witness, h.class_value) for h in hits] == [((0, 0, 0), 0)]


def test_min_l0_kc1():
    from svaudit.families import FamilySpec, instantiate
    problem = instantiate(FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0)))
    k, _ = min_l0_distance(problem)
    assert k == 1


def test_min_l0_bounded_by_m():
    rng = random.Random(89)
    for _ in range(25):
        problem = random_problem(rng, max_features=5)
        k, hits = min_l0_distance(problem)
        assert 1 <= k <= problem.m
        assert hits
        cxps = enumerate_explanations(problem)[1]
        assert k == min(len(Y) for Y in cxps)


def _changed_union(problem):
    """The features some subset-minimal adversarial set changes."""
    return frozenset().union(*(a.changed for a in minimal_adversarial_sets(problem)))


def test_adversarial_union_goldens(k1_problem):
    assert _changed_union(k1_problem) == frozenset({0})
    from svaudit.families import FamilySpec, instantiate
    kb = instantiate(FamilySpec("b", 1, (0, 3, 3, 0)))
    assert _changed_union(kb) == frozenset({0})


def test_change_set_family_equals_cxps():
    rng = random.Random(97)
    for _ in range(30):
        problem = random_problem(rng, max_features=5)
        fn, domains, v = problem.model.evaluate, problem.space.domain_sizes, problem.point
        sets = [a.changed for a in minimal_adversarial_sets(problem)]
        assert sets == o_minimal_adversarial_sets(fn, domains, v)
        cxps = list(enumerate_explanations(problem)[1])
        assert sets == cxps


def test_minimal_sets_avoid_irrelevant_features():
    rng = random.Random(103)
    for _ in range(25):
        problem = random_problem(rng, max_features=5)
        irrelevant = relevancy_report(problem).irrelevant
        for a in minimal_adversarial_sets(problem):
            assert not (a.changed & irrelevant)


def test_adversarial_set_with_irrelevant_feature_has_clean_subset():
    # any adversarial change-set touching an irrelevant feature strictly
    # contains another adversarial set that avoids it
    rng = random.Random(107)
    checked = 0
    for _ in range(40):
        problem = random_problem(rng, max_features=4)
        report = relevancy_report(problem)
        if not report.irrelevant:
            continue
        minimal = [a.changed for a in minimal_adversarial_sets(problem)]
        for _ in range(8):
            A = frozenset(i for i in range(problem.m) if rng.random() < 0.6)
            hit = find_witness(problem, A)
            if hit is None or not (A & report.irrelevant):
                continue
            checked += 1
            assert any(B < A and not (B & report.irrelevant) for B in minimal)
    assert checked > 10


def test_adversarial_union_equals_relevant():
    # the paper's third claim: a minimal l0 adversarial example changes no
    # irrelevant feature, and every relevant feature is changed by one
    rng = random.Random(109)
    for _ in range(25):
        problem = random_problem(rng, max_features=5)
        assert _changed_union(problem) == relevancy_report(problem).relevant


def test_report_json(k1_problem):
    doc = adversarial_report(k1_problem)
    assert doc == {
        "min_l0": 1,
        "minimal_sets": [{"changed": [1], "witness": [0, 0, 0], "class": 0}],
    }


def test_min_l0_distance_two():
    from svaudit.models import ExplanationProblem, FeatureSpace, TabularClassifier
    # the class flips only at the antipode of v, two coordinate changes away
    table = TabularClassifier(FeatureSpace((2, 2)), (0, 1, 1, 1))
    problem = ExplanationProblem.of(table, (1, 1))
    k, hits = min_l0_distance(problem)
    assert k == 2
    assert [h.witness for h in hits] == [(0, 0)]
    assert [a.changed for a in minimal_adversarial_sets(problem)] == [frozenset({0, 1})]


def test_adversarial_engine_matches_the_brute_force_oracles():
    # tables, trees with shared subtrees and OMDDs under random orders; the
    # whole witness lists are compared, not only the changed sets
    rng = random.Random(211)
    dag_rng = random.Random(223)
    for _ in range(40):
        m = rng.randint(1, 5)
        space = FeatureSpace(tuple(rng.randint(2, 4) for _ in range(m)))
        table = random_table(rng, space=space, classes=rng.randint(2, 4))
        order = list(range(m))
        rng.shuffle(order)
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        for model in (table, tabular_to_omdd(table, order), random_dag(dag_rng, space)):
            fn, domains = model.evaluate, space.domain_sizes
            problem = ExplanationProblem.of(model, v)
            sets = minimal_adversarial_sets(problem)
            expected = o_minimal_adversarial_sets(fn, domains, v)
            assert [a.changed for a in sets] == expected
            assert [(a.witness, a.class_value) for a in sets] \
                == [o_witness(fn, domains, v, A) for A in expected]
            k, hits = min_l0_distance(problem)
            assert (k, [(h.changed, h.witness, h.class_value) for h in hits]) \
                == o_min_l0_distance(fn, domains, v)


def test_all_ones_k_of_n_adversarial_sets_are_the_six_subsets():
    # at the all-ones point of [sum >= 5] over 10 features the CXps, hence
    # the minimal adversarial sets, are the C(10,6) = 210 six-subsets
    tree = k_of_n_tree(10, 5)
    expected = [frozenset(c) for c in itertools.combinations(range(10), 6)]
    for model in (tree, tabular_to_omdd(to_tabular(tree))):
        problem = ExplanationProblem.of(model, (1,) * 10)
        sets = minimal_adversarial_sets(problem)
        assert [a.changed for a in sets] == expected
        assert all(a.witness == tuple(0 if i in a.changed else 1 for i in range(10))
                   and a.class_value == 0 for a in sets)
        k, hits = min_l0_distance(problem)
        assert k == 6
        assert sorted(hits, key=lambda a: sorted(a.changed)) == list(sets)


def test_find_witness_runs_once_per_cxp(monkeypatch):
    calls = []
    original = adversarial.find_witness

    def recording(problem, A):
        calls.append(frozenset(A))
        return original(problem, A)

    monkeypatch.setattr(adversarial, "find_witness", recording)
    rng = random.Random(227)
    for _ in range(20):
        problem = random_problem(rng, max_features=5)
        calls.clear()
        sets = minimal_adversarial_sets(problem)
        assert calls == list(enumerate_explanations(problem)[1]) == [a.changed for a in sets]


def test_report_enumerates_the_cxps_once(monkeypatch):
    # min_l0 and the minimal sets share one duality run; each part is still
    # called once through the module, and the report text is the one the
    # two parts give when each enumerates on its own
    rng = random.Random(229)
    problems = [random_problem(rng, max_features=5) for _ in range(15)]
    problems.append(ExplanationProblem.of(k_of_n_tree(10, 5), (1,) * 10))
    expected = [json.dumps({"min_l0": min_l0_distance(p)[0],
                            "minimal_sets": [a.to_json_dict() for a in minimal_adversarial_sets(p)]})
                for p in problems]
    calls = dict.fromkeys(("enumerate_explanations", "min_l0_distance", "minimal_adversarial_sets"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(adversarial, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(adversarial, name, counting)
    for problem, text in zip(problems, expected):
        calls.update(dict.fromkeys(calls, 0))
        assert json.dumps(adversarial_report(problem)) == text
        assert calls == dict.fromkeys(calls, 1)


def test_cxp_without_a_witness_is_a_domain_error(monkeypatch, k1_problem):
    monkeypatch.setattr(adversarial, "find_witness", lambda problem, A: None)
    with pytest.raises(SvauditError, match="no flipping witness"):
        minimal_adversarial_sets(k1_problem)
    monkeypatch.setattr(adversarial, "enumerate_explanations",
                        lambda problem: ((), (frozenset({1}),)))
    with pytest.raises(SvauditError, match="no flipping point"):
        min_l0_distance(k1_problem)


def test_cli_exits_1_when_a_cxp_has_no_witness(tmp_path, k1_table):
    path = tmp_path / "model.json"
    path.write_text(model_to_json(k1_table), encoding="utf-8")
    script = ("import sys; from svaudit import adversarial, cli; "
              "adversarial.find_witness = lambda problem, A: None; "
              "sys.exit(cli.main(sys.argv[1:]))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script, "adversarial", "--model", str(path),
                           "--instance", "1,0,0"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("svaudit: CXp [1] has no flipping witness")
    assert proc.stdout == ""


def test_given_cxp_families_are_checked():
    problem = ExplanationProblem.of(TabularClassifier(FeatureSpace((2, 2)), (0, 1, 1, 1)), (1, 1))
    with pytest.raises(InputError, match="CXp family is empty"):
        min_l0_distance(problem, ())
    with pytest.raises(InputError, match="CXp family is empty"):
        minimal_adversarial_sets(problem, ())
    with pytest.raises(InputError, match=r"feature subset \[5\] not within 0\.\.1"):
        min_l0_distance(problem, [frozenset({5})])
    with pytest.raises(InputError, match="not within"):
        minimal_adversarial_sets(problem, [frozenset({5})])
    # a given family is read once, so a generator serves as well as a tuple
    cxps = (frozenset(Y) for Y in ({0, 1},))
    assert min_l0_distance(problem, cxps) == min_l0_distance(problem)
