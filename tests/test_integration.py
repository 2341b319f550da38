"""End-to-end workflows across representations, files, and commands."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from oracle import random_dag, random_dt
from svaudit.adversarial import adversarial_report, min_l0_distance, minimal_adversarial_sets
from svaudit.cli import main
from svaudit.errors import InputError
from svaudit.explain import enumerate_explanations, relevancy_report
from svaudit.families import FAMILY_IDS, solve_family
from svaudit.model_io import load_model, model_from_dict, save_model
from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    find_counterexample,
    sum_kappa_over_cube,
    tabular_to_omdd,
    to_tabular,
)
from svaudit.scan import scan_model
from svaudit.shapley import shapley_values


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_reports_are_coherent(capsys, tmp_path):
    # for every family: synthesize, then read each CLI report off the same
    # model file and check the reports agree with one another
    for family in FAMILY_IDS:
        model_path = str(tmp_path / f"{family}.json")
        cert_path = str(tmp_path / f"{family}-cert.json")
        code, _, _ = run(capsys, "synth", "--family", family, "--paper",
                         "--out", model_path, "--cert", cert_path)
        assert code == 0
        cert = json.loads(open(cert_path, encoding="utf-8").read())
        model = load_model(model_path)
        instance = ",".join("1" if i == 0 else str(model.space.domain_sizes[i] - 1)
                            for i in range(model.space.m))

        _, out, _ = run(capsys, "explain", "--model", model_path, "--instance", instance)
        explain_doc = json.loads(out)
        _, out, _ = run(capsys, "shapley", "--model", model_path, "--instance", instance)
        shapley_doc = json.loads(out)
        _, out, _ = run(capsys, "adversarial", "--model", model_path, "--instance", instance)
        adv_doc = json.loads(out)
        _, out, _ = run(capsys, "validate", "--model", model_path, "--instance", instance)
        validate_doc = json.loads(out)

        assert explain_doc["axps"] == cert["axps"] == [[1]]
        assert shapley_doc["sv"] == cert["sv"]
        assert shapley_doc["sv"][0]["num"] == 0
        assert all(e["num"] != 0 for e in shapley_doc["sv"][1:])
        assert validate_doc["ok"] is True
        # the minimal change-sets are exactly the contrastive explanations
        assert [s["changed"] for s in adv_doc["minimal_sets"]] == explain_doc["cxps"]
        assert adv_doc["min_l0"] == min(len(y) for y in explain_doc["cxps"])


def test_family_instance_on_each_representation(capsys, tmp_path):
    # same function as table, diagram, and through files: identical analyses
    code, out, _ = run(capsys, "synth", "--family", "c")
    table_doc = json.loads(out)
    table_path = tmp_path / "c-table.json"
    table_path.write_text(json.dumps(table_doc, indent=2) + "\n", encoding="utf-8")
    omdd_path = str(tmp_path / "c-omdd.json")
    assert run(capsys, "convert", "--model", str(table_path), "--to", "omdd",
               "--order", "2,3,1", "--out", omdd_path)[0] == 0
    for path in (str(table_path), omdd_path):
        _, out, _ = run(capsys, "explain", "--model", path, "--instance", "1,2,2")
        assert json.loads(out)["relevant"] == [1]
        _, out, _ = run(capsys, "shapley", "--model", path, "--instance", "1,2,2")
        doc = json.loads(out)
        assert [(e["num"], e["den"]) for e in doc["sv"]] == [(0, 1), (1, 6), (-1, 2)]


def belmonte_shape_dt():
    """A hand-built 9-feature read-once tree of case-study shape (768 points)."""
    space = FeatureSpace((2, 2, 2, 2, 2, 2, 2, 2, 3))
    leafs = [Leaf(c) for c in range(4)]

    def split(f, low, high):
        return Node(f, ((frozenset({0}), low), (frozenset({1}), high)))

    deep = Node(8, ((frozenset({0, 2}), leafs[0]), (frozenset({1}), leafs[3])))
    mid1 = split(6, split(7, leafs[1], leafs[2]), deep)
    mid2 = split(4, mid1, split(5, leafs[2], leafs[0]))
    mid3 = split(2, split(3, leafs[0], mid2), split(5, leafs[1], leafs[3]))
    root = split(0, mid3, split(1, split(7, leafs[0], leafs[1]), leafs[2]))
    return DecisionTree(space, root)


def test_case_study_scale_scan_sample(capsys, tmp_path):
    dt = belmonte_shape_dt()
    path = tmp_path / "study.json"
    save_model(dt, path)
    csv_path = tmp_path / "study.csv"
    code, out, _ = run(capsys, "scan", "--model", str(path), "--sample", "25",
                       "--seed", "3", "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["total"] == 25
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 26
    # spot-check one sampled record against direct recomputation
    cells = lines[7].split(",")
    point = dt.space.point_at(int(cells[0]))
    problem = ExplanationProblem.of(dt, point)
    report = shapley_values(problem)
    relevancy = relevancy_report(problem)
    assert int(cells[dt.space.m + 1]) == problem.predicted
    assert cells[dt.space.m + 2 + dt.space.m] == \
        ";".join(str(k + 1) for k in sorted(relevancy.relevant))
    assert report.residual == 0


def test_engines_agree_on_structured_trees():
    # wide random trees produce many explanations; both engines and both
    # conversion paths must tell the same story
    rng = random.Random(401)
    dag_rng = random.Random(409)
    for _ in range(10):
        m = rng.randint(6, 8)
        space = FeatureSpace(tuple(rng.choice((2, 2, 3)) for _ in range(m)))
        dt = random_dt(rng, space, classes=2, stop=0.05)
        v = tuple(rng.randrange(d) for d in space.domain_sizes)
        dag = random_dag(dag_rng, space, classes=range(2), stop=0.05)
        dag_v = tuple(dag_rng.randrange(d) for d in space.domain_sizes)
        for tree, v in ((dt, v), (dag, dag_v)):
            prob_dt = ExplanationProblem.of(tree, v)
            prob_tab = ExplanationProblem.of(to_tabular(tree), v)
            prob_mdd = ExplanationProblem.of(tabular_to_omdd(to_tabular(tree)), v)
            expected = enumerate_explanations(prob_tab, engine="brute")
            assert enumerate_explanations(prob_dt, engine="duality") == expected
            assert enumerate_explanations(prob_mdd, engine="duality") == expected
            assert [a.changed for a in minimal_adversarial_sets(prob_tab)] == list(expected[1])


def test_single_feature_problem_end_to_end():
    space = FeatureSpace((3,))
    from svaudit.models import TabularClassifier
    table = TabularClassifier(space, (0, 1, 1))
    problem = ExplanationProblem.of(table, (2,))
    axps, cxps = enumerate_explanations(problem)
    assert axps == (frozenset({0}),) and cxps == (frozenset({0}),)
    report = shapley_values(problem)
    assert report.residual == 0
    k, hits = min_l0_distance(problem)
    assert k == 1 and [h.witness for h in hits] == [(0,)]


def test_usage_errors_for_bad_counts(capsys, tmp_path, k1_table):
    path = tmp_path / "m.json"
    save_model(k1_table, path)
    assert run(capsys, "scan", "--model", str(path), "--sample", "0")[0] == 2
    assert run(capsys, "scan", "--model", str(path), "--all", "--jobs", "0")[0] == 2


def test_capacity_error_exit_code(capsys, tmp_path, k1_table):
    path = tmp_path / "m.json"
    save_model(k1_table, path)
    import svaudit.models as models
    original = models.ENUMERATION_CAP
    models.ENUMERATION_CAP = 4
    try:
        code, _, err = run(capsys, "shapley", "--model", str(path),
                           "--instance", "1,0,0", "--method", "brute")
        assert code == 1 and "svaudit:" in err
    finally:
        models.ENUMERATION_CAP = original


def test_omdd_model_file_with_custom_order_scans(capsys, tmp_path, k2_table):
    omdd = tabular_to_omdd(k2_table, (2, 0, 1))
    path = tmp_path / "k2-omdd.json"
    save_model(omdd, path)
    loaded = load_model(path)
    assert loaded.order == (2, 0, 1)
    code, out, _ = run(capsys, "scan", "--model", str(path), "--all",
                       "--out", str(tmp_path / "scan.csv"))
    assert code == 0
    assert json.loads(out)["total"] == 18


def _shared_chain_doc(m):
    """Node k < m-1 tests feature k+1 and sends both edges to node k+1, so
    the m+2 nodes hold 2^m paths and compute f = x_m over binary features."""
    nodes = [{"id": k, "feature": k + 1, "edges": [{"values": [0], "to": k + 1},
                                                   {"values": [1], "to": k + 1}]}
             for k in range(m - 1)]
    nodes.append({"id": m - 1, "feature": m, "edges": [{"values": [0], "to": m},
                                                       {"values": [1], "to": m + 1}]})
    nodes += [{"id": m, "class": 0}, {"id": m + 1, "class": 1}]
    return {"type": "dt", "features": [{"name": f"x{i}", "domain": 2} for i in range(1, m + 1)],
            "classes": [0, 1], "nodes": nodes}


def test_loaded_copies_compare_and_hash_by_their_node_lists():
    # the verdicts are kept as bools: a failing assert would otherwise print
    # the repr of a 24-feature shared chain, which spells out every path
    m = 24
    a, b = (model_from_dict(_shared_chain_doc(m)) for _ in range(2))
    start = time.perf_counter()
    equal, same_hash = a == b, hash(a) == hash(b)
    elapsed = time.perf_counter() - start
    assert equal and same_hash and elapsed < 0.1
    doc = _shared_chain_doc(m)
    doc["nodes"][-1]["class"] = 2
    doc["classes"].append(2)
    differs = model_from_dict(doc) != a
    assert differs
    omdd = tabular_to_omdd(to_tabular(model_from_dict(_shared_chain_doc(4))))
    assert omdd != DecisionTree(omdd.space, omdd.root)
    assert omdd != Omdd(omdd.space, (3, 2, 1, 0), omdd.root)
    assert omdd == Omdd(omdd.space, omdd.order, omdd.root)


def test_nodes_compare_and_hash_by_identity():
    # the m = 22 chain's root has 2^22 paths below it
    m = 22
    a, b = (model_from_dict(_shared_chain_doc(m)).root for _ in range(2))
    start = time.perf_counter()
    hashes = hash(a), hash(b)
    hash_s = time.perf_counter() - start
    start = time.perf_counter()
    same, other = a == a, a == b
    eq_s = time.perf_counter() - start
    assert hashes == (hash(a), hash(b)) and same and not other
    assert hash_s < 0.1 and eq_s < 0.1


def test_convert_to_omdd_costs_the_graph_not_the_point_count(capsys, tmp_path):
    # the 20-feature chain computes x20 over 2^20 points; under the reversed
    # order its diagram has one node, and no table is built to find it
    m = 20
    tree = tmp_path / "chain.dt.json"
    tree.write_text(json.dumps(_shared_chain_doc(m)), encoding="utf-8")
    out = tmp_path / "chain.omdd.json"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    order = ",".join(str(f) for f in range(m, 0, -1))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "svaudit.cli", "convert", "--model", str(tree),
                           "--to", "omdd", "--order", order, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0
    omdd = load_model(out)
    assert omdd.order == tuple(range(m - 1, -1, -1)) and omdd.nonterminal_count() == 1
    instance = ",".join("1" * m)
    reports = [run(capsys, "explain", "--model", str(path), "--instance", instance)
               for path in (tree, out)]
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_shared_subtrees_cost_the_node_count_not_the_path_count():
    m = 24
    dt = model_from_dict(_shared_chain_doc(m))
    assert dt.nonterminal_count() == m
    problem = ExplanationProblem.of(dt, (1,) * m)
    report = shapley_values(problem)
    assert report.values == (0,) * (m - 1) + (Fraction(1, 2),)
    assert report.residual == 0
    assert sum_kappa_over_cube(dt, frozenset(), problem.point, backend="paths") == 1 << (m - 1)
    assert find_counterexample(dt, frozenset(range(m - 1)), problem.point, 1) \
        == (1,) * (m - 1) + (0,)
    assert find_counterexample(dt, frozenset({m - 1}), problem.point, 1) is None

    m = 20
    problem = ExplanationProblem.of(model_from_dict(_shared_chain_doc(m)), (1,) * m)
    relevancy = relevancy_report(problem)
    assert relevancy.axps == relevancy.cxps == (frozenset({m - 1}),)


def test_adversarial_sets_on_the_shared_chain_cost_the_cxps_not_the_subsets():
    # the one CXp {x24} is found without probing the 2^24 feature subsets;
    # the 20-feature explanation cap guards only the brute engine
    m = 24
    problem = ExplanationProblem.of(model_from_dict(_shared_chain_doc(m)), (1,) * m)
    start = time.perf_counter()
    report = adversarial_report(problem)
    elapsed = time.perf_counter() - start
    assert report == {"min_l0": 1, "minimal_sets": [
        {"changed": [m], "witness": [1] * (m - 1) + [0], "class": 0}]}
    assert elapsed < 0.5


def test_graph_repr_names_the_node_count_not_every_path():
    dt = model_from_dict(_shared_chain_doc(24))
    text = repr(dt)
    assert len(text) < 1024
    assert text.startswith("DecisionTree(space=FeatureSpace(") and text.endswith("nodes=26)")
    omdd = tabular_to_omdd(to_tabular(model_from_dict(_shared_chain_doc(4))), (3, 2, 1, 0))
    assert repr(omdd).startswith("Omdd(space=FeatureSpace(")
    assert repr(omdd).endswith(f"order=(3, 2, 1, 0), nodes={len(omdd.nodes)})")


def test_node_repr_names_the_edge_count_not_every_path():
    # the m = 16 chain's root has 2^16 paths below it; the file's two edges
    # from it to one child are one edge of the view
    root = model_from_dict(_shared_chain_doc(16)).root
    text = repr(root)
    assert len(text) < 1024
    assert text == "Node(feature=0, edges=1)"
    assert repr(root.edges[0][1]) == "Node(feature=1, edges=1)"


def _csv_with_a_long_cell(tmp_path, quote):
    path = tmp_path / "data.csv"
    path.write_text(f"x1,y\n{quote}{'1' * 140_000}{quote},1\n0,0\n", encoding="utf-8")
    return ["build-omdd", "--data", str(path)]


def _k1(table):
    return ExplanationProblem.of(table, (1, 0, 0))


# errors only a bad argument or file reaches: each call must end in an
# ``InputError``, each command (named ``build-omdd-...``) in exit 1
REACHABLE_ERRORS = {
    "cube-sum-backend": (lambda t, _: sum_kappa_over_cube(t, (), (1, 0, 0), backend="x"),
                         "unknown backend 'x'"),
    "shapley-backend": (lambda t, _: shapley_values(_k1(t), backend="x"), "unknown backend 'x'"),
    "explanation-engine": (lambda t, _: enumerate_explanations(_k1(t), engine="x"),
                           "unknown engine 'x'"),
    "family-strategy": (lambda t, _: solve_family("a", strategy="x"), "unknown strategy 'x'"),
    "tree-root": (lambda t, _: DecisionTree(t.space, "x"), "unexpected node object 'x'"),
    "sample-0": (lambda t, _: scan_model(t, sample=0), "sample size must be positive"),
    "sample-minus-1": (lambda t, _: scan_model(t, sample=-1), "sample size must be positive"),
    "build-omdd-long-cell": (lambda _, tmp: _csv_with_a_long_cell(tmp, ""),
                             "is not readable CSV: field larger than field limit (131072)"),
    "build-omdd-long-quoted-cell": (lambda _, tmp: _csv_with_a_long_cell(tmp, '"'),
                                    "is not readable CSV: field larger than field limit (131072)"),
}


@pytest.mark.parametrize("case", REACHABLE_ERRORS)
def test_each_reachable_error_ends_cleanly(case, k1_table, tmp_path, capsys):
    make, message = REACHABLE_ERRORS[case]
    if case.startswith("build-omdd"):
        code, out, err = run(capsys, *make(k1_table, tmp_path))
        assert (code, out) == (1, "") and message in err and "Traceback" not in err
    else:
        with pytest.raises(InputError, match=re.escape(message)):
            make(k1_table, tmp_path)
