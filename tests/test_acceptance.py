"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every test prints a single pass/fail line (run with ``-s`` to see them all).
Criterion 7's stated Shapley golden for the four-feature family,
(0, 1/9, 7/36, -1/12), contradicts the efficiency identity, so no integer
classifier on that 24-point feature space can produce it. The criterion
is resolved to the efficiency-consistent vector (0, 1/9, 1/18, -1/2),
which the engine, the brute-force oracle and the hand-derived form in
tests/test_families.py agree on; the stated vector is kept and checked to
be unattainable. See README.
"""

import random
from fractions import Fraction

from oracle import (
    check_mutual_mhs,
    o_axps,
    o_cxps,
    o_minimal_adversarial_sets,
    o_shapley,
    random_dt,
    random_problem,
)
from svaudit.adversarial import min_l0_distance, minimal_adversarial_sets
from svaudit.cli import main as cli_main
from svaudit.explain import enumerate_explanations, relevancy_report
from svaudit.families import FAMILY_IDS, FamilySpec, instantiate, solve_family, symbolic_sv
from svaudit.model_io import save_model
from svaudit.models import ExplanationProblem, FeatureSpace, TabularClassifier
from svaudit.rat import dec_str
from svaudit.scan import analyze_instance, scan_model
from svaudit.shapley import phi, shapley_values

F = Fraction


def _report(num, label, ok):
    print(f"[acceptance] criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_01_k1_golden(k1_problem):
    ok = False
    try:
        report = shapley_values(k1_problem)
        assert report.values == (F(-1, 24), F(-1, 6), F(-7, 24))
        expected_phi = {
            frozenset(): F(3, 2), frozenset({0}): F(1), frozenset({1}): F(5, 4),
            frozenset({2}): F(1), frozenset({0, 1}): F(1), frozenset({0, 2}): F(1),
            frozenset({1, 2}): F(1, 2), frozenset({0, 1, 2}): F(1),
        }
        assert len(expected_phi) == 8
        for S, value in expected_phi.items():
            assert phi(k1_problem, S) == value
        ok = True
    finally:
        _report(1, "three-feature multi-valued golden", ok)


def test_criterion_02_k2_golden(k2_problem):
    ok = False
    try:
        report = shapley_values(k2_problem)
        assert report.values == (F(2, 108), F(10, 54), F(10, 54))
        assert report.residual == 0
        # documented sign discrepancy resolved to the positive value
        assert report.values[2] == F(10, 54)
        assert report.values[2] != F(-10, 54)
        ok = True
    finally:
        _report(2, "discrete-domain golden", ok)


def test_criterion_03_family_a():
    ok = False
    try:
        assert symbolic_sv("a", (3, 4, 0)) == (F(0), F(1, 2))
        problem = instantiate(FamilySpec("a", 3, (4, 0)))
        axps, _ = enumerate_explanations(problem)
        assert axps == (frozenset({0}),)
        report = shapley_values(problem)
        assert report.values[0] == 0 and report.values[1] != 0
        ok = True
    finally:
        _report(3, "two-feature family: relevant feature scored 0", ok)


def test_criterion_04_family_b():
    ok = False
    try:
        assert symbolic_sv("b", (1, 0, 3, 3, 0)) == (F(0), F(-1, 8), F(-1, 8))
        assert symbolic_sv("b", (4, 0, 12, 12, 0)) == (F(0), F(-1, 2), F(-1, 2))
        for alpha, sigmas in ((1, (0, 3, 3, 0)), (4, (0, 12, 12, 0))):
            problem = instantiate(FamilySpec("b", alpha, sigmas))
            assert shapley_values(problem).values == symbolic_sv("b", (alpha, *sigmas))
        ok = True
    finally:
        _report(4, "three-feature family at two scales", ok)


def test_criterion_05_family_c_instantiations():
    ok = False
    try:
        picks = ((1, (0, 2, 0, 0, 5, 0, 0, 8, 0)), (1, (3, 4, 8, 0, 0, 0, 0, 0, 0)))
        for alpha, sigmas in picks:
            sv = symbolic_sv("c", (alpha, *sigmas))
            assert sv[0] == 0
            assert sv[1] != 0 and sv[2] != 0
            assert {sv[1], sv[2]} == {F(1, 6), F(-1, 2)}
            problem = instantiate(FamilySpec("c", alpha, sigmas))
            assert shapley_values(problem).values == sv
            assert relevancy_report(problem).relevant == frozenset({0})
        ok = True
    finally:
        _report(5, "mixed-domain family instantiations", ok)


def test_criterion_06_twelve_row_golden():
    ok = False
    try:
        problem = instantiate(FamilySpec("c5", 1, (2, 0, 0, 4, 4, 0)))
        report = shapley_values(problem)
        assert report.values == (F(0), F(1, 6), F(-1, 2))
        assert sum(report.values) == F(-1, 3)
        assert report.phi_empty == F(4, 3)
        assert sum(report.values) + report.phi_empty == 1 == problem.predicted
        ok = True
    finally:
        _report(6, "twelve-row golden with validation block", ok)


# the four-feature golden as first stated; its sum, 2/9, is not
# kappa(v) - phi(empty) for any integer classifier on 24 equally likely points
STATED_FOUR_FEATURE_SV = (F(0), F(1, 9), F(7, 36), F(-1, 12))


def test_criterion_07_four_feature_golden():
    ok = False
    try:
        problem = instantiate(FamilySpec("d", 1, (5, 2, 4, 9)))
        assert problem.space.size == 24
        relevancy = relevancy_report(problem)
        assert relevancy.axps == (frozenset({0}),)
        assert relevancy.irrelevant == frozenset({1, 2, 3})
        report = shapley_values(problem)
        expected = (F(0), F(1, 9), F(1, 18), F(-1, 2))
        assert report.values == expected
        assert o_shapley(problem.model.evaluate, problem.space.domain_sizes,
                         problem.point) == expected
        assert report.residual == 0
        assert report.phi_empty == F(4, 3)
        assert sum(report.values) + report.phi_empty == 1 == problem.predicted
        # the relevant feature scores 0 while every irrelevant one does not
        assert report.values[0] == 0
        assert all(report.values[i] != 0 for i in relevancy.irrelevant)
        # documented golden discrepancy resolved to the efficiency-consistent
        # value: phi(empty) = k/24 for integer k, and 2/9 + k/24 = (16+3k)/72
        # is never an integer
        assert report.values != STATED_FOUR_FEATURE_SV
        for k in range(-240, 241):
            assert (sum(STATED_FOUR_FEATURE_SV) + F(k, 24)).denominator != 1
        ok = True
    finally:
        _report(7, "four-feature appendix golden", ok)


def test_criterion_08_adversarial():
    ok = False
    try:
        table = TabularClassifier.from_function(
            FeatureSpace((2, 2, 2)),
            lambda x: 1 if x[0] else (max(i + 1 for i in (1, 2) if x[i]) if any(x[1:]) else 0))
        problem = ExplanationProblem.of(table, (1, 0, 0))
        k, hits = min_l0_distance(problem)
        assert k == 1
        assert [a.changed for a in minimal_adversarial_sets(problem)] == [frozenset({0})]
        assert len(hits) == 1

        rng = random.Random(211)
        for _ in range(200):
            m = rng.randint(2, 7)
            pool = (2,) if m >= 6 else (2, 2, 3)
            space = FeatureSpace(tuple(rng.choice(pool) for _ in range(m)))
            prob = random_problem(rng, space=space)
            fn, domains, v = prob.model.evaluate, space.domain_sizes, prob.point
            change_sets = [a.changed for a in minimal_adversarial_sets(prob)]
            assert change_sets == o_minimal_adversarial_sets(fn, domains, v)
            assert change_sets == o_cxps(fn, domains, v)
            relevant = frozenset().union(*o_axps(fn, domains, v))
            for A in change_sets:
                assert A <= relevant
        ok = True
    finally:
        _report(8, "adversarial goldens and change-set equivalence", ok)


def test_criterion_09_property_suites():
    ok = False
    try:
        rng = random.Random(223)
        # (a) efficiency, (b) duality, (c) engine equivalence on one corpus
        for _ in range(500):
            prob = random_problem(rng, max_features=6, domain_pool=(2, 2, 2, 3))
            report = shapley_values(prob)
            assert report.residual == 0
            axps_d, cxps_d = enumerate_explanations(prob, engine="duality")
            axps_b, cxps_b = enumerate_explanations(prob, engine="brute")
            assert axps_d == axps_b and cxps_d == cxps_b
            assert check_mutual_mhs(axps_d, cxps_d)

        # (d) backend equivalence on random decision trees up to 10 features
        for i in range(20):
            m = rng.randint(4, 10)
            pool = (2,) if m > 8 else (2, 2, 3)
            space = FeatureSpace(tuple(rng.choice(pool) for _ in range(m)))
            dt = random_dt(rng, space)
            v = tuple(rng.randrange(d) for d in space.domain_sizes)
            prob = ExplanationProblem.of(dt, v)
            assert shapley_values(prob, backend="enumerate") \
                == shapley_values(prob, backend="paths")

        # (e) function-level dummies get exactly 0
        for _ in range(30):
            space = FeatureSpace((2, 3, 2))
            inner = {}
            while len(set(inner.values())) < 2:
                inner = {(x0, x1): rng.randrange(3)
                         for x0 in range(2) for x1 in range(3)}
            table = TabularClassifier.from_function(
                space, lambda x: inner[(x[0], x[1])])
            v = tuple(rng.randrange(d) for d in space.domain_sizes)
            assert shapley_values(ExplanationProblem.of(table, v)).values[2] == 0

        # (f) symmetric features get equal values
        for _ in range(30):
            space = FeatureSpace((2, 2, 2))
            values = [rng.randrange(3) for _ in range(space.size)]
            for x in space.points():
                values[space.index((x[0], x[2], x[1]))] = values[space.index(x)]
            if len(set(values)) < 2:
                continue
            table = TabularClassifier(space, tuple(values))
            v = (rng.randrange(2), 1, 1)
            report = shapley_values(ExplanationProblem.of(table, v))
            assert report.values[1] == report.values[2]
        ok = True
    finally:
        _report(9, "property suites", ok)


def test_criterion_10_scan_substitutes(tmp_path, kc1_dt, capsys):
    ok = False
    try:
        # every family's synthesized classifier, scanned over its whole
        # feature space, flags the target instance
        for family in FAMILY_IDS:
            problem = instantiate(solve_family(family))
            records, summary = scan_model(problem.model)
            assert len(records) == problem.space.size
            target = next(r for r in records if r.point == problem.point)
            assert target.issue is True
            assert target.sv[0] == 0
            assert target.relevant == frozenset({0})
            assert summary.issues >= 1

        # the CLI scan over a user-supplied decision-tree model file emits
        # records that match per-instance recomputation
        model_path = tmp_path / "dt.json"
        save_model(kc1_dt, model_path)
        csv_path = tmp_path / "scan.csv"
        code = cli_main(["scan", "--model", str(model_path), "--all",
                         "--out", str(csv_path)])
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        assert header[-2:] == ["v_i", "v_j"]
        assert len(lines) == 1 + kc1_dt.space.size
        for line in lines[1:]:
            cells = line.split(",")
            idx = int(cells[0])
            point = kc1_dt.space.point_at(idx)
            rec = analyze_instance(ExplanationProblem.of(kc1_dt, point))
            assert [int(c) for c in cells[1:4]] == list(point)
            assert int(cells[4]) == rec.predicted
            assert cells[5:8] == [dec_str(q) for q in rec.sv]
            assert cells[9] == str(int(rec.issue))
            expect_vi = "" if rec.v_irrelevant_max is None else dec_str(rec.v_irrelevant_max)
            expect_vj = "" if rec.v_relevant_min is None else dec_str(rec.v_relevant_min)
            assert cells[10] == expect_vi and cells[11] == expect_vj
        ok = True
    finally:
        _report(10, "scan-pipeline substitutes for corpus statistics", ok)
