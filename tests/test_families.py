"""Parameterized counterexample families: forms, solver, instantiation."""

import random
from fractions import Fraction

import pytest

from oracle import o_shapley
from svaudit import families
from svaudit.errors import InputError, NoSolutionError
from svaudit.explain import relevancy_report
from svaudit.families import (
    FAMILY_IDS,
    FamilySpec,
    _FamilyDef,
    certificate,
    instantiate,
    solve_family,
    symbolic_sv,
)
from svaudit.shapley import shapley_values

F = Fraction

ARITY = {"a": 2, "b": 4, "c": 9, "c5": 6, "d": 4}


# Hand-derived Shapley forms at each family's fixed instance, an independent
# reference for the linear maps the module derives from the engine.
def _sv_a(a, s):
    b, g = s
    return (F(a, 2) - F(3 * b + g, 8), F(b - g, 8))


def _sv_b(a, s):
    s1, s2, s3, s4 = s
    return (F(a, 2) - F(s1 + 2 * s2 + 2 * s3 + 7 * s4, 24),
            F(-s1 - 2 * s2 + s3 + 2 * s4, 24),
            F(-s1 + s2 - 2 * s3 + 2 * s4, 24))


def _sv_c(a, s):
    s1, s2, s3, s4, s5, s6, s7, s8, s9 = s
    return (F(a, 2) - F(2 * s1 + 2 * s2 + 5 * s3 + 2 * s4 + 2 * s5 + 5 * s6
                        + 5 * s7 + 5 * s8 + 26 * s9, 108),
            F(-2 * (s1 + s2 + s4 + s5) - 5 * s3 - 5 * s6 + 4 * s7 + 4 * s8 + 10 * s9, 108),
            F(-2 * (s1 + s2 + s4 + s5) + 4 * s3 + 4 * s6 - 5 * s7 - 5 * s8 + 10 * s9, 108))


def _sv_c5(a, s):
    s1, s2, s3, s4, s5, s6 = s
    return (F(a, 2) - F(2 * s1 + 2 * s2 + 5 * s3 + 4 * s4 + 4 * s5 + 19 * s6, 72),
            F(-2 * s1 - 2 * s2 - 5 * s3 + 2 * s4 + 2 * s5 + 5 * s6, 72),
            F(-s1 - s2 + 2 * s3 - 2 * s4 - 2 * s5 + 4 * s6, 36))


def _sv_d(a, s):
    s1, s2, s3, s4 = s
    return (F(a, 2) - F(3 * s1 + 5 * s2 + 5 * s3 + 11 * s4, 288),
            F(-3 * s1 - 5 * s2 + 3 * s3 + 5 * s4, 288),
            F(-3 * s1 + 3 * s2 - 5 * s3 + 5 * s4, 288),
            F(-(3 * s1 + 5 * s2 + 5 * s3 + 11 * s4), 288))


HAND_FORMS = {"a": _sv_a, "b": _sv_b, "c": _sv_c, "c5": _sv_c5, "d": _sv_d}


def test_symbolic_goldens():
    assert symbolic_sv("a", (3, 4, 0)) == (F(0), F(1, 2))
    assert symbolic_sv("b", (1, 0, 3, 3, 0)) == (F(0), F(-1, 8), F(-1, 8))
    assert symbolic_sv("b", (4, 0, 12, 12, 0)) == (F(0), F(-1, 2), F(-1, 2))
    assert symbolic_sv("c", (1, 0, 2, 0, 0, 5, 0, 0, 8, 0)) == (F(0), F(1, 6), F(-1, 2))
    assert symbolic_sv("c", (1, 3, 4, 8, 0, 0, 0, 0, 0, 0)) == (F(0), F(-1, 2), F(1, 6))
    assert symbolic_sv("c5", (1, 2, 0, 0, 4, 4, 0)) == (F(0), F(1, 6), F(-1, 2))


def test_symbolic_golden_four_feature_family():
    # at (alpha; sigma) = (1; 5,2,4,9) the efficiency identity pins these
    # exactly; see also the brute-force cross-check below
    assert symbolic_sv("d", (1, 5, 2, 4, 9)) == (F(0), F(1, 9), F(1, 18), F(-1, 2))
    assert _sv_d(1, (5, 2, 4, 9)) == (F(0), F(1, 9), F(1, 18), F(-1, 2))


def test_linear_maps_equal_the_hand_derived_forms():
    # 200 seeded parameter vectors per family, alpha and sigmas in -20..20;
    # symbolic_sv does not apply the relevancy precondition
    assert set(HAND_FORMS) == set(FAMILY_IDS)
    rng = random.Random(2310)
    for family, form in HAND_FORMS.items():
        for _ in range(200):
            alpha, *sigmas = (rng.randint(-20, 20) for _ in range(ARITY[family] + 1))
            assert symbolic_sv(family, (alpha, *sigmas)) == form(alpha, tuple(sigmas))


@pytest.mark.parametrize("domain_sizes, block", [
    ((2, 2, 2, 2), tuple(range(8))),  # one sigma per x1=0 row
    ((2, 3), (0, None, 1)),           # a class-0 row between two sigmas
])
def test_linear_map_of_a_new_layout_matches_the_oracle(monkeypatch, domain_sizes, block):
    # a family is one table entry: its map needs no hand derivation
    fam = _FamilyDef(domain_sizes, block, None)
    assert fam.instance == tuple(d - 1 for d in domain_sizes)
    monkeypatch.setitem(families._FAMILIES, "new", fam)
    rng = random.Random(len(block))
    done = 0
    while done < 20:
        alpha, *sigmas = (rng.randint(-20, 20) for _ in range(fam.arity + 1))
        try:
            spec = FamilySpec("new", alpha, sigmas)
        except InputError:
            continue
        done += 1
        problem = instantiate(spec)
        assert problem.point == fam.instance
        assert symbolic_sv("new", spec.params) == o_shapley(
            problem.model.evaluate, domain_sizes, problem.point)
    assert certificate(solve_family("new", strategy="random", seed=3))["constraints_checked"]


def test_symbolic_arity_checked():
    with pytest.raises(InputError):
        symbolic_sv("a", (3, 4))
    with pytest.raises(InputError):
        symbolic_sv("d", (1, 5, 2, 4))
    with pytest.raises(InputError):
        symbolic_sv("z", (1, 2))


def test_symbolic_matches_numeric_engine_everywhere():
    # the module invariant: the linear maps reproduce the engine exactly,
    # 100 random integer parameter vectors per family
    rng = random.Random(113)
    for family in FAMILY_IDS:
        done = 0
        while done < 100:
            alpha = rng.randint(-9, 9)
            sigmas = tuple(rng.randint(-9, 9) for _ in range(ARITY[family]))
            try:
                spec = FamilySpec(family, alpha, sigmas)
            except InputError:
                continue
            done += 1
            problem = instantiate(spec)
            report = shapley_values(problem)
            assert report.values == symbolic_sv(family, spec.params)
            assert report.residual == 0


def test_paper_picks():
    assert solve_family("a") == FamilySpec("a", 3, (4, 0))
    assert solve_family("b") == FamilySpec("b", 1, (0, 3, 3, 0))
    assert solve_family("c") == FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0))
    assert solve_family("c5") == FamilySpec("c5", 1, (2, 0, 0, 4, 4, 0))
    assert solve_family("d") == FamilySpec("d", 1, (5, 2, 4, 9))


def test_scaled_family_b():
    spec = solve_family("b", psi=4)
    assert spec.effective_alpha == 4
    assert spec.effective_sigmas == (0, 12, 12, 0)
    assert symbolic_sv("b", spec.params) == (F(0), F(-1, 2), F(-1, 2))


def test_scale_closure_family_a():
    # parameters satisfying the constraints keep satisfying them when all
    # are multiplied by a positive integer
    for psi in (1, 2, 3, 7):
        spec = FamilySpec("a", 3, (4, 0), psi=psi)
        sv = symbolic_sv("a", spec.params)
        assert sv[0] == 0 and sv[1] != 0
        assert spec.effective_alpha == Fraction(3 * spec.effective_sigmas[0]
                                                + spec.effective_sigmas[1], 4)


def test_solver_outputs_are_counterexamples():
    # every solver output instantiates to: relevant = {1}, all other
    # features irrelevant, Sv(1) = 0, all other Sv nonzero
    cases = [("paper", None), ("grid", None), ("random", 5), ("random", 99)]
    for family in FAMILY_IDS:
        for strategy, seed in cases:
            spec = solve_family(family, strategy=strategy, seed=seed)
            problem = instantiate(spec)
            report = shapley_values(problem)
            assert report.values[0] == 0
            assert all(q != 0 for q in report.values[1:])
            assert report.residual == 0
            relevancy = relevancy_report(problem)
            assert relevancy.relevant == frozenset({0})
            assert relevancy.irrelevant == frozenset(range(1, problem.m))


def test_solver_determinism():
    for family in FAMILY_IDS:
        a = solve_family(family, strategy="random", seed=42)
        b = solve_family(family, strategy="random", seed=42)
        assert a == b
        g1 = solve_family(family, strategy="grid")
        g2 = solve_family(family, strategy="grid", seed=123)  # seed ignored
        assert g1 == g2


# (family, strategy, seed) -> (alpha, sigmas), as the solver first found them
SOLVER_PICKS = {
    ("a", "grid", None): (1, (0, 4)),
    ("a", "random", 1): (9, (12, 0)),
    ("a", "random", 2): (2, (1, 5)),
    ("b", "grid", None): (7, (0, 0, 0, 12)),
    ("b", "random", 1): (5, (1, 4, 1, 7)),
    ("b", "random", 2): (10, (2, 8, 9, 12)),
    ("c", "grid", None): (5, (0, 0, 0, 0, 0, 0, 0, 2, 10)),
    ("c", "random", 1): (8, (2, 12, 1, 12, 9, 0, 5, 4, 12)),
    ("c", "random", 2): (5, (7, 2, 2, 12, 12, 7, 10, 1, 4)),
    ("c5", "grid", None): (7, (0, 0, 0, 0, 6, 12)),
    ("c5", "random", 1): (3, (8, 4, 5, 5, 5, 1)),
    ("c5", "random", 2): (6, (2, 5, 2, 2, 8, 8)),
    ("d", "grid", None): (1, (0, 2, 7, 9)),
    ("d", "random", 1): (1, (2, 4, 6, 8)),
    ("d", "random", 2): (1, (8, 0, 2, 10)),
}


def test_solver_picks_are_pinned():
    # alpha comes from the linear map of Sv(1); the picks must not move
    assert {f for f, _, _ in SOLVER_PICKS} == set(FAMILY_IDS)
    for (family, strategy, seed), (alpha, sigmas) in SOLVER_PICKS.items():
        spec = solve_family(family, strategy=strategy, seed=seed)
        assert (spec.alpha, spec.sigmas) == (alpha, sigmas)


def test_solver_budget_exhaustion():
    with pytest.raises(NoSolutionError):
        solve_family("c", strategy="grid", budget=5)
    with pytest.raises(NoSolutionError):
        solve_family("d", strategy="random", seed=0, budget=3)
    with pytest.raises(NoSolutionError, match="within 0 candidates"):
        solve_family("a", strategy="grid", budget=0)


@pytest.mark.parametrize("budget", [-1, 2.5, True, "5"])
def test_solver_budget_must_be_a_non_negative_int(budget):
    for strategy in ("paper", "grid", "random"):
        with pytest.raises(InputError, match="is not a non-negative integer"):
            solve_family("a", strategy=strategy, seed=0, budget=budget)


def test_instantiate_b_matches_reference_table():
    problem = instantiate(solve_family("b"))  # the paper pick
    assert problem.model.values == (0, 3, 3, 0, 1, 1, 1, 1)
    assert problem.point == (1, 1, 1) and problem.predicted == 1


def test_instantiate_c_matches_reference_table():
    table = instantiate(FamilySpec("c", 1, (0, 2, 0, 0, 5, 0, 0, 8, 0))).model
    assert table.values == (0, 2, 0, 0, 5, 0, 0, 8, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    table2 = instantiate(FamilySpec("c", 1, (3, 4, 8, 0, 0, 0, 0, 0, 0))).model
    assert table2.values == (3, 4, 8, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_instantiate_c5_matches_reference_table():
    problem = instantiate(FamilySpec("c5", 1, (2, 0, 0, 4, 4, 0)))
    assert problem.model.values == (2, 0, 0, 4, 4, 0, 1, 1, 1, 1, 1, 1)
    assert problem.point == (1, 1, 2) and problem.predicted == 1


def test_instantiate_d_matches_reference_table():
    problem = instantiate(FamilySpec("d", 1, (5, 2, 4, 9)))
    assert problem.model.values == (
        0, 5, 0, 0, 2, 0, 0, 4, 0, 0, 9, 0,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    assert problem.point == (1, 1, 1, 2) and problem.predicted == 1


def test_instantiate_a():
    problem = instantiate(FamilySpec("a", 3, (4, 0)))
    # rows in point order (0,0),(0,1),(1,0),(1,1): gamma, beta, alpha, alpha
    assert problem.model.values == (0, 4, 3, 3)
    assert problem.point == (1, 1) and problem.predicted == 3


def test_instantiated_tables_non_constant():
    rng = random.Random(127)
    for family in FAMILY_IDS:
        for _ in range(10):
            try:
                spec = FamilySpec(family, rng.randint(-5, 5),
                                  tuple(rng.randint(-5, 5) for _ in range(ARITY[family])))
            except InputError:
                continue
            assert len(instantiate(spec).model.class_values()) >= 2


def test_spec_validation():
    with pytest.raises(InputError):
        FamilySpec("a", 4, (4, 0))  # alpha collides with a sigma
    with pytest.raises(InputError):
        FamilySpec("d", 0, (5, 2, 4, 9))  # alpha collides with family d's class-0 rows
    with pytest.raises(InputError):
        FamilySpec("c5", 1, (2, 0, 0))  # arity
    with pytest.raises(InputError):
        FamilySpec("b", 1, (0, 3, 3, 0), psi=0)
    with pytest.raises(InputError):
        FamilySpec("q", 1, (2,))


def test_certificate_contents():
    for family in FAMILY_IDS:
        spec = solve_family(family)
        cert = certificate(spec)
        assert cert["family"] == family
        assert cert["constraints_checked"] is True
        assert cert["axps"] == [[1]]
        assert cert["sv"][0]["num"] == 0
        assert cert["params"]["psi"] == 1
        assert len(cert["sv"]) == instantiate(spec).m
