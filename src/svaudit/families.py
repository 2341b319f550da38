"""Parameterized classifier families whose Shapley values contradict relevancy.

Each family is a table template over a small discrete feature space whose
binary x1 is the most significant coordinate. Every x1=1 row has class alpha;
the x1=0 rows, in point order, follow the family's ``block``: entry j gives
the row the free integer parameter sigma_j, and ``None`` gives it class 0.
The fixed instance is each domain's last value. There feature 1 is relevant
(indeed necessary) and every other feature is irrelevant, as long as alpha
differs from the class of every x1=0 row.

Sv is linear in the classes, so each Sv(i) at the instance is a linear form
in (alpha, sigma_1, ..., sigma_k). The forms are not written out: the
coefficient of a parameter is the Shapley engine's Sv of the 0/1 table that
is 1 on exactly the rows the parameter fills, computed once per family on
first use. Solving "Sv(1)=0, all other Sv nonzero" over the integers then
synthesizes classifiers whose attribution order is provably misleading.

The families are the entries of ``_FAMILIES``. Family ``a`` names its sigmas
(beta, gamma) and puts gamma first. Family ``d`` has class 0 on its eight
x1=0 rows with x4 != 1, so its alpha must not be 0.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InputError, NoSolutionError
from .explain import relevancy_report
from .models import ExplanationProblem, FeatureSpace, TabularClassifier, _Frozen, _set
from .shapley import shapley_values


class _FamilyDef(_Frozen):
    """One family: its domain sizes, the x1=0 row layout ``block`` (a sigma
    index per row, ``None`` for class 0) and the pinned ``paper`` pick
    (alpha, sigmas)."""

    __slots__ = _fields = ("domain_sizes", "block", "paper")

    @property
    def arity(self) -> int:
        return len(set(self.block) - {None})

    @property
    def instance(self) -> tuple[int, ...]:
        return tuple(d - 1 for d in self.domain_sizes)

    def block_classes(self, sigmas) -> tuple[int, ...]:
        """Classes of the x1=0 rows, in point order."""
        return tuple(0 if j is None else sigmas[j] for j in self.block)

    def problem(self, alpha, sigmas) -> ExplanationProblem:
        """The table for these parameters (x1=0 rows, then alpha on every
        x1=1 row), paired with the fixed instance."""
        block = self.block_classes(sigmas)
        table = TabularClassifier(FeatureSpace(self.domain_sizes), block + (alpha,) * len(block))
        return ExplanationProblem.of(table, self.instance)


_FAMILIES = {
    "a": _FamilyDef((2, 2), (1, 0), (3, (4, 0))),
    "b": _FamilyDef((2, 2, 2), tuple(range(4)), (1, (0, 3, 3, 0))),
    "c": _FamilyDef((2, 3, 3), tuple(range(9)), (1, (0, 2, 0, 0, 5, 0, 0, 8, 0))),
    "c5": _FamilyDef((2, 2, 3), tuple(range(6)), (1, (2, 0, 0, 4, 4, 0))),
    "d": _FamilyDef((2, 2, 2, 3), (None, 0, None, None, 1, None, None, 2, None, None, 3, None),
                    (1, (5, 2, 4, 9))),
}

FAMILY_IDS = tuple(_FAMILIES)
SIGMA_MAX = 12  # the "grid" and "random" strategies draw sigmas from 0..SIGMA_MAX


def _family_def(family: str) -> _FamilyDef:
    key = str(family).lower()
    if key not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; choose one of {', '.join(_FAMILIES)}")
    return _FAMILIES[key]


@functools.cache
def _linear_map(fam: _FamilyDef) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, rows)`` with Sv(i) = sum_p rows[i][p] * params[p] / den at the
    fixed instance, for params = (alpha, sigma_1, ..., sigma_k). Column p is
    the engine's Sv of the 0/1 table that is 1 on parameter p's rows."""
    units = [(int(p == 0), tuple(int(j == p - 1) for j in range(fam.arity)))
             for p in range(fam.arity + 1)]
    columns = [shapley_values(fam.problem(*unit)).values for unit in units]
    den = lcm(*(q.denominator for column in columns for q in column))
    return den, tuple(tuple(q.numerator * den // q.denominator for q in row)
                      for row in zip(*columns))


def _numerators(fam: _FamilyDef, params) -> list[int]:
    """Each Sv(i) times the map's denominator."""
    return [sum(map(mul, row, params)) for row in _linear_map(fam)[1]]


class FamilySpec(_Frozen):
    """A family id plus integer parameters (alpha, sigma vector, scale psi)."""

    __slots__ = _fields = ("family", "alpha", "sigmas", "psi")

    def __init__(self, family: str, alpha: int, sigmas: tuple[int, ...], psi: int = 1):
        _set(self, "family", str(family).lower())
        _set(self, "alpha", alpha)
        _set(self, "sigmas", tuple(sigmas))
        _set(self, "psi", psi)
        fam = _family_def(self.family)
        if len(self.sigmas) != fam.arity:
            raise InputError(
                f"family {self.family} takes {fam.arity} sigma parameters, got {len(self.sigmas)}")
        # ``type(x) is int``, as in model files: ``bool`` is a subclass of
        # ``int``, and a float sigma would otherwise be truncated
        if any(type(x) is not int for x in (alpha, psi, *self.sigmas)):
            raise InputError("family parameters must be integers")
        if self.psi < 1:
            raise InputError("scale psi must be a positive integer")
        if self.effective_alpha in fam.block_classes(self.effective_sigmas):
            raise InputError(
                "alpha must differ from the class of every x1=0 row (relevancy precondition)")

    @property
    def effective_alpha(self) -> int:
        return self.alpha * self.psi

    @property
    def effective_sigmas(self) -> tuple[int, ...]:
        return tuple(s * self.psi for s in self.sigmas)

    @property
    def params(self) -> tuple[int, ...]:
        return (self.effective_alpha,) + self.effective_sigmas


def symbolic_sv(family: str, params) -> tuple[Fraction, ...]:
    """Shapley values at the family's fixed instance, as the family's linear
    map applied to ``params`` = (alpha, sigma_1, ..., sigma_k)."""
    fam = _family_def(family)
    params = tuple(params)
    if len(params) != fam.arity + 1:
        raise InputError(
            f"family {family} takes alpha plus {fam.arity} sigmas, got {len(params)} values")
    den = _linear_map(fam)[0]
    return tuple(Fraction(n, den) for n in _numerators(fam, params))


def instantiate(spec: FamilySpec) -> ExplanationProblem:
    """Concrete table following the family layout, paired with its fixed instance."""
    return _family_def(spec.family).problem(spec.effective_alpha, spec.effective_sigmas)


def _acceptable(fam, alpha, sigmas) -> bool:
    if alpha in fam.block_classes(sigmas):
        return False
    first, *rest = _numerators(fam, (alpha, *sigmas))
    return first == 0 and all(rest)


def solve_family(family: str, strategy: str = "paper", seed=None,
                 budget: int = 100000, psi: int = 1) -> FamilySpec:
    """Find integer parameters with Sv(1)=0 and every other Sv nonzero.

    Strategies: ``paper`` returns the pinned reference picks; ``grid``
    scans sigma vectors lexicographically over 0..SIGMA_MAX and keeps the
    first hit (deterministic, seed unused); ``random`` draws seeded uniform
    sigma vectors. alpha is derived from the linear map: Sv(1) is a0 alpha
    plus a term free of alpha (a0 = 1/2, the Sv(1) of ``[x1 = 1]`` at
    x1 = 1), so the alpha zeroing it must come out integral. Exceeding
    ``budget`` candidates, a non-negative int, raises NoSolutionError.
    """
    key = str(family).lower()
    fam = _family_def(key)
    if type(budget) is not int or budget < 0:
        raise InputError(f"budget {budget!r} is not a non-negative integer")
    if strategy == "paper":
        alpha, sigmas = fam.paper
        return FamilySpec(key, alpha, sigmas, psi=psi)
    if strategy == "grid":
        candidates = itertools.product(range(SIGMA_MAX + 1), repeat=fam.arity)
    elif strategy == "random":
        rng = random.Random(seed)
        candidates = (tuple(rng.randint(0, SIGMA_MAX) for _ in range(fam.arity))
                      for _ in itertools.count())
    else:
        raise InputError(f"unknown strategy {strategy!r}")

    a0, *coefficients = _linear_map(fam)[1][0]
    for sigmas in itertools.islice(candidates, budget):
        alpha, rest = divmod(-sum(map(mul, coefficients, sigmas)), a0)
        if rest == 0 and _acceptable(fam, alpha, sigmas):
            return FamilySpec(key, alpha, sigmas, psi=psi)
    raise NoSolutionError(
        f"no valid parameters for family {key} within {budget} candidates")


def certificate(spec: FamilySpec) -> dict:
    """Re-derive the synthesized classifier's properties with the real engines.

    Cross-checks the family's linear map (and so linearity and the row
    layout) against the Shapley engine on the instantiated table, and
    enumerates its explanations; the emitted JSON records the verified facts.
    """
    problem = instantiate(spec)
    report = shapley_values(problem)
    symbolic = symbolic_sv(spec.family, spec.params)
    if tuple(report.values) != symbolic:
        raise AssertionError(
            f"linear map disagrees with the numeric engine for {spec}")
    relevancy = relevancy_report(problem)
    checked = (report.values[0] == 0
               and all(q != 0 for q in report.values[1:])
               and report.residual == 0
               and relevancy.relevant == frozenset({0}))
    return {
        "family": spec.family,
        "params": {"alpha": spec.alpha, "sigmas": list(spec.sigmas), "psi": spec.psi},
        "sv": report.to_json_dict()["sv"],
        "axps": relevancy.to_json_dict()["axps"],
        "constraints_checked": bool(checked),
    }
