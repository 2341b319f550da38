"""Parameterized classifier families whose Shapley values contradict relevancy.

Each family is a table template over a small discrete feature space whose
binary x1 is the most significant coordinate. Every x1=1 row has class alpha;
the x1=0 rows, in point order, follow the family's ``block``: entry j gives
the row the free integer parameter sigma_j, and ``None`` gives it class 0.
At the family's fixed instance, feature 1 is relevant (indeed necessary) and
every other feature is irrelevant, as long as alpha differs from the class
of every x1=0 row. The per-feature Shapley values are linear forms in the
parameters, so solving "Sv(1)=0, all other Sv nonzero" over the integers
synthesizes classifiers whose attribution order is provably misleading.

The closed forms below are verified exactly against the numeric engine in
the test suite.

Families:

====== ======== =============== ==============
id     features domain sizes    fixed instance
====== ======== =============== ==============
``a``  2        (2, 2)          (1, 1)
``b``  3        (2, 2, 2)       (1, 1, 1)
``c``  3        (2, 3, 3)       (1, 2, 2)
``c5`` 3        (2, 2, 3)       (1, 1, 2)
``d``  4        (2, 2, 2, 3)    (1, 1, 1, 2)
====== ======== =============== ==============

Family ``a`` names its sigmas (beta, gamma) and puts gamma first. Family ``d``
has class 0 on its eight x1=0 rows with x4 != 1, so its alpha must not be 0.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import InputError, NoSolutionError
from .explain import relevancy_report
from .models import ExplanationProblem, FeatureSpace, TabularClassifier, _Frozen, _set
from .rat import rat_json
from .shapley import shapley_values

F = Fraction


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


class _FamilyDef(_Frozen):
    """One family: its space and fixed instance, the x1=0 row layout
    ``block`` (a sigma index per row, ``None`` for class 0), the closed form
    ``sv(alpha, sigmas)`` and the pinned ``paper`` pick (alpha, sigmas)."""

    __slots__ = _fields = ("domain_sizes", "instance", "block", "sv", "paper")

    @property
    def arity(self) -> int:
        return len(set(self.block) - {None})

    def block_classes(self, sigmas) -> tuple[int, ...]:
        """Classes of the x1=0 rows, in point order."""
        return tuple(0 if j is None else sigmas[j] for j in self.block)


_FAMILIES = {
    "a": _FamilyDef((2, 2), (1, 1), (1, 0), _sv_a, (3, (4, 0))),
    "b": _FamilyDef((2, 2, 2), (1, 1, 1), tuple(range(4)), _sv_b, (1, (0, 3, 3, 0))),
    "c": _FamilyDef((2, 3, 3), (1, 2, 2), tuple(range(9)), _sv_c,
                    (1, (0, 2, 0, 0, 5, 0, 0, 8, 0))),
    "c5": _FamilyDef((2, 2, 3), (1, 1, 2), tuple(range(6)), _sv_c5, (1, (2, 0, 0, 4, 4, 0))),
    "d": _FamilyDef((2, 2, 2, 3), (1, 1, 1, 2),
                    (None, 0, None, None, 1, None, None, 2, None, None, 3, None), _sv_d,
                    (1, (5, 2, 4, 9))),
}

FAMILY_IDS = tuple(_FAMILIES)
SIGMA_MAX = 12  # the "grid" and "random" strategies draw sigmas from 0..SIGMA_MAX


def _family_def(family: str) -> _FamilyDef:
    key = str(family).lower()
    if key not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; choose one of {', '.join(_FAMILIES)}")
    return _FAMILIES[key]


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
    """Closed-form Shapley values at the family's fixed instance.

    ``params`` is (alpha, sigma_1, ..., sigma_k); the result agrees exactly
    with the numeric engine on the instantiated table.
    """
    fam = _family_def(family)
    params = tuple(params)
    if len(params) != fam.arity + 1:
        raise InputError(
            f"family {family} takes alpha plus {fam.arity} sigmas, got {len(params)} values")
    return tuple(fam.sv(params[0], params[1:]))


def instantiate(spec: FamilySpec) -> ExplanationProblem:
    """Concrete table following the family layout, paired with its fixed instance."""
    fam = _family_def(spec.family)
    block = fam.block_classes(spec.effective_sigmas)
    values = block + (spec.effective_alpha,) * len(block)
    return ExplanationProblem.of(TabularClassifier(FeatureSpace(fam.domain_sizes), values),
                                 fam.instance)


def _acceptable(fam, alpha, sigmas) -> bool:
    if alpha in fam.block_classes(sigmas):
        return False
    sv = fam.sv(alpha, sigmas)
    return sv[0] == 0 and all(q != 0 for q in sv[1:])


def solve_family(family: str, strategy: str = "paper", seed=None,
                 budget: int = 100000, psi: int = 1) -> FamilySpec:
    """Find integer parameters with Sv(1)=0 and every other Sv nonzero.

    Strategies: ``paper`` returns the pinned reference picks; ``grid``
    scans sigma vectors lexicographically over 0..SIGMA_MAX and keeps the
    first hit (deterministic, seed unused); ``random`` draws seeded uniform
    sigma vectors. alpha is derived from the family's closed form: Sv(1) is
    alpha/2 plus a term free of alpha, so the alpha zeroing it is -2 Sv(1)
    at alpha = 0, and it must come out integral. Exceeding ``budget``
    candidates raises NoSolutionError.
    """
    key = str(family).lower()
    fam = _family_def(key)
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

    tried = 0
    for sigmas in candidates:
        tried += 1
        if tried > budget:
            break
        alpha = -2 * fam.sv(0, sigmas)[0]
        if alpha.denominator == 1 and _acceptable(fam, alpha.numerator, sigmas):
            return FamilySpec(key, alpha.numerator, sigmas, psi=psi)
    raise NoSolutionError(
        f"no valid parameters for family {key} within {budget} candidates")


def certificate(spec: FamilySpec) -> dict:
    """Re-derive the synthesized classifier's properties with the real engines.

    Cross-checks the closed forms against the numeric Shapley engine and the
    enumerated explanations; the emitted JSON records the verified facts.
    """
    problem = instantiate(spec)
    report = shapley_values(problem)
    symbolic = symbolic_sv(spec.family, spec.params)
    if tuple(report.values) != symbolic:
        raise AssertionError(
            f"closed form disagrees with the numeric engine for {spec}")
    relevancy = relevancy_report(problem)
    checked = (report.values[0] == 0
               and all(q != 0 for q in report.values[1:])
               and report.residual == 0
               and relevancy.relevant == frozenset({0}))
    return {
        "family": spec.family,
        "params": {"alpha": spec.alpha, "sigmas": list(spec.sigmas), "psi": spec.psi},
        "sv": [dict(feature=i + 1, **rat_json(q)) for i, q in enumerate(report.values)],
        "axps": [[i + 1 for i in sorted(x)] for x in relevancy.axps],
        "constraints_checked": bool(checked),
    }
