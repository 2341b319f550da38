"""Abductive and contrastive explanations, enumeration, feature relevancy.

A feature set S is prediction-sufficient when every point agreeing with the
instance on S keeps the predicted class; an AXp is a subset-minimal such set.
Dually, S is counterfactual-sufficient when freeing S alone admits a point
with a different class; a CXp is a subset-minimal such set. The two families
are minimal hitting sets of each other, which the duality-driven enumerator
exploits: it proposes minimal hitting sets of the CXps found so far, and each
proposal either is a new AXp or yields a counterexample point whose changed
features minimize to a new CXp. The enumerator keeps the minimal hitting sets
between rounds, so each new CXp costs one step of Berge's algorithm instead of
a recomputation over every CXp found so far.
"""

from __future__ import annotations

import itertools

from .errors import CapacityError, InputError
from .models import ExplanationProblem, _Frozen, _rank, find_counterexample

# The brute engine refuses to enumerate the subsets of more features than this.
EXPLAIN_CAP = 20


def is_sufficient(problem: ExplanationProblem, S) -> bool:
    """Weak abductive predicate: fixing S to the instance values forces the class."""
    S = problem.space.validate_subset(S)
    return find_counterexample(problem.model, S, problem.point, problem.predicted) is None


def is_counterfactual(problem: ExplanationProblem, S) -> bool:
    """Weak contrastive predicate: freeing S alone can change the class."""
    S = problem.space.validate_subset(S)
    rest = frozenset(range(problem.m)) - S
    return find_counterexample(problem.model, rest, problem.point, problem.predicted) is not None


def one_axp(problem: ExplanationProblem, elimination_order=None) -> frozenset[int]:
    """Deletion-based extraction of one AXp (default order: ascending index)."""
    return _shrink(problem, is_sufficient, _elimination_order(problem, elimination_order))


def one_cxp(problem: ExplanationProblem, elimination_order=None) -> frozenset[int]:
    """Deletion-based extraction of one CXp (default order: ascending index)."""
    return _shrink(problem, is_counterfactual, _elimination_order(problem, elimination_order))


def _shrink(problem, holds, order):
    """Deletion loop: drop each feature of ``order`` in turn while ``holds``
    stays true of the rest, which leaves a subset-minimal set for a monotone
    predicate that holds on all of ``order``. Callers pass the predicate as
    the module holds it, so a wrapped predicate is the one called."""
    X = set(order)
    for t in order:
        if holds(problem, X - {t}):
            X.discard(t)
    return frozenset(X)


def _elimination_order(problem, order):
    order = list(range(problem.m)) if order is None else list(order)
    _rank(order, problem.m)
    return order


def minimal_hitting_sets(family, start=None) -> list[frozenset[int]]:
    """All minimal hitting sets of a family of nonempty sets, sorted.

    Berge's algorithm, one step per set. ``start`` is the value an earlier
    call returned, the minimal hitting sets of the sets it processed; the
    result then covers those sets and ``family`` together. The default,
    ``[frozenset()]``, is the value for no sets at all. A step keeps every
    set that already hits S and extends only the others, so folding in one
    new set costs one step, not a recomputation.
    """
    hs = [frozenset()] if start is None else start
    for S in family:
        if not S:
            raise InputError("cannot hit an empty set")
        kept, missed = [], []
        for H in hs:
            (kept if H & S else missed).append(H)
        if not missed:
            continue
        # No kept set is dominated: a new set H|{e} inside a kept H' would
        # make H a proper subset of H'. Nor does an extension contain
        # another: both meet S in their added element only, so the two would
        # share it and the old sets they extend would be nested. An
        # extension H|{e} can only contain a kept set that holds e.
        nxt = list(kept)
        for e in S:
            holding = [K for K in kept if e in K]
            for H in missed:
                c = H | {e}
                if not any(K <= c for K in holding):
                    nxt.append(c)
        hs = sorted(nxt, key=_set_key)
    return list(hs)


def _set_key(s):
    return tuple(sorted(s))


def enumerate_explanations(problem: ExplanationProblem, engine: str = "duality"):
    """Complete AXp and CXp families, both sorted lexicographically.

    ``brute`` filters all 2^m subsets through the sufficiency predicates and
    serves as the oracle, so it refuses more than ``EXPLAIN_CAP`` features;
    ``duality`` runs the hitting-set loop, whose cost follows the family
    sizes, with no cap of its own. The two engines return identical families.
    """
    if engine == "brute":
        if problem.m > EXPLAIN_CAP:
            raise CapacityError(f"{problem.m} features exceed the enumeration cap {EXPLAIN_CAP}")
        axps, cxps = _enumerate_brute(problem)
    elif engine == "duality":
        axps, cxps = _enumerate_duality(problem)
    else:
        raise InputError(f"unknown engine {engine!r}")
    return tuple(sorted(axps, key=_set_key)), tuple(sorted(cxps, key=_set_key))


def _enumerate_brute(problem):
    m = problem.m
    cache = {}

    def waxp(S):
        if S not in cache:
            cache[S] = is_sufficient(problem, S)
        return cache[S]

    def wcxp(S):
        return not waxp(frozenset(range(m)) - S)

    subsets = [frozenset(c) for r in range(m + 1)
               for c in itertools.combinations(range(m), r)]
    axps = [S for S in subsets
            if waxp(S) and all(not waxp(S - {t}) for t in S)]
    cxps = [S for S in subsets
            if wcxp(S) and all(not wcxp(S - {t}) for t in S)]
    return axps, cxps


def _enumerate_duality(problem):
    """AXps and CXps in discovery order.

    ``hs`` holds the minimal hitting sets of the CXps found so far; each new
    CXp folds into it with one Berge step. The candidate of a round is the
    first of them, in ``_set_key`` order, that is not yet a known AXp.
    """
    axps, cxps = [], []
    axp_set = set()
    hs = [frozenset()]
    while True:
        candidate = next((H for H in hs if H not in axp_set), None)
        if candidate is None:
            return axps, cxps
        cex = find_counterexample(problem.model, candidate, problem.point, problem.predicted)
        if cex is None:
            # a sufficient minimal hitting set of known CXps is already an
            # AXp: removing any element would leave a sufficient set, which
            # hits every CXp, contradicting hitting-set minimality
            axps.append(candidate)
            axp_set.add(candidate)
        else:
            Y = _shrink(problem, is_counterfactual,
                        [i for i in range(problem.m) if cex[i] != problem.point[i]])
            cxps.append(Y)
            hs = minimal_hitting_sets([Y], hs)


class RelevancyReport(_Frozen):
    """Complete explanation families plus the relevancy partition they induce."""

    __slots__ = _fields = ("axps", "cxps", "relevant", "necessary", "irrelevant")

    def to_json_dict(self) -> dict:
        return {
            "axps": [_ext(s) for s in self.axps],
            "cxps": [_ext(s) for s in self.cxps],
            "relevant": _ext(self.relevant),
            "necessary": _ext(self.necessary),
            "irrelevant": _ext(self.irrelevant),
        }


def _ext(features):
    return [i + 1 for i in sorted(features)]


def relevancy_report(problem: ExplanationProblem, engine: str = "duality") -> RelevancyReport:
    """Classify every feature as relevant (in some AXp), necessary (in all)
    or irrelevant (in none)."""
    axps, cxps = enumerate_explanations(problem, engine=engine)
    relevant = frozenset().union(*axps)
    necessary = frozenset(range(problem.m)).intersection(*axps)
    irrelevant = frozenset(range(problem.m)) - relevant
    return RelevancyReport(axps, cxps, relevant, necessary, irrelevant)


def axp_rule(problem: ExplanationProblem, X) -> str:
    """Render an AXp as the logic rule it stands for.

    Raises InputError when X is not actually an AXp of the problem.
    """
    X = problem.space.validate_subset(X)
    if not is_sufficient(problem, X):
        raise InputError(f"{sorted(i + 1 for i in X)} is not prediction-sufficient")
    for t in X:
        if is_sufficient(problem, X - {t}):
            raise InputError(f"{sorted(i + 1 for i in X)} is not subset-minimal")
    names = problem.space.feature_names
    literals = " AND ".join(f"{names[i]}={problem.point[i]}" for i in sorted(X))
    return f"IF {literals} THEN class={problem.predicted}"
