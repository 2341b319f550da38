"""Minimal l0 (Hamming) adversarial examples as change-sets.

An adversarial set is a feature set A together with a witness point that
differs from the instance on exactly A and receives a different class. With
the distance budget left unbounded, the subset-minimal adversarial sets are
exactly the contrastive explanations (CXps), so they come from the duality
engine of ``explain`` and cost follows the CXp count, not the 2^m subsets.
The tests check this against independent brute-force enumeration.
"""

from __future__ import annotations

import itertools

from .errors import NoSolutionError
from .explain import enumerate_explanations
from .models import ExplanationProblem, _Frozen


class AdversarialSet(_Frozen):
    """A change-set plus one witness differing from the instance exactly there."""

    __slots__ = _fields = ("changed", "witness", "class_value")

    def to_json_dict(self) -> dict:
        return {
            "changed": [i + 1 for i in sorted(self.changed)],
            "witness": list(self.witness),
            "class": self.class_value,
        }


def hamming(x, y) -> int:
    return sum(1 for a, b in zip(x, y) if a != b)


def _points_changed_on(problem: ExplanationProblem, feats):
    """Points differing from the instance on exactly ``feats`` (a sorted
    sequence), in lexicographic order."""
    v = problem.point
    axes = [[x for x in range(problem.space.domain_sizes[i]) if x != v[i]] for i in feats]
    for combo in itertools.product(*axes):
        x = list(v)
        for i, val in zip(feats, combo):
            x[i] = val
        yield tuple(x)


def find_witness(problem: ExplanationProblem, A):
    """Lexicographically smallest point differing from the instance on exactly
    the features of A and flipping the class, or None."""
    A = problem.space.validate_subset(A)
    if not A:
        return None
    for x in _points_changed_on(problem, sorted(A)):
        c = problem.model.lookup(x)
        if c != problem.predicted:
            return AdversarialSet(A, x, c)
    return None


def _cxps(problem: ExplanationProblem):
    # no explanation cap: the adversarial commands never had one
    return enumerate_explanations(problem, cap=problem.m)[1]


def minimal_adversarial_sets(problem: ExplanationProblem, cxps=None):
    """All subset-minimal adversarial change-sets, each with its lexicographically
    smallest witness: the CXps (given, or enumerated), one ``find_witness`` each."""
    found = []
    for Y in _cxps(problem) if cxps is None else cxps:
        hit = find_witness(problem, Y)
        if hit is None:
            raise NoSolutionError(f"CXp {sorted(i + 1 for i in Y)} has no flipping witness")
        found.append(hit)
    return tuple(found)


def min_l0_distance(problem: ExplanationProblem, cxps=None):
    """Smallest number of features whose change can flip the prediction,
    with every witness at that distance; the CXps are enumerated unless given.

    The distance k is the smallest CXp size: the changed set of a flipping
    point at distance k is counterfactual-sufficient with no smaller such
    subset, so it is a size-k CXp, and only those CXps are searched.
    """
    cxps = _cxps(problem) if cxps is None else cxps
    k = min(len(Y) for Y in cxps)
    hits = [AdversarialSet(Y, x, c) for Y in cxps if len(Y) == k
            for x in _points_changed_on(problem, sorted(Y))
            if (c := problem.model.lookup(x)) != problem.predicted]
    if not hits:
        raise NoSolutionError(f"no flipping point at the smallest CXp size {k}")
    return k, tuple(sorted(hits, key=lambda a: a.witness))


def ae_feature_set(problem: ExplanationProblem) -> frozenset[int]:
    """Union of all subset-minimal adversarial change-sets; equals the
    relevant feature set."""
    sets = minimal_adversarial_sets(problem)
    return frozenset().union(*(a.changed for a in sets))


def adversarial_report(problem: ExplanationProblem) -> dict:
    cxps = _cxps(problem)  # one enumeration serves both parts
    k, _ = min_l0_distance(problem, cxps)
    return {
        "min_l0": k,
        "minimal_sets": [a.to_json_dict() for a in minimal_adversarial_sets(problem, cxps)],
    }
