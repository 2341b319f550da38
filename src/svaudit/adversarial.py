"""Minimal l0 (Hamming) adversarial examples as change-sets.

An adversarial set is a feature set A together with a witness point that
differs from the instance on exactly A and receives a different class. With
the distance budget left unbounded, the subset-minimal adversarial sets are
exactly the contrastive explanations (CXps), so they come from the duality
engine of ``explain``, uncapped like every duality run, and cost follows the
CXp count, not the 2^m subsets. One generator walks the flipping points on a
change-set: ``find_witness`` takes its first, ``min_l0_distance`` all of them
on each smallest CXp. The tests check this against independent brute-force
enumeration.
"""

from __future__ import annotations

import itertools

from .errors import InputError, NoSolutionError
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


def _flips(problem: ExplanationProblem, A: frozenset):
    """An ``AdversarialSet`` for every point that differs from the instance on
    exactly A and flips the class, in lexicographic order of the points."""
    v = problem.point
    feats = sorted(A)
    axes = [[x for x in range(problem.space.domain_sizes[i]) if x != v[i]] for i in feats]
    for combo in itertools.product(*axes):
        x = list(v)
        for i, val in zip(feats, combo):
            x[i] = val
        x = tuple(x)
        c = problem.model.lookup(x)
        if c != problem.predicted:
            yield AdversarialSet(A, x, c)


def find_witness(problem: ExplanationProblem, A):
    """Lexicographically smallest point differing from the instance on exactly
    the features of A and flipping the class, or None (always for A empty)."""
    return next(_flips(problem, problem.space.validate_subset(A)), None)


def _cxp_family(problem: ExplanationProblem, cxps):
    """The CXps, enumerated unless given; a given family is checked."""
    if cxps is None:
        return enumerate_explanations(problem)[1]
    cxps = tuple(map(problem.space.validate_subset, cxps))
    if not cxps:
        raise InputError("the CXp family is empty")
    return cxps


def minimal_adversarial_sets(problem: ExplanationProblem, cxps=None):
    """All subset-minimal adversarial change-sets, each with its lexicographically
    smallest witness: the CXps (given, or enumerated), one ``find_witness`` each."""
    found = []
    for Y in _cxp_family(problem, cxps):
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
    cxps = _cxp_family(problem, cxps)
    k = min(len(Y) for Y in cxps)
    hits = [a for Y in cxps if len(Y) == k for a in _flips(problem, Y)]
    if not hits:
        raise NoSolutionError(f"no flipping point at the smallest CXp size {k}")
    return k, tuple(sorted(hits, key=lambda a: a.witness))


def adversarial_report(problem: ExplanationProblem) -> dict:
    cxps = enumerate_explanations(problem)[1]  # one enumeration serves both parts
    k, _ = min_l0_distance(problem, cxps)
    return {
        "min_l0": k,
        "minimal_sets": [a.to_json_dict() for a in minimal_adversarial_sets(problem, cxps)],
    }
