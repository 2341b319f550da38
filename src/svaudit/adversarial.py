"""Minimal l0 (Hamming) adversarial examples as change-sets.

An adversarial set is a feature set A together with a witness point that
differs from the instance on exactly A and receives a different class. With
the distance budget left unbounded, the subset-minimal adversarial sets
coincide with the contrastive explanations, and their union with the
relevant features; the tests exercise both equalities against independent
enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .models import ExplanationProblem


@dataclass(frozen=True)
class AdversarialSet:
    """A change-set plus one witness differing from the instance exactly there."""

    changed: frozenset[int]
    witness: tuple[int, ...]
    class_value: int

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
        c = problem.model.evaluate(x)
        if c != problem.predicted:
            return AdversarialSet(A, x, c)
    return None


def minimal_adversarial_sets(problem: ExplanationProblem):
    """All subset-minimal adversarial change-sets, each with one witness.

    Sets are visited by size, so any candidate with a smaller adversarial
    subset is skipped before probing for a witness.
    """
    found = []
    for size in range(1, problem.m + 1):
        for combo in itertools.combinations(range(problem.m), size):
            A = frozenset(combo)
            if any(B.changed < A for B in found):
                continue
            hit = find_witness(problem, A)
            if hit is not None:
                found.append(hit)
    return tuple(sorted(found, key=lambda a: tuple(sorted(a.changed))))


def min_l0_distance(problem: ExplanationProblem):
    """Smallest number of features whose change can flip the prediction,
    with every witness at that distance.

    A witness always exists: the classifier is non-constant, so some point
    disagrees with the predicted class and its change-set has size <= m.
    """
    for k in range(1, problem.m + 1):
        hits = []
        for feats in itertools.combinations(range(problem.m), k):
            changed = frozenset(feats)
            for x in _points_changed_on(problem, feats):
                c = problem.model.evaluate(x)
                if c != problem.predicted:
                    hits.append(AdversarialSet(changed, x, c))
        if hits:
            return k, tuple(sorted(hits, key=lambda a: a.witness))
    raise AssertionError("non-constant classifier must admit an adversarial example")


def ae_feature_set(problem: ExplanationProblem) -> frozenset[int]:
    """Union of all subset-minimal adversarial change-sets; equals the
    relevant feature set."""
    sets = minimal_adversarial_sets(problem)
    return frozenset().union(*(a.changed for a in sets))


def adversarial_report(problem: ExplanationProblem) -> dict:
    k, _ = min_l0_distance(problem)
    return {
        "min_l0": k,
        "minimal_sets": [a.to_json_dict() for a in minimal_adversarial_sets(problem)],
    }
