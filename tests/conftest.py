"""Shared fixtures: the worked example classifiers and their instances."""

import pytest

from svaudit.models import (
    DecisionTree,
    ExplanationProblem,
    FeatureSpace,
    Leaf,
    Node,
    TabularClassifier,
)


def kappa1_fn(x):
    if x[0] == 1:
        return 1
    hot = [i + 1 for i in (1, 2) if x[i] > 0]
    return max(hot) if hot else 0


def kappa2_fn(x):
    if x[0] == 1:
        return 1
    return 2 if x[1] == 2 and x[2] == 2 else 0


@pytest.fixture
def k1_table():
    return TabularClassifier.from_function(FeatureSpace((2, 2, 2)), kappa1_fn)


@pytest.fixture
def k1_problem(k1_table):
    return ExplanationProblem.of(k1_table, (1, 0, 0))


@pytest.fixture
def k1_dt():
    # root tests x1; the x1=0 branch tests x2, then x3
    x3_low = Node(2, ((frozenset({0}), Leaf(0)), (frozenset({1}), Leaf(3))))
    x3_high = Node(2, ((frozenset({0}), Leaf(2)), (frozenset({1}), Leaf(3))))
    x2 = Node(1, ((frozenset({0}), x3_low), (frozenset({1}), x3_high)))
    root = Node(0, ((frozenset({0}), x2), (frozenset({1}), Leaf(1))))
    return DecisionTree(FeatureSpace((2, 2, 2)), root)


@pytest.fixture
def k1_dt_problem(k1_dt):
    return ExplanationProblem.of(k1_dt, (1, 0, 0))


@pytest.fixture
def k2_table():
    return TabularClassifier.from_function(FeatureSpace((2, 3, 3)), kappa2_fn)


@pytest.fixture
def k2_problem(k2_table):
    return ExplanationProblem.of(k2_table, (1, 2, 2))


@pytest.fixture
def kc1_dt():
    # instantiated family-c classifier with sigma2=2, sigma5=5, sigma8=8, alpha=1:
    # on the x1=0 side only x3=1 rows are nonzero, split there by x2
    by_x2 = Node(1, ((frozenset({0}), Leaf(2)),
                     (frozenset({1}), Leaf(5)),
                     (frozenset({2}), Leaf(8))))
    by_x3 = Node(2, ((frozenset({0, 2}), Leaf(0)), (frozenset({1}), by_x2)))
    root = Node(0, ((frozenset({0}), by_x3), (frozenset({1}), Leaf(1))))
    return DecisionTree(FeatureSpace((2, 3, 3)), root)
