"""Discrete classifier representations and exact cube arithmetic.

Three total-function representations over a common discrete feature space:

* ``TabularClassifier`` -- an explicit complete truth table;
* ``DecisionTree`` -- internal nodes test one feature, edges carry disjoint
  value sets covering the domain, each feature tested at most once per path;
* ``Omdd`` -- ordered multi-valued decision diagram: a layered DAG with
  deterministic set-labelled edges and one terminal per class value.

All structures are immutable after construction and safe to share across
concurrent readers. Features are 0-based internally; classes are plain ints
(they embed into exact rationals downstream).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional, Union

from .errors import CapacityError, InputError

# Hard cap on enumerable feature-space sizes (points). Desk-scale guardrail;
# raise it consciously if you really need more.
ENUMERATION_CAP = 1 << 24


@dataclass(frozen=True)
class FeatureSpace:
    """Cartesian product of finite feature domains; values of feature i are
    0 .. domain_sizes[i]-1."""

    domain_sizes: tuple[int, ...]
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "domain_sizes", tuple(int(d) for d in self.domain_sizes))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(str(n) for n in self.names))
            if len(self.names) != len(self.domain_sizes):
                raise InputError("feature names do not match feature count")
        if len(self.domain_sizes) < 1:
            raise InputError("need at least one feature")
        if any(d < 2 for d in self.domain_sizes):
            raise InputError("every feature domain needs at least two values")
        if prod(self.domain_sizes) > ENUMERATION_CAP:
            raise CapacityError(
                f"feature space has more than {ENUMERATION_CAP} points")

    @property
    def m(self) -> int:
        return len(self.domain_sizes)

    @property
    def size(self) -> int:
        return prod(self.domain_sizes)

    @property
    def feature_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(f"x{i + 1}" for i in range(self.m))

    def validate_point(self, point) -> tuple[int, ...]:
        point = tuple(point)
        if len(point) != self.m:
            raise InputError(f"point has {len(point)} coordinates, expected {self.m}")
        for i, (x, d) in enumerate(zip(point, self.domain_sizes)):
            if not isinstance(x, int) or not 0 <= x < d:
                raise InputError(f"value {x!r} of feature {i + 1} outside 0..{d - 1}")
        return point

    def validate_subset(self, features) -> frozenset[int]:
        S = frozenset(features)
        if not all(isinstance(i, int) and 0 <= i < self.m for i in S):
            raise InputError(f"feature subset {sorted(S)} not within 0..{self.m - 1}")
        return S

    def points(self) -> Iterator[tuple[int, ...]]:
        """All points in mixed-radix (row-major, feature 1 most significant) order."""
        return itertools.product(*(range(d) for d in self.domain_sizes))

    def index(self, point) -> int:
        """Mixed-radix index of a point (its row number in a complete table)."""
        idx = 0
        for x, d in zip(point, self.domain_sizes):
            idx = idx * d + x
        return idx

    def point_at(self, idx: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.domain_sizes):
            idx, x = divmod(idx, d)
            out.append(x)
        return tuple(reversed(out))

    def cube_points(self, S, v) -> Iterator[tuple[int, ...]]:
        """Points agreeing with v on S, in lexicographic order."""
        axes = [(v[i],) if i in S else range(d)
                for i, d in enumerate(self.domain_sizes)]
        return itertools.product(*axes)


def cube_size(space: FeatureSpace, S) -> int:
    """Number of points agreeing with a reference point on S (independent of it)."""
    S = space.validate_subset(S)
    return prod(d for i, d in enumerate(space.domain_sizes) if i not in S)


@dataclass(frozen=True)
class TabularClassifier:
    """Complete truth table: one class value per point, mixed-radix order."""

    space: FeatureSpace
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(c) for c in self.values))
        if len(self.values) != self.space.size:
            raise InputError(
                f"table has {len(self.values)} rows, space has {self.space.size} points")
        if len(set(self.values)) < 2:
            raise InputError("classifier is constant; at least two classes must occur")

    @classmethod
    def from_function(cls, space: FeatureSpace, fn) -> "TabularClassifier":
        return cls(space, tuple(fn(p) for p in space.points()))

    def evaluate(self, point) -> int:
        point = self.space.validate_point(point)
        return self.values[self.space.index(point)]

    def class_values(self) -> frozenset[int]:
        return frozenset(self.values)


@dataclass(frozen=True)
class DTLeaf:
    class_value: int


@dataclass(frozen=True)
class DTNode:
    feature: int
    edges: tuple[tuple[frozenset[int], Union["DTNode", DTLeaf]], ...]


@dataclass(frozen=True)
class DecisionTree:
    """Set-labelled decision tree; deterministic, total, read-once per path."""

    space: FeatureSpace
    root: Union[DTNode, DTLeaf]

    def __post_init__(self):
        classes = set()

        def walk(node, used):
            if isinstance(node, DTLeaf):
                classes.add(int(node.class_value))
                return
            if not isinstance(node, DTNode):
                raise InputError(f"unexpected node object {node!r}")
            f = node.feature
            if not 0 <= f < self.space.m:
                raise InputError(f"node tests unknown feature {f}")
            if f in used:
                raise InputError(f"feature {f + 1} tested twice on one path")
            domain = set(range(self.space.domain_sizes[f]))
            seen = set()
            for values, child in node.edges:
                if not values:
                    raise InputError("empty edge label")
                if not values <= domain:
                    raise InputError(f"edge label {sorted(values)} outside domain of feature {f + 1}")
                if values & seen:
                    raise InputError(f"overlapping edge labels at feature {f + 1}")
                seen |= values
                walk(child, used | {f})
            if seen != domain:
                raise InputError(f"edges of feature {f + 1} do not cover its domain")

        walk(self.root, frozenset())
        if len(classes) < 2:
            raise InputError("classifier is constant; at least two classes must occur")

    def evaluate(self, point) -> int:
        point = self.space.validate_point(point)
        node = self.root
        while isinstance(node, DTNode):
            x = point[node.feature]
            node = next(child for values, child in node.edges if x in values)
        return node.class_value

    def class_values(self) -> frozenset[int]:
        out = set()

        def walk(node):
            if isinstance(node, DTLeaf):
                out.add(node.class_value)
            else:
                for _, child in node.edges:
                    walk(child)

        walk(self.root)
        return frozenset(out)


@dataclass(frozen=True)
class OmddTerminal:
    class_value: int


@dataclass(frozen=True)
class OmddNode:
    feature: int
    edges: tuple[tuple[frozenset[int], Union["OmddNode", OmddTerminal]], ...]


@dataclass(frozen=True)
class Omdd:
    """Ordered multi-valued decision diagram.

    Edges may skip layers but only move to strictly later positions of the
    variable order (or to a terminal). Construction validates ordering,
    determinism and totality; canonical reducedness is the builder's job
    (see ``tabular_to_omdd``/``reduce_omdd``, checked by ``is_reduced``).
    """

    space: FeatureSpace
    order: tuple[int, ...]
    root: Union[OmddNode, OmddTerminal]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.space.m)):
            raise InputError(f"order {self.order} is not a permutation of the features")
        pos = {f: k for k, f in enumerate(self.order)}
        classes = set()
        seen = set()

        def walk(node, above):
            # the order is checked before descending, so recursion stays
            # within m levels however long a malformed chain is
            if isinstance(node, OmddTerminal):
                classes.add(int(node.class_value))
                return
            if not isinstance(node, OmddNode):
                raise InputError(f"unexpected node object {node!r}")
            f = node.feature
            if not 0 <= f < self.space.m:
                raise InputError(f"node tests unknown feature {f}")
            if pos[f] <= above:
                raise InputError("edge does not advance in the variable order")
            if id(node) in seen:
                return
            seen.add(id(node))
            domain = set(range(self.space.domain_sizes[f]))
            covered = set()
            for values, child in node.edges:
                if not values:
                    raise InputError("empty edge label")
                if not values <= domain:
                    raise InputError(f"edge label {sorted(values)} outside domain of feature {f + 1}")
                if values & covered:
                    raise InputError(f"overlapping edge labels at feature {f + 1}")
                covered |= values
                walk(child, pos[f])
            if covered != domain:
                raise InputError(f"edges of feature {f + 1} do not cover its domain")

        walk(self.root, -1)
        if len(classes) < 2:
            raise InputError("classifier is constant; at least two classes must occur")

    def evaluate(self, point) -> int:
        point = self.space.validate_point(point)
        node = self.root
        while isinstance(node, OmddNode):
            x = point[node.feature]
            node = next(child for values, child in node.edges if x in values)
        return node.class_value

    def class_values(self) -> frozenset[int]:
        out = set()
        seen = set()

        def walk(node):
            if id(node) in seen:
                return
            seen.add(id(node))
            if isinstance(node, OmddTerminal):
                out.add(node.class_value)
            else:
                for _, child in node.edges:
                    walk(child)

        walk(self.root)
        return frozenset(out)

    def nonterminal_count(self) -> int:
        seen = set()

        def walk(node):
            if isinstance(node, OmddTerminal) or id(node) in seen:
                return 0
            seen.add(id(node))
            return 1 + sum(walk(child) for _, child in node.edges)

        return walk(self.root)


Classifier = Union[TabularClassifier, DecisionTree, Omdd]


@dataclass(frozen=True)
class ExplanationProblem:
    """A classifier plus the instance (v, c) under analysis; c = model(v)."""

    model: Classifier
    point: tuple[int, ...]
    predicted: int

    def __post_init__(self):
        object.__setattr__(self, "point", self.model.space.validate_point(self.point))
        if self.model.evaluate(self.point) != self.predicted:
            raise InputError(
                f"instance class {self.predicted} disagrees with the classifier")

    @classmethod
    def of(cls, model: Classifier, point) -> "ExplanationProblem":
        point = model.space.validate_point(point)
        return cls(model, point, model.evaluate(point))

    @property
    def space(self) -> FeatureSpace:
        return self.model.space

    @property
    def m(self) -> int:
        return self.model.space.m


# ---------------------------------------------------------------------------
# Cube summation (the numerator of the conditional average phi)
# ---------------------------------------------------------------------------

def sum_kappa_over_cube(model: Classifier, S, v, backend: str = "auto") -> int:
    """Sum of class values over all points agreeing with v on S.

    ``enumerate`` walks the cube point by point and works for every
    representation; ``paths`` counts models per leaf/terminal and needs a
    DecisionTree or Omdd. Both produce the same exact integer.
    """
    space = model.space
    S = space.validate_subset(S)
    v = space.validate_point(v)
    if backend == "auto":
        backend = "enumerate" if isinstance(model, TabularClassifier) else "paths"
    if backend == "enumerate":
        if cube_size(space, S) > ENUMERATION_CAP:
            raise CapacityError("cube too large for the enumeration backend")
        return sum(model.evaluate(p) for p in space.cube_points(S, v))
    if backend == "paths":
        if isinstance(model, DecisionTree):
            return _dt_cube_sum(model, S, v)
        if isinstance(model, Omdd):
            return _omdd_cube_sum(model, S, v)
        raise InputError("path counting needs a decision tree or an OMDD")
    raise InputError(f"unknown backend {backend!r}")


def _dt_cube_sum(dt: DecisionTree, S, v) -> int:
    sizes = dt.space.domain_sizes

    def rec(node, tested, weight):
        if isinstance(node, DTLeaf):
            untested = prod(sizes[i] for i in range(dt.space.m)
                            if i not in S and i not in tested)
            return node.class_value * weight * untested
        f = node.feature
        total = 0
        for values, child in node.edges:
            if f in S:
                if v[f] in values:
                    total += rec(child, tested | {f}, weight)
            else:
                total += rec(child, tested | {f}, weight * len(values))
        return total

    return rec(dt.root, frozenset(), 1)


def _omdd_cube_sum(omdd: Omdd, S, v) -> int:
    sizes = omdd.space.domain_sizes
    order = omdd.order
    pos = {f: k for k, f in enumerate(order)}
    m = omdd.space.m

    def skip(a, b):
        # product over positions a..b-1 of the free-domain sizes
        return prod(1 if order[q] in S else sizes[order[q]] for q in range(a, b))

    memo = {}

    def down(node):
        # weighted class sum over the sub-cube rooted at this node's layer
        if isinstance(node, OmddTerminal):
            return node.class_value
        key = id(node)
        if key in memo:
            return memo[key]
        p = pos[node.feature]
        total = 0
        for values, child in node.edges:
            w = (1 if v[node.feature] in values else 0) \
                if node.feature in S else len(values)
            if w:
                cp = m if isinstance(child, OmddTerminal) else pos[child.feature]
                total += w * skip(p + 1, cp) * down(child)
        memo[key] = total
        return total

    root_pos = m if isinstance(omdd.root, OmddTerminal) else pos[omdd.root.feature]
    return skip(0, root_pos) * down(omdd.root)


def find_counterexample(model: Classifier, S, v, target: int):
    """First point agreeing with v on S whose class differs from target.

    Returns None when every such point maps to target (i.e. S is
    prediction-sufficient). Tables are scanned in lexicographic order; tree
    and diagram traversals are deterministic and prefer values of v so the
    returned point differs from v on as few features as possible.
    """
    space = model.space
    S = space.validate_subset(S)
    v = space.validate_point(v)
    if isinstance(model, TabularClassifier):
        for p in space.cube_points(S, v):
            if model.evaluate(p) != target:
                return p
        return None
    assignment = _branch_counterexample(model, S, v, target)
    if assignment is None:
        return None
    return tuple(assignment.get(i, v[i]) for i in range(space.m))


def _branch_counterexample(model, S, v, target):
    """Partial assignment reaching a non-target leaf/terminal, or None."""
    use_memo = isinstance(model, Omdd)
    memo = {}

    def rec(node):
        if isinstance(node, (DTLeaf, OmddTerminal)):
            return {} if node.class_value != target else None
        if use_memo and id(node) in memo:
            return memo[id(node)]
        f = node.feature
        found = None
        for values, child in node.edges:
            if f in S:
                if v[f] not in values:
                    continue
                pick = v[f]
            else:
                pick = v[f] if v[f] in values else min(values)
            sub = rec(child)
            if sub is not None:
                found = dict(sub)
                found[f] = pick
                break
        if use_memo:
            memo[id(node)] = found
        return found

    return rec(model.root)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def dt_to_tabular(dt: DecisionTree) -> TabularClassifier:
    """Materialize a decision tree as a complete table (space must be enumerable)."""
    return TabularClassifier.from_function(dt.space, dt.evaluate)


def omdd_to_tabular(omdd: Omdd) -> TabularClassifier:
    return TabularClassifier.from_function(omdd.space, omdd.evaluate)


def to_tabular(model: Classifier) -> TabularClassifier:
    if isinstance(model, TabularClassifier):
        return model
    if isinstance(model, DecisionTree):
        return dt_to_tabular(model)
    return omdd_to_tabular(model)


def tabular_to_omdd(table: TabularClassifier, order=None) -> Omdd:
    """Reduced canonical OMDD of a complete table under the given variable order.

    Recursive cofactor construction with hash-consing: isomorphic subfunctions
    share one node, and a node whose every value leads to the same child is
    elided. The result is therefore reduced by construction.
    """
    space = table.space
    order = tuple(order) if order is not None else tuple(range(space.m))
    if sorted(order) != list(range(space.m)):
        raise InputError(f"order {order} is not a permutation of the features")

    # value vector arranged with order[0] as the most significant axis
    perm_points = itertools.product(*(range(space.domain_sizes[f]) for f in order))
    vec = []
    for q in perm_points:
        p = [0] * space.m
        for f, x in zip(order, q):
            p[f] = x
        vec.append(table.values[space.index(p)])

    unique = {}

    def intern(key, make):
        if key not in unique:
            unique[key] = make()
        return unique[key]

    def build(vec, pos):
        first = vec[0]
        if all(c == first for c in vec):
            return intern(("t", first), lambda: OmddTerminal(first))
        d = space.domain_sizes[order[pos]]
        chunk = len(vec) // d
        children = [build(vec[k * chunk:(k + 1) * chunk], pos + 1) for k in range(d)]
        groups = {}
        for val, child in enumerate(children):
            groups.setdefault(id(child), (child, []))[1].append(val)
        if len(groups) == 1:
            return children[0]
        edges = tuple((frozenset(vals), child) for child, vals in groups.values())
        key = ("n", order[pos], tuple(sorted((tuple(sorted(vs)), id(ch)) for vs, ch in edges)))
        return intern(key, lambda: OmddNode(order[pos], edges))

    return Omdd(space, order, build(tuple(vec), 0))


def reduce_omdd(omdd: Omdd) -> Omdd:
    """Canonical reduced form: merge isomorphic nodes, join parallel edges to
    one child, elide nodes whose whole domain reaches a single child."""
    unique = {}

    def intern(key, make):
        if key not in unique:
            unique[key] = make()
        return unique[key]

    memo = {}

    def rebuild(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, OmddTerminal):
            out = intern(("t", node.class_value), lambda: OmddTerminal(node.class_value))
        else:
            groups = {}
            for values, child in node.edges:
                c = rebuild(child)
                groups.setdefault(id(c), (c, set()))[1].update(values)
            if len(groups) == 1:
                out = next(iter(groups.values()))[0]
            else:
                edges = tuple((frozenset(vals), child) for child, vals in groups.values())
                key = ("n", node.feature,
                       tuple(sorted((tuple(sorted(vs)), id(ch)) for vs, ch in edges)))
                out = intern(key, lambda: OmddNode(node.feature, edges))
        memo[id(node)] = out
        return out

    return Omdd(omdd.space, omdd.order, rebuild(omdd.root))


def is_reduced(omdd: Omdd) -> bool:
    """True iff no two distinct nodes are structurally identical and no node
    funnels its whole domain into one child."""
    keys = set()
    seen = set()
    ok = True
    canon = {}

    def walk(node):
        nonlocal ok
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, OmddTerminal):
            key = ("t", node.class_value)
        else:
            children = []
            for values, child in node.edges:
                walk(child)
                children.append(canon[id(child)])
            if len(set(children)) < len(children) or len(set(children)) == 1:
                ok = False  # parallel edges to one child, or a redundant node
            key = ("n", node.feature,
                   tuple(sorted((tuple(sorted(vs)), canon[id(ch)]) for vs, ch in node.edges)))
        if key in keys:
            ok = False
        keys.add(key)
        canon[id(node)] = key

    walk(omdd.root)
    return ok
