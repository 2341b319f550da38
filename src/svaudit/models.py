"""Discrete classifier representations and exact cube arithmetic.

Three total-function representations over a common discrete feature space:

* ``TabularClassifier`` -- an explicit complete truth table;
* ``DecisionTree`` -- internal nodes test one feature, edges carry disjoint
  value sets covering the domain, each feature tested at most once per path;
* ``Omdd`` -- ordered multi-valued decision diagram: a decision graph whose
  paths test features in one variable order.

Trees and diagrams share one read-once graph core: one ``Node`` and one
``Leaf`` type, one construction walk that stores the distinct nodes children
first, and one pass per computation over that list. A tree may share
subtrees, so every cost is polynomial in the node count, not the path count.

One reducer (merge isomorphic nodes, join the edges that reach one child,
elide a node left with one child) builds every OMDD. ``to_omdd`` (also
``tabular_to_omdd``) collapses a table's axes through it, and folds a tree's
or a diagram's node list through it, children first, under any variable
order: where a child starts earlier in the order than its parent, the fold
splits on that feature (Bryant's apply), so no table is built. ``reduce_omdd``
is that fold under the diagram's own order, and ``is_reduced`` asks whether
it changes the diagram.

All structures are immutable after construction and safe to share across
concurrent readers. Features are 0-based internally; classes are plain ints
(they embed into exact rationals downstream).
"""

from __future__ import annotations

import itertools
import operator
import weakref
from dataclasses import dataclass, field
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


def _class_value(c) -> int:
    try:
        return operator.index(c)
    except TypeError:
        raise InputError(f"class {c!r} is not an integer") from None


@dataclass(frozen=True)
class TabularClassifier:
    """Complete truth table: one class value per point, mixed-radix order."""

    space: FeatureSpace
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(_class_value, self.values)))
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
class Leaf:
    class_value: int


@dataclass(frozen=True, eq=False, repr=False)
class Node:
    """Tests one feature; each edge carries the set of values that follow it."""

    feature: int
    edges: tuple[tuple[frozenset[int], Union["Node", Leaf]], ...]

    # Compare and hash by identity (``eq=False``) and name the edge count,
    # not the children: the generated methods would walk every path below a
    # shared node.
    def __repr__(self):
        return f"Node(feature={self.feature}, edges={len(self.edges)})"


# The names trees and diagrams used before they shared one node type.
DTLeaf = OmddTerminal = Leaf
DTNode = OmddNode = Node


@dataclass(frozen=True)
class _DecisionGraph:
    """Read-once decision graph: the core of ``DecisionTree`` and ``Omdd``.

    Construction checks every node once and stores ``nodes``, the distinct
    nodes children first (the root last): ``(feature, ((values, child
    position), ...))`` for an internal node, ``(None, class_value)`` for a
    leaf. Every per-node pass (cube sums, counterexamples, Shapley,
    serialization) reads that list, so a node shared by several paths is
    visited once.
    """

    nodes: tuple = field(init=False, repr=False, compare=False)
    classes: frozenset = field(init=False, repr=False, compare=False)

    def _index(self, rank=None):
        """Validate the graph below ``root`` and store ``nodes`` and ``classes``.

        ``rank`` maps features to positions in a variable order; every edge
        between internal nodes must then move to a strictly later position.
        """
        m = self.space.m
        domains = [frozenset(range(d)) for d in self.space.domain_sizes]
        post = {}  # id -> position in ``nodes``
        nodes = []
        tested = []  # bitmask of the features tested at or beneath each node
        classes = set()

        def visit(node, used, above):
            # ``used`` holds the features tested on the path down to here and
            # ``above`` the last one's position in the order, so the recursion
            # ends within m levels however deep a malformed chain is
            if isinstance(node, Node):
                f = node.feature
                if not 0 <= f < m:
                    raise InputError(f"node tests unknown feature {f}")
                if rank is not None and rank[f] <= above:
                    raise InputError("edge does not advance in the variable order")
                if used >> f & 1:
                    raise InputError(f"feature {f + 1} tested twice on one path")
            if id(node) in post:
                return post[id(node)]
            if isinstance(node, Leaf):
                c = _class_value(node.class_value)
                classes.add(c)
                nodes.append((None, c))
                tested.append(0)
            elif not isinstance(node, Node):
                raise InputError(f"unexpected node object {node!r}")
            else:
                here = -1 if rank is None else rank[f]
                covered = set()
                mask = 0
                edges = []
                for values, child in node.edges:
                    if not values:
                        raise InputError("empty edge label")
                    if not values <= domains[f]:
                        raise InputError(f"edge label {sorted(values)} outside domain of feature {f + 1}")
                    if values & covered:
                        raise InputError(f"overlapping edge labels at feature {f + 1}")
                    covered |= values
                    c = visit(child, used | 1 << f, here)
                    mask |= tested[c]
                    edges.append((values, c))
                if covered != domains[f]:
                    raise InputError(f"edges of feature {f + 1} do not cover its domain")
                # a node first reached by another path escapes the check on
                # ``used``; every node beneath this one lies on a path through it
                if mask >> f & 1:
                    raise InputError(f"feature {f + 1} tested twice on one path")
                nodes.append((f, tuple(edges)))
                tested.append(mask | 1 << f)
            k = post[id(node)] = len(nodes) - 1
            return k

        visit(self.root, 0, -1)
        if len(classes) < 2:
            raise InputError("classifier is constant; at least two classes must occur")
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "classes", frozenset(classes))

    def evaluate(self, point) -> int:
        point = self.space.validate_point(point)
        node = self.root
        while isinstance(node, Node):
            x = point[node.feature]
            node = next(child for values, child in node.edges if x in values)
        return node.class_value

    def class_values(self) -> frozenset[int]:
        return self.classes

    def nonterminal_count(self) -> int:
        return sum(1 for f, _ in self.nodes if f is not None)

    # Compare and hash the stored node list, not ``root``: the generated
    # methods would walk ``root`` once per root-to-leaf path.
    def _key(self):
        return self.space, self.nodes

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # Name the node count, not ``root``: the generated repr would spell out
    # every root-to-leaf path.
    def __repr__(self):
        return f"{type(self).__name__}(space={self.space!r}, nodes={len(self.nodes)})"


@dataclass(frozen=True, eq=False, repr=False)
class DecisionTree(_DecisionGraph):
    """Set-labelled decision tree; deterministic, total, read-once per path.

    Subtrees may be shared as long as every path stays read-once.
    """

    space: FeatureSpace
    root: Union[Node, Leaf]

    def __post_init__(self):
        self._index()

    # each representation holds its own evaluate, so it can be wrapped alone
    evaluate = _DecisionGraph.evaluate


@dataclass(frozen=True, eq=False, repr=False)
class Omdd(_DecisionGraph):
    """Ordered multi-valued decision diagram.

    Edges may skip layers but only move to strictly later positions of the
    variable order (or to a terminal). Construction validates ordering,
    determinism and totality; canonical reducedness is the builder's job
    (see ``to_omdd``/``reduce_omdd``, checked by ``is_reduced``).
    No computation reads the order: it constrains and serializes the diagram.
    """

    space: FeatureSpace
    order: tuple[int, ...]
    root: Union[Node, Leaf]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.space.m)):
            raise InputError(f"order {self.order} is not a permutation of the features")
        rank = [0] * self.space.m
        for k, f in enumerate(self.order):
            rank[f] = k
        self._index(rank)

    evaluate = _DecisionGraph.evaluate

    def _key(self):
        return self.space, self.order, self.nodes

    def __repr__(self):
        return f"Omdd(space={self.space!r}, order={self.order}, nodes={len(self.nodes)})"


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
    representation; ``paths`` counts models per node and needs a
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
        if not isinstance(model, _DecisionGraph):
            raise InputError("path counting needs a decision tree or an OMDD")
        return _graph_cube_sum(model, S, v)
    raise InputError(f"unknown backend {backend!r}")


def _graph_cube_sum(model, S, v) -> int:
    # A(u) is the cube sum of the function below u. A leaf contributes its
    # class once per cube point. At a node testing a free feature f, the
    # points following an edge E make up |E| / d_f of the cube, and
    # A(child) does not depend on x_f (no path tests f twice), so the
    # floor division is exact.
    sizes = model.space.domain_sizes
    free = prod(d for j, d in enumerate(sizes) if j not in S)
    nodes = model.nodes
    total = [0] * len(nodes)
    for k, (f, edges) in enumerate(nodes):
        if f is None:
            total[k] = edges * free
        elif f in S:
            total[k] = next(total[c] for values, c in edges if v[f] in values)
        else:
            total[k] = sum(len(values) * total[c] for values, c in edges) // sizes[f]
    return total[-1]


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
    choice = _graph_counterexample(model.nodes, S, v, target)
    if choice is None:
        return None
    point = list(v)
    while choice:
        f, x, choice = choice
        point[f] = x
    return tuple(point)


def _graph_counterexample(nodes, S, v, target):
    """Chain ``(feature, value, rest)`` of edge choices reaching a leaf whose
    class differs from target (``()`` at the leaf), or None. Each node's
    answer depends on the node alone, so it is computed once."""
    memo = {}

    def rec(k):
        if k in memo:
            return memo[k]
        f, edges = nodes[k]
        found = None
        if f is None:
            if edges != target:
                found = ()
        else:
            x = v[f]
            for values, child in edges:
                if x in values:
                    pick = x
                elif f in S:
                    continue
                else:
                    pick = min(values)
                sub = rec(child)
                if sub is not None:
                    found = (f, pick, sub)
                    break
        memo[k] = found
        return found

    return rec(len(nodes) - 1)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def to_tabular(model: Classifier) -> TabularClassifier:
    """Materialize a classifier as a complete table (space must be enumerable)."""
    if isinstance(model, TabularClassifier):
        return model
    return TabularClassifier.from_function(model.space, model.evaluate)


dt_to_tabular = omdd_to_tabular = to_tabular


def _reducer(unique):
    """The reduction rule (Bryant, 1986): ``leaf(c)`` and ``node(f, [(values,
    child), ...])`` over already-reduced children. ``node`` joins the edges
    that reach one child (in the order children first occur), returns the
    child when no other is left, and else the one node with these edges.

    ``unique`` is the hash-cons table, empty at the start: a ``dict``, or a
    ``weakref.WeakValueDictionary`` for a build whose intermediate nodes die
    before it ends. A live entry holds its children, so the ids in its key
    stay those of live nodes."""

    def leaf(c):
        out = unique.get(c)
        if out is None:
            out = unique[c] = Leaf(c)
        return out

    def node(f, edges):
        groups = {}
        for values, child in edges:
            groups.setdefault(id(child), (child, set()))[1].update(values)
        if len(groups) == 1:
            return child
        edges = tuple((frozenset(vals), ch) for ch, vals in groups.values())
        key = (f, frozenset((vals, id(ch)) for vals, ch in edges))
        out = unique.get(key)
        if out is None:
            out = unique[key] = Node(f, edges)
        return out

    return leaf, node


def to_omdd(model: Classifier, order=None) -> Omdd:
    """Reduced canonical OMDD of a classifier under a variable order (the
    features in their own order by default).

    A table collapses its axes one at a time, the last feature of the order
    first: each group of entries along the axis becomes one reducer ``node``.
    A tree or a diagram is folded children first over its stored node list
    (see ``_fold``), so no table is built and the cost follows the graph and
    the result, not the point count.
    """
    space = model.space
    order = tuple(order) if order is not None else tuple(range(space.m))
    if sorted(order) != list(range(space.m)):
        raise InputError(f"order {order} is not a permutation of the features")
    if not isinstance(model, TabularClassifier):
        root = _fold(model.nodes, order, space.domain_sizes, weakref.WeakValueDictionary())
        return Omdd(space, order, root)
    leaf, node = _reducer({})  # every node built here lives to the end
    cells = [leaf(c) for c in model.values]
    sizes = list(space.domain_sizes)  # a collapsed axis keeps size 1
    for f in reversed(order):
        d, stride = sizes[f], prod(sizes[f + 1:])
        sizes[f] = 1
        block = d * stride
        cells = [node(f, [((x,), c) for x, c in enumerate(cells[i:i + block:stride])])
                 for start in range(0, len(cells), block)
                 for i in range(start, start + stride)]
    return Omdd(space, order, cells[0])


# One function object: the traced benchmark finds it under the old name.
tabular_to_omdd = to_omdd


def _fold(nodes, order, sizes, unique):
    """Root of the reduced OMDD under ``order`` of the read-once graph stored
    children first in ``nodes``: each stored node goes through ``_merge``
    once its children are reduced, with ``unique`` as the reducer's table.

    A child's result is dropped after its last parent used it. A split
    leaves behind the nodes above the cofactors it took, so a fold that may
    split needs a weak table, which forgets them as they die; an unsplit
    fold builds no node that dies."""
    rank = [0] * len(order)
    for k, f in enumerate(order):
        rank[f] = k
    leaf, node = _reducer(unique)
    last = [0] * len(nodes)  # position of each stored node's last parent
    for k, (f, edges) in enumerate(nodes):
        if f is not None:
            for _, c in edges:
                last[c] = k
    out = [None] * len(nodes)
    for k, (f, edges) in enumerate(nodes):
        if f is None:
            out[k] = leaf(edges)
            continue
        out[k] = _merge(f, [(values, out[c]) for values, c in edges], {}, rank, sizes, node)
        for _, c in edges:
            if last[c] == k:
                out[c] = None
    return out[-1]


def _merge(f, edges, memo, rank, sizes, node):
    """Reduced OMDD of "follow the edge whose values hold x_f" over reduced
    children that do not test f.

    If every child starts later in the order than f, this is one reducer
    ``node``. Otherwise split on the earliest feature g that starts a child
    (Bryant's apply; Srinivasan et al., 1990, for many-valued features):
    cofactor each child on every value of g, which is its g-edge's target
    if it starts with g and the child itself if not (it cannot test g
    below its top), and merge each cofactor list again. ``memo`` holds the
    splits of one stored node, keyed on its children's identities."""
    g, top = None, rank[f]
    for _, child in edges:
        if type(child) is Node and rank[child.feature] < top:
            g, top = child.feature, rank[child.feature]
    if g is None:
        return node(f, edges)
    key = tuple(child for _, child in edges)
    out = memo.get(key)
    if out is None:
        d = sizes[g]
        cofactors = []
        for values, child in edges:
            by_value = [child] * d
            if type(child) is Node and child.feature == g:
                for vals, grandchild in child.edges:
                    for x in vals:
                        by_value[x] = grandchild
            cofactors.append((values, by_value))
        out = memo[key] = node(g, [
            ((x,), _merge(f, [(values, by_value[x]) for values, by_value in cofactors],
                          memo, rank, sizes, node))
            for x in range(d)])
    return out


def reduce_omdd(omdd: Omdd) -> Omdd:
    """Canonical reduced form: ``_fold`` under the diagram's own order, where
    every child starts later than its parent, so no node is split."""
    root = _fold(omdd.nodes, omdd.order, omdd.space.domain_sizes, {})
    return Omdd(omdd.space, omdd.order, root)


def is_reduced(omdd: Omdd) -> bool:
    """True iff reducing the diagram leaves it as it is (same node list)."""
    return reduce_omdd(omdd) == omdd
