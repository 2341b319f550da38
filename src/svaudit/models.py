"""Discrete classifier representations and exact cube arithmetic.

Three total-function representations over a common discrete feature space:

* ``TabularClassifier`` -- an explicit complete truth table;
* ``DecisionTree`` -- internal nodes test one feature, edges carry disjoint
  value sets covering the domain, each feature tested at most once per path;
* ``Omdd`` -- ordered multi-valued decision diagram: a decision graph whose
  paths test features in one variable order.

Trees and diagrams share one read-once graph core: a graph is its node
list, the distinct nodes children first, each holding its child per value,
and each computation is one pass over it (the counterexample search visits
each node at most once), so every cost follows the node count, not the path
count. Edge labels exist only where graphs enter and leave: ``Node`` and
``Leaf`` objects, or a model file's entries (making none), go through one
checking walk into the list, and ``root`` and the writer group values by child.

One reducer builds every OMDD: a unique table over integer ids (Bryant,
1986), where a node is keyed by its feature and its child's id for each
value, so isomorphic nodes share an id, and a node whose values all lead to
one child is that child; the ``Omdd`` is made from the node list it emits.
Only ``to_omdd`` (also ``tabular_to_omdd``) runs it: it collapses a table's
axes, or folds a graph's node list under any order, splitting where a child
starts earlier than its parent (Bryant's apply), each split once per fold
however many nodes need it. ``reduce_omdd`` folds only when ``is_reduced`` fails.

A table keeps its values for ``lookup`` and the ``enumerate`` cube sum. On
first use it caches ``nodes``, the node list of its reduced OMDD under the
feature order, so every per-node pass (path counting, counterexamples,
graph Shapley) runs on all three representations.
``evaluate`` checks its point; loops over generated points call ``lookup``.

All structures are immutable after construction and safe to share across
concurrent readers. Features are 0-based internally; classes are plain ints
(they embed into exact rationals downstream).
"""

from __future__ import annotations

import functools
import itertools
import operator
from math import prod
from typing import Iterator, Optional, Union

from .errors import CapacityError, InputError

# Hard cap on enumerable feature-space sizes (points). Desk-scale guardrail;
# raise it consciously if you really need more.
ENUMERATION_CAP = 1 << 24

_set = object.__setattr__  # constructors store their fields past the frozen ``__setattr__``


def _integer(x, what) -> int:
    """``x`` as an int (``operator.index``), or an ``InputError`` naming ``what``."""
    try:
        return operator.index(x)
    except TypeError:
        raise InputError(f"{what} {x!r} is not an integer") from None


class _Frozen:
    """Base of the immutable value classes. ``_fields`` names the constructor
    arguments in order, every one required. The constructor stores its
    arguments as they are; a class that converts or checks them, or lets an
    argument be left out, defines its own. Equality (same class, equal
    ``_key()``, by default the field values), hashing, repr and pickling read
    the fields, and any assignment raises ``AttributeError``."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            cls = type(self).__name__
            if len(args) > len(names):
                raise TypeError(f"{cls}() takes {len(names)} arguments, {len(args)} given")
            for name in kwargs:
                if name not in names:
                    raise TypeError(f"{cls}() got an unexpected argument {name!r}")
                if name in names[:len(args)]:
                    raise TypeError(f"{cls}() got multiple values for {name!r}")
            given = dict(zip(names, args), **kwargs)
            missing = [name for name in names if name not in given]
            if missing:
                raise TypeError(f"{cls}() is missing {', '.join(map(repr, missing))}")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    # Rebuild through the constructor, which checks the fields again: the
    # default slot-state path would assign them through ``__setattr__``.
    def __reduce__(self):
        return type(self), self._values()


class FeatureSpace(_Frozen):
    """Cartesian product of finite feature domains; values of feature i are
    0 .. domain_sizes[i]-1. Sizes are integers, a float or a string refused,
    not converted; ``names`` defaults to ``x1 .. xm``, as in a model file."""

    __slots__ = _fields = ("domain_sizes", "names")

    def __init__(self, domain_sizes: tuple[int, ...], names: Optional[tuple[str, ...]] = None):
        domain_sizes = tuple(_integer(d, "domain size") for d in domain_sizes)
        if names is None:
            names = [f"x{i + 1}" for i in range(len(domain_sizes))]
        names = tuple(map(str, names))
        _set(self, "domain_sizes", domain_sizes)
        _set(self, "names", names)
        if len(names) != len(domain_sizes):
            raise InputError("feature names do not match feature count")
        if len(domain_sizes) < 1:
            raise InputError("need at least one feature")
        if any(d < 2 for d in domain_sizes):
            raise InputError("every feature domain needs at least two values")
        if prod(domain_sizes) > ENUMERATION_CAP:
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
        return self.names

    def validate_point(self, point) -> tuple[int, ...]:
        point = tuple(point)
        if len(point) != self.m:
            raise InputError(f"point has {len(point)} coordinates, expected {self.m}")
        for i, (x, d) in enumerate(zip(point, self.domain_sizes)):
            if type(x) is not int or not 0 <= x < d:
                raise InputError(f"value {x!r} of feature {i + 1} outside 0..{d - 1}")
        return point

    def validate_subset(self, features) -> frozenset[int]:
        S = frozenset(features)
        if not all(type(i) is int and 0 <= i < self.m for i in S):
            # integers first: mixed types do not compare, so the rest go by repr
            shown = sorted(S, key=lambda i: (type(i) is not int, i if type(i) is int else repr(i)))
            raise InputError(f"feature subset {shown} not within 0..{self.m - 1}")
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
    return _cube_size(space.domain_sizes, space.validate_subset(S))


def _cube_size(sizes, S) -> int:
    return prod(d for i, d in enumerate(sizes) if i not in S)


class TabularClassifier(_Frozen):
    """Complete truth table: one class value per point, mixed-radix order."""

    # no ``__slots__``: the cached ``nodes`` lives in the instance ``__dict__``
    _fields = ("space", "values")

    def __init__(self, space: FeatureSpace, values: tuple[int, ...]):
        values = tuple([_integer(c, "class") for c in values])
        _set(self, "space", space)
        _set(self, "values", values)
        if len(values) != space.size:
            raise InputError(
                f"table has {len(values)} rows, space has {space.size} points")
        if len(set(values)) < 2:
            raise InputError("classifier is constant; at least two classes must occur")

    @classmethod
    def from_function(cls, space: FeatureSpace, fn) -> "TabularClassifier":
        return cls(space, tuple(fn(p) for p in space.points()))

    def evaluate(self, point) -> int:
        return self.lookup(self.space.validate_point(point))

    def lookup(self, point) -> int:
        """Class of a point already known to lie in the space (unchecked)."""
        return self.values[self.space.index(point)]

    def class_values(self) -> frozenset[int]:
        return frozenset(self.values)

    @functools.cached_property
    def nodes(self) -> tuple:
        """Node list of the reduced OMDD under the feature order, built on
        first use: the per-node passes read it as they read a graph's."""
        return to_omdd(self).nodes


class Leaf(_Frozen):
    __slots__ = _fields = ("class_value",)


class Node(_Frozen):
    """Tests one feature; each edge carries the set of values that follow it."""

    __slots__ = _fields = ("feature", "edges")

    # Compare and hash by identity and name the edge count, not the children:
    # by-value methods would walk every path below a shared node.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Node(feature={self.feature}, edges={len(self.edges)})"


class _DecisionGraph(_Frozen):
    """Read-once decision graph: the core of ``DecisionTree`` and ``Omdd``.

    A graph is its node list ``nodes``, the distinct nodes children first
    (the root last): ``(feature, kids)``, ``kids[x]`` the position of the
    child value x leads to, or ``(None, class_value)`` for a leaf. Lookups
    and every per-node pass index that list, so a shared node is visited
    once. The constructor and the loader make it in ``_flatten``'s checking
    walk; the reducer's lists are stored as they come (``_of``). ``root`` is
    a view made on first read; no query walks it."""

    __slots__ = ("nodes",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store(_flatten(self.root, self._parts, self.space.domain_sizes, self._ranks()))

    def _ranks(self):
        return None  # no order; an Omdd's is the position of each feature in it

    def _parts(self, node):
        """``_flatten``'s parts of a ``Node`` or ``Leaf``, with the types the
        loader checks in a file: an int feature in range, an int class, and int
        values in every frozenset label (1.0 and True pass the domain test)."""
        if isinstance(node, Node):
            f = node.feature
            if type(f) is not int or not 0 <= f < self.space.m:
                raise InputError(f"node tests unknown feature {f!r}")
            bad = [x for values, _ in node.edges if type(values) is frozenset
                   for x in values if type(x) is not int]
            if bad:
                raise InputError(f"edge label value {bad[0]!r} is not an integer")
            return f, node.edges
        if isinstance(node, Leaf):
            return None, _integer(node.class_value, "class")
        raise InputError(f"unexpected node object {node!r}")

    @classmethod
    def _of(cls, *args):
        """The graph of ``args``: its fields, with a checked node list in place of ``root``."""
        self = object.__new__(cls)
        vars(self).update(zip(cls._fields, args[:-1]))
        self._store(args[-1])
        return self

    def _store(self, nodes):
        _set(self, "nodes", tuple(nodes))
        if len(self.class_values()) < 2:
            raise InputError("classifier is constant; at least two classes must occur")

    @functools.cached_property
    def root(self):
        made = []
        for f, kids in self.nodes:
            made.append(Leaf(kids) if f is None else
                        Node(f, tuple([(frozenset(xs), made[c]) for c, xs in _by_child(kids)])))
        return made[-1]

    def evaluate(self, point) -> int:
        return self.lookup(self.space.validate_point(point))

    def lookup(self, point) -> int:
        """Class of a point already known to lie in the space (unchecked)."""
        nodes = self.nodes
        f, kids = nodes[-1]
        while f is not None:
            f, kids = nodes[kids[point[f]]]
        return kids

    def class_values(self) -> frozenset[int]:
        return frozenset(c for f, c in self.nodes if f is None)

    def nonterminal_count(self) -> int:
        return sum(1 for f, _ in self.nodes if f is not None)

    # Compare, hash, name and pickle the node list in place of ``root``: a
    # walk of ``root`` would follow every root-to-leaf path.
    def _key(self):
        return (*[getattr(self, name) for name in self._fields[:-1]], self.nodes)

    def __reduce__(self):
        return type(self)._of, self._key()

    def __repr__(self):
        fields = "".join(f"{name}={getattr(self, name)!r}, " for name in self._fields[:-1])
        return f"{type(self).__name__}({fields}nodes={len(self.nodes)})"


class DecisionTree(_DecisionGraph):
    """Set-labelled decision tree; deterministic, total, read-once per path.

    Subtrees may be shared as long as every path stays read-once.
    """

    _fields = ("space", "root")  # ``root`` lives in the instance ``__dict__``

    # each representation holds its own evaluate, so it can be wrapped alone
    evaluate = _DecisionGraph.evaluate


class Omdd(_DecisionGraph):
    """Ordered multi-valued decision diagram.

    Edges may skip layers but only move to strictly later positions of the
    variable order (or to a terminal). Construction validates ordering,
    determinism and totality; canonical reducedness is the builder's job
    (see ``to_omdd``/``reduce_omdd``, checked by ``is_reduced``).
    No computation reads the order: it constrains and serializes the diagram.
    """

    _fields = ("space", "order", "root")

    def _ranks(self):
        _set(self, "order", tuple(self.order))
        return _rank(self.order, self.space.m)

    evaluate = _DecisionGraph.evaluate


def _rank(order, m) -> list[int]:
    """Position of each feature in ``order``, a permutation of the m features
    as ints (``type(f) is int``, the rule of ``validate_subset``)."""
    if not all(type(f) is int for f in order) or sorted(order) != list(range(m)):
        raise InputError(f"order {order} is not a permutation of the features")
    rank = [0] * m
    for k, f in enumerate(order):
        rank[f] = k
    return rank


def _by_child(kids):
    """The labels of ``kids``: ``(child, values)``, values ascending, by smallest value."""
    groups = {}
    for x, c in enumerate(kids):
        groups[c] = groups.get(c, ()) + (x,)
    return groups.items()


def _flatten(root, parts, sizes, rank=None, key=id) -> list:
    """The checked node list of the graph below ``root``: its distinct nodes
    in postorder, children visited in value order, however the edges are
    listed or split. ``parts(node)`` is a node's ``(feature, ((values,
    child), ...))`` or a leaf's ``(None, class)``; ``key(node)`` tells
    ``Node`` objects apart by identity, file entries by id. Labels must be
    frozensets splitting the domain, no path may test a feature twice
    (``used``: those on the path down, so a cycle ends within m levels), and
    under ``rank`` (each feature's order position) every edge must advance."""
    domains = [frozenset(range(d)) for d in sizes]
    post = {}  # key -> position in the list
    nodes = []
    tested = []  # features tested at or beneath each listed node, as a bitmask

    def visit(node, used):
        k = post.get(key(node))
        f, edges = parts(node) if k is None else nodes[k]
        if f is not None and used >> f & 1:
            raise InputError(f"feature {f + 1} tested twice on one path")
        if k is not None:
            return k
        mask = 0
        if f is not None:
            children = [None] * sizes[f]  # the child each value leads to
            covered = set()
            for values, child in edges:
                if type(values) is not frozenset:
                    raise InputError(f"edge label {values!r} is not a frozenset")
                if not values:
                    raise InputError("empty edge label")
                if not values <= domains[f]:
                    raise InputError(f"edge label {sorted(values)} outside domain of feature {f + 1}")
                if not covered.isdisjoint(values):
                    raise InputError(f"overlapping edge labels at feature {f + 1}")
                covered.update(values)
                for x in values:
                    children[x] = child
            if len(covered) != sizes[f]:
                raise InputError(f"edges of feature {f + 1} do not cover its domain")
            edges = tuple([visit(child, used | 1 << f) for child in children])
            for c in edges:
                g = nodes[c][0]
                if rank is not None and g is not None and rank[g] <= rank[f]:
                    raise InputError("edge does not advance in the variable order")
                mask |= tested[c]
            if mask >> f & 1:  # a shared node below escapes the path check
                raise InputError(f"feature {f + 1} tested twice on one path")
        k = post[key(node)] = len(nodes)
        nodes.append((f, edges))
        tested.append(mask if f is None else mask | 1 << f)
        return k

    visit(root, 0)
    return nodes


Classifier = Union[TabularClassifier, DecisionTree, Omdd]


class ExplanationProblem(_Frozen):
    """A classifier plus the instance (v, c) under analysis; c = model(v), an
    integer (a bool is taken as its int; a float or a string is refused)."""

    __slots__ = _fields = ("model", "point", "predicted")

    def __init__(self, model: Classifier, point: tuple[int, ...], predicted: int):
        point = model.space.validate_point(point)
        predicted = _integer(predicted, "instance class")
        _set(self, "model", model)
        _set(self, "point", point)
        _set(self, "predicted", predicted)
        if model.lookup(point) != predicted:
            raise InputError(
                f"instance class {predicted} disagrees with the classifier")

    @classmethod
    def of(cls, model: Classifier, point) -> "ExplanationProblem":
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

    ``enumerate`` walks the cube point by point; ``paths`` counts models per
    node over the stored node list (a table's reduced diagram for a table).
    Both work for every representation and produce the same exact integer.
    """
    space = model.space
    S = space.validate_subset(S)
    v = space.validate_point(v)
    if backend == "auto":
        backend = "enumerate" if isinstance(model, TabularClassifier) else "paths"
    if backend == "enumerate":
        if _cube_size(space.domain_sizes, S) > ENUMERATION_CAP:
            raise CapacityError("cube too large for the enumeration backend")
        return sum(map(model.lookup, space.cube_points(S, v)))
    if backend == "paths":
        return _graph_cube_sum(model, S, v)
    raise InputError(f"unknown backend {backend!r}")


def _graph_cube_sum(model, S, v) -> int:
    # A(u) is the cube sum of the function below u. A leaf contributes its
    # class once per cube point. At a node testing a free feature f, the
    # points with x_f = x make up 1 / d_f of the cube, and A(child) does not
    # depend on x_f (no path tests f twice), so the floor division is exact.
    sizes = model.space.domain_sizes
    free = _cube_size(sizes, S)
    nodes = model.nodes
    total = [0] * len(nodes)
    for k, (f, kids) in enumerate(nodes):
        if f is None:
            total[k] = kids * free
        elif f in S:
            total[k] = total[kids[v[f]]]
        else:
            total[k] = sum(map(total.__getitem__, kids)) // sizes[f]
    return total[-1]


def find_counterexample(model: Classifier, S, v, target: int):
    """First point agreeing with v on S whose class differs from target.

    Returns None when every such point maps to target (i.e. S is
    prediction-sufficient). The search walks the stored node list (a
    table's reduced diagram for a table) depth first from the root. At each
    node it tries the children in order of their smallest value, on a
    feature of S only the one v's value leads to, and sets the feature to
    v's value if it leads to the child, else to the child's smallest value.
    It returns the first such point in that order, which need not be the one
    closest to v: it may change more features than another point that also
    changes the class.
    The search stops at its first point, so it reaches a node again only
    after the node failed; it remembers the nodes whose cube holds no
    counterexample, so it searches each node at most once.
    S and v are not checked here: callers pass a checked subset and point.
    """
    nodes = model.nodes
    failed = set()
    point = list(v)

    def search(k):
        f, kids = nodes[k]
        if f is None:
            return kids != target
        own = kids[v[f]]
        if f in S:
            if own not in failed and search(own):
                return True
        else:
            for x, child in enumerate(kids):
                if child not in failed and search(child):
                    if child != own:
                        point[f] = x
                    return True
        failed.add(k)
        return False

    return tuple(point) if search(len(nodes) - 1) else None


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def to_tabular(model: Classifier) -> TabularClassifier:
    """Materialize a classifier as a complete table (space must be enumerable)."""
    if isinstance(model, TabularClassifier):
        return model
    return TabularClassifier.from_function(model.space, model.lookup)


def _reducer(order, sizes):
    """The reduction rule (Bryant, 1986) as one unique table over integer ids.

    ``leaf(c)`` and ``node(f, kids)``, where ``kids[x]`` is the id of the
    reduced child that value x of f leads to, return the id of the one
    diagram with that key, ``c`` or ``(f, *kids)``; ``node`` returns the
    child when every value leads to it. So isomorphic nodes share an id and
    the edges to one child are joined. ``merge`` is ``node`` over children
    that may start earlier in ``order`` than f, its splits kept per feature
    while the reducer lives. ``emit(root)`` lists the ids ``root`` reaches
    in postorder as ``(f, kids)`` over list positions."""
    rank = _rank(order, len(sizes))
    unique = {}
    rows = []  # id -> its key
    tops = []  # id -> order position of the feature it tests; len(order) for a leaf
    splits = [{} for _ in sizes]  # f -> {children's ids: id of their merge}

    def leaf(c):
        out = unique.get(c)
        if out is None:
            out = unique[c] = len(rows)
            rows.append(c)
            tops.append(len(order))
        return out

    def node(f, kids):
        first = kids[0]
        if kids.count(first) == len(kids):
            return first
        key = (f, *kids)
        out = unique.get(key)
        if out is None:
            out = unique[key] = len(rows)
            rows.append(key)
            tops.append(rank[f])
        return out

    def merge(f, kids):
        """Reduced diagram of "follow ``kids[x_f]``" over reduced children
        that do not test f. If every child starts later in the order than f,
        this is ``node``. Otherwise split on the earliest feature g that
        starts a child (Bryant's apply; Srinivasan et al., 1990, for
        many-valued features): a child's cofactor on g = x is its x-th child
        if it starts with g and the child itself if not (it cannot test g
        below its top), and each list of cofactors is merged again. The
        result depends only on f and the children's ids: ``splits[f]`` keeps
        it for every stored node of the fold."""
        top = min(map(tops.__getitem__, kids))
        if top > rank[f]:
            return node(f, kids)
        kids = tuple(kids)
        memo = splits[f]
        out = memo.get(kids)
        if out is None:
            d = sizes[order[top]]
            cofactors = [rows[c][1:] if tops[c] == top else (c,) * d for c in kids]
            out = memo[kids] = node(order[top], [merge(f, by_value)
                                                 for by_value in zip(*cofactors)])
        return out

    def emit(root):
        pos = {}  # id -> position in the list
        nodes = []

        def visit(i):
            if i not in pos:
                key = rows[i]
                if tops[i] == len(order):
                    entry = (None, key)
                else:
                    entry = (key[0], tuple([visit(c) for c in key[1:]]))
                pos[i] = len(nodes)
                nodes.append(entry)
            return pos[i]

        visit(root)
        return nodes

    return leaf, node, merge, emit


def to_omdd(model: Classifier, order=None) -> Omdd:
    """Reduced canonical OMDD of a classifier under a variable order (the
    features in their own order by default), on one ``_reducer``'s ids.

    A table collapses its axes one at a time, the last feature of the order
    first: each group of entries along the axis becomes one reducer ``node``
    (faster than folding its feature-order diagram; see the README). A tree
    or a diagram is folded children first: each stored node is ``merge``d
    over its reduced children, so the cost follows the graph and the result,
    not the point count. No ``Node`` or ``Leaf`` is made."""
    space = model.space
    order = tuple(order) if order is not None else tuple(range(space.m))
    leaf, node, merge, emit = _reducer(order, space.domain_sizes)
    if isinstance(model, TabularClassifier):
        cells = list(map(leaf, model.values))
        axes = list(space.domain_sizes)  # a collapsed axis keeps size 1
        for f in reversed(order):
            d, stride = axes[f], prod(axes[f + 1:])
            axes[f] = 1
            block = d * stride
            cells = [node(f, cells[i:i + block:stride])
                     for start in range(0, len(cells), block)
                     for i in range(start, start + stride)]
    else:
        cells = []  # stored position -> reduced id
        for f, kids in model.nodes:
            cells.append(leaf(kids) if f is None else merge(f, [cells[c] for c in kids]))
    return Omdd._of(space, order, emit(cells[-1]))


# One function object: the traced benchmark finds it under the old name.
tabular_to_omdd = to_omdd


def reduce_omdd(omdd: Omdd) -> Omdd:
    """Canonical reduced form: the diagram itself when it is reduced, else
    its fold under its own order, where every child starts later than its
    parent, so no node is split."""
    return omdd if is_reduced(omdd) else to_omdd(omdd, omdd.order)


def is_reduced(omdd: Omdd) -> bool:
    """The reduction rule (Bryant, 1986) over the stored node list: leaf
    classes are distinct, every internal node has at least two children,
    and no two internal nodes test one feature with one child per value.
    Children come first in the list, so by induction no two distinct nodes
    are then isomorphic."""
    nodes = omdd.nodes
    return len(set(nodes)) == len(nodes) and all(
        f is None or kids.count(kids[0]) < len(kids) for f, kids in nodes)
