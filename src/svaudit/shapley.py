"""Exact Shapley values for feature attribution under the uniform distribution.

The characteristic function is the conditional average phi(S): the mean class
value over all points that agree with the instance on S. Every quantity is an
exact rational; the efficiency identity

    sum_i Sv(i) + phi(empty) = kappa(v)

must hold with residual exactly 0 and is carried in every report.

Two engines compute the same rationals:

* the default polynomial engine (``backend="auto"``) never walks the 2^m
  coalitions. With ``D = prod d_j``, every ``D * phi(S)`` is an integer, and
  each representation yields, per feature i, the size-graded sums
  ``Q_i[k] = sum_{|S|=k, i not in S} D * (phi(S | {i}) - phi(S))``.
  A table gets all 2^m cube sums from one collapse of each feature axis,
  O(N + m 2^m) for N points (so linear in the table). Trees and OMDDs run
  a bottom-up and a top-down pass of integer polynomials in a variable
  marking "in S", O(|G| m^2) for a graph of |G| nodes (per path for
  trees). ``Sv(i) = sum_k k!(m-1-k)! Q_i[k] / (m! D)``.
* the reference coalition loop (``backend="enumerate"`` or ``"paths"``)
  evaluates phi on all 2^m coalitions with that cube-sum backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .errors import CapacityError, InputError
from .models import (
    DTLeaf,
    ExplanationProblem,
    Omdd,
    OmddTerminal,
    TabularClassifier,
    cube_size,
    sum_kappa_over_cube,
)
from .rat import rat_json, rat_str

# Every engine refuses more features than this (the reference loop is O(2^m)).
COALITION_CAP = 24


def phi(problem: ExplanationProblem, S, backend: str = "auto") -> Fraction:
    """Average class value over the points agreeing with the instance on S."""
    S = problem.space.validate_subset(S)
    total = sum_kappa_over_cube(problem.model, S, problem.point, backend=backend)
    return Fraction(total, cube_size(problem.space, S))


def varsigma(m: int, size: int) -> Fraction:
    """Coalition weight |S|!(m-|S|-1)!/m! as an exact rational."""
    return Fraction(factorial(size) * factorial(m - size - 1), factorial(m))


@dataclass(frozen=True)
class SvReport:
    """Per-feature exact Shapley values plus the efficiency residual."""

    values: tuple[Fraction, ...]
    phi_empty: Fraction
    predicted: int
    residual: Fraction

    def to_json_dict(self) -> dict:
        return {
            "sv": [dict(feature=i + 1, **rat_json(q)) for i, q in enumerate(self.values)],
            "phi_empty": rat_json(self.phi_empty),
            "residual": rat_str(self.residual),
        }


def shapley_values(problem: ExplanationProblem, backend: str = "auto",
                   cap: int = COALITION_CAP) -> SvReport:
    """Exact Shapley value of every feature.

    ``auto`` runs the polynomial engine of the representation: the axis
    collapse for tables, O(N + m 2^m) for N points; the graph passes for
    trees and OMDDs, O(|G| m^2). ``enumerate`` (cubes walked point by point)
    and ``paths`` (model counting on trees/diagrams) run the reference loop
    over all 2^m coalitions with that cube-sum backend. All give identical
    rationals; ``phi(empty)`` always comes from a cube sum, so the residual
    compares two independent computations.
    """
    m = problem.m
    if m > cap:
        raise CapacityError(f"{m} features exceed the coalition cap {cap}")
    if backend not in ("auto", "enumerate", "paths"):
        raise InputError(f"unknown backend {backend!r}")

    if backend == "auto":
        values = _values_from_grades(_graded_marginals(problem), problem.space.size)
        phi_empty = phi(problem, frozenset())
    else:
        values, phi_empty = _coalition_loop(problem, backend)
    residual = sum(values, Fraction(0)) + phi_empty - problem.predicted
    return SvReport(values, phi_empty, problem.predicted, residual)


def _coalition_loop(problem: ExplanationProblem, backend: str):
    """Reference engine: phi on every coalition, weighted marginal sums."""
    m = problem.m
    phis = [None] * (1 << m)
    for mask in range(1 << m):
        S = frozenset(i for i in range(m) if mask >> i & 1)
        phis[mask] = phi(problem, S, backend=backend)

    weight = [varsigma(m, k) for k in range(m)]
    values = []
    for i in range(m):
        bit = 1 << i
        total = Fraction(0)
        for mask in range(1 << m):
            if mask & bit:
                continue
            total += weight[mask.bit_count()] * (phis[mask | bit] - phis[mask])
        values.append(total)
    return tuple(values), phis[0]


def _values_from_grades(grades, space_size: int) -> tuple[Fraction, ...]:
    """Sv(i) = sum_k k!(m-1-k)! Q_i[k] / (m! D), one Fraction per feature."""
    m = len(grades)
    weight = [factorial(k) * factorial(m - 1 - k) for k in range(m)]
    den = factorial(m) * space_size
    return tuple(Fraction(sum(w * q for w, q in zip(weight, qi)), den) for qi in grades)


def _graded_marginals(problem: ExplanationProblem) -> list[list[int]]:
    """Q_i[k] for every feature i and coalition size k, as exact integers."""
    model, v = problem.model, problem.point
    if isinstance(model, TabularClassifier):
        return _table_grades(model, v)
    nodes, root_top = _omdd_graph(model, v) if isinstance(model, Omdd) else _tree_graph(model, v)
    return _graph_grades(nodes, root_top, problem.m)


def _table_grades(table: TabularClassifier, v) -> list[list[int]]:
    # Collapse feature axes in order: axis j of length d_j becomes two
    # entries, the sum over the axis (j free) and the entry at v_j (j in S),
    # moved to the least significant place. Afterwards entry r is the cube
    # sum Z(S), with feature j in S iff bit m-1-j of r is set.
    sizes = table.space.domain_sizes
    m = len(sizes)
    z = list(table.values)
    for j, d in enumerate(sizes):
        s = len(z) // d
        chunks = [z[t * s:(t + 1) * s] for t in range(d)]
        out = [0] * (2 * s)
        out[0::2] = map(sum, zip(*chunks))
        out[1::2] = chunks[v[j]]
        z = out

    # D * phi(S) = Z(S) * P(S), with P(S) the product of d_j over j in S
    scale = [1] * (1 << m)
    for r in range(1, 1 << m):
        low = r & -r
        scale[r] = scale[r ^ low] * sizes[m - low.bit_length()]
    weighted = [total * s for total, s in zip(z, scale)]

    size = [r.bit_count() for r in range(1 << m)]
    grades = []
    for i in range(m):
        bit = 1 << (m - 1 - i)
        q = [0] * m
        for r in range(1 << m):
            if not r & bit:
                q[size[r]] += weighted[r | bit] - weighted[r]
        grades.append(q)
    return grades


# Graphs are flattened to parents-first node lists. A node is
# ``(None, class_value)`` for a leaf, or ``(feature, edges)`` with edges
# ``(free, fixed, skip, child)``: the edge's weight when the feature is free
# (|E|) and when it is fixed to v (d_f if v_f is in E, else 0), the
# polynomial of the layers skipped on the way to ``child`` (d_j (1 + z) per
# skipped feature j), and the child's position in the list.

_ONE = (1,)


def _free_layers(width: int, gap: int):
    """width * (1 + z)^gap: ``gap`` free features whose domain sizes multiply
    to ``width``."""
    return _ONE if gap == 0 else tuple(width * comb(gap, k) for k in range(gap + 1))


def _omdd_graph(omdd: Omdd, v):
    sizes, order, m = omdd.space.domain_sizes, omdd.order, omdd.space.m
    pos = {f: k for k, f in enumerate(order)}
    layer_d = [sizes[f] for f in order]

    def layer(node):
        return m if isinstance(node, OmddTerminal) else pos[node.feature]

    skips = {}

    def skip(p, q):
        # layers strictly between positions p and q
        if (p, q) not in skips:
            skips[p, q] = _free_layers(prod(layer_d[p + 1:q]), q - p - 1)
        return skips[p, q]

    reached = {id(omdd.root): omdd.root}
    stack = [omdd.root]
    while stack:
        node = stack.pop()
        if not isinstance(node, OmddTerminal):
            for _, child in node.edges:
                if id(child) not in reached:
                    reached[id(child)] = child
                    stack.append(child)
    ordered = sorted(reached.values(), key=layer)
    index = {id(node): k for k, node in enumerate(ordered)}

    nodes = []
    for node in ordered:
        if isinstance(node, OmddTerminal):
            nodes.append((None, node.class_value))
            continue
        f, p = node.feature, pos[node.feature]
        nodes.append((f, [(len(E), sizes[f] if v[f] in E else 0,
                           skip(p, layer(child)), index[id(child)])
                          for E, child in node.edges]))
    return nodes, skip(-1, layer(omdd.root))


def _tree_graph(dt, v):
    # Each path is unfolded on its own (a loaded tree may share subtrees),
    # so the features a path never tests are known at its leaf. Nodes are
    # numbered breadth-first, so a child's position is known when queued.
    sizes = dt.space.domain_sizes
    m, total = len(sizes), prod(sizes)
    nodes = []
    queue = [(dt.root, 0, 1)]  # node, depth, product of the tested d_j
    for node, depth, tested in queue:
        if isinstance(node, DTLeaf):
            nodes.append((None, node.class_value))
            continue
        f = node.feature
        below = tested * sizes[f]
        edges = []
        for E, child in node.edges:
            step = _ONE
            if isinstance(child, DTLeaf):
                step = _free_layers(total // below, m - depth - 1)
            edges.append((len(E), sizes[f] if v[f] in E else 0, step, len(queue)))
            queue.append((child, depth + 1, below))
        nodes.append((f, edges))
    return nodes, _ONE


def _graph_grades(nodes, root_top, m: int) -> list[list[int]]:
    """Q_i from Bottom(u) (weighted class sum below u), Top(u) (weight of the
    paths reaching u) and the gain of fixing u's feature to v."""
    count = len(nodes)
    bottom = [None] * count
    gain = [None] * count
    for k in range(count - 1, -1, -1):
        f, edges = nodes[k]
        if f is None:
            bottom[k] = [edges]
            continue
        free, fixed = [], []
        for a, b, step, child in edges:
            below = bottom[child] if step is _ONE else _mul(step, bottom[child])
            _axpy(free, below, a)
            if b:
                _axpy(fixed, below, b)
        gain[k] = _axpy(list(fixed), free, -1)
        bottom[k] = _axpy([0] + fixed, free, 1)

    grades = [[0] * m for _ in range(m)]
    top = [None] * count
    top[0] = root_top
    for k, (f, edges) in enumerate(nodes):
        if f is None:
            continue
        t = top[k]
        _axpy(grades[f], _mul(t, gain[k]), 1)
        for a, b, step, child in edges:
            if nodes[child][0] is None:
                continue
            reach = [a * x for x in t] + [0]
            if b:
                for j, x in enumerate(t):
                    reach[j + 1] += b * x
            if step is not _ONE:
                reach = _mul(reach, step)
            if top[child] is None:
                top[child] = reach
            else:
                _axpy(top[child], reach, 1)
    return grades


def _mul(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _axpy(acc: list, p, c: int) -> list:
    """acc += c * p in place (extending acc); returns acc."""
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for j, x in enumerate(p):
        acc[j] += c * x
    return acc


def validate_efficiency(problem: ExplanationProblem, report: SvReport) -> Fraction:
    """Residual of the efficiency identity for a report; the contract is 0."""
    total = sum(report.values, Fraction(0)) + report.phi_empty
    return total - problem.model.evaluate(problem.point)
