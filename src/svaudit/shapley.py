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
  O(N + m 2^m) for N points (so linear in the table). Trees and OMDDs
  share one bottom-up and one top-down pass of integer polynomials over
  their stored node list, O(|G| m^2) for a graph of |G| distinct nodes;
  the pass needs no variable order, only that every path is read-once.
  ``Sv(i) = sum_k k!(m-1-k)! Q_i[k] / (m! D)``.
* the reference coalition loop (``backend="enumerate"`` or ``"paths"``)
  evaluates phi on all 2^m coalitions with that cube-sum backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import InputError
from .models import ExplanationProblem, TabularClassifier, cube_size, sum_kappa_over_cube
from .rat import rat_json, rat_str


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


def shapley_values(problem: ExplanationProblem, backend: str = "auto") -> SvReport:
    """Exact Shapley value of every feature.

    ``auto`` runs the polynomial engine of the representation: the axis
    collapse for tables, O(N + m 2^m) for N points; the graph passes for
    trees and OMDDs, O(|G| m^2). ``enumerate`` (cubes walked point by point)
    and ``paths`` (model counting on trees/diagrams) run the reference loop
    over all 2^m coalitions with that cube-sum backend. All give identical
    rationals; ``phi(empty)`` always comes from a cube sum, so the residual
    compares two independent computations.
    """
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
    return _graph_grades(model, v)


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


def _graph_grades(model, v) -> list[list[int]]:
    """Q_i from Bottom(u) (weighted class sum below u), Top(u) (weight of the
    paths reaching u) and the gain of fixing u's feature to v.

    Polynomials are in w = 1/(1+z), z marking "in S". Dividing by
    d_j (1+z) for every feature j, a path's features each contribute
    (b + (a-b) w) / d_f on the edge that tests them, with a = |E| and
    b = d_f [v_f in E], and features it does not test contribute 1. Top and
    Bottom are scaled by D = prod d_j, so they stay integer polynomials, and
    Q_i(z) = (1+z)^(m-1) sum_{u tests i} Top(u) Gain(u) / D.
    """
    nodes = model.nodes
    sizes = model.space.domain_sizes
    m, D = len(sizes), model.space.size
    count = len(nodes)

    # Every division by d_f below is exact: f is tested neither above nor
    # beneath a node testing f on any path, so each term of Top(u) and of
    # Bottom(child) still carries the factor d_f of D.
    bottom = [None] * count
    gain = [None] * count
    for k, (f, edges) in enumerate(nodes):  # children first
        if f is None:
            bottom[k] = [D * edges]
            continue
        d, x = sizes[f], v[f]
        free = []
        for E, child in edges:
            _axpy(free, bottom[child], len(E))
            if x in E:
                fixed = bottom[child]
        free = [c // d for c in free]
        gain[k] = _axpy(list(fixed), free, -1)
        bottom[k] = _axpy(list(fixed), [0] + gain[k], -1)

    grades = [[] for _ in range(m)]
    top = [None] * count
    top[-1] = [D]
    for k in range(count - 1, -1, -1):  # parents first
        f, edges = nodes[k]
        if f is None:
            continue
        _axpy(grades[f], _mul(top[k], gain[k]), 1)
        d, x = sizes[f], v[f]
        t = [c // d for c in top[k]]
        for E, child in edges:
            if nodes[child][0] is None:
                continue
            b = d if x in E else 0
            reach = [b * c for c in t] + [0]
            for j, c in enumerate(t, 1):
                reach[j] += (len(E) - b) * c
            if top[child] is None:
                top[child] = reach
            else:
                _axpy(top[child], reach, 1)

    # sum_j c_j w^j (1+z)^(m-1) = sum_j c_j (1+z)^(m-1-j). The division by D
    # is exact: a path's term of Top(u) Gain(u) is D^2 over the product of
    # the d_f of the distinct features it tests.
    out = []
    for g in grades:
        q = [0] * m
        for j, c in enumerate(g):
            c //= D
            for s in range(m - j):
                q[s] += c * comb(m - 1 - j, s)
        out.append(q)
    return out


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
