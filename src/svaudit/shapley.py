"""Exact Shapley values for feature attribution under the uniform distribution.

The characteristic function is the conditional average phi(S): the mean class
value over all points that agree with the instance on S. Every quantity is an
exact rational; the efficiency identity

    sum_i Sv(i) + phi(empty) = kappa(v)

must hold with residual exactly 0 and is carried in every report.

Two engines compute the same rationals:

* the default polynomial engine (``backend="auto"``) never walks the 2^m
  coalitions. With ``D = prod d_j``, every ``D * phi(S)`` is an integer.
  Sv(i) is the integral over [0, 1] of a polynomial ``sum_j c_j w^j / D``
  in w, the chance that each other feature is left free rather than fixed
  to the instance (Owen, 1972), so ``Sv(i) = sum_j c_j / ((j+1) D)``. One
  bottom-up and one top-down pass of integer polynomials, each packed into
  one integer, run over the stored node list: a tree's or a diagram's own,
  or a table's reduced OMDD (built once, on first use). The integer
  coefficients c_j are read back as digits. That is O(|G|) big-integer
  operations on numbers of (m+1) B bits for |G| distinct nodes, not
  O(|G| m^2) list steps, where 2^(B-1) > cmax D^2 9^m, cmax the largest
  |class|, bounds every coefficient. The pass needs no variable order, only
  that every path is read-once.
* the reference coalition loop (``backend="enumerate"`` or ``"paths"``)
  evaluates phi on all 2^m coalitions with that cube-sum backend.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import InputError
from .models import ExplanationProblem, _cube_size, _Frozen, sum_kappa_over_cube
from .rat import rat_json, rat_str


def phi(problem: ExplanationProblem, S, backend: str = "auto") -> Fraction:
    """Average class value over the points agreeing with the instance on S."""
    S = frozenset(S)
    # the cube sum checks S, so its size is taken unchecked
    total = sum_kappa_over_cube(problem.model, S, problem.point, backend=backend)
    return Fraction(total, _cube_size(problem.space.domain_sizes, S))


def varsigma(m: int, size: int) -> Fraction:
    """Coalition weight |S|!(m-|S|-1)!/m! as an exact rational."""
    return Fraction(factorial(size) * factorial(m - size - 1), factorial(m))


class SvReport(_Frozen):
    """Per-feature exact Shapley values plus the efficiency residual."""

    __slots__ = _fields = ("values", "phi_empty", "predicted", "residual")

    def to_json_dict(self) -> dict:
        return {
            "sv": [dict(feature=i + 1, **rat_json(q)) for i, q in enumerate(self.values)],
            "phi_empty": rat_json(self.phi_empty),
            "residual": rat_str(self.residual),
        }


def shapley_values(problem: ExplanationProblem, backend: str = "auto",
                   phi_empty: Fraction | None = None) -> SvReport:
    """Exact Shapley value of every feature.

    ``auto`` runs the polynomial engine: the graph passes over the stored
    node list (a table's cached reduced OMDD for a table), O(|G|)
    big-integer operations. ``enumerate`` (cubes walked point by point) and
    ``paths`` (model counting per node) run the reference loop over all
    2^m coalitions with that cube-sum backend. All give identical
    rationals; ``phi(empty)`` always comes from a cube sum (walked point by
    point on a table), so the residual compares two independent
    computations.

    ``phi(empty)`` is one number per model. A caller that analyzes many
    instances of one model may pass the value ``phi`` returned for it as
    ``phi_empty``; ``auto`` then skips that cube sum. The reference loop
    always computes its own.
    """
    if backend not in ("auto", "enumerate", "paths"):
        raise InputError(f"unknown backend {backend!r}")

    if backend == "auto":
        values = _graph_grades(problem.model, problem.point)
        if phi_empty is None:
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


def _graph_grades(model, v) -> tuple[Fraction, ...]:
    """Sv of every feature from Bottom(u) (weighted class sum below u),
    Top(u) (weight of the paths reaching u) and the gain of fixing u's
    feature to v.

    Polynomials are in w, the chance that a feature is left free (it is in
    S with chance 1 - w). A path's features each contribute
    (b + (1-b) w) / d_f on the value x_f it takes, with b = d_f [x_f = v_f],
    and features it does not test contribute 1. Top and
    Bottom are scaled by D = prod d_j, so they stay integer polynomials.
    P_i(w) = sum_{u tests i} Top(u) Gain(u) / D = sum_j c_j w^j is D times
    the expected gain of fixing i, and Sv(i) is its integral over [0, 1]
    divided by D (Owen, 1972): sum_j c_j / ((j+1) D).

    Each polynomial is held as one integer, its value at w = W = 2^B
    (Kronecker substitution), so every step is one big-integer operation and
    the coefficients of the sums are read back as balanced base-W digits.
    """
    nodes = model.nodes
    sizes = model.space.domain_sizes
    m, D = len(sizes), model.space.size
    count = len(nodes)

    # W = 2^B exceeds twice cmax D^2 9^m (cmax the largest |class|), which
    # bounds every |coefficient| of sum_u Top(u) Gain(u) by its l1 norm
    # D 3^(m-1) * 2 D cmax 3^(m-1). A node's values have l1 weights
    # sum_x (|b| + |1-b|) / d_f = (3 d_f - 2) / d_f < 3, and no path meets
    # two nodes of one feature, so the l1 norms of Top over any feature's
    # nodes sum to below D 3^(m-1). Bottom(u) = (1-w) fixed + w free, so
    # ||Bottom(u)|| <= 3 max ||Bottom(child)|| from D cmax at the leaves and
    # ||Gain(u)|| = ||fixed - free|| <= 2 D cmax 3^(m-1).
    cmax = max((abs(c) for f, c in nodes if f is None), default=0)
    B = (cmax * D * D * 9 ** m).bit_length() + 1

    # Every division by d_f below is exact: f is tested neither above nor
    # beneath a node testing f on any path, so each coefficient of Top(u) and
    # of Bottom(child) still carries the factor d_f of D.
    bottom = [0] * count
    gain = [0] * count
    for k, (f, kids) in enumerate(nodes):  # children first
        if f is None:
            bottom[k] = D * kids
            continue
        fixed = bottom[kids[v[f]]]
        gain[k] = fixed - sum(map(bottom.__getitem__, kids)) // sizes[f]
        bottom[k] = fixed - (gain[k] << B)

    grades = [0] * m
    top = [0] * count
    top[-1] = D
    for k in range(count - 1, -1, -1):  # parents first
        f, kids = nodes[k]
        if f is None:
            continue
        grades[f] += top[k] * gain[k]
        # each value passes on top / d w, and v_f top / d (d - (d-1) w) in all;
        # a leaf's top is never read
        t = (top[k] // sizes[f]) << B
        for child in kids:
            top[child] += t
        top[kids[v[f]]] += top[k] - (top[k] << B)

    # The division by D is exact: a path's term of Top(u) Gain(u) is D^2
    # over the product of the d_f of the distinct features it tests. With
    # L = lcm(1..m), sum_j c_j / (j+1) = sum_j c_j (L / (j+1)) / L.
    half = 1 << (B - 1)
    L = lcm(*range(1, m + 1))
    weights = [L // (j + 1) for j in range(m)]
    out = []
    for g in grades:
        total = 0
        for weight in weights:
            g, c = divmod(g + half, 2 * half)
            total += (c - half) // D * weight
        out.append(Fraction(total, L * D))
    return tuple(out)

