"""Independent brute-force oracles used to check the library's engines.

Everything here works on a bare callable fn(point) -> class plus the domain
sizes, straight from the definitions, so no library code path is reused on
the oracle side of any comparison. The dataset reference reads the CSV file
itself, row by row.
"""

import csv
import io
import itertools
from fractions import Fraction
from math import factorial

from svaudit.dataset import Dataset
from svaudit.errors import InputError
from svaudit.models import DecisionTree, FeatureSpace, Leaf, Node, Omdd, TabularClassifier, to_omdd


def all_points(domains):
    return itertools.product(*(range(d) for d in domains))


def o_phi(fn, domains, v, S):
    axes = [(v[i],) if i in S else range(d) for i, d in enumerate(domains)]
    pts = list(itertools.product(*axes))
    return Fraction(sum(fn(p) for p in pts), len(pts))


def o_shapley(fn, domains, v):
    m = len(domains)
    out = []
    for i in range(m):
        rest = [j for j in range(m) if j != i]
        total = Fraction(0)
        for r in range(m):
            for comb in itertools.combinations(rest, r):
                S = frozenset(comb)
                w = Fraction(factorial(r) * factorial(m - r - 1), factorial(m))
                total += w * (o_phi(fn, domains, v, S | {i}) - o_phi(fn, domains, v, S))
        out.append(total)
    return tuple(out)


def o_waxp(fn, domains, v, X):
    c = fn(tuple(v))
    return all(fn(x) == c
               for x in all_points(domains)
               if all(x[i] == v[i] for i in X))


def o_wcxp(fn, domains, v, Y):
    c = fn(tuple(v))
    return any(fn(x) != c
               for x in all_points(domains)
               if all(x[i] == v[i] for i in range(len(domains)) if i not in Y))


def o_axps(fn, domains, v):
    m = len(domains)
    subsets = [frozenset(c) for r in range(m + 1)
               for c in itertools.combinations(range(m), r)]
    return sorted((S for S in subsets
                   if o_waxp(fn, domains, v, S)
                   and all(not o_waxp(fn, domains, v, S - {t}) for t in S)),
                  key=lambda s: tuple(sorted(s)))


def o_cxps(fn, domains, v):
    m = len(domains)
    subsets = [frozenset(c) for r in range(m + 1)
               for c in itertools.combinations(range(m), r)]
    return sorted((S for S in subsets
                   if o_wcxp(fn, domains, v, S)
                   and all(not o_wcxp(fn, domains, v, S - {t}) for t in S)),
                  key=lambda s: tuple(sorted(s)))


def _changed(x, v):
    return frozenset(i for i, (a, b) in enumerate(zip(x, v)) if a != b)


def o_witness(fn, domains, v, A):
    """Lexicographically smallest point differing from v on exactly A and
    flipping the class, as (point, class), or None."""
    c = fn(tuple(v))
    for x in all_points(domains):
        if fn(x) != c and _changed(x, v) == A:
            return x, fn(x)
    return None


def o_adversarial(fn, domains, v, A):
    """Does some point differing from v on exactly A flip the class?"""
    return o_witness(fn, domains, v, A) is not None


def o_minimal_adversarial_sets(fn, domains, v):
    m = len(domains)
    found = []
    for r in range(1, m + 1):
        for comb in itertools.combinations(range(m), r):
            A = frozenset(comb)
            if any(B < A for B in found):
                continue
            if o_adversarial(fn, domains, v, A):
                found.append(A)
    return sorted(found, key=lambda s: tuple(sorted(s)))


def o_min_l0_distance(fn, domains, v):
    """Smallest Hamming distance from v to a point of another class, and
    every such point at that distance as (changed set, point, class), in
    point order."""
    c = fn(tuple(v))
    flips = [(_changed(x, v), x, fn(x)) for x in all_points(domains) if fn(x) != c]
    k = min(len(A) for A, _, _ in flips)
    return k, [hit for hit in flips if len(hit[0]) == k]


def check_mutual_mhs(axps, cxps):
    """Each family must consist of minimal hitting sets of the other."""
    if not axps or not cxps:
        return False
    for fam_a, fam_b in ((axps, cxps), (cxps, axps)):
        for s in fam_a:
            if any(not (s & t) for t in fam_b):
                return False
            for e in s:
                if all((s - {e}) & t for t in fam_b):
                    return False
    return True


def o_minimal_hitting_sets(family):
    """Every subset of the family's elements that meets each set and has no
    proper subset doing so, sorted by its sorted tuple of elements."""
    family = [frozenset(s) for s in family]
    universe = sorted(frozenset().union(*family))

    def hits(h):
        return all(h & s for s in family)

    out = []
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            h = frozenset(combo)
            if hits(h) and not any(hits(h - {e}) for e in h):
                out.append(h)
    return sorted(out, key=lambda h: tuple(sorted(h)))


def o_edges(node):
    """A ``Node``'s edges as ``(sorted values, child)``, one per distinct
    child object, children in order of their smallest value: the same
    however the edges are listed or split."""
    groups = {}
    for values, child in node.edges:
        groups.setdefault(id(child), (child, []))[1].extend(values)
    return sorted([(sorted(values), child) for child, values in groups.values()],
                  key=lambda edge: edge[0][0])


def o_counterexample(model, S, v, target):
    """The point ``find_counterexample`` must return, by a depth-first walk
    of the ``Node``/``Leaf`` objects from the root (a table's reduced
    diagram for a table) with no memo: edges grouped by child in order of
    smallest value (``o_edges``), a child that v's value does not reach on
    a feature of S skipped, the feature set to v's value if it reaches the
    child, else to the child's smallest value. None when every leaf reached
    holds target."""
    root = to_omdd(model).root if isinstance(model, TabularClassifier) else model.root

    def walk(node, chosen):
        if isinstance(node, Leaf):
            return chosen if node.class_value != target else None
        f = node.feature
        for values, child in o_edges(node):
            if v[f] in values:
                x = v[f]
            elif f in S:
                continue
            else:
                x = values[0]
            found = walk(child, {**chosen, f: x})
            if found is not None:
                return found
        return None

    chosen = walk(root, {})
    return None if chosen is None else tuple(chosen.get(i, x) for i, x in enumerate(v))


def o_is_reduced(omdd):
    """Reducedness from the definition, by canonical keys over ``root``: no
    two distinct nodes share a key, and no node sends two of its children
    (``o_edges``), or its whole domain, to children with one key."""
    keys = set()
    canon = {}
    ok = True

    def walk(node):
        nonlocal ok
        if id(node) in canon:
            return
        if isinstance(node, Leaf):
            key = ("t", node.class_value)
        else:
            edges = o_edges(node)
            children = []
            for _, child in edges:
                walk(child)
                children.append(canon[id(child)])
            if len(set(children)) < len(children) or len(set(children)) == 1:
                ok = False  # isomorphic children, or a redundant node
            key = ("n", node.feature, tuple((tuple(vs), canon[id(ch)]) for vs, ch in edges))
        if key in keys:
            ok = False
        keys.add(key)
        canon[id(node)] = key

    walk(omdd.root)
    return ok


def o_dataset(path):
    """Row-by-row reference for ``load_consistent_dataset``: read every row,
    strip every cell (the first ragged row, or row equal to the header, is an
    error), code each column from all its cells, then walk the rows in file
    order keeping the first label of each point. Undecodable or malformed
    text is an input error; the file is decoded whole, so a bad byte is named
    by its offset in the file."""
    try:
        with open(path, "rb") as fp:
            text = fp.read().decode("utf-8")
        table = [row for row in csv.reader(io.StringIO(text, newline=""))
                 if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise InputError(f"dataset {path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"dataset {path} is not readable CSV: {exc}") from exc
    if len(table) < 2:
        raise InputError("dataset needs a header and at least one data row")
    header = [cell.strip() for cell in table[0]]
    if len(header) < 2:
        raise InputError("dataset needs at least one feature column and a class column")
    width = len(header)
    body = []
    for lineno, row in enumerate(table[1:], start=2):
        if len(row) != width:
            raise InputError(f"row {lineno} has {len(row)} cells, expected {width}")
        body.append([cell.strip() for cell in row])
        if body[-1] == header:
            raise InputError(f"row {lineno} repeats the header")

    def codes(raw_values):
        distinct = sorted(set(raw_values))
        try:
            ordered = sorted(distinct, key=int)
        except ValueError:
            ordered = distinct
        return {raw: code for code, raw in enumerate(ordered)}

    value_maps = [codes([row[j] for row in body]) for j in range(width - 1)]
    class_raw = [row[-1] for row in body]
    try:
        class_of = {raw: int(raw) for raw in class_raw}
        class_map = None
    except ValueError:
        class_of = codes(class_raw)
        class_map = dict(class_of)
    seen = {}
    rows = []
    dropped = 0
    for row in body:
        point = tuple(value_maps[j][row[j]] for j in range(width - 1))
        label = class_of[row[-1]]
        if point in seen:
            dropped += seen[point] != label
            continue
        seen[point] = label
        rows.append((point, label))
    return Dataset(tuple(header[:-1]), tuple(len(m) for m in value_maps), tuple(value_maps),
                   class_map, tuple(rows), dropped)


def o_model_doc(model):
    """The model file document from the definition: a table lists a row per
    point; a graph numbers the ``Node``/``Leaf`` objects below ``root`` in
    preorder, each node's edges grouped by child in order of smallest value
    (``o_edges``)."""
    space = model.space
    doc = {"type": "table" if isinstance(model, TabularClassifier) else
           "dt" if isinstance(model, DecisionTree) else "omdd",
           "features": [{"name": name, "domain": d}
                        for name, d in zip(space.feature_names, space.domain_sizes)],
           "classes": sorted(model.class_values())}
    if isinstance(model, TabularClassifier):
        doc["rows"] = [[*p, model.evaluate(p)] for p in space.points()]
        return doc
    if isinstance(model, Omdd):
        doc["order"] = [f + 1 for f in model.order]
    entries = []
    ids = {}

    def visit(node):
        if id(node) not in ids:
            ids[id(node)] = len(entries)
            entry = {"id": ids[id(node)]}
            entries.append(entry)
            if isinstance(node, Leaf):
                entry["class"] = node.class_value
            else:
                entry["feature"] = node.feature + 1
                entry["edges"] = [{"values": values, "to": visit(child)}
                                  for values, child in o_edges(node)]
        return ids[id(node)]

    visit(model.root)
    doc["nodes"] = entries
    return doc


# ---------------------------------------------------------------------------
# Random model generators (seeded, deterministic)
# ---------------------------------------------------------------------------

def random_space(rng, max_features=6, domain_pool=(2, 2, 2, 3)):
    m = rng.randint(2, max_features)
    return FeatureSpace(tuple(rng.choice(domain_pool) for _ in range(m)))


def random_table(rng, space=None, classes=3, **space_args):
    if space is None:
        space = random_space(rng, **space_args)
    while True:
        values = tuple(rng.randrange(classes) for _ in range(space.size))
        if len(set(values)) >= 2:
            return TabularClassifier(space, values)


def random_problem(rng, **kwargs):
    table = random_table(rng, **kwargs)
    point = tuple(rng.randrange(d) for d in table.space.domain_sizes)
    from svaudit.models import ExplanationProblem
    return ExplanationProblem.of(table, point)


def _partition(rng, values):
    values = list(values)
    rng.shuffle(values)
    k = rng.randint(1, len(values))
    groups = [[] for _ in range(k)]
    for j, val in enumerate(values):
        groups[j % k].append(val)
    return [frozenset(g) for g in groups]


def uneven_partition(rng, values):
    """Shuffled values cut at random places: group sizes vary, so a domain
    of 4 may split 3 + 1 (``_partition`` deals round-robin and cannot)."""
    values = list(values)
    rng.shuffle(values)
    cuts = sorted(rng.sample(range(1, len(values)), rng.randint(0, len(values) - 1)))
    return [frozenset(values[a:b]) for a, b in zip([0, *cuts], [*cuts, len(values)])]


def random_dt(rng, space, classes=3, stop=0.25):
    """Random read-once set-labelled tree over the given space (non-constant)."""

    def grow(avail, depth):
        if not avail or depth == 0 or rng.random() < stop:
            return Leaf(rng.randrange(classes))
        f = rng.choice(sorted(avail))
        groups = _partition(rng, range(space.domain_sizes[f]))
        edges = tuple((g, grow(avail - {f}, depth - 1)) for g in groups)
        return Node(f, edges)

    while True:
        root = grow(frozenset(range(space.m)), space.m)
        if isinstance(root, Node):
            classes_seen = set()

            def leaves(node):
                if isinstance(node, Leaf):
                    classes_seen.add(node.class_value)
                else:
                    for _, ch in node.edges:
                        leaves(ch)

            leaves(root)
            if len(classes_seen) >= 2:
                return DecisionTree(space, root)


def k_of_n_tree(n, k):
    """[x1 + ... + xn >= k] over binary features, unfolded into a tree."""
    def grow(depth, ones):
        if ones >= k:
            return Leaf(1)
        if ones + (n - depth) < k:
            return Leaf(0)
        return Node(depth, ((frozenset({0}), grow(depth + 1, ones)),
                            (frozenset({1}), grow(depth + 1, ones + 1))))
    return DecisionTree(FeatureSpace((2,) * n), grow(0, 0))


def random_dag(rng, space, classes=range(3), stop=0.25, share=0.4, partition=_partition):
    """Random read-once tree with shared subtrees (non-constant): an edge may
    point to any subtree built so far that tests no feature on its path.
    ``partition(rng, values)`` draws each node's edge labels."""
    while True:
        built = []  # (node, features tested in it)
        seen = set()

        def grow(avail):
            fits = [b for b in built if b[1] <= avail]
            if fits and rng.random() < share:
                return rng.choice(fits)
            if not avail or rng.random() < stop:
                c = rng.choice(classes)
                seen.add(c)
                out = (Leaf(c), frozenset())
            else:
                f = rng.choice(sorted(avail))
                kids = [(g, grow(avail - {f})) for g in partition(rng, range(space.domain_sizes[f]))]
                out = (Node(f, tuple((g, node) for g, (node, _) in kids)),
                       frozenset({f}).union(*(tested for _, (_, tested) in kids)))
            built.append(out)
            return out

        root, _ = grow(frozenset(range(space.m)))
        if isinstance(root, Node) and len(seen) >= 2:
            return DecisionTree(space, root)


def random_raw_omdd(rng, max_features=6, domain_pool=(2, 3, 4), classes=3):
    """Random ordered diagram (non-constant), often not reduced: it may hold
    duplicate leaves, structurally duplicate nodes, parallel edges, redundant
    nodes and shared children, under a random variable order."""
    while True:
        m = rng.randint(1, max_features)
        space = FeatureSpace(tuple(rng.choice(domain_pool) for _ in range(m)))
        order = list(range(m))
        rng.shuffle(order)
        pool = [Leaf(c) for c in range(classes) for _ in range(2)]
        for f in reversed(order):  # children are built before their parents
            layer = []
            for _ in range(rng.randint(1, 3)):
                draw = rng.random()
                if layer and draw < 0.2:  # a structural twin, as a new object
                    layer.append(Node(f, rng.choice(layer).edges))
                    continue
                lone = rng.choice(pool)  # every edge goes here in a redundant node
                groups = _partition(rng, range(space.domain_sizes[f]))
                layer.append(Node(f, tuple((g, lone if draw < 0.3 else rng.choice(pool))
                                           for g in groups)))
            pool += layer
        root = rng.choice([n for n in pool if isinstance(n, Node)])
        try:
            return Omdd(space, tuple(order), root)
        except InputError:  # the drawn diagram is constant
            continue
