"""Seeded input files for the benchmark workloads.

Everything here writes plain model JSON and CSV files in the formats the
svaudit CLI reads; the program under test only ever sees these files.
"""

from __future__ import annotations

import json
import random

# Fixed domain sizes keep the per-instance cost of each engine independent
# of the seed; the seed decides the functions and the instances.
TABLE_DOMAINS = (2, 2, 3, 2, 2, 3, 2, 2)          # m = 8, 576 points
OMDD_DOMAINS = (4, 2, 2, 2, 2, 2, 2, 3, 3, 3)     # m = 10, 6,912 points
KOFN_M, KOFN_K = 10, 5
ADV_DOMAINS = (2, 2, 3, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2)  # m = 14, 36,864 points
CSV_ROWS = 40_000


def _features(domains):
    return [{"name": f"x{i + 1}", "domain": d} for i, d in enumerate(domains)]


def random_tree(rng, domains, classes=3, stop=0.25):
    """Nested (feature, [(values, child), ...]) / int tree, read-once per
    path, with at least two classes at its leaves."""

    def grow(avail, depth):
        if not avail or depth == 0 or rng.random() < stop:
            return rng.randrange(classes)
        f = rng.choice(sorted(avail))
        values = list(range(domains[f]))
        rng.shuffle(values)
        k = rng.randint(2, len(values))
        groups = [sorted(values[j::k]) for j in range(k)]
        return (f, [(g, grow(avail - {f}, depth - 1)) for g in groups])

    while True:
        root = grow(frozenset(range(len(domains))), len(domains))
        if not isinstance(root, int) and len(leaf_classes(root)) >= 2:
            return root


def relabel(rng, domains, node, classes=3):
    """An isomorphic copy of a tree: feature values permuted within each
    domain and class labels permuted. Engine costs depend on the tree's
    shape, which a relabelling keeps, so a fixed template relabelled per
    seed gives seed-independent work with seed-dependent inputs."""
    value_maps = []
    for d in domains:
        perm = list(range(d))
        rng.shuffle(perm)
        value_maps.append(perm)
    class_map = list(range(classes))
    rng.shuffle(class_map)

    def copy(n):
        if isinstance(n, int):
            return class_map[n]
        f, edges = n
        return (f, [(sorted(value_maps[f][x] for x in vs), copy(ch)) for vs, ch in edges])

    return copy(node)


def leaf_classes(node):
    if isinstance(node, int):
        return {node}
    return set().union(*(leaf_classes(child) for _, child in node[1]))


def tree_eval(node, point):
    while not isinstance(node, int):
        f, edges = node
        node = next(child for values, child in edges if point[f] in values)
    return node


def tree_doc(domains, root):
    """Model document of type ``dt`` for a nested tree."""
    nodes = []

    def visit(node):
        entry = {"id": len(nodes)}
        nodes.append(entry)
        if isinstance(node, int):
            entry["class"] = node
        else:
            f, edges = node
            entry["feature"] = f + 1
            entry["edges"] = [{"values": list(vs), "to": visit(ch)} for vs, ch in edges]
        return entry["id"]

    visit(root)
    return {"type": "dt", "features": _features(domains),
            "classes": sorted(leaf_classes(root)), "nodes": nodes}


def kofn_tree(rng, m=KOFN_M, k=KOFN_K):
    """Decision tree of f(x) = [x_1 + ... + x_m >= k] over binary features,
    testing the features in a seeded order."""
    order = list(range(m))
    rng.shuffle(order)

    def grow(depth, ones):
        if ones >= k:
            return 1
        if ones + (m - depth) < k:
            return 0
        f = order[depth]
        return (f, [([0], grow(depth + 1, ones)), ([1], grow(depth + 1, ones + 1))])

    return grow(0, 0)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)


def write_dataset(path, rng, domains, root, rows=CSV_ROWS, noise=0.01):
    """CSV of uniformly drawn points labelled by a tree; a small share of
    rows carries a wrong label, so ingestion has contradictions to drop."""
    classes = sorted(leaf_classes(root))
    lines = [",".join([f"x{i + 1}" for i in range(len(domains))] + ["class"])]
    for _ in range(rows):
        point = [rng.randrange(d) for d in domains]
        label = tree_eval(root, point)
        if rng.random() < noise:
            label = rng.choice([c for c in classes if c != label])
        lines.append(",".join(map(str, point + [label])))
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")
