"""Model file format: one JSON document per classifier.

Layout (integers only, bit-exact):

.. code-block:: json

    {"type": "table" | "dt" | "omdd",
     "features": [{"name": "x1", "domain": 2}, ...],
     "classes": [0, 1, 2, 3],
     ...body...}

* table body -- ``"rows": [[x1, ..., xm, class], ...]`` (must be complete);
* dt body -- ``"nodes": [...]`` where internal nodes look like
  ``{"id": 0, "feature": 1, "edges": [{"values": [0, 1], "to": 3}]}`` and
  leaves like ``{"id": 3, "class": 2}``; the first listed node is the root,
  and edges may share a target as long as every path stays read-once.
  Node ids are integers or strings: a float or boolean id is rejected;
* omdd body -- dt body plus ``"order": [1, 2, 3]``.

Integers are checked with ``type(x) is int``: JSON ``true``/``false`` load as
``bool``, a subclass of ``int``, and are rejected. Feature indices in files
are 1-based. The loader checks what only the document shows (entry shapes,
integer types, node ids) on every entry and resolves every edge target, not
only those the root reaches; the walk that checks and flattens ``Node``
objects checks labels, paths and order once, cycles included, and lists the
entries by id, making none. Loaded OMDDs go through ``reduce_omdd``, which
keeps a reduced diagram as it is, so the in-memory diagram is always reduced.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii

from .errors import InputError
from .models import (
    Classifier,
    DecisionTree,
    FeatureSpace,
    Omdd,
    TabularClassifier,
    _by_child,
    _flatten,
    _rank,
    reduce_omdd,
)


def load_model(path) -> Classifier:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except UnicodeDecodeError as exc:
        raise InputError(f"model file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InputError(f"model file {path} cannot be parsed: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"model file {path} nests too deeply to parse") from exc
    return model_from_dict(doc)


def save_model(model: Classifier, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(model_to_json(model))


def model_to_json(model: Classifier) -> str:
    """The model's document as ``json.dumps(doc, indent=2)`` writes it, and a
    newline, straight from a table's values or a graph's node list; graph
    entries are numbered in preorder from the root, each node's values grouped
    by child in order of smallest value, one rendering per distinct label."""
    space = model.space
    features = [_FEATURE % (encode_basestring_ascii(name), d)
                for name, d in zip(space.feature_names, space.domain_sizes)]
    head = [_list(features, "  "), _list(map(str, sorted(model.class_values())), "  ")]
    if isinstance(model, TabularClassifier):
        rows = [_list(map(str, (*p, c)), "    ") for p, c in zip(space.points(), model.values)]
        return _DOC % ("table", *head, "", "rows", _list(rows, "  "))
    if not isinstance(model, (DecisionTree, Omdd)):
        raise InputError(f"cannot serialize {type(model).__name__}")
    nodes = model.nodes
    label = functools.cache(lambda values: _list(map(int.__repr__, values), "          "))
    ids = {}  # position in ``nodes`` -> preorder id
    entries = []

    def visit(k):
        if k not in ids:
            nid = ids[k] = len(entries)
            entries.append(None)
            f, body = nodes[k]
            if f is not None:
                body = _list([_EDGE % (label(values), visit(c)) for c, values in _by_child(body)],
                             "      ")
            entries[nid] = _LEAF % (nid, body) if f is None else _NODE % (nid, f + 1, body)
        return ids[k]

    visit(len(nodes) - 1)
    if isinstance(model, DecisionTree):
        return _DOC % ("dt", *head, "", "nodes", _list(entries, "  "))
    order = '\n  "order": %s,' % _list([str(f + 1) for f in model.order], "  ")
    return _DOC % ("omdd", *head, order, "nodes", _list(entries, "  "))


# indent-2 JSON, as ``json.dumps`` writes it
_DOC = '{\n  "type": "%s",\n  "features": %s,\n  "classes": %s,%s\n  "%s": %s\n}\n'
_FEATURE = '{\n      "name": %s,\n      "domain": %d\n    }'
_LEAF = '{\n      "id": %d,\n      "class": %d\n    }'
_NODE = '{\n      "id": %d,\n      "feature": %d,\n      "edges": %s\n    }'
_EDGE = '{\n          "values": %s,\n          "to": %d\n        }'


def _list(items, pad) -> str:
    """A list of written items, opened on a line indented by ``pad``."""
    inner = "\n  " + pad
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def model_to_dict(model: Classifier) -> dict:
    return json.loads(model_to_json(model))


def _space_from_doc(doc) -> FeatureSpace:
    feats = doc.get("features")
    if not isinstance(feats, list) or not feats:
        raise InputError('model file needs a nonempty "features" list')
    names, sizes = [], []
    for k, f in enumerate(feats):
        if not isinstance(f, dict) or "domain" not in f:
            raise InputError(f"feature entry {k} needs a domain size")
        if type(f["domain"]) is not int:
            raise InputError("domain sizes must be integers")
        names.append(str(f.get("name", f"x{k + 1}")))
        sizes.append(f["domain"])
    return FeatureSpace(tuple(sizes), tuple(names))


def _check_classes(doc, used) -> None:
    declared = doc.get("classes")
    if not isinstance(declared, list) or not all(type(c) is int for c in declared):
        raise InputError('model file needs an integer "classes" list')
    extra = set(used) - set(declared)
    if extra:
        raise InputError(f"classes {sorted(extra)} used but not declared")


def model_from_dict(doc) -> Classifier:
    if not isinstance(doc, dict):
        raise InputError("model document must be a JSON object")
    kind = doc.get("type")
    space = _space_from_doc(doc)
    if kind == "table":
        model = _table_from_doc(doc, space)
    elif kind == "dt":
        model = DecisionTree._of(space, _graph_from_doc(doc, space))
    elif kind == "omdd":
        order = doc.get("order")
        if not isinstance(order, list) or not all(type(f) is int for f in order):
            raise InputError('omdd model needs an integer "order" list')
        order = tuple(f - 1 for f in order)
        nodes = _graph_from_doc(doc, space, _rank(order, space.m))
        model = reduce_omdd(Omdd._of(space, order, nodes))
    else:
        raise InputError(f"unknown model type {kind!r}")
    _check_classes(doc, model.class_values())
    return model


def _table_from_doc(doc, space) -> TabularClassifier:
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise InputError('table model needs a "rows" list')
    values = [None] * space.size
    for row in rows:
        if not isinstance(row, list) or len(row) != space.m + 1 \
                or not all(type(x) is int for x in row):
            raise InputError(f"malformed table row {row!r}")
        point = space.validate_point(row[:-1])
        idx = space.index(point)
        if values[idx] is not None and values[idx] != row[-1]:
            raise InputError(f"conflicting rows for point {point}")
        values[idx] = row[-1]
    if any(c is None for c in values):
        missing = values.index(None)
        raise InputError(
            f"table is incomplete: no row for point {space.point_at(missing)}")
    return TabularClassifier(space, tuple(values))


def _graph_from_doc(doc, space, rank=None) -> list:
    """The node list of the graph whose root is the first entry. Every entry
    is checked and every edge target resolved, whether the root reaches it or
    not; then the walk that checks ``Node`` objects (under ``rank`` for a
    diagram) walks the entries by id, and ignores an entry the root does not
    reach. A cycle ends that walk within m levels as a feature tested twice."""
    entries = doc.get("nodes")
    if not isinstance(entries, list) or not entries:
        raise InputError('model needs a nonempty "nodes" list')
    parts = {}  # id -> (feature, [(values, target id), ...]) or (None, class)
    for k, e in enumerate(entries):
        if not isinstance(e, dict) or "id" not in e:
            raise InputError(f"malformed node entry {e!r}")
        nid = e["id"]
        if type(nid) not in (int, str):
            raise InputError(f"node entry {k} has id {nid!r}; ids must be integers or strings")
        if nid in parts:
            raise InputError(f"duplicate node id {nid}")
        if "class" in e:
            if type(e["class"]) is not int:
                raise InputError("leaf classes must be integers")
            parts[nid] = (None, e["class"])
        else:
            parts[nid] = _parts_of_entry(e, nid, space)
    for f, edges in parts.values():
        for _, to in () if f is None else edges:
            if to not in parts:
                raise InputError(f"edge points to unknown node {to}")
    return _flatten(entries[0]["id"], parts.__getitem__, space.domain_sizes, rank, lambda i: i)


def _parts_of_entry(e, nid, space) -> tuple:
    """The 0-based feature and the checked ``(values, target id)`` pairs of
    an internal node entry."""
    if "feature" not in e or not isinstance(e.get("edges"), list):
        raise InputError(f"node {nid} needs a feature and an edge list")
    f = e["feature"]
    if type(f) is not int or not 1 <= f <= space.m:
        raise InputError(f"node {nid} tests unknown feature {f}")
    edges = []
    for edge in e["edges"]:
        if not isinstance(edge, dict) or "to" not in edge:
            raise InputError(f"malformed edge on node {nid}")
        values = edge.get("values")
        if not isinstance(values, list) or not all(type(x) is int for x in values):
            raise InputError(f"malformed edge on node {nid}")
        if type(edge["to"]) not in (int, str):
            raise InputError(
                f"edge on node {nid} points to {edge['to']!r}; ids must be integers or strings")
        edges.append((frozenset(values), edge["to"]))
    return f - 1, edges
