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
integer types, node ids) on every entry and links every entry's edges, not
only those the root reaches; the model's construction checks the graph
once, cycles included. Loaded OMDDs go through ``reduce_omdd``, which keeps a
reduced diagram as it is, so the in-memory diagram is always reduced.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .errors import InputError
from .models import (
    Classifier,
    DecisionTree,
    FeatureSpace,
    Leaf,
    Node,
    Omdd,
    TabularClassifier,
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
    """``json.dumps(model_to_dict(model), indent=2)`` and a newline, written
    without the pure-Python encoder that ``json`` falls back to when given
    an indent."""
    return _indented(model_to_dict(model), "\n") + "\n"


def _indented(obj, newline) -> str:
    """Indent-2 JSON of a document of dicts, lists, strings and ints; ``newline``
    is a line break followed by the indent of the line ``obj`` starts on."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not obj:
        return "[]"
    return "[" + inner + ("," + inner).join([_indented(x, inner) for x in obj]) + newline + "]"


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
        model = DecisionTree(space, _graph_from_doc(doc, space))
    elif kind == "omdd":
        order = doc.get("order")
        if not isinstance(order, list) or not all(type(f) is int for f in order):
            raise InputError('omdd model needs an integer "order" list')
        root = _graph_from_doc(doc, space)
        model = reduce_omdd(Omdd(space, tuple(f - 1 for f in order), root))
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


def _graph_from_doc(doc, space):
    """The root of the graph, after one object per entry is made in list
    order and then the edges of every entry are linked. An entry the root
    does not reach is checked like any other, then ignored. A cycle is left
    to the model's construction walk, which rejects it within m levels: it
    tests a feature twice on one path, or does not advance in the order."""
    entries = doc.get("nodes")
    if not isinstance(entries, list) or not entries:
        raise InputError('model needs a nonempty "nodes" list')
    built = {}
    unlinked = []  # (node, its checked (values, target id) pairs)
    for k, e in enumerate(entries):
        if not isinstance(e, dict) or "id" not in e:
            raise InputError(f"malformed node entry {e!r}")
        nid = e["id"]
        if type(nid) not in (int, str):
            raise InputError(f"node entry {k} has id {nid!r}; ids must be integers or strings")
        if nid in built:
            raise InputError(f"duplicate node id {nid}")
        if "class" in e:
            if type(e["class"]) is not int:
                raise InputError("leaf classes must be integers")
            built[nid] = Leaf(e["class"])
        else:
            edges = _edges_of_entry(e, nid, space)
            built[nid] = node = Node(e["feature"] - 1, ())
            unlinked.append((node, edges))
    for node, edges in unlinked:
        for _, to in edges:
            if to not in built:
                raise InputError(f"edge points to unknown node {to}")
        object.__setattr__(node, "edges", tuple([(values, built[to]) for values, to in edges]))
    return built[entries[0]["id"]]


def _edges_of_entry(e, nid, space) -> list:
    """Checked ``(values, target id)`` pairs of an internal node entry."""
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
    return edges


def model_to_dict(model: Classifier) -> dict:
    space = model.space
    doc = {
        "type": None,
        "features": [{"name": n, "domain": d}
                     for n, d in zip(space.feature_names, space.domain_sizes)],
        "classes": sorted(model.class_values()),
    }
    if isinstance(model, TabularClassifier):
        doc["type"] = "table"
        doc["rows"] = [list(p) + [c] for p, c in zip(space.points(), model.values)]
        return doc
    if isinstance(model, DecisionTree):
        doc["type"] = "dt"
    elif isinstance(model, Omdd):
        doc["type"] = "omdd"
        doc["order"] = [f + 1 for f in model.order]
    else:
        raise InputError(f"cannot serialize {type(model).__name__}")
    doc["nodes"] = _graph_to_entries(model.nodes)
    return doc


def _graph_to_entries(nodes) -> list:
    """Node entries numbered in preorder from the root, edges by smallest value."""
    ids = {}
    entries = []

    def visit(k):
        if k in ids:
            return ids[k]
        nid = ids[k] = len(ids)
        entry = {"id": nid}
        entries.append(entry)
        f, edges = nodes[k]
        if f is None:
            entry["class"] = edges
        else:
            entry["feature"] = f + 1
            edges = sorted(edges, key=lambda e: min(e[0]))
            entry["edges"] = [{"values": sorted(vs), "to": visit(ch)} for vs, ch in edges]
        return nid

    visit(len(nodes) - 1)
    return entries
