"""Dataset ingestion: a labelled CSV in, a reduced diagram out.

Ingestion keeps the first occurrence of every feature vector and drops later
contradicting rows, then completes the function with the majority class
(ties broken toward the smallest label) before building a diagram. It reads
the file in one pass that counts the rows by their raw cells, and strips,
codes and resolves each distinct row once, so its time and memory follow the
distinct rows rather than all rows.

This module loads no engine, so ``build-omdd`` starts without them. Its names
are exported through ``svaudit.scan``, their public home.
"""

from __future__ import annotations

import csv
import re
from collections import Counter

from .errors import InputError
from .models import FeatureSpace, Omdd, TabularClassifier, _Frozen, tabular_to_omdd


class Dataset(_Frozen):
    """Consistent, integer-coded labelled rows plus the recorded code maps."""

    __slots__ = _fields = ("feature_names", "domain_sizes", "value_maps", "class_map", "rows",
                           "dropped")

    @property
    def space(self) -> FeatureSpace:
        return FeatureSpace(self.domain_sizes, self.feature_names)


_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")  # the literals ``int`` accepts, stripped


def _integers(values, column):
    """``{value: int(value)}`` when every value is an integer literal, else None.
    A literal past Python's integer-string digit limit is an input error: it
    would otherwise turn the column symbolic without notice."""
    try:
        return {value: int(value) for value in values}
    except ValueError:
        if all(map(_INTEGER.fullmatch, values)):
            raise InputError(f"column {column!r} holds an integer past Python's "
                             "integer-string digit limit") from None
        return None


def _column_codes(values, column):
    distinct = sorted(values)
    numbers = _integers(distinct, column)
    if numbers is not None:
        distinct.sort(key=numbers.__getitem__)  # stable: equal numbers stay lexicographic
    # a constant column yields a one-value map; only diagram building, which
    # needs a real feature space, rejects it
    return {raw: code for code, raw in enumerate(distinct)}


def _filled(row) -> bool:
    return any(map(str.strip, row))


def _rows(path):
    """The file's CSV rows; undecodable or malformed text is an input error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            yield from csv.reader(fp)
    except UnicodeDecodeError as exc:
        raise InputError(f"dataset {path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"dataset {path} is not readable CSV: {exc}") from exc


def load_consistent_dataset(path) -> Dataset:
    """CSV with a header; last column is the class. Feature cells are mapped
    to dense 0-based codes (numeric order when a column is all-integer,
    lexicographic otherwise). Later rows contradicting an earlier feature
    vector are dropped (first wins). Blank rows are skipped; a ragged row, or
    a row that repeats the header (two files joined, say), is an error."""
    rows = _rows(path)
    header = next(filter(_filled, rows), None)
    counts = Counter(map(tuple, rows))  # raw rows in first-seen order
    stripped = ((tuple(map(str.strip, row)), n) for row, n in counts.items())
    body = [(cells, n) for cells, n in stripped if any(cells)]
    if not body:
        raise InputError("dataset needs a header and at least one data row")
    header = tuple(cell.strip() for cell in header)
    width = len(header)
    if width < 2:
        raise InputError("dataset needs at least one feature column and a class column")
    if any(len(row) != width or row == header for row, _ in body):
        # the distinct rows lost their positions: number the filled rows again
        numbered = enumerate(filter(_filled, _rows(path)), start=1)
        next(numbered)  # the header
        for lineno, row in numbered:
            if len(row) != width:
                raise InputError(f"row {lineno} has {len(row)} cells, expected {width}")
            if tuple(map(str.strip, row)) == header:
                raise InputError(f"row {lineno} repeats the header")

    *columns, labels = map(set, zip(*(row for row, _ in body)))
    value_maps = [_column_codes(values, name) for values, name in zip(columns, header)]
    class_of = _integers(labels, header[-1])
    class_map = None
    if class_of is None:
        class_of = class_map = _column_codes(labels, header[-1])

    first_label = {}  # point -> label of its first row, in first-seen order
    dropped = 0
    for row, n in body:
        # ``map`` stops at the last feature cell; the class cell is row[-1]
        point = tuple(map(dict.__getitem__, value_maps, row))
        label = class_of[row[-1]]
        if first_label.setdefault(point, label) != label:
            dropped += n
    return Dataset(
        feature_names=tuple(header[:-1]),
        domain_sizes=tuple(map(len, value_maps)),
        value_maps=tuple(value_maps),
        class_map=class_map,
        rows=tuple(first_label.items()),
        dropped=dropped,
    )


def build_omdd_from_dataset(dataset: Dataset) -> Omdd:
    """Reduced diagram under column order agreeing with every dataset row;
    points the dataset never mentions get the majority class (ties break
    toward the smallest label)."""
    space = dataset.space
    counts = Counter(label for _, label in dataset.rows)
    default = min(counts, key=lambda c: (-counts[c], c))
    values = [default] * space.size
    for point, label in dataset.rows:
        values[space.index(point)] = label
    table = TabularClassifier(space, tuple(values))  # rejects a constant completion
    return tabular_to_omdd(table)
