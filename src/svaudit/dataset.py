"""Dataset ingestion: a labelled CSV in, a reduced diagram out.

Ingestion keeps the first occurrence of every feature vector and drops later
contradicting rows, then completes the function with the majority class
(ties broken toward the smallest label) before building a diagram. It counts
the file's raw lines and parses each distinct line once (record by record
when the file holds a quote), strips and codes each column's distinct raw
cells once, and maps whole columns through those codes, so its time and
memory follow the distinct lines and cell values rather than all rows. The
diagram's table is filled column by column, and the reducer's node list
becomes the ``Omdd`` with no ``Node`` or ``Leaf`` made.

This module loads no engine, so ``build-omdd`` starts without them. Its names
are exported through ``svaudit.scan``, their public home.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from functools import partial
from itertools import compress
from operator import ne

from .errors import InputError
from .models import FeatureSpace, Omdd, TabularClassifier, _Frozen, to_omdd


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


def _raw_rows(path) -> dict:
    """The file's raw CSV rows, counted in first-seen order. With no ``"`` in
    the file every line is one record, so each distinct line is parsed once;
    a file that holds one is read record by record, the only way to read
    quoted commas and line breaks. A scan of the bytes, block by block,
    picks the path. Undecodable or malformed text is an input error."""
    try:
        with open(path, "rb") as fp:
            quoted = any(b'"' in block for block in iter(partial(fp.read, 1 << 16), b""))
        with open(path, "r", encoding="utf-8", newline="") as fp:
            if quoted:
                return Counter(map(tuple, csv.reader(fp)))
            lines = Counter(fp)
        rows = {}  # one row may stand under several line ends
        for row, n in zip(map(tuple, csv.reader(lines)), lines.values()):
            rows[row] = rows.get(row, 0) + n
        return rows
    except UnicodeDecodeError as exc:
        try:  # the reader counts from the block it decoded; the whole file gives the offset
            with open(path, "rb") as fp:
                fp.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise InputError(f"dataset {path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"dataset {path} is not readable CSV: {exc}") from exc


def _columns(rows, width):
    """``(columns, stripped)`` of rows all ``width`` cells long, where
    ``stripped[j]`` maps each distinct raw cell of column j to its stripped
    text; None if some row has another width."""
    if set(map(len, rows)) - {width}:
        return None
    columns = list(zip(*rows))
    return columns, [{cell: cell.strip() for cell in set(column)} for column in columns]


def load_consistent_dataset(path) -> Dataset:
    """CSV with a header; last column is the class. Feature cells are mapped
    to dense 0-based codes (numeric order when a column is all-integer,
    lexicographic otherwise). Later rows contradicting an earlier feature
    vector are dropped (first wins). Blank rows are skipped; a ragged row, or
    a row that repeats the header (two files joined, say), is an error."""
    counts = _raw_rows(path)
    header = next(filter(_filled, counts), ())
    if header:
        counts[header] -= 1  # the header's own line
    header = tuple(cell.strip() for cell in header)
    width = len(header)
    body = [row for row, n in counts.items() if n and _filled(row)]
    split = _columns(body, width)
    if not body:
        raise InputError("dataset needs a header and at least one data row")
    if width < 2:
        raise InputError("dataset needs at least one feature column and a class column")
    if split is None or all(name in cells.values() for name, cells in zip(header, split[1])):
        # a ragged row, or every column holds its header's name: number the
        # filled rows again and report the first ragged row or repeated
        # header, if there is one
        with open(path, "r", encoding="utf-8", newline="") as fp:
            numbered = enumerate(filter(_filled, csv.reader(fp)), start=1)
            next(numbered)  # the header
            for lineno, row in numbered:
                if len(row) != width:
                    raise InputError(f"row {lineno} has {len(row)} cells, expected {width}")
                if tuple(map(str.strip, row)) == header:
                    raise InputError(f"row {lineno} repeats the header")

    columns, stripped = split
    *features, classes = stripped
    value_maps = [_column_codes(set(cells.values()), name) for cells, name in zip(features, header)]
    class_of = _integers(set(classes.values()), header[-1])
    class_map = None
    if class_of is None:
        class_of = class_map = _column_codes(set(classes.values()), header[-1])
    # code each distinct raw cell once, then map whole columns
    points = zip(*[map({raw: codes[cell] for raw, cell in cells.items()}.__getitem__, column)
                   for codes, cells, column in zip(value_maps, features, columns)])
    labels = list(map({raw: class_of[cell] for raw, cell in classes.items()}.__getitem__,
                      columns[-1]))
    first_label = {}  # point -> label of its first row, in first-seen order
    firsts = list(map(first_label.setdefault, points, labels))
    dropped = sum(compress(map(counts.__getitem__, body), map(ne, firsts, labels)))
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
    points, labels = zip(*dataset.rows)
    counts = Counter(labels)
    default = min(counts, key=lambda c: (-counts[c], c))
    # each row's index in the table, column by column, feature 1 most significant
    places = [0] * len(points)
    for column, d in zip(zip(*points), space.domain_sizes):
        places = [place * d + x for place, x in zip(places, column)]
    values = [default] * space.size
    for place, label in zip(places, labels):
        values[place] = label
    table = TabularClassifier(space, tuple(values))  # rejects a constant completion
    return to_omdd(table)
