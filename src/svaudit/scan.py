"""Instance-level misattribution detection and whole-model scans.

For every analyzed instance the issue predicate asks whether some irrelevant
feature i and relevant feature j satisfy |Sv(i)| > |Sv(j)|. Each record
carries the pair that decides it: v_i = max over irrelevant |Sv| (absent
when every feature is relevant) and v_j = min over relevant |Sv|; the issue
holds exactly when both exist and v_i > v_j. Scans walk the whole feature
space (or a seeded sample without replacement) and emit plot-ready CSV
records plus an aggregate summary.

Dataset ingestion keeps the first occurrence of every feature vector and
drops later contradicting rows, then completes the function with the
majority class (ties broken toward the smallest label) before building a
diagram. Shapley values always use the uniform distribution over the full
feature space, also for dataset-born models.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .explain import relevancy_report
from .models import ExplanationProblem, FeatureSpace, Omdd, TabularClassifier, tabular_to_omdd
from .rat import dec_str
from .shapley import phi, shapley_values


@dataclass(frozen=True)
class ScanRecord:
    """Everything the issue predicate needs for one instance."""

    index: int
    point: tuple[int, ...]
    predicted: int
    sv: tuple[Fraction, ...]
    relevant: frozenset[int]
    issue: bool
    v_irrelevant_max: Optional[Fraction]
    v_relevant_min: Optional[Fraction]


@dataclass(frozen=True)
class ScanSummary:
    total: int
    issues: int
    zero_sv_relevant: int

    @property
    def fraction(self) -> float:
        return self.issues / self.total if self.total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "issues": self.issues,
            "fraction": round(self.fraction, 6),
            "zero_sv_relevant": self.zero_sv_relevant,
        }


def analyze_instance(problem: ExplanationProblem,
                     phi_empty: Optional[Fraction] = None) -> ScanRecord:
    """Shapley values, relevancy partition and the issue verdict for one
    instance; ``phi_empty`` is passed on to ``shapley_values``."""
    report = shapley_values(problem, phi_empty=phi_empty)
    relevancy = relevancy_report(problem)
    relevant = relevancy.relevant
    irrelevant = relevancy.irrelevant
    v_i = max((abs(report.values[k]) for k in irrelevant), default=None)
    v_j = min((abs(report.values[k]) for k in relevant), default=None)
    issue = v_i is not None and v_j is not None and v_i > v_j
    return ScanRecord(
        index=problem.space.index(problem.point),
        point=problem.point,
        predicted=problem.predicted,
        sv=report.values,
        relevant=relevant,
        issue=issue,
        v_irrelevant_max=v_i,
        v_relevant_min=v_j,
    )


class _Scanner:
    """Analyzes instances of one model. ``phi(empty)``, one number per model,
    comes from ``phi`` on the first instance and serves the rest."""

    def __init__(self, model):
        self.model = model
        self.phi_empty = None

    def __call__(self, index) -> ScanRecord:
        problem = ExplanationProblem.of(self.model, self.model.space.point_at(index))
        if self.phi_empty is None:
            self.phi_empty = phi(problem, frozenset())
        return analyze_instance(problem, self.phi_empty)


_worker_scanner = None  # set in each ``--jobs`` worker process by its initializer


def _start_worker(scanner) -> None:
    global _worker_scanner
    _worker_scanner = scanner


def _scan_in_worker(index) -> ScanRecord:
    return _worker_scanner(index)


def scan_model(model, sample: Optional[int] = None, seed: int = 0, jobs: int = 1):
    """Analyze all points of feature space, or a seeded sample without replacement.

    Sampling uses ``random.Random(seed).sample`` (Mersenne Twister) over
    mixed-radix point indices; asking for at least as many samples as there
    are points degenerates to the full scan. Records come back sorted by
    instance index regardless of worker completion order.
    """
    space = model.space
    if sample is None or sample >= space.size:
        indices = list(range(space.size))
    else:
        if sample < 1:
            raise InputError("sample size must be positive")
        indices = sorted(random.Random(seed).sample(range(space.size), sample))
    scanner = _Scanner(model)
    if jobs > 1:
        # imported here, so a CLI start does not pay for the pool modules
        from concurrent.futures import ProcessPoolExecutor
        # each worker receives the model once and keeps its own phi(empty)
        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                                 initargs=(scanner,)) as pool:
            records = list(pool.map(_scan_in_worker, indices, chunksize=16))
    else:
        records = [scanner(i) for i in indices]
    return tuple(records), summarize(records)


def summarize(records) -> ScanSummary:
    zero_rel = sum(1 for r in records if any(r.sv[k] == 0 for k in r.relevant))
    return ScanSummary(
        total=len(records),
        issues=sum(1 for r in records if r.issue),
        zero_sv_relevant=zero_rel,
    )


def records_to_csv(records, space: FeatureSpace) -> str:
    """Plot-ready record table; (v_i, v_j) columns are the issue scatter data."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["instance_index", *space.feature_names, "class",
         *(f"sv_{k + 1}" for k in range(space.m)),
         "relevant", "issue", "v_i", "v_j"])
    for r in records:
        writer.writerow([
            r.index, *r.point, r.predicted,
            *(dec_str(q) for q in r.sv),
            ";".join(str(k + 1) for k in sorted(r.relevant)),
            int(r.issue),
            "" if r.v_irrelevant_max is None else dec_str(r.v_irrelevant_max),
            "" if r.v_relevant_min is None else dec_str(r.v_relevant_min),
        ])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Consistent, integer-coded labelled rows plus the recorded code maps."""

    feature_names: tuple[str, ...]
    domain_sizes: tuple[int, ...]
    value_maps: tuple[dict, ...]
    class_map: Optional[dict]
    rows: tuple[tuple[tuple[int, ...], int], ...]
    dropped: int

    @property
    def space(self) -> FeatureSpace:
        return FeatureSpace(self.domain_sizes, self.feature_names)


def _column_codes(raw_values):
    distinct = sorted(set(raw_values))
    try:
        ordered = sorted(distinct, key=int)
    except ValueError:
        ordered = distinct
    # a constant column yields a one-value map; only diagram building, which
    # needs a real feature space, rejects it
    return {raw: code for code, raw in enumerate(ordered)}


def load_consistent_dataset(path) -> Dataset:
    """CSV with a header; last column is the class. Feature cells are mapped
    to dense 0-based codes (numeric order when a column is all-integer,
    lexicographic otherwise). Later rows contradicting an earlier feature
    vector are dropped (first wins)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fp:
            reader = csv.reader(fp)
            table = [row for row in reader if row and any(cell.strip() for cell in row)]
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

    nfeat = width - 1
    value_maps = [_column_codes([row[j] for row in body]) for j in range(nfeat)]

    class_raw = [row[-1] for row in body]
    try:
        class_of = {raw: int(raw) for raw in set(class_raw)}
        class_map = None
    except ValueError:
        class_of = _column_codes(class_raw)
        class_map = dict(class_of)

    seen = {}
    rows = []
    dropped = 0
    for row in body:
        point = tuple(value_maps[j][row[j]] for j in range(nfeat))
        label = class_of[row[-1]]
        if point in seen:
            if seen[point] != label:
                dropped += 1
            continue
        seen[point] = label
        rows.append((point, label))
    if not rows:
        raise InputError("no consistent rows left")
    return Dataset(
        feature_names=tuple(header[:-1]),
        domain_sizes=tuple(len(m) for m in value_maps),
        value_maps=tuple(value_maps),
        class_map=class_map,
        rows=tuple(rows),
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
