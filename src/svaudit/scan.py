"""Instance-level misattribution detection and whole-model scans.

For every analyzed instance the issue predicate asks whether some irrelevant
feature i and relevant feature j satisfy |Sv(i)| > |Sv(j)|. Each record
carries the pair that decides it: v_i = max over irrelevant |Sv| (absent
when every feature is relevant) and v_j = min over relevant |Sv|; the issue
holds exactly when both exist and v_i > v_j. Scans walk the whole feature
space (or a seeded sample without replacement) and emit plot-ready CSV
records plus an aggregate summary.

Dataset ingestion (``Dataset``, ``load_consistent_dataset``,
``build_omdd_from_dataset``) lives in ``svaudit.dataset``, which loads no
engine, and is exported from here on first access. Shapley values always use
the uniform distribution over the full feature space, also for dataset-born
models.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import random
from fractions import Fraction
from typing import Optional

from .errors import InputError, SvauditError
from .explain import relevancy_report
from .models import ExplanationProblem, FeatureSpace, _Frozen
from .rat import dec_str, rat_str
from .shapley import phi, shapley_values


# svaudit.scan stays the public home of the ingestion names; they resolve on
# first access (PEP 562), so a scan does not load the ingestion code
_DATASET_NAMES = ("Dataset", "build_omdd_from_dataset", "load_consistent_dataset")


def __getattr__(name):
    if name not in _DATASET_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import dataset
    value = globals()[name] = getattr(dataset, name)
    return value


class ScanRecord(_Frozen):
    """Everything the issue predicate needs for one instance."""

    __slots__ = _fields = ("index", "point", "predicted", "sv", "relevant", "issue",
                           "v_irrelevant_max", "v_relevant_min")


class ScanSummary(_Frozen):
    __slots__ = _fields = ("total", "issues", "zero_sv_relevant")

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
    instance; ``phi_empty`` is passed on to ``shapley_values``. Raises
    ``SvauditError`` when the efficiency residual is not exactly 0."""
    report = shapley_values(problem, phi_empty=phi_empty)
    if report.residual != 0:
        raise SvauditError(
            f"efficiency residual {rat_str(report.residual)} at instance "
            f"{','.join(map(str, problem.point))}; it must be 0")
    relevancy = relevancy_report(problem)
    relevant = relevancy.relevant
    irrelevant = relevancy.irrelevant
    v_i = max((abs(report.values[k]) for k in irrelevant), default=None)
    v_j = min((abs(report.values[k]) for k in relevant), default=None)
    issue = v_i is not None and v_j is not None and v_i > v_j
    return ScanRecord(problem.space.index(problem.point), problem.point, problem.predicted,
                      report.values, relevant, issue, v_i, v_j)


def _analyze_index(model, phi_empty, index) -> ScanRecord:
    return analyze_instance(ExplanationProblem.of(model, model.space.point_at(index)), phi_empty)


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
    instance index regardless of worker completion order. ``jobs`` > 1 fans
    the instances out to a process pool of at most ``jobs`` workers, and no
    more than the instances or ``os.cpu_count()``. ``phi(empty)``, one
    number per model, is computed once, before any instance.
    """
    space = model.space
    if sample is None or sample >= space.size:
        indices = list(range(space.size))
    else:
        if sample < 1:
            raise InputError("sample size must be positive")
        indices = sorted(random.Random(seed).sample(range(space.size), sample))
    point = space.point_at(indices[0])
    phi_empty = phi(ExplanationProblem(model, point, model.lookup(point)), frozenset())
    scanner = functools.partial(_analyze_index, model, phi_empty)
    if jobs > 1:
        # imported here, so a CLI start does not pay for the pool modules
        from concurrent.futures import ProcessPoolExecutor
        # each worker receives the model and phi(empty) once, by its initializer;
        # a pool starts all its workers at once, so it gets none beyond the
        # instances or the CPUs (the pool's own default size)
        with ProcessPoolExecutor(max_workers=min(jobs, len(indices), os.cpu_count() or 1),
                                 initializer=_start_worker, initargs=(scanner,)) as pool:
            records = list(pool.map(_scan_in_worker, indices, chunksize=16))
    else:
        records = list(map(scanner, indices))
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
