"""Command-line surface: one model file in, one report out per command.

Commands map one-to-one onto library calls, so identical inputs through the
API and the CLI produce byte-identical artifacts. Exit status: 0 on success,
1 on domain errors (unreadable models, capacity, invariant violations),
2 on usage errors (bad flags, malformed/out-of-range instance strings).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import model_io
from .adversarial import adversarial_report
from .errors import SvauditError
from .explain import relevancy_report
from .families import FAMILY_IDS, certificate, instantiate, solve_family
from .models import ExplanationProblem, FeatureSpace, to_omdd, to_tabular
from .rat import rat_json, rat_str
from .scan import (
    build_omdd_from_dataset,
    load_consistent_dataset,
    records_to_csv,
    scan_model,
)
from .shapley import shapley_values


class UsageError(Exception):
    pass


def parse_instance(text: str, space: FeatureSpace) -> tuple[int, ...]:
    """Comma-separated feature values -> validated point (usage errors on
    malformed tokens, wrong arity, or out-of-range values)."""
    try:
        values = [int(tok.strip()) for tok in str(text).split(",")]
    except ValueError:
        raise UsageError(f"instance {text!r} is not a comma-separated integer list")
    try:
        return space.validate_point(values)
    except SvauditError as exc:
        raise UsageError(str(exc))


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_problem(args) -> ExplanationProblem:
    model = model_io.load_model(args.model)
    point = parse_instance(args.instance, model.space)
    return ExplanationProblem.of(model, point)


_SV_BACKEND = {"brute": "enumerate", "paths": "paths", "auto": "auto"}  # by --method


def _cmd_explain(args) -> None:
    report = relevancy_report(_load_problem(args), engine=args.method)
    _emit(_json_text(report.to_json_dict()), args.out)


def _cmd_shapley(args) -> None:
    report = shapley_values(_load_problem(args), backend=_SV_BACKEND[args.method])
    _emit(_json_text(report.to_json_dict()), args.out)


def _cmd_adversarial(args) -> None:
    _emit(_json_text(adversarial_report(_load_problem(args))), args.out)


def _cmd_validate(args) -> None:
    problem = _load_problem(args)
    report = shapley_values(problem, backend=_SV_BACKEND[args.method])
    doc = {
        "predicted": problem.predicted,
        "phi_empty": rat_json(report.phi_empty),
        "sv_sum": rat_json(sum(report.values)),
        "residual": rat_str(report.residual),
        "ok": report.residual == 0,
    }
    _emit(_json_text(doc), args.out)


def _cmd_scan(args) -> None:
    model = model_io.load_model(args.model)
    sample = None if args.all or args.sample is None else args.sample
    if sample is not None and sample < 1:
        raise UsageError("--sample needs a positive count")
    if args.jobs < 1:
        raise UsageError("--jobs needs a positive count")
    records, summary = scan_model(model, sample=sample, seed=args.seed, jobs=args.jobs)
    csv_text = records_to_csv(records, model.space)
    summary_text = _json_text(summary.to_json_dict())
    if args.out is None:
        sys.stdout.write(csv_text)
        sys.stderr.write(summary_text)
    else:
        _emit(csv_text, args.out)
        sys.stdout.write(summary_text)


def _cmd_synth(args) -> None:
    strategy = "grid" if args.solve else "paper"
    if args.solve and args.seed is not None:
        strategy = "random"
    spec = solve_family(args.family, strategy=strategy, seed=args.seed,
                        budget=args.budget, psi=args.psi)
    cert = certificate(spec)
    _emit(model_io.model_to_json(instantiate(spec).model), args.out)
    if args.cert is not None:
        _emit(_json_text(cert), args.cert)


def _cmd_build_omdd(args) -> None:
    dataset = load_consistent_dataset(args.data)
    omdd = build_omdd_from_dataset(dataset)
    _emit(model_io.model_to_json(omdd), args.out)


def _cmd_convert(args) -> None:
    model = model_io.load_model(args.model)
    if args.to == "table":
        out_model = to_tabular(model)
    else:
        order = None
        if args.order is not None:
            try:
                order = tuple(int(tok) - 1 for tok in args.order.split(","))
            except ValueError:
                raise UsageError(f"--order {args.order!r} is not a comma-separated integer list")
            if sorted(order) != list(range(model.space.m)):
                raise UsageError(f"--order must be a permutation of 1..{model.space.m}")
        out_model = to_omdd(model, order)
    _emit(model_io.model_to_json(out_model), args.out)


_SV_METHOD_HELP = (
    "auto (default): polynomial exact engine, O(N + m*2^m) on a table of N points, "
    "O(|G|*m^2) on a tree or diagram of |G| nodes; brute|paths: reference loop over "
    "all 2^m coalitions with the point-enumeration|path-counting cube sum")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svaudit",
        description="Exact Shapley values, formal explanations, relevancy and "
                    "minimal adversarial analysis for discrete classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_model_instance(p, methods=None, default=None, method_help=None):
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--instance", required=True, help="comma-separated feature values")
        if methods:
            p.add_argument("--method", choices=methods, default=default, help=method_help)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("explain", help="abductive/contrastive explanations and relevancy")
    with_model_instance(p, methods=("duality", "brute"), default="duality")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("shapley", help="exact Shapley values with efficiency residual")
    with_model_instance(p, methods=("auto", "brute", "paths"), default="auto",
                        method_help=_SV_METHOD_HELP)
    p.set_defaults(fn=_cmd_shapley)

    p = sub.add_parser("adversarial", help="minimal l0 adversarial change-sets")
    with_model_instance(p)
    p.set_defaults(fn=_cmd_adversarial)

    p = sub.add_parser("validate", help="check the efficiency identity on an instance")
    with_model_instance(p, methods=("auto", "brute", "paths"), default="auto",
                        method_help=_SV_METHOD_HELP)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("scan", help="issue scan over feature space")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="scan every point (default)")
    group.add_argument("--sample", type=int, default=None, metavar="N",
                       help="scan a seeded sample of N points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="records CSV path (default: stdout)")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("synth", help="synthesize a misattribution counterexample classifier")
    p.add_argument("--family", required=True, choices=FAMILY_IDS)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--paper", action="store_true",
                       help="use the pinned reference parameters (default)")
    group.add_argument("--solve", action="store_true",
                       help="search for parameters (grid; seeded random with --seed)")
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--psi", type=int, default=1, help="integer scale factor")
    p.add_argument("--out", default=None, help="model file path (default: stdout)")
    p.add_argument("--cert", default=None, help="also write a certificate JSON here")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("build-omdd", help="build a diagram from a consistent dataset")
    p.add_argument("--data", required=True, help="CSV dataset, last column = class")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_build_omdd)

    p = sub.add_parser(
        "convert", help="convert between representations",
        description="Write the model as a complete table, or as its reduced OMDD. A table "
                    "becomes an OMDD by collapsing its axes; a tree or a diagram by one "
                    "pass over its nodes, without building the table.")
    p.add_argument("--model", required=True)
    p.add_argument("--to", required=True, choices=("table", "omdd"))
    p.add_argument("--order", default=None, help="OMDD variable order, e.g. 1,3,2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args)
    except UsageError as exc:
        print(f"svaudit: {exc}", file=sys.stderr)
        return 2
    except (SvauditError, OSError) as exc:
        print(f"svaudit: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
