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
from .errors import SvauditError
from .models import ExplanationProblem, FeatureSpace, to_omdd, to_tabular

# Each command imports its engine in its handler, so a call loads only what it
# runs. The family ids stay here for argparse's choices; a test pins them to
# families.FAMILY_IDS.
FAMILY_IDS = ("a", "b", "c", "c5", "d")


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
    from .explain import relevancy_report
    report = relevancy_report(_load_problem(args), engine=args.method)
    _emit(_json_text(report.to_json_dict()), args.out)


def _cmd_shapley(args) -> None:
    from .shapley import shapley_values
    report = shapley_values(_load_problem(args), backend=_SV_BACKEND[args.method])
    _emit(_json_text(report.to_json_dict()), args.out)


def _cmd_adversarial(args) -> None:
    from .adversarial import adversarial_report
    _emit(_json_text(adversarial_report(_load_problem(args))), args.out)


def _cmd_validate(args) -> None:
    from .rat import rat_json, rat_str
    from .shapley import shapley_values
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
    from .scan import records_to_csv, scan_model
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
    from .families import certificate, instantiate, solve_family
    if args.budget < 0:
        raise UsageError("--budget needs a non-negative count")
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
    from .dataset import build_omdd_from_dataset, load_consistent_dataset
    dataset = load_consistent_dataset(args.data)
    omdd = build_omdd_from_dataset(dataset)
    _emit(model_io.model_to_json(omdd), args.out)


def _cmd_convert(args) -> None:
    if args.to == "table" and args.order is not None:
        raise UsageError("--order applies to --to omdd, not --to table")
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
    "auto (default): polynomial exact engine, O(|G|) operations on (m+1)*B-bit integers "
    "over the |G| nodes of a tree or diagram, or of a table's reduced diagram, with "
    "2^(B-1) > cmax*D^2*9^m bounding every coefficient; brute|paths: reference loop over "
    "all 2^m coalitions with the point-enumeration|path-counting cube sum")


# the subcommands in the order the full parser lists them
COMMANDS = ("explain", "shapley", "adversarial", "validate", "scan", "synth", "build-omdd",
            "convert")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone, one of
    ``COMMANDS``; the top-level usage names every command either way."""
    parser = argparse.ArgumentParser(
        prog="svaudit",
        description="Exact Shapley values, formal explanations, relevancy and "
                    "minimal adversarial analysis for discrete classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        sub.metavar = "{%s}" % ",".join(COMMANDS)

    def add(name, fn, **kwargs):
        """The subparser of ``name``, or None when this parser leaves it out."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def with_model_instance(p, methods=None, default=None, method_help=None):
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--instance", required=True, help="comma-separated feature values")
        if methods:
            p.add_argument("--method", choices=methods, default=default, help=method_help)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    if p := add("explain", _cmd_explain,
                help="abductive/contrastive explanations and relevancy"):
        with_model_instance(p, methods=("duality", "brute"), default="duality")

    if p := add("shapley", _cmd_shapley, help="exact Shapley values with efficiency residual"):
        with_model_instance(p, methods=("auto", "brute", "paths"), default="auto",
                            method_help=_SV_METHOD_HELP)

    if p := add("adversarial", _cmd_adversarial, help="minimal l0 adversarial change-sets"):
        with_model_instance(p)

    if p := add("validate", _cmd_validate, help="check the efficiency identity on an instance"):
        with_model_instance(p, methods=("auto", "brute", "paths"), default="auto",
                            method_help=_SV_METHOD_HELP)

    if p := add("scan", _cmd_scan, help="issue scan over feature space"):
        p.add_argument("--model", required=True)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--all", action="store_true", help="scan every point (default)")
        group.add_argument("--sample", type=int, default=None, metavar="N",
                           help="scan a seeded sample of N points")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None, help="records CSV path (default: stdout)")

    if p := add("synth", _cmd_synth,
                help="synthesize a misattribution counterexample classifier"):
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

    if p := add("build-omdd", _cmd_build_omdd,
                help="build a diagram from a consistent dataset"):
        p.add_argument("--data", required=True, help="CSV dataset, last column = class")
        p.add_argument("--out", default=None)

    if p := add(
            "convert", _cmd_convert, help="convert between representations",
            description="Write the model as a complete table, or as its reduced OMDD. A table "
                        "becomes an OMDD by collapsing its axes; a tree or a diagram by one "
                        "pass over its nodes, without building the table."):
        p.add_argument("--model", required=True)
        p.add_argument("--to", required=True, choices=("table", "omdd"))
        p.add_argument("--order", default=None, help="OMDD variable order, e.g. 1,3,2")
        p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    # no command line carries a NUL, and ``open`` raises ValueError on one
    if argv is not None and any("\0" in str(arg) for arg in argv):
        print("svaudit: arguments cannot contain a NUL character", file=sys.stderr)
        return 2
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own subparser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
