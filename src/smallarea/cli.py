"""Command-line interface.

Subcommands: fit (sampler only), cv (selection curve only), estimate
(point estimates), bootstrap (estimates plus MSE), run (everything),
plot-data (tidy CSVs from a finished run).  fit, cv, estimate, bootstrap
and run are all the same :func:`~smallarea.pipeline.run_pipeline` call,
stopped after a stage; each prints the path of the file it was asked for.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .exceptions import NumericalError, ValidationError
from .pipeline import PLOT_KINDS, RunConfig, _parse_grid_spec, emit_plot_data, read_report, run_pipeline

# command -> (help text, stage run_pipeline stops after, file whose path is
# printed; None prints the output directory)
_PIPELINE_COMMANDS = {
    "fit": ("run the Gibbs sampler only", "gibbs", "fit.csv"),
    "cv": ("compute the cross-validation curve only", "cross-validation", "cv_curve.csv"),
    "estimate": ("full point estimates, no bootstrap", "report", "estimates.csv"),
    "bootstrap": ("estimates plus bootstrap MSE", "report", "bootstrap_mse.csv"),
    "run": ("everything the config asks for", "report", None),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, type=Path, help="flat key/value config file")
    sub.add_argument("--seed", type=int, default=None, help="override the master seed")
    sub.add_argument("--out", type=Path, default=None, help="override the output directory")
    gamma = sub.add_mutually_exclusive_group()
    gamma.add_argument("--gamma", type=float, default=None, help="fixed smoothing factor")
    gamma.add_argument(
        "--gamma-grid",
        default=None,
        metavar="LO,HI,N",
        help="log grid of candidate smoothing factors",
    )
    sub.add_argument(
        "--benchmark-target", type=float, default=None, help="override the benchmark target"
    )
    sub.add_argument(
        "--bootstrap-reps", type=int, default=None, help="override the bootstrap replicate count"
    )


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config)
    flags = {
        "seed": args.seed,
        "output_dir": args.out,
        "benchmark_target": args.benchmark_target,
        "bootstrap_replicates": args.bootstrap_reps,
    }
    updates = {key: value for key, value in flags.items() if value is not None}
    if args.gamma is not None:
        updates["gamma"] = args.gamma
        updates["gamma_grid"] = None
    elif args.gamma_grid is not None:
        updates["gamma"] = None
        updates["gamma_grid"] = _parse_grid_spec(args.gamma_grid)
    return replace(config, **updates) if updates else config


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    if args.command == "estimate":
        config = replace(config, bootstrap_replicates=0)
    elif args.command == "bootstrap" and config.bootstrap_replicates < 1:
        raise ValidationError("bootstrap requires bootstrap_replicates >= 1 (or --bootstrap-reps)")
    _, stop_after, printed = _PIPELINE_COMMANDS[args.command]
    run_pipeline(config, stop_after=stop_after)
    out = Path(config.output_dir)
    print(out if printed is None else out / printed)
    return 0


def _cmd_plot_data(args) -> int:
    config = _load_config(args)
    report = read_report(config.output_dir)
    path = emit_plot_data(report, args.kind, config.output_dir)
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallarea",
        description="Constrained Bayes small-area estimation pipeline",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _PIPELINE_COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        sub.set_defaults(func=_cmd_pipeline)
    sub = subs.add_parser("plot-data", help="emit plot-ready CSVs from a finished run")
    _add_common(sub)
    sub.add_argument("--kind", required=True, choices=PLOT_KINDS)
    sub.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
