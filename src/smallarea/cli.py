"""Command-line interface.

Subcommands: fit (sampler only), cv (selection curve only), estimate
(point estimates; the config's bootstrap settings are ignored),
bootstrap (estimates plus MSE), run (everything), plot-data (tidy CSVs
from a finished run; of the config it reads only ``output_dir``).  fit,
cv, estimate, bootstrap and run are all the same
:func:`~smallarea.pipeline.run_pipeline` call, stopped after a
stage; each prints the path of the file it was asked for.  Each command
accepts only the override flags its stages read (``_FLAGS``, and each
command's row of ``_COMMANDS``); any other flag, and any abbreviation of
a flag, is a usage error.  A flag's value is the text of a config key,
parsed and checked with the file's by :meth:`RunConfig.from_file`.
Exit codes: 0 success, 2 validation or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .exceptions import NumericalError, ValidationError
from .pipeline import PLOT_KINDS, RunConfig, emit_plot_data, read_report, run_pipeline

# flag -> (the config key whose value it gives, metavar and help)
_FLAGS = {
    "--seed": ("seed", "N", "override the master seed"),
    "--out": ("output_dir", "DIR", "override the output directory"),
    "--gamma": ("gamma", "X", "fixed smoothing factor"),
    "--gamma-grid": ("gamma_grid", "LO,HI,N", "log grid of candidate smoothing factors"),
    "--benchmark-target": ("benchmark_target", "T", "override the benchmark target"),
    "--bootstrap-reps": ("bootstrap_replicates", "B", "override the bootstrap replicate count"),
}
_ALL = tuple(_FLAGS)
_ESTIMATE = _ALL[:-1]  # every flag but --bootstrap-reps
_CV = ("--seed", "--out", "--gamma-grid", "--benchmark-target")

# command -> (help text, stage run_pipeline stops after, file whose path is
# printed, or None for the output directory, the flags the command reads);
# plot-data runs no stage
_COMMANDS = {
    "fit": ("run the Gibbs sampler only", "gibbs", "fit.csv", ("--seed", "--out")),
    "cv": ("compute the cross-validation curve only", "cross-validation", "cv_curve.csv", _CV),
    "estimate": ("full point estimates, no bootstrap", "report", "estimates.csv", _ESTIMATE),
    "bootstrap": ("estimates plus bootstrap MSE", "report", "bootstrap_mse.csv", _ALL),
    "run": ("everything the config asks for", "report", None, _ALL),
    "plot-data": ("emit plot-ready CSVs from a finished run", None, None, ("--out",)),
}


def _entries(args: argparse.Namespace) -> dict[str, str]:
    """The config entries the command's flags give."""
    given = vars(args)
    entries = {key: given[key] for key, *_ in _FLAGS.values() if given.get(key) is not None}
    if "gamma" in entries or "gamma_grid" in entries:  # exclusive flags; either clears the file's choice
        entries = {"gamma": "", "gamma_grid": "", **entries}
    if args.command == "estimate":  # no bootstrap, whatever the file asks
        entries["bootstrap_replicates"] = "0"
    return entries


def _load_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig.from_file(args.config, _entries(args))


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    if args.command == "bootstrap" and config.bootstrap_replicates < 1:
        raise ValidationError("bootstrap requires bootstrap_replicates >= 1 (or --bootstrap-reps)")
    _, stop_after, printed, _ = _COMMANDS[args.command]
    run_pipeline(config, stop_after=stop_after)
    out = Path(config.output_dir)
    print(out if printed is None else out / printed)
    return 0


def _cmd_plot_data(args) -> int:
    out = RunConfig.output_dir_from_file(args.config, _entries(args))
    print(emit_plot_data(read_report(out), args.kind, out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallarea",
        description="Constrained Bayes small-area estimation pipeline",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, stop_after, _, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text, allow_abbrev=False)
        sub.add_argument("--config", required=True, type=Path, help="flat key/value config file")
        gamma = sub.add_mutually_exclusive_group() if "--gamma" in flags else sub
        for flag in flags:
            key, metavar, about = _FLAGS[flag]
            group = gamma if flag.startswith("--gamma") else sub
            group.add_argument(flag, dest=key, metavar=metavar, help=about)
        if stop_after is None:
            sub.add_argument("--kind", required=True, choices=PLOT_KINDS)
        sub.set_defaults(func=_cmd_pipeline if stop_after else _cmd_plot_data)
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
