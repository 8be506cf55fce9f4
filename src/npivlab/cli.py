"""Command line entry point.

Subcommands map one-to-one onto the experiments:

  npivlab demo        illposedness_demo
  npivlab svd         svd_report
  npivlab compare     estimator_comparison
  npivlab montecarlo  montecarlo

Each accepts --config PATH (JSON), --out PATH, and --seed N; flags override
the corresponding config fields. Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .estimators import NumericalError
from .harness import (
    ConfigError,
    ExperimentConfig,
    emit_csv,
    load_config,
    run_experiment,
)

_SUBCOMMANDS = {
    "demo": "illposedness_demo",
    "svd": "svd_report",
    "compare": "estimator_comparison",
    "montecarlo": "montecarlo",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npivlab",
        description="Ill-posedness experiments for instrumented regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, experiment in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=f"run the {experiment} experiment")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output CSV path (overrides config)")
        p.add_argument("--seed", type=int, help="seed (overrides config)")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    experiment = _SUBCOMMANDS[args.command]
    if args.config:
        cfg = load_config(args.config)
        if cfg.experiment != experiment:
            raise ConfigError(
                f"config file is for experiment {cfg.experiment!r} but the "
                f"{args.command!r} subcommand runs {experiment!r}"
            )
    else:
        cfg = ExperimentConfig(experiment=experiment)
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        out_path = cfg.out or f"{cfg.experiment}.csv"
        table = run_experiment(cfg)
        emit_csv(table, out_path)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out_path}: {len(table.rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
