"""Command line entry point.

Commands map one-to-one onto the experiments:

  npivlab demo        illposedness_demo
  npivlab svd         svd_report
  npivlab compare     estimator_comparison
  npivlab montecarlo  montecarlo

One parser takes the command and --config PATH (JSON), --out PATH and
--seed N in any order; flags override the config. Exit codes: 0 success,
2 configuration error or a size too large to allocate, 3 numerical failure.
"""

from __future__ import annotations

import gc

# The imports below leave about 22K objects, numpy's and the interpreter's,
# that live until the process exits. Collecting them frees nothing that
# matters, so the collector stays off while they load; frozen, they are
# skipped by every later collection, the interpreter's final ones at exit
# included. A collector the importer had switched off stays off.
_collecting = gc.isenabled()
gc.disable()
try:
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

    gc.freeze()
finally:
    if _collecting:
        gc.enable()

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
    commands = "; ".join(f"{c} runs {e}" for c, e in _SUBCOMMANDS.items())
    parser.add_argument("command", choices=_SUBCOMMANDS, help=commands)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output CSV path (overrides config)")
    parser.add_argument("--seed", type=int, help="seed (overrides config)")
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
    except MemoryError as exc:
        # numpy names the array it could not allocate; a bare MemoryError
        # (a list in leggauss) gets the statement that raised it
        import traceback  # imported here, so a run that succeeds skips it

        statement = traceback.extract_tb(exc.__traceback__)[-1].line
        print(f"config error: out of memory: {str(exc) or statement}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out_path}: {len(table.rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
