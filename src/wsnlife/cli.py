"""Command line entry points: validate, simulate, sweep.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import run
from .errors import ConfigError
from .experiment import config_for, emit_series, parse_config, run_experiment, series_name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnlife",
        description="Deterministic sensor-network lifetime simulator under topology control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a single configuration")
    simulate.add_argument("--config", required=True, help="path to the JSON config")
    simulate.add_argument("--out", default=None, help="output directory")
    simulate.add_argument("--seed", type=int, default=None, help="deployment seed override")

    sweep = sub.add_parser("sweep", help="run the tc x tm x seed grid")
    sweep.add_argument("--config", required=True, help="path to the JSON config")

    validate = sub.add_parser("validate", help="check a config and exit")
    validate.add_argument("--config", required=True, help="path to the JSON config")

    return parser


def _cmd_simulate(args) -> int:
    spec = parse_config(args.config)
    seed = args.seed if args.seed is not None else spec.base.deployment.seed
    tm_name = spec.base.tm.value if spec.base.tm is not None else "None"
    config = config_for(spec, spec.base.tc.value, tm_name, seed)
    out = Path(args.out) if args.out is not None else spec.output_dir
    out.mkdir(parents=True, exist_ok=True)
    result = run(config)
    path = emit_series(result, out / series_name(config.tc.value, tm_name, seed))
    summary = result.final_summary
    print(f"wrote {path}")
    print(
        f"steps={summary['steps']} alive={summary['alive']} "
        f"delivered={summary['packets_delivered']} dropped={summary['packets_dropped']}"
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_config(args.config)
    written = run_experiment(spec)
    print(f"wrote {len(written)} files to {spec.output_dir}")
    return 0


def _cmd_validate(args) -> int:
    parse_config(args.config)
    print("configuration ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
