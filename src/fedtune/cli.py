"""Command-line entry point: run, validate and inspect experiments.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

import argparse
import sys

from . import runner
from .common import ConfigurationError, FedTuneError
from .config import load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedtune",
        description="Budgeted hyperparameter optimization for a simulated "
                    "federated-learning world.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to the YAML experiment config")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides", help="override a config field (dotted keys)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common],
                           help="run the experiment described by a config file")
    p_run.add_argument("--output", default=None, help="override the output directory")
    sub.add_parser("validate", parents=[common], help="validate a config file and exit")
    sub.add_parser("grid", parents=[common], help="print the low-fidelity grid and its size")
    return parser


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.overrides)
    out_dir = args.output or cfg["output_dir"]
    runner.prepare_output_dir(out_dir)  # fail before any compute
    report = runner.run_experiment(cfg)
    for sr in report.per_seed:
        for t in sr.trials:
            status = "failed" if t.failed else "ok"
            print(f"seed={sr.seed} trial={t.trial_index} config={t.config_id} "
                  f"objective={t.objective:.6g} accuracy={t.accuracy:.4f} [{status}]")
        print(f"seed={sr.seed} best config={sr.best.config_id} "
              f"accuracy={sr.best.accuracy:.4f} makespan={sr.makespan:.2f}")
    paths = runner.emit_metrics(report, out_dir)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_validate(args) -> int:
    load_config(args.config, args.overrides)
    print("config ok")
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = load_config(args.config, args.overrides)
    space = cfg.search_space()
    total = 1
    for dim in space.dims:
        total *= len(dim.points)
        rendered = ", ".join(str(p) for p in dim.points)
        print(f"{dim.name} ({dim.scale}, {len(dim.points)} points): {rendered}")
    print(f"grid cardinality: {total}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "validate": cmd_validate, "grid": cmd_grid}
    try:
        return handlers[args.command](args)
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (FedTuneError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
