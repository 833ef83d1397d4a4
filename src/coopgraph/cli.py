"""Command-line front door.

Subcommands: train, eval, transfer, ablate, oracle, export-topology.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .env import TaskNameError
from .runner import (
    ConfigError,
    cmd_ablate,
    cmd_eval,
    cmd_export_topology,
    cmd_oracle,
    cmd_train,
    cmd_transfer,
    load_run_config,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run config JSON file")
    p.add_argument("--seed", type=int, help="replace the seed list with this single seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--task", help="task name, e.g. CSI-27/3/9")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="dotted config override, e.g. env.t_max=150 or train.lr=0.0002",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train graph operators on a task")
    _add_common(p)

    p = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dump-trajectory", help="write per-step trajectories (first seed) as JSONL")

    p = sub.add_parser("transfer", help="extend a trained policy to a scaled-up task")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target-task", required=True)
    p.add_argument("--fan-out", type=int, required=True)

    p = sub.add_parser("ablate", help="sweep one hyperparameter, emit CSV")
    _add_common(p)
    p.add_argument("--sweep", choices=["clusters", "primitives"], required=True)
    p.add_argument("--values", required=True, help="comma list, e.g. 8,12,14 or six,none")

    p = sub.add_parser("oracle", help="scripted-operator solvability baseline")
    _add_common(p)

    p = sub.add_parser("export-topology", help="dump DOT/JSON graph snapshots from one episode")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episode-seed", type=int, default=0)
    p.add_argument("--steps", default="0,20,90,130", help="comma list of step indices")

    return parser


def _run_config(args) -> "RunConfig":
    direct = {}
    if args.task:
        direct["task"] = args.task
    if args.out:
        direct["out_dir"] = args.out
    if args.seed is not None:
        direct["seeds"] = [args.seed]
    return load_run_config(args.config, args.overrides, **direct)


def _steps(text: str) -> list[int]:
    """The step indices of a comma list; an entry that is no integer is a
    config error naming it."""
    steps = []
    for entry in (s.strip() for s in text.split(",")):
        if entry:
            try:
                steps.append(int(entry))
            except ValueError:
                raise ConfigError(f"--steps entry {entry!r} is not an integer") from None
    return steps


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = _run_config(args)
        if args.command == "train":
            summaries = cmd_train(rc)
            print(json.dumps(summaries, indent=2))
        elif args.command == "eval":
            report = cmd_eval(rc, args.checkpoint, dump_trajectory=args.dump_trajectory)
            print(json.dumps(report, indent=2))
        elif args.command == "transfer":
            report = cmd_transfer(rc, args.checkpoint, args.target_task, args.fan_out)
            print(json.dumps(report, indent=2))
        elif args.command == "ablate":
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            if not values:
                raise ConfigError("--values must list at least one setting")
            path = cmd_ablate(rc, args.sweep, values)
            print(f"wrote {path}")
        elif args.command == "oracle":
            report = cmd_oracle(rc)
            print(json.dumps(report, indent=2))
        elif args.command == "export-topology":
            written = cmd_export_topology(rc, args.checkpoint, args.episode_seed, _steps(args.steps), args.out)
            for path in written:
                print(path)
    except (ConfigError, TaskNameError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
