"""Command-line front end: run one experiment or a sweep grid.

Both commands read the settings format described in
`fedsim.orchestrator.parse_settings`.
"""

import argparse
import os
import sys

from .datasets import IdxParseError
from .errors import ConfigurationError
from .orchestrator import (
    LINK_CODES, PROTOCOLS, ExperimentConfig, expand_settings, parse_settings,
    run_experiment, write_metrics,
)


def _read_settings(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read settings file {path}: {exc.strerror}") from None
    return parse_settings(text)


def _run_to_csv(config: ExperimentConfig, path) -> float:
    """Run one config, write its metrics CSV; returns the final accuracy."""
    records = run_experiment(config)
    write_metrics(records, path)
    return [r for r in records if r.device_scope == "avg"][-1].test_accuracy


def cmd_run(args) -> int:
    configs = expand_settings(
        _read_settings(args.config), protocol=args.protocol,
        link=LINK_CODES.get(args.link), channel_uses=args.T, pu_db=args.pu_db,
        pd_db=args.pd_db, num_devices=args.k, global_iterations=args.iters,
        master_seed=args.seed, data=args.data)
    if len(configs) != 1:
        raise ConfigurationError(
            f"the settings describe {len(configs)} runs; fedsim run takes "
            f"one, use fedsim sweep for a grid")
    config = configs[0]
    directory = os.path.dirname(args.out) or "."
    if not os.path.isdir(directory):
        raise ConfigurationError(f"cannot write {args.out}: no directory "
                                 f"{directory}")
    if os.path.isdir(args.out):
        raise ConfigurationError(f"cannot write {args.out}: it is a "
                                 f"directory")
    accuracy = _run_to_csv(config, args.out)
    print(f"{config.protocol} {config.uplink_mode[0]}-"
          f"{config.downlink_mode[0]} T={config.channel_uses} "
          f"seed={config.master_seed}: final accuracy "
          f"{accuracy:.4f} -> {args.out}")
    return 0


def _csv_name(config: ExperimentConfig) -> str:
    return (f"{config.protocol}_{config.uplink_mode[0]}"
            f"{config.downlink_mode[0]}_T{config.channel_uses}"
            f"_pu{config.pu_db:g}_pd{config.pd_db:g}"
            f"_seed{config.master_seed}.csv")


def cmd_sweep(args) -> int:
    configs = expand_settings(_read_settings(args.grid))
    names = [_csv_name(config) for config in configs]
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigurationError(
                f"grid points share the output file {name}; its name holds "
                f"only protocol, link, T, pu_db, pd_db and seed")
        seen.add(name)
    os.makedirs(args.out, exist_ok=True)
    print(f"sweep: {len(configs)} runs -> {args.out}")
    for config, name in zip(configs, names):
        accuracy = _run_to_csv(config, os.path.join(args.out, name))
        print(f"  {name}: accuracy {accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="cooperative training over simulated fading channels")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write a CSV")
    run.add_argument("--protocol", choices=PROTOCOLS)
    run.add_argument("--link", choices=tuple(LINK_CODES),
                     help="uplink/downlink modes, e.g. da = digital up, "
                          "analog down")
    run.add_argument("--T", type=int, dest="T",
                     help="channel uses per direction")
    run.add_argument("--pu-db", type=float, dest="pu_db")
    run.add_argument("--pd-db", type=float, dest="pd_db")
    run.add_argument("--k", type=int, help="number of devices")
    run.add_argument("--iters", type=int, help="global iterations")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--data",
                     help="synthetic[:opts] or idx:<images>,<labels>")
    run.add_argument("--config",
                     help="settings file with one value per key; flags "
                          "override")
    run.add_argument("--out", required=True, help="output CSV path")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="cross-product a grid file")
    sweep.add_argument("--grid", required=True,
                       help="settings file of key = v1, v2, ... lines; "
                            "the values are crossed")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, IdxParseError) as exc:
        message = str(exc)
    except OSError as exc:  # a data file to read, or an output to create
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    print(f"fedsim: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
