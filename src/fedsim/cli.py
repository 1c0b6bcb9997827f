"""Command-line front end: run one experiment or a sweep grid.

Both commands read the settings format described in
`fedsim.orchestrator.parse_settings`. Each value flag of `fedsim run` is
one settings value, read as a settings line reads it: `--pd-db pu+10`
means `pd_db = pu+10`.
"""

import argparse
import codecs
import os
import sys

from .datasets import IdxParseError
from .errors import ConfigurationError, DivergenceError
from .orchestrator import (
    PROTOCOLS, ExperimentConfig, expand_settings, parse_settings, parse_value,
    run_experiment, write_metrics,
)

# The value flags of `fedsim run`: (flag, settings key, help).
_RUN_FLAGS = (
    ("--protocol", "protocol", "/".join(PROTOCOLS)),
    ("--link", "link", "uplink then downlink mode, e.g. dd or ai: "
                       "d = digital, a = analog, i = ideal"),
    ("--T", "channel_uses", "channel uses per direction, an integer"),
    ("--pu-db", "pu_db", "uplink SNR in dB"),
    ("--pd-db", "pd_db", "downlink SNR in dB, or pu+<offset>"),
    ("--k", "num_devices", "number of devices"),
    ("--iters", "global_iterations", "global iterations"),
    ("--seed", "master_seed", "master seed"),
    ("--data", "data", "synthetic[:opts] or idx:<images>,<labels>"),
)


def _read_settings(path) -> dict:
    """The settings of a UTF-8 file, which may start with a byte order mark;
    a byte that is not UTF-8 is an error on its line."""
    if path is None:
        return {}
    try:
        with open(path, "rb") as f:
            data = f.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read settings file {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "?" stands for the bad byte, which begins a line or continues the
        # last one; `splitlines` counts lines as `parse_settings` does.
        number = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ConfigurationError(
            f"{path}: line {number}: not UTF-8 text") from None
    return parse_settings(text)


def _run_to_csv(config: ExperimentConfig, path) -> float:
    """Run one config, write its metrics CSV; returns the final accuracy."""
    records = run_experiment(config)
    write_metrics(records, path)
    return [r for r in records if r.device_scope == "avg"][-1].test_accuracy


def cmd_run(args) -> int:
    settings = _read_settings(args.config)
    for flag, key, _ in _RUN_FLAGS:
        raw = getattr(args, key)
        if raw is not None:
            try:
                settings[key] = [parse_value(key, raw)]
            except ConfigurationError as exc:
                raise ConfigurationError(f"{flag}: {exc}") from None
    configs = expand_settings(settings)
    if len(configs) != 1:
        raise ConfigurationError(
            f"the settings describe {len(configs)} runs; fedsim run takes "
            f"one, use fedsim sweep for a grid")
    config = configs[0]
    if not args.out:
        raise ConfigurationError("--out: the CSV path is empty")
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


# The settings keys that every sweep file name spells out.
_NAME_KEYS = ("protocol", "link", "uplink_mode", "downlink_mode",
              "channel_uses", "pu_db", "pd_db", "master_seed")


def _csv_name(config: ExperimentConfig, varied) -> str:
    """protocol, link, T, the two SNRs and the seed of one grid point, then
    `_<key><value>` for each key of `varied`, a float written by `:g`.

    A grid line gives `data` and `model` one value each, so every key that
    can vary outside the name's first six holds a number or a boolean.
    """
    extra = ""
    for key in varied:
        value = getattr(config, key)
        extra += f"_{key}{value:g}" if isinstance(value, float) \
            else f"_{key}{value}"
    return (f"{config.protocol}_{config.uplink_mode[0]}"
            f"{config.downlink_mode[0]}_T{config.channel_uses}"
            f"_pu{config.pu_db:g}_pd{config.pd_db:g}"
            f"_seed{config.master_seed}{extra}.csv")


def _sweep_points(settings: dict) -> list:
    """(config, CSV name) of every point of a sweep grid.

    A name holds the keys of `_csv_name` and every other key the grid gives
    more than one value, in the grid's order. Two points whose names read
    the same are one ConfigurationError.
    """
    configs = expand_settings(settings)
    varied = [key for key, values in settings.items()
              if len(values) > 1 and key not in _NAME_KEYS]
    names = [_csv_name(config, varied) for config in configs]
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigurationError(
                f"grid points share the output file {name}; no key in its "
                f"name tells them apart")
        seen.add(name)
    return list(zip(configs, names))


def cmd_sweep(args) -> int:
    points = _sweep_points(_read_settings(args.grid))
    os.makedirs(args.out, exist_ok=True)
    print(f"sweep: {len(points)} runs -> {args.out}")
    for config, name in points:
        path = os.path.join(args.out, name)
        try:
            accuracy = _run_to_csv(config, path)
        except DivergenceError as exc:
            raise DivergenceError(f"{path}: {exc}") from None
        print(f"  {name}: accuracy {accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="cooperative training over simulated fading channels",
        epilog="Settings files hold `key = v1, v2, ...` lines; the keys are "
               "the fields of fedsim.orchestrator.ExperimentConfig plus "
               "`link`, and `pd_db = pu+<offset>` follows pu_db.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one experiment and write a CSV",
        description="Each value flag is one settings line: --T 20 is "
                    "channel_uses = 20, --pd-db pu+10 is pd_db = pu+10.")
    for flag, key, text in _RUN_FLAGS:
        run.add_argument(flag, dest=key, metavar=key, help=text)
    run.add_argument("--config",
                     help="settings file of key = value lines; flags "
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
    except (ConfigurationError, DivergenceError, IdxParseError) as exc:
        message = str(exc)
    except OSError as exc:  # a data file to read, or an output to create
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    print(f"fedsim: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
