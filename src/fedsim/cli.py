"""Command-line front end: run one experiment or replay a sweep grid."""

import argparse
import itertools
import os
import sys

from .errors import ConfigurationError
from .orchestrator import (
    ExperimentConfig, config_from_file, parse_config_value, resolve_pd_offset,
    run_experiment, with_overrides, write_metrics,
)

LINK_CODES = {"dd": ("digital", "digital"), "da": ("digital", "analog"),
              "ad": ("analog", "digital"), "aa": ("analog", "analog")}


def _link_modes(code: str):
    if code not in LINK_CODES:
        raise ConfigurationError(f"unknown link code {code!r}; pick one of "
                                 f"{'/'.join(LINK_CODES)}")
    return LINK_CODES[code]


def _run_overrides(args) -> dict:
    overrides = dict(protocol=args.protocol, channel_uses=args.T,
                     pu_db=args.pu_db, pd_db=args.pd_db, num_devices=args.k,
                     global_iterations=args.iters, master_seed=args.seed,
                     data=args.data)
    if args.link is not None:
        overrides["uplink_mode"], overrides["downlink_mode"] = \
            _link_modes(args.link)
    return overrides


def cmd_run(args) -> int:
    overrides = _run_overrides(args)
    if args.config:
        config = config_from_file(args.config, **overrides)
    else:
        config = with_overrides(ExperimentConfig(), **overrides)
    records = run_experiment(config)
    write_metrics(records, args.out)
    final = [r for r in records if r.device_scope == "avg"][-1]
    print(f"{config.protocol} {config.uplink_mode[0]}-"
          f"{config.downlink_mode[0]} T={config.channel_uses} "
          f"seed={config.master_seed}: final accuracy "
          f"{final.test_accuracy:.4f} -> {args.out}")
    return 0


def _parse_grid_value(key: str, raw: str):
    if key == "link":
        return _link_modes(raw)
    return parse_config_value(key, raw)


def parse_grid_text(text: str) -> dict:
    """key = v1, v2, ... lines; `link` expands to uplink/downlink modes and
    `pd_db` accepts `pu+<offset>` to track the uplink SNR."""
    grid = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"grid line {number}: expected key = values")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values = [v.strip() for v in raw.split(",") if v.strip()] \
            if key != "data" else [raw.strip()]
        try:
            grid[key] = [_parse_grid_value(key, v) for v in values]
        except ConfigurationError as exc:
            raise ConfigurationError(f"grid line {number}: {exc}") from None
    return grid


def cmd_sweep(args) -> int:
    with open(args.grid, "r", encoding="utf-8") as f:
        grid = parse_grid_text(f.read())
    os.makedirs(args.out, exist_ok=True)
    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    print(f"sweep: {len(combos)} runs -> {args.out}")
    for combo in combos:
        overrides = dict(zip(keys, combo))
        link = overrides.pop("link", None)
        if link is not None:
            overrides["uplink_mode"], overrides["downlink_mode"] = link
        config = with_overrides(ExperimentConfig(),
                                **resolve_pd_offset(overrides))
        name = (f"{config.protocol}_{config.uplink_mode[0]}"
                f"{config.downlink_mode[0]}_T{config.channel_uses}"
                f"_pu{config.pu_db:g}_pd{config.pd_db:g}"
                f"_seed{config.master_seed}.csv")
        records = run_experiment(config)
        write_metrics(records, os.path.join(args.out, name))
        final = [r for r in records if r.device_scope == "avg"][-1]
        print(f"  {name}: accuracy {final.test_accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="cooperative training over simulated fading channels")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write a CSV")
    run.add_argument("--protocol", choices=("il", "fl", "fd", "hfd"))
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
    run.add_argument("--config", help="key=value config file; flags override")
    run.add_argument("--out", required=True, help="output CSV path")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="cross-product a grid file")
    sweep.add_argument("--grid", required=True,
                       help="key = v1, v2, ... file; list-valued keys are "
                            "crossed")
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"fedsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
