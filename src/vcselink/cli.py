"""Command-line front end.

``vcselink simulate <config.json>`` runs one configuration (optionally a
parameter sweep); ``vcselink preset <name>`` reproduces one of the canned
reference experiments. Output goes to --out, the VCSELINK_OUT environment
variable, or the current directory, in that order.

Exit codes: 0 success, 2 usage or ConfigError (array sizes too; before any file
is written), 3 numerical convergence failure, 1 any other error (a ValueError too).
"""

from __future__ import annotations

import argparse
import os
import sys

from .presets import PRESETS, run_preset
from .quadrature import DiskQuadratureError
from .scenario import ConfigError, run_scenario

__all__ = ["main"]

OUT_ENV_VAR = "VCSELINK_OUT"


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0."""
    error = argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcselink",
        description="Link-level simulator for VCSEL-array MIMO optical wireless backhaul.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a JSON scenario configuration")
    sim.add_argument("config", help="path to the configuration file")
    pre = sub.add_parser(
        "preset", help=f"run a canned experiment ({', '.join(sorted(PRESETS))})"
    )
    pre.add_argument("name", help="preset name")
    for cmd in (sim, pre):
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--threads", type=int, default=1, help="ignored; sweeps run serially")
        cmd.add_argument("--seed", type=_seed, default=0,
                         help="seed of the trajectory sampler of 'preset gmm-verify'; "
                         "simulate records it in meta.json, and other presets ignore it")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "."
    try:
        if args.command == "simulate":
            written = run_scenario(args.config, out_dir, seed=args.seed)
        else:
            written = run_preset(args.name, out_dir, seed=args.seed)
    except DiskQuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
