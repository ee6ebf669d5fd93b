"""Command-line entry point.

Exit codes: 0 all assertions passed, 1 assertion failure, 2 configuration
error (bad arguments, bad config file, a key outside the command's table in
`commands.COMMANDS`, a bad value of a key in it, missing inputs).  Every
error ends in one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ..errors import BudgetError, CertlabError, ConfigError, FormatError
from . import commands
from .config import parse_config, read_config, read_text_file


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by later calls; parsing leaves no state in it."""
    # usage errors raise ArgumentError instead of printing usage and exiting;
    # parse_args turns them into one-line ConfigErrors
    parser = argparse.ArgumentParser(prog="certlab", exit_on_error=False)
    sub = parser.add_subparsers(dest="command")
    for name in commands.COMMANDS:
        p = sub.add_parser(name, exit_on_error=False)
        p.add_argument("--config", type=str, default=None, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", type=str, default=".", help="output directory")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line, or a one-line ConfigError; --help still
    prints and exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # before the command, argparse would take the option's value for the command
    option = argv[0].partition("=")[0] if argv else ""
    if option in ("--seed", "--config", "--out"):
        raise ConfigError(f"option {option} must follow the command (certlab COMMAND {option} VALUE)")
    try:
        args, extra = build_parser().parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ConfigError(str(exc)) from None
    if extra:
        raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
    if args.command is None:
        raise ConfigError(f"missing command (choose from {', '.join(commands.COMMANDS)})")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        text = "" if args.config is None else read_text_file(args.config, "config file")
        cfg = read_config(parse_config(text), commands.COMMANDS[args.command], args.command)
        seed = args.seed if args.seed is not None else cfg["seed"]
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory cannot be made: {args.out} ({exc.strerror})") from None
        code = getattr(commands, "cmd_" + args.command.replace("-", "_"))(cfg, out_dir, seed)
    except (ConfigError, FormatError, BudgetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CertlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code != 0:
        print("assertion failure (see report files)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
