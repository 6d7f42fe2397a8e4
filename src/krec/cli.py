"""Benchmark command-line interface: `krec run --config <file> [overrides]`."""

import argparse
import sys

from .driver import CONFIG_KEYS, build_spec, emit_csv, read_config, run_sequence, summarize
from .errors import KrecError


def _build_parser():
    parser = argparse.ArgumentParser(prog="krec",
                                     description="Recycled and sketched Krylov "
                                                 "matrix-function benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a problem sequence")
    run.add_argument("--config", help="config file (key = value lines)")
    for key, entry in CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if entry.is_switch:
            run.add_argument(flag, dest=key, action="store_true", default=None,
                             help=entry.help)
        else:
            run.add_argument(flag, dest=key, choices=entry.choices, help=entry.help)
    run.add_argument("--out", help="CSV output path")
    return parser


def _merge_options(args):
    """Config-file options overridden by the flags given on the command line."""
    options = read_config(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            options[key] = str(value)
    return options


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        spec = build_spec(_merge_options(args))
        records = run_sequence(spec)
    except KrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        relerr = "n/a" if rec.relerr is None else f"{rec.relerr:.3e}"
        status = "ok" if rec.converged else "not converged"
        if rec.error:
            status = rec.error
        print(f"problem {rec.problem_index}: m={rec.m_used} relerr={relerr} "
              f"matvecs={rec.matvecs} sketches={rec.sketches} [{status}]")
    print(summarize(records))
    if args.out:
        emit_csv(records, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
