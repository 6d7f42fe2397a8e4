"""Benchmark command-line interface: `krec run --config <file> [overrides]`."""

import sys

from .config import build_parser, build_spec, emit_csv, merge_options, summarize
from .driver import run_sequence
from .errors import KrecError


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        records = run_sequence(build_spec(merge_options(args)))
    except (KrecError, OSError) as exc:  # an OSError names the path it could not use
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
        try:
            emit_csv(records, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
