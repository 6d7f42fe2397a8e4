"""The CLI's text formats: config keys and flags, config files, the CSV schema."""

import argparse
import csv
from typing import Callable, NamedTuple

import numpy as np

from .driver import (METHODS, RHS_RULES, STOP_RULES, AdaptiveM, GeneratorSource,
                     MatrixMarketSource, SequenceSpec)
from .errors import ConfigError
from .matfun import KINDS, ScalarFunction


def parse_matrix_source(text):
    """Parse 'gen:<name>[:k=v,...]' into a GeneratorSource, else a .mtx path."""
    text = text.strip()
    if text.startswith("gen:"):
        parts = text.split(":", 2)
        name = parts[1]
        params = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                if "=" not in item:
                    raise ConfigError(f"bad generator parameter {item!r}")
                key, val = (x.strip() for x in item.split("=", 1))
                params[key] = _parse_number(val)
        return GeneratorSource(name=name, params=params)
    if text.endswith(".mtx"):
        return MatrixMarketSource(path=text)
    raise ConfigError(f"matrix source must be 'gen:...' or a .mtx path, got {text!r}")


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_number(text):
    try:
        return int(text)
    except ValueError:
        return _parse_float(text)


def _parse_method(text):
    return text.replace("-", "_")


def _parse_complex(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) not in (1, 2):
        raise ConfigError(f"shift must be 're' or 're,im', got {text!r}")
    return complex(*(_parse_float(p) for p in parts))


def _parse_bool(text):
    low = str(text).strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def read_config(path):
    """Read a 'key = value' config file; '#' starts a comment."""
    options = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (x.strip() for x in text.split("=", 1))
        if key in options:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        options[key] = val
    return options


class ConfigKey(NamedTuple):
    """A config key: its parser, the values the command line offers, help text."""

    parse: Callable[[str], object]
    help: str
    choices: tuple | None = None


# every config key; its command-line flag is --<key> with '-' for '_'
CONFIG_KEYS = {
    "function": ConfigKey(str, "scalar function f", KINDS),
    "tau": ConfigKey(_parse_float, "time step for exp"),
    "method": ConfigKey(_parse_method, "solver",
                        tuple(m.replace("_", "-") for m in METHODS)),
    "num_problems": ConfigKey(_parse_int, "number of problems in the sequence"),
    "m": ConfigKey(_parse_int, "fixed cycle length"),
    "adaptive": ConfigKey(_parse_bool, "grow the cycle length until the stop rule fires"),
    "reltol": ConfigKey(_parse_float, "tolerance of the adaptive stop rule"),
    "d": ConfigKey(_parse_int, "adaptive growth increment"),
    "m_max": ConfigKey(_parse_int, "largest adaptive cycle length"),
    "k": ConfigKey(_parse_int, "recycling subspace dimension"),
    "s": ConfigKey(_parse_int, "sketch dimension"),
    "t": ConfigKey(_parse_int, "Arnoldi truncation length"),
    "svdtol": ConfigKey(_parse_float, "relative singular value cutoff of srfom-stab"),
    "seed": ConfigKey(_parse_int, "seed of right-hand sides, perturbations and sketch"),
    "matrix": ConfigKey(parse_matrix_source, "'gen:name[:k=v,...]' or path to a .mtx file"),
    "shift": ConfigKey(_parse_complex, "spectral shift 're' or 're,im'"),
    "perturbation": ConfigKey(_parse_float, "Gaussian perturbation scale between problems"),
    "rhs": ConfigKey(str, "right-hand side rule", RHS_RULES),
    "inexact_srr": ConfigKey(_parse_bool, "keep the cached S A U on a new matrix"),
    "stop_rule": ConfigKey(str, "adaptive stop rule", STOP_RULES),
    "oracle_cap": ConfigKey(_parse_int, "largest N given a dense reference solution"),
}


_SPEC_FIELD = {"rhs": "rhs_rule", "matrix": "matrix_source"}


def _parse_option(key, text):
    parse, _, choices = CONFIG_KEYS[key]
    try:
        value = parse(text)
        if choices and value not in [parse(c) for c in choices]:
            raise ConfigError(f"expected one of {', '.join(choices)}, got {text!r}")
    except ConfigError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    return value


def build_spec(options):
    """Construct a SequenceSpec from string-valued config options."""
    unknown = set(options) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key in ("function", "method", "matrix"):
        if key not in options:
            raise ConfigError(f"missing required key {key!r}")
    values = {key: _parse_option(key, text) for key, text in options.items()}
    get = values.get
    adaptive = get("adaptive", False)
    # a key this run would not read is an error, not dropped without a word
    for key in ("reltol", "d", "m_max"):
        if key in values and not adaptive:
            raise ConfigError(f"config key {key!r} needs adaptive = true")
    if "tau" in values and values["function"] != "exp":
        raise ConfigError("config key 'tau' needs function = exp")
    if adaptive:
        m = AdaptiveM(reltol=get("reltol", 1e-8), d=get("d", 10), m_max=get("m_max", 300))
    elif "m" in values:
        m = values["m"]
    else:
        raise ConfigError("fixed cycle length requires key 'm'")
    # every other key sets the SequenceSpec field of its name, or of this one
    fields = {_SPEC_FIELD.get(key, key): value for key, value in values.items()
              if key not in ("function", "tau", "m", "adaptive", "reltol", "d", "m_max")}
    return SequenceSpec(**{"num_problems": 1, **fields}, m=m,
                        function=ScalarFunction(values["function"], tau=get("tau", 1.0)))


def build_parser():
    """The `krec` argument parser: one flag per config key."""
    parser = argparse.ArgumentParser(prog="krec",
                                     description="Recycled and sketched Krylov "
                                                 "matrix-function benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a problem sequence")
    run.add_argument("--config", help="config file (key = value lines)")
    for key, entry in CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if entry.parse is _parse_bool:  # booleans are bare switches
            run.add_argument(flag, dest=key, action="store_true", default=None,
                             help=entry.help)
        else:
            run.add_argument(flag, dest=key, choices=entry.choices, help=entry.help)
    run.add_argument("--out", help="CSV output path")
    return parser


def merge_options(args):
    """Config-file options overridden by the flags given on the command line."""
    options = read_config(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            options[key] = str(value)
    return options


CSV_HEADER = ("problem,method,m_used,matvecs,inner_products,sketches,relerr,estimate,ell,"
              "wall_time_s,converged,error")


def emit_csv(records, path):
    """Write records to CSV with the fixed schema; missing values are empty fields.

    converged is 1 or 0; error is the failure message, quoted as CSV
    requires when it holds a comma.
    """
    if not records:
        raise ValueError("no records to write")

    def opt(x, fmt="{:.17g}"):
        return "" if x is None else fmt.format(x)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow([
                r.problem_index, r.method, r.m_used, r.matvecs, r.inner_products, r.sketches,
                opt(r.relerr), opt(r.estimate_final), opt(r.ell_used, "{}"),
                f"{r.wall_time:.6f}", int(r.converged), r.error or "",
            ])


def summarize(records):
    """Totals line printed by the CLI after a run."""
    mv = sum(r.matvecs for r in records)
    ip = sum(r.inner_products for r in records)
    sk = sum(r.sketches for r in records)
    wt = sum(r.wall_time for r in records)
    return (f"totals: problems={len(records)} matvecs={mv} inner_products={ip} "
            f"sketches={sk} wall_time_s={wt:.3f}")
