"""Problem-sequence orchestration: configuration, run loop, oracles, CSV."""

import csv
import inspect
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from .approximants import AugmentedBasis, KrylovBasis, SketchedBasis
from .arnoldi import MODE_FULL, MODE_TRUNCATED, arnoldi_build, arnoldi_extend
from .counters import Counters
from .errors import ConfigError, KrecError
from .matfun import ScalarFunction
from .matrices import GENERATORS, perturb_sparsity_gaussian
from .mmio import read_matrix_market
from .recycle import RecycleState
from .sketch import sketch_new
from .sparse import csr_matvec  # noqa: F401  seqbench's tracer test resolves it here

METHODS = ("fom", "sfom", "rfom", "srfom", "srfom_stab")


@dataclass(frozen=True)
class AdaptiveM:
    """Adaptive cycle-length protocol: grow by d until the stop rule fires."""

    reltol: float
    d: int = 10
    m_max: int = 300

    def __post_init__(self):
        if not self.reltol > 0:  # also rejects nan
            raise ConfigError("reltol must be positive")
        if self.d < 1 or self.m_max < self.d:
            raise ConfigError("need 1 <= d <= m_max")


@dataclass(frozen=True)
class GeneratorSource:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MatrixMarketSource:
    path: str


@dataclass(frozen=True)
class SequenceSpec:
    function: ScalarFunction
    method: str
    num_problems: int
    m: "int | AdaptiveM"
    matrix_source: "GeneratorSource | MatrixMarketSource"
    k: int = 0
    s: int = 0
    t: int = 2
    svdtol: float = 1e-14
    seed: int = 0
    shift: complex = 0.0
    perturbation: float = 0.0      # sparsity-Gaussian scale; 0 disables
    rhs_rule: str = "fresh"        # "fresh" | "chain"
    inexact_srr: bool = False
    stop_rule: str = "estimator"   # "estimator" | "oracle"
    oracle_cap: int = 1500
    timing_reps: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.num_problems < 1:
            raise ConfigError("num_problems must be at least 1")
        if self.rhs_rule not in ("fresh", "chain"):
            raise ConfigError(f"unknown rhs rule {self.rhs_rule!r}")
        if self.stop_rule not in ("estimator", "oracle"):
            raise ConfigError(f"unknown stop rule {self.stop_rule!r}")
        if self.t < 1:
            raise ConfigError("need t >= 1")
        m_top, m_key = ((self.m.m_max, "m_max") if isinstance(self.m, AdaptiveM)
                        else (self.m, "m"))
        if self.uses_sketching:
            if self.s <= 0:
                raise ConfigError("sketched methods require s > 0")
            if m_top >= self.s:
                raise ConfigError(f"need {m_key} < s for sketched methods")
        if self.uses_recycling and not 0 <= self.k < m_top:
            raise ConfigError(f"need 0 <= k < {m_key} for recycled methods")

    @property
    def uses_sketching(self):
        return self.method in ("sfom", "srfom", "srfom_stab")

    @property
    def uses_recycling(self):
        return self.method in ("rfom", "srfom", "srfom_stab")


@dataclass
class RunRecord:
    problem_index: int
    method: str
    m_used: int
    matvecs: int
    inner_products: int
    sketches: int
    relerr: float | None = None
    estimate_final: float | None = None
    ell_used: int | None = None
    wall_time: float = 0.0
    converged: bool = True
    error: str | None = None


def load_matrix(source, shift=0.0):
    """Materialize a matrix source and apply the spectral shift."""
    if isinstance(source, MatrixMarketSource):
        A = read_matrix_market(source.path)
    elif isinstance(source, GeneratorSource):
        try:
            gen = GENERATORS[source.name]
        except KeyError:
            raise ConfigError(f"unknown generator {source.name!r}") from None
        try:
            A = gen(**source.params)
        except TypeError:
            # a parameter the generator does not take is a configuration error
            try:
                inspect.signature(gen).bind(**source.params)
            except TypeError as exc:
                raise ConfigError(f"generator {source.name!r}: {exc}") from None
            raise
    else:
        raise ConfigError(f"unsupported matrix source {source!r}")
    if shift != 0:
        A = A.add_scaled_identity(shift)
    return A


class DenseOracle:
    """Dense reference solutions f(A)b with a per-epoch cached factorization."""

    _EXP_COND_LIMIT = 1e8

    def __init__(self, f, cap=1500):
        self.f = f
        self.cap = cap
        self._epoch = object()
        self._state = None

    def set_matrix(self, A, epoch):
        if A.nrows > self.cap:
            self._state = None
            self._epoch = epoch
            return
        if epoch == self._epoch and self._state is not None:
            return
        dense = A.to_dense()
        if self.f.kind == "inv":
            self._state = ("lu", scipy.linalg.lu_factor(dense))
        else:
            lam, W = np.linalg.eig(dense)
            if self.f.kind == "exp" and np.linalg.cond(W) > self._EXP_COND_LIMIT:
                self._state = ("expm", scipy.linalg.expm(self.f.tau * dense))
            else:
                self.f.check_spectrum(lam)
                self._state = ("eig", (lam, W, scipy.linalg.lu_factor(W)))
        self._epoch = epoch

    def solve(self, b):
        if self._state is None:
            return None
        kind, data = self._state
        if kind == "lu":
            return scipy.linalg.lu_solve(data, b)
        if kind == "expm":
            return data @ b
        lam, W, luW = data
        return W @ (self.f(lam) * scipy.linalg.lu_solve(luW, b))


def oracle_exact(A, b, f, cap=1500):
    """One-shot dense reference f(A)b; None when A exceeds the size cap."""
    oracle = DenseOracle(f, cap=cap)
    oracle.set_matrix(A, epoch=0)
    return oracle.solve(np.asarray(b, dtype=np.complex128))


def _new_basis(spec, A, S, recycle, epoch, counters):
    """The working basis of one problem, seeded with the recycling state."""
    if spec.uses_sketching:
        return SketchedBasis(A, S, recycle, epoch, counters,
                             stabilized=spec.method == "srfom_stab",
                             svdtol=spec.svdtol, inexact=spec.inexact_srr)
    if spec.uses_recycling:
        if recycle.matrix_epoch != epoch:
            recycle.AU = None  # stale; let it go before A U is formed again
        return AugmentedBasis(A, recycle.U, recycle.AU, counters, matrix_epoch=epoch)
    return KrylovBasis(counters)


def _solve(spec, A, b, basis, counters, oracle):
    """Fixed or adaptive solve of one problem: extend the basis, extract, test.

    Returns (approximant, m_used, converged, last estimate).
    """
    adaptive = isinstance(spec.m, AdaptiveM)
    m = spec.m.d if adaptive else spec.m
    mode = MODE_TRUNCATED if spec.uses_sketching else MODE_FULL
    prev_coeffs = fac = None
    while True:
        fac = (arnoldi_build(A, b, m, mode=mode, t=spec.t, counters=counters)
               if fac is None else arnoldi_extend(fac, A, m, counters=counters))
        basis.extend(fac)
        approx = basis.approximant(b, spec.function)
        if not adaptive:
            return approx, fac.m, True, None
        stop, est = _check_stop(spec, approx, prev_coeffs, oracle, b, basis)
        if stop or fac.m < m or m >= spec.m.m_max:
            return approx, fac.m, stop or fac.m < m, est  # breakdown is exact
        prev_coeffs = approx.coeffs
        m = min(m + spec.m.d, spec.m.m_max)


def _check_stop(spec, approx, prev_coeffs, oracle, b, basis):
    """Evaluate the configured stopping rule; returns (stop, recorded estimate).

    The estimate is ||y - y_prev||_B / ||y||_B with y_prev zero-padded at the end.
    """
    if spec.stop_rule == "oracle":
        exact = oracle.solve(b)
        err = np.linalg.norm(approx.full_vector() - exact) / np.linalg.norm(exact)
        return bool(err <= spec.m.reltol), float(err)
    if prev_coeffs is None:
        return False, None
    y = approx.coeffs
    diff = y - np.pad(prev_coeffs, (0, y.shape[0] - prev_coeffs.shape[0]))
    scale = basis.norm(y)
    rel = basis.norm(diff) / scale if scale > 0 else np.inf
    return bool(rel <= spec.m.reltol), float(rel)


def _run_once(spec, A0):
    """One pass over the sequence; returns the per-problem records."""
    f = spec.function
    N = A0.nrows
    rng_rhs = np.random.default_rng([spec.seed, 1])
    rng_pert = np.random.default_rng([spec.seed, 2])
    pert_seeds = rng_pert.integers(0, 2**62, size=spec.num_problems)
    S = sketch_new(N, spec.s, spec.seed) if spec.uses_sketching else None
    oracle = DenseOracle(f, cap=spec.oracle_cap)
    A = A0
    epoch = 0
    recycle = RecycleState.empty(N, k_target=spec.k)
    b_next = None
    records = []
    for i in range(spec.num_problems):
        if i > 0 and spec.perturbation > 0:
            A = perturb_sparsity_gaussian(A, spec.perturbation, int(pert_seeds[i]))
            epoch = i
        if spec.rhs_rule == "chain" and b_next is not None:
            b = b_next
        else:
            b = (rng_rhs.standard_normal(N) + 1j * rng_rhs.standard_normal(N)) / np.sqrt(2.0)
        oracle.set_matrix(A, epoch)
        counters = Counters()
        rec = RunRecord(problem_index=i, method=spec.method, m_used=0,
                        matvecs=0, inner_products=0, sketches=0)
        t0 = time.perf_counter()
        try:
            basis = _new_basis(spec, A, S, recycle, epoch, counters)
            approx, rec.m_used, rec.converged, rec.estimate_final = _solve(
                spec, A, b, basis, counters, oracle)
            rec.ell_used = approx.ell
            if spec.uses_recycling and spec.k > 0:
                # a failed subspace update must not void a finished solve:
                # fall back to the previous recycling state
                try:
                    recycle = basis.recycle(spec.k)
                except KrecError as exc:
                    warnings.warn(f"recycling update skipped: {exc}", stacklevel=2)
        except KrecError as exc:
            rec.converged = False
            rec.error = f"{type(exc).__name__}: {exc}"
            approx = None
        rec.wall_time = time.perf_counter() - t0
        rec.matvecs, rec.inner_products, rec.sketches = counters.snapshot()
        if approx is not None:
            full = approx.full_vector()
            exact = oracle.solve(b)
            if exact is not None:
                rec.relerr = float(np.linalg.norm(full - exact) / np.linalg.norm(exact))
            if spec.rhs_rule == "chain":
                b_next = full
        elif spec.rhs_rule == "chain":
            b_next = None  # restart the chain after a failure
        records.append(rec)
        # let the previous problem's bases go before the next problem is solved
        approx = basis = None
    return records


def run_sequence(spec):
    """Execute the sequence timing_reps times.

    All repetitions produce identical counters and errors (same seeds); the
    reported wall times are the per-problem medians over the repetitions.
    """
    A0 = load_matrix(spec.matrix_source, spec.shift)
    if (spec.stop_rule == "oracle" and isinstance(spec.m, AdaptiveM)
            and A0.nrows > spec.oracle_cap):
        raise ConfigError(f"oracle stopping requires N = {A0.nrows} within the "
                          f"oracle cap {spec.oracle_cap}")
    reps = max(1, spec.timing_reps)
    all_runs = [_run_once(spec, A0) for _ in range(reps)]
    records = all_runs[-1]
    for idx, rec in enumerate(records):
        rec.wall_time = float(np.median([run[idx].wall_time for run in all_runs]))
    return records


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
        for lineno, raw in enumerate(fh, start=1):
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

    @property
    def is_switch(self):
        """Booleans are bare flags on the command line."""
        return self.parse is _parse_bool


# every config key; its command-line flag is --<key> with '-' for '_'
CONFIG_KEYS = {
    "function": ConfigKey(str, "scalar function f", ("invsqrt", "inv", "exp")),
    "tau": ConfigKey(_parse_float, "time step for exp"),
    "method": ConfigKey(_parse_method, "solver",
                        ("fom", "sfom", "rfom", "srfom", "srfom-stab")),
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
    "rhs": ConfigKey(str, "right-hand side rule", ("fresh", "chain")),
    "inexact_srr": ConfigKey(_parse_bool, "keep the cached S A U on a new matrix"),
    "stop_rule": ConfigKey(str, "adaptive stop rule", ("estimator", "oracle")),
    "oracle_cap": ConfigKey(_parse_int, "largest N given a dense reference solution"),
    "timing_reps": ConfigKey(_parse_int, "sequence repetitions; wall times are their median"),
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
    if get("adaptive", False):
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


def summarize(records):
    """Totals line printed by the CLI after a run."""
    mv = sum(r.matvecs for r in records)
    ip = sum(r.inner_products for r in records)
    sk = sum(r.sketches for r in records)
    wt = sum(r.wall_time for r in records)
    return (f"totals: problems={len(records)} matvecs={mv} inner_products={ip} "
            f"sketches={sk} wall_time_s={wt:.3f}")
