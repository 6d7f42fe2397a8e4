"""Problem-sequence orchestration: the spec, the per-problem records and the run loop."""

import inspect
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .approximants import AugmentedBasis, KrylovBasis, SketchedBasis
from .arnoldi import MODE_FULL, MODE_TRUNCATED, arnoldi_build, arnoldi_extend
from .counters import Counters
from .errors import ConfigError, KrecError
from .matfun import ScalarFunction
from .matrices import GENERATORS, perturb_sparsity_gaussian
from .mmio import read_matrix_market
from .oracle import DenseOracle  # _run_once reads it here at call time; seqbench rebinds it
from .recycle import RecycleState
from .sketch import sketch_new
from .sparse import csr_matvec  # noqa: F401  seqbench's tracer test resolves it here

METHODS = ("fom", "sfom", "rfom", "srfom", "srfom_stab")
RHS_RULES = ("fresh", "chain")
STOP_RULES = ("estimator", "oracle")


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
    rhs_rule: str = "fresh"        # one of RHS_RULES
    inexact_srr: bool = False
    stop_rule: str = "estimator"   # one of STOP_RULES
    oracle_cap: int = 1500
    timing_reps: int = 1           # one pass; kept until seqbench stops passing it

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.num_problems < 1:
            raise ConfigError("num_problems must be at least 1")
        if self.rhs_rule not in RHS_RULES:
            raise ConfigError(f"unknown rhs rule {self.rhs_rule!r}")
        if self.stop_rule not in STOP_RULES:
            raise ConfigError(f"unknown stop rule {self.stop_rule!r}")
        if self.t < 1:
            raise ConfigError("need t >= 1")
        if self.timing_reps != 1:
            raise ConfigError("timing_reps must be 1: a sequence runs once")
        if self.oracle_cap < 0:
            raise ConfigError("need oracle_cap >= 0")
        if self.seed < 0:
            raise ConfigError("need seed >= 0")
        if not (np.isfinite(self.perturbation) and self.perturbation >= 0):
            raise ConfigError("perturbation must be finite and nonnegative")
        if not 0 < self.svdtol <= 1:  # also rejects nan
            raise ConfigError("need 0 < svdtol <= 1")
        m_top, m_key = self.m_top
        if m_top < 1:
            raise ConfigError(f"need {m_key} >= 1")
        if self.uses_sketching:
            if self.s <= 0:
                raise ConfigError("sketched methods require s > 0")
            if m_top >= self.s:
                raise ConfigError(f"need {m_key} < s for sketched methods")
            # the grown QR of [S U, S V_m] needs at most s columns
            if self.uses_recycling and self.k + m_top > self.s:
                raise ConfigError(f"need k + {m_key} <= s for sketched methods")
        if self.uses_recycling and not 0 <= self.k < m_top:
            raise ConfigError(f"need 0 <= k < {m_key} for recycled methods")

    @property
    def m_top(self):
        """The largest cycle length and the key that sets it."""
        return (self.m.m_max, "m_max") if isinstance(self.m, AdaptiveM) else (self.m, "m")

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
        except ValueError as exc:
            raise ConfigError(f"generator {source.name!r}: {exc}") from None
        except TypeError:
            # a parameter the generator does not take is a configuration error
            try:
                inspect.signature(gen).bind(**source.params)
            except TypeError as exc:
                raise ConfigError(f"generator {source.name!r}: {exc}") from None
            raise
    else:
        raise ConfigError(f"unsupported matrix source {source!r}")
    if A.nrows != A.ncols:
        raise ConfigError(f"matrix must be square, got shape {A.nrows}x{A.ncols}")
    if shift != 0:
        A = A.add_scaled_identity(shift)
    return A


def _new_basis(spec, A, S, recycle, epoch, counters):
    """The working basis of one problem, seeded with the recycling state."""
    if spec.uses_sketching:
        svdtol = spec.svdtol if spec.method == "srfom_stab" else None
        return SketchedBasis(A, S, recycle, epoch, counters, svdtol, spec.inexact_srr)
    if spec.uses_recycling:
        return AugmentedBasis(A, recycle, epoch, counters)
    return KrylovBasis()


def _matrix_epoch(spec, i):
    """The matrix epoch of problem i: a perturbed sequence takes a new matrix at
    every problem, an unperturbed one keeps A0."""
    return i if spec.perturbation > 0 else 0


def _solve(spec, A, b, basis, counters, oracle):
    """Fixed or adaptive solve of one problem: extend the basis, extract, test.

    Returns (approximant, converged, last estimate); basis.fac holds the m used.
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
            return approx, True, None
        stop, est = _check_stop(spec, approx, prev_coeffs, oracle, b, basis)
        if stop or fac.m < m or m >= spec.m.m_max:
            return approx, stop or fac.m < m, est  # breakdown is exact
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
    recycle = RecycleState.empty(N)
    b_next = None
    records = []
    for i in range(spec.num_problems):
        if _matrix_epoch(spec, i) != epoch:
            A = perturb_sparsity_gaussian(A, spec.perturbation, int(pert_seeds[i]))
            epoch = _matrix_epoch(spec, i)
        if spec.rhs_rule == "chain" and b_next is not None:
            b = b_next
        else:
            b = (rng_rhs.standard_normal(N) + 1j * rng_rhs.standard_normal(N)) / np.sqrt(2.0)
        oracle.set_matrix(A, epoch)
        counters = Counters()
        rec = RunRecord(problem_index=i, method=spec.method, m_used=0,
                        matvecs=0, inner_products=0, sketches=0)
        # no problem reads the last one's update
        update = spec.uses_recycling and spec.k > 0 and i + 1 < spec.num_problems
        t0 = time.perf_counter()
        basis = None
        try:
            basis = _new_basis(spec, A, S, recycle, epoch, counters)
            recycle = None  # the basis holds U now; no second copy lives through the solve
            approx, rec.converged, rec.estimate_final = _solve(
                spec, A, b, basis, counters, oracle)
            rec.ell_used = approx.ell
            if update:
                # a failed update must not void a finished solve
                try:
                    recycle = basis.recycle(spec.k, _matrix_epoch(spec, i + 1))
                except KrecError as exc:
                    warnings.warn(f"recycling update skipped: {exc}", stacklevel=2)
        except KrecError as exc:
            rec.converged = False
            rec.error = f"{type(exc).__name__}: {exc}"
            approx = None
        if update and recycle is None:
            # the solve or the update failed: the next problem starts from this
            # one's U again, which the basis gives back with the A U it holds
            recycle = basis.start_state()
        rec.wall_time = time.perf_counter() - t0
        if basis is not None and basis.fac is not None:  # the m reached, solved or not
            rec.m_used = basis.fac.m
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
    """Execute the sequence once; returns the per-problem records."""
    A0 = load_matrix(spec.matrix_source, spec.shift)
    if (spec.stop_rule == "oracle" and isinstance(spec.m, AdaptiveM)
            and A0.nrows > spec.oracle_cap):
        raise ConfigError(f"oracle stopping requires N = {A0.nrows} within the "
                          f"oracle cap {spec.oracle_cap}")
    m_top, m_key = spec.m_top
    # the grown QR of [U, V_m] needs at most N columns
    if spec.method == "rfom" and spec.k + m_top > A0.nrows:
        raise ConfigError(f"need k + {m_key} <= N = {A0.nrows} for rfom")
    return _run_once(spec, A0)
