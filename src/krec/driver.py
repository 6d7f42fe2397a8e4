"""Problem-sequence orchestration: configuration, run loop, oracles, CSV."""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .approximants import (AugmentedBasis, SketchedBundle, fom_closed, sfom_whitened,
                           srfom_stab)
from .arnoldi import MODE_TRUNCATED, arnoldi_build, arnoldi_extend
from .counters import Counters
from .errest import estimate_diff, pad_coeffs
from .errors import ConfigError, KrecError
from .matfun import ScalarFunction
from .matrices import GENERATORS, perturb_sparsity_gaussian
from .mmio import read_matrix_market
from .recycle import RecycleState, update_sketched, update_sketched_stab
from .sketch import estimate_epsilon, sketch_apply, sketch_av_from_arnoldi, sketch_new
from .sparse import csr_matvec

METHODS = ("fom", "sfom", "rfom", "srfom", "srfom_stab")


@dataclass(frozen=True)
class AdaptiveM:
    """Adaptive cycle-length protocol: grow by d until the stop rule fires."""

    reltol: float
    d: int = 10
    m_max: int = 300

    def __post_init__(self):
        if self.reltol <= 0:
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
    epsilon_mode: str = "fixed"    # "fixed" | "tracked"
    epsilon_value: float = 0.99
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
        sketched = self.method in ("sfom", "srfom", "srfom_stab")
        m_top = self.m.m_max if isinstance(self.m, AdaptiveM) else self.m
        if sketched:
            if self.s <= 0:
                raise ConfigError("sketched methods require s > 0")
            if m_top >= self.s:
                raise ConfigError("need m < s for sketched methods")
        recycled = self.method in ("rfom", "srfom", "srfom_stab")
        if recycled and not 0 <= self.k < m_top:
            raise ConfigError("need 0 <= k < m for recycled methods")

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
        A = gen(**source.params)
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


class _SketchedKrylov:
    """Truncated Arnoldi factorization with incrementally maintained sketches."""

    def __init__(self, A, b, m, t, S, counters):
        self.A = A
        self.S = S
        self.counters = counters
        self.fac = arnoldi_build(A, b, m, mode=MODE_TRUNCATED, t=t, counters=counters)
        self.SV = np.column_stack([
            sketch_apply(S, self.fac.V[:, j], counters) for j in range(self.fac.m)
        ])
        self.s_next = (None if self.fac.breakdown is not None
                       else sketch_apply(S, self.fac.v_next, counters))

    def extend(self, m_new):
        if self.fac.breakdown is not None or m_new <= self.fac.m:
            return
        old_m = self.fac.m
        old_s_next = self.s_next
        self.fac = arnoldi_extend(self.fac, self.A, m_new, self.counters)
        cols = [old_s_next]  # old v_next became column old_m; its sketch is cached
        cols += [sketch_apply(self.S, self.fac.V[:, j], self.counters)
                 for j in range(old_m + 1, self.fac.m)]
        self.SV = np.column_stack([self.SV] + cols)
        self.s_next = (None if self.fac.breakdown is not None
                       else sketch_apply(self.S, self.fac.v_next, self.counters))

    def sav(self):
        return sketch_av_from_arnoldi(self.S, self.fac, self.SV, self.s_next)


def _run_fom_like(spec, A, b, U, AU, counters, oracle):
    """Fixed or adaptive FOM / rFOM on one problem.

    rFOM keeps one AugmentedBasis across the adaptive steps, so A U is formed
    at most once per problem.  Returns (approximant, the AugmentedBasis for
    rFOM or None for FOM, record fields dict).
    """
    f = spec.function
    adaptive = isinstance(spec.m, AdaptiveM)
    m = spec.m.d if adaptive else spec.m
    info = {"converged": True, "estimate": None}
    aug = AugmentedBasis(A, U, AU, counters) if spec.method == "rfom" else None
    prev_coeffs = None
    fac = None
    while True:
        fac = (arnoldi_build(A, b, m, counters=counters) if fac is None
               else arnoldi_extend(fac, A, m, counters=counters))
        if aug is None:
            approx = fom_closed(fac.V, fac.square_h(), b, f, counters)
        else:
            aug.extend(fac)
            approx = aug.approximant(b, f)
        m_used = fac.m
        if not adaptive:
            info["m_used"] = m_used
            return approx, aug, info
        stop, est = _check_stop(spec, approx, prev_coeffs, oracle, b,
                                sketched=False)
        info["estimate"] = est
        if stop or m_used < m or m >= spec.m.m_max:
            info["m_used"] = m_used
            info["converged"] = stop or m_used < m  # breakdown is exact
            return approx, aug, info
        prev_coeffs = approx.coeffs
        m = min(m + spec.m.d, spec.m.m_max)


def _check_stop(spec, approx, prev_coeffs, oracle, b, sketched, skry=None,
                aug_cols=0, SVhat=None):
    """Evaluate the configured stopping rule; returns (stop, recorded estimate)."""
    if spec.stop_rule == "oracle":
        exact = oracle.solve(b)
        if exact is None:
            raise ConfigError("oracle stopping requires N within the oracle cap")
        err = np.linalg.norm(approx.full_vector() - exact) / np.linalg.norm(exact)
        return err <= spec.m.reltol, float(err)
    if prev_coeffs is None:
        return False, None
    y_big = approx.coeffs
    if sketched:
        m_high = y_big.shape[0] - aug_cols
        m_low = prev_coeffs.shape[0] - aug_cols
        padded = pad_coeffs(prev_coeffs, m_low, m_high, aug_cols)
        eps = (float(spec.epsilon_value) if spec.epsilon_mode == "fixed"
               else estimate_epsilon(skry.S, list(skry.fac.V.T), sketched=list(skry.SV.T)))
        est = estimate_diff(SVhat, y_big, padded, eps, m_low=m_low, m_high=m_high)
        scale = np.linalg.norm(SVhat @ y_big) / np.sqrt(1.0 - eps)
        rel = est.value / scale if scale > 0 else np.inf
    else:
        # orthonormal working basis: exact coefficient-space norms, eps = 0
        padded = np.concatenate([prev_coeffs,
                                 np.zeros(y_big.shape[0] - prev_coeffs.shape[0],
                                          dtype=y_big.dtype)])
        diff = np.linalg.norm(y_big - padded)
        scale = np.linalg.norm(y_big)
        rel = diff / scale if scale > 0 else np.inf
    return rel <= spec.m.reltol, float(rel)


def _run_sketched(spec, A, b, S, recycle, counters, oracle, matrix_epoch):
    """Fixed or adaptive sketched FOM / srFOM on one problem."""
    f = spec.function
    adaptive = isinstance(spec.m, AdaptiveM)
    m = spec.m.d if adaptive else spec.m
    stabilized = spec.method == "srfom_stab"
    use_recycle = spec.uses_recycling and recycle is not None and recycle.k > 0
    skry = _SketchedKrylov(A, b, m, spec.t, S, counters)
    SU = SAU = U = None
    if use_recycle:
        U, SU, SAU = recycle.U, recycle.SU, recycle.SAU
        if recycle.matrix_epoch != matrix_epoch and not spec.inexact_srr:
            AU = np.column_stack([csr_matvec(A, U[:, j], counters)
                                  for j in range(U.shape[1])])
            SAU = np.column_stack([sketch_apply(S, AU[:, j], counters)
                                   for j in range(U.shape[1])])
    aug_cols = U.shape[1] if use_recycle else 0
    info = {"converged": True, "estimate": None, "ell": None}
    prev_coeffs = None
    while True:
        SAV = skry.sav()
        beta = np.linalg.norm(b)
        Sb = beta * skry.SV[:, 0]
        if use_recycle:
            Vhat = np.column_stack([skry.fac.V, U])
            SVhat = np.column_stack([skry.SV, SU])
            SAVhat = np.column_stack([SAV, SAU])
        else:
            Vhat, SVhat, SAVhat = skry.fac.V, skry.SV, SAV
        if stabilized:
            approx = srfom_stab(Vhat, SVhat, SAVhat, Sb, f, svdtol=spec.svdtol)
            info["ell"] = approx.ell
        else:
            approx = sfom_whitened(Vhat, SVhat, SAVhat, Sb, f)
        m_used = skry.fac.m
        if not adaptive:
            info["m_used"] = m_used
            return approx, (Vhat, SVhat, SAVhat), info
        stop, est = _check_stop(spec, approx, prev_coeffs, oracle, b,
                                sketched=True, skry=skry, aug_cols=aug_cols,
                                SVhat=SVhat)
        info["estimate"] = est
        if stop or m_used < m or m >= spec.m.m_max:
            info["m_used"] = m_used
            info["converged"] = stop or m_used < m
            return approx, (Vhat, SVhat, SAVhat), info
        prev_coeffs = approx.coeffs
        m = min(m + spec.m.d, spec.m.m_max)
        skry.extend(m)


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
    U = None            # rFOM recycling basis
    AU_cache = None     # exact A @ U for the current epoch
    au_epoch = None
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
            if spec.method in ("fom", "rfom"):
                if spec.method == "rfom" and au_epoch != epoch:
                    AU_cache = None
                approx, aug, info = _run_fom_like(
                    spec, A, b, U if spec.method == "rfom" else None,
                    AU_cache, counters, oracle)
                if spec.method == "rfom" and spec.k > 0:
                    # a failed subspace update must not void a finished solve:
                    # fall back to the previous recycling state
                    try:
                        U, AU_cache = aug.recycle(spec.k)
                        au_epoch = epoch
                    except KrecError as exc:
                        warnings.warn(f"recycling update skipped: {exc}",
                                      stacklevel=2)
            else:
                approx, hats, info = _run_sketched(
                    spec, A, b, S, recycle if spec.uses_recycling else None,
                    counters, oracle, epoch)
                if spec.uses_recycling and spec.k > 0:
                    Vhat, SVhat, SAVhat = hats
                    try:
                        if spec.method == "srfom_stab":
                            recycle = update_sketched_stab(
                                Vhat, SVhat, SAVhat, spec.k, svdtol=spec.svdtol,
                                matrix_epoch=epoch)
                        else:
                            recycle = update_sketched(
                                SketchedBundle(Vhat=Vhat, SVhat=SVhat,
                                               SAVhat=SAVhat, qr=None, fac=None,
                                               matrix_epoch=epoch),
                                spec.k)
                    except KrecError as exc:
                        warnings.warn(f"recycling update skipped: {exc}",
                                      stacklevel=2)
            rec.m_used = info["m_used"]
            rec.converged = info["converged"]
            rec.estimate_final = info.get("estimate")
            rec.ell_used = info.get("ell")
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
        approx = aug = None
    return records


def run_sequence(spec):
    """Execute the sequence, repeating for wall-time averaging.

    All repetitions produce identical counters and errors (same seeds); the
    reported wall times are the per-problem means over the repetitions.
    """
    A0 = load_matrix(spec.matrix_source, spec.shift)
    reps = max(1, spec.timing_reps)
    all_runs = [_run_once(spec, A0) for _ in range(reps)]
    records = all_runs[-1]
    for idx, rec in enumerate(records):
        rec.wall_time = float(np.mean([run[idx].wall_time for run in all_runs]))
    return records


CSV_HEADER = "problem,method,m_used,matvecs,inner_products,sketches,relerr,estimate,ell,wall_time_s"


def emit_csv(records, path):
    """Write records to CSV with the fixed schema; missing values are empty fields."""
    if not records:
        raise ValueError("no records to write")

    def opt(x, fmt="{:.17g}"):
        return "" if x is None else fmt.format(x)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join([
                str(r.problem_index),
                r.method,
                str(r.m_used),
                str(r.matvecs),
                str(r.inner_products),
                str(r.sketches),
                opt(r.relerr),
                opt(r.estimate_final),
                "" if r.ell_used is None else str(r.ell_used),
                f"{r.wall_time:.6f}",
            ]) + "\n")


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


def _parse_number(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_complex(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) not in (1, 2):
        raise ConfigError(f"shift must be 're' or 're,im', got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ConfigError(f"non-numeric shift {text!r}") from None
    return complex(re, im)


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


_CONFIG_KEYS = {
    "function", "tau", "method", "num_problems", "m", "adaptive", "reltol",
    "d", "m_max", "k", "s", "t", "svdtol", "seed", "matrix", "shift",
    "perturbation", "rhs", "inexact_srr", "stop_rule", "epsilon_mode",
    "epsilon_value", "oracle_cap", "timing_reps",
}


def build_spec(options):
    """Construct a SequenceSpec from string-valued config options."""
    unknown = set(options) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key in ("function", "method", "matrix"):
        if key not in options:
            raise ConfigError(f"missing required key {key!r}")
    tau = float(options.get("tau", 1.0))
    function = ScalarFunction(options["function"], tau=tau)
    if _parse_bool(options.get("adaptive", "false")):
        m = AdaptiveM(reltol=float(options.get("reltol", 1e-8)),
                      d=int(options.get("d", 10)),
                      m_max=int(options.get("m_max", 300)))
    else:
        if "m" not in options:
            raise ConfigError("fixed cycle length requires key 'm'")
        m = int(options["m"])
    return SequenceSpec(
        function=function,
        method=options["method"].replace("-", "_"),
        num_problems=int(options.get("num_problems", 1)),
        m=m,
        matrix_source=parse_matrix_source(options["matrix"]),
        k=int(options.get("k", 0)),
        s=int(options.get("s", 0)),
        t=int(options.get("t", 2)),
        svdtol=float(options.get("svdtol", 1e-14)),
        seed=int(options.get("seed", 0)),
        shift=_parse_complex(options.get("shift", "0")),
        perturbation=float(options.get("perturbation", 0.0)),
        rhs_rule=options.get("rhs", "fresh"),
        inexact_srr=_parse_bool(options.get("inexact_srr", "false")),
        stop_rule=options.get("stop_rule", "estimator"),
        epsilon_mode=options.get("epsilon_mode", "fixed"),
        epsilon_value=float(options.get("epsilon_value", 0.99)),
        oracle_cap=int(options.get("oracle_cap", 1500)),
        timing_reps=int(options.get("timing_reps", 3)),
    )


def summarize(records):
    """Totals line printed by the CLI after a run."""
    mv = sum(r.matvecs for r in records)
    ip = sum(r.inner_products for r in records)
    sk = sum(r.sketches for r in records)
    wt = sum(r.wall_time for r in records)
    return (f"totals: problems={len(records)} matvecs={mv} inner_products={ip} "
            f"sketches={sk} wall_time_s={wt:.3f}")
