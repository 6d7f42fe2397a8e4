"""Recycled and sketched Krylov methods for sequences of matrix functions.

Closed-form FOM, recycled FOM (rFOM), sketched FOM, sketch-and-recycle FOM
(srFOM) with truncated-SVD stabilization, GMRES-type variants, a sketched
iterate-difference error estimator, and a benchmark driver/CLI.
"""

from .approximants import (
    Approximant,
    AugmentedBasis,
    KrylovBasis,
    SketchedBasis,
    fom_closed,
    gmres_type_closed,
    rfom_step,
    sfom_whitened,
    sgmres_type,
    sgmres_type_stab,
    srfom_stab,
    srfom_step,
)
from .arnoldi import (
    MODE_FULL,
    MODE_TRUNCATED,
    ArnoldiFactorization,
    arnoldi_build,
    arnoldi_extend,
)
from .counters import Counters
from .driver import (
    AdaptiveM,
    DenseOracle,
    GeneratorSource,
    MatrixMarketSource,
    RunRecord,
    SequenceSpec,
    build_spec,
    emit_csv,
    load_matrix,
    oracle_exact,
    parse_matrix_source,
    read_config,
    run_sequence,
)
from .errest import (
    ErrorEstimate,
    epsilon_policy,
    estimate_diff,
    estimate_diff_lower,
    pad_coeffs,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    EigConvergenceError,
    EpochMismatchError,
    KrecError,
    MatrixMarketError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .linalg import (
    EconQR,
    EconSVD,
    PartialSchur,
    eig_dense,
    lu_solve,
    partial_schur_closest_to_origin,
    qr_econ,
    svd_econ,
)
from .matfun import EXP, INV, INVSQRT, ScalarFunction, exp_scaled, matfun_apply
from .matrices import (
    GENERATORS,
    gen_advdiff2d,
    gen_hpd,
    gen_neumann2d,
    gen_twocluster,
    perturb_sparsity_gaussian,
)
from .mmio import read_matrix_market, write_matrix_market
from .recycle import (
    RecycleState,
    propagate_AU,
    srr_matrix,
    update_inexact,
    update_orthonormal,
    update_sketched,
    update_sketched_stab,
)
from .sketch import (
    SketchOperator,
    estimate_epsilon,
    sketch_apply,
    sketch_av_from_arnoldi,
    sketch_dense,
    sketch_new,
)
from .sparse import CSRMatrix, csr_matvec

__version__ = "0.1.0"
