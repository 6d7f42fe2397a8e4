"""Dense decomposition kernels: products of a tall block, block Gram-Schmidt, QR
(one-shot by Householder or Cholesky, and grown by appending columns), SVD,
whitening of a sketched basis, eigendecomposition, partial Schur, LU solve.

All kernels work on complex128 arrays of moderate size (a few hundred rows or
columns); they wrap LAPACK through numpy/scipy and enforce the deterministic
conventions needed downstream.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    EigConvergenceError,
    RankDeficiencyError,
    SingularMatrixError,
)


@dataclass(frozen=True)
class EconQR:
    Q: np.ndarray  # orthonormal columns
    R: np.ndarray  # upper triangular, diag with nonnegative real part


@dataclass(frozen=True)
class EconSVD:
    L: np.ndarray      # left singular vectors
    sigma: np.ndarray  # non-increasing, nonnegative, real
    J: np.ndarray      # right singular vectors (columns)


@dataclass(frozen=True)
class PartialSchur:
    X: np.ndarray  # orthonormal columns
    T: np.ndarray  # upper triangular, selected eigenvalues on the diagonal


def _as_complex_matrix(M):
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2:
        raise DimensionMismatchError("expected a 2-D array")
    return M


def _blas_operands(Q, X):
    """Whether Q* X can go to BLAS in place: nonempty complex128 blocks, both
    column-major.

    A vector stays with numpy: numpy and scipy each link their own OpenBLAS,
    and with two threads, switching between the two thread pools at every
    step of full Arnoldi made a build at N = 32,761 about four times slower.
    """
    return (X.ndim == 2 and Q.size > 0 and X.size > 0
            and Q.dtype == X.dtype == np.complex128
            and Q.flags.f_contiguous and X.flags.f_contiguous)


def herm_mul(Q, X):
    """Q* X for a tall Q and a vector or block X, with no conjugate copy of Q.

    Column-major complex128 blocks are read in place by one zgemm with the
    conjugate-transpose flag.  Any other operands take (X* Q)*, which
    conjugates only X: Q.conj().T @ X would copy all of Q.
    """
    if _blas_operands(Q, X):
        return scipy.linalg.blas.zgemm(1.0, Q, X, trans_a=2)
    return (X.conj().T @ Q).conj().T


def combine(terms):
    """The sum of X @ Y over the (X, Y) terms, X tall and Y small, where a 1-D X
    is the rank-one term x y^T (as ``np.outer``): the one tall-product kernel.

    The first product is the result; each other with a nonempty Y is added
    to it by blocks of 4096 rows, so one block of one term is the only
    temporary.  A numpy GEMM or GEMV cut into row blocks rounds every row as
    the whole product does, so the sum is the unblocked one bit for bit."""
    (X, Y), *rest = terms
    out = np.outer(X, Y) if X.ndim == 1 else X @ Y
    for i in range(0, out.shape[0], 4096):
        rows = slice(i, i + 4096)
        for X, Y in rest:
            if Y.size:  # an empty Y, such as the Y_U of no U, adds nothing
                out[rows] += np.outer(X[rows], Y) if X.ndim == 1 else X[rows] @ Y
    return out


def project(Q, W):
    """One block classical Gram-Schmidt pass in place: W -= Q C; returns C = Q* W.

    The one Gram-Schmidt kernel of krec: both Arnoldi modes project A v_j
    on a window of V with it, and ``GrowingQR`` projects each block on Q.
    A writable column-major complex128 block W is updated by zgemm with
    beta = 1, so no Q C temporary of the height of W is formed; a vector
    stays with numpy (see ``_blas_operands``).  Nothing is counted: the
    caller charges its own cost model.
    """
    C = herm_mul(Q, W)
    if _blas_operands(Q, W) and W.flags.writeable:
        scipy.linalg.blas.zgemm(-1.0, Q, C, beta=1.0, c=W, overwrite_c=1)
    else:
        W -= Q @ C
    return C


def qr_econ(M):
    """Economic QR with the nonnegative-real-diagonal sign convention."""
    M = _as_complex_matrix(M)
    if M.shape[0] < M.shape[1]:
        raise DimensionMismatchError("qr_econ requires nrows >= ncols")
    Q, R = np.linalg.qr(M, mode="reduced")
    d = np.diagonal(R).copy()
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    Q = Q * phase[np.newaxis, :]
    R = R * np.conj(phase)[:, np.newaxis]
    return EconQR(Q=Q, R=np.triu(R))


# Cholesky QR keeps its R only when rcond(R) > CHOL_RCOND_MIN: kappa_1(R) < 10,
# so Q = W R^{-1} loses about 1e2 eps of orthogonality (Yamamoto, Nakatsukasa,
# Yanagisawa & Fukaya, ETNA 2015: the loss grows as eps kappa(W)^2).
CHOL_RCOND_MIN = 0.1


def chol_qr(W):
    """``qr_econ`` of a tall W by one Cholesky QR when W is well conditioned.

    R is the upper Cholesky factor of the Gram W* W (one zherk), and
    Q = W R^{-1} one right-side trsm.  Both read a column-major complex128
    W, a slot of ``GrowingQR``'s buffer, in place, and the trsm writes Q
    into W, so Q is W (any other W is copied first, and left alone).  A Gram
    that is not positive definite, or an R with rcond(R) <= CHOL_RCOND_MIN,
    falls back to ``qr_econ(W)``, whose Q is a new array and leaves W alone.
    Nothing is counted: ``GrowingQR`` charges its own cost model.
    """
    W = _as_complex_matrix(W)
    n = W.shape[1]
    if not n or W.shape[0] < n:
        return qr_econ(W)
    R, info = scipy.linalg.lapack.zpotrf(scipy.linalg.blas.zherk(1.0, W, trans=2), clean=1)
    if info or not rcond(R) > CHOL_RCOND_MIN:  # a NaN rcond falls back too
        return qr_econ(W)
    return EconQR(Q=scipy.linalg.blas.ztrsm(1.0, R, W, side=1, overwrite_b=True), R=R)


def svd_econ(M):
    """Economic SVD M = L @ diag(sigma) @ J*."""
    M = _as_complex_matrix(M)
    L, sigma, Jh = np.linalg.svd(M, full_matrices=False)
    return EconSVD(L=L, sigma=sigma, J=Jh.conj().T)


def svd_truncated(M, svdtol):
    """SVD of M cut at the largest ell with sigma_ell >= svdtol * sigma_1.

    Returns (L, sigma, J) with ell columns; raises RankDeficiencyError when
    nothing is left.
    """
    dec = svd_econ(M)
    if dec.sigma.size == 0:
        raise RankDeficiencyError("empty sketched basis")
    ell = int(np.count_nonzero(dec.sigma >= svdtol * dec.sigma[0]))
    if ell == 0:
        raise RankDeficiencyError("all singular values below the svdtol cutoff")
    return dec.L[:, :ell], dec.sigma[:ell], dec.J[:, :ell]


class ColumnBuffer:
    """The columns of a tall matrix in a column-major buffer that grows geometrically.

    The first n columns of ``data`` are in use.  ``reserve(ncols)`` makes
    room for ncols columns: a full buffer moves its n columns to a new one
    of max(ncols, 2 * capacity) columns, so that a matrix grown by blocks is
    copied O(1) times per column, and no room is taken ahead for columns
    that may never come.  Views of the old buffer stay valid.
    """

    def __init__(self, nrows):
        self.n = 0
        self.data = np.empty((nrows, 0), dtype=np.complex128, order="F")

    def reserve(self, ncols):
        """Make room for ncols columns; returns ``data``."""
        if ncols > self.data.shape[1]:
            data = np.empty((self.data.shape[0], max(ncols, 2 * self.data.shape[1])),
                            dtype=np.complex128, order="F")
            data[:, :self.n] = self.data[:, :self.n]
            self.data = data
        return self.data


class GrowingQR:
    """Q R = M for a tall M that grows by blocks of columns.

    append(W) projects the new block against Q once (``project``), takes the
    ``chol_qr`` of what is left and appends both, so M is never factored
    again (Balabanov & Grigori, SISC 2022, keep the sketched R the same way).
    Q lives in a ``ColumnBuffer``, and every block, the first included, is
    copied into its slot there, projected in place when Q has columns, and
    turned into Q_new by ``chol_qr(slot)``, whose trsm writes into the
    slot, so an append forms no temporary of the height of Q.  A
    Householder fallback or a second pass writes its Q_new back into the
    slot.

    ``chol_qr`` factors a well-conditioned block by Cholesky QR, whose only
    work on the long columns is two BLAS-3 calls (in place of Householder's
    geqrf and ungqr), and any other block by ``qr_econ``.  One projection
    leaves Q_new orthogonal to Q up to about eps ||W|| ||R_new^{-1}||, so a
    block that keeps most of its norm needs no second pass: the Kahan-Parlett
    criterion reorthogonalizes only where the first pass cancelled
    (Parlett, The Symmetric Eigenvalue Problem, 1980).  A block is projected
    and factored a second time, by ``qr_econ``, only when
    max(||W||, ||R_new||_1) ||R_new^{-1}||_1 (from the ``rcond`` estimate,
    O(d^2) work) reaches REORTH_COND: the first pass cancelled W, or R_new
    is ill-conditioned, which the Cholesky path never gives.  That is block
    CGS2 (Barlow & Smoktunowicz, Numer. Math. 2013) on the blocks that need
    it, so Q stays orthonormal and sigma(R) = sigma(M) to rounding even when
    M is numerically rank-deficient.  M may have at most nrows columns.
    """

    REORTH_COND = 100.0

    def __init__(self, nrows):
        self.R = np.zeros((0, 0), dtype=np.complex128)
        self._cols = ColumnBuffer(nrows)

    @property
    def n(self):
        return self._cols.n

    @property
    def Q(self):
        return self._cols.data[:, :self.n]

    def append(self, W, counters=None):
        """Append the columns of W to M; returns their columns of Q, a view
        of the buffer.

        With a counter, column j of M is charged j+1 inner products, the cost
        of a one-shot QR of M: n*d for the projection and d(d+1)/2 for the
        QR.  The second pass is not charged.
        """
        n, d = self.n, W.shape[1]
        if n + d > self._cols.data.shape[0]:
            raise DimensionMismatchError("GrowingQR holds at most nrows columns")
        # projected and factored in its slot, column-major for the BLAS calls
        slot = self._cols.reserve(n + d)[:, n:n + d]
        slot[...] = W
        C = np.zeros((0, d), dtype=np.complex128)
        if n:  # against an empty Q, project would form an N x d zero block
            C = project(self.Q, slot)
        qr = chol_qr(slot)
        Qnew, Rnew = qr.Q, qr.R
        if n and d:
            # ||W|| is the largest column norm of W = Q C + Q_new R_new, and
            # ||R_new^{-1}||_1 = 1 / (rcond(R_new) ||R_new||_1)
            wnorm = np.linalg.norm(np.vstack([C, Rnew]), axis=0).max()
            rnorm = np.linalg.norm(Rnew, 1)
            if max(wnorm, rnorm) >= self.REORTH_COND * rcond(Rnew) * rnorm:
                C2 = project(self.Q, Qnew)
                qr = qr_econ(Qnew)
                Qnew, C, Rnew = qr.Q, C + C2 @ Rnew, qr.R @ Rnew
        if Qnew is not slot:
            slot[...] = Qnew
        R = np.zeros((n + d, n + d), dtype=np.complex128)
        R[:n, :n] = self.R
        R[:n, n:] = C
        R[n:, n:] = Rnew
        self.R, self._cols.n = R, n + d
        if counters is not None:
            counters.add_inner_products(n * d + d * (d + 1) // 2)
        return slot


def rcond(R):
    """Reciprocal 1-norm condition estimate of an upper-triangular R (LAPACK trcon)."""
    trcon = scipy.linalg.lapack.get_lapack_funcs("trcon", (R,))
    return trcon(R, norm="1")[0]


def check_sketched_rank(R):
    """Raise RankDeficiencyError if R is wide or min |R_jj| <= 1e-13 max |R_jj|."""
    # the diagonal, not rcond(R) as in rFOM: a sketched R reaches rcond 3e-16
    # on invsqrt-twocluster with its diagonal ratio at 8.5e-4, and those
    # approximants pass the reference check; rcond <= 1e-12 would fail them
    if R.shape[0] < R.shape[1]:
        raise RankDeficiencyError("sketched basis has more columns than the sketch has rows")
    d = np.abs(np.diagonal(R))
    if d.size and d.min() <= 1e-13 * d.max():
        raise RankDeficiencyError(
            "basis is numerically rank-deficient: min |R_jj| <= 1e-13 max |R_jj|")


@dataclass(frozen=True)
class Whitening:
    """M = Q R = Q L D J* with L, J orthonormal, and G = L* Q* X J D^{-1}, for a
    grown basis M with image X: S Vhat and S A Vhat, or [U, V_m] and its A image.

    QR form: D = R and L = J = I (None).  SVD form: R = L diag(sigma) J*
    truncated, D = sigma as a vector; its sigma and J are those of M.
    """

    G: np.ndarray
    D: np.ndarray
    J: np.ndarray | None = None
    L: np.ndarray | None = None

    def forward(self, z):
        """L* z: Q coordinates (z = Q* x) to whitened coordinates."""
        return z if self.L is None else herm_mul(self.L, z)

    def back(self, Z, orth=False):
        """J D^{-1} Z, or J orth(D^{-1} Z): whitened coordinates to Vhat coordinates."""
        Z = scipy.linalg.solve_triangular(self.D, Z) if self.J is None else (Z.T / self.D).T
        if orth:
            Z = np.linalg.qr(Z)[0]
        return Z if self.J is None else self.J @ Z


def whiten_r(R, P, svdtol=None):
    """Whitening of a grown basis M = Q R from R and P = Q* X alone, X the image of M.

    QR form: the rank check on R and G = P R^{-1}.  With svdtol: the SVD of
    the small R cut at svdtol * sigma_1, G = L* P J / sigma.
    """
    if svdtol is None:
        check_sketched_rank(R)
        return Whitening(G=scipy.linalg.solve_triangular(R.T, P.T, lower=True).T, D=R)
    L, sig, J = svd_truncated(R, svdtol)
    return Whitening(G=(herm_mul(L, P) @ J) / sig[np.newaxis, :], D=sig, J=J, L=L)


def whiten(SV, SAV, svdtol=None):
    """(Q, Whitening) of SV = S Vhat, SAV = S A Vhat from one QR of SV.

    The one-shot form of a sketched basis's grown QR: ``whiten_r`` finishes
    it, by the rank-checked R or, with svdtol, by the truncated SVD of R.
    A wide SV (more columns than sketch rows) is its own R under Q = I: the
    rank check rejects it, and the truncated SVD is that of SV.
    """
    SV, SAV = np.asarray(SV), np.asarray(SAV)
    if SV.shape != SAV.shape:
        raise DimensionMismatchError("SV and SAV must have equal shapes")
    if SV.shape[0] < SV.shape[1]:
        return np.eye(SV.shape[0], dtype=np.complex128), whiten_r(SV, SAV, svdtol)
    qr = qr_econ(SV)
    return qr.Q, whiten_r(qr.R, herm_mul(qr.Q, SAV), svdtol)


def eig_dense(M):
    """Eigendecomposition of a small square matrix.

    Returns (eigenvalues, eigenvector matrix W with unit-norm columns) so
    that M @ W = W @ diag(eigenvalues).
    """
    M = _as_complex_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("eig_dense requires a square matrix")
    try:
        lam, W = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(str(exc)) from exc
    norms = np.linalg.norm(W, axis=0)
    W = W / np.where(norms > 0, norms, 1.0)
    return lam, W


def eigvals_dense(M):
    """Eigenvalues of a small square matrix, without eigenvectors."""
    M = _as_complex_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("eigvals_dense requires a square matrix")
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(str(exc)) from exc


def partial_schur_closest_to_origin(M, k):
    """Partial Schur form M X = X T for the min(k, n) eigenvalues of smallest modulus.

    One complex Schur form of M, reordered (Stewart, SIMAX 2001) so that the
    selected eigenvalues lead the diagonal in ascending modulus, ties by
    ascending argument; X is the leading block of Schur vectors.  No
    eigenvector is formed, so a defective cluster is no special case.
    """
    M = _as_complex_matrix(M)
    if k < 0:
        raise DimensionMismatchError("k must be nonnegative")
    if not np.all(np.isfinite(M)):
        raise EigConvergenceError("matrix has non-finite entries")
    try:
        T, Z = scipy.linalg.schur(M, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(str(exc)) from exc
    k = min(k, M.shape[0])
    for j in range(k):
        lam = np.diagonal(T)[j:]
        best = j + int(np.lexsort((np.angle(lam), np.abs(lam)))[0])
        if best != j:
            T, Z, _ = scipy.linalg.lapack.ztrexc(T, Z, best + 1, j + 1,
                                                 overwrite_a=True, overwrite_q=True)
    return PartialSchur(X=Z[:, :k], T=np.triu(T[:k, :k]))


def lu_solve(M, B):
    """Solve M @ Y = B by partial-pivoted LU; B may be a vector or matrix."""
    M = _as_complex_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("lu_solve requires a square matrix")
    B = np.asarray(B, dtype=np.complex128)
    if B.shape[0] != M.shape[0]:
        raise DimensionMismatchError("right-hand side has incompatible row count")
    with warnings.catch_warnings():
        # singular pivots are detected and reported below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    diag = np.diagonal(lu)
    zero = np.nonzero(diag == 0)[0]
    if zero.size:
        raise SingularMatrixError(int(zero[0]))
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)
