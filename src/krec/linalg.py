"""Dense decomposition kernels: block Gram-Schmidt, QR, SVD, eigendecomposition,
partial Schur, LU solve.

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


def herm_mul(Q, X):
    """Q* X for a tall Q, conjugating only X: Q.conj().T @ X would copy all of Q."""
    return (X.conj().T @ Q).conj().T


def cgs2(Q, W):
    """Project W (a vector or a block) onto the orthogonal complement of range(Q).

    Block classical Gram-Schmidt run twice, which keeps the result orthogonal
    to Q's orthonormal columns to working precision ("twice is enough":
    Giraud, Langou & Rozložník, Comput. Math. Appl. 2005).  Each pass is two
    BLAS-2/3 products.  Returns (W - Q C, C) with C = C_1 + C_2 the summed
    coefficients of both passes; W is not modified.  Nothing is counted: the
    caller charges its own cost model.
    """
    C = herm_mul(Q, W)
    W = W - Q @ C
    C2 = herm_mul(Q, W)
    W -= Q @ C2
    C += C2
    return W, C


def qr_econ(M, counters=None):
    """Economic QR with the nonnegative-real-diagonal sign convention.

    When a counter is supplied, the factorization is charged
    ``ncols*(ncols+1)/2`` inner products (one per projection coefficient
    plus one norm per column).
    """
    M = _as_complex_matrix(M)
    if M.shape[0] < M.shape[1]:
        raise DimensionMismatchError("qr_econ requires nrows >= ncols")
    Q, R = np.linalg.qr(M, mode="reduced")
    d = np.diagonal(R).copy()
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    Q = Q * phase[np.newaxis, :]
    R = R * np.conj(phase)[:, np.newaxis]
    if counters is not None:
        n = M.shape[1]
        counters.add_inner_products(n * (n + 1) // 2)
    return EconQR(Q=Q, R=np.triu(R))


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


def check_sketched_rank(R):
    """Raise RankDeficiencyError unless min |R_jj| > 1e-13 max |R_jj|."""
    d = np.abs(np.diagonal(R))
    if d.size and d.min() <= 1e-13 * d.max():
        raise RankDeficiencyError(
            "sketched basis is numerically rank-deficient; use the stabilized form")


@dataclass(frozen=True)
class Whitening:
    """S Vhat = C D J* with C, J orthonormal, and G = C* S A Vhat J D^{-1}.

    QR form: D = R and J = I (None).  SVD form: D = diag(sigma), kept as sigma.
    """

    G: np.ndarray
    D: np.ndarray
    J: np.ndarray | None = None

    def back(self, Z, orth=False):
        """J D^{-1} Z, or J orth(D^{-1} Z): whitened coordinates to Vhat coordinates."""
        Z = scipy.linalg.solve_triangular(self.D, Z) if self.J is None else (Z.T / self.D).T
        if orth:
            Z = np.linalg.qr(Z)[0]
        return Z if self.J is None else self.J @ Z


def whiten(SV, SAV, svdtol=None):
    """(C, Whitening) of SV = S Vhat, SAV = S A Vhat: by a rank-checked QR, or
    with svdtol by the SVD truncated at svdtol * sigma_1.  C is not kept."""
    SV, SAV = np.asarray(SV), np.asarray(SAV)
    if SV.shape != SAV.shape:
        raise DimensionMismatchError("SV and SAV must have equal shapes")
    if svdtol is None:
        qr = qr_econ(SV)
        check_sketched_rank(qr.R)
        return qr.Q, Whitening(G=right_div_triangular(qr.Q.conj().T @ SAV, qr.R), D=qr.R)
    L, sig, J = svd_truncated(SV, svdtol)
    return L, Whitening(G=(L.conj().T @ SAV @ J) / sig[np.newaxis, :], D=sig, J=J)


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


def right_div_triangular(P, R):
    """Return P @ R^{-1} for upper-triangular R."""
    return scipy.linalg.solve_triangular(R.T, P.T, lower=True).T


def lu_solve(M, B, counters=None):
    """Solve M @ Y = B by partial-pivoted LU; B may be a vector or matrix."""
    M = _as_complex_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError("lu_solve requires a square matrix")
    B = np.asarray(B, dtype=np.complex128)
    vector_input = B.ndim == 1
    if vector_input:
        B = B[:, np.newaxis]
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
    Y = scipy.linalg.lu_solve((lu, piv), B, check_finite=False)
    return Y[:, 0] if vector_input else Y
