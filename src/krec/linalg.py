"""Dense decomposition kernels: QR, SVD, eigendecomposition, partial Schur, LU solve.

All kernels work on complex128 arrays of moderate size (a few hundred rows or
columns); they wrap LAPACK through numpy/scipy and enforce the deterministic
conventions needed downstream.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DefectiveClusterError,
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


def partial_schur_closest_to_origin(M, k, rank_tol=1e-10):
    """Partial Schur form M X = X T for the k eigenvalues of smallest modulus.

    Eigenvalues are sorted by ascending modulus (ties by ascending complex
    argument) and the selected eigenvector block is orthonormalized; the
    nested column spans make X* M X upper triangular for diagonalizable M.
    """
    M = _as_complex_matrix(M)
    n = M.shape[0]
    if k > n:
        raise DimensionMismatchError("k must not exceed dim(M)")
    if k == 0:
        return PartialSchur(X=np.zeros((n, 0), dtype=np.complex128),
                            T=np.zeros((0, 0), dtype=np.complex128))
    lam, W = eig_dense(M)
    order = np.lexsort((np.angle(lam), np.abs(lam)))
    block = W[:, order[:k]]
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < rank_tol:
        raise DefectiveClusterError(
            f"selected {k}-dimensional eigenvector cluster is numerically defective "
            f"(singular value ratio {0.0 if sv[0] == 0 else sv[-1] / sv[0]:.2e})"
        )
    X = qr_econ(block).Q
    T = np.triu(X.conj().T @ M @ X)
    return PartialSchur(X=X, T=T)


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
