"""Recycling-subspace maintenance between problems in a sequence.

The augmentation basis U is extracted from the working basis of the previous
problem: by orthonormal Rayleigh-Ritz for rFOM, by sketched Rayleigh-Ritz
(with an optional SVD-stabilized pencil reduction) for srFOM.  Cached sketch
products SU / SAU and the optional exact AU are tagged with the matrix epoch
they were computed against.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, EpochMismatchError, RankDeficiencyError
from .linalg import partial_schur_closest_to_origin, qr_econ, right_div_triangular, svd_truncated


@dataclass
class RecycleState:
    U: np.ndarray              # N x k augmentation basis (k may be 0)
    SU: np.ndarray | None = None   # s x k cached sketch of U
    SAU: np.ndarray | None = None  # s x k cached sketch of A_epoch @ U
    AU: np.ndarray | None = None   # optional exact A_epoch @ U
    matrix_epoch: object = None
    k_target: int = 0
    ritz_values: np.ndarray | None = None

    @property
    def k(self):
        return self.U.shape[1]

    @classmethod
    def empty(cls, N, k_target=0):
        return cls(U=np.zeros((N, 0), dtype=np.complex128), k_target=k_target)


def update_orthonormal(basis, G, k):
    """Extract a k-dimensional orthonormal U from an orthonormal working basis.

    G must be basis* A basis; the eigenvalues of G closest to the origin are
    targeted.  Returns (U, ritz_values).
    """
    if k == 0:
        return np.zeros((basis.shape[0], 0), dtype=np.complex128), np.zeros(0, dtype=np.complex128)
    ps = partial_schur_closest_to_origin(G, k)
    return np.asarray(basis) @ ps.X, np.diagonal(ps.T).copy()


def _check_sketched_rank(qr):
    d = np.abs(np.diagonal(qr.R))
    if d.size and d.min() <= 1e-13 * d.max():
        raise RankDeficiencyError("singular R in sRR; use update_sketched_stab")


def srr_matrix(qr, SAV):
    """Sketched Rayleigh-Ritz matrix R^{-1} Q* (S A Vhat) from the QR of S Vhat."""
    _check_sketched_rank(qr)
    return scipy.linalg.solve_triangular(qr.R, qr.Q.conj().T @ np.asarray(SAV))


def update_sketched(bundle, k):
    """Sketched Rayleigh-Ritz recycling update from a sketched FOM bundle.

    Ritz pairs of sfom_whitened's G = Q* S A Vhat R^{-1}, whose eigenvectors do
    not carry cond(R) as srr_matrix's do; U = Vhat orth(R^{-1} X).
    """
    qr = bundle.qr if bundle.qr is not None else qr_econ(bundle.SVhat)
    _check_sketched_rank(qr)
    G = right_div_triangular(qr.Q.conj().T @ np.asarray(bundle.SAVhat), qr.R)
    ps = partial_schur_closest_to_origin(G, min(k, G.shape[0]))
    Y = np.linalg.qr(scipy.linalg.solve_triangular(qr.R, ps.X))[0]
    return _sketched_state(bundle.Vhat, bundle.SVhat, bundle.SAVhat, Y, ps, k,
                           bundle.matrix_epoch)


def update_sketched_stab(Vhat, SVhat, SAVhat, k, svdtol=1e-14, matrix_epoch=None):
    """Stabilized recycling update from the truncated SVD S Vhat ~ L Sigma J*.

    Ritz pairs of srfom_stab's G = L* S A Vhat J Sigma^{-1}; U = Vhat J orth(Sigma^{-1} X).
    If fewer than k singular values survive the cutoff, k is reduced with a warning.
    """
    L, sig, J = svd_truncated(SVhat, svdtol)
    if sig.size < k:
        warnings.warn(f"stabilized update reduced k from {k} to {sig.size}", stacklevel=2)
        k = sig.size
    G = (L.conj().T @ np.asarray(SAVhat) @ J) / sig[np.newaxis, :]
    ps = partial_schur_closest_to_origin(G, k)
    Y = J @ np.linalg.qr(ps.X / sig[:, np.newaxis])[0]
    return _sketched_state(Vhat, SVhat, SAVhat, Y, ps, k, matrix_epoch)


def _sketched_state(Vhat, SVhat, SAVhat, X, ps, k, matrix_epoch):
    """The state spanned by Vhat X: U, S U and S A U by right-multiplication."""
    return RecycleState(U=np.asarray(Vhat) @ X, SU=np.asarray(SVhat) @ X,
                        SAU=np.asarray(SAVhat) @ X, matrix_epoch=matrix_epoch,
                        k_target=k, ritz_values=np.diagonal(ps.T).copy())


def propagate_AU(prev_AU, fac, X_kry, X_aug):
    """Exact A @ U_new without matvecs, for U_new = V_m @ X_kry + U_old @ X_aug.

    Requires the matrix to be unchanged since prev_AU = A @ U_old was formed
    and fac to be the Arnoldi factorization of the same A.
    """
    X_kry = np.asarray(X_kry)
    X_aug = np.asarray(X_aug)
    if X_kry.shape[0] != fac.m:
        raise DimensionMismatchError("X_kry rows must match the Krylov dimension")
    if prev_AU is None:
        if X_aug.shape[0] != 0:
            raise EpochMismatchError("no cached AU for the augmentation block")
        prev_AU = np.zeros((fac.V.shape[0], 0), dtype=np.complex128)
    elif prev_AU.shape[1] != X_aug.shape[0]:
        raise EpochMismatchError("cached AU width does not match X_aug rows")
    out = fac.V @ (fac.square_h() @ X_kry) + prev_AU @ X_aug
    if fac.breakdown is None:
        out += np.outer(fac.h_tail * fac.v_next, X_kry[-1, :])
    return out


def update_inexact(bundle, k):
    """Inexact sketched Rayleigh-Ritz update (configuration-flag path).

    Identical arithmetic to update_sketched; the inexactness (stale SAU
    columns for a changed matrix) is introduced upstream by running the
    sketched step with the inexact flag, which skips the SAU refresh.
    """
    return update_sketched(bundle, k)
