"""Recycling-subspace maintenance between problems in a sequence.

The augmentation basis U is extracted from the working basis of the previous
problem: by orthonormal Rayleigh-Ritz for rFOM, by sketched Rayleigh-Ritz
(with an optional SVD-stabilized pencil reduction) for srFOM.  Cached sketch
products SU / SAU and the optional exact AU are tagged with the matrix epoch
they were computed against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, EpochMismatchError
from .linalg import check_sketched_rank, partial_schur_closest_to_origin, whiten


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
    """Extract an orthonormal U of min(k, order of G) columns from an orthonormal
    working basis.

    G must be basis* A basis; the eigenvalues of G closest to the origin are
    targeted.  Returns (U, ritz_values, X) with U = basis X.
    """
    ps = partial_schur_closest_to_origin(G, k)
    return np.asarray(basis) @ ps.X, np.diagonal(ps.T).copy(), ps.X


def srr_matrix(qr, SAV):
    """Sketched Rayleigh-Ritz matrix R^{-1} Q* (S A Vhat) from the QR of S Vhat."""
    check_sketched_rank(qr.R)
    return scipy.linalg.solve_triangular(qr.R, qr.Q.conj().T @ np.asarray(SAV))


def update_sketched(bundle, k):
    """Sketched Rayleigh-Ritz update over the whitening of the bundle's last
    approximant.

    A ``SketchedBasis`` forms U, S U and S A U by ``images`` from small
    products; a bundle of stacked Vhat, SVhat, SAVhat without a whitening is
    whitened by QR here.
    """
    if bundle.whitening is None:
        return update_sketched_stab(bundle.Vhat, bundle.SVhat, bundle.SAVhat, k,
                                    svdtol=None, matrix_epoch=bundle.matrix_epoch)
    return _whitened_update(bundle.whitening, bundle.images, k, bundle.matrix_epoch)


def update_sketched_stab(Vhat, SVhat, SAVhat, k, svdtol=1e-14, matrix_epoch=None):
    """Recycling update from stacked arrays over the truncated SVD S Vhat ~ L Sigma J*
    (by QR with svdtol=None)."""
    Vhat, SVhat, SAVhat = (np.asarray(M) for M in (Vhat, SVhat, SAVhat))
    return _whitened_update(whiten(SVhat, SAVhat, svdtol)[1],
                            lambda Y: (Vhat @ Y, SVhat @ Y, SAVhat @ Y), k, matrix_epoch)


def _whitened_update(w, images, k, matrix_epoch):
    """U = Vhat Y, Y = J orth(D^{-1} X), for the Schur vectors X of the min(k, order)
    Ritz values of the whitened G closest to the origin; images(Y) gives
    (Vhat Y, S Vhat Y, S A Vhat Y).

    The Ritz vectors of G do not carry cond(R) as those of srr_matrix do.
    """
    ps = partial_schur_closest_to_origin(w.G, k)
    U, SU, SAU = images(w.back(ps.X, orth=True))
    return RecycleState(U=U, SU=SU, SAU=SAU, matrix_epoch=matrix_epoch,
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
    elif prev_AU.shape[1] != X_aug.shape[0]:
        raise EpochMismatchError("cached AU width does not match X_aug rows")
    return fac.image(fac.V, fac.v_next, X_kry, prev_AU, X_aug)


def update_inexact(bundle, k):
    """Inexact sketched Rayleigh-Ritz update (configuration-flag path).

    Identical arithmetic to update_sketched; the inexactness (stale SAU
    columns for a changed matrix) is introduced upstream by running the
    sketched step with the inexact flag, which skips the SAU refresh.
    """
    return update_sketched(bundle, k)
