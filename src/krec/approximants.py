"""Closed-form extraction formulas: FOM, recycled FOM, sketched/whitened FOM,
sketch-and-recycle FOM, the SVD-stabilized variant, and the GMRES-type family.

All operations return an Approximant carrying the short coefficient vector;
the full N-length vector is materialized lazily since the O(N(m+k)) linear
combination should be avoided whenever possible.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .arnoldi import MODE_TRUNCATED, arnoldi_build
from .errors import DimensionMismatchError, RankDeficiencyError
from .linalg import (
    GrowingQR,
    herm_mul,
    lu_solve,
    qr_econ,
    right_div_triangular,
    svd_truncated,
    whiten,
    whiten_r,
)
from .matfun import matfun_apply
from .recycle import RecycleState, propagate_AU, update_orthonormal, update_sketched
from .sketch import sketch_apply, sketch_av_from_arnoldi
from .sparse import csr_matvec

_COND_LIMIT = 1e14      # condition estimate cutoff for sgmres_type
_DROP_TOL = 1e-12       # augmented-basis column drop threshold


@dataclass
class Approximant:
    """Coefficients of an approximant in a working basis.

    The basis is one matrix, or a tuple of its column blocks, such as the
    [U, V_m] of a sketched basis, which is then never stacked.
    """

    coeffs: np.ndarray
    basis: np.ndarray | tuple
    ell: int | None = None
    _full: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if sum(B.shape[1] for B in self.blocks) != self.coeffs.shape[0]:
            raise DimensionMismatchError("coefficient length must match basis width")

    @property
    def blocks(self):
        return self.basis if isinstance(self.basis, tuple) else (self.basis,)

    def full_vector(self):
        """Materialize basis @ coeffs (cached)."""
        if self._full is None:
            j = 0
            for B in self.blocks:
                part = B @ self.coeffs[j:j + B.shape[1]]
                j += B.shape[1]
                if self._full is None:
                    self._full = part
                else:
                    self._full += part
        return self._full


def fom_closed(V, G, b, f, counters=None):
    """FOM / Rayleigh-Ritz approximant V f(G) V* b for orthonormal V, G = V* A V."""
    V = np.asarray(V)
    b = np.asarray(b, dtype=np.complex128)
    c = herm_mul(V, b)
    if counters is not None:
        counters.add_inner_products(V.shape[1])
    coeffs = matfun_apply(f, G, c)
    return Approximant(coeffs=coeffs, basis=V)


class KrylovBasis:
    """The Krylov basis V_m alone, the working basis of FOM."""

    def __init__(self, counters=None):
        self.counters = counters

    def extend(self, fac):
        self.fac = fac

    def approximant(self, b, f):
        """Closed-form FOM approximant V_m f(H_m) V_m* b."""
        return fom_closed(self.fac.V, self.fac.square_h(), b, f, self.counters)

    norm = staticmethod(np.linalg.norm)  # of V_m y, as V_m is orthonormal


class _GrownBasis:
    """The QR of a working set M = [M_U, M_V], grown as the Krylov block M_V grows,
    and the projection of its image through the Arnoldi relation.

    The image of M is X = [X_U, M_V H_m + h x_next e_m^T]: X_U is the image
    of M_U, given once, and x_next the image of v_next.  Q* X_U is kept as Q
    grows, and Q* M_V = R[:, k:], so

        P = Q* X = [Q* X_U, R[:, k:] H_m + h (Q* x_next) e_m^T]

    is ``fac.image`` of R[:, k:] and Q* x_next: no work on long vectors past
    Q* x_next.  AugmentedBasis uses (M, X) = ([U, V_m], A [U, V_m]);
    SketchedBasis their sketches.
    """

    def _start(self, nrows, XU):
        self.k = XU.shape[1]
        self.qr = GrowingQR(nrows)
        self._XU = XU
        self._QXU = np.zeros((0, self.k), dtype=np.complex128)

    @property
    def R(self):
        return self.qr.R

    def _append(self, W, counters=None):
        if W.shape[1]:
            self._QXU = np.vstack([self._QXU, herm_mul(self.qr.append(W, counters), self._XU)])

    def _project(self, fac, x_next):
        """P = Q* X for the Arnoldi factorization fac of the Krylov block."""
        Qx = None if fac.breakdown is not None else herm_mul(self.qr.Q, x_next)
        return np.hstack([self._QXU, fac.image(self.qr.R[:, self.k:], Qx)])


class AugmentedBasis(_GrownBasis):
    """Orthonormal basis Q of the augmented space [U, V_m], grown with V_m.

    Q R = [U, V_m] with R upper triangular with a nonnegative real diagonal.
    U and A U enter once, A U at k matvecs unless a cached one is given.
    Each extend() appends only the Krylov columns added since the previous
    call to the grown QR (``linalg.GrowingQR``: block classical Gram-Schmidt
    against Q run twice, then a QR of the new block).  Column j of [U, V_m]
    is charged j+1 inner products, the cost a one-shot QR of [U, V_m] is
    charged.  G = Q* A Q = P R^{-1} (see ``_GrownBasis``).
    """

    def __init__(self, A, U=None, AU=None, counters=None, matrix_epoch=None):
        N = A.nrows
        U = (np.zeros((N, 0), dtype=np.complex128) if U is None
             else np.asarray(U, dtype=np.complex128))
        if AU is None:
            AU = np.empty((N, U.shape[1]), dtype=np.complex128, order="F")
            for j in range(U.shape[1]):
                AU[:, j] = csr_matvec(A, U[:, j], counters)
        AU = np.asarray(AU, dtype=np.complex128)
        if AU.shape != U.shape:
            raise DimensionMismatchError("AU must have the shape of U")
        self.counters = counters
        self.matrix_epoch = matrix_epoch
        self._start_with(U, AU)

    def _start_with(self, U, AU):
        self.U, self.AU = U, AU
        self._start(U.shape[0], AU)
        self.m = 0               # Krylov columns absorbed
        self.fac = None
        self.G = None
        self._append(U, self.counters)

    @property
    def Q(self):
        return self.qr.Q

    def extend(self, fac):
        """Absorb the Krylov columns of fac not yet in Q and update G.

        fac must extend the factorization of the previous call.  If a column
        turns out numerically dependent, U columns are dropped (with a
        warning) and the basis is rebuilt from the rest.
        """
        self._append(fac.V[:, self.m:], self.counters)
        self.m, self.fac = fac.m, fac
        d = np.abs(np.diagonal(self.R))
        flagged = int(np.count_nonzero(d <= _DROP_TOL * max(d.max(), 1.0)))
        if flagged and self.k:
            self._drop_dependent(flagged)
            self.extend(fac)
            return
        self.G = right_div_triangular(self._project(fac, fac.v_next), self.R)

    def _drop_dependent(self, flagged):
        # V is orthonormal, so any dependency is attributable to U: probe U
        # after V_m and drop at least as many U columns as were flagged, those
        # with the smallest probe diagonals.  Q* [U, V_m] = R and R_V has
        # orthonormal columns, so the probe is the QR of R_U - R_V (R_V* R_U).
        RU, RV = self.R[:, :self.k], self.R[:, self.k:]
        du = np.abs(np.diagonal(qr_econ(RU - RV @ herm_mul(RV, RU)).R))
        n_drop = min(self.k, max(flagged, int(np.count_nonzero(
            du <= _DROP_TOL * max(du.max(), 1.0)))))
        keep = np.sort(np.argsort(du, kind="stable")[n_drop:])
        warnings.warn(
            f"dropping {n_drop} numerically dependent augmentation column(s)",
            stacklevel=3,
        )
        self._start_with(self.U[:, keep], self.AU[:, keep])

    def approximant(self, b, f):
        """Closed-form rFOM approximant Q f(G) Q* b."""
        approx = fom_closed(self.Q, self.G, b, f, self.counters)
        if not np.all(np.isfinite(approx.coeffs)):
            raise RankDeficiencyError(
                "augmented approximant is not finite: [U, V_m] is numerically "
                "rank-deficient or f overflowed on G"
            )
        return approx

    norm = staticmethod(np.linalg.norm)  # of Q y, as Q is orthonormal

    def recycle(self, k):
        """Recycling state for the next problem, with U and A U, no matvecs.

        U_new = Q X spans the min(k, n) Ritz vectors of G closest to the
        origin, and A U_new = A [U, V_m] R^{-1} X comes from the cached A U
        and the Arnoldi relation.
        """
        U, ritz, X = update_orthonormal(self.Q, self.G, k)
        Y = scipy.linalg.solve_triangular(self.R, X)
        AU_new = propagate_AU(self.AU, self.fac, Y[self.k:], Y[:self.k])
        return RecycleState(U=U, AU=AU_new, matrix_epoch=self.matrix_epoch,
                            k_target=k, ritz_values=ritz)


def rfom_step(A, b, U, m, f, AU=None, counters=None):
    """One recycled-FOM step: orthonormal Krylov + augmentation extraction.

    Builds a fully orthogonalized Arnoldi factorization (m+1 matvecs), forms
    the orthonormal augmented basis of [U, V_m], and evaluates the closed-form
    approximant.  The k augmentation columns cost k matvecs unless a cached
    AU is supplied, in which case no extra matvecs are performed.  Returns
    the approximant and the AugmentedBasis.
    """
    basis = AugmentedBasis(A, U, AU, counters)
    basis.extend(arnoldi_build(A, b, m, mode="full", counters=counters))
    return basis.approximant(b, f), basis


def _whitened(basis, w, z, f):
    """Sketched FOM over one whitening of S Vhat = Q R, for z = Q* S b:
    coeffs = J D^{-1} f(G) L* z, in the basis Vhat (or its column blocks)."""
    y = matfun_apply(f, w.G, w.forward(z))
    ell = None if w.J is None else w.J.shape[1]
    return Approximant(coeffs=w.back(y), basis=basis, ell=ell)


def sfom_whitened(Vhat, SV, SAV, Sb, f):
    """Whitened sketched FOM: coeffs = R^{-1} f(Q* SAV R^{-1}) Q* Sb, QR of SV."""
    Q, w = whiten(SV, SAV)
    return _whitened(np.asarray(Vhat), w, herm_mul(Q, Sb), f)


def srfom_stab(Vhat, SV, SAV, Sb, f, svdtol=1e-14):
    """Stabilized sketched FOM over the SVD of SV cut at sigma_ell >= svdtol * sigma_1
    (taken as the SVD of the R of SV)."""
    Q, w = whiten(SV, SAV, svdtol)
    return _whitened(np.asarray(Vhat), w, herm_mul(Q, Sb), f)


class SketchedBasis(_GrownBasis):
    """Sketched working set [U, V_m] of sFOM and srFOM, grown by appending V_m.

    Each Krylov column is sketched once: extend() sketches only the columns
    added since the previous call, and the sketch of v_next, kept for the
    Arnoldi relation, is the sketch of the column v_next becomes.  S U and
    S A U come from the recycling state; on a new matrix epoch S A U is
    formed again at k matvecs and k sketches, unless the update is inexact.

    S Vhat = [S U, S V_m] = Q R is grown, not re-factored: each extend()
    appends only its new sketched columns (all of [S U, S V_m] on the first
    call) to a ``linalg.GrowingQR``, charged no inner products.  S A Vhat is
    never formed: Q* S A Vhat is P of ``_GrownBasis`` with x_next = S v_next,
    and ``linalg.whiten_r`` turns R and P into the whitening, by the rank-
    checked R or, if stabilized, by the truncated SVD of the small R.  So
    Q* S b = ||b|| R[:, k], and ||S Vhat y|| = ||R y||.  ``recycle`` reads the
    whitening of the last approximant.  Vhat, SVhat = Q R and SAVhat are
    formed only on request; the approximant keeps U and V_m apart.
    """

    def __init__(self, A, S, recycle=None, matrix_epoch=None, counters=None,
                 stabilized=False, svdtol=1e-14, inexact=False):
        self.S, self.counters = S, counters
        self.matrix_epoch = matrix_epoch
        self.svdtol = svdtol if stabilized else None  # None: whiten by QR
        self.fac = self.s_next = self.whitening = None
        k = 0 if recycle is None else recycle.k
        self.U, self.SU = None, np.zeros((S.s, 0), dtype=np.complex128)
        self.SAU = self.SU
        if k:
            self.U, self.SU, self.SAU = recycle.U, recycle.SU, recycle.SAU
            if recycle.matrix_epoch != matrix_epoch and not inexact:
                AU = np.column_stack([csr_matvec(A, self.U[:, j], counters)
                                      for j in range(k)])
                self.SAU = np.column_stack([sketch_apply(S, AU[:, j], counters)
                                            for j in range(k)])
        self._start(S.s, self.SAU)

    def extend(self, fac):
        """Absorb the Krylov columns of fac not yet sketched and whiten.

        fac must extend the factorization of the previous call.
        """
        if self.fac is None:
            cols, first = [self.SU], 0  # S U enters with the first Krylov block
        elif fac.m > self.fac.m:
            # the previous v_next became column self.fac.m; its sketch is cached
            cols, first = [self.s_next], self.fac.m + 1
        else:
            return
        cols += [sketch_apply(self.S, fac.V[:, j], self.counters)
                 for j in range(first, fac.m)]
        self._append(np.column_stack(cols))
        self.s_next = (None if fac.breakdown is not None
                       else sketch_apply(self.S, fac.v_next, self.counters))
        self.fac = fac
        self.whitening = whiten_r(self.R, self._project(fac, self.s_next), self.svdtol)

    @property
    def Vhat(self):
        return np.column_stack([self.U, self.fac.V]) if self.k else self.fac.V

    @property
    def SVhat(self):
        return self.qr.Q @ self.R

    @property
    def SAVhat(self):
        return np.column_stack([self.SAU, sketch_av_from_arnoldi(
            self.S, self.fac, self.qr.Q @ self.R[:, self.k:], self.s_next)])

    def approximant(self, b, f):
        """Sketched FOM approximant over the blocks [U, V_m]; S b = ||b|| S v_1,
        so Q* S b = ||b|| R[:, k]."""
        basis = (self.U, self.fac.V) if self.k else self.fac.V
        return _whitened(basis, self.whitening, np.linalg.norm(b) * self.R[:, self.k], f)

    def norm(self, y):
        """Sketched norm ||S Vhat y|| = ||R y||, the estimator's stand-in for ||Vhat y||."""
        return np.linalg.norm(self.R @ y)

    def images(self, Y):
        """(Vhat Y, S Vhat Y, S A Vhat Y), the last by the Arnoldi relation:
        S A Vhat Y = S A U Y_U + S V_m (H_m Y_V) + h S v_next Y_V[-1]."""
        YU, YV = Y[:self.k], Y[self.k:]
        SVm = self.qr.Q @ self.R[:, self.k:]
        SAV = self.fac.image(SVm, self.s_next, YV, self.SAU, YU)
        V, SV = self.fac.V @ YV, SVm @ YV
        if self.k:
            V += self.U @ YU
            SV += self.SU @ YU
        return V, SV, SAV

    def recycle(self, k):
        """Recycling state for the next problem by sketched Rayleigh-Ritz."""
        return update_sketched(self, k)


def srfom_step(A, b, S, recycle, m, f, t=2, counters=None, stabilized=False,
               svdtol=1e-14, matrix_epoch=None, inexact=False):
    """One sketch-and-recycle FOM step with a truncated Arnoldi basis.

    Returns the approximant and the SketchedBasis, which update_sketched
    takes; m+1 sketches, plus k matvecs and k sketches when S A U is formed
    again (see SketchedBasis).
    """
    b = np.asarray(b, dtype=np.complex128)
    basis = SketchedBasis(A, S, recycle, matrix_epoch, counters, stabilized=stabilized,
                          svdtol=svdtol, inexact=inexact)
    basis.extend(arnoldi_build(A, b, m, mode=MODE_TRUNCATED, t=t, counters=counters))
    return basis.approximant(b, f), basis


def gmres_type_closed(fac, b, f):
    """GMRES-type approximant from a fully orthogonalized Arnoldi factorization."""
    if fac.mode != "full":
        raise ValueError("gmres_type_closed requires a fully orthogonalized basis")
    b = np.asarray(b, dtype=np.complex128)
    Hm = fac.square_h().copy()
    if fac.breakdown is None and fac.h_tail != 0:
        x = lu_solve(Hm.conj().T, np.eye(fac.m, dtype=np.complex128)[:, -1])
        Hm[:, -1] += abs(fac.h_tail) ** 2 * x
    e1 = np.zeros(fac.m, dtype=np.complex128)
    e1[0] = np.linalg.norm(b)
    coeffs = matfun_apply(f, Hm, e1)
    return Approximant(coeffs=coeffs, basis=fac.V)


def sgmres_type(SV, SW, Sb, Vhat, f):
    """Sketched GMRES-type approximant with SW = S @ A @ Vhat."""
    SV = np.asarray(SV)
    SW = np.asarray(SW)
    B = SW.conj().T @ SV
    if np.linalg.cond(B) > _COND_LIMIT:
        raise RankDeficiencyError(
            "(SW)* SV is near-singular; use sgmres_type_stab"
        )
    G = lu_solve(B, SW.conj().T @ SW)
    z = lu_solve(B, SW.conj().T @ np.asarray(Sb))
    coeffs = matfun_apply(f, G, z)
    return Approximant(coeffs=coeffs, basis=np.asarray(Vhat))


def sgmres_type_stab(SV, SW, Sb, Vhat, f, svdtol=1e-14):
    """Stabilized sketched GMRES-type approximant via a truncated SVD of SW."""
    SV = np.asarray(SV)
    L, sig, J = svd_truncated(SW, svdtol)
    K = L.conj().T @ SV @ J
    G = lu_solve(K, np.diag(sig).astype(np.complex128))
    z = lu_solve(K, L.conj().T @ np.asarray(Sb))
    coeffs = J @ matfun_apply(f, G, z)
    return Approximant(coeffs=coeffs, basis=np.asarray(Vhat), ell=sig.size)
