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
    cgs2,
    herm_mul,
    lu_solve,
    qr_econ,
    right_div_triangular,
    svd_truncated,
    whiten,
)
from .matfun import matfun_apply
from .recycle import RecycleState, propagate_AU, update_orthonormal, update_sketched
from .sketch import sketch_apply, sketch_av_from_arnoldi
from .sparse import csr_matvec

_COND_LIMIT = 1e14      # condition estimate cutoff for sgmres_type
_DROP_TOL = 1e-12       # augmented-basis column drop threshold


@dataclass
class Approximant:
    """Coefficients of an approximant in a working basis."""

    coeffs: np.ndarray
    basis: np.ndarray
    ell: int | None = None
    _full: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.basis.shape[1] != self.coeffs.shape[0]:
            raise DimensionMismatchError("coefficient length must match basis width")

    def full_vector(self):
        """Materialize basis @ coeffs (cached)."""
        if self._full is None:
            self._full = self.basis @ self.coeffs
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


class AugmentedBasis:
    """Orthonormal basis Q of the augmented space [U, V_m], grown with V_m.

    Q R = [U, V_m] with R upper triangular with a nonnegative real diagonal.
    U and A U enter once, A U at k matvecs unless a cached one is given.
    Each extend() orthogonalizes only the Krylov columns added since the
    previous call: block classical Gram-Schmidt against Q run twice
    (``linalg.cgs2``, the kernel full Arnoldi uses), then a QR of the new block.  Column j of [U, V_m] is charged
    j+1 inner products, the cost a one-shot QR of [U, V_m] is charged.

    G = Q* A Q comes from small matrices: A V_m = V_{m+1} H_m and
    Q* V_m = R[:, k:], so Q* A [U, V_m] = [Q* AU, R[:, k:] H_m + h (Q* v_next) e_m^T]
    and the only N-length work past the projection is Q* v_next.  Q is kept
    column-major and its buffer grows geometrically.
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
        self._start(U, AU)

    def _start(self, U, AU):
        self.U, self.AU = U, AU
        self.k = U.shape[1]
        self.n = 0               # columns of Q
        self.m = 0               # Krylov columns absorbed
        self.fac = None
        self.G = None
        self.R = np.zeros((0, 0), dtype=np.complex128)
        self._QAU = np.zeros((0, self.k), dtype=np.complex128)  # Q* AU
        self._buf = np.empty((U.shape[0], 0), dtype=np.complex128, order="F")
        self._append(U)

    @property
    def Q(self):
        return self._buf[:, :self.n]

    def _append(self, W):
        """Orthonormalize the columns of W against Q and append them."""
        n, d = self.n, W.shape[1]
        if d == 0:
            return
        C = np.zeros((0, d), dtype=np.complex128)
        if n:
            W, C = cgs2(self.Q, W)
            if self.counters is not None:
                self.counters.add_inner_products(n * d)
        qr = qr_econ(W, self.counters)
        if n + d > self._buf.shape[1]:
            buf = np.empty((self._buf.shape[0], max(n + d, 2 * self._buf.shape[1])),
                           dtype=np.complex128, order="F")
            buf[:, :n] = self._buf[:, :n]
            self._buf = buf
        self._buf[:, n:n + d] = qr.Q
        R = np.zeros((n + d, n + d), dtype=np.complex128)
        R[:n, :n] = self.R
        R[:n, n:] = C
        R[n:, n:] = qr.R
        self.R = R
        self._QAU = np.vstack([self._QAU, herm_mul(qr.Q, self.AU)])
        self.n = n + d

    def extend(self, fac):
        """Absorb the Krylov columns of fac not yet in Q and update G.

        fac must extend the factorization of the previous call.  If a column
        turns out numerically dependent, U columns are dropped (with a
        warning) and the basis is rebuilt from the rest.
        """
        self._append(fac.V[:, self.m:])
        self.m, self.fac = fac.m, fac
        d = np.abs(np.diagonal(self.R))
        flagged = int(np.count_nonzero(d <= _DROP_TOL * max(d.max(), 1.0)))
        if flagged and self.k:
            self._drop_dependent(flagged)
            self.extend(fac)
            return
        P = self.R[:, self.k:] @ fac.square_h()
        if fac.breakdown is None:
            P[:, -1] += fac.h_tail * herm_mul(self.Q, fac.v_next)
        self.G = right_div_triangular(np.hstack([self._QAU, P]), self.R)

    def _drop_dependent(self, flagged):
        # V is orthonormal, so any dependency is attributable to U: rank-check
        # with the Krylov block first and drop at least as many U columns as
        # were flagged, those with the smallest probe diagonals.
        dp = np.abs(np.diagonal(qr_econ(np.column_stack([self.fac.V, self.U])).R))
        du = dp[self.fac.m:]
        n_drop = min(self.k, max(flagged, int(np.count_nonzero(
            du <= _DROP_TOL * max(dp.max(), 1.0)))))
        keep = np.sort(np.argsort(du, kind="stable")[n_drop:])
        warnings.warn(
            f"dropping {n_drop} numerically dependent augmentation column(s)",
            stacklevel=3,
        )
        self._start(self.U[:, keep], self.AU[:, keep])

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


@dataclass
class RfomResult:
    approximant: Approximant
    basis: np.ndarray    # orthonormal augmented basis Q
    G: np.ndarray        # Q* A Q
    R: np.ndarray        # Q R = [U_kept, V_m]
    fac: object          # the Arnoldi factorization used
    k_used: int          # augmentation columns actually retained


def rfom_step(A, b, U, m, f, AU=None, counters=None):
    """One recycled-FOM step: orthonormal Krylov + augmentation extraction.

    Builds a fully orthogonalized Arnoldi factorization (m+1 matvecs), forms
    the orthonormal augmented basis of [U, V_m], and evaluates the closed-form
    approximant.  The k augmentation columns cost k matvecs unless a cached
    AU is supplied, in which case no extra matvecs are performed.
    """
    fac = arnoldi_build(A, b, m, mode="full", counters=counters)
    aug = AugmentedBasis(A, U, AU, counters)
    aug.extend(fac)
    return RfomResult(approximant=aug.approximant(b, f), basis=aug.Q, G=aug.G,
                      R=aug.R, fac=fac, k_used=aug.k)


def _whitened(Vhat, C, w, Sb, f):
    """Sketched FOM over one whitening of S Vhat: coeffs = J D^{-1} f(G) C* S b."""
    y = matfun_apply(f, w.G, C.conj().T @ np.asarray(Sb))
    ell = None if w.J is None else w.J.shape[1]
    return Approximant(coeffs=w.back(y), basis=np.asarray(Vhat), ell=ell)


def sfom_whitened(Vhat, SV, SAV, Sb, f):
    """Whitened sketched FOM: coeffs = R^{-1} f(Q* SAV R^{-1}) Q* Sb, QR of SV."""
    return _whitened(Vhat, *whiten(SV, SAV), Sb, f)


def srfom_stab(Vhat, SV, SAV, Sb, f, svdtol=1e-14):
    """Stabilized sketched FOM over the SVD of SV cut at sigma_ell >= svdtol * sigma_1."""
    return _whitened(Vhat, *whiten(SV, SAV, svdtol), Sb, f)


class SketchedBasis:
    """Sketched working set [U, V_m] of sFOM and srFOM, grown by appending V_m.

    Each Krylov column is sketched once: extend() sketches only the columns
    added since the previous call, and the sketch of v_next, taken for
    S A V_m, is kept as the sketch of the column v_next becomes.  S A V_m
    comes from the Arnoldi relation at no sketch cost.  S U and S A U come
    from the recycling state; on a new matrix epoch S A U is formed again
    at k matvecs and k sketches, unless the update is inexact.

    approximant() whitens S Vhat once (by the truncated SVD if stabilized) and
    keeps it: Vhat, SVhat, SAVhat, whitening, matrix_epoch feed update_sketched.
    """

    def __init__(self, A, S, recycle=None, matrix_epoch=None, counters=None,
                 stabilized=False, svdtol=1e-14, inexact=False):
        self.S, self.counters = S, counters
        self.matrix_epoch = matrix_epoch
        self.svdtol = svdtol if stabilized else None  # None: whiten by QR
        self.fac = self.SV = self.s_next = self.whitening = None
        self.k = 0 if recycle is None else recycle.k
        self.U = self.SU = self.SAU = None
        if self.k:
            self.U, self.SU, self.SAU = recycle.U, recycle.SU, recycle.SAU
            if recycle.matrix_epoch != matrix_epoch and not inexact:
                AU = np.column_stack([csr_matvec(A, self.U[:, j], counters)
                                      for j in range(self.k)])
                self.SAU = np.column_stack([sketch_apply(S, AU[:, j], counters)
                                            for j in range(self.k)])

    def extend(self, fac):
        """Absorb the Krylov columns of fac not yet sketched.

        fac must extend the factorization of the previous call.
        """
        if self.fac is None:
            cols, first = [], 0
        elif fac.m > self.fac.m:
            # the previous v_next became column self.fac.m; its sketch is cached
            cols, first = [self.s_next], self.fac.m + 1
        else:
            return
        cols += [sketch_apply(self.S, fac.V[:, j], self.counters)
                 for j in range(first, fac.m)]
        self.SV = np.column_stack(cols if self.SV is None else [self.SV] + cols)
        self.s_next = (None if fac.breakdown is not None
                       else sketch_apply(self.S, fac.v_next, self.counters))
        # the previous Vhat's whitening is stale; freeing it lowers the peak
        self.fac, self.whitening = fac, None
        SAV = sketch_av_from_arnoldi(self.S, fac, self.SV, self.s_next)
        if self.k:
            self.Vhat = np.column_stack([self.U, fac.V])
            self.SVhat = np.column_stack([self.SU, self.SV])
            self.SAVhat = np.column_stack([self.SAU, SAV])
        else:
            self.Vhat, self.SVhat, self.SAVhat = fac.V, self.SV, SAV

    def approximant(self, b, f):
        """Sketched FOM approximant; S b is recovered from S v_1."""
        Sb = np.linalg.norm(b) * self.SV[:, 0]
        C, self.whitening = whiten(self.SVhat, self.SAVhat, self.svdtol)
        return _whitened(self.Vhat, C, self.whitening, Sb, f)

    def norm(self, y):
        """Sketched norm ||S Vhat y||, the estimator's stand-in for ||Vhat y||."""
        return np.linalg.norm(self.SVhat @ y)

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
