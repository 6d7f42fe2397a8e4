"""Closed-form extraction formulas: FOM, recycled FOM, sketched/whitened FOM,
sketch-and-recycle FOM, the SVD-stabilized variant, and the GMRES-type family.

All operations return an Approximant carrying the short coefficient vector;
the full N-length vector is materialized lazily since the O(N(m+k)) linear
combination should be avoided whenever possible.
"""

from dataclasses import dataclass, field

import numpy as np

from .arnoldi import MODE_TRUNCATED, arnoldi_build
from .errors import DimensionMismatchError, RankDeficiencyError
from .linalg import (
    GrowingQR,
    combine,
    herm_mul,
    lu_solve,
    rcond,
    svd_truncated,
    whiten,
    whiten_r,
)
from .matfun import matfun_apply
from .recycle import RecycleState, propagate_AU, update_orthonormal, update_sketched
from .sketch import sketch_apply
from .sparse import csr_matvec

_COND_LIMIT = 1e14      # condition estimate cutoff for sgmres_type
# rFOM whitens [U, V_m] = Q R by R while rcond(R) > _RCOND_MIN; at or below
# it U is numerically dependent on V_m, and the SVD of R is cut at
# _SVDTOL * sigma_1.  A higher switch truncates bases that R whitens well,
# which costs inv-neumann2d matvecs.  A cut as low as the switch keeps
# directions of [U, V_m] that rounding has already spoiled, and chained exp
# sequences then fail problems; cuts from 1e-9 to 1e-6 behave alike.
_RCOND_MIN = 1e-12
_SVDTOL = 1e-8          # about sqrt(eps)


@dataclass
class Approximant:
    """Coefficients of an approximant in a working basis.

    The basis is the tuple of its column blocks, such as the [U, V_m] of a
    sketched basis, never stacked: ``full_vector`` is one ``linalg.combine``.
    """

    coeffs: np.ndarray
    basis: tuple
    ell: int | None = None
    _full: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if sum(B.shape[1] for B in self.basis) != self.coeffs.shape[0]:
            raise DimensionMismatchError("coefficient length must match basis width")

    def full_vector(self):
        """Materialize basis @ coeffs (cached)."""
        if self._full is None:
            ends = np.cumsum([B.shape[1] for B in self.basis])
            self._full = combine(list(zip(self.basis, np.split(self.coeffs, ends[:-1]))))
        return self._full


def fom_closed(V, G, b, f):
    """FOM / Rayleigh-Ritz approximant V f(G) V* b for orthonormal V, G = V* A V.

    The one-shot reference form, which takes the N-length V* b.  The working
    bases read their projection of b off their own factorization instead.
    """
    V = np.asarray(V)
    c = herm_mul(V, np.asarray(b, dtype=np.complex128))
    return Approximant(coeffs=matfun_apply(f, G, c), basis=(V,))


class KrylovBasis:
    """The Krylov basis V_m alone, the working basis of FOM."""

    def __init__(self):
        self.fac = None

    def extend(self, fac):
        self.fac = fac

    def approximant(self, b, f):
        """Closed-form FOM approximant ||b|| V_m f(H_m) e_1: v_1 = b / ||b||, so
        V_m* b = ||b|| e_1 and no product with b is taken."""
        c = np.linalg.norm(b) * np.eye(1, self.fac.m)[0]
        return Approximant(coeffs=matfun_apply(f, self.fac.square_h(), c), basis=(self.fac.V,))

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
    SketchedBasis their sketches.  Both take M_U = U and X_U from a
    ``RecycleState`` by the one rule of ``__init__``, and ``start_state``
    gives that state back, tagged with this basis's matrix epoch, for a
    problem that must start from the same U again.  The basis is then the
    one holder of U: AugmentedBasis keeps it only as Q[:, :k] R[:k, :k],
    and SketchedBasis, which reads U in ``approximant`` and ``images``,
    keeps the array it was given.
    """

    def __init__(self, A, recycle, matrix_epoch, counters, S=None, inexact=False):
        """Take U and its image X_U = A U (S A U for a sketch S) from the
        recycling state, and for a sketch S U too; None is the empty state.

        The state's cached X_U (its AU, or its SAU for a sketch) is reused on
        the matrix epoch it was formed on, or on a stale one when inexact.
        Otherwise the state's A U is dropped first, so that a stale A U does
        not outlive the forming of the new one, and X_U is formed by one loop
        over the columns of U, a matvec and then S: k matvecs, k sketches.
        A missing S U is formed in the same loop: k sketches more.
        """
        state = RecycleState.empty(A.nrows) if recycle is None else recycle
        self.U, self.k, self.SU = state.U, state.k, state.SU
        self.matrix_epoch, self.counters = matrix_epoch, counters
        image = (lambda x: x) if S is None else (lambda x: sketch_apply(S, x, counters))
        XU = state.AU if S is None else state.SAU
        forms = []  # (image of U formed here, map of a column of U)
        if XU is None or (state.matrix_epoch != matrix_epoch and not inexact):
            XU = state.AU = None  # no reference to a stale A U while the new one is formed
            # the layout sets how BLAS rounds products with X_U: A U column-major,
            # S A U row-major
            XU = (np.empty((A.nrows, self.k), dtype=np.complex128, order="F") if S is None
                  else np.empty((S.s, self.k), dtype=np.complex128))
            forms.append((XU, lambda u: image(csr_matvec(A, u, counters))))
        if S is not None and self.SU is None:
            self.SU = np.empty((S.s, self.k), dtype=np.complex128)
            forms.append((self.SU, image))
        for j in range(self.k):
            for out, form in forms:
                out[:, j] = form(self.U[:, j])
        self.qr = GrowingQR(XU.shape[0])
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
    U and A U come from the recycling state and enter once, at construction;
    A U costs k matvecs unless the state's A U was formed on this matrix
    epoch (see ``_GrownBasis``).  U is copied into the grown QR there, and
    the basis keeps no other reference to it: ``start_state`` forms
    U = Q[:, :k] R[:k, :k] again, the same space to rounding, only when a
    fallback asks for it.  Each extend() appends only the Krylov
    columns added since the previous call to the grown QR
    (``linalg.GrowingQR``: one block classical Gram-Schmidt pass against Q,
    a QR of the new block, and a second pass only where the first
    cancelled).  Column j of [U, V_m] is charged j+1 inner
    products, the cost a one-shot QR of [U, V_m] is charged.  Q and R only
    grow, so the coefficients of successive approximants, in Q coordinates,
    nest.  b = ||b|| v_1 is column k of [U, V_m], so Q* b = ||b|| R[:, k] is
    read off R, as the sketched basis reads Q* S b.

    ``whitening`` (``linalg.whiten_r``, see ``_GrownBasis`` for P) holds
    G = Q* A Q = P R^{-1} while rcond(R) > _RCOND_MIN.  At or below it U is
    numerically dependent on V_m, and R = L Sigma J* is cut at
    _SVDTOL * sigma_1: G = L* Q* A Q L, the projection onto the ell
    dominant directions Q L of [U, V_m].
    """

    def __init__(self, A, recycle=None, matrix_epoch=None, counters=None):
        super().__init__(A, recycle, matrix_epoch, counters)
        self.m = 0               # Krylov columns absorbed
        self.fac = self.whitening = None
        self._append(self.U, counters)
        self.U = None            # Q[:, :k] R[:k, :k] holds it now

    @property
    def Q(self):
        return self.qr.Q

    @property
    def G(self):
        return self.whitening.G

    def extend(self, fac):
        """Absorb the Krylov columns of fac not yet in Q and update G.

        fac must extend the factorization of the previous call.
        """
        # the previous fac goes first: its V may be a view of a buffer fac grew out of
        m_old, self.m, self.fac = self.m, fac.m, fac
        self._append(fac.V[:, m_old:], self.counters)
        svdtol = None if rcond(self.R) > _RCOND_MIN else _SVDTOL
        self.whitening = whiten_r(self.R, self._project(fac, fac.v_next), svdtol)

    def approximant(self, b, f):
        """Closed-form rFOM approximant Q L f(G) L* z for z = Q* b = ||b|| R[:, k]
        (L = I in the QR form), in Q coordinates; no product with b is taken."""
        w = self.whitening
        y = matfun_apply(f, w.G, w.forward(np.linalg.norm(b) * self.R[:, self.k]))
        return Approximant(coeffs=y if w.L is None else w.L @ y, basis=(self.Q,),
                           ell=None if w.L is None else w.L.shape[1])

    norm = staticmethod(np.linalg.norm)  # of Q y, as Q is orthonormal

    def start_state(self):
        """The state this basis started from: U = Q[:, :k] R[:k, :k] and its
        cached A U, tagged with this basis's matrix epoch; no matvecs."""
        return RecycleState(U=combine([(self.Q[:, :self.k], self.R[:self.k, :self.k])]),
                            AU=self._XU, matrix_epoch=self.matrix_epoch)

    def recycle(self, k, next_epoch=None):
        """Recycling state for the problem on matrix epoch next_epoch (None: this
        basis's matrix), with no matvecs.

        U_new = Q L X spans the min(k, ell) Ritz vectors of G closest to the
        origin.  On this basis's matrix epoch, A U_new = A [U, V_m] J Sigma^{-1} X
        (A [U, V_m] R^{-1} X in the QR form) comes from the cached A U and the
        Arnoldi relation.  On another epoch the next basis would drop it as
        stale, so it is not formed: the state holds U alone.
        """
        U, ritz, X = update_orthonormal(self.Q, self.G, k, self.whitening.L)
        AU_new = None
        if next_epoch is None or next_epoch == self.matrix_epoch:
            Y = self.whitening.back(X)
            AU_new = propagate_AU(self._XU, self.fac, Y[self.k:], Y[:self.k])
        return RecycleState(U=U, AU=AU_new, matrix_epoch=self.matrix_epoch,
                            ritz_values=ritz)


def rfom_step(A, b, U, m, f, AU=None, counters=None):
    """One recycled-FOM step: orthonormal Krylov + augmentation extraction.

    Builds a fully orthogonalized Arnoldi factorization (m+1 matvecs), forms
    the orthonormal augmented basis of [U, V_m], and evaluates the closed-form
    approximant.  The k augmentation columns cost k matvecs unless a cached
    AU is supplied, in which case no extra matvecs are performed.  U and AU
    enter as a ``RecycleState``; returns the approximant and the
    AugmentedBasis.
    """
    U = (np.zeros((A.nrows, 0), dtype=np.complex128) if U is None
         else np.asarray(U, dtype=np.complex128))
    AU = None if AU is None else np.asarray(AU, dtype=np.complex128)
    if AU is not None and AU.shape != U.shape:
        raise DimensionMismatchError("AU must have the shape of U")
    basis = AugmentedBasis(A, RecycleState(U=U, AU=AU), counters=counters)
    basis.extend(arnoldi_build(A, b, m, mode="full", counters=counters))
    return basis.approximant(b, f), basis


def _whitened(basis, w, z, f):
    """Sketched FOM over one whitening of S Vhat = Q R, for z = Q* S b:
    coeffs = J D^{-1} f(G) L* z, in the basis Vhat given as its column blocks."""
    y = matfun_apply(f, w.G, w.forward(z))
    ell = None if w.J is None else w.J.shape[1]
    return Approximant(coeffs=w.back(y), basis=basis, ell=ell)


def sfom_whitened(Vhat, SV, SAV, Sb, f):
    """Whitened sketched FOM: coeffs = R^{-1} f(Q* SAV R^{-1}) Q* Sb, QR of SV."""
    Q, w = whiten(SV, SAV)
    return _whitened((np.asarray(Vhat),), w, herm_mul(Q, Sb), f)


def srfom_stab(Vhat, SV, SAV, Sb, f, svdtol=1e-14):
    """Stabilized sketched FOM over the SVD of SV cut at sigma_ell >= svdtol * sigma_1
    (taken as the SVD of the R of SV)."""
    Q, w = whiten(SV, SAV, svdtol)
    return _whitened((np.asarray(Vhat),), w, herm_mul(Q, Sb), f)


class SketchedBasis(_GrownBasis):
    """Sketched working set [U, V_m] of sFOM and srFOM, grown by appending V_m.

    Each Krylov column is sketched once: extend() sketches only the columns
    added since the previous call, and the sketch of v_next, kept for the
    Arnoldi relation, is the sketch of the column v_next becomes.  S U and
    S A U come from the recycling state, and S U enters with the first
    Krylov block; S U costs k sketches when the state has none, and S A U
    k matvecs and k sketches unless the state's was formed on this matrix
    epoch or the update is inexact (see ``_GrownBasis``).

    S Vhat = [S U, S V_m] = Q R is grown, not re-factored: each extend()
    appends only its new sketched columns (all of [S U, S V_m] on the first
    call) to a ``linalg.GrowingQR`` (one projection against Q, a second only
    where the first cancelled), charged no inner products.  S A Vhat is
    never formed: Q* S A Vhat is P of ``_GrownBasis`` with x_next = S v_next,
    and ``linalg.whiten_r`` turns R and P into the whitening, by the rank-
    checked R, or by the SVD of the small R cut at svdtol * sigma_1 when
    svdtol is given (srFOM-stab).  So Q* S b = ||b|| R[:, k], and
    ||S Vhat y|| = ||R y||.  ``recycle`` reads the whitening of the last
    approximant.  Vhat, S Vhat and S A Vhat are formed only on request, by
    ``images``; the approximant keeps U and V_m apart.
    """

    def __init__(self, A, S, recycle=None, matrix_epoch=None, counters=None,
                 svdtol=None, inexact=False):
        super().__init__(A, recycle, matrix_epoch, counters, S, inexact)
        self.S, self.svdtol = S, svdtol  # svdtol None: whiten by QR
        self.fac = self.s_next = self.whitening = None

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

    def approximant(self, b, f):
        """Sketched FOM approximant over the blocks [U, V_m]; S b = ||b|| S v_1,
        so Q* S b = ||b|| R[:, k]."""
        basis = (self.U, self.fac.V) if self.k else (self.fac.V,)
        return _whitened(basis, self.whitening, np.linalg.norm(b) * self.R[:, self.k], f)

    def norm(self, y):
        """Sketched norm ||S Vhat y|| = ||R y||, the estimator's stand-in for ||Vhat y||."""
        return np.linalg.norm(self.R @ y)

    def start_state(self):
        """The state this basis started from: U, S U and S A U as it holds them,
        tagged with this basis's matrix epoch."""
        return RecycleState(U=self.U, SU=self.SU, SAU=self._XU, matrix_epoch=self.matrix_epoch)

    def images(self, Y):
        """(Vhat Y, S Vhat Y, S A Vhat Y), the last by the Arnoldi relation:
        S A Vhat Y = S A U Y_U + S V_m (H_m Y_V) + h S v_next Y_V[-1].

        Each is one ``linalg.combine``, Vhat Y first, beside no s-row array.
        """
        YU, YV = Y[:self.k], Y[self.k:]
        V = combine([(self.fac.V, YV), (self.U, YU)])
        SVm = combine([(self.qr.Q, self.R[:, self.k:])])
        SV = combine([(SVm, YV), (self.SU, YU)])
        return V, SV, self.fac.image(SVm, self.s_next, YV, self._XU, YU)

    def recycle(self, k, next_epoch=None):
        """Recycling state for the next problem by sketched Rayleigh-Ritz.

        S A U is formed whatever next_epoch is: it costs s-row products
        only, and an inexact update reuses it on a new matrix."""
        return update_sketched(self, k)


def srfom_step(A, b, S, recycle, m, f, t=2, counters=None, svdtol=None,
               matrix_epoch=None, inexact=False):
    """One sketch-and-recycle FOM step with a truncated Arnoldi basis.

    Returns the approximant and the SketchedBasis, which update_sketched
    takes; m+1 sketches, plus k matvecs and k sketches when S A U is formed
    again (see SketchedBasis).
    """
    basis = SketchedBasis(A, S, recycle, matrix_epoch, counters, svdtol, inexact)
    basis.extend(arnoldi_build(A, b, m, mode=MODE_TRUNCATED, t=t, counters=counters))
    return basis.approximant(b, f), basis


def gmres_type_closed(fac, b, f):
    """GMRES-type approximant from a fully orthogonalized Arnoldi factorization."""
    if fac.mode != "full":
        raise ValueError("gmres_type_closed requires a fully orthogonalized basis")
    Hm = fac.square_h().copy()
    if fac.breakdown is None and fac.h_tail != 0:
        x = lu_solve(Hm.conj().T, np.eye(fac.m, dtype=np.complex128)[:, -1])
        Hm[:, -1] += abs(fac.h_tail) ** 2 * x
    c = np.linalg.norm(b) * np.eye(1, fac.m)[0]
    return Approximant(coeffs=matfun_apply(f, Hm, c), basis=(fac.V,))


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
    return Approximant(coeffs=coeffs, basis=(np.asarray(Vhat),))


def sgmres_type_stab(SV, SW, Sb, Vhat, f, svdtol=1e-14):
    """Stabilized sketched GMRES-type approximant via a truncated SVD of SW."""
    SV = np.asarray(SV)
    L, sig, J = svd_truncated(SW, svdtol)
    K = L.conj().T @ SV @ J
    G = lu_solve(K, np.diag(sig).astype(np.complex128))
    z = lu_solve(K, L.conj().T @ np.asarray(Sb))
    coeffs = J @ matfun_apply(f, G, z)
    return Approximant(coeffs=coeffs, basis=(np.asarray(Vhat),), ell=sig.size)
