"""Arnoldi factorizations: fully orthogonalized and t-truncated.

A factorization holds V (N x m), the (m+1) x m Hessenberg H, the next basis
vector v_next, and a cached w_next = A @ v_next used to continue the
recurrence when the factorization is extended.  Computing w_next eagerly is
why a build of cycle length m costs exactly m+1 matvecs.

Full mode orthogonalizes A v_j against all of V by block classical
Gram-Schmidt run twice (``linalg.cgs2``: two matrix-vector products per
pass, no loop over columns).  Truncated mode orthogonalizes against the last
t columns only, by modified Gram-Schmidt over that window.

Inner-product accounting (see counters.py): in full mode, step j (1-based)
is charged j projection coefficients and one norm per pass, with one
unconditional reorthogonalization pass, so 2*(j+1) inner products per step
and m^2 + 3m for a build of length m.  In truncated mode step j costs
min(j, t) + 1 inner products, twice if its one pass leaves less than 1e-8
of A v_j: the pass is then repeated, so rounding cannot hide a lucky
breakdown.  The norm used only for breakdown detection and the initial
normalization of b are not counted.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError
from .linalg import cgs2
from .sparse import csr_matvec

_BREAKDOWN_TOL = 1e-14
_REPASS_TOL = 1e-8

MODE_FULL = "full"
MODE_TRUNCATED = "truncated"


@dataclass(frozen=True)
class ArnoldiFactorization:
    V: np.ndarray        # N x m basis, column-major so each column is contiguous
    H: np.ndarray        # (m+1) x m upper Hessenberg; H[m, m-1] = h_{m+1,m}
    v_next: np.ndarray   # (m+1)-st basis vector, None after breakdown
    w_next: np.ndarray   # cached A @ v_next, None after breakdown
    mode: str            # MODE_FULL or MODE_TRUNCATED
    t: int               # truncation window (ignored in full mode)
    breakdown: int | None = None  # 1-based step of lucky breakdown

    @property
    def m(self):
        return self.V.shape[1]

    @property
    def h_tail(self):
        return self.H[self.m, self.m - 1]

    def square_h(self):
        return self.H[: self.m, : self.m]

    def image(self, XV, x_next, Y=None, XU=None, YU=None):
        """M A [U, V_m] [Y_U; Y] = X_V H_m Y + h x_next e_m^T Y (+ X_U Y_U) by the
        Arnoldi relation, for X_V = M V_m, x_next = M v_next, X_U = M A U and
        any linear map M.  Y=None is the identity; after a breakdown there is
        no h term and x_next may be None.  By blocks of rows: no temporary of
        the height of X_V next to the result."""
        H = self.square_h()
        out = XV @ (H if Y is None else H @ Y)
        last = np.eye(1, self.m, self.m - 1)[0] if Y is None else Y[-1, :]  # e_m^T Y
        for i in range(0, out.shape[0], 4096):
            rows = slice(i, i + 4096)
            if XU is not None:
                out[rows] += XU[rows] @ YU
            if self.breakdown is None:
                out[rows] += np.outer(self.h_tail * x_next[rows], last)
        return out


def _advance(A, V, H, j_start, j_end, mode, t, counters, pending_w):
    """Run Arnoldi steps j_start..j_end-1 in place; return (v_next, w_next, breakdown)."""
    w = pending_w
    for j in range(j_start, j_end):
        if w is None:
            w = csr_matvec(A, V[:, j], counters)
        wnorm = np.linalg.norm(w)
        if mode == MODE_FULL:
            w, H[: j + 1, j] = cgs2(V[:, : j + 1], w)
            if counters is not None:
                counters.add_inner_products(2 * (j + 2))  # per pass: j+1 projections, 1 norm
            hnorm = np.linalg.norm(w)
        else:
            lo = max(0, j + 1 - t)
            for _ in range(2):  # the second pass only if the first cancelled w almost fully
                for i in range(lo, j + 1):
                    hij = np.vdot(V[:, i], w)
                    H[i, j] += hij
                    w = w - hij * V[:, i]
                if counters is not None:
                    counters.add_inner_products(j + 2 - lo)
                hnorm = np.linalg.norm(w)
                if hnorm > _REPASS_TOL * wnorm:
                    break
        if hnorm <= _BREAKDOWN_TOL * wnorm:
            return None, None, j + 1
        H[j + 1, j] = hnorm
        v = w / hnorm
        if j + 1 < j_end:
            V[:, j + 1] = v
        else:
            w_next = csr_matvec(A, v, counters)
            return v, w_next, None
        w = None
    raise AssertionError("unreachable")


def arnoldi_build(A, b, m, mode=MODE_FULL, t=2, counters=None):
    """Build an m-step Arnoldi factorization of A started at b."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (A.ncols,):
        raise DimensionMismatchError("start vector length incompatible with A")
    if m < 1:
        raise ValueError("m must be at least 1")
    beta = np.linalg.norm(b)
    if beta == 0:
        raise ValueError("start vector must be nonzero")
    empty = ArnoldiFactorization(
        V=np.empty((A.nrows, 0), dtype=np.complex128, order="F"),
        H=np.zeros((1, 0), dtype=np.complex128), v_next=b / beta, w_next=None,
        mode=mode, t=t)
    return arnoldi_extend(empty, A, m, counters)


def arnoldi_extend(fac, A, m_new, counters=None):
    """Extend a factorization to cycle length m_new (no-op at or below m)."""
    if fac.breakdown is not None or m_new <= fac.m:
        if m_new < fac.m and fac.breakdown is None:
            raise ValueError("cannot shrink a factorization")
        return fac
    m_old = fac.m
    N = fac.V.shape[0]
    V = np.empty((N, m_new), dtype=np.complex128, order="F")
    V[:, :m_old] = fac.V
    V[:, m_old] = fac.v_next
    H = np.zeros((m_new + 1, m_new), dtype=np.complex128)
    H[: m_old + 1, :m_old] = fac.H
    v_next, w_next, breakdown = _advance(A, V, H, m_old, m_new, fac.mode, fac.t,
                                         counters, fac.w_next)
    if breakdown is not None:
        j = breakdown
        return replace(fac, V=V[:, :j].copy(order="F"), H=H[: j + 1, :j].copy(),
                       v_next=None, w_next=None, breakdown=j)
    return replace(fac, V=V, H=H, v_next=v_next, w_next=w_next)
