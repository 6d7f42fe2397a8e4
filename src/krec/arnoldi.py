"""Arnoldi factorizations: fully orthogonalized and t-truncated.

A factorization holds V (N x m), the (m+1) x m Hessenberg H, the next basis
vector v_next, and a cached w_next = A @ v_next used to continue the
recurrence when the factorization is extended.  Computing w_next eagerly is
why a build of cycle length m costs exactly m+1 matvecs.

V is a view of the first m columns of a ``linalg.ColumnBuffer``, which
grows geometrically and records how many columns it holds.  An extension
writes its columns into the buffer in place when the buffer holds exactly
fac.m columns, that is when fac is the last factorization grown from it:
fac.V stays a valid view and nothing is copied, and a buffer that is full
moves to one of twice the capacity.  Otherwise another extension of fac
(to another m, or with another matrix) has already written past fac.m, and
the extension copies fac.V into a new buffer, so that it never overwrites
the columns of a sibling.

Both modes run one loop.  Step j orthogonalizes w = A v_j against a
window of V, columns lo..j with lo = 0 in full mode and lo = max(0, j+1-t)
in truncated mode, by block classical Gram-Schmidt: each pass is one
``linalg.project`` (two matrix-vector products, no loop over columns) that
updates w in place and adds its coefficients to H[lo:j+1, j].  Full mode
always takes a second pass ("twice is enough": Giraud, Langou & Rozložník,
Comput. Math. Appl. 2005).  Truncated mode takes it only when the first
pass leaves less than 1e-8 of ||A v_j||, so rounding cannot hide a lucky
breakdown.  A cached w_next is copied once before it is projected in
place, because another extension of the same factorization reads it too.

Inner-product accounting (see counters.py): each pass of step j (1-based)
is charged its j+1-lo projection coefficients and one norm.  Full mode
thus costs 2*(j+1) inner products per step and m^2 + 3m for a build of
length m; truncated mode costs min(j, t) + 1 per step, twice for a step
that repeats its pass.  The norm used only for breakdown detection and the
initial normalization of b are not counted.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError
from .linalg import ColumnBuffer, combine, project
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
    buf: ColumnBuffer | None = field(default=None, repr=False)  # V = buf.data[:, :m]

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
        any linear map M, by ``linalg.combine``.  Y=None is the identity; after
        a breakdown there is no h term and x_next may be None."""
        H = self.square_h()
        terms = [(XV, H if Y is None else H @ Y)]
        if XU is not None:
            terms.append((XU, YU))
        if self.breakdown is None:
            last = np.eye(1, self.m, self.m - 1)[0] if Y is None else Y[-1, :]  # e_m^T Y
            terms.append((self.h_tail * x_next, last))
        return combine(terms)


def _advance(A, V, H, j_start, j_end, mode, t, counters, pending_w):
    """Run Arnoldi steps j_start..j_end-1 in place; return (v_next, w_next, breakdown)."""
    w = None if pending_w is None else pending_w.copy()  # a sibling extension shares it
    for j in range(j_start, j_end):
        if w is None:
            w = csr_matvec(A, V[:, j], counters)
        wnorm = np.linalg.norm(w)
        lo = 0 if mode == MODE_FULL else max(0, j + 1 - t)
        for npass in (1, 2):
            H[lo:j + 1, j] += project(V[:, lo:j + 1], w)
            if counters is not None:
                counters.add_inner_products(j + 2 - lo)  # j+1-lo projections, 1 norm
            if npass == 1 and mode == MODE_FULL:
                continue
            hnorm = np.linalg.norm(w)
            if hnorm > _REPASS_TOL * wnorm:  # the first pass did not cancel w
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
    """Extend a factorization to cycle length m_new (no-op at or below m).

    The new columns go into fac's buffer in place while it holds fac.m
    columns, else into a new buffer (see the module docstring); fac is left
    as it was either way.
    """
    if fac.breakdown is not None or m_new <= fac.m:
        if m_new < fac.m and fac.breakdown is None:
            raise ValueError("cannot shrink a factorization")
        return fac
    m_old = fac.m
    buf = fac.buf
    if buf is None or buf.n != m_old:  # another extension of fac wrote past its columns
        buf = ColumnBuffer(fac.V.shape[0])
        buf.reserve(m_new)[:, :m_old] = fac.V
        buf.n = m_old
    V = buf.reserve(m_new)
    V[:, m_old] = fac.v_next
    H = np.zeros((m_new + 1, m_new), dtype=np.complex128)
    H[: m_old + 1, :m_old] = fac.H
    v_next, w_next, breakdown = _advance(A, V, H, m_old, m_new, fac.mode, fac.t,
                                         counters, fac.w_next)
    if breakdown is not None:
        buf.n = j = breakdown
        return replace(fac, V=V[:, :j], H=H[: j + 1, :j].copy(),
                       v_next=None, w_next=None, breakdown=j, buf=buf)
    buf.n = m_new
    return replace(fac, V=V[:, :m_new], H=H, v_next=v_next, w_next=w_next, buf=buf)
