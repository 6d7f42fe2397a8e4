"""Complex compressed-sparse-row matrices and the instrumented matvec."""

import numpy as np
import scipy.sparse

from .errors import DimensionMismatchError


class CSRMatrix:
    """Immutable CSR matrix over complex128 scalars.

    Invariants checked at construction: ``row_offsets`` is non-decreasing
    with ``row_offsets[-1] == len(values)``, and column indices are strictly
    increasing within each row and lie in ``[0, ncols)``.
    """

    __slots__ = ("nrows", "ncols", "row_offsets", "col_indices", "values", "_scipy")

    def __init__(self, nrows, ncols, row_offsets, col_indices, values):
        if nrows <= 0 or ncols <= 0:
            raise DimensionMismatchError("matrix dimensions must be positive")
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if row_offsets.shape != (nrows + 1,):
            raise DimensionMismatchError("row_offsets must have length nrows+1")
        if row_offsets[0] != 0 or row_offsets[-1] != len(values):
            raise DimensionMismatchError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(row_offsets) < 0):
            raise DimensionMismatchError("row_offsets must be non-decreasing")
        if len(col_indices) != len(values):
            raise DimensionMismatchError("col_indices and values must have equal length")
        if len(col_indices) and (col_indices.min() < 0 or col_indices.max() >= ncols):
            raise DimensionMismatchError("column index out of range")
        # a step between consecutive entries that is not a row start must rise
        rising = np.diff(col_indices) > 0
        starts = row_offsets[1:-1]
        rising[starts[(starts > 0) & (starts < len(col_indices))] - 1] = True
        if not rising.all():
            first = int(np.argmin(rising)) + 1  # entry that fails to rise
            i = int(np.searchsorted(row_offsets, first, side="right")) - 1
            raise DimensionMismatchError(
                f"column indices in row {i} must be strictly increasing"
            )
        self.nrows = nrows
        self.ncols = ncols
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self.values = values
        # zero-copy scipy view used for the actual product
        self._scipy = scipy.sparse.csr_matrix(
            (values, col_indices, row_offsets), shape=(nrows, ncols)
        )

    @property
    def nnz(self):
        return len(self.values)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @classmethod
    def from_dense(cls, M, tol=0.0):
        M = np.asarray(M, dtype=np.complex128)
        sp = scipy.sparse.csr_matrix(np.where(np.abs(M) > tol, M, 0.0))
        sp.sort_indices()
        return cls(M.shape[0], M.shape[1], sp.indptr, sp.indices, sp.data)

    @classmethod
    def from_scipy(cls, sp):
        sp = scipy.sparse.csr_matrix(sp)
        sp.sum_duplicates()
        sp.sort_indices()
        sp.eliminate_zeros()
        return cls(sp.shape[0], sp.shape[1], sp.indptr, sp.indices, sp.data)

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n, dtype=np.complex128))

    def to_dense(self):
        return np.asarray(self._scipy.todense(), dtype=np.complex128)

    def add_scaled_identity(self, sigma):
        """Return self + sigma*I as a new CSRMatrix."""
        if self.nrows != self.ncols:
            raise DimensionMismatchError("shift requires a square matrix")
        return CSRMatrix.from_scipy(self._scipy + sigma * scipy.sparse.identity(self.nrows))

    def one_norm(self):
        return float(np.max(np.abs(self._scipy).sum(axis=0))) if self.nnz else 0.0


def csr_matvec(A, v, counters=None):
    """Sparse product A @ v, incrementing the matvec counter."""
    v = np.asarray(v)
    if v.shape != (A.ncols,):
        raise DimensionMismatchError(
            f"vector of length {v.shape} incompatible with {A.shape}"
        )
    if counters is not None:
        counters.add_matvecs()
    return A._scipy @ v.astype(np.complex128, copy=False)
