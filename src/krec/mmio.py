"""Matrix Market coordinate-format ingestion and serialization."""

import numpy as np
import scipy.sparse

from .errors import MatrixMarketError
from .sparse import CSRMatrix

_FIELDS = ("real", "complex", "integer")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def read_matrix_market(path):
    """Parse a Matrix Market coordinate file into a CSRMatrix.

    Real or complex fields and general/symmetric/hermitian banners are
    supported; symmetric storage is expanded, 1-based indices converted, and
    duplicate entries summed.  Malformed content, or a nan or inf entry,
    raises MatrixMarketError with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError(1, "empty file")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise MatrixMarketError(1, f"bad banner {lines[0]!r}")
    _, obj, fmt, field, sym = (tok.lower() for tok in banner)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(1, f"unsupported object/format {obj}/{fmt}")
    if field not in _FIELDS:
        raise MatrixMarketError(1, f"unsupported field {field!r}")
    if sym not in _SYMMETRIES:
        raise MatrixMarketError(1, f"unsupported symmetry {sym!r}")

    lineno = 1
    sizes = None
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 3:
            raise MatrixMarketError(lineno, "size line must be 'nrows ncols nnz'")
        try:
            sizes = tuple(int(p) for p in parts)
        except ValueError:
            raise MatrixMarketError(lineno, "non-integer size entry") from None
        break
    if sizes is None:
        raise MatrixMarketError(len(lines), "missing size line")
    nrows, ncols, nnz = sizes
    if nrows <= 0 or ncols <= 0 or nnz < 0:
        raise MatrixMarketError(lineno, "invalid matrix dimensions")

    want = 4 if field == "complex" else 3
    rows, cols, vals = [], [], []
    seen = 0
    for lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != want:
            raise MatrixMarketError(lineno, f"expected {want} tokens, got {len(parts)}")
        try:
            i, j = int(parts[0]), int(parts[1])
            if field == "complex":
                v = complex(float(parts[2]), float(parts[3]))
            else:
                v = complex(float(parts[2]))
        except ValueError:
            raise MatrixMarketError(lineno, "malformed entry") from None
        if not np.isfinite(v):
            raise MatrixMarketError(lineno, f"non-finite entry {v}")
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(lineno, f"index ({i},{j}) out of bounds")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        seen += 1
        if sym != "general" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            if sym == "hermitian":
                vals.append(v.conjugate())
            elif sym == "skew-symmetric":
                vals.append(-v)
            else:
                vals.append(v)
    if seen != nnz:
        raise MatrixMarketError(len(lines), f"expected {nnz} entries, found {seen}")
    coo = scipy.sparse.coo_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(nrows, ncols)
    )
    return CSRMatrix.from_scipy(coo)


def write_matrix_market(A, path):
    """Serialize a CSRMatrix in coordinate complex general format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate complex general\n")
        fh.write(f"{A.nrows} {A.ncols} {A.nnz}\n")
        for i in range(A.nrows):
            for p in range(A.row_offsets[i], A.row_offsets[i + 1]):
                v = A.values[p]
                fh.write(f"{i + 1} {A.col_indices[p] + 1} {v.real:.17g} {v.imag:.17g}\n")
