import numpy as np
import pytest

from krec import Counters, CSRMatrix, DimensionMismatchError, csr_matvec, gen_neumann2d


def test_identity_matvec():
    A = CSRMatrix.identity(5)
    v = np.arange(5, dtype=np.complex128) + 1j
    np.testing.assert_array_equal(csr_matvec(A, v), v)


def test_permutation_matvec():
    A = CSRMatrix.from_dense(np.array([[0, 1], [1, 0]], dtype=np.complex128))
    out = csr_matvec(A, np.array([3.0 + 1j, 7.0]))
    np.testing.assert_allclose(out, [7.0, 3.0 + 1j])


def test_laplacian_constant_vector_is_zero():
    A = gen_neumann2d(3)
    out = csr_matvec(A, np.ones(9, dtype=np.complex128))
    np.testing.assert_allclose(out, np.zeros(9), atol=1e-14)


def test_matvec_agrees_with_dense():
    rng = np.random.default_rng(11)
    for seed in range(5):
        dense = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        dense[rng.random((100, 100)) > 0.05] = 0.0
        A = CSRMatrix.from_dense(dense)
        v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        np.testing.assert_allclose(csr_matvec(A, v), dense @ v, atol=1e-14 * 100)


def test_matvec_counter_and_dimension_check():
    A = CSRMatrix.identity(4)
    c = Counters()
    csr_matvec(A, np.ones(4, dtype=np.complex128), c)
    csr_matvec(A, np.ones(4, dtype=np.complex128), c)
    assert c.snapshot() == (2, 0, 0)
    with pytest.raises(DimensionMismatchError):
        csr_matvec(A, np.ones(5, dtype=np.complex128))


def test_invariant_validation():
    with pytest.raises(ValueError):
        CSRMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                  np.array([1.0, 2.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        CSRMatrix(1, 2, np.array([0, 2]), np.array([1, 0]),
                  np.array([1.0, 2.0], dtype=np.complex128))


def _first_unsorted_row(row_offsets, col_indices):
    """Reference check: the first row whose column indices do not rise."""
    for i in range(len(row_offsets) - 1):
        lo, hi = row_offsets[i], row_offsets[i + 1]
        if hi - lo > 1 and np.any(np.diff(col_indices[lo:hi]) <= 0):
            return i
    return None


def test_column_order_error_names_the_row():
    # rows 1 and 3 are empty; row 2 holds [2, 1]; the row-0 -> row-2 step
    # from column 3 down to 2 is a row start and must not be flagged
    values = np.ones(5, dtype=np.complex128)
    with pytest.raises(DimensionMismatchError,
                       match="column indices in row 2 must be strictly increasing"):
        CSRMatrix(5, 4, np.array([0, 2, 2, 4, 4, 5]), np.array([0, 3, 2, 1, 0]), values)
    with pytest.raises(DimensionMismatchError, match="in row 4 must"):
        CSRMatrix(5, 4, np.array([0, 2, 2, 4, 4, 6]),
                  np.array([0, 3, 1, 2, 1, 1]), np.ones(6, dtype=np.complex128))
    A = CSRMatrix(5, 4, np.array([0, 2, 2, 4, 4, 5]), np.array([0, 3, 1, 2, 0]), values)
    assert A.nnz == 5


def test_column_order_check_matches_row_loop():
    rng = np.random.default_rng(12)
    for _ in range(300):
        nrows, ncols = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        rows = [np.sort(rng.choice(ncols, size=int(rng.integers(0, ncols + 1)),
                                   replace=False)) for _ in range(nrows)]
        if rng.random() < 0.7:
            i = int(rng.integers(nrows))
            if rows[i].size:  # repeat or reverse the row: it no longer rises
                rows[i] = (np.append(rows[i], rows[i][-1]) if rng.random() < 0.5
                           else rows[i][::-1].copy())
        offsets = np.concatenate([[0], np.cumsum([r.size for r in rows])])
        cols = np.concatenate(rows).astype(np.int64)
        want = _first_unsorted_row(offsets, cols)
        values = np.ones(cols.size, dtype=np.complex128)
        if want is None:
            CSRMatrix(nrows, ncols, offsets, cols, values)
        else:
            with pytest.raises(DimensionMismatchError, match=f"in row {want} must"):
                CSRMatrix(nrows, ncols, offsets, cols, values)


def test_add_scaled_identity_and_norms():
    dense = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=np.complex128)
    A = CSRMatrix.from_dense(dense)
    B = A.add_scaled_identity(0.5 + 1j)
    np.testing.assert_allclose(B.to_dense(), dense + (0.5 + 1j) * np.eye(2))
    # A itself is not shifted: the 1-norm of the difference is |sigma|
    assert np.linalg.norm(B.to_dense() - A.to_dense(), 1) == pytest.approx(abs(0.5 + 1j))


def test_roundtrip_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    dense[rng.random((7, 5)) > 0.4] = 0.0
    A = CSRMatrix.from_dense(dense)
    np.testing.assert_array_equal(A.to_dense(), dense)
    assert A.nrows == 7 and A.ncols == 5
