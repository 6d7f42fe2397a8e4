import numpy as np
import pytest
import scipy.sparse

from krec import (
    GENERATORS,
    gen_advdiff2d,
    gen_hpd,
    gen_neumann2d,
    gen_twocluster,
    perturb_sparsity_gaussian,
)
from krec.sparse import CSRMatrix


def test_neumann_null_vector():
    A = gen_neumann2d(3)
    ones = np.ones(9, dtype=np.complex128)
    np.testing.assert_allclose(A._scipy @ ones, 0.0, atol=1e-14)
    shifted = A.add_scaled_identity(0.001)
    np.testing.assert_allclose(shifted._scipy @ ones, 0.001 * ones, atol=1e-14)


def test_neumann_structure_and_size():
    A = gen_neumann2d(5)
    assert A.shape == (25, 25)
    dense = A.to_dense()
    # structurally symmetric (values differ at the reflecting boundary)
    pattern = dense != 0
    np.testing.assert_array_equal(pattern, pattern.T)
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-14)
    lam = np.linalg.eigvals(dense)
    assert lam.real.min() >= -1e-12


def _neumann2d_by_loop(n):
    # the reflected five-point stencil, filled entry by entry
    A = scipy.sparse.lil_matrix((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p = i * n + j
            A[p, p] = 4.0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if ii < 0 or ii >= n:
                    ii = i - di
                if jj < 0 or jj >= n:
                    jj = j - dj
                A[p, ii * n + jj] -= 1.0
    return CSRMatrix.from_scipy(A)


@pytest.mark.parametrize("n", [2, 3, 31])
def test_neumann_matches_stencil_loop(n):
    got, want = gen_neumann2d(n), _neumann2d_by_loop(n)
    np.testing.assert_array_equal(got.row_offsets, want.row_offsets)
    np.testing.assert_array_equal(got.col_indices, want.col_indices)
    np.testing.assert_array_equal(got.values, want.values)


def test_advdiff_symmetric_when_no_advection():
    A = gen_advdiff2d(6, peclet=0.0)
    dense = A.to_dense()
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)
    lam = np.linalg.eigvalsh(dense)
    assert lam.max() < 0.0  # negative definite diffusion


def test_advdiff_left_half_plane():
    A = gen_advdiff2d(8, peclet=1.0)
    lam = np.linalg.eigvals(A.to_dense())
    assert np.max(lam.real) < 0.0


def test_hpd_is_positive_definite():
    A = gen_hpd(120, seed=0)
    dense = A.to_dense()
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)
    lam = np.linalg.eigvalsh(dense)
    assert lam.min() > 0.0


def test_twocluster_spectrum_shape():
    A = gen_twocluster(150, nsmall=10, seed=0)
    lam = np.linalg.eigvals(A.to_dense())
    mods = np.sort(np.abs(lam))
    assert mods[9] < 0.5          # small cluster present
    assert mods[10] > 0.6         # separated from the bulk
    assert np.min(lam.real) > 0.0 or np.min(np.abs(lam.imag[lam.real <= 0])) > 1e-6


def test_generators_deterministic():
    a = gen_hpd(60, seed=5)
    b = gen_hpd(60, seed=5)
    np.testing.assert_array_equal(a.values, b.values)
    assert set(GENERATORS) == {"neumann2d", "advdiff2d", "hpd", "twocluster"}


def test_perturb_scale_zero():
    A = gen_hpd(40, seed=1)
    assert perturb_sparsity_gaussian(A, 0.0, seed=0) is A


def test_perturb_pattern_preserved():
    A = gen_hpd(40, seed=2)
    B = perturb_sparsity_gaussian(A, 1e-8, seed=3)
    np.testing.assert_array_equal(A.row_offsets, B.row_offsets)
    np.testing.assert_array_equal(A.col_indices, B.col_indices)
    assert A.nnz == B.nnz
    assert np.max(np.abs(A.values - B.values)) <= 1e-6


def test_perturb_deterministic_and_concentrated():
    A = gen_hpd(60, seed=4)
    B1 = perturb_sparsity_gaussian(A, 1.0, seed=7)
    B2 = perturb_sparsity_gaussian(A, 1.0, seed=7)
    np.testing.assert_array_equal(B1.values, B2.values)
    # ||A' - A||_F / scale concentrates near sqrt(2 nnz) for complex Gaussians
    samples = []
    for seed in range(10):
        B = perturb_sparsity_gaussian(A, 1.0, seed=seed)
        samples.append(np.linalg.norm(B.values - A.values))
    mean = np.mean(samples)
    assert abs(mean - np.sqrt(2 * A.nnz)) <= 0.1 * np.sqrt(2 * A.nnz)


def test_perturb_negative_scale_rejected():
    A = gen_hpd(10, seed=0)
    with pytest.raises(ValueError):
        perturb_sparsity_gaussian(A, -1.0, seed=0)
