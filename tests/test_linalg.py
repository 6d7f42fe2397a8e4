import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krec import (
    DimensionMismatchError,
    EigConvergenceError,
    SingularMatrixError,
    eig_dense,
    lu_solve,
    partial_schur_closest_to_origin,
    qr_econ,
    svd_econ,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestQrEcon:
    def test_identity(self):
        out = qr_econ(np.eye(3, dtype=np.complex128))
        np.testing.assert_allclose(out.Q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(out.R, np.eye(3), atol=1e-15)

    def test_single_column(self):
        out = qr_econ(np.array([[0.0], [2.0]], dtype=np.complex128))
        np.testing.assert_allclose(out.Q, [[0.0], [1.0]], atol=1e-15)
        np.testing.assert_allclose(out.R, [[2.0]], atol=1e-15)

    def test_reconstruction_many_shapes(self):
        rng = np.random.default_rng(0)
        shapes = [(50, 10), (120, 40), (500, 120), (80, 80), (33, 7)]
        count = 0
        while count < 100:
            shape = shapes[count % len(shapes)]
            M = _random_complex(rng, shape)
            out = qr_econ(M)
            resid = np.linalg.norm(out.Q @ out.R - M) / np.linalg.norm(M)
            assert resid <= 1e-13
            n = shape[1]
            ortho = np.linalg.norm(out.Q.conj().T @ out.Q - np.eye(n))
            assert ortho <= 1e-12 * np.sqrt(n)
            d = np.diagonal(out.R)
            assert np.all(d.real >= -1e-14)
            assert np.all(np.abs(d.imag) <= 1e-13 * np.maximum(np.abs(d), 1.0))
            assert np.allclose(out.R, np.triu(out.R))
            count += 1

    def test_wide_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            qr_econ(np.ones((2, 3), dtype=np.complex128))


class TestSvdEcon:
    def test_diagonal(self):
        out = svd_econ(np.diag([3.0, 1.0]).astype(np.complex128))
        np.testing.assert_allclose(out.sigma, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(out.L), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(out.J), np.eye(2), atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        u = _random_complex(rng, 6)
        u *= 2.0 / np.linalg.norm(u)
        v = _random_complex(rng, 4)
        v /= np.linalg.norm(v)
        out = svd_econ(np.outer(u, v.conj()))
        np.testing.assert_allclose(out.sigma[0], 2.0, atol=1e-13)
        np.testing.assert_allclose(out.sigma[1:], 0.0, atol=1e-13)

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = _random_complex(rng, (60, 20))
            out = svd_econ(M)
            rec = out.L @ (out.sigma[:, None] * out.J.conj().T)
            assert np.linalg.norm(rec - M) / np.linalg.norm(M) <= 1e-12
            assert np.all(np.diff(out.sigma) <= 1e-12)


class TestEigDense:
    def test_diagonal(self):
        lam, W = eig_dense(np.diag([1.0, 4.0]).astype(np.complex128))
        np.testing.assert_allclose(sorted(lam.real), [1.0, 4.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(W), np.eye(2), atol=1e-14)

    def test_hermitian_random(self):
        rng = np.random.default_rng(3)
        M = _random_complex(rng, (30, 30))
        M = M + M.conj().T
        lam, W = eig_dense(M)
        assert np.max(np.abs(lam.imag)) <= 1e-10
        resid = np.linalg.norm(M @ W - W * lam[np.newaxis, :])
        assert resid <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(W.conj().T @ W - np.eye(30)) <= 1e-10

    def test_unit_norm_columns(self):
        rng = np.random.default_rng(4)
        _, W = eig_dense(_random_complex(rng, (12, 12)))
        np.testing.assert_allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-13)


class TestPartialSchur:
    def test_diagonal_selection(self):
        M = np.diag([5.0, 1.0, 3.0]).astype(np.complex128)
        ps = partial_schur_closest_to_origin(M, 2)
        np.testing.assert_allclose(sorted(np.diagonal(ps.T).real), [1.0, 3.0], atol=1e-13)
        assert np.linalg.norm(M @ ps.X - ps.X @ ps.T) <= 1e-12

    def test_full_k(self):
        rng = np.random.default_rng(5)
        M = _random_complex(rng, (15, 15))
        ps = partial_schur_closest_to_origin(M, 15)
        assert np.linalg.norm(M @ ps.X - ps.X @ ps.T) <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(ps.X.conj().T @ ps.X - np.eye(15)) <= 1e-10

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(6)
        M = np.diag(np.arange(1, 41, dtype=np.complex128))
        M += 0.01 * _random_complex(rng, (40, 40))
        lam, _ = eig_dense(M)
        k = 7
        ps = partial_schur_closest_to_origin(M, k)
        want = np.sort(np.abs(lam))[:k]
        got = np.sort(np.abs(np.diagonal(ps.T)))
        np.testing.assert_allclose(got, want, atol=1e-10 * np.abs(lam).max())
        assert np.linalg.norm(M @ ps.X - ps.X @ ps.T) <= 1e-10 * np.linalg.norm(M)

    def test_ascending_modulus_order(self):
        M = np.diag([4.0, -2.0, 1.0, 3.0]).astype(np.complex128)
        ps = partial_schur_closest_to_origin(M, 3)
        mods = np.abs(np.diagonal(ps.T))
        assert np.all(np.diff(mods) >= -1e-12)

    def test_jordan_block(self):
        # a defective cluster has no basis of eigenvectors, but a Schur basis
        rng = np.random.default_rng(9)
        for n in (2, 8):
            Q = np.linalg.qr(_random_complex(rng, (n, n)))[0]
            M = Q @ (0.5 * np.eye(n) + np.eye(n, k=1)) @ Q.conj().T
            for k in (1, n // 2, n):
                ps = partial_schur_closest_to_origin(M, k)
                _check_partial_schur(M, ps, k)
                np.testing.assert_allclose(np.abs(np.diagonal(ps.T)), 0.5, atol=0.05)

    def test_k_zero(self):
        ps = partial_schur_closest_to_origin(np.eye(3, dtype=np.complex128), 0)
        assert ps.X.shape == (3, 0) and ps.T.shape == (0, 0)

    def test_k_above_order_is_capped(self):
        M = np.diag([3.0, 1.0, 2.0]).astype(np.complex128)
        ps = partial_schur_closest_to_origin(M, 5)
        np.testing.assert_allclose(np.diagonal(ps.T), [1.0, 2.0, 3.0], atol=1e-15)
        _check_partial_schur(M, ps, 3)

    def test_non_finite_or_negative_k_raises(self):
        M = np.eye(3, dtype=np.complex128)
        M[1, 2] = np.nan
        with pytest.raises(EigConvergenceError):
            partial_schur_closest_to_origin(M, 2)
        with pytest.raises(DimensionMismatchError):
            partial_schur_closest_to_origin(np.eye(3), -1)


def _check_partial_schur(M, ps, k):
    n = M.shape[0]
    eps = np.finfo(float).eps
    assert ps.X.shape == (n, k) and ps.T.shape == (k, k)
    assert np.linalg.norm(M @ ps.X - ps.X @ ps.T) <= 10 * n * eps * max(np.linalg.norm(M), 1)
    assert np.linalg.norm(ps.X.conj().T @ ps.X - np.eye(k)) <= 10 * n * eps
    assert np.array_equal(ps.T, np.triu(ps.T))
    assert np.all(np.diff(np.abs(np.diagonal(ps.T))) >= 0)


# eigenvalue pool: moduli 0, 0.3, 1 (four ways, ties broken by argument), 2
_POOL = (0.0, 0.3j, 1.0, -1.0, 1j, (1 - 1j) / np.sqrt(2), 2.0)


@st.composite
def _planted_jordan(draw):
    """Q J Q* with J block diagonal: Jordan blocks of order <= 4 on eigenvalues
    drawn from _POOL, so that both repeats and defective clusters occur."""
    n = draw(st.integers(1, 12))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(4, n - sum(sizes)))))
    lams = [_POOL[draw(st.integers(0, len(_POOL) - 1))] for _ in sizes]
    J = np.zeros((n, n), dtype=np.complex128)
    i = 0
    for p, lam in zip(sizes, lams):
        J[i:i + p, i:i + p] = lam * np.eye(p) + np.eye(p, k=1)
        i += p
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(_random_complex(rng, (n, n)))[0]
    return Q @ J @ Q.conj().T, max(sizes), draw(st.integers(0, n + 2))


@settings(max_examples=200, deadline=None, database=None)
@given(_planted_jordan())
def test_partial_schur_property(case):
    M, pmax, k = case
    n = M.shape[0]
    ps = partial_schur_closest_to_origin(M, k)
    _check_partial_schur(M, ps, min(k, n))
    # a Jordan block of order p moves its eigenvalue by ~(eps ||M||)^(1/p)
    tol = 10 * (n * np.finfo(float).eps * np.linalg.norm(M)) ** (1 / pmax)
    want = np.sort(np.abs(np.linalg.eigvals(M)))[:min(k, n)]
    np.testing.assert_allclose(np.abs(np.diagonal(ps.T)), want, rtol=0, atol=tol)


class TestLuSolve:
    def test_identity(self):
        B = np.arange(6, dtype=np.complex128).reshape(3, 2)
        np.testing.assert_array_equal(lu_solve(np.eye(3, dtype=np.complex128), B), B)

    def test_diagonal(self):
        out = lu_solve(np.diag([2.0, 4.0]).astype(np.complex128),
                       np.eye(2, dtype=np.complex128))
        np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-15)

    def test_residual(self):
        rng = np.random.default_rng(7)
        M = _random_complex(rng, (30, 30)) + 10 * np.eye(30)
        B = _random_complex(rng, (30, 4))
        out = lu_solve(M, B)
        assert np.linalg.norm(M @ out - B) / np.linalg.norm(B) <= 1e-12

    def test_vector_rhs(self):
        rng = np.random.default_rng(8)
        M = _random_complex(rng, (10, 10)) + 5 * np.eye(10)
        b = _random_complex(rng, 10)
        x = lu_solve(M, b)
        assert x.shape == (10,)
        np.testing.assert_allclose(M @ x, b, atol=1e-11)

    def test_singular_reports_pivot(self):
        M = np.zeros((3, 3), dtype=np.complex128)
        M[0, 0] = 1.0
        with pytest.raises(SingularMatrixError) as err:
            lu_solve(M, np.ones(3, dtype=np.complex128))
        assert isinstance(err.value.pivot_index, int)
