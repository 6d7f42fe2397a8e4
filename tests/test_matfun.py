import importlib
import warnings

import numpy as np
import pytest
import scipy.linalg

from krec import (
    EXP,
    INV,
    INVSQRT,
    DomainError,
    IllConditionedError,
    KrecError,
    ScalarFunction,
    exp_scaled,
    matfun,
    matfun_apply,
)

matfun_module = importlib.import_module("krec.matfun")  # krec.matfun is the function


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_inv_diagonal():
    out = matfun(INV, np.diag([2.0, 5.0]).astype(np.complex128))
    np.testing.assert_allclose(out, np.diag([0.5, 0.2]), atol=1e-14)


def test_invsqrt_diagonal():
    out = matfun(INVSQRT, np.diag([1.0, 4.0]).astype(np.complex128))
    np.testing.assert_allclose(out, np.diag([1.0, 0.5]), atol=1e-14)


def test_exp_nilpotent():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    np.testing.assert_allclose(matfun(EXP, H), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)


def test_exp_zero_is_identity():
    np.testing.assert_allclose(matfun(EXP, np.zeros((4, 4), dtype=np.complex128)),
                               np.eye(4), atol=1e-15)


def test_exp_diagonal_elementwise():
    a = np.array([0.3, -1.2, 2.0])
    out = matfun(EXP, np.diag(a).astype(np.complex128))
    np.testing.assert_allclose(np.diagonal(out), np.exp(a), rtol=1e-14)


def test_invsqrt_square_law():
    rng = np.random.default_rng(0)
    M = _random_complex(rng, (20, 20))
    H = M @ M.conj().T + 20 * np.eye(20)
    W = matfun(INVSQRT, H)
    np.testing.assert_allclose(W @ W @ H, np.eye(20), atol=1e-9)


def test_similarity_invariance():
    rng = np.random.default_rng(1)
    H = _random_complex(rng, (15, 15))
    H = H + 10 * np.eye(15)  # keep spectrum away from the branch cut
    Q, _ = np.linalg.qr(_random_complex(rng, (15, 15)))
    for f in (INVSQRT, INV, EXP):
        lhs = matfun(f, Q.conj().T @ H @ Q)
        rhs = Q.conj().T @ matfun(f, H) @ Q
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-10


def test_matfun_apply_trivials():
    out = matfun_apply(INV, np.array([[2.0]], dtype=np.complex128), np.array([4.0]))
    np.testing.assert_allclose(out, [2.0], atol=1e-14)
    H = np.diag([1.0, 3.0]).astype(np.complex128)
    for f in (INVSQRT, INV, EXP):
        np.testing.assert_allclose(matfun_apply(f, H, np.zeros(2)), 0.0, atol=1e-15)


def test_matfun_apply_matches_matfun():
    rng = np.random.default_rng(2)
    H = _random_complex(rng, (30, 30)) + 15 * np.eye(30)
    c = _random_complex(rng, 30)
    for f in (INVSQRT, INV, EXP, exp_scaled(0.01)):
        want = matfun(f, H) @ c
        got = matfun_apply(f, H, c)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        matfun(INV, np.diag([1.0, 1e-14]).astype(np.complex128))
    with pytest.raises(DomainError):
        matfun(INVSQRT, np.diag([1.0, -2.0]).astype(np.complex128))
    # negative real part but nonzero imaginary part is admissible for invsqrt
    matfun(INVSQRT, np.diag([-2.0 + 1.0j]).astype(np.complex128))


def test_exp_fallback_on_ill_conditioned():
    # near-defective: eigenvector matrix condition far above the fallback cutoff
    H = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-13]], dtype=np.complex128)
    out = matfun(EXP, H)
    np.testing.assert_allclose(out, scipy.linalg.expm(H), rtol=1e-12)


def test_invsqrt_ill_conditioned_raises():
    H = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-15]], dtype=np.complex128)
    with pytest.raises(IllConditionedError):
        matfun(INVSQRT, H)


def _solve(H, c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.solve(H, c)


def _count_eigvals(monkeypatch):
    calls = []
    real = matfun_module.eigvals_dense

    def counted(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(matfun_module, "eigvals_dense", counted)
    return calls


def test_inv_near_jordan_is_solved():
    # its eigenvector matrix has condition ~1e15, which diagonalization
    # rejected with IllConditionedError; one LU solves it
    H = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-15]], dtype=np.complex128)
    c = np.array([1.0, 2.0], dtype=np.complex128)
    np.testing.assert_allclose(matfun_apply(INV, H, c), _solve(H, c), rtol=1e-15)
    np.testing.assert_allclose(matfun(INV, H), _solve(H, np.eye(2)), rtol=1e-15)


def test_inv_non_normal_falls_back_to_eigenvalues(monkeypatch):
    # ||H^{-1}||_F ~ 1e13 fails the certificate, but both eigenvalues are 1
    calls = _count_eigvals(monkeypatch)
    H = np.array([[1.0, 1e13], [0.0, 1.0]], dtype=np.complex128)
    c = np.array([1.0, 2.0], dtype=np.complex128)
    np.testing.assert_array_equal(matfun_apply(INV, H, c), _solve(H, c))
    assert calls == [(2, 2)]


def test_inv_certified_does_not_diagonalize(monkeypatch):
    def no_eig(M):
        raise AssertionError("inv diagonalized H")

    monkeypatch.setattr(matfun_module, "eig_dense", no_eig)
    calls = _count_eigvals(monkeypatch)
    rng = np.random.default_rng(5)
    H = _random_complex(rng, (30, 30)) + 15 * np.eye(30)
    c = _random_complex(rng, 30)
    got = matfun_apply(INV, H, c)
    want = scipy.linalg.solve(H, c)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12
    want = scipy.linalg.inv(H)
    assert np.linalg.norm(matfun(INV, H) - want) / np.linalg.norm(want) <= 1e-12
    assert calls == []


def test_inv_domain_errors():
    c = np.ones(2, dtype=np.complex128)
    with pytest.raises(DomainError):
        matfun_apply(INV, np.diag([1.0, 1e-14]).astype(np.complex128), c)
    for singular in (np.zeros((2, 2)), np.ones((2, 2))):  # zero LU pivot
        with pytest.raises(DomainError):
            matfun_apply(INV, singular.astype(np.complex128), c)
        with pytest.raises(DomainError):
            matfun(INV, singular.astype(np.complex128))


def test_inv_planted_small_eigenvalue_raises():
    # non-normal H = Q T Q* with one eigenvalue within the domain tolerance;
    # T is mildly non-normal, so the computed eigenvalues stay that close
    rng = np.random.default_rng(6)
    for n, lam in ((5, 0.0), (12, 5e-13), (40, 9e-13j), (40, -3e-13 + 4e-13j)):
        T = 0.1 * np.triu(_random_complex(rng, (n, n)), 1)
        T[np.diag_indices(n)] = 1.0 + rng.uniform(0.0, 2.0, n)
        T[n // 2, n // 2] = lam
        Q, _ = np.linalg.qr(_random_complex(rng, (n, n)))
        H = Q @ T @ Q.conj().T
        with pytest.raises(DomainError):
            matfun_apply(INV, H, _random_complex(rng, n))
        with pytest.raises(DomainError):
            matfun(INV, H)


def test_inv_non_finite_raises():
    c = np.ones(2, dtype=np.complex128)
    for bad in (np.nan, np.inf):
        H = np.array([[1.0, bad], [0.0, 1.0]], dtype=np.complex128)
        with pytest.raises(KrecError):
            matfun_apply(INV, H, c)
        with pytest.raises(KrecError):
            matfun(INV, H)
    with pytest.raises(KrecError):
        matfun_apply(INV, np.array([[np.inf]], dtype=np.complex128), c[:1])


def test_exp_scaled_tau():
    H = np.diag([2.0]).astype(np.complex128)
    out = matfun(exp_scaled(0.01), H)
    np.testing.assert_allclose(out, [[np.exp(0.02)]], rtol=1e-14)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ScalarFunction("log")
