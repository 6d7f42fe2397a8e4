import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import krec
import krec.matfun as matfun_module
from krec import (
    EXP,
    INV,
    INVSQRT,
    DomainError,
    KrecError,
    ScalarFunction,
    exp_scaled,
    matfun_apply,
)
from krec.matfun import matfun


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
    # the rule is relative to the spectral radius: a tiny H is admissible
    tiny, c = 1e-13 * np.diag([2.0, 3.0]).astype(np.complex128), np.ones(2)
    np.testing.assert_allclose(matfun_apply(INV, tiny, c), [5e12, 1e13 / 3], rtol=1e-14)
    np.testing.assert_allclose(matfun_apply(INVSQRT, tiny, c),
                               1 / np.sqrt([2e-13, 3e-13]), rtol=1e-14)
    with pytest.raises(DomainError):
        matfun(INVSQRT, np.diag([1.0, -2.0]).astype(np.complex128))
    # negative real part but nonzero imaginary part is admissible for invsqrt
    matfun(INVSQRT, np.diag([-2.0 + 1.0j]).astype(np.complex128))


def test_package_attribute_is_the_module():
    assert isinstance(krec.matfun, types.ModuleType)


def _jordan_closed_form(f, lam, n):
    """f(J) = sum_k f^(k)(lam)/k! N^k for the n x n Jordan block J = lam I + N."""
    k = np.arange(n)
    if f.kind == "invsqrt":
        coeffs = scipy.special.binom(-0.5, k) * lam ** (-0.5 - k)
    else:
        coeffs = f.tau ** k * np.exp(f.tau * lam) / scipy.special.factorial(k)
    return sum(c * np.eye(n, k=j) for j, c in enumerate(coeffs))


def test_jordan_block_closed_form():
    # an exactly defective H: it has no eigenvector basis, yet f(H) is
    # well-conditioned, so both kernels must return it to rounding accuracy
    rng = np.random.default_rng(3)
    lam = 1.5 + 0.5j
    for n in (2, 8):
        J = lam * np.eye(n) + np.eye(n, k=1)
        Q, _ = np.linalg.qr(_random_complex(rng, (n, n)))
        H = Q @ J @ Q.conj().T
        c = _random_complex(rng, n)
        for f in (INVSQRT, EXP, exp_scaled(-0.7)):
            want = Q @ _jordan_closed_form(f, lam, n) @ Q.conj().T
            got = matfun(f, H)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            got = matfun_apply(f, H, c)
            assert np.linalg.norm(got - want @ c) <= 1e-12 * np.linalg.norm(want @ c)


def test_exp_fallback_on_ill_conditioned():
    # near-defective H, eigenvector matrix condition ~1e13: expm needs no
    # eigenvector basis; the (1, 2) entry is the divided difference of exp
    a, b = 1.0, 1.0 + 1e-13
    H = np.array([[a, 1.0], [0.0, b]], dtype=np.complex128)
    want = np.exp(a) * np.array([[1.0, np.expm1(b - a) / (b - a)], [0.0, np.exp(b - a)]])
    np.testing.assert_allclose(matfun(EXP, H), want, rtol=1e-12)
    c = np.array([1.0, 2.0], dtype=np.complex128)
    np.testing.assert_allclose(matfun_apply(EXP, H, c), want @ c, rtol=1e-12)


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
    # its eigenvector matrix has condition ~1e15; one LU solves it
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


def test_no_kind_diagonalizes(monkeypatch):
    rng = np.random.default_rng(5)
    H = _random_complex(rng, (30, 30)) + 15 * np.eye(30)
    c = _random_complex(rng, 30)
    root, E = scipy.linalg.sqrtm(H), scipy.linalg.expm(H)
    want = {
        INV: (scipy.linalg.solve(H, c), scipy.linalg.inv(H)),
        INVSQRT: (scipy.linalg.solve(root, c), scipy.linalg.inv(root)),
        EXP: (E @ c, E),
    }

    def no_eig(*args, **kwargs):
        raise AssertionError("the kernel diagonalized H")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    monkeypatch.setattr(scipy.linalg, "eig", no_eig)
    calls = _count_eigvals(monkeypatch)
    for f, (want_c, want_f) in want.items():
        got = matfun_apply(f, H, c)
        assert np.linalg.norm(got - want_c) / np.linalg.norm(want_c) <= 1e-12
        assert np.linalg.norm(matfun(f, H) - want_f) / np.linalg.norm(want_f) <= 1e-12
    assert calls == []  # the LU certificate of inv holds, so no eigenvalues either


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
    for f in (INV, INVSQRT, EXP):
        for bad in (np.nan, np.inf):
            H = np.array([[1.0, bad], [0.0, 1.0]], dtype=np.complex128)
            with pytest.raises(KrecError):
                matfun_apply(f, H, c)
            with pytest.raises(KrecError):
                matfun(f, H)
        with pytest.raises(KrecError):
            matfun_apply(f, np.array([[np.inf]], dtype=np.complex128), c[:1])


def _well_conditioned(n):
    # H = 2I + M/n with |M_ij| <= sqrt(2): ||H - 2I||_2 <= sqrt(2), so the
    # spectrum lies in the right half-plane and ||H||, ||H^{-1}|| <= 3.5
    parts = arrays(np.float64, (2, n, n), elements=st.floats(-1.0, 1.0))
    return parts.map(lambda p: 2.0 * np.eye(n) + (p[0] + 1j * p[1]) / n)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 12).flatmap(_well_conditioned), st.floats(-1.0, 1.0))
def test_kernel_identities(H, tau):
    n = H.shape[0]
    eye = np.eye(n)
    tol = 1e-12 * n
    for f in (INV, INVSQRT, exp_scaled(tau)):
        Y = matfun(f, H)
        assert np.linalg.norm(Y @ H - H @ Y) <= tol * np.linalg.norm(Y) * np.linalg.norm(H)
    assert np.linalg.norm(H @ matfun(INV, H) - eye) <= tol
    Y = matfun(INVSQRT, H)
    assert np.linalg.norm(Y @ H @ Y - eye) <= tol
    E = matfun(exp_scaled(tau), H) @ matfun(exp_scaled(-tau), H)
    assert np.linalg.norm(E - eye) <= tol


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 12).flatmap(_well_conditioned), st.floats(-14.0, 14.0),
       st.integers(0, 2**32 - 1))
def test_domain_rule_is_scale_invariant(H, log_c, seed):
    # f(cH) = c^-1 f(H) for inv and c^(-1/2) f(H) for invsqrt at any c > 0:
    # the distance to the forbidden set is measured against the spectrum
    c = 10.0 ** log_c
    v = _random_complex(np.random.default_rng(seed), H.shape[0])
    for f, power in ((INV, -1.0), (INVSQRT, -0.5)):
        want = c ** power * matfun_apply(f, H, v)
        got = matfun_apply(f, c * H, v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_exp_scaled_tau():
    H = np.diag([2.0]).astype(np.complex128)
    out = matfun(exp_scaled(0.01), H)
    np.testing.assert_allclose(out, [[np.exp(0.02)]], rtol=1e-14)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ScalarFunction("log")
