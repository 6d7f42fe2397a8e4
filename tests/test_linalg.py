import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from krec import (
    Counters,
    DimensionMismatchError,
    EigConvergenceError,
    RankDeficiencyError,
    SingularMatrixError,
    eig_dense,
    lu_solve,
    partial_schur_closest_to_origin,
    qr_econ,
    svd_econ,
)
import krec.linalg
from krec.linalg import (
    CHOL_RCOND_MIN,
    GrowingQR,
    chol_qr,
    combine,
    herm_mul,
    project,
    rcond,
    whiten,
    whiten_r,
)

_EPS = np.finfo(float).eps


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


def _chol_cases():
    """A well-conditioned tall block, one with an exactly dependent (zero)
    column, whose Gram has a zero pivot, and one of condition 1e3, whose Gram
    has a Cholesky factor R that fails the rcond gate."""
    rng = np.random.default_rng(5)
    W = _random_complex(rng, (200, 12))
    dependent = W.copy()
    dependent[:, 7] = 0
    U = np.linalg.qr(_random_complex(rng, (200, 12)))[0]
    V = np.linalg.qr(_random_complex(rng, (12, 12)))[0]
    ill = (U * np.logspace(0, -3, 12)) @ V
    return {"well": W, "dependent": dependent, "ill": ill}


class TestCholQr:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_well_conditioned_matches_householder(self, order):
        well = _chol_cases()["well"]
        out, ref = chol_qr(np.asarray(well, order=order)), qr_econ(well)
        d = np.diagonal(out.R)
        assert np.all(d.imag == 0) and np.all(d.real > 0)
        assert np.array_equal(out.R, np.triu(out.R))
        assert np.linalg.norm(out.R - ref.R) <= 1e-13 * np.linalg.norm(ref.R)
        assert np.linalg.norm(out.Q - ref.Q) <= 1e-13 * np.sqrt(well.shape[1])
        assert np.linalg.norm(out.Q.conj().T @ out.Q - np.eye(well.shape[1])) <= 1e-13
        assert np.linalg.norm(out.Q @ out.R - well) <= 1e-13 * np.linalg.norm(well)

    @pytest.mark.parametrize("case", ["dependent", "ill"])
    def test_falls_back_to_householder_bit_for_bit(self, case):
        W = _chol_cases()[case]
        G = W.conj().T @ W
        if case == "dependent":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(G)
        else:
            assert rcond(np.linalg.cholesky(G).conj().T) <= CHOL_RCOND_MIN
        out, ref = chol_qr(W), qr_econ(W)
        assert np.array_equal(out.Q, ref.Q) and np.array_equal(out.R, ref.R)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ["well", "dependent", "ill"])
    def test_input_unchanged_and_charge(self, order, case):
        # chol_qr counts nothing: its one caller, GrowingQR, factors a copy of
        # the block in its buffer and charges the QR, whichever path it takes
        W = np.asarray(_chol_cases()[case], order=order)
        before, counters = W.copy(), Counters()
        qr = GrowingQR(W.shape[0])
        qr.append(W, counters)
        assert np.array_equal(W, before)
        n = W.shape[1]
        assert counters.snapshot() == (0, n * (n + 1) // 2, 0)
        assert np.linalg.norm(qr.Q @ qr.R - W) <= 1e-13 * np.linalg.norm(W)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ["well", "dependent", "ill"])
    def test_out_takes_q_in_place(self, order, case):
        # the Cholesky path writes Q into a column-major W and returns W; a
        # row-major W is copied, and the Householder fallback leaves W alone
        W = np.asarray(_chol_cases()[case], order=order)
        before = W.copy(order="A")
        want = chol_qr(np.asfortranarray(before))
        got = chol_qr(W)
        assert np.array_equal(got.Q, want.Q) and np.array_equal(got.R, want.R)
        if case == "well" and order == "F":
            assert got.Q is W
        else:
            assert got.Q is not W and np.array_equal(W, before)

    def test_out_may_be_w(self):
        # W is a slot of a wider column-major buffer, as in GrowingQR: the
        # output Q is that slot, and the columns beside it are not touched
        well = _chol_cases()["well"]
        n = well.shape[1]
        buf = np.zeros((well.shape[0], n + 3), dtype=np.complex128, order="F")
        W = buf[:, 1:1 + n]
        W[:] = well
        want = chol_qr(well)
        got = chol_qr(W)
        assert got.Q is W
        assert np.array_equal(W, want.Q) and np.array_equal(got.R, want.R)
        assert not np.any(buf[:, 0]) and not np.any(buf[:, 1 + n:])


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


class TestCombine:
    # the unblocked sum bit for bit at heights below, at and above one block
    # of 4096 rows, in either layout
    @pytest.mark.parametrize("N", [100, 4096, 9000])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_unblocked_sum(self, N, order):
        rng = np.random.default_rng(N)
        X1, X2 = (np.asarray(_random_complex(rng, (N, d)), order=order) for d in (12, 4))
        Y1, Y2 = _random_complex(rng, (12, 5)), _random_complex(rng, (4, 5))
        x, y = _random_complex(rng, N), _random_complex(rng, 5)
        want = X1 @ Y1
        want += X2 @ Y2
        want += np.outer(x, y)
        got = combine([(X1, Y1), (X2, Y2), (x, y)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N", [100, 4096, 9000])
    def test_coefficient_vector(self, N):
        # 1-D coefficients, as an approximant's full vector over [U, V_m]
        rng = np.random.default_rng(N + 1)
        X1 = np.asfortranarray(_random_complex(rng, (N, 12)))
        X2 = _random_complex(rng, (N, 4))
        y1, y2 = _random_complex(rng, 12), _random_complex(rng, 4)
        want = X1 @ y1
        want += X2 @ y2
        got = combine([(X1, y1), (X2, y2)])
        assert got.shape == (N,) and got.tobytes() == want.tobytes()
        assert combine([(X1, y1)]).tobytes() == (X1 @ y1).tobytes()

    def test_rank_one_term_first(self):
        rng = np.random.default_rng(3)
        x, y, X, Y = (_random_complex(rng, shape) for shape in (9000, 5, (9000, 3), (3, 5)))
        want = np.outer(x, y)
        want += X @ Y
        assert combine([(x, y), (X, Y)]).tobytes() == want.tobytes()

    def test_empty_term_adds_nothing(self):
        # the Y_U of a first problem, which has no U
        rng = np.random.default_rng(5)
        X, Y = _random_complex(rng, (9000, 3)), _random_complex(rng, (3, 5))
        U, YU = np.empty((9000, 0), dtype=np.complex128), np.empty((0, 5), dtype=np.complex128)
        assert combine([(X, Y), (U, YU)]).tobytes() == (X @ Y).tobytes()

    def test_no_temporary_of_the_height_of_a_term(self):
        # the traced peak of a two-term call stays below its result plus one
        # 4096-row block of the second term (0.52 MB) and 4 KB for the call's
        # own Python objects (1.3 KB measured); X2 @ Y2 whole would add 2.56 MB
        rng = np.random.default_rng(4)
        N, k = 20000, 8
        X1, X2 = _random_complex(rng, (N, 10)), _random_complex(rng, (N, 6))
        Y1, Y2 = _random_complex(rng, (10, k)), _random_complex(rng, (6, k))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = combine([(X1, Y1), (X2, Y2)])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4096 * k * 16 + 4096


class TestProjection:
    # column-major complex128 blocks go to BLAS, vectors and any other layout
    # to numpy; a Q with no columns is the first problem's empty U
    @pytest.mark.parametrize("q_order", ["C", "F"])
    @pytest.mark.parametrize("w_order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(60,), (60, 5), (60, 0)])
    @pytest.mark.parametrize("k", [0, 7])
    def test_matches_dense_formula(self, q_order, w_order, shape, k):
        rng = np.random.default_rng(31)
        Q = np.asarray(np.linalg.qr(_random_complex(rng, (60, k)))[0], order=q_order)
        W = np.asarray(_random_complex(rng, shape), order=w_order)
        C_want = Q.conj().T @ W
        W_want = W - Q @ C_want
        tol = 1e-13 * np.linalg.norm(W)
        assert herm_mul(Q, W).shape == C_want.shape
        assert np.linalg.norm(herm_mul(Q, W) - C_want) <= tol
        C = project(Q, W)
        assert np.linalg.norm(C - C_want) <= tol
        assert np.linalg.norm(W - W_want) <= tol

    def test_column_major_block_updated_in_place(self, monkeypatch):
        # a column slice of a column-major buffer, as GrowingQR projects: one
        # zgemm forms C, a second updates W itself (beta = 1), and the buffer
        # holds the result with its other columns untouched
        rng = np.random.default_rng(32)
        Q = np.asfortranarray(np.linalg.qr(_random_complex(rng, (80, 6)))[0])
        buf = np.asfortranarray(_random_complex(rng, (80, 9)))
        before = buf.copy()
        W = buf[:, 2:7]
        assert W.flags.f_contiguous
        updates, real = [], scipy.linalg.blas.zgemm

        def zgemm(*args, **kw):
            updates.append(kw.get("c") is W)
            return real(*args, **kw)

        monkeypatch.setattr(scipy.linalg.blas, "zgemm", zgemm)
        C = project(Q, W)
        assert updates == [False, True]
        tol = 1e-13 * np.linalg.norm(before)
        assert np.linalg.norm(buf[:, 2:7] - (before[:, 2:7] - Q @ C)) <= tol
        assert np.linalg.norm(Q.conj().T @ buf[:, 2:7]) <= tol
        assert np.array_equal(buf[:, :2], before[:, :2])
        assert np.array_equal(buf[:, 7:], before[:, 7:])


def test_growing_qr_second_pass_only_where_the_block_cancelled(monkeypatch):
    rng = np.random.default_rng(33)
    s = 300
    qr = GrowingQR(s)
    blocks = [_random_complex(rng, (s, 20))]
    qr.append(blocks[0])
    passes = []
    real = krec.linalg.project
    monkeypatch.setattr(krec.linalg, "project", lambda Q, W: passes.append(1) or real(Q, W))
    # a random block keeps most of its norm and takes one pass; a block within
    # 1e-6 of span(Q) is cancelled by the first pass and takes the second
    near = qr.Q @ _random_complex(rng, (20, 10)) + 1e-6 * _random_complex(rng, (s, 10))
    for block, want in ((_random_complex(rng, (s, 10)), 1), (near, 2)):
        del passes[:]
        blocks.append(block)
        qr.append(block)
        assert len(passes) == want
        M = np.hstack(blocks)
        n = M.shape[1]
        assert np.linalg.norm(qr.Q.conj().T @ qr.Q - np.eye(n)) <= 1e-13
        assert np.linalg.norm(qr.Q @ qr.R - M) <= 10 * np.sqrt(n) * _EPS * np.linalg.norm(M)


@pytest.mark.parametrize("path", ["cholesky", "fallback", "second pass"])
def test_growing_qr_writes_each_block_into_its_buffer(monkeypatch, path):
    # the appended block is projected and factored in its slot of the
    # buffer, whichever path its QR takes; the block returned is that slot
    rng = np.random.default_rng(34)
    s = 200
    calls = []
    for name in ("project", "qr_econ"):
        real = getattr(krec.linalg, name)
        monkeypatch.setattr(krec.linalg, name,
                            lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    qr = GrowingQR(s)
    # an ill-conditioned first block fails the Cholesky gate
    M = _chol_cases()["ill"] if path == "fallback" else _random_complex(rng, (s, 12))
    out = qr.append(M)
    if path != "fallback":
        # a block within 1e-6 of range(Q) is cancelled by the first pass
        block = (qr.Q @ _random_complex(rng, (12, 8)) + 1e-6 * _random_complex(rng, (s, 8))
                 if path == "second pass" else _random_complex(rng, (s, 8)))
        del calls[:]
        out = qr.append(block)
        M = np.hstack([M, block])
    assert calls == {"cholesky": ["project"], "fallback": ["qr_econ"],
                     "second pass": ["project", "project", "qr_econ"]}[path]
    n, d = M.shape[1], out.shape[1]
    assert np.shares_memory(out, qr.Q) and np.array_equal(out, qr.Q[:, n - d:])
    assert np.linalg.norm(qr.Q.conj().T @ qr.Q - np.eye(n)) <= 1e-13
    assert np.linalg.norm(qr.Q @ qr.R - M) <= 10 * np.sqrt(n) * _EPS * np.linalg.norm(M)


def _growing_block(rng, qr, d, kind):
    """A block of d columns for a GrowingQR: random (Cholesky path), of
    condition 1e3 (Householder fallback) or within 1e-6 of range(Q) (second
    pass; random while Q is empty)."""
    N = qr.Q.shape[0]
    if kind == "ill" and d > 1:
        U, V = (np.linalg.qr(_random_complex(rng, shape))[0] for shape in ((N, d), (d, d)))
        return (U * np.logspace(0, -3, d)) @ V
    if kind == "near" and qr.n:
        return qr.Q @ _random_complex(rng, (qr.n, d)) + 1e-6 * _random_complex(rng, (N, d))
    return _random_complex(rng, (N, d))


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.sampled_from(["random", "ill", "near"])),
                min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_growing_qr_charges_one_qr_over_any_split(blocks, seed):
    # column j of M is charged j + 1 inner products, so n columns cost
    # n(n+1)/2 however they are split and whichever path each block takes
    rng = np.random.default_rng(seed)
    qr, counters = GrowingQR(120), Counters()
    cols = []
    for d, kind in blocks:
        cols.append(_growing_block(rng, qr, d, kind))
        qr.append(cols[-1], counters)
        n = qr.n
        assert counters.snapshot() == (0, n * (n + 1) // 2, 0)
    M = np.hstack(cols)
    assert np.linalg.norm(qr.Q @ qr.R - M) <= 10 * np.sqrt(n) * _EPS * np.linalg.norm(M)


def test_growing_qr_holds_at_most_nrows_columns():
    M = _random_complex(np.random.default_rng(3), (6, 7))
    qr = GrowingQR(6)
    qr.append(M[:, :4])
    qr.append(M[:, 4:6])
    assert np.linalg.norm(qr.Q @ qr.R - M[:, :6]) <= 1e-13 * np.linalg.norm(M)
    with pytest.raises(DimensionMismatchError):
        qr.append(M[:, 6:])


def test_wide_sketched_basis_whitens_by_its_own_svd():
    # more columns than sketch rows: the rank check fails, and the truncated
    # SVD is that of SV itself
    rng = np.random.default_rng(4)
    SV, SAV, x = _random_complex(rng, (5, 8)), _random_complex(rng, (5, 8)), _random_complex(rng, 5)
    with pytest.raises(RankDeficiencyError):
        whiten(SV, SAV)
    Q, w = whiten(SV, SAV, 1e-12)
    L, sig, Jh = np.linalg.svd(SV, full_matrices=False)
    assert w.J.shape == (8, 5)
    # phase-free: J D^{-1} G D J* = pinv(SV) SAV J J* with J J* = pinv(SV) SV,
    # and J D^{-1} L* Q* x = pinv(SV) x
    pinv = Jh.conj().T @ (L.conj().T / sig[:, np.newaxis])
    G = w.back(w.G * w.D[np.newaxis, :]) @ w.J.conj().T
    want = pinv @ SAV @ (pinv @ SV)
    assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)
    z = w.back(w.forward(herm_mul(Q, x)))
    assert np.linalg.norm(z - pinv @ x) <= 1e-12 * np.linalg.norm(pinv @ x)


def test_sketched_rank_test_ignores_rcond():
    # unit diagonal, -1 above it: rcond 4.5e-14, below rFOM's 1e-12 switch,
    # yet every |R_jj| is equal, so the QR form whitens it without raising
    n = 40
    R = (np.eye(n) - np.triu(np.ones((n, n)), 1)).astype(np.complex128)
    assert rcond(R) < 1e-13
    P = _random_complex(np.random.default_rng(5), (n, n))
    w = whiten_r(R, P)
    assert w.L is None and w.J is None and w.D is R
    # G = P R^{-1} by a backward-stable triangular solve
    assert np.linalg.norm(w.G @ R - P) <= 1e-13 * np.linalg.norm(w.G) * np.linalg.norm(R)


@st.composite
def _append_case(draw):
    """A random complex s x n M, the cuts it is appended at, and how many of its
    last columns are near-duplicates (1e-14 noise) of earlier ones."""
    n = draw(st.integers(1, 16))
    s = draw(st.integers(n, 48))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    dups = draw(st.integers(0, min(3, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = _random_complex(rng, (s, n))
    for j in range(n - dups, n):
        M[:, j] = M[:, rng.integers(0, j)] + 1e-14 * _random_complex(rng, s)
    return M, [0] + cuts + [n], dups, rng


@settings(max_examples=150, deadline=None, database=None)
@given(_append_case())
def test_growing_qr_property(case):
    M, cuts, dups, rng = case
    s, n = M.shape
    counters = Counters()
    qr = GrowingQR(s)
    for lo, hi in zip(cuts, cuts[1:]):
        qr.append(M[:, lo:hi], counters)
    Q, R = qr.Q, qr.R
    # charged as a one-shot QR of M
    assert counters.snapshot() == (0, n * (n + 1) // 2, 0)
    assert np.array_equal(R, np.triu(R)) and np.all(np.diagonal(R).real >= 0)
    assert np.linalg.norm(Q @ R - M) <= 10 * np.sqrt(n) * _EPS * np.linalg.norm(M)
    sigma = np.linalg.svd(M, compute_uv=False)
    assert np.max(np.abs(np.linalg.svd(R, compute_uv=False) - sigma)) <= 10 * n * _EPS * sigma[0]
    if dups:
        return
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-13
    if s < n + 4:
        return
    # well conditioned: the whitenings of the grown R equal the one-shot
    # whitenings of M (QR of M, SVD of M) to rounding
    SAV = _random_complex(rng, (s, n))
    x = _random_complex(rng, s)
    P = herm_mul(Q, SAV)

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    Q1, R1 = np.linalg.qr(M)
    phase = np.diagonal(R1) / np.abs(np.diagonal(R1))
    Q1, R1 = Q1 * phase, R1 * phase.conj()[:, np.newaxis]
    w = whiten_r(R, P)
    assert rel(w.G, np.linalg.solve(R1.T, (Q1.conj().T @ SAV).T).T) <= 1e-10
    assert rel(w.forward(herm_mul(Q, x)), Q1.conj().T @ x) <= 1e-10
    # the SVD form is compared through quantities free of the singular
    # vectors' phases: J D^{-1} G D J* = pinv(M) SAV and J D^{-1} L* Q* x
    L2, sig2, J2h = np.linalg.svd(M, full_matrices=False)
    pinv = J2h.conj().T @ (L2.conj().T / sig2[:, np.newaxis])
    w = whiten_r(R, P, 1e-12)
    assert w.J.shape == (n, n)
    assert rel(w.back(w.G * w.D[np.newaxis, :]) @ w.J.conj().T, pinv @ SAV) <= 1e-10
    assert rel(w.back(w.forward(herm_mul(Q, x))), pinv @ x) <= 1e-10
