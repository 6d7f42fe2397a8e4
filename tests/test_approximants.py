import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import krec.approximants
from krec import (
    EXP,
    INV,
    INVSQRT,
    AdaptiveM,
    AugmentedBasis,
    Counters,
    CSRMatrix,
    DomainError,
    KrylovBasis,
    MODE_TRUNCATED,
    RankDeficiencyError,
    RecycleState,
    SketchedBasis,
    arnoldi_build,
    arnoldi_extend,
    exp_scaled,
    fom_closed,
    gmres_type_closed,
    oracle_exact,
    rfom_step,
    sfom_whitened,
    sketch_av_from_arnoldi,
    sgmres_type,
    sgmres_type_stab,
    sketch_apply,
    qr_econ,
    sketch_dense,
    sketch_new,
    srfom_stab,
    srfom_step,
)
from krec.driver import _check_stop
from krec.linalg import GrowingQR, chol_qr, herm_mul, whiten_r
from krec.matfun import matfun_apply
from krec.matrices import gen_neumann2d

ALL_F = (INVSQRT, INV, EXP)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_hpd(rng, n, shift=None):
    M = _random_complex(rng, (n, n))
    return CSRMatrix.from_dense(M @ M.conj().T + (shift or n) * np.eye(n))


def _random_shifted(rng, n):
    # non-Hermitian with spectrum shifted off the negative real axis
    return CSRMatrix.from_dense(_random_complex(rng, (n, n)) + 3 * n * np.eye(n))


def _isometric_sketch_columns(S, M):
    return np.column_stack([sketch_apply(S, M[:, j]) for j in range(M.shape[1])])


class TestFomClosed:
    def test_exactness_diag(self):
        A = CSRMatrix.from_dense(np.diag([1.0, 4.0]))
        b = np.ones(2, dtype=np.complex128)
        fac = arnoldi_build(A, b, 2)
        out = fom_closed(fac.V, fac.square_h(), b, INVSQRT)
        np.testing.assert_allclose(out.full_vector(), [1.0, 0.5], atol=1e-13)

    def test_hand_value_m1(self):
        A = CSRMatrix.from_dense(np.diag([1.0, 4.0]))
        b = np.ones(2, dtype=np.complex128)
        fac = arnoldi_build(A, b, 1)
        out = fom_closed(fac.V, fac.square_h(), b, INVSQRT)
        np.testing.assert_allclose(fac.square_h(), [[2.5]], atol=1e-14)
        want = 2.5 ** (-0.5) * np.ones(2)
        np.testing.assert_allclose(out.full_vector(), want, atol=1e-12)
        np.testing.assert_allclose(out.full_vector(), [0.63246, 0.63246], atol=1e-5)

    def test_inv_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        A = _random_hpd(rng, 20)
        b = _random_complex(rng, 20)
        fac = arnoldi_build(A, b, 20)
        out = fom_closed(fac.V, fac.square_h(), b, INV)
        want = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(out.full_vector() - want) / np.linalg.norm(want) <= 1e-11

    def test_galerkin_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        A = _random_hpd(rng, 60)
        b = _random_complex(rng, 60)
        fac = arnoldi_build(A, b, 15)
        out = fom_closed(fac.V, fac.square_h(), b, INV)
        resid = b - A.to_dense() @ out.full_vector()
        assert np.linalg.norm(fac.V.conj().T @ resid) <= 1e-10 * np.linalg.norm(b)


def _assert_truncated_rfom(A, b, U, span, m):
    """rFOM over a numerically dependent [U, V_m] keeps every U column in its
    grown QR, truncates its whitening to rank([U, V_m]), equals FOM over a
    Householder basis of the span, and is charged the law of an independent
    [U, V_m]: full Arnoldi and the QR of [U, V_m] once."""
    c = Counters()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        approx, basis = rfom_step(A, b, U, m, INVSQRT, counters=c)
    k = U.shape[1]
    assert basis.k == k
    assert approx.ell == np.linalg.matrix_rank(np.column_stack([U, basis.fac.V]))
    Q = qr_econ(span).Q
    want = fom_closed(Q, Q.conj().T @ A.to_dense() @ Q, b, INVSQRT).full_vector()
    assert np.linalg.norm(approx.full_vector() - want) <= 1e-12 * np.linalg.norm(want)
    n = k + m
    assert c.snapshot()[1] == m * m + 3 * m + n * (n + 1) // 2


class TestRfomStep:
    def test_empty_u_reduces_to_fom(self):
        rng = np.random.default_rng(2)
        A = _random_hpd(rng, 50)
        b = _random_complex(rng, 50)
        fac = arnoldi_build(A, b, 12)
        plain = fom_closed(fac.V, fac.square_h(), b, INVSQRT)
        approx, _ = rfom_step(A, b, None, 12, INVSQRT)
        diff = np.linalg.norm(approx.full_vector() - plain.full_vector())
        assert diff <= 1e-13 * np.linalg.norm(plain.full_vector())

    def test_invariant_subspace_improves_error(self):
        rng = np.random.default_rng(3)
        n = 80
        lam = np.concatenate([[0.01, 0.02, 0.03], np.linspace(1, 5, n - 3)])
        Q, _ = np.linalg.qr(_random_complex(rng, (n, n)))
        dense = Q @ np.diag(lam) @ Q.conj().T
        A = CSRMatrix.from_dense(dense)
        b = _random_complex(rng, n)
        exact = oracle_exact(A, b, INVSQRT)
        U = Q[:, :3]  # eigenvectors of the small cluster
        m = 10
        err_fom = np.linalg.norm(
            rfom_step(A, b, None, m, INVSQRT)[0].full_vector() - exact)
        err_rfom = np.linalg.norm(
            rfom_step(A, b, U, m, INVSQRT)[0].full_vector() - exact)
        assert err_rfom < err_fom

    def test_matvec_counts(self):
        rng = np.random.default_rng(4)
        A = _random_hpd(rng, 60)
        b = _random_complex(rng, 60)
        U, _ = np.linalg.qr(_random_complex(rng, (60, 5)))
        m, k = 10, 5
        c = Counters()
        rfom_step(A, b, U, m, INVSQRT, counters=c)
        assert c.snapshot()[0] == m + 1 + k
        AU = A.to_dense() @ U
        c = Counters()
        rfom_step(A, b, U, m, INVSQRT, AU=AU, counters=c)
        assert c.snapshot()[0] == m + 1

    def test_rank_deficient_augmentation_dropped(self):
        rng = np.random.default_rng(5)
        A = _random_hpd(rng, 40)
        b = _random_complex(rng, 40)
        fac = arnoldi_build(A, b, 8)
        U = fac.V[:, :2]  # lies inside the Krylov space: dependent columns
        _assert_truncated_rfom(A, b, U, fac.V, 8)

    def test_dependent_columns_dropped_independent_kept(self):
        rng = np.random.default_rng(21)
        A = _random_hpd(rng, 40)
        b = _random_complex(rng, 40)
        fac = arnoldi_build(A, b, 8)
        free = _random_complex(rng, 40)
        U = np.column_stack([fac.V[:, :2] @ _random_complex(rng, 2), free,
                             fac.V[:, 2]])
        _assert_truncated_rfom(A, b, U, np.column_stack([free, fac.V]), 8)

    def test_non_finite_approximant_raises(self):
        # exp(1000) overflows: matfun_apply judges f(G) c, not the basis
        A = CSRMatrix.from_dense(np.diag(np.linspace(900.0, 1000.0, 30)))
        b = np.ones(30, dtype=np.complex128)
        with pytest.raises(DomainError), np.errstate(all="ignore"):
            rfom_step(A, b, None, 5, exp_scaled(1.0))


def _block_diag_with_invariant_start(rng, n_inv, N):
    """A with b inside an n_inv-dimensional invariant subspace: Arnoldi breaks down at n_inv."""
    dense = np.zeros((N, N), dtype=np.complex128)
    dense[:n_inv, :n_inv] = _random_complex(rng, (n_inv, n_inv)) + 3 * n_inv * np.eye(n_inv)
    rest = N - n_inv
    dense[n_inv:, n_inv:] = _random_complex(rng, (rest, rest)) + 3 * rest * np.eye(rest)
    b = np.zeros(N, dtype=np.complex128)
    b[:n_inv] = _random_complex(rng, n_inv)
    return CSRMatrix.from_dense(dense), b


class TestAugmentedBasis:
    def test_incremental_matches_householder_qr(self):
        rng = np.random.default_rng(22)
        N, k, n_inv = 60, 4, 25
        A, b = _block_diag_with_invariant_start(rng, n_inv, N)
        U, _ = np.linalg.qr(_random_complex(rng, (N, k)))
        c = Counters()
        aug = AugmentedBasis(A, RecycleState(U=U), counters=c)
        assert c.snapshot()[0] == k
        fac = arnoldi_build(A, b, 10)
        aug.extend(fac)
        for m in (20, 30):
            fac = arnoldi_extend(fac, A, m)
            aug.extend(fac)
        assert fac.breakdown == n_inv and aug.m == n_inv
        n = k + n_inv
        # column j of [U, V] is charged j + 1 inner products, as a one-shot QR
        assert c.snapshot() == (k, n * (n + 1) // 2, 0)

        ref = qr_econ(np.column_stack([U, fac.V]))
        G_ref = ref.Q.conj().T @ A.to_dense() @ ref.Q

        def rel(x, y):
            return np.linalg.norm(x - y) / np.linalg.norm(y)

        assert rel(aug.Q, ref.Q) <= 1e-12
        assert rel(aug.R, ref.R) <= 1e-12
        assert rel(aug.G, G_ref) <= 1e-12

    def test_cached_au_costs_no_matvecs(self):
        rng = np.random.default_rng(23)
        A = _random_hpd(rng, 50)
        U, _ = np.linalg.qr(_random_complex(rng, (50, 3)))
        c = Counters()
        AugmentedBasis(A, RecycleState(U=U, AU=A.to_dense() @ U), counters=c)
        assert c.snapshot()[0] == 0

    def test_recycle_propagates_au(self):
        rng = np.random.default_rng(24)
        A = _random_hpd(rng, 70)
        b = _random_complex(rng, 70)
        U, _ = np.linalg.qr(_random_complex(rng, (70, 3)))
        aug = AugmentedBasis(A, RecycleState(U=U))
        fac = arnoldi_build(A, b, 10)
        aug.extend(fac)
        aug.extend(arnoldi_extend(fac, A, 20))
        state = aug.recycle(4)
        U_new, AU_new = state.U, state.AU
        assert U_new.shape == (70, 4)
        np.testing.assert_allclose(U_new.conj().T @ U_new, np.eye(4), atol=1e-12)
        want = A.to_dense() @ U_new
        assert np.linalg.norm(AU_new - want) <= 1e-11 * np.linalg.norm(want)


class TestSfomWhitened:
    def test_isometric_sketch_equals_fom(self):
        rng = np.random.default_rng(6)
        A = _random_hpd(rng, 64)
        b = _random_complex(rng, 64)
        fac = arnoldi_build(A, b, 15)
        S = sketch_new(64, 64, seed=0)
        SV = _isometric_sketch_columns(S, fac.V)
        AV = A.to_dense() @ fac.V
        SAV = _isometric_sketch_columns(S, AV)
        Sb = sketch_apply(S, b)
        out = sfom_whitened(fac.V, SV, SAV, Sb, INVSQRT)
        want = fom_closed(fac.V, fac.square_h(), b, INVSQRT).full_vector()
        assert np.linalg.norm(out.full_vector() - want) <= 1e-11 * np.linalg.norm(want)

    def test_error_within_factor_of_fom(self):
        rng = np.random.default_rng(7)
        failures = 0
        for seed in range(20):
            A = _random_hpd(rng, 300, shift=30)
            b = _random_complex(rng, 300)
            exact = oracle_exact(A, b, INV)
            fac = arnoldi_build(A, b, 30, mode=MODE_TRUNCATED)
            S = sketch_new(300, 120, seed=seed)
            SV = _isometric_sketch_columns(S, fac.V)
            AV = A.to_dense() @ fac.V
            SAV = _isometric_sketch_columns(S, AV)
            out = sfom_whitened(fac.V, SV, SAV, sketch_apply(S, b), INV)
            fomv = rfom_step(A, b, None, 30, INV)[0].full_vector()
            e_sfom = np.linalg.norm(out.full_vector() - exact)
            e_fom = np.linalg.norm(fomv - exact)
            if e_sfom > 10 * e_fom:
                failures += 1
        assert failures <= 2

    def test_rank_deficiency_raises(self):
        rng = np.random.default_rng(8)
        SV = _random_complex(rng, (20, 4))
        SV[:, 3] = SV[:, 0]
        with pytest.raises(RankDeficiencyError):
            sfom_whitened(np.zeros((30, 4)), SV, SV, np.zeros(20), INV)


class TestSrfomStab:
    def _setup(self, rng, n=60, m=12, s=40, seed=0):
        A = _random_hpd(rng, n)
        b = _random_complex(rng, n)
        fac = arnoldi_build(A, b, m)
        S = sketch_new(n, s, seed=seed)
        SV = _isometric_sketch_columns(S, fac.V)
        AV = A.to_dense() @ fac.V
        SAV = _isometric_sketch_columns(S, AV)
        return A, b, fac.V, SV, SAV, sketch_apply(S, b)

    def test_well_conditioned_matches_unstabilized(self):
        rng = np.random.default_rng(9)
        A, b, V, SV, SAV, Sb = self._setup(rng)
        out = srfom_stab(V, SV, SAV, Sb, INVSQRT)
        want = sfom_whitened(V, SV, SAV, Sb, INVSQRT)
        diff = np.linalg.norm(out.full_vector() - want.full_vector())
        assert diff <= 1e-10 * np.linalg.norm(want.full_vector())

    def test_duplicated_column_reduces_ell(self):
        rng = np.random.default_rng(10)
        A, b, V, SV, SAV, Sb = self._setup(rng)
        V2 = np.column_stack([V, V[:, 0]])
        SV2 = np.column_stack([SV, SV[:, 0]])
        SAV2 = np.column_stack([SAV, SAV[:, 0]])
        out = srfom_stab(V2, SV2, SAV2, Sb, INVSQRT)
        assert out.ell == SV2.shape[1] - 1
        assert np.all(np.isfinite(out.full_vector()))

    def test_more_columns_than_sketch_rows(self):
        # a wide S Vhat cannot be rank-checked, but its truncated SVD whitens it
        rng = np.random.default_rng(14)
        A, b, V, SV, SAV, Sb = self._setup(rng, m=12, s=8)
        with pytest.raises(RankDeficiencyError):
            sfom_whitened(V, SV, SAV, Sb, INVSQRT)
        out = srfom_stab(V, SV, SAV, Sb, INVSQRT)
        assert out.ell == 8
        assert np.all(np.isfinite(out.full_vector()))

    def test_svdtol_zero_matches(self):
        rng = np.random.default_rng(11)
        A, b, V, SV, SAV, Sb = self._setup(rng)
        out = srfom_stab(V, SV, SAV, Sb, INV, svdtol=0.0)
        want = sfom_whitened(V, SV, SAV, Sb, INV)
        diff = np.linalg.norm(out.full_vector() - want.full_vector())
        assert diff <= 1e-10 * np.linalg.norm(want.full_vector())


class TestSrfomStep:
    def test_empty_recycle_equals_sfom(self):
        rng = np.random.default_rng(12)
        A = _random_hpd(rng, 80)
        b = _random_complex(rng, 80)
        S = sketch_new(80, 40, seed=1)
        approx, bundle = srfom_step(A, b, S, None, 15, INVSQRT)
        fac = arnoldi_build(A, b, 15, mode=MODE_TRUNCATED)
        SV = _isometric_sketch_columns(S, fac.V)
        s_next = sketch_apply(S, fac.v_next)
        # bit for bit along the basis's own route: one QR of S V_m (an append
        # to an empty GrowingQR is one chol_qr), then
        # Q* S A V_m = R H_m + h (Q* S v_next) e_m^T and Q* S b = ||b|| R e_1
        qr = GrowingQR(S.s)
        qr.append(SV)
        np.testing.assert_array_equal(qr.R, chol_qr(SV).R)
        P = qr.R @ fac.square_h()
        P[:, -1] += fac.h_tail * herm_mul(qr.Q, s_next)
        w = whiten_r(qr.R, P)
        np.testing.assert_array_equal(
            approx.coeffs,
            w.back(matfun_apply(INVSQRT, w.G, np.linalg.norm(b) * qr.R[:, 0])))
        # the one-shot sfom_whitened projects through Q* S A V_m instead:
        # equal to rounding
        SAV = sketch_av_from_arnoldi(S, fac, SV, s_next)
        want = sfom_whitened(fac.V, SV, SAV, np.linalg.norm(b) * SV[:, 0], INVSQRT)
        diff = np.linalg.norm(approx.coeffs - want.coeffs)
        assert diff <= 1e-12 * np.linalg.norm(want.coeffs)

    @pytest.mark.parametrize("given", ["U", "U, SAU"])
    def test_state_without_su_has_it_formed(self, given):
        # a state with U alone, as AugmentedBasis.recycle gives, or a caller's
        # own: S U (and a missing S A U) is formed in the loop over U's
        # columns, one sketch each, and the approximant is that of the run
        # given both, formed by hand column by column
        from krec.matrices import gen_hpd
        from krec.sparse import csr_matvec
        rng = np.random.default_rng(14)
        A = gen_hpd(100, seed=1)
        b = _random_complex(rng, 100)
        S = sketch_new(100, 60, seed=3)
        k = 4
        U = np.linalg.qr(_random_complex(rng, (100, k)))[0]
        SU = _isometric_sketch_columns(S, U)
        SAU = np.column_stack([sketch_apply(S, csr_matvec(A, U[:, j])) for j in range(k)])
        own, full = Counters(), Counters()
        state = RecycleState(U=U, SAU=SAU if "SAU" in given else None)
        approx, _ = srfom_step(A, b, S, state, 15, INV, counters=own)
        want, _ = srfom_step(A, b, S, RecycleState(U=U, SU=SU, SAU=SAU), 15, INV,
                             counters=full)
        np.testing.assert_array_equal(approx.full_vector(), want.full_vector())
        formed = 0 if "SAU" in given else k  # S A U: a matvec and a sketch per column
        assert np.subtract(own.snapshot(), full.snapshot()).tolist() == [formed, 0, k + formed]

    def test_sketch_count_is_m_plus_one(self):
        rng = np.random.default_rng(13)
        A = _random_hpd(rng, 80)
        b = _random_complex(rng, 80)
        S = sketch_new(80, 40, seed=2)
        c = Counters()
        srfom_step(A, b, S, None, 15, INVSQRT, counters=c)
        mv, _, sk = c.snapshot()
        assert sk == 16
        assert mv == 16


class TestGmresType:
    def test_breakdown_equals_fom(self):
        A = CSRMatrix.from_dense(np.diag([1.0, 4.0]))
        b = np.ones(2, dtype=np.complex128)
        fac = arnoldi_build(A, b, 2)
        assert fac.breakdown is not None or abs(fac.h_tail) <= 1e-13
        g = gmres_type_closed(fac, b, INVSQRT)
        f = fom_closed(fac.V, fac.square_h(), b, INVSQRT)
        np.testing.assert_allclose(g.full_vector(), f.full_vector(), atol=1e-12)

    def test_full_space_exact(self):
        rng = np.random.default_rng(14)
        A = _random_hpd(rng, 18)
        b = _random_complex(rng, 18)
        fac = arnoldi_build(A, b, 18)
        out = gmres_type_closed(fac, b, INV)
        want = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(out.full_vector() - want) / np.linalg.norm(want) <= 1e-11

    def test_minimal_residual_coordinates(self):
        rng = np.random.default_rng(15)
        A = _random_hpd(rng, 50)
        b = _random_complex(rng, 50)
        fac = arnoldi_build(A, b, 10)
        out = gmres_type_closed(fac, b, INV)
        AV = A.to_dense() @ fac.V
        want, *_ = np.linalg.lstsq(AV, b, rcond=None)
        assert np.linalg.norm(out.coeffs - want) <= 1e-10 * np.linalg.norm(want)

    def test_requires_full_mode(self):
        rng = np.random.default_rng(16)
        A = _random_hpd(rng, 30)
        b = _random_complex(rng, 30)
        fac = arnoldi_build(A, b, 5, mode=MODE_TRUNCATED)
        with pytest.raises(ValueError):
            gmres_type_closed(fac, b, INV)


class TestSgmresType:
    def _setup(self, rng, n=60, m=12, s=60):
        A = _random_hpd(rng, n)
        b = _random_complex(rng, n)
        fac = arnoldi_build(A, b, m)
        S = sketch_new(n, s, seed=3)
        SV = _isometric_sketch_columns(S, fac.V)
        AV = A.to_dense() @ fac.V
        SW = _isometric_sketch_columns(S, AV)
        return A, b, fac, SV, SW, sketch_apply(S, b)

    def test_isometric_limit(self):
        rng = np.random.default_rng(17)
        A, b, fac, SV, SW, Sb = self._setup(rng, n=64, s=64)
        out = sgmres_type(SV, SW, Sb, fac.V, INVSQRT)
        want = gmres_type_closed(fac, b, INVSQRT)
        diff = np.linalg.norm(out.full_vector() - want.full_vector())
        assert diff <= 1e-10 * np.linalg.norm(want.full_vector())

    def test_full_space_exact(self):
        rng = np.random.default_rng(18)
        n = 16
        A = _random_hpd(rng, n)
        b = _random_complex(rng, n)
        fac = arnoldi_build(A, b, n)
        S = sketch_new(n, n, seed=4)
        SV = _isometric_sketch_columns(S, fac.V)
        AV = A.to_dense() @ fac.V
        SW = _isometric_sketch_columns(S, AV)
        out = sgmres_type(SV, SW, sketch_apply(S, b), fac.V, INV)
        want = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(out.full_vector() - want) / np.linalg.norm(want) <= 1e-10

    def test_stab_matches_and_handles_duplicates(self):
        rng = np.random.default_rng(19)
        A, b, fac, SV, SW, Sb = self._setup(rng)
        out = sgmres_type(SV, SW, Sb, fac.V, INV)
        stab = sgmres_type_stab(SV, SW, Sb, fac.V, INV, svdtol=1e-14)
        diff = np.linalg.norm(out.full_vector() - stab.full_vector())
        assert diff <= 1e-9 * np.linalg.norm(out.full_vector())
        zero = sgmres_type_stab(SV, SW, Sb, fac.V, INV, svdtol=0.0)
        np.testing.assert_allclose(zero.full_vector(), out.full_vector(), atol=1e-9)
        V2 = np.column_stack([fac.V, fac.V[:, 0]])
        SV2 = np.column_stack([SV, SV[:, 0]])
        SW2 = np.column_stack([SW, SW[:, 0]])
        dup = sgmres_type_stab(SV2, SW2, Sb, V2, INV, svdtol=1e-14)
        assert dup.ell == SW2.shape[1] - 1
        assert np.all(np.isfinite(dup.full_vector()))


def test_augmented_order_invariance():
    rng = np.random.default_rng(20)
    A = _random_hpd(rng, 60)
    b = _random_complex(rng, 60)
    fac = arnoldi_build(A, b, 10, mode=MODE_TRUNCATED)
    U, _ = np.linalg.qr(_random_complex(rng, (60, 4)))
    S = sketch_new(60, 40, seed=5)
    dense = A.to_dense()

    def whitened(cols):
        SV = _isometric_sketch_columns(S, cols)
        SAV = _isometric_sketch_columns(S, dense @ cols)
        return sfom_whitened(cols, SV, SAV, sketch_apply(S, b), INVSQRT).full_vector()

    uv = whitened(np.column_stack([U, fac.V]))
    vu = whitened(np.column_stack([fac.V, U]))
    assert np.linalg.norm(uv - vu) <= 1e-8 * np.linalg.norm(vu)


_NEST_N, _NEST_S = 48, 40
_NEST_RNG = np.random.default_rng(31)
_NEST_A = _random_hpd(_NEST_RNG, _NEST_N)
_NEST_B = _random_complex(_NEST_RNG, _NEST_N)
_NEST_U = np.linalg.qr(_random_complex(_NEST_RNG, (_NEST_N, 3)))[0]
_NEST_SKETCH = sketch_new(_NEST_N, _NEST_S, seed=6)
# spans K_3(A, b): dependent on V_m for m >= 2, so rFOM truncates its whitening
_NEST_U_DEP = arnoldi_build(_NEST_A, _NEST_B, 3).V @ _random_complex(_NEST_RNG, (3, 3))


def _nest_basis(kind, k):
    """A working basis of the given kind, seeded with k recycled columns."""
    U = _NEST_U[:, :k]
    if kind == "krylov":
        return KrylovBasis()
    if kind == "augmented":
        return AugmentedBasis(_NEST_A, RecycleState(U=U))
    if kind == "augmented_dependent":
        return AugmentedBasis(_NEST_A, RecycleState(U=_NEST_U_DEP[:, :k]))
    S = sketch_dense(_NEST_SKETCH)
    state = RecycleState(U=U, SU=S @ U, SAU=S @ (_NEST_A.to_dense() @ U), matrix_epoch=0)
    return SketchedBasis(_NEST_A, _NEST_SKETCH, state, matrix_epoch=0,
                         svdtol=1e-14 if kind == "sketched_stab" else None)


def _nest_columns(kind, basis):
    """(columns that must be kept bit for bit, S A Vhat, the estimator's W in ||W y||)."""
    if kind == "krylov":
        return {"V": basis.fac.V.copy()}, None, basis.fac.V.copy()
    if kind.startswith("augmented"):
        return {"Q": basis.Q.copy(), "R": basis.R.copy()}, None, basis.Q.copy()
    # S Vhat is stored as its grown QR: Q and R only gain columns
    Vhat, SVhat, SAVhat = basis.images(np.eye(basis.k + basis.fac.m))
    return {"Vhat": Vhat, "Q": basis.qr.Q.copy(), "R": basis.R.copy()}, SAVhat, SVhat


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["krylov", "augmented", "augmented_dependent", "sketched",
                        "sketched_stab"]),
       st.sampled_from([0, 3]), st.integers(2, 12), st.integers(1, 5))
def test_extend_keeps_leading_columns(kind, k, m, d):
    # every working basis only appends columns, also when U depends on V_m,
    # so the stop test may compare the previous coefficients padded with
    # zeros at the end
    assume(kind != "krylov" or k == 0)
    assume(kind != "augmented_dependent" or k == 3)
    mode = MODE_TRUNCATED if kind.startswith("sketched") else "full"
    basis = _nest_basis(kind, k)
    fac = arnoldi_build(_NEST_A, _NEST_B, m, mode=mode)
    basis.extend(fac)
    y_old = basis.approximant(_NEST_B, INVSQRT).coeffs
    kept_old, SAV_old, W_old = _nest_columns(kind, basis)
    basis.extend(arnoldi_extend(fac, _NEST_A, m + d))
    approx = basis.approximant(_NEST_B, INVSQRT)
    kept_new, SAV_new, W_new = _nest_columns(kind, basis)
    for name, old in kept_old.items():
        np.testing.assert_array_equal(kept_new[name][:old.shape[0], :old.shape[1]], old,
                                      err_msg=name)
    if SAV_old is not None:
        lead = SAV_new[:, :SAV_old.shape[1]]
        assert np.linalg.norm(lead - SAV_old) <= 1e-13 * np.linalg.norm(SAV_old)
    spec = SimpleNamespace(stop_rule="estimator", m=AdaptiveM(reltol=1e-8))
    _, est = _check_stop(spec, approx, y_old, None, _NEST_B, basis)
    y_new = approx.coeffs
    want = np.linalg.norm(W_new @ y_new - W_old @ y_old) / np.linalg.norm(W_new @ y_new)
    assert abs(est - want) <= 1e-12


@pytest.mark.parametrize("kind", ["krylov", "augmented", "augmented_dependent"])
def test_approximant_reads_b_off_the_basis(kind):
    # b = ||b|| v_1 is column k of [U, V_m] = Q R: the coefficients equal the
    # explicit projection of b, and approximant() charges no inner products;
    # a U inside the Krylov space truncates the whitening
    rng = np.random.default_rng(43)
    A = _random_hpd(rng, 60)
    b = _random_complex(rng, 60)
    c = Counters()
    fac = arnoldi_build(A, b, 12, counters=c)
    if kind == "krylov":
        basis = KrylovBasis()
    else:
        U = (np.linalg.qr(_random_complex(rng, (60, 4)))[0] if kind == "augmented"
             else fac.V[:, :3] @ _random_complex(rng, (3, 3)))
        basis = AugmentedBasis(A, RecycleState(U=U), counters=c)
    basis.extend(fac)
    charged = c.snapshot()
    approx = basis.approximant(b, INVSQRT)
    assert c.snapshot() == charged
    if kind == "krylov":
        want = matfun_apply(INVSQRT, fac.square_h(), herm_mul(fac.V, b))
    else:
        L = basis.whitening.L
        assert (L is None) == (kind == "augmented")
        if L is None:
            L = np.eye(basis.Q.shape[1])
        want = L @ matfun_apply(INVSQRT, basis.G, herm_mul(L, herm_mul(basis.Q, b)))
    assert np.linalg.norm(approx.coeffs - want) <= 1e-12 * np.linalg.norm(want)


@st.composite
def _split_case(draw):
    """Random sparse A (N in 5..70), k recycled columns, m and the cuts of an
    adaptive extension, whether the matrix epoch is new, a seed."""
    N = draw(st.integers(5, 70))
    k = draw(st.integers(0, 3))
    m = draw(st.integers(1, N - k - 1))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=4))) if m > 1 else []
    return N, k, cuts + [m], draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _split_setup(case):
    N, k, cuts, new_epoch, seed = case
    rng = np.random.default_rng(seed)
    dense = _random_complex(rng, (N, N))
    dense[rng.random((N, N)) > 0.3] = 0.0
    A = CSRMatrix.from_dense(dense + 2 * np.sqrt(N) * np.eye(N))
    U = np.linalg.qr(_random_complex(rng, (N, k)))[0]
    return A, U, _random_complex(rng, N), cuts, new_epoch


def _extend_in_splits(basis, A, b, cuts, mode, counters):
    fac = arnoldi_build(A, b, cuts[0], mode=mode, t=2, counters=counters)
    basis.extend(fac)
    for m in cuts[1:]:
        fac = arnoldi_extend(fac, A, m, counters=counters)
        basis.extend(fac)
    return fac


@settings(max_examples=60, deadline=None, database=None)
@given(_split_case())
def test_sketched_basis_counter_law(case):
    # m+1 sketches, plus k matvecs and k sketches on a new matrix epoch, and
    # no inner products past truncated Arnoldi's, however the build is split
    A, U, b, cuts, new_epoch = _split_setup(case)
    N, k = U.shape
    S = sketch_new(N, 1 << (N - 1).bit_length(), seed=1)
    Sd = sketch_dense(S)
    state = RecycleState(U=U, SU=Sd @ U, SAU=Sd @ (A.to_dense() @ U), matrix_epoch=0)
    c = Counters()
    basis = SketchedBasis(A, S, state, int(new_epoch), c, svdtol=1e-12)
    fac = _extend_in_splits(basis, A, b, cuts, MODE_TRUNCATED, c)
    arn = Counters()
    arnoldi_build(A, b, cuts[-1], mode=MODE_TRUNCATED, t=2, counters=arn)
    mv, ip, sk = arn.snapshot()
    extra = k if new_epoch else 0
    assert c.snapshot() == (mv + extra, ip, fac.m + (fac.breakdown is None) + extra)


@settings(max_examples=60, deadline=None, database=None)
@given(_split_case())
def test_augmented_basis_counter_law(case):
    # charged as a one-shot QR of [U, V_m] on top of full Arnoldi, plus k
    # matvecs unless A U is cached, however the build is split
    A, U, b, cuts, new_epoch = _split_setup(case)
    k = U.shape[1]
    state = RecycleState(U=U, AU=A.to_dense() @ U, matrix_epoch=0)
    c = Counters()
    basis = AugmentedBasis(A, state, int(new_epoch), c)
    fac = _extend_in_splits(basis, A, b, cuts, "full", c)
    arn = Counters()
    arnoldi_build(A, b, cuts[-1], mode="full", counters=arn)
    mv, ip, sk = arn.snapshot()
    n = k + fac.m
    assert basis.k == k
    assert c.snapshot() == (mv + (k if new_epoch else 0), ip + n * (n + 1) // 2, sk)


@pytest.mark.parametrize("method, epoch, inexact", [
    ("rfom", 0, False), ("rfom", 1, False),
    ("srfom", 0, False), ("srfom", 1, False), ("srfom", 1, True)])
def test_cached_image_of_u_rule(method, epoch, inexact):
    # the state's A U (S A U) was formed on epoch 0 with A_0: reused there,
    # and on epoch 1 only when inexact; otherwise formed again with A_1 at k
    # matvecs (and k sketches), and a stale A U leaves the state
    rng = np.random.default_rng(40)
    N, k = 40, 3
    A0, A1 = _random_hpd(rng, N), _random_hpd(rng, N)
    U = np.linalg.qr(_random_complex(rng, (N, k)))[0]
    S = sketch_new(N, 32, seed=3)
    Sd = sketch_dense(S)
    state = RecycleState(U=U, SU=Sd @ U, AU=A0.to_dense() @ U,
                         SAU=Sd @ (A0.to_dense() @ U), matrix_epoch=0)
    A = A0 if epoch == 0 else A1
    c = Counters()
    if method == "rfom":
        cached, want = state.AU, A.to_dense() @ U
        basis = AugmentedBasis(A, state, epoch, c)
    else:
        cached, want = state.SAU, Sd @ (A.to_dense() @ U)
        basis = SketchedBasis(A, S, state, epoch, c, inexact=inexact)
    reused = epoch == 0 or inexact
    extra = 0 if reused else k
    assert (c.matvecs, c.sketches) == (extra, extra if method == "srfom" else 0)
    if reused:
        assert basis._XU is cached
    else:
        assert np.linalg.norm(basis._XU - want) <= 1e-12 * np.linalg.norm(want)
    if method == "rfom":
        assert (state.AU is None) == (epoch != 0)


def test_stale_au_goes_before_the_new_one_is_formed(monkeypatch):
    # the stale N x k A U and the new one are never held together: the
    # traced peak up to the first matvec stays below one more such array
    rng = np.random.default_rng(41)
    A = gen_neumann2d(64)
    N, k = A.nrows, 8
    U = np.linalg.qr(_random_complex(rng, (N, k)))[0]
    peaks = []
    matvec = krec.approximants.csr_matvec

    def first_peak(*args, **kwargs):
        if not peaks:
            peaks.append(tracemalloc.get_traced_memory()[1])
        return matvec(*args, **kwargs)

    monkeypatch.setattr(krec.approximants, "csr_matvec", first_peak)
    tracemalloc.start()
    try:
        state = RecycleState(U=U, AU=_random_complex(rng, (N, k)), matrix_epoch=0)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        AugmentedBasis(A, state, 1)
    finally:
        tracemalloc.stop()
    assert peaks[0] - start < N * k * 16 // 2


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(6, 70).flatmap(lambda N: st.tuples(
    st.just(N), st.integers(0, 3), st.integers(1, min(N - 4, 10)),
    st.booleans(), st.integers(0, 2**32 - 1))))
def test_sketched_breakdown_equals_fom(case):
    # A = P diag(B_1, B_2, B_3) P^T, b in the range of B_1 (order r) and U
    # spanning that of B_2: the build breaks down at r, so there is no S v_next
    # and no h term, [U, V_r] is invariant and sFOM and srFOM-stab are exact,
    # as FOM is
    N, k, r, stabilized, seed = case
    k = min(k, N - r - 1)
    rng = np.random.default_rng(seed)
    dense = np.zeros((N, N), dtype=np.complex128)
    for lo, hi in ((0, r), (r, r + k), (r + k, N)):
        dense[lo:hi, lo:hi] = _random_complex(rng, (hi - lo, hi - lo))
    b = np.zeros(N, dtype=np.complex128)
    b[:r] = _random_complex(rng, r)
    U = np.zeros((N, k), dtype=np.complex128)
    U[r:r + k] = np.linalg.qr(_random_complex(rng, (k, k)))[0]
    perm = rng.permutation(N)
    dense, b, U = dense[np.ix_(perm, perm)], b[perm], U[perm]
    A = CSRMatrix.from_dense(dense)
    S = sketch_new(N, 1 << (N - 1).bit_length(), seed=2)
    Sd = sketch_dense(S)
    state = RecycleState(U=U, SU=Sd @ U, SAU=Sd @ dense @ U, matrix_epoch=0)
    basis = SketchedBasis(A, S, state, 0, svdtol=1e-12 if stabilized else None)
    # full Arnoldi, whose breakdown at r the single MGS pass of truncated
    # Arnoldi can miss by rounding; the sketched basis takes either
    fac = arnoldi_build(A, b, max(r - 1, 1), mode="full")
    basis.extend(fac)
    fac = arnoldi_extend(fac, A, r + 3)
    basis.extend(fac)
    assert fac.breakdown == r and basis.s_next is None
    got = basis.approximant(b, INV).full_vector()
    want = fom_closed(fac.V, fac.square_h(), b, INV).full_vector()
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_sketched_images_form_no_n_by_k_temporary():
    # U_new = V_m Y_V + U Y_U takes U Y_U by blocks of 4096 rows: the traced
    # peak of images(Y) stays below its outputs plus one such block
    rng = np.random.default_rng(42)
    A = gen_neumann2d(141)
    N, k, m = A.nrows, 8, 20
    S = sketch_new(N, 128, seed=4)
    U = np.linalg.qr(_random_complex(rng, (N, k)))[0]
    SU = _isometric_sketch_columns(S, U)
    state = RecycleState(U=U, SU=SU, SAU=_random_complex(rng, (128, k)), matrix_epoch=0)
    basis = SketchedBasis(A, S, state, 0)
    fac = arnoldi_build(A, _random_complex(rng, N), m, mode=MODE_TRUNCATED)
    basis.extend(fac)
    Y = _random_complex(rng, (k + m, k))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        V, SV, SAV = basis.images(Y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < V.nbytes + SV.nbytes + SAV.nbytes + 4096 * k * 16
    want = np.column_stack([U, fac.V]) @ Y
    assert np.linalg.norm(V - want) <= 1e-13 * np.linalg.norm(want)
    np.testing.assert_allclose(SV, np.column_stack([SU, _isometric_sketch_columns(S, fac.V)]) @ Y,
                               atol=1e-12)


def test_augmented_basis_holds_u_once():
    # Q holds U after construction and the basis keeps no other reference:
    # U dies with the state; start_state forms it again as Q R, so that a
    # U that is not orthonormal still matches its A U
    rng = np.random.default_rng(43)
    A = _random_hpd(rng, 60)
    state = RecycleState(U=_random_complex(rng, (60, 4)), matrix_epoch=0)
    U, alive = state.U.copy(), weakref.ref(state.U)
    basis = AugmentedBasis(A, state, 0)
    del state
    assert alive() is None
    back = basis.start_state()
    assert back.matrix_epoch == 0 and back.AU is basis._XU
    assert np.linalg.norm(back.U - U) <= 1e-14 * np.linalg.norm(U)
    want = A.to_dense() @ U
    assert np.linalg.norm(A.to_dense() @ back.U - want) <= 1e-13 * np.linalg.norm(want)
