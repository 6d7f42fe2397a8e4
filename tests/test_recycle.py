import warnings

import numpy as np
import pytest

from krec import (
    INV,
    INVSQRT,
    MODE_TRUNCATED,
    AugmentedBasis,
    Counters,
    CSRMatrix,
    RankDeficiencyError,
    RecycleState,
    SketchedBasis,
    arnoldi_build,
    arnoldi_extend,
    csr_matvec,
    eig_dense,
    propagate_AU,
    qr_econ,
    sketch_apply,
    sketch_new,
    srfom_step,
    srr_matrix,
    update_inexact,
    update_orthonormal,
    update_sketched,
    update_sketched_stab,
)
from krec.errors import EpochMismatchError
from krec.matrices import perturb_sparsity_gaussian


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_hpd(rng, n, shift=None):
    M = _random_complex(rng, (n, n))
    return CSRMatrix.from_dense(M @ M.conj().T + (shift or n) * np.eye(n))


def _subspace_angle(U, V):
    QU, _ = np.linalg.qr(U)
    QV, _ = np.linalg.qr(V)
    # sine of the largest principal angle, accurate near zero
    return np.linalg.norm(QV - QU @ (QU.conj().T @ QV), 2)


class TestUpdateOrthonormal:
    def test_full_basis_targets_smallest(self):
        A = CSRMatrix.from_dense(np.diag(np.arange(1.0, 11.0)))
        b = np.ones(10, dtype=np.complex128) / np.sqrt(10)
        fac = arnoldi_build(A, b, 10)
        G = fac.V.conj().T @ A.to_dense() @ fac.V
        U, ritz, _ = update_orthonormal(fac.V, G, 2)
        want = np.eye(10)[:, :2]  # eigenvectors of eigenvalues {1, 2}
        assert _subspace_angle(U, want) <= 1e-10
        np.testing.assert_allclose(sorted(ritz.real), [1.0, 2.0], atol=1e-10)

    def test_k_zero(self):
        U, ritz, _ = update_orthonormal(np.eye(5, dtype=np.complex128), np.eye(5), 0)
        assert U.shape == (5, 0) and ritz.shape == (0,)

    def test_hermitian_ritz_values(self):
        rng = np.random.default_rng(0)
        lam = np.concatenate([[0.01, 0.05], np.linspace(9.9, 10.0, 8)])
        Q, _ = np.linalg.qr(_random_complex(rng, (10, 10)))
        dense = Q @ np.diag(lam) @ Q.conj().T
        A = CSRMatrix.from_dense(dense)
        b = _random_complex(rng, 10)
        fac = arnoldi_build(A, b, 9)
        G = fac.V.conj().T @ dense @ fac.V
        _, ritz, _ = update_orthonormal(fac.V, G, 2)
        np.testing.assert_allclose(np.sort(ritz.real), np.sort(lam[:2]), atol=1e-6)


class TestSrrMatrix:
    def test_isometric_collapse(self):
        rng = np.random.default_rng(1)
        A = _random_hpd(rng, 64)
        b = _random_complex(rng, 64)
        fac = arnoldi_build(A, b, 10)
        S = sketch_new(64, 64, seed=0)
        SV = np.column_stack([sketch_apply(S, fac.V[:, j]) for j in range(10)])
        AV = A.to_dense() @ fac.V
        SAV = np.column_stack([sketch_apply(S, AV[:, j]) for j in range(10)])
        M = srr_matrix(qr_econ(SV), SAV)
        want = fac.V.conj().T @ AV
        assert np.linalg.norm(M - want) <= 1e-11 * np.linalg.norm(want)

    def test_identity_action(self):
        rng = np.random.default_rng(2)
        SV = _random_complex(rng, (30, 6))
        M = srr_matrix(qr_econ(SV), SV)
        np.testing.assert_allclose(M, np.eye(6), atol=1e-12)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(3)
        SV = _random_complex(rng, (40, 8))
        SAV = _random_complex(rng, (40, 8))
        M = srr_matrix(qr_econ(SV), SAV)
        best = np.linalg.norm(SAV - SV @ M)
        for _ in range(100):
            other = _random_complex(rng, (8, 8))
            assert best <= np.linalg.norm(SAV - SV @ other) + 1e-12

    def test_singular_r_raises(self):
        rng = np.random.default_rng(4)
        SV = _random_complex(rng, (20, 4))
        SV[:, 3] = SV[:, 2]
        with pytest.raises(RankDeficiencyError):
            srr_matrix(qr_econ(SV), SV)


def _sketched_bundle(rng, A, b, S, m, epoch=0):
    approx, bundle = srfom_step(A, b, S, None, m, INVSQRT, matrix_epoch=epoch)
    return bundle


class TestUpdateSketched:
    def test_cached_reuse_sketch_count(self):
        rng = np.random.default_rng(5)
        A = _random_hpd(rng, 100)
        S = sketch_new(100, 60, seed=1)
        b1 = _random_complex(rng, 100)
        bundle = _sketched_bundle(rng, A, b1, S, 15)
        state = update_sketched(bundle, 5)
        b2 = _random_complex(rng, 100)
        c = Counters()
        srfom_step(A, b2, S, state, 15, INVSQRT, counters=c, matrix_epoch=0)
        assert c.snapshot()[2] == 16  # m+1 sketches, cached SU/SAU reused

    def test_full_retention_spans(self):
        rng = np.random.default_rng(6)
        A = _random_hpd(rng, 60)
        S = sketch_new(60, 50, seed=2)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 60), S, 8)
        state = update_sketched(bundle, 8)
        assert _subspace_angle(state.U, bundle.Vhat) <= 1e-8

    def test_ritz_convergence_trend(self):
        rng = np.random.default_rng(7)
        lam = np.concatenate([np.linspace(0.1, 0.5, 4), np.linspace(2, 8, 56)])
        Q, _ = np.linalg.qr(_random_complex(rng, (60, 60)))
        A = CSRMatrix.from_dense(Q @ np.diag(lam) @ Q.conj().T)
        S = sketch_new(60, 50, seed=3)
        state = None
        dists = []
        for i in range(5):
            b = _random_complex(rng, 60)
            _, bundle = srfom_step(A, b, S, state, 20, INVSQRT, matrix_epoch=0)
            state = update_sketched(bundle, 4)
            got = np.sort(np.abs(state.ritz_values))
            dists.append(np.linalg.norm(got - lam[:4]))
        assert dists[-1] <= dists[0] + 1e-8

    def test_cache_coherence(self):
        rng = np.random.default_rng(8)
        A = _random_hpd(rng, 80)
        S = sketch_new(80, 60, seed=4)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 80), S, 12)
        state = update_sketched(bundle, 4)
        SU = np.column_stack([sketch_apply(S, state.U[:, j]) for j in range(4)])
        assert np.linalg.norm(SU - state.SU) <= 1e-10 * np.linalg.norm(SU)
        AU = A.to_dense() @ state.U
        SAU = np.column_stack([sketch_apply(S, AU[:, j]) for j in range(4)])
        assert np.linalg.norm(SAU - state.SAU) <= 1e-10 * np.linalg.norm(SAU)


class TestUpdateSketchedStab:
    def test_agrees_with_unstabilized(self):
        rng = np.random.default_rng(9)
        A = _random_hpd(rng, 80)
        S = sketch_new(80, 60, seed=5)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 80), S, 12)
        a = update_sketched(bundle, 4)
        b = update_sketched_stab(bundle.Vhat, bundle.SVhat, bundle.SAVhat, 4)
        assert _subspace_angle(a.U, b.U) <= 1e-8

    def test_duplicated_column(self):
        rng = np.random.default_rng(10)
        A = _random_hpd(rng, 60)
        S = sketch_new(60, 40, seed=6)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 60), S, 8)
        Vhat = np.column_stack([bundle.Vhat, bundle.Vhat[:, 0]])
        SVhat = np.column_stack([bundle.SVhat, bundle.SVhat[:, 0]])
        SAVhat = np.column_stack([bundle.SAVhat, bundle.SAVhat[:, 0]])
        state = update_sketched_stab(Vhat, SVhat, SAVhat, 3)
        assert np.all(np.isfinite(state.U))
        sv = np.linalg.svd(state.U, compute_uv=False)
        assert sv[-1] >= 1e-10 * sv[0]

    def test_svdtol_zero_matches(self):
        rng = np.random.default_rng(11)
        A = _random_hpd(rng, 60)
        S = sketch_new(60, 40, seed=7)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 60), S, 8)
        a = update_sketched(bundle, 3)
        b = update_sketched_stab(bundle.Vhat, bundle.SVhat, bundle.SAVhat, 3,
                                 svdtol=0.0)
        assert _subspace_angle(a.U, b.U) <= 1e-8

    def test_k_capped_at_truncated_rank(self):
        # S Vhat has rank 2: U takes both Ritz vectors of the order-2 G, and
        # the k asked for stays on record
        rng = np.random.default_rng(12)
        base = _random_complex(rng, (20, 2))
        SVhat = np.column_stack([base, base[:, 0], base[:, 1]])
        Vhat = _random_complex(rng, (40, 4))
        SAVhat = _random_complex(rng, (20, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = update_sketched_stab(Vhat, SVhat, SAVhat, 3)
        assert state.k == 2 and state.k_target == 3


class TestPropagateAU:
    def test_block_selection(self):
        rng = np.random.default_rng(13)
        A = _random_hpd(rng, 50)
        b = _random_complex(rng, 50)
        fac = arnoldi_build(A, b, 8)
        prev_AU = A.to_dense() @ _random_complex(rng, (50, 3))
        X_kry = np.zeros((8, 3), dtype=np.complex128)
        X_aug = np.eye(3, dtype=np.complex128)[:, [2, 0, 1]]
        out = propagate_AU(prev_AU, fac, X_kry, X_aug)
        np.testing.assert_allclose(out, prev_AU @ X_aug, atol=1e-14)

    def test_krylov_selection_matches_matvec(self):
        rng = np.random.default_rng(14)
        A = _random_hpd(rng, 50)
        b = _random_complex(rng, 50)
        fac = arnoldi_build(A, b, 8)
        X_kry = _random_complex(rng, (8, 2))
        out = propagate_AU(None, fac, X_kry, np.zeros((0, 2)))
        want = A.to_dense() @ (fac.V @ X_kry)
        assert np.linalg.norm(out - want) <= 1e-11 * np.linalg.norm(want)

    def test_no_matvecs_counted(self):
        rng = np.random.default_rng(15)
        A = _random_hpd(rng, 40)
        c = Counters()
        b = _random_complex(rng, 40)
        fac = arnoldi_build(A, b, 6)
        before = c.snapshot()
        U = _random_complex(rng, (40, 2))
        prev_AU = np.column_stack([csr_matvec(A, U[:, j]) for j in range(2)])
        propagate_AU(prev_AU, fac, _random_complex(rng, (6, 2)),
                     _random_complex(rng, (2, 2)))
        assert c.snapshot() == before

    def test_epoch_mismatch(self):
        rng = np.random.default_rng(16)
        A = _random_hpd(rng, 30)
        fac = arnoldi_build(A, _random_complex(rng, 30), 5)
        with pytest.raises(EpochMismatchError):
            propagate_AU(None, fac, np.zeros((5, 2)), np.ones((1, 2)))


class TestUpdateInexact:
    def test_unchanged_matrix_identical(self):
        rng = np.random.default_rng(17)
        A = _random_hpd(rng, 60)
        S = sketch_new(60, 40, seed=8)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 60), S, 10)
        a = update_sketched(bundle, 3)
        b = update_inexact(bundle, 3)
        np.testing.assert_array_equal(a.U, b.U)

    def test_small_perturbation_ritz_close(self):
        rng = np.random.default_rng(18)
        A = _random_hpd(rng, 100)
        S = sketch_new(100, 70, seed=9)
        b1 = _random_complex(rng, 100)
        bundle = _sketched_bundle(rng, A, b1, S, 15)
        state = update_sketched(bundle, 5)
        A2 = perturb_sparsity_gaussian(A, 1e-8, seed=0)
        b2 = _random_complex(rng, 100)
        # exact path refreshes SAU; inexact path reuses the stale one
        _, bexact = srfom_step(A2, b2, S, state, 15, INVSQRT, matrix_epoch=1)
        _, binex = srfom_step(A2, b2, S, state, 15, INVSQRT, matrix_epoch=1,
                              inexact=True)
        exact_state = update_sketched(bexact, 5)
        inex_state = update_inexact(binex, 5)
        d = np.abs(np.sort_complex(exact_state.ritz_values)
                   - np.sort_complex(inex_state.ritz_values))
        assert np.max(d) <= 1e-4

    def test_large_perturbation_still_finite(self):
        rng = np.random.default_rng(19)
        A = _random_hpd(rng, 60)
        S = sketch_new(60, 40, seed=10)
        bundle = _sketched_bundle(rng, A, _random_complex(rng, 60), S, 10)
        state = update_sketched(bundle, 3)
        A2 = perturb_sparsity_gaussian(A, 1.0, seed=1)
        _, b2 = srfom_step(A2, _random_complex(rng, 60), S, state, 10, INV,
                           matrix_epoch=1, inexact=True)
        out = update_inexact(b2, 3)
        assert np.all(np.isfinite(out.U))


def test_recycle_state_empty():
    st = RecycleState.empty(50, k_target=7)
    assert st.k == 0 and st.k_target == 7 and st.U.shape == (50, 0)


def test_update_paths_full_rank_invariant():
    rng = np.random.default_rng(20)
    A = _random_hpd(rng, 80)
    S = sketch_new(80, 60, seed=11)
    bundle = _sketched_bundle(rng, A, _random_complex(rng, 80), S, 12)
    for state in (update_sketched(bundle, 5),
                  update_sketched_stab(bundle.Vhat, bundle.SVhat, bundle.SAVhat, 5)):
        sv = np.linalg.svd(state.U, compute_uv=False)
        assert sv[-1] >= 1e-10 * sv[0]
        norms = np.linalg.norm(state.U, axis=0)
        assert np.all((norms >= 1e-8) & (norms <= 1e8))


@pytest.mark.parametrize("method", ["rfom", "srfom", "srfom_stab"])
def test_ritz_values_are_smallest_eigenvalues_of_approximant_G(method):
    # recycle(k) reads the projected matrix of the last approximant; it
    # forms no second one
    rng = np.random.default_rng(21)
    A = _random_hpd(rng, 90)
    S = sketch_new(90, 70, seed=12)
    state, k = RecycleState.empty(90, k_target=4), 4
    for _ in range(2):
        b = _random_complex(rng, 90)
        if method == "rfom":
            basis = AugmentedBasis(A, state.U, state.AU, matrix_epoch=0)
            fac = arnoldi_build(A, b, 10)
        else:
            basis = SketchedBasis(A, S, state, 0, stabilized=method == "srfom_stab",
                                  svdtol=1e-12)
            fac = arnoldi_build(A, b, 10, mode=MODE_TRUNCATED)
        basis.extend(fac)
        basis.extend(arnoldi_extend(fac, A, 20))
        basis.approximant(b, INVSQRT)
        G = basis.G if method == "rfom" else basis.whitening.G
        state = basis.recycle(k)
        lam = eig_dense(G)[0]
        want = np.sort_complex(lam[np.argsort(np.abs(lam), kind="stable")[:k]])
        got = np.sort_complex(state.ritz_values)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(lam))
