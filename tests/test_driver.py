import csv
import dataclasses
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

import krec.approximants
import krec.driver
import krec.linalg
import krec.recycle
from krec import (
    EXP,
    INV,
    INVSQRT,
    AdaptiveM,
    ConfigError,
    Counters,
    DenseOracle,
    DomainError,
    EigConvergenceError,
    GeneratorSource,
    MODE_TRUNCATED,
    MatrixMarketSource,
    RecycleState,
    SequenceSpec,
    arnoldi_build,
    arnoldi_extend,
    build_spec,
    emit_csv,
    exp_scaled,
    load_matrix,
    oracle_exact,
    parse_matrix_source,
    perturb_sparsity_gaussian,
    read_config,
    run_sequence,
    sketch_new,
    srfom_step,
    update_sketched,
)
from krec.config import CSV_HEADER, summarize
from krec.matrices import gen_hpd
from krec.mmio import write_matrix_market
from krec.oracle import _FactorCache
from krec.sparse import CSRMatrix


def _spec(**kw):
    base = dict(
        function=INVSQRT, method="fom", num_problems=2, m=20,
        matrix_source=GeneratorSource("hpd", {"N": 120, "seed": 1}),
        seed=3,
    )
    base.update(kw)
    return SequenceSpec(**base)


def _singular_inv_spec():
    # inv of a singular matrix: m = N makes the projected matrix share the
    # singular spectrum of A, so every problem fails
    return SequenceSpec(
        function=INV, method="fom", num_problems=2, m=9,
        matrix_source=GeneratorSource("neumann2d", {"n": 3}),
        seed=0)


class TestOracle:
    def test_diag_invsqrt(self):
        A = CSRMatrix.from_dense(np.diag([1.0, 4.0]))
        out = oracle_exact(A, np.ones(2), INVSQRT)
        np.testing.assert_allclose(out, [1.0, 0.5], atol=1e-14)

    def test_inv_dual_path(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        A = CSRMatrix.from_dense(M + 50 * np.eye(50))
        b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        lu_path = oracle_exact(A, b, INV)
        want = np.linalg.solve(A.to_dense(), b)
        assert np.linalg.norm(lu_path - want) / np.linalg.norm(want) <= 1e-12

    def test_exp_nilpotent_taylor(self):
        N = np.zeros((3, 3), dtype=np.complex128)
        N[0, 1] = N[1, 2] = 1.0
        A = CSRMatrix.from_dense(N + 1e-30 * np.eye(3)).add_scaled_identity(0)
        b = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        dense = A.to_dense()
        taylor = (np.eye(3) + dense + dense @ dense / 2.0) @ b
        np.testing.assert_allclose(oracle_exact(A, b, EXP), taylor, atol=1e-12)

    def test_over_cap_returns_none(self):
        oracle = DenseOracle(INV, cap=5)
        oracle.set_matrix(CSRMatrix.identity(10), epoch=0)
        assert oracle.solve(np.ones(10)) is None

    def test_factorization_shared_by_content(self, monkeypatch):
        rng = np.random.default_rng(123)
        M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)) + 20 * np.eye(40)
        b = rng.standard_normal(40) + 0j
        factors = []
        factor = DenseOracle._factor
        monkeypatch.setattr(DenseOracle, "_factor",
                            lambda self, X: factors.append(1) or factor(self, X))
        first = oracle_exact(CSRMatrix.from_dense(M), b, INVSQRT)
        calls = len(factors)
        # an equal matrix built anew is found by content, and yields the same bits
        again = oracle_exact(CSRMatrix.from_dense(M.copy()), b, INVSQRT)
        assert calls <= 1 and len(factors) == calls
        np.testing.assert_array_equal(again, first)
        # another function of the same matrix is another entry
        oracle_exact(CSRMatrix.from_dense(M), b, EXP)
        assert len(factors) == calls + 1

    def test_factor_cache_evicts_least_recent_by_bytes(self, monkeypatch):
        monkeypatch.setattr(_FactorCache, "MAX_BYTES", 2000)
        cache = _FactorCache()
        state = ("lu", (np.zeros(50, dtype=np.complex128), np.zeros(10, dtype=np.int32)))
        for key in "abc":  # 840 bytes each: two fit
            cache.put(key, state)
        assert cache.get("a") is None and cache.get("b") is state
        cache.put("d", state)  # "b" was used last, so "c" goes
        assert cache.get("c") is None and cache.get("b") is state
        cache.put("e", ("expm", (np.zeros(200, dtype=np.complex128),)))  # 3200 bytes: kept out
        assert cache.get("e") is None and cache.get("d") is state


class TestRunSequence:
    def test_determinism(self):
        r1 = run_sequence(_spec(method="srfom", k=5, s=60, perturbation=1e-8,
                                num_problems=4))
        r2 = run_sequence(_spec(method="srfom", k=5, s=60, perturbation=1e-8,
                                num_problems=4))
        for a, b in zip(r1, r2):
            assert (a.matvecs, a.inner_products, a.sketches) == \
                   (b.matvecs, b.inner_products, b.sketches)
            assert a.relerr == b.relerr
            assert a.m_used == b.m_used

    def test_first_problem_fom_equals_rfom(self):
        f = run_sequence(_spec(method="fom", num_problems=1))
        r = run_sequence(_spec(method="rfom", k=5, num_problems=1))
        assert abs(f[0].relerr - r[0].relerr) <= 1e-12

    def test_counter_conservation_fom(self):
        m, p = 20, 3
        recs = run_sequence(_spec(num_problems=p, m=m))
        assert sum(r.matvecs for r in recs) == p * (m + 1)
        for r in recs:
            assert r.inner_products == m * m + 3 * m

    def test_counter_conservation_rfom_cached(self):
        m, k, p = 20, 5, 4
        recs = run_sequence(_spec(method="rfom", k=k, num_problems=p, m=m))
        # A never changes: AU comes from the cached propagation, zero extras
        for r in recs:
            assert r.matvecs == m + 1
        q0 = m * (m + 1) // 2
        qk = (m + k) * (m + k + 1) // 2
        assert recs[0].inner_products == m * m + 3 * m + q0
        for r in recs[1:]:
            assert r.inner_products == m * m + 3 * m + qk

    def test_counter_conservation_srfom_perturbed(self):
        m, k, p, t = 20, 5, 4, 2
        recs = run_sequence(_spec(method="srfom", k=k, s=80, num_problems=p,
                                  m=m, perturbation=1e-8))
        assert recs[0].matvecs == m + 1 and recs[0].sketches == m + 1
        for r in recs[1:]:
            assert r.matvecs == m + 1 + k
            assert r.sketches == m + 1 + k
        for r in recs:
            assert r.inner_products == sum(min(j + 1, t) + 1 for j in range(m))

    def test_counter_laws_adaptive_rfom(self):
        # A U is formed once per problem: k matvecs on a new matrix epoch,
        # none with the cached A U; the augmented QR is charged once per column
        k, d = 5, 5
        for perturbation in (0.0, 1e-8):
            recs = run_sequence(_spec(method="rfom", k=k, num_problems=3,
                                      perturbation=perturbation,
                                      m=AdaptiveM(reltol=1e-8, d=d, m_max=60)))
            for i, r in enumerate(recs):
                assert r.converged and r.m_used % d == 0
                kk = k if i > 0 else 0
                extra = k if i > 0 and perturbation > 0 else 0
                assert r.matvecs == r.m_used + 1 + extra
                m, n = r.m_used, kk + r.m_used
                assert r.inner_products == m * m + 3 * m + n * (n + 1) // 2

    def test_chained_rfom_solves_every_problem(self):
        # b_(i+1) lies in span[U, V_m] of problem i, so [U, V_m] is
        # collectively near-dependent while every R diagonal passes; the
        # condition estimate of R switches G to the truncated SVD of R
        spec = SequenceSpec(
            function=exp_scaled(0.01), method="rfom", k=20, num_problems=3,
            matrix_source=GeneratorSource("advdiff2d", {"n": 32}), seed=0,
            rhs_rule="chain", t=2,
            m=AdaptiveM(reltol=1e-9, d=10, m_max=300))
        recs = run_sequence(spec)
        assert [r.error for r in recs] == [None] * 3
        assert all(r.relerr <= 1e-8 for r in recs)
        assert any(r.ell_used is not None for r in recs)
        # Q and R only grow, so the padded stop test is exact: rfom stops
        # no later than fom
        fom = run_sequence(dataclasses.replace(spec, method="fom"))
        assert all(r.m_used <= f.m_used for r, f in zip(recs[1:], fom[1:]))
        # each problem is charged exactly its law: full Arnoldi (m^2 + 3m)
        # and the QR of [U, V_m] once
        k = 0
        for r in recs:
            m, n = r.m_used, k + r.m_used
            law = m * m + 3 * m + n * (n + 1) // 2
            assert r.inner_products == law, (r.problem_index, r.inner_products, law)
            k = min(20, n)

    @pytest.mark.parametrize("method", ["fom", "sfom", "rfom", "srfom_stab"])
    def test_overflow_of_f_fails_on_record(self, method):
        # exp(800) overflows in f(G) c for every basis: each problem fails on
        # record, and the chain restarts instead of taking a NaN as its b
        extra = {"s": 60} if method in ("sfom", "srfom_stab") else {}
        if method in ("rfom", "srfom_stab"):
            extra["k"] = 3
        with np.errstate(all="ignore"):
            recs = run_sequence(SequenceSpec(
                function=exp_scaled(100.0), method=method, num_problems=2, m=10,
                matrix_source=GeneratorSource("neumann2d", {"n": 10}),
                rhs_rule="chain", **extra))
        assert len(recs) == 2
        for r in recs:
            assert not r.converged and r.error.startswith("DomainError")
            assert r.relerr is None
            assert r.m_used == 10  # the m reached before f(G) c overflowed

    def test_adaptive_m_multiple_of_d(self):
        spec = _spec(m=AdaptiveM(reltol=1e-6, d=7, m_max=70), stop_rule="oracle")
        recs = run_sequence(spec)
        for r in recs:
            assert r.m_used % 7 == 0 or r.m_used == 70
            assert r.converged
            assert r.relerr <= 1e-6

    def test_adaptive_estimator_stopping(self):
        spec = _spec(method="srfom", k=5, s=100,
                     m=AdaptiveM(reltol=1e-6, d=10, m_max=90))
        recs = run_sequence(spec)
        for r in recs:
            assert r.converged
            assert r.estimate_final is not None

    def test_rhs_chaining(self):
        spec = _spec(function=exp_scaled(-0.1), method="fom", num_problems=3,
                     m=25, rhs_rule="chain",
                     matrix_source=GeneratorSource("hpd", {"N": 80, "seed": 2}))
        recs = run_sequence(spec)
        assert all(r.relerr is not None and r.relerr < 1e-8 for r in recs)

    def test_sequence_runs_once(self, monkeypatch):
        # the records of the one pass are returned as they are
        runs = []
        real = krec.driver._run_once
        monkeypatch.setattr(krec.driver, "_run_once",
                            lambda spec, A0: runs.append(1) or real(spec, A0))
        recs = run_sequence(_spec())
        assert len(runs) == 1 and len(recs) == 2

    def test_tiny_scale_is_in_the_domain(self, tmp_path):
        # the domain rule is relative: A and 1e-13 A are both admissible for inv
        path = tmp_path / "tiny.mtx"
        A = gen_hpd(100, seed=1)
        write_matrix_market(CSRMatrix(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                                      1e-13 * A.values), str(path))
        recs = run_sequence(_spec(function=INV, matrix_source=MatrixMarketSource(str(path))))
        assert [r.error for r in recs] == [None, None]
        assert all(r.relerr < 1e-5 for r in recs)

    def test_failure_recorded_and_sequence_continues(self):
        # the approximant path raises per problem but the sequence keeps going
        recs = run_sequence(_singular_inv_spec())
        assert len(recs) == 2
        assert all(r.error is not None and not r.converged for r in recs)


_GOLDEN_SPEC = dict(
    function=INVSQRT, num_problems=4, perturbation=1e-8, seed=1, t=4,
    matrix_source=GeneratorSource("twocluster", {"N": 64, "nsmall": 6, "seed": 2}),
)
# per-problem (m_used, matvecs, inner_products, sketches) of each method on
# the sequence above with AdaptiveM(reltol=1e-6, d=5, m_max=60)
_GOLDEN = [
    ("fom", {}, [(50, 51, 2650, 0)] * 4),
    ("sfom", {"s": 64}, [(50, 51, 244, 51)] * 4),
    ("rfom", {"k": 4}, [(50, 51, 3925, 0)] + [(30, 35, 1585, 0)] * 3),
    ("srfom", {"k": 4, "s": 64}, [(50, 51, 244, 51)] + [(30, 35, 144, 35)] * 3),
    ("srfom_stab", {"k": 4, "s": 64}, [(50, 51, 244, 51)] + [(30, 35, 144, 35)] * 3),
    ("srfom", {"k": 4, "s": 64, "inexact_srr": True},
     [(50, 51, 244, 51)] + [(30, 31, 144, 31)] * 3),
]


class TestGoldenCounters:
    def test_adaptive_perturbed_sequence(self):
        for method, extra, want in _GOLDEN:
            recs = run_sequence(SequenceSpec(
                method=method, m=AdaptiveM(reltol=1e-6, d=5, m_max=60),
                **_GOLDEN_SPEC, **extra))
            got = [(r.m_used, r.matvecs, r.inner_products, r.sketches) for r in recs]
            assert got == want, (method, extra)
            assert all(r.converged for r in recs)

    def test_srfom_step_chain_equals_driver(self):
        # srfom_step then update_sketched, problem after problem, is the
        # driver's fixed-m srfom: same counters, same relative errors
        m, k = 20, 4
        spec = SequenceSpec(**dict(_GOLDEN_SPEC, num_problems=2), method="srfom",
                            m=m, k=k, s=64)
        recs = run_sequence(spec)
        A = load_matrix(spec.matrix_source)
        N = A.nrows
        rng_rhs = np.random.default_rng([spec.seed, 1])
        pert_seeds = np.random.default_rng([spec.seed, 2]).integers(0, 2**62, size=2)
        S = sketch_new(N, spec.s, spec.seed)
        state = None
        for i, rec in enumerate(recs):
            if i > 0:
                A = perturb_sparsity_gaussian(A, spec.perturbation, int(pert_seeds[i]))
            b = (rng_rhs.standard_normal(N) + 1j * rng_rhs.standard_normal(N)) / np.sqrt(2.0)
            c = Counters()
            approx, basis = srfom_step(A, b, S, state, m, spec.function, t=spec.t,
                                       counters=c, matrix_epoch=i)
            state = update_sketched(basis, k)
            assert c.snapshot() == (rec.matvecs, rec.inner_products, rec.sketches)
            exact = oracle_exact(A, b, spec.function)
            relerr = np.linalg.norm(approx.full_vector() - exact) / np.linalg.norm(exact)
            assert relerr == rec.relerr


class TestSketchedRecyclingUpdate:
    def test_clustered_ritz_values_do_not_skip_updates(self):
        # twenty eigenvalues near the origin: the Ritz vectors of
        # R^{-1} Q* S A Vhat look defective through cond(R), those of the
        # whitened matrix do not, so every update is taken and U pays off
        common = dict(
            function=INVSQRT, num_problems=5, m=AdaptiveM(reltol=1e-8, d=10, m_max=220),
            matrix_source=GeneratorSource("twocluster", {"N": 200, "nsmall": 20, "seed": 11}),
            k=20, s=256, t=8, seed=5, perturbation=1e-8)
        for method in ("srfom", "srfom_stab"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                recs = run_sequence(SequenceSpec(method=method, **common))
            assert not [w for w in caught if "recycling update skipped" in str(w.message)]
            assert all(r.converged and r.relerr <= 10 * 1e-8 for r in recs)
            # a stale U needs m = 110 at every problem: 555 matvecs
            assert sum(r.matvecs for r in recs) < 500, method


class TestRecyclingUpdate:
    _COMMON = dict(function=INV, k=6, s=120, t=4, seed=2,
                   num_problems=4, matrix_source=GeneratorSource("hpd", {"N": 90, "seed": 1}))

    def test_first_problem_shorter_than_k(self):
        # the first problem stops at m = 10 < k: U takes every Ritz vector of
        # its G, and state.k is the k used, not the k asked for
        A, k = load_matrix(self._COMMON["matrix_source"]), 15
        N = A.nrows
        b = np.random.default_rng(0).standard_normal(N) + 0j
        for method in ("rfom", "srfom", "srfom_stab"):
            spec = SequenceSpec(**dict(self._COMMON, k=k), method=method,
                                m=AdaptiveM(reltol=0.99, d=5, m_max=40))
            S = sketch_new(N, spec.s, spec.seed)
            counters = Counters()
            basis = krec.driver._new_basis(spec, A, S, RecycleState.empty(N), 0, counters)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                krec.driver._solve(spec, A, b, basis, counters, DenseOracle(INV))
                state = basis.recycle(k)
            m_used = basis.fac.m
            order = basis.whitening.G.shape[0]
            assert m_used == 10 and order <= m_used, method
            assert order == m_used or method == "srfom_stab", method
            assert state.k == order < k, method
            assert state.ritz_values.shape == (order,)

    def test_no_eigenvectors(self, monkeypatch):
        # the update is a reordered Schur form: with every eig patched to
        # raise, each problem of an inv sequence but the last still updates U
        def no_eig(*args, **kwargs):
            raise AssertionError("eigenvectors formed")

        for target, name in ((np.linalg, "eig"), (scipy.linalg, "eig"),
                             (krec.linalg, "eig_dense")):
            monkeypatch.setattr(target, name, no_eig)
        updates = []
        real = krec.recycle.partial_schur_closest_to_origin

        def counted(M, k):
            updates.append(k)
            return real(M, k)

        monkeypatch.setattr(krec.recycle, "partial_schur_closest_to_origin", counted)
        for method in ("rfom", "srfom", "srfom_stab"):
            updates.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                recs = run_sequence(SequenceSpec(
                    **self._COMMON, method=method, perturbation=1e-8,
                    m=AdaptiveM(reltol=1e-8, d=10, m_max=80)))
            assert updates == [6] * 3, method
            assert all(r.converged and r.relerr <= 1e-6 for r in recs), method


@pytest.mark.parametrize("method", ["rfom", "srfom"])
def test_no_recycling_update_after_the_last_problem(monkeypatch, method):
    # no problem reads the state the last one would leave: p problems take
    # p - 1 updates
    cls = (krec.approximants.SketchedBasis if method == "srfom"
           else krec.approximants.AugmentedBasis)
    calls, real = [], cls.recycle
    monkeypatch.setattr(cls, "recycle",
                        lambda basis, k, epoch: calls.append(k) or real(basis, k, epoch))
    p, k = 3, 5
    recs = run_sequence(_spec(method=method, k=k, s=80, num_problems=p))
    assert len(recs) == p and all(r.converged for r in recs)
    assert calls == [k] * (p - 1)


@pytest.mark.parametrize("perturbation", [0.0, 1e-8])
def test_recycled_au_formed_only_for_the_same_matrix(monkeypatch, perturbation):
    # the next basis drops an A U formed on another matrix, so the update
    # forms A U_new only when the next problem keeps the matrix
    calls, real = [], krec.approximants.propagate_AU
    monkeypatch.setattr(krec.approximants, "propagate_AU",
                        lambda *args: calls.append(1) or real(*args))
    p, k = 3, 5
    recs = run_sequence(_spec(method="rfom", k=k, num_problems=p, perturbation=perturbation))
    assert all(r.converged for r in recs)
    assert len(calls) == (0 if perturbation else p - 1)
    # A U costs k matvecs on each new matrix, none on the same one
    extra = k if perturbation else 0
    assert [r.matvecs - r.m_used - 1 for r in recs] == [0] + [extra] * (p - 1)


@pytest.mark.parametrize("perturbation", [0.0, 1e-8])
def test_state_dropped_before_the_solve(monkeypatch, perturbation):
    # the basis holds U once built: the U of the state that the previous
    # problem's update returned is gone before the solve starts
    refs, alive = [], []
    real_recycle, real_solve = krec.approximants.AugmentedBasis.recycle, krec.driver._solve

    def recycle(basis, *args):
        state = real_recycle(basis, *args)
        refs.append(weakref.ref(state.U))
        return state

    def solve(*args):
        if refs:
            alive.append(refs[-1]() is not None)
        return real_solve(*args)

    monkeypatch.setattr(krec.approximants.AugmentedBasis, "recycle", recycle)
    monkeypatch.setattr(krec.driver, "_solve", solve)
    recs = run_sequence(_spec(method="rfom", k=5, num_problems=3, perturbation=perturbation))
    assert all(r.converged for r in recs)
    assert alive == [False, False]


def _sin_largest_angle(U1, U2):
    Q1, Q2 = np.linalg.qr(U1)[0], np.linalg.qr(U2)[0]
    return np.linalg.norm(Q2 - Q1 @ (Q1.conj().T @ Q2), 2)


@pytest.mark.parametrize("perturbation", [0.0, 1e-8])
@pytest.mark.parametrize("failure", ["solve", "update"])
def test_fallback_restarts_from_the_same_u(monkeypatch, perturbation, failure):
    # a failed solve, or a failed update, leaves the next problem the U the
    # failed problem started from, given back by its basis: the same space,
    # and A U costs k matvecs on a new matrix epoch and none on the same one
    fail, k, m = 2, 5, 20
    cls = krec.approximants.AugmentedBasis
    name = "approximant" if failure == "solve" else "recycle"
    seen, real_init, real = [], cls.__init__, getattr(cls, name)

    def init(basis, A, recycle, *args):
        seen.append(recycle.U.copy())
        real_init(basis, A, recycle, *args)

    def forced(basis, *args):
        if len(seen) - 1 == fail:
            raise (DomainError if failure == "solve" else EigConvergenceError)("forced")
        return real(basis, *args)

    monkeypatch.setattr(cls, "__init__", init)
    monkeypatch.setattr(cls, name, forced)
    spec = _spec(method="rfom", k=k, m=m, num_problems=4, perturbation=perturbation)
    if failure == "update":
        with pytest.warns(UserWarning, match="recycling update skipped"):
            recs = run_sequence(spec)
    else:
        recs = run_sequence(spec)
    assert [r.error is None for r in recs] == [True, True, failure == "update", True]
    assert seen[fail + 1].shape == (120, k)
    assert _sin_largest_angle(seen[fail], seen[fail + 1]) <= 1e-12
    after = recs[fail + 1]
    assert after.m_used == m and after.matvecs == m + 1 + (k if perturbation else 0)
    assert after.converged and after.relerr <= 10 * recs[1].relerr


def _count_factorizations(monkeypatch, nested=False):
    """Names and shapes of the matrices given to chol_qr, qr_econ and svd_econ.

    A ``chol_qr`` that falls back to ``qr_econ`` is one factorization of its
    block: the nested ``qr_econ`` is recorded only if ``nested``.
    """
    shapes, depth = [], [0]
    for name in ("chol_qr", "qr_econ", "svd_econ"):
        real = getattr(krec.linalg, name)

        def counted(M, *args, _real=real, _name=name, **kwargs):
            if nested or not depth[0]:
                shapes.append((_name, M.shape))
            depth[0] += 1
            try:
                return _real(M, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(krec.linalg, name, counted)
    return shapes


class TestSketchedQR:
    def test_srfom_factors_sketched_basis_once(self, monkeypatch):
        # the QR of S Vhat is grown: each adaptive step factors only its new
        # sketched columns, the first step with S U, once by chol_qr, or once
        # more by qr_econ when GrowingQR takes its second pass; nothing else
        # is factored
        appends, shapes = [], _count_factorizations(monkeypatch)
        real = krec.linalg.GrowingQR.append

        def append(qr, W, *args):
            before = len(shapes)
            out = real(qr, W, *args)
            appends.append((W.shape, shapes[before:]))
            return out

        monkeypatch.setattr(krec.linalg.GrowingQR, "append", append)
        recs = run_sequence(_spec(method="srfom", k=5, s=80, num_problems=3,
                                  m=AdaptiveM(reltol=1e-10, d=10, m_max=60)))
        assert all(r.converged and r.m_used % 10 == 0 for r in recs)
        assert max(r.m_used for r in recs) > 10
        want = []
        for i, r in enumerate(recs):
            want += [(80, (0 if i == 0 else 5) + 10)] + [(80, 10)] * (r.m_used // 10 - 1)
        assert [shape for shape, _ in appends] == want
        for shape, calls in appends:
            assert calls in ([("chol_qr", shape)], [("chol_qr", shape), ("qr_econ", shape)])
        assert sum(len(calls) for _, calls in appends) == len(shapes)

    @pytest.mark.parametrize("method, kind", [("srfom", "qr_econ"),
                                              ("srfom_stab", "svd_econ")])
    def test_one_whitening_per_step_none_in_recycle(self, monkeypatch, method, kind):
        # per step one QR (chol_qr) of the appended s-row columns, which
        # finishes the whitening by QR; the one by SVD adds the SVD of the
        # small R, and no SVD of an s-row matrix is taken
        A = gen_hpd(N=120, seed=1)
        S, k, s = sketch_new(120, 80, 0), 4, 80
        rng = np.random.default_rng(0)
        state = None
        shapes = _count_factorizations(monkeypatch)
        for _ in range(2):
            b = rng.standard_normal(120).astype(np.complex128)
            basis = krec.approximants.SketchedBasis(
                A, S, state, 0, svdtol=1e-12 if method == "srfom_stab" else None)
            fac = None
            for m in (10, 20):
                fac = (arnoldi_build(A, b, m, mode=MODE_TRUNCATED) if fac is None
                       else arnoldi_extend(fac, A, m))
                del shapes[:]
                basis.extend(fac)
                basis.approximant(b, INVSQRT)
                n = m + basis.k
                want = [("chol_qr", (s, 10 + (basis.k if m == 10 else 0)))]
                if kind == "svd_econ":
                    want.append(("svd_econ", (n, n)))
                assert shapes == want
            del shapes[:]
            state = basis.recycle(k)
            assert shapes == [] and state.k == k


@pytest.mark.parametrize("perturbation", [0.0, 1e-8])
def test_recycled_block_takes_cholesky_qr(monkeypatch, perturbation):
    # U = Q X is orthonormal by construction, so every problem's first append
    # (the recycled U) is factored by Cholesky QR, with no Householder
    # fallback: rFOM's saving at large N rests on this
    calls = _count_factorizations(monkeypatch, nested=True)
    firsts = []
    real = krec.approximants.AugmentedBasis.__init__

    def init(basis, *args, **kwargs):
        del calls[:]
        real(basis, *args, **kwargs)
        firsts.append((basis.k, list(calls)))

    monkeypatch.setattr(krec.approximants.AugmentedBasis, "__init__", init)
    recs = run_sequence(_spec(method="rfom", k=5, num_problems=4, perturbation=perturbation,
                              m=AdaptiveM(reltol=1e-8, d=5, m_max=60)))
    assert all(r.converged for r in recs)
    assert firsts == [(0, [])] + [(5, [("chol_qr", (120, 5))])] * 3


class TestSpecValidation:
    def test_sketched_requires_s(self):
        with pytest.raises(ConfigError):
            _spec(method="sfom")

    def test_m_must_be_below_s(self):
        with pytest.raises(ConfigError):
            _spec(method="sfom", s=20, m=20)

    def test_recycled_sketched_basis_fits_the_sketch(self):
        # the k + m columns of [S U, S V_m] are grown into a QR with s rows
        with pytest.raises(ConfigError, match="need k \\+ m <= s"):
            _spec(method="srfom_stab", k=6, s=20, m=15)
        recs = run_sequence(_spec(method="srfom_stab", k=5, s=20, m=15, num_problems=3))
        assert [r.error for r in recs] == [None] * 3
        assert recs[-1].relerr < 1e-2

    def test_recycled_basis_fits_the_matrix(self):
        # the k + m columns of [U, V_m] are grown into a QR with N rows
        spec = _spec(method="rfom", k=10, m=60, num_problems=3,
                     matrix_source=GeneratorSource("twocluster", {"N": 64, "seed": 2}))
        with pytest.raises(ConfigError, match="need k \\+ m <= N = 64 for rfom"):
            run_sequence(spec)
        with pytest.raises(ConfigError, match="need k \\+ m_max <= N"):
            run_sequence(dataclasses.replace(spec, m=AdaptiveM(1e-8, d=10, m_max=60)))
        recs = run_sequence(dataclasses.replace(spec, k=4))
        assert [r.error for r in recs] == [None] * 3

    def test_timing_reps_is_one(self):
        # a sequence runs once; the field stays for callers that pass 1
        assert _spec(timing_reps=1).timing_reps == 1
        for reps in (0, 2, 3):
            with pytest.raises(ConfigError, match="timing_reps"):
                _spec(timing_reps=reps)

    def test_k_below_m(self):
        with pytest.raises(ConfigError):
            _spec(method="rfom", k=20, m=20)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            _spec(method="cg")

    def test_adaptive_validation(self):
        with pytest.raises(ConfigError):
            AdaptiveM(reltol=0.0)
        with pytest.raises(ConfigError):
            AdaptiveM(reltol=1e-8, d=10, m_max=5)
        with pytest.raises(ConfigError):
            AdaptiveM(reltol=float("nan"))  # could never stop early

    @pytest.mark.parametrize("t", [0, -1])
    def test_truncation_length_at_least_one(self, t):
        # t <= 0 made truncated Arnoldi charge negative inner products
        with pytest.raises(ConfigError):
            _spec(method="sfom", s=40, m=10, t=t)

    @pytest.mark.parametrize("perturbation", [-1e-3, float("nan"), float("inf")])
    def test_perturbation_finite_and_nonnegative(self, perturbation):
        # run time tested only perturbation > 0, so these ran unperturbed
        with pytest.raises(ConfigError, match="perturbation"):
            _spec(perturbation=perturbation)

    @pytest.mark.parametrize("svdtol", [float("nan"), 2.0, 0.0, -1e-12])
    def test_svdtol_in_unit_interval(self, svdtol):
        # outside (0, 1] every srfom_stab problem failed with RankDeficiencyError
        with pytest.raises(ConfigError, match="svdtol"):
            _spec(method="srfom_stab", k=5, s=60, svdtol=svdtol)

    def test_oracle_stop_above_cap_rejected_before_solving(self):
        spec = _spec(m=AdaptiveM(reltol=1e-6, d=10, m_max=60), stop_rule="oracle",
                     oracle_cap=100)
        with pytest.raises(ConfigError, match="oracle cap"):
            run_sequence(spec)
        # fixed m never consults the stop rule
        assert len(run_sequence(dataclasses.replace(spec, m=10))) == 2

    def test_converged_is_a_python_bool(self):
        for m in (20, AdaptiveM(reltol=1e-6, d=10, m_max=60)):
            for stop_rule in ("estimator", "oracle"):
                recs = run_sequence(_spec(m=m, stop_rule=stop_rule))
                assert all(type(r.converged) is bool for r in recs)


class TestParsing:
    def test_parse_generator(self):
        src = parse_matrix_source("gen:hpd:N=100,seed=3,density=0.05")
        assert src == GeneratorSource("hpd", {"N": 100, "seed": 3, "density": 0.05})
        A = load_matrix(src)
        assert A.shape == (100, 100)

    def test_parse_mtx_path(self):
        assert parse_matrix_source("some/dir/a.mtx") == MatrixMarketSource("some/dir/a.mtx")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_matrix_source("not-a-source")
        with pytest.raises(ConfigError):
            parse_matrix_source("gen:hpd:N")

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            load_matrix(GeneratorSource("laplace3d", {}))

    def test_non_square_matrix_rejected(self, tmp_path):
        path = tmp_path / "wide.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "3 4 2\n1 1 1.0\n3 4 2.0\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="square, got shape 3x4"):
            load_matrix(MatrixMarketSource(str(path)))

    def test_read_config_and_build_spec(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join([
            "# comment",
            "function = invsqrt",
            "method = srfom-stab",
            "matrix = gen:hpd:N=100,seed=1",
            "m = 15",
            "k = 4",
            "s = 60   # inline comment",
            "seed = 9",
            "shift = 1.5,0.25",
            "",
        ]), encoding="utf-8")
        spec = build_spec(read_config(str(cfg)))
        assert spec.method == "srfom_stab"
        assert spec.m == 15 and spec.k == 4 and spec.s == 60
        assert spec.shift == 1.5 + 0.25j

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("function = inv\nmethod = fom\nmatrix = gen:hpd:N=10\n"
                       "m = 4\ncolor = blue\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            build_spec(read_config(str(cfg)))
        assert "color" in str(err.value)

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\nm = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_config(str(cfg))


class TestCsv:
    def test_one_record_two_lines(self, tmp_path):
        recs = run_sequence(_spec(num_problems=1))
        path = tmp_path / "out.csv"
        emit_csv(recs, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip_fields(self, tmp_path):
        recs = run_sequence(_spec(method="srfom_stab", k=4, s=80,
                                  num_problems=3, perturbation=1e-8))
        path = tmp_path / "out.csv"
        emit_csv(recs, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        total_mv = 0
        for line, rec in zip(lines[1:], recs):
            fields = line.split(",")
            assert int(fields[0]) == rec.problem_index
            assert fields[1] == "srfom_stab"
            assert int(fields[3]) == rec.matvecs
            assert float(fields[6]) == pytest.approx(rec.relerr, rel=1e-15)
            assert int(fields[8]) == rec.ell_used
            assert fields[10:] == ["1", ""]
            total_mv += int(fields[3])
        assert f"matvecs={total_mv}" in summarize(recs)

    def test_failed_rows_round_trip(self, tmp_path):
        recs = run_sequence(_singular_inv_spec())
        # an error text with a comma and a quote must survive as one field
        recs.append(dataclasses.replace(recs[-1], error='KrecError: a, b and "c"'))
        path = tmp_path / "out.csv"
        emit_csv(recs, str(path))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == len(recs) + 1
        for row, rec in zip(rows[1:], recs):
            assert len(row) == len(rows[0])
            fields = dict(zip(rows[0], row))
            assert fields["relerr"] == ""
            assert fields["converged"] == "0"
            assert rec.error and fields["error"] == rec.error

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "x.csv"))

    def test_missing_oracle_gives_empty_field(self, tmp_path):
        spec = _spec(num_problems=1, oracle_cap=10)  # N=120 exceeds the cap
        recs = run_sequence(spec)
        assert recs[0].relerr is None
        path = tmp_path / "out.csv"
        emit_csv(recs, str(path))
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert row.split(",")[6] == ""
