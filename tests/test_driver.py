import csv
import dataclasses
import warnings

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
from krec.driver import CSV_HEADER, summarize
from krec.matrices import gen_hpd
from krec.sparse import CSRMatrix


def _spec(**kw):
    base = dict(
        function=INVSQRT, method="fom", num_problems=2, m=20,
        matrix_source=GeneratorSource("hpd", {"N": 120, "seed": 1}),
        seed=3, timing_reps=1,
    )
    base.update(kw)
    return SequenceSpec(**base)


def _singular_inv_spec():
    # inv of a singular matrix: m = N makes the projected matrix share the
    # singular spectrum of A, so every problem fails
    return SequenceSpec(
        function=INV, method="fom", num_problems=2, m=9,
        matrix_source=GeneratorSource("neumann2d", {"n": 3}),
        seed=0, timing_reps=1)


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
        A = CSRMatrix.identity(10)
        assert oracle_exact(A, np.ones(10), INV, cap=5) is None


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
            assert r.inner_products == m * m + 3 * m + m

    def test_counter_conservation_rfom_cached(self):
        m, k, p = 20, 5, 4
        recs = run_sequence(_spec(method="rfom", k=k, num_problems=p, m=m))
        # A never changes: AU comes from the cached propagation, zero extras
        for r in recs:
            assert r.matvecs == m + 1
        q0 = m * (m + 1) // 2
        qk = (m + k) * (m + k + 1) // 2
        assert recs[0].inner_products == m * m + 3 * m + q0 + m
        for r in recs[1:]:
            assert r.inner_products == m * m + 3 * m + qk + (m + k)

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
                projections = sum(kk + s for s in range(d, m + 1, d))
                assert r.inner_products == m * m + 3 * m + n * (n + 1) // 2 + projections

    def test_chained_rfom_failures_recorded(self):
        # a numerically rank-deficient augmented basis makes exp of the
        # projected matrix overflow; the problem must fail on record instead
        # of handing a NaN to the next problem as its right-hand side
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with np.errstate(all="ignore"):
                recs = run_sequence(SequenceSpec(
                    function=exp_scaled(0.01), method="rfom", k=20, num_problems=4,
                    matrix_source=GeneratorSource("advdiff2d", {"n": 32}), seed=0,
                    rhs_rule="chain", t=2, timing_reps=1,
                    m=AdaptiveM(reltol=1e-9, d=10, m_max=300)))
        assert len(recs) == 4
        for r in recs:
            assert r.error is not None or (r.relerr is not None and np.isfinite(r.relerr))

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

    def test_wall_time_is_median_over_repetitions(self, monkeypatch):
        calls = iter([1.0, 2.0, 9.0])

        def fake_run_once(spec, A0):
            return [krec.driver.RunRecord(problem_index=0, method=spec.method, m_used=1,
                                          matvecs=0, inner_products=0, sketches=0,
                                          wall_time=next(calls))]

        monkeypatch.setattr(krec.driver, "_run_once", fake_run_once)
        recs = run_sequence(_spec(timing_reps=3))
        assert recs[0].wall_time == 2.0

    def test_failure_recorded_and_sequence_continues(self):
        # the approximant path raises per problem but the sequence keeps going
        recs = run_sequence(_singular_inv_spec())
        assert len(recs) == 2
        assert all(r.error is not None and not r.converged for r in recs)


_GOLDEN_SPEC = dict(
    function=INVSQRT, num_problems=4, perturbation=1e-8, seed=1, t=4, timing_reps=1,
    matrix_source=GeneratorSource("twocluster", {"N": 64, "nsmall": 6, "seed": 2}),
)
# per-problem (m_used, matvecs, inner_products, sketches) of each method on
# the sequence above with AdaptiveM(reltol=1e-6, d=5, m_max=60)
_GOLDEN = [
    ("fom", {}, [(50, 51, 2925, 0)] * 4),
    ("sfom", {"s": 64}, [(50, 51, 244, 51)] * 4),
    ("rfom", {"k": 4}, [(50, 51, 4200, 0)] + [(30, 35, 1714, 0)] * 3),
    ("srfom", {"k": 4, "s": 64}, [(50, 51, 244, 51)] + [(30, 35, 144, 35)] * 3),
    ("srfom_stab", {"k": 4, "s": 64}, [(50, 51, 244, 51)] + [(30, 35, 144, 35)] * 3),
    ("srfom", {"k": 4, "s": 64, "inexact_srr": True},
     [(50, 51, 244, 51), (30, 31, 144, 31), (40, 41, 194, 41), (30, 31, 144, 31)]),
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
            k=20, s=256, t=8, seed=5, perturbation=1e-8, timing_reps=1)
        for method in ("srfom", "srfom_stab"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                recs = run_sequence(SequenceSpec(method=method, **common))
            assert not [w for w in caught if "recycling update skipped" in str(w.message)]
            assert all(r.converged and r.relerr <= 10 * 1e-8 for r in recs)
            # a stale U needs m = 110 at every problem: 555 matvecs
            assert sum(r.matvecs for r in recs) < 500, method


class TestRecyclingUpdate:
    _COMMON = dict(function=INV, k=6, s=120, t=4, seed=2, timing_reps=1,
                   num_problems=4, matrix_source=GeneratorSource("hpd", {"N": 90, "seed": 1}))

    def test_first_problem_shorter_than_k(self):
        # the first problem stops at m = 10 < k: U takes every Ritz vector of
        # its G, state.k is the k used and k_target the k asked for
        A, k = load_matrix(self._COMMON["matrix_source"]), 15
        N = A.nrows
        b = np.random.default_rng(0).standard_normal(N) + 0j
        for method in ("rfom", "srfom", "srfom_stab"):
            spec = SequenceSpec(**dict(self._COMMON, k=k), method=method,
                                m=AdaptiveM(reltol=0.99, d=5, m_max=40))
            S = sketch_new(N, spec.s, spec.seed)
            counters = Counters()
            basis = krec.driver._new_basis(spec, A, S, RecycleState.empty(N, k), 0,
                                           counters)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, m_used, _, _ = krec.driver._solve(spec, A, b, basis, counters,
                                                     DenseOracle(INV))
                state = basis.recycle(k)
            order = basis.G.shape[0] if method == "rfom" else basis.whitening.G.shape[0]
            assert m_used == 10 and order <= m_used, method
            assert order == m_used or method == "srfom_stab", method
            assert state.k == order and state.k_target == k, method
            assert state.ritz_values.shape == (order,)

    def test_no_eigenvectors(self, monkeypatch):
        # the update is a reordered Schur form: with every eig patched to
        # raise, each problem of an inv sequence still updates U
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
            assert updates == [6] * 4, method
            assert all(r.converged and r.relerr <= 1e-6 for r in recs), method


def _count_sketched_factorizations(monkeypatch, s):
    """Shapes of the QRs and SVDs taken of s-row matrices, the sketched bases."""
    shapes = []
    for name in ("qr_econ", "svd_econ"):
        real = getattr(krec.linalg, name)

        def counted(M, *args, _real=real, _name=name, **kwargs):
            if M.shape[0] == s:
                shapes.append((_name, M.shape))
            return _real(M, *args, **kwargs)

        monkeypatch.setattr(krec.linalg, name, counted)
    return shapes


class TestSketchedQR:
    def test_srfom_factors_sketched_basis_once(self, monkeypatch):
        # the approximant's QR of S Vhat is the one the recycling update takes
        shapes = _count_sketched_factorizations(monkeypatch, 80)
        recs = run_sequence(_spec(method="srfom", m=20, k=5, s=80, num_problems=3))
        assert all(r.converged for r in recs)
        assert [shape for _, shape in shapes] == [(80, 20), (80, 25), (80, 25)]

    @pytest.mark.parametrize("method, kind", [("srfom", "qr_econ"),
                                              ("srfom_stab", "svd_econ")])
    def test_one_whitening_per_step_none_in_recycle(self, monkeypatch, method, kind):
        A = gen_hpd(N=120, seed=1)
        S, k, s = sketch_new(120, 80, 0), 4, 80
        rng = np.random.default_rng(0)
        state = None
        shapes = _count_sketched_factorizations(monkeypatch, s)
        for _ in range(2):
            b = rng.standard_normal(120).astype(np.complex128)
            basis = krec.approximants.SketchedBasis(
                A, S, state, 0, stabilized=method == "srfom_stab", svdtol=1e-12)
            fac = None
            for m in (10, 20):
                fac = (arnoldi_build(A, b, m, mode=MODE_TRUNCATED) if fac is None
                       else arnoldi_extend(fac, A, m))
                basis.extend(fac)
                del shapes[:]
                basis.approximant(b, INVSQRT)
                assert shapes == [(kind, (s, m + basis.k))]
            del shapes[:]
            state = basis.recycle(k)
            assert shapes == [] and state.k == k


class TestSpecValidation:
    def test_sketched_requires_s(self):
        with pytest.raises(ConfigError):
            _spec(method="sfom")

    def test_m_must_be_below_s(self):
        with pytest.raises(ConfigError):
            _spec(method="sfom", s=20, m=20)

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
