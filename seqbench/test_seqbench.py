"""Tests of the benchmark's own code: references, tracer arithmetic, hook.

    python3 -m pytest seqbench -q
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import krec.driver
from krec.matfun import INV, INVSQRT, exp_scaled
from krec.matrices import gen_hpd, gen_twocluster
from references import reference_solver
from tracer import Tracer, self_times
from verify import (
    HookMissing,
    NullOracle,
    ReferenceOracle,
    capture_inputs,
    check_records,
    compute_references,
    oracle_hook,
)
from workloads import WORKLOADS, Workload


def _scipy(A):
    return scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets),
                                   shape=(A.nrows, A.ncols))


def _rhs(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestReferences:
    def test_inv_matches_dense_solve(self):
        A = _scipy(gen_twocluster(60, nsmall=5, seed=3))
        b = _rhs(60)
        want = np.linalg.solve(A.toarray(), b)
        got = reference_solver("inv", A)(b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_exp_matches_dense_expm(self):
        A = _scipy(gen_twocluster(60, nsmall=5, seed=4))
        b = _rhs(60, 1)
        want = scipy.linalg.expm(-0.3 * A.toarray()) @ b
        got = reference_solver("exp", A, tau=-0.3)(b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_invsqrt_matches_hermitian_eigendecomposition(self):
        A = _scipy(gen_hpd(50, density=0.1, seed=5))
        b = _rhs(50, 2)
        lam, W = np.linalg.eigh(A.toarray())
        want = W @ ((W.conj().T @ b) / np.sqrt(lam))
        got = reference_solver("invsqrt", A)(b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_invsqrt_matches_diagonalization_of_nonhermitian(self):
        A = _scipy(gen_twocluster(40, nsmall=4, seed=6))
        b = _rhs(40, 3)
        lam, W = np.linalg.eig(A.toarray())
        want = W @ (np.linalg.solve(W, b) / np.sqrt(lam))
        got = reference_solver("invsqrt", A)(b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            reference_solver("log", _scipy(gen_hpd(5, seed=0)))


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracerArithmetic:
    def test_self_time_is_span_minus_direct_children(self):
        spans = [
            ["driver", -1, 0.0, 10.0],
            ["arnoldi", 0, 1.0, 5.0],
            ["sparse.matvec", 1, 2.0, 3.0],
            ["sparse.matvec", 1, 3.5, 4.0],
            ["linalg.qr", 0, 6.0, 9.0],
        ]
        own, calls = self_times(spans)
        assert own["driver"] == pytest.approx(10.0 - 4.0 - 3.0)
        assert own["arnoldi"] == pytest.approx(4.0 - 1.0 - 0.5)
        assert own["sparse.matvec"] == pytest.approx(1.5)
        assert own["linalg.qr"] == pytest.approx(3.0)
        assert calls == {"driver": 1, "arnoldi": 1, "sparse.matvec": 2, "linalg.qr": 1}
        assert sum(own.values()) == pytest.approx(10.0)

    def test_wrapped_calls_nest_and_attribute_counts(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)

        def leaf():
            clock.now += 2.0
            tracer.count("inner_products", 3)

        wrapped_leaf = tracer.span("leaf", leaf)

        def root():
            clock.now += 1.0
            wrapped_leaf()
            clock.now += 4.0
            wrapped_leaf()

        tracer.span("root", root)()
        own, calls = self_times(tracer.spans)
        assert own == {"root": 5.0, "leaf": 4.0}
        assert calls == {"root": 1, "leaf": 2}
        assert tracer.counts["leaf", "inner_products"] == 6

    def test_span_closes_when_the_call_raises(self):
        clock = _Clock()
        tracer = Tracer(clock=clock)

        def fails():
            clock.now += 1.0
            raise ValueError

        with pytest.raises(ValueError):
            tracer.span("x", fails)()
        assert tracer.spans == [["x", -1, 0.0, 1.0]]

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import krec
        import krec.arnoldi
        import krec.matrices
        import krec.sparse

        original = krec.sparse.csr_matvec
        generator = krec.matrices.GENERATORS["hpd"]
        with Tracer() as tracer:
            tracer.install()
            for module in (krec, krec.sparse, krec.arnoldi, krec.approximants, krec.driver):
                assert module.csr_matvec is not original
            assert krec.matrices.GENERATORS["hpd"] is not generator
        assert krec.sparse.csr_matvec is original and krec.arnoldi.csr_matvec is original
        assert krec.matrices.GENERATORS["hpd"] is generator

    def test_traced_sequence_sees_every_matvec(self):
        spec = krec.driver.SequenceSpec(
            function=INV, method="rfom", num_problems=2, m=12, k=3,
            matrix_source=krec.driver.GeneratorSource("hpd", {"N": 80, "seed": 1}),
            seed=2, timing_reps=1)
        with Tracer() as tracer:
            tracer.install()
            records = krec.driver.run_sequence(spec)
        own, calls = self_times(tracer.spans)
        assert tracer.spans[0][0] == "driver"
        assert calls["sparse.matvec"] == sum(r.matvecs for r in records)
        assert tracer.counts["arnoldi", "inner_products"] > 0
        root = tracer.spans[0][3] - tracer.spans[0][2]
        assert sum(own.values()) == pytest.approx(root)


_SMALL = Workload(
    name="small", function=exp_scaled(0.01),
    source=krec.driver.GeneratorSource("twocluster", {"N": 64, "nsmall": 6, "seed": 2}),
    shift=0.0, num_problems=3, perturbation=1e-8, base_seed=1,
    m=krec.driver.AdaptiveM(reltol=1e-8, d=5, m_max=40), t=4, s=64, k=4,
    reps={})


class TestHook:
    def test_references_check_a_small_sequence(self):
        table = compute_references(_SMALL, capture_inputs(_SMALL, seed=0))
        for method in ("fom", "sfom", "rfom", "srfom_stab"):
            oracle = ReferenceOracle(table)
            with oracle_hook(lambda f, cap=0: oracle):
                records = krec.driver.run_sequence(_SMALL.spec(method, 0))
            assert check_records(_SMALL, method, records, oracle.solves) == (0, [])

    def test_missing_dense_oracle_is_a_failure(self, monkeypatch):
        monkeypatch.delattr(krec.driver, "DenseOracle")
        with pytest.raises(HookMissing):
            capture_inputs(_SMALL, seed=0)

    def test_unused_hook_is_a_failure(self, monkeypatch):
        # a driver that builds its oracle under another name never asks ours
        table = compute_references(_SMALL, capture_inputs(_SMALL, seed=0))
        run_once = krec.driver._run_once

        def private_oracle(spec, A0):
            hooked = krec.driver.DenseOracle
            krec.driver.DenseOracle = NullOracle
            try:
                return run_once(spec, A0)
            finally:
                krec.driver.DenseOracle = hooked

        monkeypatch.setattr(krec.driver, "_run_once", private_oracle)
        oracle = ReferenceOracle(table)
        with oracle_hook(lambda f, cap=0: oracle):
            records = krec.driver.run_sequence(_SMALL.spec("fom", 0))
        with pytest.raises(HookMissing):
            check_records(_SMALL, "fom", records, oracle.solves)

    def test_wrong_output_is_a_fault_not_a_failure(self):
        table = compute_references(_SMALL, capture_inputs(_SMALL, seed=0))
        table = {key: (epoch, 2 * x) for key, (epoch, x) in table.items()}
        oracle = ReferenceOracle(table)
        with oracle_hook(lambda f, cap=0: oracle):
            records = krec.driver.run_sequence(_SMALL.spec("fom", 0))
        failed, faults = check_records(_SMALL, "fom", records, oracle.solves)
        assert failed == 0 and len(faults) == _SMALL.num_problems


def test_round_spreads_repetitions():
    from measure import round_tasks

    assert round_tasks({"setup": 2, "fom": 1, "sfom": 3, "rfom": 1}) == [
        "setup", "fom", "sfom", "rfom", "setup", "sfom", "sfom"]


def test_workload_specs_are_valid_and_seeded():
    for workload in WORKLOADS.values():
        for method in ("fom", "sfom", "rfom", "srfom_stab"):
            spec = workload.spec(method, 3)
            assert spec.seed == workload.base_seed + 3
            assert spec.timing_reps == 1 and spec.stop_rule == "estimator"
    assert WORKLOADS["inv-neumann2d"].spec("fom", 0).function is INV
    assert WORKLOADS["invsqrt-twocluster"].spec("sfom", 0).function is INVSQRT
