"""Acceptance suite: nine end-to-end criteria, one test (and one line) each."""

import warnings

import numpy as np
import pytest

from krec import (
    EXP,
    INV,
    INVSQRT,
    AdaptiveM,
    CSRMatrix,
    GeneratorSource,
    MODE_FULL,
    MODE_TRUNCATED,
    RankDeficiencyError,
    SequenceSpec,
    arnoldi_build,
    estimate_epsilon,
    exp_scaled,
    fom_closed,
    gmres_type_closed,
    oracle_exact,
    rfom_step,
    run_sequence,
    sfom_whitened,
    sketch_apply,
    sketch_av_from_arnoldi,
    sketch_dense,
    sketch_new,
    srfom_stab,
    srfom_step,
    update_sketched,
    update_sketched_stab,
)
from krec.matrices import gen_hpd
from krec.sparse import csr_matvec


def _report(n, label):
    print(f"criterion {n} ({label}): PASS")


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _test_matrix(rng, N, hermitian):
    if hermitian:
        G = _random_complex(rng, (N, N))
        return CSRMatrix.from_dense(G @ G.conj().T / N + np.eye(N))
    M = _random_complex(rng, (N, N)) / np.sqrt(N)
    return CSRMatrix.from_dense(M + 3.0 * np.eye(N))


def _full_sampling_sketch(N, seed):
    S = sketch_new(N, 1, seed)
    return sketch_new(N, S.pad, seed)


def _sketched_hats(A, b, S, m, mode=MODE_FULL):
    fac = arnoldi_build(A, b, m, mode=mode)
    SV = np.column_stack([sketch_apply(S, fac.V[:, j]) for j in range(fac.m)])
    s_next = None if fac.breakdown is not None else sketch_apply(S, fac.v_next)
    SAV = sketch_av_from_arnoldi(S, fac, SV, s_next)
    Sb = np.linalg.norm(b) * SV[:, 0]
    return fac, SV, SAV, Sb


def test_criterion_1_exactness():
    """m = N reproduces f(A)b exactly for every closed-form approximant."""
    for seed in range(20):
        rng = np.random.default_rng([seed, 10])
        N = int(rng.integers(10, 31))
        A = _test_matrix(rng, N, hermitian=(seed % 2 == 0))
        b = _random_complex(rng, N)
        S = _full_sampling_sketch(N, seed)
        for f in (INVSQRT, INV, EXP):
            exact = oracle_exact(A, b, f)
            scale = np.linalg.norm(exact)

            fac = arnoldi_build(A, b, N)
            got = fom_closed(fac.V, fac.square_h(), b, f).full_vector()
            assert np.linalg.norm(got - exact) <= 1e-10 * scale

            got = gmres_type_closed(fac, b, f).full_vector()
            assert np.linalg.norm(got - exact) <= 1e-10 * scale

            # [U, V_{N-2}] spans C^N when U holds the two dropped directions
            U = fac.V[:, -2:]
            got = rfom_step(A, b, U, N - 2, f)[0].full_vector()
            assert np.linalg.norm(got - exact) <= 1e-10 * scale

            _, SV, SAV, Sb = _sketched_hats(A, b, S, N)
            got = sfom_whitened(fac.V, SV, SAV, Sb, f).full_vector()
            assert np.linalg.norm(got - exact) <= 1e-10 * scale

            got = srfom_stab(fac.V, SV, SAV, Sb, f, svdtol=0.0).full_vector()
            assert np.linalg.norm(got - exact) <= 1e-10 * scale
    _report(1, "exactness")


def test_criterion_2_reduction_chains():
    """Each specialization collapses onto the method it generalizes."""
    for seed in range(10):
        rng = np.random.default_rng([seed, 20])
        N, m = 80, 15
        A = _test_matrix(rng, N, hermitian=(seed % 2 == 0))
        b = _random_complex(rng, N)
        f = (INVSQRT, INV, EXP)[seed % 3]

        fac = arnoldi_build(A, b, m)
        fom = fom_closed(fac.V, fac.square_h(), b, f).full_vector()
        scale = np.linalg.norm(fom)

        # U = empty: rFOM is FOM
        got = rfom_step(A, b, None, m, f)[0].full_vector()
        assert np.linalg.norm(got - fom) <= 1e-10 * scale

        # isometric S: sketched FOM is FOM
        S_iso = _full_sampling_sketch(N, seed)
        _, SV, SAV, Sb = _sketched_hats(A, b, S_iso, m)
        got = sfom_whitened(fac.V, SV, SAV, Sb, f).full_vector()
        assert np.linalg.norm(got - fom) <= 1e-10 * scale

        # svdtol = 0: stabilized equals unstabilized on the same working set
        S = sketch_new(N, 50, seed)
        tfac, SV, SAV, Sb = _sketched_hats(A, b, S, m, mode=MODE_TRUNCATED)
        plain = sfom_whitened(tfac.V, SV, SAV, Sb, f).full_vector()
        stab = srfom_stab(tfac.V, SV, SAV, Sb, f, svdtol=0.0).full_vector()
        assert np.linalg.norm(stab - plain) <= 1e-10 * np.linalg.norm(plain)

        # first problem (no recycling yet): srFOM is sFOM
        approx, _ = srfom_step(A, b, S, None, m, f)
        assert np.linalg.norm(approx.full_vector() - plain) \
            <= 1e-10 * np.linalg.norm(plain)
    _report(2, "reduction chains")


def test_criterion_3_theorem_bound():
    """A-norm rFOM error stays below the convergence-theory bound."""
    for seed in range(5):
        A = gen_hpd(200, seed=seed)
        dense = A.to_dense()
        lam = np.linalg.eigvalsh(dense)
        lmin, lmax = lam[0], lam[-1]
        rng = np.random.default_rng([seed, 30])
        b = _random_complex(rng, 200)
        exact = oracle_exact(A, b, INVSQRT)
        U, _ = np.linalg.qr(_random_complex(rng, (200, 5)))
        kappa = lmax / lmin
        c = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        C = np.linalg.norm(b) * np.sqrt(lmax) / (lmin * lmax) ** 0.25
        for m in range(5, 55, 5):
            e = exact - rfom_step(A, b, U, m, INVSQRT)[0].full_vector()
            anorm = np.sqrt(np.real(np.vdot(e, dense @ e)))
            bound = C / np.cosh(m * abs(np.log(c)))
            assert anorm <= bound, f"seed={seed} m={m}: {anorm:.3e} > {bound:.3e}"
    _report(3, "theorem bound")


def test_criterion_4_recycling_benefit():
    """Recycling reduces error at fixed m and basis size in adaptive mode."""
    src = GeneratorSource("twocluster", {"N": 400, "seed": 11})
    common = dict(function=INVSQRT, num_problems=20, matrix_source=src,
                  seed=5, perturbation=1e-8, timing_reps=1, t=2)

    fixed = {}
    for meth, kw in [("fom", {}), ("rfom", {"k": 20}), ("sfom", {"s": 240}),
                     ("srfom_stab", {"k": 20, "s": 240})]:
        recs = run_sequence(SequenceSpec(method=meth, m=60, **common, **kw))
        fixed[meth] = [r.relerr for r in recs]
        assert all(e is not None for e in fixed[meth])
    for i in range(2, 20):
        assert fixed["rfom"][i] < fixed["fom"][i], f"problem {i}"
        assert fixed["srfom_stab"][i] < fixed["sfom"][i], f"problem {i}"

    median = {}
    for meth, kw in [("fom", {}), ("rfom", {"k": 20}),
                     ("srfom_stab", {"k": 20, "s": 240, "svdtol": 1e-12})]:
        recs = run_sequence(SequenceSpec(
            method=meth, m=AdaptiveM(reltol=1e-8, d=10, m_max=220),
            stop_rule="oracle", **common, **kw))
        median[meth] = np.median([r.m_used for r in recs[9:20]])
    assert median["rfom"] <= median["srfom_stab"] <= median["fom"]
    assert median["rfom"] <= median["fom"] - 10
    _report(4, "recycling benefit trend")


def test_criterion_5_linear_systems():
    """Recycled solvers converge with strictly fewer matvecs on a fixed A."""
    src = GeneratorSource("neumann2d", {"n": 31})
    common = dict(function=INV, num_problems=10, matrix_source=src,
                  shift=0.001, seed=7, timing_reps=1, t=2, stop_rule="oracle")
    totals = {}
    for meth, kw in [("fom", {}), ("sfom", {"s": 800}), ("rfom", {"k": 50}),
                     ("srfom_stab", {"k": 50, "s": 800, "svdtol": 1e-12})]:
        recs = run_sequence(SequenceSpec(
            method=meth, m=AdaptiveM(reltol=1e-8, d=10, m_max=700),
            **common, **kw))
        for r in recs:
            assert r.error is None, r.error
            assert r.relerr is not None and r.relerr <= 1e-8
        totals[meth] = sum(r.matvecs for r in recs)
    assert totals["rfom"] < totals["fom"]
    assert totals["srfom_stab"] < totals["fom"]
    _report(5, "linear-system trend")


def test_criterion_6_exponential_time_stepping():
    """Estimator-driven stopping keeps the true error below tolerance."""
    src = GeneratorSource("advdiff2d", {"n": 32})
    total, good = 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(5):
            recs = run_sequence(SequenceSpec(
                function=exp_scaled(0.01), method="srfom_stab",
                num_problems=15, matrix_source=src, seed=seed,
                rhs_rule="chain", k=20, s=400, svdtol=1e-12, t=2,
                timing_reps=1, stop_rule="estimator",
                m=AdaptiveM(reltol=1e-9, d=10, m_max=300)))
            for r in recs:
                total += 1
                if r.error is None and r.relerr is not None and r.relerr <= 1e-9:
                    good += 1
    assert good >= 0.95 * total, f"{good}/{total} within tolerance"
    _report(6, "exponential time stepping")


def test_criterion_7_counter_laws():
    """Instrumented counters match the closed-form cost formulas exactly."""
    src = GeneratorSource("hpd", {"N": 120, "seed": 1})
    m, k, p = 20, 5, 4

    recs = run_sequence(SequenceSpec(
        function=INVSQRT, method="fom", num_problems=p, m=m,
        matrix_source=src, seed=3, timing_reps=1))
    for r in recs:
        assert r.matvecs == m + 1
        assert r.inner_products == m * m + 3 * m + m
        assert r.sketches == 0

    recs = run_sequence(SequenceSpec(
        function=INVSQRT, method="rfom", num_problems=p, m=m, k=k,
        matrix_source=src, seed=3, timing_reps=1))
    q0 = m * (m + 1) // 2
    qk = (m + k) * (m + k + 1) // 2
    assert [r.matvecs for r in recs] == [m + 1] * p
    assert recs[0].inner_products == m * m + 3 * m + q0 + m
    for r in recs[1:]:
        assert r.inner_products == m * m + 3 * m + qk + (m + k)

    recs = run_sequence(SequenceSpec(
        function=INVSQRT, method="srfom", num_problems=p, m=m, k=k, s=80,
        matrix_source=src, seed=3, timing_reps=1, perturbation=1e-8))
    trunc_ips = sum(min(j + 1, 2) + 1 for j in range(m))
    assert recs[0].matvecs == m + 1 and recs[0].sketches == m + 1
    for r in recs[1:]:
        # each new matrix epoch recomputes A U: k matvecs and k sketches
        assert r.matvecs == m + 1 + k
        assert r.sketches == m + 1 + k
    assert all(r.inner_products == trunc_ips for r in recs)
    _report(7, "counter laws")


def test_criterion_8_stabilization_robustness():
    """Truncated SVD survives near-duplicate columns; plain whitening fails."""
    rng = np.random.default_rng(8)
    N, m = 120, 12
    A = _test_matrix(rng, N, hermitian=False)
    b = _random_complex(rng, N)
    S = sketch_new(N, 60, 8)
    fac, SV, SAV, Sb = _sketched_hats(A, b, S, m)
    exact = oracle_exact(A, b, INV)
    scale = np.linalg.norm(exact)

    baseline = srfom_stab(fac.V, SV, SAV, Sb, INV).full_vector()
    base_err = np.linalg.norm(baseline - exact) / scale

    # append a copy of the first basis vector perturbed at roundoff level
    dup = fac.V[:, 0] + 1e-15 * _random_complex(rng, N)
    Adup = csr_matvec(A, dup)
    Vhat = np.column_stack([fac.V, dup])
    SVhat = np.column_stack([SV, sketch_apply(S, dup)])
    SAVhat = np.column_stack([SAV, sketch_apply(S, Adup)])

    with pytest.raises(RankDeficiencyError):
        sfom_whitened(Vhat, SVhat, SAVhat, Sb, INV)
    got = srfom_stab(Vhat, SVhat, SAVhat, Sb, INV).full_vector()
    assert np.all(np.isfinite(got))
    err = np.linalg.norm(got - exact) / scale
    assert err <= 10.0 * base_err

    class _Bundle:
        pass

    bundle = _Bundle()
    bundle.Vhat, bundle.SVhat, bundle.SAVhat = Vhat, SVhat, SAVhat
    bundle.whitening, bundle.fac, bundle.matrix_epoch = None, fac, 0
    with pytest.raises(RankDeficiencyError):
        update_sketched(bundle, 3)
    state = update_sketched_stab(Vhat, SVhat, SAVhat, 3, matrix_epoch=0)
    assert state.k == 3
    assert np.all(np.isfinite(state.U))
    _report(8, "stabilization robustness")


def test_criterion_9_sketch_module():
    """Sketching invariants and the dense-assembly oracle."""
    rng = np.random.default_rng(9)

    # bit-level determinism and dense oracle at N=32
    S1 = sketch_new(32, 8, seed=4)
    S2 = sketch_new(32, 8, seed=4)
    np.testing.assert_array_equal(S1.signs, S2.signs)
    np.testing.assert_array_equal(S1.rows, S2.rows)
    v = _random_complex(rng, 32)
    np.testing.assert_array_equal(sketch_apply(S1, v), sketch_apply(S2, v))
    dense = sketch_dense(S1)
    assert np.linalg.norm(dense @ v - sketch_apply(S1, v)) \
        <= 1e-12 * np.linalg.norm(v)
    np.testing.assert_array_equal(dense, sketch_dense(S2))

    # linearity
    S = sketch_new(300, 80, seed=1)
    u, w = _random_complex(rng, 300), _random_complex(rng, 300)
    a, c = 1.3 - 0.4j, -0.7 + 2.1j
    lhs = sketch_apply(S, a * u + c * w)
    rhs = a * sketch_apply(S, u) + c * sketch_apply(S, w)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(lhs)

    # embedding distortion over a fixed subspace, many seeds
    basis = [_random_complex(rng, 1000) for _ in range(20)]
    hits = 0
    for seed in range(100):
        Ss = sketch_new(1000, 200, seed=seed)
        eps = estimate_epsilon(Ss, basis)
        hits += eps < 0.8
    assert hits >= 95

    # sketch-of-AV identity matches direct sketching
    A = _test_matrix(rng, 300, hermitian=False)
    b = _random_complex(rng, 300)
    fac = arnoldi_build(A, b, 40, mode=MODE_TRUNCATED)
    SV = np.column_stack([sketch_apply(S, fac.V[:, j]) for j in range(40)])
    SAV = sketch_av_from_arnoldi(S, fac, SV, sketch_apply(S, fac.v_next))
    direct = np.column_stack(
        [sketch_apply(S, csr_matvec(A, fac.V[:, j])) for j in range(40)])
    assert np.max(np.abs(SAV - direct)) <= 1e-11
    _report(9, "sketch module")
