import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krec import (
    MODE_FULL,
    MODE_TRUNCATED,
    Counters,
    CSRMatrix,
    DimensionMismatchError,
    arnoldi_build,
    csr_matvec,
    estimate_epsilon,
    sketch_apply,
    sketch_av_from_arnoldi,
    sketch_dense,
    sketch_new,
)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_full_sampling_isometry():
    S = sketch_new(8, 8, seed=0)
    assert S.is_isometry
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = _random_complex(rng, 8)
        assert abs(np.linalg.norm(sketch_apply(S, v)) / np.linalg.norm(v) - 1.0) <= 1e-13


def test_padded_isometry():
    # non-power-of-two N: padding is isometric when all rows are sampled
    S = sketch_new(13, 16, seed=2)
    rng = np.random.default_rng(3)
    v = _random_complex(rng, 13)
    assert abs(np.linalg.norm(sketch_apply(S, v)) - np.linalg.norm(v)) <= 1e-13


def test_determinism():
    a = sketch_new(100, 40, seed=7)
    b = sketch_new(100, 40, seed=7)
    np.testing.assert_array_equal(a.signs, b.signs)
    np.testing.assert_array_equal(a.rows, b.rows)
    rng = np.random.default_rng(4)
    v = _random_complex(rng, 100)
    np.testing.assert_array_equal(sketch_apply(a, v), sketch_apply(b, v))
    c = sketch_new(100, 40, seed=8)
    assert not np.array_equal(a.rows, c.rows) or not np.array_equal(a.signs, c.signs)


def test_zero_vector():
    S = sketch_new(16, 4, seed=0)
    np.testing.assert_array_equal(sketch_apply(S, np.zeros(16)), np.zeros(4))


def test_linearity():
    S = sketch_new(64, 20, seed=5)
    rng = np.random.default_rng(6)
    u = _random_complex(rng, 64)
    v = _random_complex(rng, 64)
    a, b = 1.3 - 0.4j, -0.7 + 2.1j
    lhs = sketch_apply(S, a * u + b * v)
    rhs = a * sketch_apply(S, u) + b * sketch_apply(S, v)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * (np.linalg.norm(lhs) + 1)


def test_dense_assembly_oracle():
    rng = np.random.default_rng(7)
    S = sketch_new(32, 8, seed=11)
    M = sketch_dense(S)
    assert M.shape == (8, 32)
    for _ in range(5):
        v = _random_complex(rng, 32)
        fast = sketch_apply(S, v)
        assert np.linalg.norm(fast - M @ v) <= 1e-12 * np.linalg.norm(v)
    # bit-level determinism of the oracle per seed
    np.testing.assert_array_equal(M, sketch_dense(sketch_new(32, 8, seed=11)))


def test_monte_carlo_mean_norm():
    S = sketch_new(1000, 200, seed=9)
    rng = np.random.default_rng(10)
    total = 0.0
    for _ in range(1000):
        v = _random_complex(rng, 1000)
        v /= np.linalg.norm(v)
        total += np.linalg.norm(sketch_apply(S, v)) ** 2
    assert abs(total / 1000 - 1.0) <= 0.05


def test_subspace_distortion_concentration():
    # s >= 4 * subspace dim: distortion below 0.8 in >= 95% of 100 seeds
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(_random_complex(rng, (256, 50)))
    good = 0
    for seed in range(100):
        S = sketch_new(256, 200, seed=seed)
        SQ = np.column_stack([sketch_apply(S, Q[:, j]) for j in range(50)])
        sv = np.linalg.svd(SQ, compute_uv=False)
        distortion = max(abs(sv[0] ** 2 - 1.0), abs(sv[-1] ** 2 - 1.0))
        if distortion < 0.8:
            good += 1
    assert good >= 95


def test_sketch_counter():
    S = sketch_new(32, 8, seed=0)
    c = Counters()
    sketch_apply(S, np.ones(32), c)
    sketch_apply(S, np.ones(32), c)
    assert c.snapshot() == (0, 0, 2)


def test_errors():
    with pytest.raises(ValueError):
        sketch_new(8, 9, seed=0)  # s exceeds the padded length
    S = sketch_new(16, 4, seed=0)
    with pytest.raises(DimensionMismatchError):
        sketch_apply(S, np.ones(17))


def _random_sparse(rng, n, density=0.05):
    dense = _random_complex(rng, (n, n))
    dense[rng.random((n, n)) > density] = 0.0
    return CSRMatrix.from_dense(dense)


def test_sketch_av_identity_m1():
    rng = np.random.default_rng(13)
    A = _random_sparse(rng, 50, density=0.2)
    b = _random_complex(rng, 50)
    fac = arnoldi_build(A, b, 1)
    S = sketch_new(50, 20, seed=3)
    SV = sketch_apply(S, fac.V[:, 0])[:, np.newaxis]
    s_next = sketch_apply(S, fac.v_next)
    got = sketch_av_from_arnoldi(S, fac, SV, s_next)
    want = sketch_apply(S, csr_matvec(A, fac.V[:, 0]))
    assert np.linalg.norm(got[:, 0] - want) <= 1e-12 * np.linalg.norm(want)


def test_sketch_av_identity_large():
    rng = np.random.default_rng(14)
    A = _random_sparse(rng, 300)
    b = _random_complex(rng, 300)
    for mode in ("full", MODE_TRUNCATED):
        fac = arnoldi_build(A, b, 40, mode=mode)
        S = sketch_new(300, 120, seed=4)
        SV = np.column_stack([sketch_apply(S, fac.V[:, j]) for j in range(40)])
        s_next = sketch_apply(S, fac.v_next)
        c = Counters()
        got = sketch_av_from_arnoldi(S, fac, SV, s_next)
        assert c.snapshot() == (0, 0, 0)  # zero additional sketches
        for j in range(40):
            want = sketch_apply(S, csr_matvec(A, fac.V[:, j]))
            assert np.linalg.norm(got[:, j] - want) <= 1e-11 * max(np.linalg.norm(want), 1)


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(5, 70).filter(lambda N: N & (N - 1)).flatmap(lambda N: st.tuples(
    st.just(N), st.integers(1, N), st.sampled_from([MODE_FULL, MODE_TRUNCATED]),
    st.integers(1, 8), st.one_of(st.just(None), st.integers(1, N)),
    st.integers(0, 2**32 - 1))))
def test_sketch_av_identity_property(case):
    # S A V_m = (S V_m) H_m + h (S v_next) e_m^T for both Arnoldi modes, at
    # non-power-of-two N, with s small or (None) the padded length
    N, m, mode, t, s, seed = case
    rng = np.random.default_rng(seed)
    dense = _random_complex(rng, (N, N))
    dense[rng.random((N, N)) > 0.3] = 0.0
    A = CSRMatrix.from_dense(dense)
    fac = arnoldi_build(A, _random_complex(rng, N), m, mode=mode, t=t)
    S = sketch_new(N, s or 1 << (N - 1).bit_length(), seed)
    assert S.is_isometry == (s is None)
    SV = np.column_stack([sketch_apply(S, fac.V[:, j]) for j in range(fac.m)])
    s_next = None if fac.breakdown is not None else sketch_apply(S, fac.v_next)
    got = sketch_av_from_arnoldi(S, fac, SV, s_next)
    want = sketch_dense(S) @ dense @ fac.V
    # the Arnoldi relation holds to O(sqrt(m) eps ||A||) and ||S||_2 <= sqrt(pad/s)
    bound = (100 * fac.m * np.finfo(float).eps * np.sqrt(S.pad / S.s)
             * np.linalg.norm(dense, 2) * max(1.0, np.linalg.norm(fac.V, 2)))
    assert np.linalg.norm(got - want) <= bound


def test_sketch_av_breakdown_case():
    A = CSRMatrix.identity(8)
    fac = arnoldi_build(A, np.ones(8, dtype=np.complex128), 3)
    assert fac.breakdown is not None
    S = sketch_new(8, 8, seed=0)
    SV = np.column_stack([sketch_apply(S, fac.V[:, j]) for j in range(fac.m)])
    got = sketch_av_from_arnoldi(S, fac, SV, None)
    np.testing.assert_allclose(got, SV @ fac.square_h(), atol=1e-14)


def test_sketch_av_missing_cache():
    rng = np.random.default_rng(15)
    A = _random_sparse(rng, 40, density=0.3)
    fac = arnoldi_build(A, _random_complex(rng, 40), 5)
    S = sketch_new(40, 16, seed=1)
    SV = np.zeros((16, 5), dtype=np.complex128)
    with pytest.raises(DimensionMismatchError):
        sketch_av_from_arnoldi(S, fac, SV, None)
    with pytest.raises(DimensionMismatchError):
        sketch_av_from_arnoldi(S, fac, SV[:, :3], np.zeros(16))


def test_estimate_epsilon_full_sampling():
    S = sketch_new(32, 32, seed=0)
    rng = np.random.default_rng(16)
    vecs = [_random_complex(rng, 32) for _ in range(10)]
    assert estimate_epsilon(S, vecs) <= 1e-12


def test_estimate_epsilon_definition():
    S = sketch_new(8, 8, seed=0)
    v = np.zeros(8, dtype=np.complex128)
    v[0] = 1.0
    sv = np.zeros(8, dtype=np.complex128)
    sv[0] = np.sqrt(1.21)
    assert estimate_epsilon(S, [v], sketched=[sv]) == pytest.approx(0.21)


def test_estimate_epsilon_clamped_and_errors():
    S = sketch_new(8, 8, seed=0)
    v = np.ones(8, dtype=np.complex128)
    sv = 10.0 * np.ones(8, dtype=np.complex128)
    assert estimate_epsilon(S, [v], sketched=[sv]) == 0.99
    with pytest.raises(ValueError):
        estimate_epsilon(S, [])
    with pytest.raises(ValueError):
        estimate_epsilon(S, [np.zeros(8)])


def test_estimate_epsilon_monte_carlo_range():
    rng = np.random.default_rng(17)
    for seed in range(20):
        S = sketch_new(4096, 400, seed=seed)
        vecs = [_random_complex(rng, 4096) for _ in range(20)]
        eps = estimate_epsilon(S, vecs)
        assert 0.0 < eps < 0.9
