import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krec import (
    MODE_FULL,
    MODE_TRUNCATED,
    Counters,
    CSRMatrix,
    arnoldi_build,
    arnoldi_extend,
    gen_neumann2d,
    gen_twocluster,
)

_EPS = np.finfo(float).eps


def _random_sparse(rng, n, density=0.05, shift=0.0):
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense += shift * np.eye(n)
    return CSRMatrix.from_dense(dense)


def _arnoldi_residual(A, fac):
    lhs = A.to_dense() @ fac.V
    rhs = fac.V @ fac.square_h()
    if fac.breakdown is None:
        rhs[:, -1] += fac.h_tail * fac.v_next
    return np.linalg.norm(lhs - rhs)


def test_downshift_matrix():
    dense = np.zeros((4, 4), dtype=np.complex128)
    dense[1, 0] = dense[2, 1] = dense[3, 2] = 1.0
    A = CSRMatrix.from_dense(dense)
    b = np.zeros(4, dtype=np.complex128)
    b[0] = 1.0
    fac = arnoldi_build(A, b, 3)
    np.testing.assert_allclose(fac.V, np.eye(4, 3), atol=1e-14)
    want_h = np.zeros((4, 3))
    want_h[1, 0] = want_h[2, 1] = want_h[3, 2] = 1.0
    np.testing.assert_allclose(fac.H, want_h, atol=1e-14)
    assert fac.h_tail == pytest.approx(1.0)


def test_identity_breakdown():
    A = CSRMatrix.identity(5)
    b = np.ones(5, dtype=np.complex128)
    fac = arnoldi_build(A, b, 3)
    assert fac.breakdown == 1
    assert fac.m == 1
    np.testing.assert_allclose(fac.square_h(), [[1.0]], atol=1e-14)
    assert fac.h_tail == 0.0


def test_residual_invariant_both_modes():
    rng = np.random.default_rng(0)
    A = _random_sparse(rng, 200)
    b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    scale = np.linalg.norm(A.to_dense(), 1) * np.sqrt(200)
    for mode in (MODE_FULL, MODE_TRUNCATED):
        fac = arnoldi_build(A, b, 50, mode=mode)
        assert _arnoldi_residual(A, fac) <= 1e-10 * scale


def test_full_mode_orthonormality():
    rng = np.random.default_rng(1)
    A = _random_sparse(rng, 150)
    b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    fac = arnoldi_build(A, b, 40)
    assert np.linalg.norm(fac.V.conj().T @ fac.V - np.eye(40)) <= 1e-10
    assert np.linalg.norm(fac.V.conj().T @ fac.v_next) <= 1e-10
    np.testing.assert_allclose(fac.V[:, 0], b / np.linalg.norm(b), atol=1e-14)


def test_truncated_mode_structure():
    rng = np.random.default_rng(2)
    A = _random_sparse(rng, 150)
    b = rng.standard_normal(150) + 1j * rng.standard_normal(150)
    t = 2
    fac = arnoldi_build(A, b, 30, mode=MODE_TRUNCATED, t=t)
    np.testing.assert_allclose(np.linalg.norm(fac.V, axis=0), 1.0, atol=1e-12)
    H = fac.H
    for j in range(30):
        for i in range(j - t):
            assert H[i, j] == 0.0


def test_extend_matches_build():
    rng = np.random.default_rng(3)
    A = _random_sparse(rng, 120)
    b = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    for mode in (MODE_FULL, MODE_TRUNCATED):
        short = arnoldi_build(A, b, 10, mode=mode)
        extended = arnoldi_extend(short, A, 20)
        rebuilt = arnoldi_build(A, b, 20, mode=mode)
        assert np.linalg.norm(extended.V - rebuilt.V) <= 1e-12
        assert np.linalg.norm(extended.H - rebuilt.H) <= 1e-12
        np.testing.assert_allclose(extended.v_next, rebuilt.v_next, atol=1e-12)


def test_extend_same_m_is_noop():
    rng = np.random.default_rng(4)
    A = _random_sparse(rng, 50)
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    fac = arnoldi_build(A, b, 8)
    assert arnoldi_extend(fac, A, 8) is fac


def test_extend_past_breakdown():
    A = CSRMatrix.identity(5)
    fac = arnoldi_build(A, np.ones(5, dtype=np.complex128), 3)
    assert fac.breakdown == 1
    assert arnoldi_extend(fac, A, 10) is fac


def _snapshot(fac):
    # w_next too: an extension projects its first A v_j in place
    return fac.V.copy(), fac.H.copy(), fac.v_next.copy(), fac.w_next.copy()


def _unchanged(fac, snapshot):
    return all(np.array_equal(got, want)
               for got, want in zip((fac.V, fac.H, fac.v_next, fac.w_next), snapshot))


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_TRUNCATED])
def test_extension_that_fits_is_written_in_place(mode):
    rng = np.random.default_rng(7)
    A = _random_sparse(rng, 80)
    b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    # 10 columns fill the build's buffer; the extension to 12 doubles it to 20
    fac = arnoldi_extend(arnoldi_build(A, b, 10, mode=mode), A, 12)
    before = _snapshot(fac)
    child = arnoldi_extend(fac, A, 20)
    assert np.shares_memory(child.V, fac.V)
    assert _unchanged(fac, before)
    assert np.array_equal(child.V[:, :12], fac.V)
    rebuilt = arnoldi_build(A, b, 20, mode=mode)
    assert np.linalg.norm(child.V - rebuilt.V) <= 1e-12
    assert np.linalg.norm(child.H - rebuilt.H) <= 1e-12


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_TRUNCATED])
def test_second_extension_of_a_parent_leaves_the_first_child(mode):
    rng = np.random.default_rng(8)
    A, B = _random_sparse(rng, 80), _random_sparse(rng, 80)
    b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    fac = arnoldi_extend(arnoldi_build(A, b, 10, mode=mode), A, 12)
    parent = _snapshot(fac)
    first = arnoldi_extend(fac, A, 16)
    assert np.shares_memory(first.V, fac.V)
    child = _snapshot(first)
    # the buffer holds the first child's 16 columns, so these copy fac.V
    second = arnoldi_extend(fac, A, 20)
    other = arnoldi_extend(fac, B, 18)
    for sibling in (second, other):
        assert not np.shares_memory(sibling.V, first.V)
        assert np.array_equal(sibling.V[:, :12], fac.V)
    assert _unchanged(fac, parent) and _unchanged(first, child)
    bound = 30 * np.sqrt(20) * _EPS * np.linalg.norm(A.to_dense(), 2)
    assert _arnoldi_residual(A, first) <= bound and _arnoldi_residual(A, second) <= bound
    # the first child is still the last writer of its buffer
    grandchild = arnoldi_extend(first, A, 20)
    assert np.shares_memory(grandchild.V, first.V)
    assert np.linalg.norm(grandchild.V - second.V) <= 1e-12


def test_shrink_rejected():
    rng = np.random.default_rng(5)
    A = _random_sparse(rng, 30)
    fac = arnoldi_build(A, np.ones(30, dtype=np.complex128), 8)
    with pytest.raises(ValueError):
        arnoldi_extend(fac, A, 5)


def test_counter_law_full():
    rng = np.random.default_rng(6)
    A = _random_sparse(rng, 100)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    for m in (5, 17, 40):
        c = Counters()
        arnoldi_build(A, b, m, counters=c)
        mv, ip, sk = c.snapshot()
        assert mv == m + 1
        assert ip == m * m + 3 * m
        assert sk == 0


def test_counter_law_truncated():
    rng = np.random.default_rng(7)
    A = _random_sparse(rng, 100)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    for t in (2, 4):
        for m in (6, 25):
            c = Counters()
            arnoldi_build(A, b, m, mode=MODE_TRUNCATED, t=t, counters=c)
            mv, ip, _ = c.snapshot()
            assert mv == m + 1
            assert ip == sum(min(j + 1, t) + 1 for j in range(m))
            assert ip <= m * (t + 1)


def test_counter_law_extend_equals_build():
    rng = np.random.default_rng(8)
    A = _random_sparse(rng, 80)
    b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    c1 = Counters()
    fac = arnoldi_build(A, b, 10, counters=c1)
    arnoldi_extend(fac, A, 25, counters=c1)
    c2 = Counters()
    arnoldi_build(A, b, 25, counters=c2)
    assert c1.snapshot() == c2.snapshot()


def test_shift_invariance():
    rng = np.random.default_rng(9)
    A = _random_sparse(rng, 100)
    sigma = 3.7 - 0.2j
    Ashift = A.add_scaled_identity(sigma)
    b = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    for mode in (MODE_FULL, MODE_TRUNCATED):
        f1 = arnoldi_build(A, b, 20, mode=mode)
        f2 = arnoldi_build(Ashift, b, 20, mode=mode)
        assert np.linalg.norm(f1.V - f2.V) <= 1e-10
        diff = f2.square_h() - f1.square_h()
        np.testing.assert_allclose(diff, sigma * np.eye(20), atol=1e-10)


def _orth_loss(V):
    return np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1]))


def _counter_law(m, mode, t):
    if mode == MODE_FULL:
        return m * m + 3 * m
    return sum(min(j + 1, t) + 1 for j in range(m))


@st.composite
def _sparse_case(draw):
    """Random complex sparse A (N in 5..70), a start vector, m up to N+3, a mode."""
    N = draw(st.integers(5, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    dense[rng.random((N, N)) > draw(st.floats(0.05, 0.6))] = 0.0
    b = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    mode = draw(st.sampled_from([MODE_FULL, MODE_TRUNCATED]))
    return dense, b, draw(st.integers(1, N + 3)), mode, draw(st.integers(1, 8))


@settings(max_examples=80, deadline=None, database=None)
@given(_sparse_case())
def test_arnoldi_relation_property(case):
    dense, b, m, mode, t = case
    A = CSRMatrix.from_dense(dense)
    fac = arnoldi_build(A, b, m, mode=mode, t=t)
    bound = 30 * np.sqrt(fac.m) * _EPS * np.linalg.norm(dense, 2)
    assert _arnoldi_residual(A, fac) <= bound
    if mode == MODE_FULL:
        assert _orth_loss(fac.V) <= 1e-12
        # the Krylov space of C^N has at most N dimensions
        assert fac.m <= A.nrows and (fac.breakdown is not None or m <= A.nrows)


@settings(max_examples=60, deadline=None, database=None)
@given(_sparse_case(), st.data())
def test_split_extension_charged_as_one_build(case, data):
    dense, b, m, mode, t = case
    A = CSRMatrix.from_dense(dense)
    cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), max_size=4)) if m > 1 else ())
    split = Counters()
    facs = [arnoldi_build(A, b, (cuts + [m])[0], mode=mode, t=t, counters=split)]
    for m_next in cuts[1:] + [m]:
        facs.append(arnoldi_extend(facs[-1], A, m_next, counters=split))
    fac = facs[-1]
    one = Counters()
    whole = arnoldi_build(A, b, m, mode=mode, t=t, counters=one)
    assert split.snapshot() == one.snapshot()
    assert fac.m == whole.m and fac.breakdown == whole.breakdown
    # the later extensions wrote in place past every earlier factorization
    bound = 30 * np.sqrt(fac.m) * _EPS * np.linalg.norm(dense, 2)
    assert all(_arnoldi_residual(A, f) <= bound for f in facs)
    if whole.breakdown is None:
        assert one.snapshot() == (m + 1, _counter_law(m, mode, t), 0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(5, 70).flatmap(lambda N: st.tuples(
    st.just(N), st.integers(1, min(N, 12)), st.integers(1, N + 3),
    st.sampled_from([MODE_FULL, MODE_TRUNCATED]), st.integers(0, 2**32 - 1))))
@example((40, 10, 10, MODE_TRUNCATED, 3717))  # one window pass left h = 3.6e-13 here
def test_breakdown_at_planted_invariant_subspace(case):
    # A = P diag(B_1, B_2) P^T with B_1 dense r x r, and b in the range of
    # the first block: the Krylov space is that r-dimensional invariant
    # subspace, so the build breaks down at step r exactly
    N, r, m, mode, seed = case
    rng = np.random.default_rng(seed)
    dense = np.zeros((N, N), dtype=np.complex128)
    dense[:r, :r] = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    rest = rng.standard_normal((N - r, N - r)) + 1j * rng.standard_normal((N - r, N - r))
    dense[r:, r:] = np.where(rng.random((N - r, N - r)) < 0.2, rest, 0.0)
    b = np.zeros(N, dtype=np.complex128)
    b[:r] = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    perm = rng.permutation(N)
    A = CSRMatrix.from_dense(dense[np.ix_(perm, perm)])
    # truncated Arnoldi orthogonalizes against all of V only while j <= t
    t = max(r, 2)
    fac = arnoldi_build(A, b[perm], m, mode=mode, t=t)
    if m >= r:
        assert fac.breakdown == r and fac.m == r
        assert fac.v_next is None and fac.h_tail == 0.0
    else:
        assert fac.breakdown is None and fac.m == m


def _mgs2_reference(dense, b, m):
    """Full Arnoldi by modified Gram-Schmidt run twice, one column at a time."""
    V = np.zeros((b.size, m + 1), dtype=np.complex128)
    H = np.zeros((m + 1, m), dtype=np.complex128)
    V[:, 0] = b / np.linalg.norm(b)
    for j in range(m):
        w = dense @ V[:, j]
        for _ in range(2):
            for i in range(j + 1):
                hij = np.vdot(V[:, i], w)
                H[i, j] += hij
                w = w - hij * V[:, i]
        H[j + 1, j] = np.linalg.norm(w)
        V[:, j + 1] = w / H[j + 1, j]
    return V, H


def test_full_kernel_matches_column_mgs2():
    # the block kernel sums its projections in another order than the
    # column loop, so the two agree to rounding, not bit for bit
    rng = np.random.default_rng(10)
    A = _random_sparse(rng, 120, shift=4.0)
    b = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    fac = arnoldi_build(A, b, 30)
    V, H = _mgs2_reference(A.to_dense(), b, 30)
    assert np.linalg.norm(fac.V - V[:, :30]) <= 1e-12
    assert np.linalg.norm(fac.v_next - V[:, 30]) <= 1e-12
    assert np.linalg.norm(fac.H - H) <= 1e-12 * np.linalg.norm(H)


def _truncated_mgs_reference(dense, b, m, t):
    """Truncated Arnoldi by modified Gram-Schmidt over the last t columns, one
    column at a time; a pass that leaves less than 1e-8 of A v_j is repeated."""
    V = np.zeros((b.size, m + 1), dtype=np.complex128)
    H = np.zeros((m + 1, m), dtype=np.complex128)
    V[:, 0] = b / np.linalg.norm(b)
    for j in range(m):
        w = dense @ V[:, j]
        wnorm = np.linalg.norm(w)
        for _ in range(2):
            for i in range(max(0, j + 1 - t), j + 1):
                hij = np.vdot(V[:, i], w)
                H[i, j] += hij
                w = w - hij * V[:, i]
            if np.linalg.norm(w) > 1e-8 * wnorm:
                break
        H[j + 1, j] = np.linalg.norm(w)
        V[:, j + 1] = w / H[j + 1, j]
    return V, H


@pytest.mark.parametrize("t", [2, 8])
def test_truncated_kernel_matches_column_mgs(t):
    rng = np.random.default_rng(11)
    A = _random_sparse(rng, 120, shift=4.0)
    b = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    fac = arnoldi_build(A, b, 30, mode=MODE_TRUNCATED, t=t)
    V, H = _truncated_mgs_reference(A.to_dense(), b, 30, t)
    assert np.linalg.norm(fac.V - V[:, :30]) <= 1e-12
    assert np.linalg.norm(fac.v_next - V[:, 30]) <= 1e-12
    assert np.linalg.norm(fac.H - H) <= 1e-12 * np.linalg.norm(H)


@pytest.mark.parametrize("t", [2, 8])
def test_truncated_pass_repeated_where_it_cancelled(t):
    # A = I + 1e-10 E: the first pass takes v_j out of A v_j and leaves about
    # 1e-10 of it, below 1e-8, so every step takes the second pass, is charged
    # twice, and leaves v_next orthogonal to its window to working precision
    rng = np.random.default_rng(12)
    N, m = 60, 12
    E = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(N)
    dense = np.eye(N) + 1e-10 * E
    A = CSRMatrix.from_dense(dense)
    b = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    counters = Counters()
    fac = arnoldi_build(A, b, 1, mode=MODE_TRUNCATED, t=t, counters=counters)
    assert counters.snapshot()[1] == 2 * (min(1, t) + 1)
    for j in range(2, m + 1):
        before = counters.snapshot()[1]
        fac = arnoldi_extend(fac, A, j, counters=counters)
        assert counters.snapshot()[1] - before == 2 * (min(j, t) + 1)
        window = fac.V[:, max(0, j - t):]
        assert np.linalg.norm(window.conj().T @ fac.v_next) <= 1e-13
    # v_next's direction rests on a remainder of 1e-10, so it is compared with
    # no reference; the Arnoldi relation still holds to rounding
    assert fac.breakdown is None
    assert _arnoldi_residual(A, fac) <= 30 * np.sqrt(m) * _EPS * np.linalg.norm(dense, 2)


def test_orthonormality_at_benchmark_sizes():
    # inv-neumann2d's adaptive growth (10 by 10 up to 150) and
    # invsqrt-twocluster's longest build
    b = np.random.default_rng(1).standard_normal(961) + 0j
    A = gen_neumann2d(31).add_scaled_identity(1e-3)
    fac = arnoldi_build(A, b, 10)
    while fac.m < 150:
        fac = arnoldi_extend(fac, A, fac.m + 10)
    assert fac.m == 150 and _orth_loss(fac.V) <= 1e-13
    A = gen_twocluster(400, seed=11)
    fac = arnoldi_build(A, b[:400], 110)
    assert fac.m == 110 and _orth_loss(fac.V) <= 1e-13
