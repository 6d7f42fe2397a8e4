"""Sparse test-matrix generators and the sparsity-preserving perturbation."""

import numpy as np
import scipy.sparse

from .sparse import CSRMatrix


def gen_neumann2d(n):
    """Five-point Laplacian on an n x n grid with Neumann boundary conditions.

    Boundary stencils reflect across the boundary so that every row sums to
    zero; the matrix is singular (constant null vector) until shifted.
    """
    if n < 2:
        raise ValueError("grid size must be at least 2")
    # 1-D stencil tridiag(-1, 2, -1); reflection doubles the inward entry of
    # the two boundary rows, T[0, 1] and T[n-1, n-2]
    lower, upper = -np.ones(n - 1), -np.ones(n - 1)
    lower[-1] = upper[0] = -2.0
    T = scipy.sparse.diags([lower, 2.0 * np.ones(n), upper], [-1, 0, 1])
    eye = scipy.sparse.identity(n)
    return CSRMatrix.from_scipy(scipy.sparse.kron(eye, T) + scipy.sparse.kron(T, eye))


def gen_advdiff2d(n, peclet=1.0):
    """Centered-difference advection-diffusion operator on the unit square.

    Interior n x n grid with homogeneous Dirichlet boundary, discretizing
    u_t = (Laplace u) - peclet * (u_x + u_y).  The diffusion part is symmetric
    negative definite and the advection part antisymmetric, so the field of
    values lies in the open left half-plane; suitable for exp time stepping.
    """
    if n < 2:
        raise ValueError("grid size must be at least 2")
    h = 1.0 / (n + 1)
    e = np.ones(n)
    D2 = scipy.sparse.diags([e[:-1], -2.0 * e, e[:-1]], [-1, 0, 1]) / h**2
    D1 = scipy.sparse.diags([-e[:-1], e[:-1]], [-1, 1]) / (2.0 * h)
    eye = scipy.sparse.identity(n)
    lap = scipy.sparse.kron(eye, D2) + scipy.sparse.kron(D2, eye)
    adv = scipy.sparse.kron(eye, D1) + scipy.sparse.kron(D1, eye)
    return CSRMatrix.from_scipy(lap - peclet * adv)


def gen_hpd(N, density=0.02, seed=0):
    """Random sparse Hermitian positive definite matrix of order N.

    Diagonally dominant by construction: D + c (R + R*) with D uniform in
    [1, 10] and c chosen from a Gershgorin bound.
    """
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 10.0, size=N)
    nnz = max(1, int(density * N * N))
    rows = rng.integers(0, N, size=nnz)
    cols = rng.integers(0, N, size=nnz)
    vals = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    R = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr()
    Hsym = R + R.conj().T
    radius = np.abs(Hsym).sum(axis=1).max()
    c = 0.4 * d.min() / max(radius, 1e-300)
    return CSRMatrix.from_scipy(scipy.sparse.diags(d) + c * Hsym)


def gen_twocluster(N, nsmall=20, lo=0.07, hi=0.3, bulklo=1.0, bulkhi=10.0,
                   coupling=0.1, density=0.02, seed=0):
    """Sparse non-Hermitian matrix with a cluster of small eigenvalues.

    The diagonal carries nsmall values log-spaced in [lo, hi] and the rest
    log-spaced in [bulklo, bulkhi]; a random sparse complex coupling makes it
    non-Hermitian while keeping the spectrum near the diagonal values (and
    away from the negative real axis).  The small cluster is what a
    recycling subspace of dimension ~nsmall can deflate.
    """
    rng = np.random.default_rng(seed)
    d = np.concatenate([
        np.geomspace(lo, hi, nsmall),
        np.geomspace(bulklo, bulkhi, N - nsmall),
    ]).astype(np.complex128)
    perm = rng.permutation(N)
    d = d[perm]
    nnz = max(1, int(density * N * N))
    rows = rng.integers(0, N, size=nnz)
    cols = rng.integers(0, N, size=nnz)
    vals = (rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)) / np.sqrt(2.0)
    R = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(N, N))
    return CSRMatrix.from_scipy(scipy.sparse.diags(d) + coupling * R.tocsr())


def perturb_sparsity_gaussian(A, scale, seed):
    """A + scale * M with M standard complex Gaussian on the nonzero pattern of A."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if scale == 0:
        return A
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(A.nnz) + 1j * rng.standard_normal(A.nnz)
    return CSRMatrix(A.nrows, A.ncols, A.row_offsets.copy(), A.col_indices.copy(),
                     A.values + scale * noise)


GENERATORS = {
    "neumann2d": gen_neumann2d,
    "advdiff2d": gen_advdiff2d,
    "hpd": gen_hpd,
    "twocluster": gen_twocluster,
}
