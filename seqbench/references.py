"""Reference solutions f(A) b computed with scipy alone.

These do not use ``krec``: the check of an approximant should not share code
with the approximant.  Each solver factorizes its matrix once and is then
applied to every right-hand side posed on that matrix.

* inv: sparse LU (SuperLU).
* exp(tau z): ``expm_multiply`` (Al-Mohy & Higham, SISC 2011).
* invsqrt: the principal square root by the Schur method (``sqrtm``; Higham,
  Functions of Matrices, ch. 6), then one LU solve.  Dense, so meant for the
  moderate N of the invsqrt workload.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


def reference_solver(kind, A, tau=1.0):
    """Return b -> f(A) b for a scipy sparse matrix A and f named by kind."""
    A = scipy.sparse.csr_matrix(A, dtype=np.complex128)
    if kind == "inv":
        lu = scipy.sparse.linalg.splu(A.tocsc())
        return lu.solve
    if kind == "exp":
        tA = (tau * A).tocsr()
        return lambda b: scipy.sparse.linalg.expm_multiply(tA, b)
    if kind == "invsqrt":
        root = scipy.linalg.sqrtm(A.toarray())
        factors = scipy.linalg.lu_factor(root)
        return lambda b: scipy.linalg.lu_solve(factors, b)
    raise ValueError(f"no reference for function kind {kind!r}")
