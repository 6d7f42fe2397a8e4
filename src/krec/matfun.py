"""Scalar functions of small dense matrices: z^{-1/2}, z^{-1}, exp(tau*z).

Each function has one kernel and no fallback: inv is one LU of H, exp is
scaling and squaring (scipy.linalg.expm), and invsqrt is the Schur method,
H = Z T Z*, f(H) = Z (T^{1/2})^{-1} Z* (Higham, Functions of Matrices, ch. 6).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigConvergenceError,
    SingularMatrixError,
)
from .linalg import eigvals_dense, lu_solve

_DOMAIN_TOL = 1e-12
_CERT_SAFETY = 10.0  # margin of the LU spectrum certificate of inv


@dataclass(frozen=True)
class ScalarFunction:
    """One of the supported scalar functions.

    kind is "invsqrt" (principal branch of z^{-1/2}), "inv" (z^{-1}),
    or "exp" (exp(tau*z), tau defaulting to 1).
    """

    kind: str
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in ("invsqrt", "inv", "exp"):
            raise ValueError(f"unknown scalar function kind {self.kind!r}")

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        if self.kind == "invsqrt":
            return 1.0 / np.sqrt(z)  # principal branch, cut on the negative reals
        if self.kind == "inv":
            return 1.0 / z
        return np.exp(self.tau * z)

    def check_spectrum(self, eigenvalues):
        """Raise DomainError if an eigenvalue is too close to the forbidden set."""
        lam = np.asarray(eigenvalues)
        if self.kind == "inv":
            dist = np.abs(lam)
        elif self.kind == "invsqrt":
            # forbidden set: the closed negative real axis
            dist = np.where(lam.real <= 0, np.abs(lam.imag), np.abs(lam))
        else:
            return
        bad = np.nonzero(dist < _DOMAIN_TOL)[0]
        if bad.size:
            raise DomainError(
                f"eigenvalue {lam[bad[0]]} within {_DOMAIN_TOL} of the forbidden set "
                f"of {self.kind}"
            )


INVSQRT = ScalarFunction("invsqrt")
INV = ScalarFunction("inv")
EXP = ScalarFunction("exp")


def exp_scaled(tau):
    return ScalarFunction("exp", tau=tau)


def _inv_solve(f, H, B):
    """H^{-1} B for inv by one partial-pivoted LU of H, with no diagonalization.

    The same LU gives H^{-1}, whose Frobenius norm bounds the spectrum away
    from 0: every eigenvalue has |lambda| >= sigma_min(H) >= 1/||H^{-1}||_F.
    The bound must clear the domain tolerance plus the backward error
    n eps ||H||_F of computed eigenvalues, with a margin of _CERT_SAFETY for
    the rounding in H^{-1}.  When it does not, or the LU has a zero pivot,
    the eigenvalues alone decide whether to raise DomainError.
    """
    n = H.shape[0]
    try:
        Y = lu_solve(H, np.column_stack([B, np.eye(n, dtype=np.complex128)]))
    except SingularMatrixError:
        f.check_spectrum(eigvals_dense(H))
        raise
    slack = _CERT_SAFETY * (_DOMAIN_TOL + n * np.finfo(float).eps * np.linalg.norm(H))
    if not (np.isfinite(slack) and slack * np.linalg.norm(Y[:, -n:]) <= 1.0):
        f.check_spectrum(eigvals_dense(H))
    return Y[:, :-n]


def _apply(f, H, B):
    """f(H) @ B for a square complex H and a block B; DomainError unless finite."""
    if not np.all(np.isfinite(H)):
        raise EigConvergenceError("projected matrix has non-finite entries")
    if f.kind == "inv":
        Y = _inv_solve(f, H, B)
    elif f.kind == "exp":
        Y = scipy.linalg.expm(f.tau * H) @ B
    else:
        T, Z = scipy.linalg.schur(H, output="complex")
        f.check_spectrum(np.diagonal(T))
        R = scipy.linalg.sqrtm(T)  # upper triangular: the principal root of T
        Y = Z @ scipy.linalg.solve_triangular(R, Z.conj().T @ B)
    if not np.all(np.isfinite(Y)):
        raise DomainError(f"{f.kind} is not finite on the projected matrix")
    return Y


def matfun(f, H):
    """Evaluate f(H) for a small square matrix H (see _apply for the kernels)."""
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatchError("matfun requires a square matrix")
    return _apply(f, H, np.eye(H.shape[0], dtype=np.complex128))


def matfun_apply(f, H, c):
    """Compute f(H) @ c; inv and invsqrt never form f(H)."""
    H = np.asarray(H, dtype=np.complex128)
    c = np.asarray(c, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatchError("matfun_apply requires a square matrix")
    if c.shape != (H.shape[0],):
        raise DimensionMismatchError("vector length incompatible with matrix")
    return _apply(f, H, c[:, np.newaxis])[:, 0]
