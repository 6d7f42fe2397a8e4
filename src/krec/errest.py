"""Sketched a-posteriori error estimation by difference of iterates.

The estimate works entirely with short coefficient vectors and sketched
basis matrices; no N-length vectors are touched.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .sketch import estimate_epsilon


@dataclass(frozen=True)
class ErrorEstimate:
    value: float         # (1-eps)^{-1/2} * || SV_big (y_big - padded y_small) ||
    epsilon_used: float
    d: int
    m_low: int
    m_high: int


def pad_coeffs(y_small, m_low, m_high, aug_cols):
    """Zero-pad coefficients from cycle length m_low to m_high.

    The pad goes where a [V_m, U] basis puts the new Krylov coefficients,
    before the aug_cols augmentation ones.  The driver's bases put U first
    and pad at the end instead.
    """
    y_small = np.asarray(y_small)
    if y_small.shape[0] != m_low + aug_cols:
        raise DimensionMismatchError("y_small length inconsistent with m_low and aug_cols")
    pad = np.zeros(m_high - m_low, dtype=y_small.dtype)
    return np.concatenate([y_small[:m_low], pad, y_small[m_low:]])


def estimate_diff(SV_big, y_big, y_small_padded, epsilon, m_low=0, m_high=0):
    """Iterate-difference estimate (1-eps)^{-1/2} ||SV_big (y_big - y_pad)||."""
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    SV_big = np.asarray(SV_big)
    y_big = np.asarray(y_big)
    y_small_padded = np.asarray(y_small_padded)
    if y_big.shape != y_small_padded.shape or SV_big.shape[1] != y_big.shape[0]:
        raise DimensionMismatchError("coefficient vectors must align with SV_big columns")
    value = np.linalg.norm(SV_big @ (y_big - y_small_padded)) / np.sqrt(1.0 - epsilon)
    return ErrorEstimate(value=float(value), epsilon_used=float(epsilon),
                         d=m_high - m_low, m_low=m_low, m_high=m_high)


def estimate_diff_lower(SV_big, y_big, y_small_padded, epsilon):
    """Diagnostic lower bound (1+eps)^{-1/2} ||SV_big (y_big - y_pad)||."""
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    return float(np.linalg.norm(np.asarray(SV_big) @ (np.asarray(y_big) - np.asarray(y_small_padded)))
                 / np.sqrt(1.0 + epsilon))


def epsilon_policy(mode, value=0.99, S=None, vectors=None, sketched=None):
    """Resolve the embedding constant used by the estimator.

    mode "fixed" returns the given constant; mode "tracked" returns the
    distortion estimate from the recorded basis columns, clamped to [0, 0.99].
    """
    if mode == "fixed":
        return float(value)
    if mode == "tracked":
        return estimate_epsilon(S, vectors, sketched=sketched)
    raise ValueError(f"unknown epsilon policy {mode!r}")
