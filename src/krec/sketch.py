"""Subsampled randomized discrete cosine transform sketching.

The operator maps C^N -> C^s as  v |-> sqrt(N'/s) * (DCT(sign * pad(v)))[rows]
where N' is the next power of two >= N, pad is zero-padding, sign is a
Rademacher diagonal and DCT is the orthonormal type-II cosine transform.
Padding and the orthonormal transform are isometric, so the subspace
embedding semantics are unaffected by non-power-of-two N.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DimensionMismatchError


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class SketchOperator:
    N: int
    s: int
    seed: int
    signs: np.ndarray  # length N, entries +-1
    rows: np.ndarray   # length s, sorted distinct indices into [0, pad)
    pad: int           # padded power-of-two length N' >= N


def sketch_new(N, s, seed):
    """Draw a seeded sketching operator; identical seeds give identical operators."""
    pad = _next_pow2(N)
    if not 0 < s <= pad:
        raise DimensionMismatchError(f"sketch dimension s={s} must be in (0, {pad}]")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=N) * 2.0 - 1.0
    rows = np.sort(rng.choice(pad, size=s, replace=False))
    return SketchOperator(N=int(N), s=int(s), seed=int(seed), signs=signs,
                          rows=rows.astype(np.int64), pad=pad)


def sketch_apply(S, v, counters=None):
    """Apply the sketch to a single vector, incrementing the sketch counter."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (S.N,):
        raise DimensionMismatchError(f"vector of length {v.shape} incompatible with N={S.N}")
    if counters is not None:
        counters.add_sketches()
    buf = np.zeros(S.pad, dtype=np.complex128)
    buf[: S.N] = S.signs * v
    y = scipy.fft.dct(buf, type=2, norm="ortho")
    return np.sqrt(S.pad / S.s) * y[S.rows]


def sketch_dense(S):
    """Assemble the explicit s x N matrix of the operator (test oracle; small N only)."""
    r = np.arange(S.pad)[:, np.newaxis]
    c = np.arange(S.pad)[np.newaxis, :]
    C = np.sqrt(2.0 / S.pad) * np.cos(np.pi * (2 * c + 1) * r / (2 * S.pad))
    C[0, :] /= np.sqrt(2.0)
    M = np.sqrt(S.pad / S.s) * C[S.rows, : S.N] * S.signs[np.newaxis, :]
    return M.astype(np.complex128)


def sketch_av_from_arnoldi(S, fac, SV, s_next):
    """Recover S @ A @ V_m from cached basis sketches via the Arnoldi relation.

    SV holds the sketches of the basis columns (s x m) and s_next the sketch
    of v_next; no additional sketch applications are performed.  The identity
    S A V_m = (S V_m) H_m + h_tail * (S v_next) e_m^T is exact, so this also
    holds for truncated (non-orthogonal) bases.
    """
    SV = np.asarray(SV)
    if SV.shape != (S.s, fac.m):
        raise DimensionMismatchError("cached basis sketches have wrong shape")
    if fac.breakdown is None:
        if s_next is None or np.shape(s_next) != (S.s,):
            raise DimensionMismatchError("missing cached sketch of v_next")
        s_next = np.asarray(s_next)
    return fac.image(SV, s_next)


def estimate_epsilon(S, vectors, sketched=None):
    """Embedding-distortion estimate max_j |  ||S v_j||^2 / ||v_j||^2 - 1 |.

    Pre-sketched vectors may be passed to avoid re-sketching.  The result is
    clamped to [0, 0.99] so that 1/sqrt(1-eps) stays finite.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("need at least one vector")
    worst = 0.0
    for j, v in enumerate(vectors):
        nv = np.linalg.norm(v)
        if nv == 0:
            raise ValueError(f"vector {j} is zero")
        sv = sketched[j] if sketched is not None else sketch_apply(S, v)
        ratio = (np.linalg.norm(sv) / nv) ** 2
        worst = max(worst, abs(ratio - 1.0))
    return min(worst, 0.99)
