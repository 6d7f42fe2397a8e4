"""Reference solutions f(A)b: the dense oracle and its process-wide factor cache."""

import hashlib
from collections import OrderedDict

import numpy as np
import scipy.linalg


class _FactorCache:
    """Oracle factorizations shared by content within one process, bounded in bytes.

    A sequence that meets the same matrices again (another method, or another
    run of the same spec) reuses their factorizations, which are pure
    functions of (f, A), so every reference stays bit-identical.  An entry is
    a (kind, tuple of arrays) state of ``DenseOracle``.  The least recently
    used entries go first once the bound is passed.
    """

    # room for 26 eig states of an N=400 matrix (W and the LU of W, 5.1 MB each)
    MAX_BYTES = 2**27

    def __init__(self):
        self._entries = OrderedDict()  # key -> (state, bytes), least recent first
        self._bytes = 0

    @staticmethod
    def key(f, A):
        digest = hashlib.blake2b(digest_size=16)
        for a in (A.row_offsets, A.col_indices, A.values):
            digest.update(a)
        return f.kind, f.tau, A.shape, digest.digest()

    def get(self, key):
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries.move_to_end(key)
        return hit[0]

    def put(self, key, state):
        size = sum(a.nbytes for a in state[1])
        if size > self.MAX_BYTES:
            return
        while self._bytes + size > self.MAX_BYTES:
            self._bytes -= self._entries.popitem(last=False)[1][1]
        self._entries[key] = (state, size)
        self._bytes += size


_FACTORS = _FactorCache()


class DenseOracle:
    """Dense reference solutions f(A)b with a per-epoch cached factorization.

    The factorization of each matrix is looked up in a process-wide cache by
    content before it is computed.
    """

    def __init__(self, f, cap=1500):
        self.f = f
        self.cap = cap
        self._epoch = object()
        self._state = None

    def set_matrix(self, A, epoch):
        if A.nrows > self.cap:
            self._state = None
            self._epoch = epoch
            return
        if epoch == self._epoch and self._state is not None:
            return
        key = _FactorCache.key(self.f, A)
        self._state = _FACTORS.get(key)
        if self._state is None:
            self._state = self._factor(A.to_dense())
            _FACTORS.put(key, self._state)
        self._epoch = epoch

    def _factor(self, dense):
        if self.f.kind == "inv":
            return "lu", scipy.linalg.lu_factor(dense)
        if self.f.kind == "exp":
            return "expm", (scipy.linalg.expm(self.f.tau * dense),)
        lam, W = np.linalg.eig(dense)
        self.f.check_spectrum(lam)
        return "eig", (lam, W, *scipy.linalg.lu_factor(W))

    def solve(self, b):
        if self._state is None:
            return None
        kind, data = self._state
        if kind == "lu":
            return scipy.linalg.lu_solve(data, b)
        if kind == "expm":
            return data[0] @ b
        lam, W, lu, piv = data
        return W @ (self.f(lam) * scipy.linalg.lu_solve((lu, piv), b))


def oracle_exact(A, b, f):
    """One-shot dense reference f(A)b; None when A exceeds the size cap."""
    oracle = DenseOracle(f)
    oracle.set_matrix(A, epoch=0)
    return oracle.solve(np.asarray(b, dtype=np.complex128))
