"""Checks of the program's outputs against the benchmark's own references.

``krec.driver.run_sequence`` builds one ``DenseOracle(f, cap=...)`` per
sequence, calls ``set_matrix(A, epoch)`` before each problem and
``solve(b)`` after it, and records the relative error of the approximant
against what ``solve`` returns.  The benchmark puts its own class in place of
``DenseOracle`` for the length of a run:

* ``capture_inputs`` runs a one-step FOM sequence with a recording oracle to
  learn each problem's matrix and right-hand side, which depend on the
  sequence seed and not on the method;
* ``ReferenceOracle`` answers ``solve`` from references computed beforehand,
  so no reference is solved inside a timed region.

If the driver stops handing approximants to ``DenseOracle``, the benchmark
raises ``HookMissing`` instead of reporting records without an error.
"""

import contextlib
import dataclasses
import hashlib

import numpy as np
import scipy.sparse

from references import reference_solver

ERROR_FACTOR = 10.0  # an approximant must be within this multiple of reltol


class HookMissing(RuntimeError):
    """The driver no longer reports relative errors through DenseOracle."""


def _key(b):
    return hashlib.blake2b(np.ascontiguousarray(b, dtype=np.complex128),
                           digest_size=16).digest()


@contextlib.contextmanager
def oracle_hook(factory):
    """Make krec.driver build its oracle with factory(f, cap=...)."""
    import krec.driver

    if not hasattr(krec.driver, "DenseOracle"):
        raise HookMissing("krec.driver has no DenseOracle to substitute")
    original = krec.driver.DenseOracle
    krec.driver.DenseOracle = factory
    try:
        yield
    finally:
        krec.driver.DenseOracle = original


class _Recorder:
    def __init__(self, log):
        self.log = log
        self.current = None

    def set_matrix(self, A, epoch):
        self.current = (epoch, A)

    def solve(self, b):
        epoch, A = self.current
        self.log.append((epoch, A, np.array(b, dtype=np.complex128)))
        return None


def capture_inputs(workload, seed):
    """Each problem's (epoch, matrix, right-hand side), as the driver poses it."""
    import krec.driver

    log = []
    spec = dataclasses.replace(workload.spec("fom", seed), m=1)
    with oracle_hook(lambda f, cap=0: _Recorder(log)):
        krec.driver.run_sequence(spec)
    if len(log) != workload.num_problems:
        raise HookMissing(f"the oracle saw {len(log)} of {workload.num_problems} problems")
    return log


def compute_references(workload, inputs):
    """Map each right-hand side to (epoch, f(A) b), one factorization per matrix."""
    f = workload.function
    table = {}
    solver, solver_epoch = None, object()
    for epoch, A, b in inputs:
        if epoch != solver_epoch:
            A = scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets),
                                        shape=(A.nrows, A.ncols))
            solver, solver_epoch = reference_solver(f.kind, A, tau=f.tau), epoch
        table[_key(b)] = (epoch, solver(b))
    return table


class ReferenceOracle:
    """Stand-in for krec.driver.DenseOracle that looks references up."""

    def __init__(self, table):
        self.table = table
        self.epoch = None
        self.solves = 0

    def set_matrix(self, A, epoch):
        self.epoch = epoch

    def solve(self, b):
        try:
            epoch, x = self.table[_key(b)]
        except KeyError:
            raise HookMissing("the oracle was asked about a right-hand side "
                              "the benchmark did not capture") from None
        if epoch != self.epoch:
            raise HookMissing(f"right-hand side of epoch {epoch} posed on epoch {self.epoch}")
        self.solves += 1
        return x


class NullOracle:
    """Stand-in that solves nothing, for passes whose errors are not checked."""

    def __init__(self, f=None, cap=0):
        pass

    def set_matrix(self, A, epoch):
        pass

    def solve(self, b):
        return None


def counters_of(records):
    """The exact per-problem work of a sequence, to compare across repetitions."""
    return [(r.m_used, r.matvecs, r.inner_products, r.sketches) for r in records]


def check_records(workload, method, records, solves):
    """Return (failed operations, faults in the operations that did not fail).

    A problem the program reports as failed (not converged, or an error) is a
    failed operation.  A problem reported as solved must have a relative
    error within ERROR_FACTOR * reltol of the reference and obey the counter
    laws of its method; anything else is a fault.
    """
    # the driver asks the oracle about every problem that produced an approximant
    answered = [r for r in records if r.error is None]
    if solves != len(answered) or any(r.relerr is None for r in answered):
        raise HookMissing(f"{method}: {solves} reference solves for {len(answered)} "
                          "approximants; the driver no longer reports relerr through "
                          "DenseOracle")
    limit = ERROR_FACTOR * workload.m.reltol
    failed, faults = 0, []
    for r in records:
        where = f"{method} problem {r.problem_index}"
        if r.error is not None or not r.converged:
            failed += 1
            continue
        if not r.relerr <= limit:
            faults.append(f"{where}: relerr {r.relerr:.3e} above {limit:.1e}")
        if method in ("fom", "sfom"):
            if r.matvecs != r.m_used + 1:
                faults.append(f"{where}: {r.matvecs} matvecs for m_used={r.m_used}")
        elif r.matvecs < r.m_used + 1:
            faults.append(f"{where}: {r.matvecs} matvecs below m_used+1={r.m_used + 1}")
        if method == "sfom" and r.sketches != r.m_used + 1:
            faults.append(f"{where}: {r.sketches} sketches for m_used={r.m_used}")
    return failed, faults
