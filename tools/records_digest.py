"""Digest of the per-problem records of every benchmark sequence.

Runs ``Workload.spec(method, seed)`` from ``seqbench/workloads.py`` for the
four workload methods, the three workloads and seeds 0-2, and plain
``srfom`` (the srfom_stab spec with ``method="srfom"``), whose QR-whitened
sketched path no workload runs, and prints one line per sequence: workload, method, seed, the number of problems, the
sequence's summed matvecs, inner products and sketches (``mv=``, ``ip=``,
``sk=``) and two SHA-256 digests over its records:

- ``work=`` over (m_used, matvecs, sketches, converged, ell_used, error),
  the work done, which a change to what is charged leaves alone;
- ``all=`` over the full record key: the work, inner_products,
  repr(relerr) and repr(estimate_final).

Two trees that print the same lines produce the same records bit for bit,
so a refactor that must not change behaviour is checked by running this
script on both and comparing the output; a change that alters only what is
charged shows as equal ``work=`` with another ``ip=``.  The adaptive stop
test can flip on rounding, so run it with one BLAS thread:

    OMP_NUM_THREADS=1 python tools/records_digest.py
"""

import hashlib
import os
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "seqbench")]

from krec.driver import run_sequence  # noqa: E402
from workloads import METHODS, WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2)


def record_key(rec):
    """The fields of a record that a behaviour-preserving change keeps, wall time aside."""
    return (rec.m_used, rec.matvecs, rec.inner_products, rec.sketches, rec.converged,
            rec.ell_used, rec.error, repr(rec.relerr), repr(rec.estimate_final))


def work_key(rec):
    """The work a record shows, whatever the charge law: no inner products, no rounding."""
    return (rec.m_used, rec.matvecs, rec.sketches, rec.converged, rec.ell_used, rec.error)


def _digest(records, key):
    digest = hashlib.sha256()
    for rec in records:
        digest.update(repr(key(rec)).encode())
    return digest.hexdigest()[:16]


def sequence_spec(workload, method, seed):
    """The workload's spec for method; srfom takes the srfom_stab settings."""
    if method == "srfom":
        return replace(WORKLOADS[workload].spec("srfom_stab", seed), method="srfom")
    return WORKLOADS[workload].spec(method, seed)


def sequence_digest(workload, method, seed):
    """One output line: the sequence's name, its length, its summed counters and
    the digests of its work and of its full records."""
    records = run_sequence(sequence_spec(workload, method, seed))
    mv, ip, sk = (sum(getattr(r, name) for r in records)
                  for name in ("matvecs", "inner_products", "sketches"))
    return (f"{workload} {method} seed={seed} problems={len(records)} mv={mv} ip={ip} "
            f"sk={sk} work={_digest(records, work_key)} all={_digest(records, record_key)}")


def main():
    for workload in WORKLOADS:
        for method in (*METHODS, "srfom"):
            for seed in SEEDS:
                print(sequence_digest(workload, method, seed), flush=True)


if __name__ == "__main__":
    main()
