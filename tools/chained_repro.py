"""Chained-exp rFOM reproducer: the paper's time-stepping setting.

Runs rfom on advdiff2d n=32 (N = 1024) with f = exp(0.01 z), k=20 and
chained right-hand sides (each problem's approximant is the next b), adaptive
with reltol 1e-9 and d=10, over 15 problems, for seeds 0-9.  Each b after the
first lies in the previous [U, V_m], so [U, V_m] is near-dependent and rFOM's
whitening is truncated on some problems.  One line per seed: the sequence's
summed matvecs (``mv=``), its failed problems (``failed=``), the worst relerr
against the dense reference (``worst_relerr=``) and the number of problems
whose whitening was truncated (``ell=``).  The adaptive stop test can flip on
rounding, so run it with one BLAS thread:

    OMP_NUM_THREADS=1 python tools/chained_repro.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from krec import AdaptiveM, GeneratorSource, SequenceSpec, exp_scaled  # noqa: E402
from krec.driver import run_sequence  # noqa: E402

SEEDS = range(10)


def chained_spec(seed):
    """The chained sequence of one seed."""
    return SequenceSpec(
        function=exp_scaled(0.01), method="rfom", k=20, num_problems=15,
        matrix_source=GeneratorSource("advdiff2d", {"n": 32}), seed=seed,
        rhs_rule="chain", m=AdaptiveM(reltol=1e-9, d=10))


def seed_line(seed):
    """One output line: the seed, its summed matvecs, failed problems, worst
    relerr and the number of truncated whitenings."""
    records = run_sequence(chained_spec(seed))
    mv = sum(r.matvecs for r in records)
    failed = sum(1 for r in records if r.error is not None or not r.converged)
    worst = max((r.relerr for r in records if r.relerr is not None), default=float("nan"))
    ell = sum(1 for r in records if r.ell_used is not None)
    return f"seed={seed} mv={mv} failed={failed} worst_relerr={worst:.2g} ell={ell}"


def main():
    for seed in SEEDS:
        print(seed_line(seed), flush=True)


if __name__ == "__main__":
    main()
