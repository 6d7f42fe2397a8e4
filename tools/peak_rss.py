"""Peak resident memory of each method's sequence on one benchmark workload.

Runs ``Workload.spec(method, 0)`` from ``seqbench/workloads.py`` (seed 0,
the seed of README's reference figures), with ``oracle_cap=0`` so that no
dense reference is formed, once per method, each in a fresh Python process,
and prints one line per method: workload, method, the peak resident memory
the sequence adds to the process in MB (``peak_mb=``), and the sequence's
summed Krylov dimension ``m_used=``.
That is the benchmark's memory pass (``seqbench/measure.py``) without its
timed rounds, with one BLAS thread as ``seqbench/run.py`` pins it (each
OpenBLAS thread touches buffers of its own, which adds about 40 MB to
rfom's peak on exp-advdiff2d-large):

    python tools/peak_rss.py exp-advdiff2d-large

The peak is the process's high-water mark after the sequence minus its
resident size before it.  The high-water mark is read as VmHWM from
/proc/self/status, the ru_maxrss of this process image alone: on Linux,
ru_maxrss also keeps the high-water mark of the process that started this
one, so under a large parent, such as a test runner, it would show the
parent's peak instead of the sequence's.  As in the memory pass, a sequence
whose peak stays below the high-water mark the process had before it is an
error: its peak is not observable.
"""

import argparse
import dataclasses
import gc
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "seqbench")]


def _high_water_bytes():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) * 1024


def method_line(workload, method):
    """Run one sequence in this process; return its output line."""
    from krec.driver import run_sequence
    from measure import _resident_bytes
    from workloads import WORKLOADS

    spec = dataclasses.replace(WORKLOADS[workload].spec(method, 0), oracle_cap=0)
    gc.collect()
    resident, high_water = _resident_bytes(), _high_water_bytes()
    records = run_sequence(spec)
    peak = _high_water_bytes()
    if peak <= high_water:
        raise RuntimeError(f"{method}: the sequence stayed below the process's "
                           "earlier high-water mark; its peak is not observable")
    return (f"{workload} {method} peak_mb={(peak - resident) / 1e6:.1f} "
            f"m_used={sum(r.m_used for r in records)}")


def main(argv=None):
    from workloads import METHODS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--method", choices=METHODS,
                        help="run this method here, in this process, and no other")
    args = parser.parse_args(argv)
    if args.method is not None:
        print(method_line(args.workload, args.method), flush=True)
        return
    for method in METHODS:
        subprocess.run([sys.executable, os.path.abspath(__file__), args.workload,
                        "--method", method], check=True)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    main()
