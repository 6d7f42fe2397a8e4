"""Peak resident memory of each method's sequence on one benchmark workload.

Runs ``Workload.spec(method, 0)`` from ``seqbench/workloads.py`` (seed 0,
the seed of README's reference figures), with ``oracle_cap=0`` so that no
dense reference is formed, once per method, each in a fresh Python process,
and prints one line per method: workload, method, the peak resident memory
the sequence adds to the process in MB (``peak_mb=``), the tracemalloc
peak of the same sequence in MB (``traced_mb=``), and the sequence's summed
Krylov dimension ``m_used=``.
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

The resident peak also counts the native allocator's layout, so it can
read several MB apart on unchanged code.  The tracemalloc peak is the
largest sum of the Python and numpy allocations live at one time while the
sequence runs: it repeats to 0.1 MB.  It is taken in a second fresh process,
because tracing costs memory of its own, which the resident figure must not
see.
"""

import argparse
import dataclasses
import gc
import os
import subprocess
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "seqbench")]


def _high_water_bytes():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) * 1024


def _spec(workload, method):
    from workloads import WORKLOADS

    return dataclasses.replace(WORKLOADS[workload].spec(method, 0), oracle_cap=0)


def traced_mb(workload, method):
    """Run one sequence in this process under tracemalloc; return its peak in MB."""
    from krec.driver import run_sequence

    spec = _spec(workload, method)
    gc.collect()
    tracemalloc.start()
    run_sequence(spec)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1e6


def method_line(workload, method):
    """Run one sequence in this process and the traced one in a fresh process;
    return the output line."""
    from krec.driver import run_sequence
    from measure import _resident_bytes

    spec = _spec(workload, method)
    gc.collect()
    resident, high_water = _resident_bytes(), _high_water_bytes()
    records = run_sequence(spec)
    peak = _high_water_bytes()
    if peak <= high_water:
        raise RuntimeError(f"{method}: the sequence stayed below the process's "
                           "earlier high-water mark; its peak is not observable")
    traced = subprocess.run([sys.executable, os.path.abspath(__file__), workload,
                             "--method", method, "--traced"],
                            check=True, capture_output=True, text=True).stdout
    return (f"{workload} {method} peak_mb={(peak - resident) / 1e6:.1f} "
            f"traced_mb={float(traced):.1f} m_used={sum(r.m_used for r in records)}")


def main(argv=None):
    from workloads import METHODS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--method", choices=METHODS,
                        help="run this method alone: its resident peak in this "
                             "process, its traced peak in a fresh one")
    parser.add_argument("--traced", action="store_true",
                        help="with --method: print only the tracemalloc peak in MB")
    args = parser.parse_args(argv)
    if args.traced and args.method is None:
        parser.error("--traced needs --method")
    if args.method is not None:
        print(traced_mb(args.workload, args.method) if args.traced
              else method_line(args.workload, args.method), flush=True)
        return
    for method in METHODS:
        subprocess.run([sys.executable, os.path.abspath(__file__), args.workload,
                        "--method", method], check=True)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    main()
