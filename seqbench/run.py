"""Sequence benchmark for krec: run one workload and print its metrics.

    python3 seqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``krec`` is imported from ``src``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics of
a traced run.  Details (per-round times, spans) go to ``.seqbench_out/``.
See README.md for the workloads and the meaning of every metric.
"""

import os

# One BLAS thread, fixed before numpy loads: with two, sFOM on the
# invsqrt-twocluster workload runs 2-3x slower on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]
OUT = os.path.join(ROOT, ".seqbench_out")


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def _exit_on_term(signum, frame):
    """Turn SIGTERM into SystemExit, so that the worker processes get stopped."""
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_term)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "krec", "driver.py")):
        parser.error(f"no krec sources under {SRC}: run from a source checkout")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}"
    if args.trace:
        result, details, spans = measure.trace(workload, args.seed)
        measure.write_json(os.path.join(OUT, f"{tag}-spans.json"), spans)
    else:
        result, details = measure.measure(workload, args.seed, args.seconds)
    details["blas_threads"] = blas_threads()
    measure.write_json(os.path.join(OUT, f"{tag}-trace{args.trace}.json"),
                       {"result": result, "details": details})
    for fault in details["faults"]:
        print(f"FAULT: {fault}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
