"""Timed rounds, the memory pass and the traced run of one workload.

End-to-end figures come from one worker process per method, started as
``python3 measure.py`` with a socket to the parent.  Not multiprocessing's
Process: starting one also starts a resource tracker that outlives the run.
Each worker first runs its method's sequence once untimed: that pass warms
the process and gives the peak resident memory the sequence adds to a fresh
process.  Then the parent runs rounds, one process at a time, in an order
rotated from round to round.  A round is a block of load_matrix calls in the parent and
``reps[method]`` sequences of each method.  Every value is a median over
samples spread across the whole run, not one draw of the machine's drift.

The traced run stays in one process: for each method one untraced sequence,
then one with every layer wrapped (tracer.py).
"""

import contextlib
import gc
import json
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from multiprocessing.connection import Connection

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if __name__ == "__main__":
    sys.path[:0] = [SRC, HERE]

from verify import (
    NullOracle,
    ReferenceOracle,
    capture_inputs,
    check_records,
    compute_references,
    counters_of,
    oracle_hook,
)
from workloads import METHODS, WORKLOADS

SETUP_BLOCK_S, SETUP_BLOCK_MIN, SETUP_BLOCK_MAX = 0.3, 2, 300
WORKER_STOP_S = 60
SKIPPED_UPDATE = "recycling update skipped"


def time_setup(workload, times):
    """Append wall times of load_matrix for about SETUP_BLOCK_S seconds."""
    from krec.driver import load_matrix

    start = time.perf_counter()
    for rep in range(SETUP_BLOCK_MAX):
        if rep >= SETUP_BLOCK_MIN and time.perf_counter() - start > SETUP_BLOCK_S:
            break
        t0 = time.perf_counter()
        load_matrix(workload.source, workload.shift)
        times.append(time.perf_counter() - t0)


def round_tasks(reps):
    """The tasks of one round, repetitions spread out: a, b, c, a, c, ..."""
    kinds = ("setup",) + METHODS
    return [kind for i in range(max(reps.values()))
            for kind in kinds if reps.get(kind, 0) > i]


def _resident_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _high_water_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _worker(conn, workload_name, method, seed):
    """Serve one method: a memory pass, then one timed sequence per request."""
    try:
        import krec.driver

        workload = WORKLOADS[workload_name]
        spec = workload.spec(method, seed)
        gc.collect()
        resident, high_water = _resident_bytes(), _high_water_bytes()
        with oracle_hook(NullOracle):
            records = krec.driver.run_sequence(spec)
        peak = _high_water_bytes()
        if peak <= high_water:
            raise RuntimeError(f"{method}: the sequence stayed below the process's "
                               "earlier high-water mark; its peak is not observable")
        conn.send(("warm", (peak - resident) / 1e6, counters_of(records)))
        table = conn.recv()
        while conn.recv() == "run":
            gc.collect()  # start every sample without the previous one's garbage
            oracle = ReferenceOracle(table)
            with oracle_hook(lambda f, cap=0: oracle):
                t0 = time.perf_counter()
                records = krec.driver.run_sequence(spec)
                elapsed = time.perf_counter() - t0
            failed, faults = check_records(workload, method, records, oracle.solves)
            conn.send(("run", elapsed, counters_of(records), failed, faults))
    except EOFError:
        pass  # the parent closed its end: nothing more to do
    except BaseException:
        with contextlib.suppress(OSError):
            conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


def _start_worker(workload_name, method, seed):
    """Start the worker of one method; return (process, connection)."""
    parent_sock, child_sock = socket.socketpair()
    try:
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), workload_name, method,
             str(seed), str(child_sock.fileno()), str(os.getpid())],
            pass_fds=(child_sock.fileno(),), stdin=subprocess.DEVNULL,
            stdout=sys.stderr.fileno())  # the parent's stdout ends with the result
    except BaseException:
        parent_sock.close()
        raise
    finally:
        child_sock.close()
    return proc, Connection(parent_sock.detach())


def _stop_workers(workers):
    """Ask every worker to stop, then wait for each; kill what does not end."""
    for _, conn in workers:
        with contextlib.suppress(OSError):
            conn.send("stop")
        conn.close()
    for proc, _ in workers:
        try:
            proc.wait(timeout=WORKER_STOP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _receive(conn, method, kind):
    message = conn.recv()
    if message[0] == "error":
        raise RuntimeError(f"worker for {method} failed:\n{message[1]}")
    if message[0] != kind:
        raise RuntimeError(f"worker for {method} sent {message[0]!r}, expected {kind!r}")
    return message[1:]


def measure(workload, seed, seconds):
    """Run the end-to-end measurement; return the result dict and details.

    Whole rounds (round_tasks) run while the next one is expected to end
    within ``seconds``; there is always at least one.
    """
    from krec.driver import load_matrix

    load_matrix(workload.source, workload.shift)  # the first call pays lazy imports
    workers = {}
    try:
        for method in METHODS:
            workers[method] = _start_worker(workload.name, method, seed)
        table = compute_references(workload, capture_inputs(workload, seed))
        peak_mb, counters = {}, {}
        for method, (proc, conn) in workers.items():
            peak_mb[method], counters[method] = _receive(conn, method, "warm")
            conn.send(table)
        tasks = round_tasks(workload.reps)
        setup_times, samples = [], {m: [] for m in METHODS}
        faults, failed, rounds = [], 0, 0
        start = time.perf_counter()
        while True:
            shift = rounds % len(tasks)
            for task in tasks[shift:] + tasks[:shift]:
                if task == "setup":
                    time_setup(workload, setup_times)
                    continue
                conn = workers[task][1]
                conn.send("run")
                elapsed, run_counters, run_failed, run_faults = _receive(conn, task, "run")
                samples[task].append(elapsed)
                failed += run_failed
                faults += run_faults
                if run_counters != counters[task]:
                    faults.append(f"{task}: counters differ between repetitions")
            rounds += 1
            if (time.perf_counter() - start) * (1 + 1 / rounds) > seconds:
                break
    finally:
        _stop_workers(workers.values())
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for method in METHODS:
        metrics[f"{method}.seq_s"] = (statistics.median(samples[method]), "s")
        metrics[f"{method}.matvecs"] = (sum(c[1] for c in counters[method]), "count")
        metrics[f"{method}.peak_mb"] = (peak_mb[method], "MB")
    result = {
        "correct": not faults,
        "attempted": rounds * sum(t != "setup" for t in tasks) * workload.num_problems,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {"rounds": rounds, "setup_times": setup_times, "samples": samples,
               "faults": faults}
    return result, details


def _run_checked(workload, method, seed, table, tracer=None):
    """One checked sequence: (records, seconds, failed, faults, skipped updates)."""
    import krec.driver

    oracle = ReferenceOracle(table)
    with oracle_hook(lambda f, cap=0: oracle), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install(extra=[(oracle, "set_matrix", "bench.oracle"),
                                  (oracle, "solve", "bench.oracle")])
        try:
            t0 = time.perf_counter()
            records = krec.driver.run_sequence(workload.spec(method, seed))
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
    failed, faults = check_records(workload, method, records, oracle.solves)
    skipped = sum(SKIPPED_UPDATE in str(w.message) for w in caught)
    return records, elapsed, failed, faults, skipped


def _layer_metrics(tracer, records, skipped):
    """The per-layer metrics of one traced sequence, as name -> (value, unit)."""
    from tracer import self_times

    own, calls = self_times(tracer.spans)
    matvecs = sum(r.matvecs for r in records)
    krylov = sum(r.m_used for r in records)
    return {
        "sparse.matvec_s": (own["sparse.matvec"], "s"),
        "sparse.matvecs": (calls["sparse.matvec"], "count"),
        "sparse.csr_build_s": (own["sparse.csr_build"], "s"),
        "matrices.generate_s": (own["matrices.generate"], "s"),
        "matrices.perturb_s": (own["matrices.perturb"], "s"),
        "arnoldi.self_s": (own["arnoldi"], "s"),
        "arnoldi.inner_products": (tracer.counts["arnoldi", "inner_products"], "count"),
        "sketch.apply_s": (own["sketch.apply"], "s"),
        "sketch.applies": (calls["sketch.apply"], "count"),
        "sketch.sav_s": (own["sketch.sav"], "s"),
        "sketch.other_s": (own["sketch.other"], "s"),
        "linalg.qr_s": (own["linalg.qr"], "s"),
        "linalg.qr_calls": (calls["linalg.qr"], "count"),
        "linalg.eig_s": (own["linalg.eig"], "s"),
        "linalg.lu_s": (own["linalg.lu"], "s"),
        "linalg.svd_s": (own["linalg.svd"], "s"),
        "linalg.schur_s": (own["linalg.schur"], "s"),
        "matfun.self_s": (own["matfun"], "s"),
        "matfun.calls": (calls["matfun"], "count"),
        "matfun.max_dim": (tracer.max_dim["matfun"], "rows"),
        "approximants.self_s": (own["approximants"], "s"),
        "approximants.calls": (calls["approximants"], "count"),
        "recycle.update_s": (own["recycle.update"] + own["recycle.other"], "s"),
        "recycle.updates": (calls["recycle.update"], "count"),
        "recycle.updates_skipped": (skipped, "count"),
        "errest.s": (own["errest"], "s"),
        "driver.self_s": (own["driver"], "s"),
        "driver.krylov_dim": (krylov, "count"),
        "driver.extra_matvecs": (matvecs - krylov - len(records), "count"),
    }


def trace(workload, seed):
    """Run the traced measurement; return the result dict, details and spans."""
    import krec.driver
    from tracer import Tracer, self_times

    inputs = capture_inputs(workload, seed)
    table = compute_references(workload, inputs)
    oracle = krec.driver.DenseOracle(workload.function)
    t0 = time.perf_counter()
    for epoch, A, b in inputs:
        oracle.set_matrix(A, epoch)
        oracle.solve(b)
    metrics = {"driver.oracle_s": (time.perf_counter() - t0, "s")}
    with Tracer() as setup_tracer:
        setup_tracer.install()
        krec.driver.load_matrix(workload.source, workload.shift)
    own, _ = self_times(setup_tracer.spans)
    metrics["setup.matrices.generate_s"] = (own["matrices.generate"], "s")
    metrics["setup.sparse.csr_build_s"] = (own["sparse.csr_build"], "s")
    faults, failed, spans = [], 0, {}
    for method in METHODS:
        tracer = Tracer()
        runs = [_run_checked(workload, method, seed, table),
                _run_checked(workload, method, seed, table, tracer)]
        for _, _, run_failed, run_faults, _ in runs:
            failed += run_failed
            faults += run_faults
        (plain, untraced_s, *_), (records, traced_s, _, _, skipped) = runs
        if counters_of(records) != counters_of(plain):
            faults.append(f"{method}: counters differ between repetitions")
        if not tracer.spans or tracer.spans[0][0] != "driver":
            raise RuntimeError("run_sequence is not the root span of the traced run")
        layer = _layer_metrics(tracer, records, skipped)
        if layer["sparse.matvecs"][0] != sum(r.matvecs for r in records):
            faults.append(f"{method}: the tracer saw {layer['sparse.matvecs'][0]} "
                          f"matvecs, the records count {sum(r.matvecs for r in records)}")
        metrics.update({f"{method}.{name}": value for name, value in layer.items()})
        spans[method] = {"traced_s": traced_s, "untraced_s": untraced_s,
                         "spans": tracer.spans}
    result = {
        "correct": not faults,
        "attempted": 2 * len(METHODS) * workload.num_problems,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {"faults": faults,
               "overhead": {m: s["traced_s"] / s["untraced_s"] - 1 for m, s in spans.items()},
               "spans": sum(len(s["spans"]) for s in spans.values())}
    return result, details, spans


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _die_with_parent(parent_pid):
    """Have the kernel kill this worker if its parent ends without stopping it."""
    with contextlib.suppress(OSError, AttributeError):
        import ctypes
        import signal

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent_pid:
        sys.exit("the benchmark's parent process ended before its worker started")


if __name__ == "__main__":
    _name, _method, _seed, _fd, _parent = sys.argv[1:]
    _die_with_parent(int(_parent))
    _worker(Connection(int(_fd)), _name, _method, int(_seed))
