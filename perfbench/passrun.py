"""One workload pass in a fresh interpreter (started by run.py).

    python3 perfbench/passrun.py --workload NAME --seed N --spawned-at T
                                 [--trace] [--size SIZE]

Imports rsl from the checkout's `src/`, prepares the workload's inputs, and
reports set-up time as the interval from T (the parent's CLOCK_MONOTONIC
reading just before it started this process) to inputs ready.  It then
times one pass, checks its outputs, and reports wall time, CPU time and peak
resident memory of this process.  With --trace the calls into the rsl layers
are wrapped (before the inputs are prepared, so the workload sees the wrapped
bindings) and the per-layer metrics are reported.

It also times a fixed numpy/scipy calibration kernel that rsl does not call,
CALIB_REPS times before the pass and as many again after it, and reports the
median, `calib_s`.  On a shared host the speed of a core can
drift by a third within minutes; run.py divides each time by the calibration
time measured in the same process, so the drift cancels.
The result is one JSON object on the last line of standard output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


CALIB_REPS = 5


def calibrate(reps):
    """Times of a fixed kernel: Bessel functions (one thread) and a BLAS matmul.

    Its arrays fit in cache, so it adds nothing to the pass's peak memory.  A
    32 MB memory sweep was tried as a third part: it made the kernel's time
    bimodal under a neighbour's memory traffic that the compute-bound sweeps
    do not feel, and widened their run-to-run spread."""
    import numpy as np
    from scipy import special

    x = np.linspace(0.1, 50.0, 40000)
    a = np.cos(np.arange(300 * 300, dtype=float)).reshape(300, 300)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        special.jv(0.5, x)
        special.jv(1.0, x)
        a @ a
        times.append(time.perf_counter() - t0)
    return times


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--size", default="bench")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import rsl

    if Path(rsl.__file__).resolve().parent != SRC / "rsl":
        raise SystemExit(f"rsl imported from {rsl.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.prepare(args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    calib = calibrate(CALIB_REPS)
    out = {"setup_s": setup_s}
    if tracer is not None:
        tracer.reset()
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    try:
        checks = workload.run(inputs)
        error = None
    except Exception:  # a raising pass counts all its checks as failed
        checks, error = [], traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu1, peak_mb = _rusage()
    out.update({
        "wall_s": wall_s, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_mb,
        "checks": [[c.name, bool(c.ok), c.detail] for c in checks],
        "error": error,
    })
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["bindings"] = {k: v for k, v in sorted(tracer.bindings.items())}
    out["env"] = _environment()
    out["calib_s"] = statistics.median(calib + calibrate(CALIB_REPS))
    print(json.dumps(out))


def _environment() -> dict:
    """Interpreter, library and BLAS facts of this process."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(lib_path)] = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


if __name__ == "__main__":
    main()
