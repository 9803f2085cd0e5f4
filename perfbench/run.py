"""rsl benchmark: acceptance-criterion workloads, timed to a checked result.

    python3 perfbench/run.py --workload freq-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload all --size smoke      # tiny, seconds
    python3 perfbench/run.py --workload picard --size criterion --seconds 0

Run from any directory; the checkout is the parent of this file's directory,
and rsl is imported from its `src/`.  Every pass runs in a fresh interpreter
(passrun.py), so set-up time and peak memory belong to that workload alone.
A run repeats passes while another one fits in --seconds (at least
MIN_PASSES, so counts are compared within the run); each pass also gives one
set-up sample.  --size picks the workload configurations (workloads.py):
`bench`, the default, runs 1-3 s passes so a run holds several; `criterion`
runs the acceptance criteria's own configurations; `smoke` checks the wiring
in seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
wall_s (one pass, first library call to checked result), setup_s (fresh
interpreter to inputs ready) and peak_rss_mb (the pass process's high-water
mark).  fail_frac, failed over attempted output checks, is printed on the
summary line and carried by `failed`/`attempted` in the result.

wall_s and setup_s are in reference seconds: each measured time is
multiplied by CALIB_REF_S over the calibration time its own process measured
(passrun.py), i.e. it is the time the pass would take on a host that runs
the calibration kernel in CALIB_REF_S.  On a shared 2-core VM the speed of
a core drifted by a third within minutes, and raw medians drifted with it;
the ratio to the calibration stayed within a few percent.  Raw seconds and calibration times
are kept in the results file and the raw median is printed on the summary
line.  Per-layer times (--trace 1) are raw seconds.

--trace 1 reports the per-layer metrics instead (tracer.py): busy times are
medians over the run's passes, counts must repeat exactly across them and
against the last traced run of the same code, workload and seed (the seed
only where the workload uses it), and every
metric that predictions.json expects to be nonzero on the workload must be.
A failure of either makes the result incorrect.

Every run writes a results file under perfbench/results/ with the git SHA
(when the checkout is a repository), a digest of the sources, nproc, the
Python/numpy/scipy versions, the BLAS library and its thread count, and the
seed.  BLAS and OpenMP thread variables are removed from the environment of
the passes, so both sides of any comparison run at the library default.
The last line of standard output is one JSON result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
CALIB_REF_S = 0.040        # reference time of the calibration kernel
MIN_PASSES = 3
PASS_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def _child_env():
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


def spawn(workload, seed, *, trace=False, size="bench") -> dict:
    """Run passrun.py in a fresh interpreter and return its JSON report."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--size", size]
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")) \
        + sorted(HERE.glob("*.json")) + [ROOT / "BENCHMARK.json"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD commit read from .git, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    return spec, predictions


def run_passes(workload, seed, seconds, *, trace, size):
    """Pass reports, made while one more pass fits in `seconds`."""
    start = time.monotonic()
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(spawn(workload, seed, trace=trace, size=size))
        last = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and time.monotonic() - start + last > seconds:
            break
    return passes


def scaled(report, key):
    """A time of a pass report in reference seconds (see the module docstring)."""
    return report[key] * CALIB_REF_S / report["calib_s"]


def _checks(passes, expected):
    """(attempted, failed) output checks; checks a raising pass never reached fail."""
    attempted = sum(max(expected, len(p["checks"])) for p in passes)
    failed = attempted - sum(1 for p in passes for c in p["checks"] if c[1])
    return attempted, failed


def _previous(key):
    """Reports of earlier runs in this checkout with the same key."""
    found = []
    for path in sorted(RESULTS.glob("*.json")):
        try:
            rep = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if all(rep.get(k) == v for k, v in key.items()):
            found.append(rep)
    return found


def layer_metrics(name, seed, passes, *, size, digest, predictions):
    """Per-layer values plus the trace checks: (metrics, attempted, failed, notes)."""
    count_names = set(COUNT_METRICS)
    names = list(passes[0]["layers"])
    values, notes, failed = {}, [], 0
    for m in names:
        vals = [p["layers"][m] for p in passes]
        if m in count_names:
            values[m] = vals[0]
            if len(set(vals)) != 1:
                failed += 1
                notes.append(f"count {m} differs between passes: {vals}")
        else:
            values[m] = statistics.median(vals)
    attempted = len(count_names)
    # counts against the previous traced run of the same code, workload and seed
    seeded = WORKLOADS[name].seeded
    prev = _previous({"digest": digest, "workload": name, "size": size, "trace": 1,
                      **({"seed": seed} if seeded else {})})
    if prev:
        attempted += len(count_names)
        for m in sorted(count_names):
            if prev[-1]["metrics"][m] != values[m]:
                failed += 1
                notes.append(f"count {m} = {values[m]} but {prev[-1]['metrics'][m]} "
                             f"in the previous traced run")
    wall = statistics.median(scaled(p, "wall_s") for p in passes)
    values["bench.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    for m, row in predictions["metrics"].items():
        if name in row["nonzero_on"]:
            attempted += 1
            if not values.get(m):
                failed += 1
                notes.append(f"{m} reads zero on {name}; predictions.json expects it nonzero")
    ref = [r["metrics"]["wall_s"] for r in _previous(
        {"digest": digest, "workload": name, "size": size, "trace": 0})]
    if not ref:
        ref = [scaled(spawn(name, seed, size=size), "wall_s")]
        notes.append("no untraced run of this code yet: timed one untraced pass")
    untraced = statistics.median(ref)
    values["bench.trace_overhead_frac"] = (wall - untraced) / untraced
    return values, attempted, failed, notes


def run_workload(name, seed, seconds, *, trace, size, spec, predictions, digest):
    workload = WORKLOADS[name]
    expected = workload.checks[size]
    passes = run_passes(name, seed, seconds, trace=trace, size=size)
    attempted, failed = _checks(passes, expected)
    notes = [f"{name} pass error:\n{p['error']}" for p in passes if p["error"]]
    notes += [f"FAIL {c[0]}: {c[2]}" for p in passes for c in p["checks"] if not c[1]]
    if trace:
        values, t_att, t_fail, t_notes = layer_metrics(
            name, seed, passes, size=size, digest=digest,
            predictions=predictions)
        wanted = spec["per_layer"]
        attempted, failed, notes = attempted + t_att, failed + t_fail, notes + t_notes
    else:
        values = {
            "wall_s": statistics.median(scaled(p, "wall_s") for p in passes),
            "setup_s": statistics.median(scaled(p, "setup_s") for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": name, "seed": seed, "size": size, "trace": int(trace),
        "seconds": seconds, "git_sha": git_sha(), "digest": digest,
        "env": passes[0]["env"], "passes": len(passes),
        "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": values,
        "calib_ref_s": CALIB_REF_S,
        "raw": {"setup_s": [p["setup_s"] for p in passes],
                "wall_s": [p["wall_s"] for p in passes],
                "calib_s": [p["calib_s"] for p in passes],
                "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                "cpu_s": [p["cpu_s"] for p in passes]},
        "bindings": passes[0].get("bindings"),
    }
    RESULTS.mkdir(exist_ok=True)
    tag = f"{name}-{size}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report, metrics


def summary_line(report):
    m, n = report["metrics"], report["passes"]
    env = report["env"]
    head = (f"{report['workload']} seed {report['seed']}"
            f" ({report['size']} size): ")
    tail = (f" | fail_frac {report['failed'] / report['attempted']:.3g} ratio "
            f"({report['failed']}/{report['attempted']} checks)"
            f" | nproc {env['nproc']}, {env['blas']} threads {env['blas_threads']}")
    if report["trace"]:
        return head + f"{len(m)} per-layer metrics from {n} traced passes" + tail
    raw = statistics.median(report["raw"]["wall_s"])
    return head + (f"wall_s {m['wall_s']:.3f} s (median of {n}; raw {raw:.3f} s) | "
                   f"setup_s {m['setup_s']:.3f} s (median of {n}) | "
                   f"peak_rss_mb {m['peak_rss_mb']:.1f} MB (median of {n})") + tail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measurement time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "criterion", "smoke"), default="bench",
                    help="workload configurations (default: bench)")
    args = ap.parse_args(argv)
    # on SIGTERM unwind through spawn(), which kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rsl" / "__init__.py").is_file():
        print(f"error: no rsl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec, predictions = load_spec()
    if args.seconds is not None:
        seconds = args.seconds
    else:  # a smoke run makes only its minimum number of passes
        seconds = 0.0 if args.size == "smoke" else spec["run_seconds"]
    digest = source_digest()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            report, metrics = run_workload(
                name, args.seed, seconds, trace=bool(args.trace), size=args.size,
                spec=spec, predictions=predictions, digest=digest)
            for note in report["notes"]:
                print(note)
            print(summary_line(report), flush=True)
            results[name] = (report, metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_, ms) in results.items() for k, v in ms.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
