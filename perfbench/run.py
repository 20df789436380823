"""Run one raagham benchmark workload and print its result.

    python3 perfbench/run.py --workload lift-flow --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the environment.  See NOTES.md
beside this file for what each workload measures and why.
"""

import os
import sys

# one BLAS thread, fixed before NumPy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def import_raagham():
    """Import NumPy and raagham from this checkout; return the seconds it took."""
    if not (SRC / "raagham" / "__init__.py").is_file():
        raise SystemExit(f"error: no raagham sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import numpy  # noqa: F401
    import raagham
    import raagham.cli  # noqa: F401

    elapsed = time.perf_counter() - t
    if Path(raagham.__file__).resolve().parent != (SRC / "raagham").resolve():
        raise SystemExit(f"error: imported raagham from {raagham.__file__}, not {SRC}")
    return elapsed


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def keep_going(start, seconds, *pass_times):
    """Run another pass while that brings the end closer to the window's end."""
    step = sum(map(statistics.median, pass_times))
    return time.perf_counter() - start + step / 2 < seconds


def timed(fn, *args):
    t = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t, result


def run_plain(wl, seconds, import_s):
    setup_times = [timed(wl.set_up)[0] for _ in range(wl.setups)]
    passes, rates = [], []
    start = time.perf_counter()
    index = 0
    while True:
        t, (n, s) = timed(wl.run_pass, index)
        print(f"pass {index}: {t:.3f} s", file=sys.stderr)
        passes.append(t)
        rates.append(n / (t if s is None else s))
        index += 1
        if not keep_going(start, seconds, passes):
            break
    return {
        # passes do the same work, so the median pass sets aside the slow
        # ones that meet a spell of contention on a shared host
        "wall_s": statistics.median(passes),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - wl.failed / max(wl.attempted, 1),
        "work_per_s": statistics.median(rates),
    }


def run_traced(wl, seconds):
    """Per-layer metrics from a traced set-up and the first traced pass.

    Untraced and traced passes alternate; the difference of their medians
    is the tracing overhead.
    """
    import numpy
    import tracing

    tracer = tracing.Tracer()
    with tracing.patched(tracer), tracer.span("bench.setup"):
        wl.set_up()
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        plain.append(timed(wl.run_pass, index)[0])
        queries = list(wl.query_ms)
        with tracing.patched(tracer), tracer.span("bench.pass"):
            traced.append(timed(wl.run_pass, index + 1)[0])
        if len(traced) == 1:
            metrics = tracing.layer_metrics(tracer)
        tracer = tracing.Tracer()  # later traced passes only time the overhead
        wl.query_ms = queries  # latencies come from untraced passes
        index += 2
        if not keep_going(start, seconds, plain, traced):
            break
    ms = wl.query_ms
    metrics.update(
        {
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
            "words.query_samples": len(ms),
            "words.query_p50_ms": float(numpy.percentile(ms, 50)) if ms else 0.0,
            "words.query_p90_ms": float(numpy.percentile(ms, 90)) if ms else 0.0,
        }
    )
    return metrics


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    import_s = import_raagham()
    import workloads

    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        wl.warm_up()
        wl.attempted = wl.failed = 0
        if args.trace:
            values, wanted = run_traced(wl, args.seconds), spec["per_layer"]
        else:
            values, wanted = run_plain(wl, args.seconds, import_s), spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not produced: {missing}")
    print(json.dumps({"env": environment()}))
    print(
        json.dumps(
            {
                "correct": wl.failed == 0,
                "attempted": wl.attempted,
                "failed": wl.failed,
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
