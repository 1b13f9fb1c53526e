"""One workload process: set up, signal readiness, then run timed iterations.

Started by run.py, never by hand. Prints ``READY`` on stdout once set-up
is done, right before the first timed iteration, and ``RESULT <json>``
as its last line. With ``--setup-only`` it exits after ``READY``. With
``--trace 1`` iterations alternate between untraced and traced, so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import morphguard  # noqa: E402
from reference import Stopwatch  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
MAX_FAILURE_MESSAGES = 20


def blas_info() -> dict:
    """OpenBLAS build string and thread count as found in this process."""
    info = {"configuration": None, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    for key, names, restype in (
        ("configuration", ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
         ctypes.c_char_p),
        ("threads", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"), ctypes.c_int),
    ):
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
                break
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    if Path(morphguard.__file__).resolve().parent != ROOT / "src" / "morphguard":
        print(f"morphguard was imported from {morphguard.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def measure(workload, args) -> dict:
    tracer = Tracer() if args.trace else None
    walls = {"untraced": [], "traced": []}
    normalized_walls = []
    traced_walls: dict[int, float] = {}
    failures: list[str] = []
    attempted = failed = nonzero_exits = 0
    first = None
    min_iterations = 2 * MIN_ITERATIONS if tracer else MIN_ITERATIONS
    start = perf_counter()
    while attempted < min_iterations or perf_counter() - start < args.seconds:
        iteration = attempted
        traced = tracer is not None and iteration % 2 == 1
        attempted += 1
        workload.prepare()
        problems = []
        watch = Stopwatch(probing=not traced)
        try:
            with tracer.recording(iteration) if traced else nullcontext():
                watch.start()
                output = workload.run(watch.split)
        except Exception:
            output = None
            problems.append(traceback.format_exc(limit=3))
        watch.stop()
        walls["traced" if traced else "untraced"].append(watch.wall_s)
        if traced:
            traced_walls[iteration] = watch.wall_s
        else:
            normalized_walls.append(watch.normalized_s)
        if output is not None:
            try:
                outcome = workload.check(output)
            except Exception:
                problems.append(traceback.format_exc(limit=3))
            else:
                problems += outcome.failures
                nonzero_exits += outcome.nonzero_exits
                if first is None:
                    first = outcome
                elif outcome.digest != first.digest:
                    problems.append(f"iteration {iteration} output sha256 differs from iteration 0")
        if problems:
            failed += 1
            failures += [f"iteration {iteration}: {p}" for p in problems]

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "iteration_s": walls,
        "normalized_iteration_s": normalized_walls,
        "recipe_p50_s": statistics.median(normalized_walls),
        "recipe_wall_p50_s": statistics.median(walls["untraced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "min_rmmr": first.min_rmmr if first else None,
        "output_sha256": first.digest if first else None,
        "output_files": first.digests if first else {},
        "environment": environment(),
    }
    if tracer:
        layers = layer_metrics(tracer.spans, traced_walls)
        layers["trace_overhead_s"] = statistics.median(walls["traced"]) - result["recipe_wall_p50_s"]
        layers["recipe_wall_p50_s"] = result["recipe_wall_p50_s"]
        layers["cli.nonzero_exits"] = nonzero_exits
        layers["min_rmmr"] = result["min_rmmr"]
        result["layers"] = layers
        result["span_count"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    return result


if __name__ == "__main__":
    sys.exit(main())
