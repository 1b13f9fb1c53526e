"""morphguard benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each workload runs in worker processes
of its own (perfbench/worker.py) so that set-up time counts from process
start and peak memory is the workload's alone. With ``--trace 0`` the
run sets the workload up SETUPS times in workers that exit after
set-up, runs the iterations in one more worker, and reports the
end-to-end metrics of BENCHMARK.json. Times are normalized to a nominal
host speed (see reference.py); raw wall times go to the record.
With ``--trace 1`` one worker alternates untraced and traced iterations
and the run reports the per-layer metrics. Every iteration's outputs
are checked; the full record (environment, output sha256, iteration
times, failures) goes to .bench_results/, and the spans of a traced run
next to it. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from reference import normalized, reference_s

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("desk_sweep", "wide_gen_eval", "desk_files")
SETUPS = 5
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, setup_only: bool, deadline: float, spans_out: Path | None = None):
    """Start one worker; return (seconds from start to READY, RESULT payload)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise WorkerError("no time left to start a worker")
    ready = result = None
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited {code}")
    return ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "morphguard" / "__init__.py").is_file():
        print(f"error: no morphguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    load_at_start = os.getloadavg()

    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = results_dir / f"{stem}.spans.jsonl.gz" if args.trace else None
    setups, setup_walls = [], []
    try:
        for _ in range(0 if args.trace else SETUPS):
            before = reference_s()
            ready, _ = run_worker(args, True, deadline)
            setups.append(normalized(ready, before, reference_s()))
            setup_walls.append(ready)
        _, result = run_worker(args, False, deadline, spans_out)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted, measured = spec["per_layer"], result["layers"]
    else:
        wanted = spec["end_to_end"]
        measured = {
            "setup_s": statistics.median(setups),
            "recipe_p50_s": result["recipe_p50_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "loadavg_at_start": load_at_start, "setup_normalized_s": setups, "setup_wall_s": setup_walls,
              "metrics": metrics,
              "spans_file": spans_out.name if spans_out else None, **result}
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"{env['openblas']['configuration']}, BLAS threads {env['openblas']['threads']}, "
          f"nproc {env['nproc']}, load average at start {load_at_start}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']!r} {metric['unit']}")
    times = result["iteration_s"]["untraced"]
    print(f"  iterations: {len(times)} untraced, {len(result['iteration_s']['traced'])} traced; "
          f"wall-clock median {result['recipe_wall_p50_s']!r} s; set-up wall times {setup_walls!r} s")
    print(f"  fail_frac {result['failed']}/{result['attempted']}; min_rmmr {result['min_rmmr']!r}")
    print(f"  output sha256 {result['output_sha256']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
