"""thinspec benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload thinned-n256 --seed 3 --seconds 20 --trace 0

Run from the repository root.  Set-up is timed in fresh processes (process
start to "imported and warmed up"); the workload runs in one more fresh
process, closed loop, serial.  Human-readable lines come first; the last
line of standard output is the JSON result.  `--trace 1` reports the
per-layer table instead of the end-to-end metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4
TIMEOUT_S = 170
# Every workload is serial.  A second OpenBLAS thread does not shorten the
# n=256 solves but spins a second core, which makes wall times depend on what
# else that core runs; one thread keeps the whole run on one core.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def _start_worker(args):
    """Start a worker and return (process, seconds from start to its `ready` line)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {args[0]} did not get ready: {line!r}")
    return proc, ready


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def end_to_end(worker: dict, setup_samples: list) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(worker["wall_s"]),
        "records_per_s": statistics.median(
            r / w for r, w in zip(worker["records"], worker["wall_s"])
        ),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thinspec" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print("error: run from a thinspec checkout (src/thinspec and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    setup = []
    for _ in range(SETUP_PROBES):
        probe, ready = _start_worker(["probe"])
        _finish(probe, deadline)
        setup.append(ready)
    proc, ready = _start_worker(
        ["run", args.workload, str(args.seed), repr(args.seconds), str(args.trace)]
    )
    setup.append(ready)
    worker = json.loads(_finish(proc, deadline).strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = worker["layers"] if args.trace else end_to_end(worker, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_frac = worker["failed"] / worker["attempted"]

    walls = ", ".join(f"{w:.3f}" for w in worker["wall_s"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {worker['iterations']}  wall_s per iteration [{walls}]  "
          f"setup samples [{', '.join(f'{s:.3f}' for s in setup)}]")
    print("environment " + json.dumps(worker["environment"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':42s} {failed_frac:>14.6g} ratio "
          f"({worker['failed']}/{worker['attempted']} operations)")
    for problem in worker["errors"] + worker["failed_checks"]:
        print(f"  FAILED: {problem}")
    if args.trace:
        print(f"  spans written to {worker['spans_file']}")
    print(json.dumps({
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
