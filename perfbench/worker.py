"""One benchmark process: set up, run a workload in a closed loop, check it.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE

Both modes import thinspec and make one warm-up solve, then print `ready`;
the parent times process start to that line as setup.  `run` then repeats
the workload, one iteration after the other, for SECONDS, checks every
iteration's outputs outside the timed region and prints one JSON line.
With TRACE 1 each iteration runs twice on the same seed, untraced and then
traced, so the per-layer table and the tracing overhead come from one
process.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import thinspec  # noqa: E402
from checks import base_seed, check_outcome, load_reference  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import FULL, WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".bench_work"


def warm_up():
    """One small solve, so BLAS/LAPACK are loaded before anything is timed."""
    matrix = thinspec.sample_matrix(thinspec.AtomDistribution("complex-gaussian"), 64, 0)
    thinspec.eigenvalues(matrix, scale=True)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy's eigensolver calls, if readable."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "thinspec").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "pipeline_threads": 1,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "seed": seed,
    }


def _timed(run, sizes, seed, workdir):
    start = time.perf_counter()
    outcome = run(sizes, seed, workdir)
    return time.perf_counter() - start, outcome


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=FULL, workdir: Path = WORKDIR) -> dict:
    """Closed loop over iterations for `seconds`, then checks; a JSON-able summary."""
    run = WORKLOADS[workload]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    plain, traced, spans = [], [], []
    loop_start = time.perf_counter()
    iteration = 0
    while True:
        cycle_start = time.perf_counter()
        seed_i = base_seed(seed, iteration)
        plain.append(_timed(run, sizes, seed_i, workdir))
        if trace:
            with Tracer(iteration) as tracer:
                traced.append(_timed(run, sizes, seed_i, workdir))
            spans.append(tracer.spans)
        iteration += 1
        now = time.perf_counter()
        if now - loop_start + (now - cycle_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = load_reference()
    checks = []
    for i, (_, outcome) in enumerate(plain):
        checks.extend(check_outcome(workload, outcome, seed, i, sizes, reference))
    for i, ((_, untraced), (_, outcome)) in enumerate(zip(plain, traced)):
        checks.append((f"iteration {i}: traced records equal untraced",
                       outcome.records == untraced.records and outcome.values == untraced.values))

    outcomes = [o for _, o in plain] + [o for _, o in traced]
    planned = sum(o.planned for o in outcomes)
    produced = sum(o.produced for o in outcomes)
    failed_checks = [name for name, ok in checks if not ok]
    errors = [e for o in outcomes for e in o.errors]
    result = {
        "iterations": iteration,
        "wall_s": [w for w, _ in plain],
        "records": [o.record_count for _, o in plain],
        "attempted": planned + len(checks),
        "failed": planned - produced + len(failed_checks),
        "correct": not failed_checks and not errors,
        "failed_checks": failed_checks[:20],
        "errors": errors[:20],
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        tables = [layer_metrics(s, w) for s, (w, _) in zip(spans, traced)]
        layers = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
        layers["experiments.replicates_attempted"] = statistics.median(
            o.replicates_attempted for _, o in traced)
        layers["experiments.replicates_skipped"] = statistics.median(
            o.replicates_skipped for _, o in traced)
        layers["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced) - statistics.median(result["wall_s"])
        )
        result["layers"] = layers
        result["traced_wall_s"] = [w for w, _ in traced]
        spans_path = workdir / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for iteration_spans in spans:
                handle.writelines(json.dumps(span) + "\n" for span in iteration_spans)
        result["spans_file"] = str(spans_path)
    return result


def main(argv) -> int:
    warm_up()
    print("ready", flush=True)
    if argv[:1] == ["probe"]:
        return 0
    _, workload, seed, seconds, trace = argv
    result = measure(workload, int(seed), float(seconds), trace == "1")
    result["environment"] = environment(workload, int(seed))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
