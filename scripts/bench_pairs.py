"""Alternating before/after benchmark pairs of two thinspec checkouts, as one JSON file.

Runs each checkout's own, unmodified `perfbench/run.py` on one workload, once
per seed on each side, alternating which side runs first.  Writes every
pair's end-to-end metrics, each side's median and quartiles, how many pairs
the second checkout won, and each run's environment line (BLAS, its thread
count and the thread variables), and prints a table of the same.

    python scripts/bench_pairs.py BEFORE_DIR AFTER_DIR --workload large-n1024 \\
        --seeds 41-50 --out BENCH.json

BEFORE_DIR and AFTER_DIR are checkouts (for example made with `git clone` or
`git archive`); the metrics and their directions come from BEFORE_DIR's
BENCHMARK.json.  `gain_claimable` applies the benchmark's rule: at least 10
pairs, AFTER wins at least 9 in 10 of them and the medians differ by more
than BEFORE's interquartile range.  `verdict` checks the metric's relative
`bound` from the same file: "worse" when AFTER's median is worse than
BEFORE's by more than the bound; "unresolved" when BEFORE's interquartile
range is wider than the bound, unless every AFTER run beats every BEFORE run;
"within bound" otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _seeds(text: str) -> list:
    """'41-45' or '3,7,9' as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _commit(checkout: Path) -> dict:
    """The checkout's git commit and whether its tree differs from it (None: not a clone)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(git("status", "--porcelain").stdout)}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: its metric values, correctness and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    environment = next(line for line in lines if line.startswith("environment "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "environment": json.loads(environment[len("environment "):]),
    }


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, directions: dict, bounds: dict) -> dict:
    """Per metric: each side's median and quartiles, AFTER's wins, the claim rule and verdict."""
    out = {}
    for name, better in directions.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (old - new) > 0 for old, new in zip(values["before"], values["after"]))
        spread = {side: _spread(values[side]) for side in SIDES}
        gap = sign * (spread["before"]["median"] - spread["after"]["median"])
        iqr = spread["before"]["q3"] - spread["before"]["q1"]
        bound = bounds[name] * abs(spread["before"]["median"])
        sweep = min(sign * v for v in values["before"]) > max(sign * v for v in values["after"])
        out[name] = {
            "better": better, **spread, "after_wins": wins, "pairs": len(pairs),
            "gain_claimable": len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > iqr,
            "verdict": "worse" if -gap > bound else "unresolved" if iqr > bound and not sweep
            else "within bound",
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="'41-50' or '3,7,9'")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    checkouts = dict(zip(SIDES, (args.before.resolve(), args.after.resolve())))
    spec = json.loads((checkouts["before"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(checkouts[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {pair['before']['metrics'][name]:.4g} -> {pair['after']['metrics'][name]:.4g}"
            for name in directions), flush=True)

    metrics = summarize(pairs, directions, bounds)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "sides": {side: _commit(checkouts[side]) for side in SIDES},
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_VARS},
        "all_correct": all(p[s]["correct"] and not p[s]["failed"] for p in pairs for s in SIDES),
        "metrics": metrics,
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:14s} before {m['before']['median']:.4g} [{m['before']['q1']:.4g}, "
              f"{m['before']['q3']:.4g}]  after {m['after']['median']:.4g} "
              f"[{m['after']['q1']:.4g}, {m['after']['q3']:.4g}]  after won "
              f"{m['after_wins']}/{m['pairs']}  gain claimable: {m['gain_claimable']}  "
              f"verdict: {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
