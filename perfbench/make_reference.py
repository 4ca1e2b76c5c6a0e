"""Rewrite perfbench/reference.json: iteration 0 of every workload at the reference seed.

    python3 perfbench/make_reference.py

Run it only when a change to thinspec is meant to change its records, and
say so with the change; the benchmark compares against this file.
"""

import json
import sys
import tempfile

import worker  # noqa: F401  (puts src/ on sys.path)
from checks import REFERENCE_PATH, REFERENCE_SEED, base_seed
from workloads import FULL, WORKLOADS


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as workdir:
        for name, run in WORKLOADS.items():
            outcome = run(FULL, base_seed(REFERENCE_SEED, 0), workdir)
            if outcome.errors:
                print(f"{name}: {outcome.errors}", file=sys.stderr)
                return 1
            reference[name] = {"records": outcome.records, "values": outcome.values}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
