"""Smoke test of the benchmark at tiny sizes (a few seconds).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

It is not part of the package's test suite (pytest's testpaths is tests/).
"""

import json
import subprocess
import sys

import pytest

import run
import worker
from checks import check_outcome, load_reference
from workloads import WORKLOADS, Sizes

TINY = Sizes(n=16, n_large=32, replicates=3, n_max=12, pairs=((16, 2), (32, 1)))
SPEC = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path):
    plain = worker.measure(workload, 3, 0.0, False, sizes=TINY, workdir=tmp_path)
    traced = worker.measure(workload, 3, 0.0, True, sizes=TINY, workdir=tmp_path)
    assert plain["correct"] and traced["correct"], plain["failed_checks"] + traced["failed_checks"]
    assert plain["failed"] == traced["failed"] == 0

    e2e = run.end_to_end(plain, [0.5, 0.7, 0.6])
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value in e2e.values())
    assert sorted(traced["layers"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"])

    spans = [json.loads(line) for line in open(traced["spans_file"], encoding="utf-8")]
    ids = {span["id"] for span in spans}
    assert spans and all(span["parent"] in ids | {None} for span in spans)


def test_solve_counts_per_workload(tmp_path):
    layers = {
        name: worker.measure(name, 3, 0.0, True, sizes=TINY, workdir=tmp_path)["layers"]
        for name in WORKLOADS
    }
    assert layers["no-solve"]["spectral.eigenvalues.calls"] == 0
    assert layers["thinned-n256"]["spectral.solves_per_distinct_matrix"] > 1
    assert layers["large-n1024"]["spectral.solves_per_distinct_matrix"] == 1


@pytest.mark.parametrize("workload, field", [
    ("thinned-n256", "kept_re"),
    ("large-n1024", "max_cell_discrepancy"),
    ("no-solve", "exact"),
])
def test_one_corrupted_record_fails_a_check(workload, field, tmp_path):
    outcome = WORKLOADS[workload](TINY, 3000, tmp_path)
    reference = load_reference()
    assert all(ok for _, ok in check_outcome(workload, outcome, 3, 0, TINY, reference))

    rows = next(rows for rows in outcome.records.values() if field in rows[0])
    rows[0][field] += 1
    checks = check_outcome(workload, outcome, 3, 0, TINY, reference)
    failed = sum(not ok for _, ok in checks)
    attempted = outcome.planned + len(checks)
    assert failed / attempted > 0


def test_command_prints_result_json():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "no-solve", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert "failed_frac" in done.stdout
