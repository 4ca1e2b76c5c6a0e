"""The benchmark's workloads and output checks, run once each at tiny sizes.

perfbench/ is outside the test paths, so a change to a call form its
workloads use would otherwise pass this suite and break the benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import base_seed, check_outcome, load_reference  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(n=16, n_large=32, replicates=3, n_max=12, pairs=((16, 2), (32, 1)))
SEED = 7  # not the reference seed, whose full-size records these sizes cannot match


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_its_output_checks(workload, tmp_path):
    outcome = WORKLOADS[workload](TINY, base_seed(SEED, 0), tmp_path)
    assert outcome.errors == []
    assert outcome.produced == outcome.planned
    checks = check_outcome(workload, outcome, SEED, 0, TINY, load_reference())
    assert checks
    assert [name for name, ok in checks if not ok] == []
