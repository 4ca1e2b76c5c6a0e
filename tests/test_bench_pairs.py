import importlib.util
import statistics
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(before, after, name):
    return [{"before": {"metrics": {name: b}}, "after": {"metrics": {name: a}}}
            for b, a in zip(before, after)]


@pytest.mark.parametrize("better, before, after, wins, claimable", [
    # lower is better: 10 of 10 wins and a gap of 1.0 over an IQR of 0.45
    ("lower", [5.0 + 0.1 * i for i in range(10)], [4.0 + 0.1 * i for i in range(10)], 10, True),
    # higher is better, same numbers: AFTER loses every pair
    ("higher", [5.0 + 0.1 * i for i in range(10)], [4.0 + 0.1 * i for i in range(10)], 0, False),
    # 10 of 10 wins, but a gap of 0.1 inside the IQR of 4.5
    ("lower", [float(i) for i in range(10)], [i - 0.1 for i in range(10)], 10, False),
    # a tie counts for neither side: 9 wins of 10 still claim
    ("lower", [5.0] * 5 + [6.0] * 5, [3.0] * 9 + [6.0], 9, True),
    # too few pairs to claim
    ("lower", [5.0, 5.1, 5.2], [1.0, 1.1, 1.2], 3, False),
], ids=["lower", "higher", "inside_iqr", "tie", "few_pairs"])
def test_summary_applies_the_claim_rule(better, before, after, wins, claimable):
    summary = _load_script().summarize(_pairs(before, after, "m"), {"m": better})["m"]
    assert summary["after_wins"] == wins
    assert summary["gain_claimable"] is claimable
    assert summary["before"]["median"] == pytest.approx(statistics.median(before))
    assert summary["after"]["median"] == pytest.approx(statistics.median(after))


def test_seed_lists():
    seeds = _load_script()._seeds
    assert seeds("41-45") == [41, 42, 43, 44, 45]
    assert seeds("3,7,9") == [3, 7, 9]
