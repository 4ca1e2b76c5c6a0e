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
    summary = _load_script().summarize(_pairs(before, after, "m"), {"m": better}, {"m": 0.25})["m"]
    assert summary["after_wins"] == wins
    assert summary["gain_claimable"] is claimable
    assert summary["before"]["median"] == pytest.approx(statistics.median(before))
    assert summary["after"]["median"] == pytest.approx(statistics.median(after))


# Before: median 1.0 with an IQR of 0.045 (tight) or 0.45 (wider than a 25% bound).
TIGHT = [0.9 + 0.02 * i for i in range(11)]
WIDE = [0.5 + 0.1 * i for i in range(11)]


@pytest.mark.parametrize("better, before, after, verdict", [
    # lower is better: the median is 30% worse
    ("lower", TIGHT, [1.3 * v for v in TIGHT], "worse"),
    # higher is better: the median falls by 30%
    ("higher", TIGHT, [0.7 * v for v in TIGHT], "worse"),
    # 10% worse, inside the bound and resolved by the tight spread
    ("lower", TIGHT, [1.1 * v for v in TIGHT], "within bound"),
    # the same median, but the spread is wider than the bound
    ("lower", WIDE, WIDE[::-1], "unresolved"),
    # a wide spread, but every AFTER run beats every BEFORE run
    ("lower", WIDE, [0.4 - 0.01 * i for i in range(11)], "within bound"),
    # a median worse by more than the bound is worse whatever the spread
    ("lower", WIDE, [1.5 + v for v in WIDE], "worse"),
], ids=["worse_lower", "worse_higher", "within", "unresolved", "sweep", "worse_wide"])
def test_summary_gives_the_regression_verdict(better, before, after, verdict):
    summary = _load_script().summarize(_pairs(before, after, "m"), {"m": better}, {"m": 0.25})["m"]
    assert summary["verdict"] == verdict


def test_seed_lists():
    seeds = _load_script()._seeds
    assert seeds("41-45") == [41, 42, 43, 44, 45]
    assert seeds("3,7,9") == [3, 7, 9]
