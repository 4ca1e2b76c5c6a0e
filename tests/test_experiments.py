import dataclasses
import hashlib
import json
import logging
import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from thinspec import experiments
from thinspec.ensembles import AtomDistribution, ComplexMatrix, sample_matrix
from thinspec.spectral import EigensolverError, eigenvalues
from thinspec.experiments import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    SkipBudgetError,
    _measured,
    _replicate,
    _thinning_scan_for_n,
    config_hash,
    records_jsonl,
    run_experiment,
)
from thinspec.seeding import derive_seed64
from thinspec.stats import hypergeom_removal_pmf, near_binomial_bound


def test_derive_seed_properties():
    s1 = derive_seed64(1, "full-clt", 64, 0, "matrix")
    assert s1 == derive_seed64(1, "full-clt", 64, 0, "matrix")
    assert s1 != derive_seed64(1, "full-clt", 64, 0, "index")
    assert s1 != derive_seed64(1, "full-clt", 64, 1, "matrix")
    assert s1 != derive_seed64(2, "full-clt", 64, 0, "matrix")
    assert 0 <= s1 < 2**64


def test_derive_seed_collision_scan():
    seeds = {
        derive_seed64(7, "partial-fixed-K", n, r, tag)
        for n in (64, 256)
        for r in range(250_000)
        for tag in ("matrix", "index")
    }
    assert len(seeds) == 1_000_000


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="full-clt", n_list=())
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="full-clt", replicates=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="partial-fixed-K", n_list=(16,), k=17)
    # growing-K must respect the n^(1/4) budget unless overridden
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="partial-growing-K", n_list=(16,), k=3)
    ExperimentConfig(kind="partial-growing-K", n_list=(16,), k=3, allow_large_k=True)
    ExperimentConfig(kind="partial-growing-K", n_list=(256,), k=4)  # 4 = 256^(1/4)


@pytest.mark.parametrize("kwargs", [
    dict(kind="partial-growing-K", k=0),
    dict(kind="partial-growing-K", k=2, n_list=(1,), allow_large_k=True),
    dict(kind="full-clt", f_id="nope"),
    dict(kind="partial-fixed-K", f_id="nope"),
    dict(kind="wasserstein-decay", n_list=(64, 4097)),
    # a run at n = 30000 would draw 14 GB of normals per matrix
    dict(kind="full-clt", n_list=(4097,)),
    dict(kind="partial-fixed-K", n_list=(64, 4097)),
    dict(kind="partial-growing-K", n_list=(4097,)),
    dict(kind="local-law-cells", n_list=(4097,)),
    dict(kind="thinning-bound", n_max=1022),
    # a run's memory grows with its replicates, summed over its distinct sizes
    dict(kind="full-clt", n_list=(2,), replicates=experiments.MAX_RUN_REPLICATES + 1),
    dict(kind="partial-fixed-K", n_list=(1, 2), replicates=(1 << 16) + 1),
    dict(kind="full-clt", threads=-1),
    # a value that is no integer used to run: n = 16 or 1, a seed from "True", 1 replicate
    dict(kind="full-clt", n_list=(16.9,)),
    dict(kind="full-clt", n_list=(True,)),
    dict(kind="full-clt", base_seed=True),
    dict(kind="full-clt", base_seed=1.5),
    dict(kind="full-clt", replicates=True),
    dict(kind="partial-fixed-K", k=2.0),
    dict(kind="thinning-bound", n_max=60.0),
    dict(kind="full-clt", threads=True),
    # a bool, str or ensemble field of another type used to raise TypeError or
    # AttributeError, or to run: allow_large_k "no" as true
    dict(kind="full-clt", n_list=64),
    dict(kind="full-clt", ensemble="rademacher"),
    dict(kind="full-clt", ensemble={"kind": "rademacher"}),
    dict(kind="full-clt", f_id=["re"]),
    dict(kind=["full-clt"]),
    dict(kind="partial-growing-K", n_list=(16,), k=3, allow_large_k="no"),
    # a size whose n^(1/4) is complex or past float64 used to raise TypeError or OverflowError
    dict(kind="full-clt", n_list=(-1,)),
    dict(kind="local-law-cells", n_list=(10**400,)),
], ids=["growing_k_0", "growing_k_above_n", "unknown_f_full", "unknown_f_partial",
        "wasserstein_above_exact_cap", "full_clt_above_cap", "partial_fixed_k_above_cap", "partial_growing_k_above_cap",
        "local_law_above_cap", "n_max_above_cap", "replicates_above_cap",
        "replicates_times_sizes_above_cap", "threads_negative",
        "n_list_float", "n_list_bool", "base_seed_bool", "base_seed_float", "replicates_bool",
        "k_float", "n_max_float", "threads_bool", "n_list_int", "ensemble_str",
        "ensemble_dict", "f_list", "kind_list", "allow_large_k_str",
        "n_list_negative", "n_list_huge_int"])
def test_config_errors_at_construction(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_configs_at_the_caps_are_accepted():
    ExperimentConfig(kind="thinning-bound", n_max=experiments._SCAN_NORMAL_N)
    cap = experiments.MAX_RUN_REPLICATES
    ExperimentConfig(kind="full-clt", n_list=(2,), replicates=cap)
    # a repeated size is solved and measured once, so it counts once
    ExperimentConfig(kind="full-clt", n_list=(2, 4, 2), replicates=cap // 2)


# ExperimentConfig's range rules in the order it checks them: a name, a kind (None:
# the rule holds for every kind, shown on full-clt), fields that break that rule
# alone, and its message.
RANGE_RULES = [
    ("kind", "bogus", {}, "unknown experiment kind 'bogus'"),
    ("n_list", None, {"n_list": ()}, "n_list must be a nonempty list of integers in 1..4096"),
    ("replicates", None, {"replicates": 0}, "replicates must be >= 1"),
    ("replicate_cap", None, {"replicates": 131073},
     "replicates times the distinct sizes of n_list must be at most 131072, got 131073 x 1"),
    ("base_seed", None, {"base_seed": -1}, "base_seed must be nonnegative"),
    ("threads", None, {"threads": 257}, "threads must be in 0..256 (0: one per usable core)"),
    ("method", None, {"method": "bogus"}, "unknown wasserstein method 'bogus'"),
    ("f", None, {"f_id": "bogus"},
     "unknown test function 'bogus'; known: ['abs2', 'const_1', 'im', 're', 'repow_2', "
     "'repow_3']"),
    ("n_max", "thinning-bound", {"n_max": 0}, "n_max must be in 1..1021"),
    ("lattice_min_n", "wasserstein-decay", {"method": "lattice", "n_list": (4,)},
     "the lattice method needs n >= 9"),
    ("complex_atom", "full-clt",
     {"ensemble": AtomDistribution("custom-discrete", atoms=(1j, -1j), probs=(0.5, 0.5))},
     "full-clt with a complex atom needs E[xi^2] = 0"),
    ("k_range", "partial-fixed-K", {"n_list": (8,), "k": 9},
     "K=9 at n=8 must satisfy 1 <= K <= n"),
    ("k_budget", "partial-growing-K", {"n_list": (16,), "k": 3},
     "K=3 at n=16 exceeds the n^(1/4) growth budget; set allow_large_k to override"),
]


def _config_error(kwargs) -> str:
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(**kwargs)
    return str(exc.value)


def test_readme_range_rules_state_the_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rules = readme.split("when a value is out of range:", 1)[1].split("All of these", 1)[0]
    rules = " ".join(rules.split())  # one line, whatever the wrapping
    patterns = {
        "MAX_N": r"`n_list` outside 1\.\.(\d+)",
        "MAX_RUN_REPLICATES": r"distinct sizes in `n_list`, above (\d+)",
        "MAX_THREADS": r"`threads` outside 0\.\.(\d+)",
        "_SCAN_NORMAL_N": r"`n_max` outside 1\.\.(\d+)",
    }
    stated = {name: [int(v) for v in re.findall(pattern, rules)]
              for name, pattern in patterns.items()}
    assert stated == {name: [getattr(experiments, name)] for name in patterns}


@pytest.mark.parametrize("name, kind, fields, message", RANGE_RULES,
                         ids=[name for name, *_ in RANGE_RULES])
def test_each_range_rule_reports_its_message(name, kind, fields, message):
    assert _config_error({"kind": kind or "full-clt", **fields}) == message


def test_the_earlier_of_two_broken_range_rules_is_reported():
    # the later rule's fields, then the earlier's, which win where both set a field
    for i, (_, kind, fields, message) in enumerate(RANGE_RULES):
        for _, later_kind, later_fields, _ in RANGE_RULES[i + 1:]:
            kwargs = {"kind": kind or later_kind or "full-clt", **later_fields, **fields}
            assert _config_error(kwargs) == message, kwargs


@pytest.mark.parametrize("kwargs, rule", [
    # n^(1/4) of a size past float64 would overflow in the K rules
    (dict(kind="partial-growing-K", n_list=(10**400,)), "n_list"),
    (dict(kind="bogus", n_list=(-1,)), "unknown experiment kind"),
    # the K rules come last
    (dict(kind="partial-fixed-K", n_list=(8,), k=9, f_id="bogus"), "unknown test function"),
], ids=["k_rules_after_n_list", "kind_first", "k_rules_last"])
def test_a_config_with_several_bad_fields_reports_the_first_rule(kwargs, rule):
    assert _config_error(kwargs).startswith(rule)


def test_growing_k_rule():
    cfg = ExperimentConfig(kind="partial-growing-K", n_list=(256,))
    assert cfg.k_for(16) == 1  # floor(2 / 1.2)
    assert cfg.k_for(256) == 3  # floor(4 / 1.2)
    assert cfg.k_for(10_000) == 8  # floor(10 / 1.2)


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(kind="full-clt", n_list=(16, 32), replicates=7, base_seed=3)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert config_hash(cfg) == config_hash(again)
    # threads are an execution detail, not part of the experiment identity
    threaded = ExperimentConfig.from_dict({**cfg.to_dict(), "threads": 4})
    assert config_hash(cfg) == config_hash(threaded)


def test_numpy_integers_hash_as_python_ints():
    numpy_ints = ExperimentConfig(kind="partial-fixed-K", n_list=(np.int64(16), np.int32(32)),
                                  k=np.int64(2), replicates=np.int64(7), base_seed=np.uint8(3))
    python_ints = ExperimentConfig(kind="partial-fixed-K", n_list=(16, 32), k=2, replicates=7,
                                   base_seed=3)
    assert config_hash(numpy_ints) == config_hash(python_ints)
    assert type(numpy_ints.replicates) is int and type(numpy_ints.n_list[0]) is int


def test_every_config_annotation_has_a_type_entry():
    annotations = {f.type for f in dataclasses.fields(ExperimentConfig)}
    assert annotations <= set(experiments._FIELD_TYPES)


def test_config_rejects_unknown_keys():
    # misspelled keys used to be dropped, silently running the defaults
    with pytest.raises(ConfigError, match="n-list"):
        ExperimentConfig.from_dict({"kind": "partial-fixed-K", "replicate": 2000, "n-list": [64]})
    with pytest.raises(ConfigError, match="f_id"):
        ExperimentConfig.from_dict({"kind": "full-clt", "f_id": "re"})  # the file key is "f"


def test_partial_fixed_k_records_and_identity():
    cfg = ExperimentConfig(
        kind="partial-fixed-K", n_list=(24,), k=3, f_id="re", replicates=12, base_seed=9
    )
    result = run_experiment(cfg)
    assert len(result.records) == 12
    for rec in result.records:
        assert rec["kept_re"] + rec["removed_re"] == rec["full_re"]
        assert rec["kept_im"] + rec["removed_im"] == rec["full_im"]
        assert rec["seed_matrix"] != rec["seed_index"]  # independent streams
    assert result.summary["rows"][0]["k"] == 3


def test_partial_fixed_k_degenerate_all_removed():
    cfg = ExperimentConfig(
        kind="partial-fixed-K", n_list=(16,), k=16, f_id="re", replicates=10, base_seed=2
    )
    result = run_experiment(cfg)
    assert all(rec["kept_re"] == 0.0 and rec["kept_im"] == 0.0 for rec in result.records)


def test_partial_growing_k_const_function_is_degenerate():
    cfg = ExperimentConfig(
        kind="partial-growing-K", n_list=(81,), f_id="const_1", replicates=8, base_seed=4
    )
    result = run_experiment(cfg)
    row = result.summary["rows"][0]
    # every removed part equals K exactly, so centered statistics vanish
    assert row["removed_var_re"] == 0.0
    assert row["removed_var_im"] == 0.0


def test_full_clt_smoke():
    cfg = ExperimentConfig(kind="full-clt", n_list=(16,), f_id="re", replicates=6, base_seed=5)
    result = run_experiment(cfg)
    assert len(result.records) == 6
    assert result.summary["rows"][0]["target_var"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.slow
def test_full_clt_rademacher_real_atom_target():
    # real-atom variance formula gives 1 for f=re; 300 reps calibrated at 0.93
    cfg = ExperimentConfig(
        kind="full-clt", ensemble=AtomDistribution("rademacher"), n_list=(256,),
        f_id="re", replicates=300, base_seed=71,
    )
    row = run_experiment(cfg).summary["rows"][0]
    assert row["target_var"] == pytest.approx(1.0, abs=1e-6)
    assert 0.7 <= row["full_var"] <= 1.3


def test_wasserstein_degenerate_small_n_completes():
    cfg = ExperimentConfig(
        kind="wasserstein-decay", n_list=(9,), replicates=3, base_seed=6, method="sample"
    )
    result = run_experiment(cfg)
    assert len(result.records) == 3
    assert all(rec["w1"] > 0 for rec in result.records)
    assert result.summary["rows"][0]["trials"] == 3


def test_wasserstein_lattice_method():
    cfg = ExperimentConfig(
        kind="wasserstein-decay", n_list=(16,), replicates=2, base_seed=6, method="lattice"
    )
    result = run_experiment(cfg)
    assert all(rec["method"] == "lattice" for rec in result.records)


def test_local_law_same_seed_has_zero_discrepancy():
    # identical Ginibre draws produce identical spectra, hence zero discrepancy
    cfg = ExperimentConfig(kind="local-law-cells", n_list=(32,))
    record, solved = _replicate((cfg, 32, {"seed_x": 123, "seed_g": 123}))
    assert not isinstance(solved, str)
    assert record["max_cell_discrepancy"] == 0
    assert record["x_in_grid"] == record["g_in_grid"]


@pytest.mark.parametrize("n", [32, 64, 256])
def test_local_law_cells_do_not_depend_on_the_solve_path(n):
    # default_grid has an even count per axis at these sizes, so the real axis
    # would be a cell edge; local-law-cells rounds the count up to odd, and the
    # exactly-real eigenvalues of the real solve share cells with the near-real
    # ones of a complex solve of the same matrix.
    x = sample_matrix(AtomDistribution("rademacher"), n, seed=n)
    real = eigenvalues(x, scale=True)
    cast = eigenvalues(ComplexMatrix(entries=x.entries.astype(complex)), scale=True)
    assert np.any(real.values.imag == 0)
    cfg = ExperimentConfig(kind="local-law-cells", ensemble=AtomDistribution("rademacher"),
                           n_list=(n,))
    record, _ = _measured(cfg, n, {}, [real, cast])
    assert record["max_cell_discrepancy"] == 0


def test_local_law_small_run():
    cfg = ExperimentConfig(
        kind="local-law-cells",
        ensemble=AtomDistribution("rademacher"),
        n_list=(64,),
        replicates=2,
        base_seed=8,
    )
    result = run_experiment(cfg)
    row = result.summary["rows"][0]
    assert row["trials"] == 2
    assert row["contained_count_ok"]


def test_thinning_scan_matches_scalar_ops():
    for n in (1, 2, 7, 12):
        row = _thinning_scan_for_n(n)
        violations, ratios = 0, {}
        for k in range(1, n + 1):
            for j_size in range(n + 1):
                for j in range(k + 1):
                    pmf = hypergeom_removal_pmf(n, k, j_size, j)
                    bound = near_binomial_bound(n, k, j_size, j)
                    violations += pmf > bound * (1 + 1e-12)
                    if pmf > 0:
                        ratios[k, j_size, j] = pmf / bound
        worst = max(ratios.values())
        assert row["violations"] == violations == 0
        assert row["worst_ratio"] == pytest.approx(worst, rel=1e-12)
        # The reported cell holds the worst ratio.  Its 2n cells at K = 1 all
        # have ratio exp(-1/n) exactly, so rounding picks which one is first.
        at = (row["k"], row["j_size"], row["j"])
        assert ratios[at] == pytest.approx(worst, rel=1e-12)
        assert at[0] == 1 and sum(r >= worst * (1 - 1e-12) for r in ratios.values()) == 2 * n


def test_thinning_bound_overflow_is_an_infinite_bound():
    # the prefactor exceeds the largest double from n = 80 on
    assert near_binomial_bound(80, 80, 0, 80) == math.inf
    assert near_binomial_bound(80, 80, 0, 79) == 0.0  # binomial pmf 0, not inf * 0
    # neither an overflowed prefactor nor the K = 0 corner's -inf log ratio warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = [_thinning_scan_for_n(n) for n in range(1, 131)]
    for row in rows:
        assert row["violations"] == 0
        assert 0.0 < row["worst_ratio"] <= 1.0


def test_thinning_scan_filter_drops_no_deciding_cell(monkeypatch):
    sizes = [*range(1, 61), 80, 120, 150]
    filtered = [_thinning_scan_for_n(n) for n in sizes]
    # no slice is cleared, so the exact evaluator sees every feasible cell
    monkeypatch.setattr(experiments, "_SCAN_CLEAR", -math.inf)
    assert [_thinning_scan_for_n(n) for n in sizes] == filtered


def test_thinning_scan_rows_past_n_130_are_pinned():
    rows = [_thinning_scan_for_n(n) for n in (150, 200, 257, 300)]
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == "63e3977ccc660d06d1b6a193cd737dcb2365742964301b663ea6410c30c58723"


def test_thinning_scan_rows_up_to_the_n_max_cap_are_pinned():
    # every feasible binomial is at least 2^-n > 0, so no 0/0 or x/0 arises
    with np.errstate(all="raise"):
        rows = [_thinning_scan_for_n(n) for n in (500, 640, 1000, experiments._SCAN_NORMAL_N)]
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == "4192bb83fe70450d28e677927b3906ff5155f9d6870dcb2a9357e0a99ee8ea0d"


def test_thinning_bound_records_across_k_blocks_are_pinned():
    # the records of n = 1..130; test_thinning_scan_rows_past_n_130_are_pinned pins larger n
    result = run_experiment(ExperimentConfig(kind="thinning-bound", n_max=130))
    records = records_jsonl(result)
    body = records.split("\n", 1)[1]  # the lines below the config header
    digest = hashlib.sha256(records.encode("utf-8")).hexdigest()
    assert digest == "c021899f6d29f1101447638e85b2c3994e46e90448a5aace5ab73a5f1dc753ca"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert digest == "f0bd9e03c2f76613539128940bca1b558115a6e3faaf5bbde03bd3870228b064"


def test_pool_map_keeps_a_few_tasks_per_worker_ahead_in_run_order():
    submitted = []

    class DonePool:  # futures that are done when submitted, so no worker process
        def submit(self, fn, x):
            submitted.append(x)
            future = Future()
            future.set_result(fn(x))
            return future

    ahead = 2 * experiments._TASKS_PER_WORKER
    results = []
    for result in experiments._pool_map(DonePool(), lambda x: x * x, range(30), workers=2):
        assert len(submitted) == min(30, len(results) + 1 + ahead)
        results.append(result)
    assert results == [x * x for x in range(30)] and submitted == list(range(30))


def test_thinning_scan_memory_is_quadratic():
    # one dense (K, J, j) float array at n = 300 alone is 207 MiB; the scan's
    # per-|J| slices and (n+1)^2 tables peak near 2.9 MiB
    tracemalloc.start()
    try:
        _thinning_scan_for_n(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_thinning_bound_run():
    cfg = ExperimentConfig(kind="thinning-bound", n_max=10, replicates=1)
    result = run_experiment(cfg)
    assert result.summary["violations"] == 0
    assert result.summary["worst_ratio"] <= 1.0
    assert set(result.summary["worst_case"]) == {"n", "k", "j_size", "j"}
    assert len(result.records) == 10


def test_jsonl_reproducibility_across_threads(pools):
    base = dict(kind="partial-fixed-K", n_list=(24,), k=2, f_id="re", replicates=8, base_seed=13)
    # each run solves its own matrices, not the previous run's memoized spectra
    one = records_jsonl(run_experiment(ExperimentConfig(**base, threads=1)))
    experiments._SPECTRA.clear()
    two = records_jsonl(run_experiment(ExperimentConfig(**base, threads=2)))
    experiments._SPECTRA.clear()
    again = records_jsonl(run_experiment(ExperimentConfig(**base, threads=1)))
    assert pools == [2]
    assert one == two == again
    header = json.loads(one.splitlines()[0])
    assert header["config_hash"] == config_hash(ExperimentConfig(**base))


# SHA-256 prefixes of records_jsonl, of its lines below the config header and
# of the summary JSON, to hold across versions: one config per kind, and two
# with several sizes, one repeated.  A change to the config's fields moves the
# first pin alone.
REPLAY_PINS = {
    "fixed_k": (dict(kind="partial-fixed-K", n_list=(24, 40), k=3, f_id="abs2", replicates=12,
                     base_seed=7),
                "ca6560b7035bd30a", "edc01a19d54a185b", "0b3bb7d6569d1331"),
    "growing_k": (dict(kind="partial-growing-K", n_list=(81,), f_id="repow_3", replicates=8,
                       base_seed=4),
                  "28f5ed7affba215f", "6649787f4f7714e0", "c19f5e3b9435f6fa"),
    "full_clt": (dict(kind="full-clt", ensemble=AtomDistribution("rademacher"), n_list=(16, 24),
                      replicates=6, base_seed=5),
                 "b93c5ddbfede3b42", "b2d9f5d8b7749f13", "67e9539036c22307"),
    "w1_sample": (dict(kind="wasserstein-decay", n_list=(9, 16), replicates=3, base_seed=6),
                  "d3d47e9872032653", "ebf6a460d20dd861", "fbcb66cddfdb531f"),
    "w1_lattice": (dict(kind="wasserstein-decay", method="lattice", n_list=(16, 25), replicates=2,
                        base_seed=6),
                   "b349540ad703303b", "aa76f29f7ce4d835", "ba06df51c30aa357"),
    "local_law": (dict(kind="local-law-cells", ensemble=AtomDistribution("real-gaussian"),
                       n_list=(32,), replicates=3, base_seed=8),
                  "7a3f07281adbfbce", "87dbb42325577394", "bbba2403eace118d"),
    "thinning": (dict(kind="thinning-bound", n_max=20, replicates=1),
                 "126360d1aa3c7ed8", "bb635aa2430a51ac", "7e9bba2d147acf88"),
    "local_law_sizes": (dict(kind="local-law-cells", ensemble=AtomDistribution("rademacher"),
                             n_list=(128, 64), replicates=1, base_seed=3),
                        "ea6d783b9b7b4240", "b3d543d4ebd4b23d", "d275e26de84b586d"),
    "w1_sizes": (dict(kind="wasserstein-decay", n_list=(64, 128, 64), replicates=2, base_seed=9),
                 "aca0df478ca0de89", "78d93b8e5e7c7efd", "2b9f3f86e81f9fe2"),
}


@pytest.mark.parametrize("config, records_pin, body_pin, summary_pin", REPLAY_PINS.values(),
                         ids=REPLAY_PINS.keys())
def test_replay_hashes_are_pinned(pools, config, records_pin, body_pin, summary_pin):
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    # solved serially, then by a pool, then read from the memo the pool's run filled
    for threads, fresh in ((1, True), (2, True), (1, False)):
        if fresh:
            experiments._SPECTRA.clear()
        result = run_experiment(ExperimentConfig(**config, threads=threads))
        records = records_jsonl(result)
        body = records.split("\n", 1)[1]
        summary = json.dumps(result.summary, sort_keys=True, default=str)
        assert (digest(records), digest(body), digest(summary)) == (records_pin, body_pin,
                                                                     summary_pin)
    assert pools == ([] if config["kind"] == "thinning-bound" else [2])


def _count_solves(monkeypatch) -> list:
    """Route experiments' solves through a wrapper; returns the list of solved matrices."""
    calls = []

    def counted(m, scale):
        calls.append((m.dist_kind, m.n, m.seed))
        return eigenvalues(m, scale=scale)

    monkeypatch.setattr(experiments, "eigenvalues", counted)
    return calls


def _outputs(config):
    result = run_experiment(config)
    return records_jsonl(result), json.dumps(result.summary, sort_keys=True)


# Runs at one kind, base seed and ensemble that measure the same matrices differently.
SWEEPS = {
    "f": [dict(kind="partial-fixed-K", n_list=(16,), k=2, f_id=f)
          for f in ("re", "abs2", "repow_3")],
    "k": [dict(kind="partial-fixed-K", n_list=(16,), k=k) for k in (1, 3, 16)],
    "n_list": [dict(kind="partial-fixed-K", n_list=(12, 16), k=1, f_id=f)
               for f in ("re", "abs2")],
    "method": [dict(kind="wasserstein-decay", n_list=(9, 16), method=m)
               for m in ("sample", "lattice")],
}


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
def test_sweep_solves_each_matrix_once_with_unchanged_records(monkeypatch, sweep):
    configs = [ExperimentConfig(**c, replicates=5, base_seed=17) for c in sweep]
    separate = []
    for config in configs:
        experiments._SPECTRA.clear()
        separate.append(_outputs(config))
    experiments._SPECTRA.clear()
    calls = _count_solves(monkeypatch)
    assert [_outputs(config) for config in configs] == separate
    solves_per_replicate = len(KINDS[configs[0].kind].solves)
    assert len(calls) == len(set(calls)) == 5 * len(configs[0].n_list) * solves_per_replicate


def test_pool_run_fills_the_memo_with_read_only_spectra(monkeypatch, pools):
    base = dict(kind="partial-fixed-K", n_list=(16,), k=2, replicates=4, base_seed=5)
    threaded = ExperimentConfig(**base, f_id="re", threads=2)
    swept = ExperimentConfig(**base, f_id="abs2", threads=1)
    expected = _outputs(swept)
    experiments._SPECTRA.clear()
    run_experiment(threaded)
    assert pools == [2]
    calls = _count_solves(monkeypatch)
    assert _outputs(swept) == expected
    assert calls == []
    spectra = [s for run in experiments._SPECTRA.values() for s in run]
    assert len(spectra) == 4
    for spectrum in spectra:
        with pytest.raises(ValueError):
            spectrum.values[0] = 0


@pytest.mark.parametrize("change", [
    dict(kind="partial-growing-K"),
    dict(base_seed=18),
    dict(n_list=(12,)),
    dict(n_list=(16, 12)),
    dict(replicates=5),
    dict(ensemble=AtomDistribution("rademacher")),
    dict(ensemble=AtomDistribution("custom-discrete", atoms=(1, -1), probs=(0.5, 0.5))),
], ids=["kind", "base_seed", "n", "n_list_superset", "replicates", "ensemble",
        "ensemble_params"])
def test_memo_misses_on_another_matrix_identity(monkeypatch, change):
    base = dict(kind="partial-fixed-K", n_list=(16,), k=1, replicates=4, base_seed=17,
                ensemble=AtomDistribution("custom-discrete", atoms=(1j, -1j), probs=(0.5, 0.5)))
    run_experiment(ExperimentConfig(**base))
    calls = _count_solves(monkeypatch)
    config = ExperimentConfig(**{**base, **change})
    run_experiment(config)
    assert len(calls) == len(set(calls)) == len(config.n_list) * config.replicates
    # one run is kept: another identity replaces the earlier spectra
    assert [len(run) for run in experiments._SPECTRA.values()] == [len(calls)]


def test_failed_solve_is_replayed_without_a_second_call(monkeypatch, caplog):
    config = ExperimentConfig(kind="full-clt", n_list=(8,), replicates=100, base_seed=3)
    bad = derive_seed64(3, "full-clt", 8, 7, "matrix")
    calls = []

    def solve(m, scale):
        calls.append(m.seed)
        if m.seed == bad:
            raise EigensolverError(f"forced failure for seed={m.seed}")
        return eigenvalues(m, scale=scale)

    monkeypatch.setattr(experiments, "eigenvalues", solve)
    with caplog.at_level(logging.WARNING, logger=experiments.__name__):
        first = run_experiment(config)
        second = run_experiment(dataclasses.replace(config, f_id="abs2"))
    assert len(calls) == 100
    assert [r["replicate"] for r in first.records] == [r for r in range(100) if r != 7]
    assert [r["replicate"] for r in second.records] == [r["replicate"] for r in first.records]
    assert [r.getMessage() for r in caplog.records] == [
        f"replicate 7 skipped: forced failure for seed={bad}"
    ] * 2


def test_size_over_the_memo_budget_is_not_stored(monkeypatch):
    # n=16's 4 solves alone fit the budget; with n=32's 4 more the run does not
    monkeypatch.setattr(experiments, "_SPECTRA_BUDGET",
                        4 * (16 * 16 + experiments._SPECTRUM_OVERHEAD))
    base = dict(kind="full-clt", n_list=(16, 32), replicates=4, base_seed=9)
    expected = _outputs(ExperimentConfig(**base, f_id="abs2"))
    experiments._SPECTRA.clear()
    run_experiment(ExperimentConfig(**base, f_id="re"))
    assert experiments._SPECTRA == {}  # the run passed the budget, so none of it is stored
    calls = _count_solves(monkeypatch)
    assert _outputs(ExperimentConfig(**base, f_id="abs2")) == expected
    assert [n for _, n, _ in calls] == [16] * 4 + [32] * 4


@pytest.mark.parametrize("n, threads", [(2, 1), (64, 1), (2, 2), (64, 2)],
                         ids=["n2_serial", "n64_serial", "n2_pool", "n64_pool"])
def test_memo_holds_no_more_than_its_budget(monkeypatch, pools, n, threads):
    # a run sized just under the budget is stored; a pool's spectra arrive pickled
    budget = 64 * 1024
    monkeypatch.setattr(experiments, "_SPECTRA_BUDGET", budget)
    replicates = budget // (16 * n + experiments._SPECTRUM_OVERHEAD)
    config = ExperimentConfig(kind="full-clt", n_list=(n,), replicates=replicates,
                              threads=threads)
    tracemalloc.start()
    try:
        run_experiment(config)
        with_memo = tracemalloc.get_traced_memory()[0]
        assert [len(run) for run in experiments._SPECTRA.values()] == [replicates]
        experiments._SPECTRA.clear()
        held = with_memo - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pools == ([] if threads == 1 else [2])
    assert held <= budget


def test_small_run_at_the_default_threads_builds_no_pool(monkeypatch):
    built = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", lambda **kw: built.append(kw))
    monkeypatch.setattr(experiments, "_usable_cores", lambda: pytest.fail("cores looked up"))
    calls = _count_solves(monkeypatch)
    config = ExperimentConfig(kind="local-law-cells", n_list=(16, 24), replicates=6)
    assert config.threads == 0
    run_experiment(config)
    assert built == []
    assert len(calls) == len(set(calls)) == 2 * 6 * 2


@pytest.mark.parametrize("kind", ["partial-fixed-K", "local-law-cells"])
def test_pool_starts_at_the_work_cutoff(monkeypatch, pools, kind):
    # n^3 summed over the run's unsolved matrices: neither size reaches it alone
    work = 4 * len(KINDS[kind].solves) * (12 ** 3 + 16 ** 3)
    config = ExperimentConfig(kind=kind, n_list=(12, 16), replicates=4, threads=2)
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", work + 1)
    serial = _outputs(config)
    assert pools == []
    experiments._SPECTRA.clear()
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", work)
    assert _outputs(config) == serial
    assert pools == [2]


@pytest.mark.parametrize("cores, workers", [
    (4, 4), (8, 5), (2, 2), (1, None),
], ids=["cores", "replicates", "two_cores", "one_core"])
def test_threads_0_starts_a_worker_per_usable_core_and_unsolved_replicate(
        monkeypatch, pools, cores, workers):
    monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
    run_experiment(ExperimentConfig(kind="full-clt", n_list=(8,), base_seed=2, replicates=5))
    assert pools == ([workers] if workers else [])


def test_threads_0_falls_back_to_the_cpu_count_without_sched_getaffinity(monkeypatch, pools):
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    run_experiment(ExperimentConfig(kind="full-clt", n_list=(8,), replicates=5))
    assert pools == [3]


@pytest.mark.parametrize("config, measured_here", [
    # fewer replicates than workers: X's and G's solves are tasks of their own,
    # and the replicate is measured in this process once both are back
    (dict(kind="local-law-cells", n_list=(24,), replicates=1), 1),
    # one pool for both sizes, whose workers measure the replicates they solve
    (dict(kind="full-clt", n_list=(8, 12), replicates=3), 0),
], ids=["solve_tasks", "sizes"])
def test_one_pool_per_run_gives_the_serial_bytes(monkeypatch, pools, config, measured_here):
    config = ExperimentConfig(**config, base_seed=6)
    serial = _outputs(dataclasses.replace(config, threads=1))
    experiments._SPECTRA.clear()
    spec = KINDS[config.kind]
    here = []  # forked workers append to their own copies
    monkeypatch.setitem(KINDS, config.kind, dataclasses.replace(
        spec, measure=lambda *args: here.append(args[1]) or spec.measure(*args)))
    assert _outputs(dataclasses.replace(config, threads=2)) == serial
    assert pools == [2]
    assert len(here) == measured_here


def test_a_repeated_size_is_solved_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    config = ExperimentConfig(kind="full-clt", n_list=(8, 12, 8), replicates=2, threads=1)
    result = run_experiment(config)
    assert sorted(n for _, n, _ in calls) == [8, 8, 12, 12]
    assert result.records[:2] == result.records[4:]
    rows = result.summary["rows"]
    assert [row["n"] for row in rows] == [8, 12, 8] and rows[0] == rows[2]


@pytest.mark.parametrize("kind, replicates, threads", [
    ("full-clt", 3, 2), ("local-law-cells", 1, 4),
], ids=["replicate_tasks", "solve_tasks"])
def test_pooled_run_stops_at_the_first_size_over_the_skip_budget(
        monkeypatch, caplog, pools, kind, replicates, threads):
    def fail(m, scale):  # forked workers inherit the patched solve
        raise EigensolverError(f"forced failure at n={m.n}")

    monkeypatch.setattr(experiments, "eigenvalues", fail)
    config = ExperimentConfig(kind=kind, n_list=(8, 12), replicates=replicates, threads=threads)
    with caplog.at_level(logging.WARNING, logger=experiments.__name__):
        with pytest.raises(SkipBudgetError, match=f"^n=8: {replicates}/{replicates} replicates"):
            run_experiment(config)
    assert pools == [threads]
    assert [r.getMessage() for r in caplog.records] == [
        f"replicate {r} skipped: forced failure at n=8" for r in range(replicates)
    ]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork on Linux only")
def test_pool_workers_are_forked_as_the_cutoff_was_measured():
    assert experiments._POOL_CONTEXT.get_start_method() == "fork"


def test_records_are_replicate_ordered_and_json_clean():
    cfg = ExperimentConfig(kind="full-clt", n_list=(12,), replicates=5, base_seed=1)
    result = run_experiment(cfg)
    replicates = [rec["replicate"] for rec in result.records]
    assert replicates == sorted(replicates)
    for line in records_jsonl(result).splitlines():
        json.loads(line)


# Per kind: a summary just inside every --assert threshold, one just outside,
# and the failure messages of the latter, in order.
GATE_CASES = [
    (
        "partial-fixed-K",
        {"rows": [
            {"n": 64, "removed_var": 1.19, "removed_var_target": 1.0, "ks_p": 0.0011},
            {"n": 128, "removed_var": 0.81, "removed_var_target": 1.0, "ks_p": 0.5},
        ]},
        {"rows": [
            {"n": 64, "removed_var": 1.21, "removed_var_target": 1.0, "ks_p": 0.001},
            {"n": 128, "removed_var": 0.79, "removed_var_target": 1.0, "ks_p": 0.5},
        ]},
        [
            "n=64: removed_var 1.2100 outside 20% of 1.0000",
            "n=64: KS p 1.00e-03 <= 0.001",
            "n=128: removed_var 0.7900 outside 20% of 1.0000",
        ],
    ),
    (
        "partial-growing-K",
        {"rows": [
            {"n": 256, "removed_var_re": 0.31, "target_var_re": 0.25, "ks_p": 0.0011},
            {"n": 625, "removed_var_re": 0.19, "target_var_re": 0.25, "ks_p": 0.5},
        ]},
        {"rows": [
            {"n": 256, "removed_var_re": 0.32, "target_var_re": 0.25, "ks_p": 0.0009},
            {"n": 625, "removed_var_re": 0.18, "target_var_re": 0.25, "ks_p": 0.5},
        ]},
        [
            "n=256: removed_var_re 0.3200 outside 25% of 0.2500",
            "n=256: KS p 9.00e-04 <= 0.001",
            "n=625: removed_var_re 0.1800 outside 25% of 0.2500",
        ],
    ),
    (
        "full-clt",
        {"rows": [
            {"n": 256, "full_var": 0.62, "target_var": 0.5},
            {"n": 512, "full_var": 0.38, "target_var": 0.5},
        ]},
        {"rows": [
            {"n": 256, "full_var": 0.63, "target_var": 0.5},
            {"n": 512, "full_var": 0.37, "target_var": 0.5},
        ]},
        [
            "n=256: full_var 0.6300 outside 25% of 0.5000",
            "n=512: full_var 0.3700 outside 25% of 0.5000",
        ],
    ),
    (
        "wasserstein-decay",
        {"rows": [
            {"n": 64, "w1_mean": 0.3, "frac_below_quarter_power": 0.5},
            {"n": 256, "w1_mean": 0.2999, "frac_below_quarter_power": 1.0},
        ]},
        {"rows": [
            {"n": 64, "w1_mean": 0.3, "frac_below_quarter_power": 0.5},
            {"n": 256, "w1_mean": 0.3, "frac_below_quarter_power": 0.95},
        ]},
        [
            "mean W1 not strictly decreasing: [0.3, 0.3]",
            "n=256: only 95% of trials below n^(-1/4)",
        ],
    ),
    (
        "local-law-cells",
        {"rows": [
            {"n": 1024, "max_normalized_discrepancy": 5.0, "contained_count_ok": True},
        ]},
        {"rows": [
            {"n": 1024, "max_normalized_discrepancy": 5.01, "contained_count_ok": False},
        ]},
        [
            "n=1024: normalized discrepancy 5.01 > 5",
            "n=1024: contained spectra missing grid mass",
        ],
    ),
    (
        "thinning-bound",
        {"violations": 0, "worst_ratio": 1.0},
        {"violations": 2, "worst_ratio": 1.5},
        ["2 bound violations"],
    ),
]


@pytest.mark.parametrize(
    "kind, inside, outside, messages", GATE_CASES, ids=[case[0] for case in GATE_CASES]
)
def test_assert_gate_thresholds(kind, inside, outside, messages):
    assert KINDS[kind].gate(inside) == []
    assert KINDS[kind].gate(outside) == messages
