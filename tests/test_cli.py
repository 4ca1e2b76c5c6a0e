import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thinspec import experiments, spectral
from thinspec.cli import build_parser, main
from thinspec.ensembles import AtomDistribution, sample_matrix
from thinspec.spectral import EigensolverError, spiral_compare


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_lattice_csv(tmp_path):
    out = tmp_path / "lattice.csv"
    assert main(["lattice", "--n", "16", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["i", "re", "im", "ell", "q"]
    assert len(rows) == 17
    assert rows[1] == ["1", "0.0", "0.0", "1", "1"]
    # boundary points are pinned to 1
    assert rows[5][1:3] == ["1.0", "0.0"]
    assert float(rows[2][1]) == pytest.approx(-0.125)


def test_spectrum_csv_is_spiral_sorted(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--ensemble", "rademacher", "--n", "32", "--seed", "3",
                 "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["index", "re", "im"]
    values = [complex(float(r[1]), float(r[2])) for r in rows[1:]]
    assert len(values) == 32
    for a, b in zip(values, values[1:]):
        assert spiral_compare(a, b, 32) <= 0


def test_sample_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sample", "--ensemble", "complex-gaussian", "--n", "8",
                     "--seed", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("ensemble", ["rademacher", "real-gaussian"])
def test_sample_csv_of_a_real_ensemble_is_the_complex_one(tmp_path, ensemble):
    out = tmp_path / "sample.csv"
    assert main(["sample", "--ensemble", ensemble, "--n", "6", "--seed", "5",
                 "--out", str(out)]) == 0
    entries = sample_matrix(AtomDistribution(ensemble), 6, seed=5).entries.astype(complex)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("i", "j", "re", "im"))
    writer.writerows((i, j, repr(float(z.real)), repr(float(z.imag)))
                    for (i, j), z in np.ndenumerate(entries))
    assert out.read_bytes() == expected.getvalue().encode()
    assert {row[3] for row in _read_csv(out)[1:]} == {"0.0"}


def test_wasserstein_csv(tmp_path):
    out = tmp_path / "w1.csv"
    records = tmp_path / "w1.jsonl"
    code = main(["wasserstein", "--n-list", "9,16", "--trials", "2", "--method", "sample",
                 "--seed", "4", "--out", str(out), "--records", str(records)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["n", "trial", "w1", "method", "seed"]
    assert len(rows) == 5
    assert {r[0] for r in rows[1:]} == {"9", "16"}
    assert all(float(r[2]) > 0 for r in rows[1:])
    lines = records.read_text().splitlines()
    assert "config_hash" in json.loads(lines[0])
    assert len(lines) == 5


def test_wasserstein_summary_carries_the_loglog_slope(tmp_path):
    summary = tmp_path / "s.csv"
    assert main(["wasserstein", "--n-list", "16,32", "--trials", "2",
                 "--summary", str(summary)]) == 0
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    rows = list(csv.DictReader(lines[1:]))
    assert [row["n"] for row in rows] == ["16", "32"]
    # two sizes: the log-log slope is that of the line through both means
    means = [float(row["w1_mean"]) for row in rows]
    slope = math.log(means[1] / means[0]) / math.log(2)
    assert [float(row["loglog_slope"]) for row in rows] == [pytest.approx(slope)] * 2


def test_partial_stats_jsonl(tmp_path):
    out = tmp_path / "partial.jsonl"
    summary = tmp_path / "partial.csv"
    code = main(["partial-stats", "--n-list", "16", "--k", "2", "--reps", "5",
                 "--seed", "2", "--out", str(out), "--summary", str(summary)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["config"]["kind"] == "partial-fixed-K"
    recs = [json.loads(line) for line in lines[1:]]
    assert len(recs) == 5
    assert all(r["kept_re"] + r["removed_re"] == r["full_re"] for r in recs)
    assert summary.read_text().startswith("# config_hash=")


def test_partial_stats_growing_flag(tmp_path):
    out = tmp_path / "grow.jsonl"
    code = main(["partial-stats", "--growing", "--n-list", "81", "--reps", "3",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["kind"] == "partial-growing-K"


def test_full_clt_smoke(tmp_path):
    out = tmp_path / "clt.jsonl"
    assert main(["full-clt", "--n-list", "12", "--reps", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_local_law_smoke(tmp_path):
    out = tmp_path / "cells.jsonl"
    assert main(["local-law", "--ensemble", "rademacher", "--n-list", "48",
                 "--trials", "2", "--seed", "3", "--out", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert all("max_cell_discrepancy" in r for r in recs)


def test_thinning_bound_assert_passes(tmp_path):
    out = tmp_path / "thin.jsonl"
    code = main(["thinning-bound", "--n-max", "12", "--out", str(out), "--assert"])
    assert code == 0


def test_variance_output(capsys):
    assert main(["variance", "--f", "re", "--atom", "complex-gaussian"]) == 0
    printed = capsys.readouterr().out
    assert "sigma2=0.5" in printed
    assert "gradient_term=0.25" in printed
    assert main(["variance", "--f", "re", "--atom", "rademacher"]) == 0
    assert "sigma2=1" in capsys.readouterr().out


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "full-clt", "n_list": [12], "replicates": 2,
                               "base_seed": 7}))
    out = tmp_path / "out.jsonl"
    assert main(["full-clt", "--config", str(cfg), "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["base_seed"] == 7
    # CLI flags override config fields
    assert main(["full-clt", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["base_seed"] == 9


def test_custom_discrete_ensemble_via_config(tmp_path):
    # distribution descriptors are expressible in the config file
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "kind": "full-clt",
        "ensemble": {"kind": "custom-discrete", "atoms": [1.0, -1.0], "probs": [0.5, 0.5]},
        "n_list": [16], "replicates": 2, "base_seed": 3,
    }))
    out = tmp_path / "clt.jsonl"
    assert main(["full-clt", "--config", str(cfg), "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["config"]["ensemble"]["kind"] == "custom-discrete"
    # invalid custom parameters are a config error
    cfg.write_text(json.dumps({
        "kind": "full-clt",
        "ensemble": {"kind": "custom-discrete", "atoms": [1.0], "probs": [0.7]},
        "n_list": [16], "replicates": 2,
    }))
    assert main(["full-clt", "--config", str(cfg), "--out", str(out)]) == 2


def test_exit_code_2_on_errors(tmp_path, capsys):
    assert main(["full-clt", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["partial-stats", "--n-list", "16", "--k", "99"]) == 2
    assert main(["full-clt", "--n-list", "12", "--f", "unknown-function"]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "wasserstein-decay"}))
    assert main(["full-clt", "--config", str(cfg)]) == 2
    capsys.readouterr()
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{bad")
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    for argv in (["lattice", "--n", "5"], ["sample", "--n", "0"],
                 ["spectrum", "--n", "4", "--seed", "-1"],
                 ["full-clt", "--config", str(not_json)],
                 ["full-clt", "--config", str(not_utf8)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_internal_value_error_escapes_main(monkeypatch):
    def broken_statistic(spectrum, f):
        raise ValueError("internal bug")

    monkeypatch.setattr(experiments, "linear_statistic", broken_statistic)
    with pytest.raises(ValueError, match="internal bug"):
        main(["full-clt", "--n-list", "4", "--reps", "2"])


def test_exit_code_2_on_misspelled_config_key(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"kind": "full-clt", "n_list": [12], "replicate": 2}))
    assert main(["full-clt", "--config", str(cfg)]) == 2
    assert "replicate" in capsys.readouterr().err


def test_exit_code_4_on_skip_budget(monkeypatch, capsys):
    def failing_solve(matrix, scale):
        raise EigensolverError("forced failure")

    monkeypatch.setattr(experiments, "eigenvalues", failing_solve)
    assert main(["full-clt", "--n-list", "12", "--reps", "3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: 3/3 replicates skipped")


def test_exit_code_3_on_assert_failure(tmp_path, capsys):
    # duplicated n gives identical means: not strictly decreasing
    out = tmp_path / "w.csv"
    code = main(["wasserstein", "--n-list", "16,16", "--trials", "2", "--seed", "4",
                 "--out", str(out), "--assert"])
    assert code == 3
    assert "ASSERT FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["full-clt", "--n-list", "4", "--reps", "0"],
    ["wasserstein", "--n-list", "4", "--trials", "0"],
], ids=["reps", "trials"])
def test_exit_code_2_on_zero_replicates(tmp_path, capsys, argv):
    out = tmp_path / "r.out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: replicates must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value, expected", [
    ("n_list", 64, "'n_list' must be a list of integers, got 64"),
    ("ensemble", "rademacher", "'ensemble' must be an object, got 'rademacher'"),
    ("n_list", "64", "'n_list' must be a list of integers, got '64'"),
    ("allow_large_k", "false", "'allow_large_k' must be a boolean, got 'false'"),
    ("replicates", 2.7, "'replicates' must be an integer, got 2.7"),
    ("k", "x", "'k' must be an integer or null, got 'x'"),
    ("n_list", [None], "'n_list' must be a list of integers, got [None]"),
    ("ensemble", {"kind": "custom-discrete", "atoms": [[1]], "probs": [1.0]},
     "'ensemble': atom [1] must be a number or a [re, im] pair of numbers"),
    ("ensemble", {"kind": "custom-discrete", "atoms": [1, -1], "probs": [0.5, 0.5], "extra": 1},
     "'ensemble': unknown ensemble field(s) ['extra']"),
    ("ensemble", {"kind": "custom-discrete", "atoms": [1, -1], "probs": ["0.5", "0.5"]},
     "'ensemble': probs ['0.5', '0.5'] must be numbers"),
    ("ensemble", {"kind": "custom-discrete", "atoms": [1, 0], "probs": [True, False]},
     "'ensemble': probs [True, False] must be numbers"),
], ids=["n_list", "ensemble", "n_list_string", "bool_string", "int_float", "k_string",
        "n_list_null", "ensemble_atom", "ensemble_extra_key", "ensemble_probs_string",
        "ensemble_probs_bool"])
def test_exit_code_2_on_wrong_config_value_type(tmp_path, capsys, field, value, expected):
    cfg = tmp_path / "bad_type.json"
    cfg.write_text(json.dumps({"kind": "full-clt", "n_list": [4], "replicates": 2, field: value}))
    assert main(["full-clt", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field ")
    assert expected in err


# Each (subcommand, flag) pair that no subcommand code reads: a usage error.
REMOVED_FLAGS = [
    ("sample", "--config", "c.json"), ("sample", "--threads", "2"),
    ("spectrum", "--config", "c.json"), ("spectrum", "--threads", "2"),
    ("lattice", "--config", "c.json"), ("lattice", "--seed", "9"), ("lattice", "--threads", "2"),
    ("variance", "--config", "c.json"), ("variance", "--seed", "9"), ("variance", "--threads", "2"),
    ("variance", "--out", "v.txt"),
    ("thinning-bound", "--seed", "9"), ("thinning-bound", "--threads", "2"),
    ("thinning-bound", "--ensemble", "rademacher"), ("thinning-bound", "--n-list", "4"),
    ("thinning-bound", "--f", "abs2"),
    ("wasserstein", "--f", "abs2"), ("local-law", "--f", "abs2"),
]
REQUIRED = {"sample": ["--n", "2"], "spectrum": ["--n", "2"], "lattice": ["--n", "4"],
            "thinning-bound": ["--n-max", "3"]}


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS])
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, monkeypatch, capsys, command, flag,
                                                  value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED.get(command, []), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_experiment_flag_dests_are_config_keys():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    outputs = {"help", "config", "out", "summary", "records", "assert_mode"}
    for name in ("wasserstein", "partial-stats", "full-clt", "local-law", "thinning-bound"):
        dests = {action.dest for action in subparsers[name]._actions}
        assert dests - outputs <= set(experiments.CONFIG_FIELDS), name


@pytest.mark.parametrize("config", [
    {"kind": "partial-growing-K", "k_divisor": 0},
    {"kind": "partial-growing-K", "k_divisor": -1},
    {"kind": "partial-growing-K", "k_divisor": 1e-320},
    {"kind": "partial-growing-K", "k_divisor": float("inf")},
    {"kind": "partial-growing-K", "k": 0},
    {"kind": "local-law-cells", "grid_bound": 1},
    {"kind": "local-law-cells", "grid_bound": float("inf")},
    {"kind": "local-law-cells", "grid_bound": 1e308},
    {"kind": "local-law-cells", "n_list": [1024], "grid_bound": 1e4},
    {"kind": "wasserstein-decay", "w1_reps": 0},
    {"kind": "wasserstein-decay", "w1_reps": 100000000000},
    {"kind": "full-clt", "f": "nope"},
    {"kind": "wasserstein-decay", "n_list": [4097]},
    {"kind": "wasserstein-decay", "method": "lattice", "n_list": [4]},
    {"kind": "full-clt", "ensemble": {"kind": "custom-discrete",
                                      "atoms": [[0.6, 0.8], [-0.6, -0.8]], "probs": [0.5, 0.5]}},
    {"kind": "full-clt", "ensemble": {"kind": "custom-discrete", "atoms": [1, -1],
                                      "probs": [float("nan")] * 2}},
    {"kind": "full-clt", "ensemble": {"kind": "custom-discrete", "atoms": [float("nan"), -1],
                                      "probs": [0.5, 0.5]}},
    {"kind": "full-clt", "threads": -1},
    {"kind": "full-clt", "n_list": [64], "replicates": 5000, "threads": 5000},
], ids=["k_divisor_0", "k_divisor_negative", "k_divisor_1e-320", "k_divisor_infinity",
        "growing_k_0", "grid_bound_1",
        "grid_bound_infinity", "grid_bound_1e308", "grid_bound_1e4_n1024", "w1_reps_0",
        "w1_reps_1e11",
        "unknown_f", "wasserstein_above_cap", "lattice_below_min_n", "complex_atom_second_moment",
        "nan_probs", "nan_atom", "threads_negative", "threads_5000"])
def test_invalid_config_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, config):
    def no_solve(matrix, scale):
        raise AssertionError("eigenvalues called for an invalid config")

    def no_pool(**kwargs):
        raise AssertionError("process pool started for an invalid config")

    monkeypatch.setattr(experiments, "eigenvalues", no_solve)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    command = {"partial-growing-K": ["partial-stats", "--growing"], "local-law-cells": ["local-law"],
               "wasserstein-decay": ["wasserstein"], "full-clt": ["full-clt"]}[config["kind"]]
    cfg = tmp_path / "invalid.json"
    cfg.write_text(json.dumps({"n_list": [16], "replicates": 2, **config}))
    assert main([*command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(spectral._openblas_threads() is None,
                    reason="numpy's BLAS is not scipy-openblas")
def test_variance_output_does_not_depend_on_blas_threads(capsys):
    get, set_ = spectral._openblas_threads()
    previous, outputs = get(), []
    try:
        for threads in (1, 2):
            set_(threads)
            assert main(["variance", "--f", "re", "--atom", "rademacher"]) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        set_(previous)
    assert outputs[0] == outputs[1]


@pytest.mark.slow
def test_records_depend_on_neither_blas_threads_nor_workers(tmp_path):
    # enough solve work for threads 0 and 2 to start a pool
    assert 10 * 256 ** 3 >= experiments._POOL_MIN_WORK
    argv = ["partial-stats", "--n-list", "256", "--k", "1", "--f", "re", "--reps", "10",
            "--seed", "5"]
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    hashes = {}
    for blas in (None, "1", "2"):
        for threads in (0, 1, 2):
            out = tmp_path / f"{blas}-{threads}.jsonl"
            subprocess.run(
                [sys.executable, "-c", "import sys; from thinspec.cli import main; sys.exit(main())",
                 *argv, "--threads", str(threads), "--out", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": blas} if blas else env,
                check=True, timeout=300,
            )
            hashes[blas, threads] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert len(set(hashes.values())) == 1, hashes
