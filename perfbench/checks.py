"""Output checks, run after the timed region.

Every check is one attempted operation; a failing check is one failed
operation.  Checks at any seed:

- kept + removed = full on every thinned-statistic record;
- the `--assert` thinning-bound run exits 0 with zero violations;
- the grid coupling costs at least the exact W1 on every pair;
- a few replicates per workload, recomputed here with `scipy.linalg.eigvals`,
  `math.fsum` and this file's own seed and sampling code, agree;
- seed-free outputs (disk moments, limiting variances) match the reference.

At the reference seed every record also matches `reference.json`: floats
within a rounding tolerance, integers and strings exactly.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from workloads import disk_pair

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1
REL_TOL = 1e-8
ABS_TOL = 1e-10

# Independent evaluations of the swept test functions.
FUNCTIONS = {
    "re": lambda z: z.real,
    "abs2": lambda z: z.real * z.real + z.imag * z.imag,
    "repow_3": lambda z: (z * z * z).real,
}


def base_seed(seed: int, iteration: int) -> int:
    """Base seed of one iteration; iteration 0 of the reference seed is stored."""
    return seed * 1000 + iteration


def same(a, b) -> bool:
    """Structural equality with a rounding tolerance on floats only."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return close(a, b)
    return type(a) is type(b) and a == b


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# ---------------------------------------------------------------------------
# Independent recomputation: seeds, matrices and disk points rebuilt from the
# documented Philox/SHA-256 derivations, spectra from scipy's LAPACK.

def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _derived(*parts) -> int:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _matrix(kind: str, n: int, seed: int) -> np.ndarray:
    rng = _philox(seed)
    if kind == "complex-gaussian":
        parts = rng.standard_normal((2, n * n))
        return ((parts[0] + 1j * parts[1]) * math.sqrt(0.5)).reshape(n, n)
    if kind == "rademacher":
        return (2.0 * rng.integers(0, 2, size=n * n) - 1.0).reshape(n, n)
    raise ValueError(f"no independent sampler for {kind!r}")


def _scaled_spectrum(kind: str, n: int, seed: int) -> np.ndarray:
    """Eigenvalues of X / sqrt(n), ordered by (modulus, argument in (0, 2pi])."""
    vals = scipy.linalg.eigvals(_matrix(kind, n, seed)) / math.sqrt(n)
    phases = [cmath.phase(z) for z in vals]
    args = [p if p > 0 else p + 2 * math.pi for p in phases]
    order = sorted(range(n), key=lambda i: (abs(vals[i]), args[i]))
    return vals[order]


def _fsum(values) -> complex:
    values = list(values)
    return complex(math.fsum(z.real for z in values), math.fsum(z.imag for z in values))


def _recompute_partial(record: dict, f_id: str) -> list:
    n, k = record["n"], record["k"]
    spectrum = _scaled_spectrum("complex-gaussian", n, record["seed_matrix"])
    removed_at = set(_philox(record["seed_index"]).choice(n, size=k, replace=False).tolist())
    terms = [complex(FUNCTIONS[f_id](z)) for z in spectrum]
    kept = _fsum(t for i, t in enumerate(terms) if i not in removed_at)
    removed = _fsum(t for i, t in enumerate(terms) if i in removed_at)
    full = _fsum(terms)
    return [
        close(record["kept_re"], kept.real), close(record["kept_im"], kept.imag),
        close(record["removed_re"], removed.real), close(record["removed_im"], removed.imag),
        close(record["full_re"], full.real), close(record["full_im"], full.imag),
    ]


def _exact_w1(a: np.ndarray, b: np.ndarray) -> float:
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols].tolist()) / a.size


def _recompute_wasserstein(record: dict) -> bool:
    n = record["n"]
    spectrum = _scaled_spectrum("complex-gaussian", n, record["seed_matrix"])
    rng = _philox(_derived(record["seed_disk"], "disk-rep", 0))
    radius = np.sqrt(rng.random(n))
    disk = radius * np.exp(1j * (2.0 * np.pi * rng.random(n)))
    return close(record["w1"], _exact_w1(spectrum, disk))


def _recompute_local_law_x(record: dict, bound: float) -> bool:
    n = record["n"]
    spectrum = _scaled_spectrum("rademacher", n, record["seed_x"])
    inside = sum(-bound <= z.real < bound and -bound <= z.imag < bound for z in spectrum)
    return close(record["radius_x"], float(np.max(np.abs(spectrum)))) and inside == record["x_in_grid"]


# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _invariants(name: str, row: dict) -> bool:
    if name.startswith("partial-"):
        return (
            close(row["kept_re"] + row["removed_re"], row["full_re"])
            and close(row["kept_im"] + row["removed_im"], row["full_im"])
        )
    if name == "local-law-cells":
        n = row["n"]
        return (
            0 <= row["x_in_grid"] <= n and 0 <= row["g_in_grid"] <= n
            and close(row["normalized_discrepancy"], row["max_cell_discrepancy"] / n ** 0.25)
        )
    if name == "wasserstein-decay":
        return 0.0 < row["w1"] < 2.0
    if name == "thinning-bound":
        return row["violations"] == 0 and 0.0 < row["worst_ratio"] <= 1.0
    if name.startswith("coupling/"):
        return row["grid"] >= row["exact"] * (1.0 - 1e-12)
    return True


def check_outcome(workload: str, outcome, seed: int, iteration: int, sizes, reference) -> list:
    """(check name, passed) for one iteration's outcome.

    The costly checks (recomputation, reference comparison) run on
    iteration 0 only; per-record invariants run on every iteration.
    """
    results = []
    for name, rows in outcome.records.items():
        results.extend((f"{name}[{i}] invariants", _invariants(name, row)) for i, row in enumerate(rows))
    if workload == "no-solve" and "thinning-bound" in outcome.records:
        exit_rows = outcome.values.get("thinning-bound-exit", [{"exit": None}])
        results.append(("thinning-bound --assert exit 0", exit_rows[0]["exit"] == 0))
        results.append(("thinning-bound scans 1..n_max",
                        [r["n"] for r in outcome.records["thinning-bound"]] == list(range(1, sizes.n_max + 1))))
    if iteration != 0:
        return results

    expected = reference.get(workload) if seed == REFERENCE_SEED else None
    if expected is not None:
        for group in ("records", "values"):
            for name, rows in expected[group].items():
                got = getattr(outcome, group).get(name, [])
                results.extend(
                    (f"{name}[{i}] matches reference", i < len(got) and same(got[i], row))
                    for i, row in enumerate(rows)
                )
    elif workload == "no-solve" and "no-solve" in reference:
        moments = outcome.values.get("moments")
        results.append(("moments match reference",
                        moments is not None and same(moments, reference["no-solve"]["values"]["moments"])))

    records = outcome.records
    if workload == "thinned-n256":
        for name, f_id in (("partial-fixed-K/re", "re"), ("partial-growing-K", "re"),
                           ("partial-fixed-K/repow_3", "repow_3")):
            if records.get(name):
                results.append((f"{name}[0] recomputed", all(_recompute_partial(records[name][0], f_id))))
    elif workload == "large-n1024":
        if records.get("wasserstein-decay"):
            results.append(("wasserstein-decay[0] recomputed", _recompute_wasserstein(records["wasserstein-decay"][0])))
        if records.get("local-law-cells"):
            results.append(("local-law-cells[0] X recomputed",
                            _recompute_local_law_x(records["local-law-cells"][0], 1.25)))
    elif workload == "no-solve":
        for n, _ in sizes.pairs:
            rows = records.get(f"coupling/n={n}")
            if rows:
                a, b = disk_pair(base_seed(seed, 0), n, 0)
                results.append((f"coupling/n={n}[0] exact recomputed", close(rows[0]["exact"], _exact_w1(a, b))))
    return results
