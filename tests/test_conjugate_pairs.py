"""Exact finite-n oracle: a real matrix's eigenvalues come in conjugate pairs.

The real-arithmetic solve returns the non-real eigenvalues of a real matrix as
exact conjugate pairs, so for f = im every full sum is 0.0 and the kept part
is exactly minus the removed part, on every record of a real ensemble: the
non-Gaussian limit with no Gaussian component (ROADMAP item 2).
"""

import pytest

from thinspec.ensembles import AtomDistribution
from thinspec.experiments import ExperimentConfig, run_experiment


@pytest.mark.parametrize("ensemble", ["rademacher", "real-gaussian"])
@pytest.mark.parametrize("kind, extra", [("partial-fixed-K", {"k": 2}),
                                         ("partial-growing-K", {}), ("full-clt", {})],
                         ids=["partial-fixed-K", "partial-growing-K", "full-clt"])
def test_im_sums_of_a_real_matrix_cancel_exactly(kind, extra, ensemble):
    config = ExperimentConfig(kind=kind, ensemble=AtomDistribution(ensemble),
                              n_list=(16, 33, 64), replicates=20, f_id="im", threads=1,
                              **extra)
    records = run_experiment(config).records
    assert len(records) == 60
    for record in records:
        where = (record["n"], record["replicate"])
        assert record["full_re"] == 0.0, where
        if kind != "full-clt":
            assert record["kept_re"] == -record["removed_re"], where
