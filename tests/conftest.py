import tempfile
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import configuration, settings

from thinspec import experiments

# Derandomized examples and no example database: every run draws the same
# cases.  Hypothesis still caches source constants on disk, so its storage
# goes to a temporary directory removed at exit, not to ./.hypothesis/.
settings.register_profile("thinspec", derandomize=True, deadline=None, database=None)
settings.load_profile("thinspec")
_storage = tempfile.TemporaryDirectory(prefix="thinspec-hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)


@pytest.fixture(autouse=True)
def _no_memoized_spectra():
    """Each test starts without the previous run's spectra, so it solves its own."""
    experiments._SPECTRA.clear()


@pytest.fixture
def pools(monkeypatch) -> list:
    """Worker counts of the process pools the runs build, one entry per pool.

    Starts a pool for any amount of solve work, so a small run that asks for
    workers gets them instead of running serially.
    """
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0)
    built = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    return built
