import tempfile

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
