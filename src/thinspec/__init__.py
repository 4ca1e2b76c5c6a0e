"""Thinned linear eigenvalue statistics of iid non-Hermitian random matrices.

Seeded matrix ensembles, predicted spiral lattices, spiral-ordered spectra,
exact and grid-coupled Wasserstein-1 transport, thinning bounds and limit
laws, and reproducible experiment pipelines with a CLI front end.

Each name is imported from the module that defines it, for example
`from thinspec.experiments import run_experiment`.  The package root keeps
only the three names the benchmark's warm-up reads through it.
"""

from .ensembles import AtomDistribution, sample_matrix
from .spectral import eigenvalues

__version__ = "0.1.0"
