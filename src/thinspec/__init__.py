"""Thinned linear eigenvalue statistics of iid non-Hermitian random matrices.

Seeded matrix ensembles, predicted spiral lattices, spiral-ordered spectra,
exact and grid-coupled Wasserstein-1 transport, thinning bounds and limit
laws, and reproducible experiment pipelines with a CLI front end.
"""

from .ensembles import (
    AtomDistribution,
    ComplexMatrix,
    DistributionError,
    MomentSummary,
    atom_moments,
    sample_matrix,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    derive_seed,
    run_experiment,
)
from .lattice import LatticeParams, PredictedLattice, lattice, lattice_params, predicted_location
from .spectral import (
    ComplexSpectrum,
    EigensolverError,
    eigenvalues,
    spectral_radius,
    spiral_compare,
    spiral_sort,
)
from .stats import (
    IndexSet,
    TestFunction,
    disk_moments,
    ginibre_variance,
    hypergeom_removal_pmf,
    ks_two_sample,
    limit_sampler_fixed_K,
    linear_statistic,
    near_binomial_bound,
    partial_statistic,
    sample_index_set,
    function_by_id,
)
from .transport import (
    GridSpec,
    TransportResult,
    default_grid,
    grid_pairing,
    uniform_disk_sample,
    w1_exact,
    w1_to_disk,
)

__version__ = "0.1.0"
