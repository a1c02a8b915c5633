"""Numerical laboratory for heavy-tailed symmetric random matrices.

Finite-size Monte Carlo (sampling, spectra, eigenvector localization
statistics) on one side; the limiting objects (the fixed point of the
resolvent order-parameter map, the spectral density, the linearized
kernel operator and its Fredholm determinants) on the other; and the
cross-validation experiments tying the two together.
"""

__version__ = "0.1.0"

from .halfplane import HomogeneousFn, check_involution, default_grid, dot, kappa_norm
from .localization import (
    IntervalStats,
    interval_stats,
    renyi_divergence_stat,
    resolvent_upper_bound,
)
from .matrix_model import (
    LevyMatrix,
    ResolventDiagonal,
    SpectralDecomposition,
    build_levy_matrix,
    eigendecompose,
    empirical_gamma,
    fractional_moment,
    resolvent_diagonal,
)
from .stable_random import StableLaw, sample_standard_stable, substream

__all__ = [
    "HomogeneousFn", "check_involution", "default_grid", "dot", "kappa_norm",
    "IntervalStats", "interval_stats", "renyi_divergence_stat",
    "resolvent_upper_bound",
    "LevyMatrix", "ResolventDiagonal", "SpectralDecomposition",
    "build_levy_matrix", "eigendecompose", "empirical_gamma",
    "fractional_moment", "resolvent_diagonal",
    "StableLaw", "sample_standard_stable", "substream",
    "__version__",
]
