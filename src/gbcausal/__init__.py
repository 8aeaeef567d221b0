"""gbcausal: generalized (Gibbs) posteriors for causal estimands.

Builds loss-based posteriors for the ATE and CATE from cross-fitted
pseudo-outcomes (RA / IPW / DR), calibrates the loss scale for frequentist
coverage, and ships a Monte Carlo harness reproducing the coverage, length,
and nuisance-stability experiments at desk scale.
"""

from .calibrate import (
    CalibrationResult,
    gpc_omega,
    gpc_search,
    plugin_omega,
)
from .dataset import Dataset, make_folds, read_csv, write_csv
from .dgp import DgpSpec, default_spec, generate
from .gibbs_ate import (
    DIFFUSE_PRIOR,
    GaussianPosterior,
    NormalPrior,
    closed_form_posterior,
    credible_interval,
    vi_posterior,
)
from .gibbs_cate import (
    KernelParams,
    exact_gp_resampler,
    kernel_matrix,
    sparse_gp_resampler,
)
from .nuisance import CrossFit, NuisanceConfig, NuisanceFit, cross_fit
from .numerics import (
    Rng,
    cholesky_solve,
    gaussian_tv,
    normal_quantile,
)
from .pseudo import Strategy, ate_loss, cross_fitted_pseudo

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "CrossFit",
    "DIFFUSE_PRIOR",
    "Dataset",
    "DgpSpec",
    "GaussianPosterior",
    "KernelParams",
    "NormalPrior",
    "NuisanceConfig",
    "NuisanceFit",
    "Rng",
    "Strategy",
    "ate_loss",
    "cholesky_solve",
    "closed_form_posterior",
    "credible_interval",
    "cross_fit",
    "cross_fitted_pseudo",
    "default_spec",
    "exact_gp_resampler",
    "gaussian_tv",
    "generate",
    "gpc_omega",
    "gpc_search",
    "kernel_matrix",
    "make_folds",
    "normal_quantile",
    "plugin_omega",
    "read_csv",
    "sparse_gp_resampler",
    "vi_posterior",
    "write_csv",
]
