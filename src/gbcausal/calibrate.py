"""Learning-rate selection for the generalized posterior.

Two routes: the plug-in rule omega = 1 / Var(pseudo-outcomes), and bootstrap
coverage matching — construct the credible region at the current omega,
estimate its repeated-sampling coverage by checking whether each resample's
credible interval contains the full-data point estimate, then move log omega
by kappa_t (c_hat - (1 - alpha)) with kappa_t = 1/t until the bootstrap
coverage is within tolerance of nominal.

Bootstrap resamples reuse the original cross-fitted nuisance fits by
default (pseudo-outcome values are resampled, nuisances are not refit);
pass refit_nuisances=True to refit them inside every resample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateVariance, DomainError, NumericError
from .gibbs_ate import NormalPrior, normal_update
from .gibbs_cate import KernelParams, exact_gp_posterior
from .nuisance import NuisanceConfig, cross_fit
from .numerics import Rng, normal_quantile
from .pseudo import PseudoOutcomes, Strategy, cross_fitted_pseudo


@dataclass(frozen=True)
class CalibrationResult:
    omega: float
    iterations: int
    achieved_bootstrap_coverage: float
    converged: bool


def plugin_omega(pseudo: PseudoOutcomes) -> float:
    """Reciprocal of the unbiased sample variance of the pseudo-outcomes."""
    if pseudo.n < 2:
        raise DomainError("plug-in omega needs at least two pseudo-outcomes")
    var = float(np.var(pseudo.values, ddof=1))
    if not var > 0:
        raise DegenerateVariance("pseudo-outcomes are constant; variance is zero")
    return 1.0 / var


def gpc_search(coverage_fn, omega0, alpha, max_iter, tol=0.01) -> CalibrationResult:
    """Stochastic-approximation search for omega on the log scale.

    `coverage_fn(omega, t)` estimates the bootstrap coverage of the
    (1 - alpha) credible set at the given omega. A coverage deficit lowers
    omega (widening the posterior); an excess raises it.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    target = 1.0 - alpha
    log_omega = math.log(omega0)
    c_hat = float("nan")
    for t in range(1, max_iter + 1):
        omega = math.exp(log_omega)
        c_hat = float(coverage_fn(omega, t))
        if abs(c_hat - target) <= tol:
            return CalibrationResult(
                omega=omega, iterations=t, achieved_bootstrap_coverage=c_hat, converged=True
            )
        if t < max_iter:
            log_omega += (c_hat - target) / t
    return CalibrationResult(
        omega=math.exp(log_omega),
        iterations=max_iter,
        achieved_bootstrap_coverage=c_hat,
        converged=False,
    )


def _ate_gpc(pseudo: PseudoOutcomes, prior: NormalPrior, alpha, b_boot, max_iter, tol,
             resample_means):
    """Coverage matching for the ATE posterior: `resample_means(t)` returns
    the pseudo-outcome means of iteration t's bootstrap resamples, and each
    resample's credible interval is checked for the full-data estimate."""
    if b_boot < 50:
        raise DomainError("b_boot must be >= 50")
    n = pseudo.n
    theta_hat = float(np.mean(pseudo.values))
    omega0 = plugin_omega(pseudo)
    z = normal_quantile(1.0 - alpha / 2.0)

    def coverage(omega, t):
        m_p_b, s_p_sq = normal_update(prior, omega, n, resample_means(t))
        half = z * math.sqrt(s_p_sq)
        return float(np.mean(np.abs(theta_hat - m_p_b) <= half))

    return gpc_search(coverage, omega0, alpha, max_iter, tol)


def gpc_omega_from_pseudo(
    pseudo: PseudoOutcomes,
    prior: NormalPrior,
    alpha,
    b_boot,
    max_iter,
    rng: Rng,
    tol=0.01,
) -> CalibrationResult:
    """Coverage-matching calibration for the scalar ATE posterior, given
    already cross-fitted pseudo-outcomes."""
    values = pseudo.values
    n = pseudo.n

    def resample_means(t):
        return values[rng.derive(t).integers(n, (b_boot, n))].mean(axis=1)

    return _ate_gpc(pseudo, prior, alpha, b_boot, max_iter, tol, resample_means)


def gpc_omega(
    ds: Dataset,
    strategy: Strategy,
    prior: NormalPrior,
    alpha,
    b_boot,
    max_iter,
    rng: Rng,
    folds=5,
    nuisance_config: NuisanceConfig = NuisanceConfig(),
    refit_nuisances=False,
    tol=0.01,
) -> CalibrationResult:
    """End-to-end calibration: cross-fit the nuisances once, then run the
    bootstrap coverage search on the resulting pseudo-outcomes."""
    cf = cross_fit(ds, folds, nuisance_config, rng.derive(0))
    pseudo = cross_fitted_pseudo(ds, cf, strategy)
    if not refit_nuisances:
        return gpc_omega_from_pseudo(pseudo, prior, alpha, b_boot, max_iter, rng.derive(1), tol)

    n = ds.n
    boot_rng = rng.derive(1)

    def resample_means(t):
        it_rng = boot_rng.derive(t)
        idx = it_rng.integers(n, (b_boot, n))
        means = []
        for b in range(b_boot):
            rows = idx[b]
            try:
                ds_b = Dataset(x=ds.x[rows], a=ds.a[rows], y=ds.y[rows])
                cf_b = cross_fit(ds_b, folds, nuisance_config, it_rng.derive(b))
                pv_b = cross_fitted_pseudo(ds_b, cf_b, strategy)
            except NumericError:
                continue  # degenerate resample (e.g. an arm collapsed)
            means.append(float(np.mean(pv_b.values)))
        if not means:
            raise DegenerateVariance("every bootstrap resample failed to refit nuisances")
        return np.array(means)

    return _ate_gpc(pseudo, prior, alpha, b_boot, max_iter, tol, resample_means)


def gpc_omega_cate_from_pseudo(
    x,
    pseudo: PseudoOutcomes,
    alpha,
    b_boot,
    max_iter,
    rng: Rng,
    kernel: KernelParams,
    query_x,
    tol=0.01,
) -> CalibrationResult:
    """Coverage-matching calibration for the CATE posterior, targeting the
    reported functional: the average pointwise coverage over the query rows.

    Each resample refits the second-stage GP (exact engine) on resampled
    (covariate, pseudo-outcome) pairs while reusing the cross-fitted
    nuisances; containment is checked against the full-data posterior mean
    at the same omega.
    """
    if b_boot < 50:
        raise DomainError("b_boot must be >= 50")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    omega0 = plugin_omega(pseudo)
    z = normal_quantile(1.0 - alpha / 2.0)
    query_x = np.atleast_2d(np.asarray(query_x, dtype=float))
    n = x.shape[0]

    def coverage(omega, t):
        full = exact_gp_posterior(x, pseudo, kernel, omega)
        point_est, _ = full.predict(query_x)
        idx = rng.derive(t).integers(n, (b_boot, n))
        hits = 0
        for b in range(b_boot):
            rows = idx[b]
            pv_b = PseudoOutcomes(
                values=pseudo.values[rows], strategy=pseudo.strategy, cross_fitted=True
            )
            gp_b = exact_gp_posterior(x[rows], pv_b, kernel, omega)
            means_b, vars_b = gp_b.predict(query_x)
            half = z * np.sqrt(vars_b)
            hits += int(np.sum(np.abs(point_est - means_b) <= half))
        return hits / (b_boot * query_x.shape[0])

    return gpc_search(coverage, omega0, alpha, max_iter, tol)


def gpc_omega_cate(
    ds: Dataset,
    strategy: Strategy,
    alpha,
    b_boot,
    max_iter,
    rng: Rng,
    kernel: KernelParams,
    query_x,
    folds=5,
    nuisance_config: NuisanceConfig = NuisanceConfig(),
    tol=0.01,
) -> CalibrationResult:
    cf = cross_fit(ds, folds, nuisance_config, rng.derive(0))
    pseudo = cross_fitted_pseudo(ds, cf, strategy)
    return gpc_omega_cate_from_pseudo(
        ds.x, pseudo, alpha, b_boot, max_iter, rng.derive(1), kernel, query_x, tol
    )
