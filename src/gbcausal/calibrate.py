"""Learning-rate selection for the generalized posterior.

Two routes: the plug-in rule omega = 1 / Var(pseudo-outcomes), and bootstrap
coverage matching. The latter takes b_boot resamples from one fixed stream
per calibration, one row of indices at a time, which makes the bootstrap
coverage of the credible set a deterministic function of omega, and solves
for nominal coverage on log omega (gpc_search).
The CATE search is told how to refit the engine it calibrates: it takes
that engine's resampler from gibbs_cate and builds no kernel matrix itself.

Bootstrap resamples reuse the original cross-fitted nuisance fits by
default (pseudo-outcome values are resampled, nuisances are not refit);
pass refit_nuisances=True to refit them once inside every resample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateVariance, DomainError, NumericError
from .gibbs_ate import NormalPrior, normal_update
from .nuisance import NuisanceConfig, cross_fit
from .numerics import Rng, normal_quantile, pseudo_vector
from .pseudo import Strategy, cross_fitted_pseudo


@dataclass(frozen=True)
class CalibrationResult:
    omega: float
    iterations: int
    achieved_bootstrap_coverage: float
    converged: bool


# gpc_search stops once the bootstrap coverage is this close to 1 - alpha
COVERAGE_TOL = 0.01


def plugin_omega(pseudo: np.ndarray) -> float:
    """Reciprocal of the unbiased sample variance of the pseudo-outcomes."""
    pseudo = pseudo_vector(pseudo)
    if pseudo.size < 2:
        raise DomainError("plug-in omega needs at least two pseudo-outcomes")
    if not np.isfinite(pseudo).all():  # a NaN variance would read as "constant"
        raise NumericError("pseudo-outcomes are not finite")
    var = float(np.var(pseudo, ddof=1))
    if not var > 0:
        raise DegenerateVariance("pseudo-outcomes are constant; variance is zero")
    return 1.0 / var


def gpc_search(coverage_fn, omega0, alpha, max_iter) -> CalibrationResult:
    """Solve coverage_fn(omega) = 1 - alpha on the log-omega scale.

    `coverage_fn(omega)` is the bootstrap coverage of the (1 - alpha)
    credible set, a deterministic step function assumed falling in omega.
    An informative prior can break that: the posterior tends to the prior
    as omega -> 0, so coverage may rise, then fall, and peak below nominal.
    From omega0, log omega steps by 1 toward nominal until the coverage gap
    changes sign, then Illinois-secant closes the bracket. Every evaluation
    counts against max_iter. Returns the evaluated omega whose coverage is
    closest to nominal (the latest on ties), with that coverage, and
    converged=False if it is not within COVERAGE_TOL of nominal.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    target = 1.0 - alpha
    evals = []
    ends = {}  # sign of the coverage gap -> [log omega, gap used by the secant]
    log_omega, last = math.log(omega0), 0
    while len(evals) < max_iter:
        omega = math.exp(log_omega)
        c_hat = float(coverage_fn(omega))
        evals.append((omega, c_hat))
        gap = c_hat - target
        converged = abs(gap) <= COVERAGE_TOL + 1e-12  # 0.94 - 0.95 rounds to just over 0.01
        if converged:
            break
        side = 1 if gap > 0 else -1
        if side == last and -side in ends:
            ends[-side][1] /= 2.0  # Illinois: down-weight the end kept twice
        ends[side], last = [log_omega, gap], side
        if len(ends) < 2:
            log_omega += side
        else:
            (x_pos, g_pos), (x_neg, g_neg) = ends[1], ends[-1]
            log_omega = (x_pos * g_neg - x_neg * g_pos) / (g_neg - g_pos)
    omega, c_hat = min(reversed(evals), key=lambda e: abs(e[1] - target))
    return CalibrationResult(omega, len(evals), c_hat, converged)


def _resample_rows(rng: Rng, n, b_boot):
    """The b_boot bootstrap resamples of one calibration, as index rows drawn
    from `rng` one at a time: the rows of one (b_boot, n) draw, in O(n)
    memory. b_boot is checked on the call, before any row is drawn."""
    if b_boot < 50:
        raise DomainError("b_boot must be >= 50")
    return (rng.integers(n, n) for _ in range(b_boot))


def _ate_gpc(pseudo: np.ndarray, prior: NormalPrior, alpha, max_iter, means):
    """ATE coverage matching over the resamples' pseudo-outcome means `means`:
    each resample's credible interval is checked for the mean of `pseudo`."""
    theta_hat = float(np.mean(pseudo))
    z = normal_quantile(1.0 - alpha / 2.0)

    def coverage(omega):
        m_p_b, s_p_sq = normal_update(prior, omega, pseudo.size, means)
        return float(np.mean(np.abs(theta_hat - m_p_b) <= z * math.sqrt(s_p_sq)))

    return gpc_search(coverage, plugin_omega(pseudo), alpha, max_iter)


def gpc_omega_from_pseudo(
    pseudo: np.ndarray,
    prior: NormalPrior,
    alpha,
    b_boot,
    max_iter,
    rng: Rng,
) -> CalibrationResult:
    """Coverage-matching calibration for the scalar ATE posterior, given
    the already cross-fitted pseudo-outcome vector `pseudo`."""
    pseudo = pseudo_vector(pseudo)
    rows = _resample_rows(rng.derive(1), pseudo.size, b_boot)
    means = np.array([pseudo[r].mean() for r in rows])
    return _ate_gpc(pseudo, prior, alpha, max_iter, means)


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
) -> CalibrationResult:
    """End-to-end calibration: cross-fit the nuisances once, then run the
    bootstrap coverage search on the resulting pseudo-outcomes."""
    cf = cross_fit(ds, folds, nuisance_config, rng.derive(0))
    pseudo = cross_fitted_pseudo(ds, cf, strategy)
    if not refit_nuisances:
        return gpc_omega_from_pseudo(pseudo, prior, alpha, b_boot, max_iter, rng.derive(1))

    boot_rng = rng.derive(1).derive(1)
    means = []
    for b, rows in enumerate(_resample_rows(boot_rng, ds.n, b_boot)):
        try:
            ds_b = Dataset(x=ds.x[rows], a=ds.a[rows], y=ds.y[rows])
            cf_b = cross_fit(ds_b, folds, nuisance_config, boot_rng.derive(b))
            means.append(float(np.mean(cross_fitted_pseudo(ds_b, cf_b, strategy))))
        except NumericError:
            continue  # degenerate resample (e.g. an arm collapsed)
    if not means:
        raise DegenerateVariance("every bootstrap resample failed to refit nuisances")
    return _ate_gpc(pseudo, prior, alpha, max_iter, np.array(means))


def gpc_omega_cate_from_pseudo(
    pseudo: np.ndarray, alpha, b_boot, max_iter, rng: Rng, fit
) -> CalibrationResult:
    """Coverage-matching calibration for the CATE posterior on `pseudo`,
    targeting the average pointwise coverage over the query rows.

    `fit(rows, omega)` is the engine's resampler (exact_gp_resampler or
    sparse_gp_resampler): the posterior moments at the query rows after a
    fit to the rows `rows` of the covariates and pseudo-outcomes. Each
    resample refits the second stage and reuses the cross-fitted nuisances;
    containment is checked against the full-data posterior mean at the same
    omega.
    """
    pseudo = pseudo_vector(pseudo)
    n = pseudo.size
    _resample_rows(rng, n, b_boot)  # checks b_boot now; draws nothing
    z = normal_quantile(1.0 - alpha / 2.0)

    def coverage(omega):
        point_est, _ = fit(np.arange(n), omega)
        hits = 0
        # a fresh stream per evaluation: every omega sees the same resamples
        for rows in _resample_rows(rng.derive(1), n, b_boot):
            means_b, vars_b = fit(rows, omega)
            hits += int(np.sum(np.abs(point_est - means_b) <= z * np.sqrt(vars_b)))
        return hits / (b_boot * point_est.shape[0])

    return gpc_search(coverage, plugin_omega(pseudo), alpha, max_iter)
