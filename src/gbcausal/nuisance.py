"""Nuisance estimation: fixed feature map, logistic-ridge propensity,
per-arm ridge outcome regressions (T-learner), and K-fold cross-fitting.

All models share one fixed feature map Phi(X) = [X, X^2, sin(X), x_extra, 1]
with x_extra = X1*X2 for d >= 2 and X1^3 for d = 1. The propensity is fit on
the non-constant columns of Phi standardised by the training rows' own
statistics, with an unpenalised intercept and a slope penalty chosen per
training set by Laplace evidence unless one is given; its coefficients are
mapped back to Phi. Propensity predictions are clipped to
[clip_eps, 1 - clip_eps] at prediction time, so the clip applies uniformly
wherever a fit is evaluated.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import expit, logit

from .dataset import Dataset, FoldAssignment, make_folds
from .errors import DegenerateTreatment, DomainError, EmptyArm, FoldArmCollapse
from .numerics import Rng, cholesky_solve


def feature_matrix(x) -> np.ndarray:
    """(n, 3d+2) feature matrix: [X, X^2, sin(X), x_extra, 1]."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    extra = x[:, 0] * x[:, 1] if d >= 2 else x[:, 0] ** 3
    return np.hstack(
        [x, x**2, np.sin(x), extra.reshape(n, 1), np.ones((n, 1))]
    )


@dataclass(frozen=True)
class NuisanceConfig:
    """Scalar knobs not pinned by the models themselves; defaults chosen for
    stability under limited overlap.

    ``lambda_prop`` is the propensity slope penalty on standardised features
    (the intercept is never penalised); None chooses it per training set
    by Laplace evidence (see ``fit_propensity``).
    """

    clip_eps: float = 0.01
    lambda_prop: Optional[float] = None
    lambda_out: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 0.5:
            raise DomainError("clip_eps must lie in (0, 0.5)")
        if (self.lambda_prop is not None and self.lambda_prop < 0) or self.lambda_out < 0:
            raise DomainError("ridge penalties must be >= 0")


def fit_outcome(x, y, lam) -> np.ndarray:
    """Ridge coefficients minimizing ||Phi w - y||^2 + lam ||w||^2.

    Solved through the SPD normal equations; the intercept inside Phi is
    penalized like any other feature.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0:
        raise EmptyArm("outcome regression needs at least one observation in the arm")
    phi = feature_matrix(x)
    gram = phi.T @ phi + lam * np.eye(phi.shape[1])
    return cholesky_solve(gram, phi.T @ y)


# Bounds on the evidence-chosen propensity slope penalty.
_LAMBDA_MIN = 1e-4
_LAMBDA_MAX = 1e6


def _standardised_design(x):
    """Phi(x) with its non-constant slope columns centred and scaled by these
    rows' own mean and standard deviation, its constant ones dropped, and
    the intercept column kept last.

    Returns (design, keep, mean, scale): ``keep`` masks the kept columns of
    Phi[:, :-1] and ``mean``/``scale`` are their statistics.
    """
    design = feature_matrix(x)
    slopes = design[:, :-1]
    mean = slopes.mean(axis=0)
    slopes -= mean
    scale = np.sqrt(np.einsum("ij,ij->j", slopes, slopes) / design.shape[0])
    keep = scale > 1e-12 * (1.0 + np.abs(mean))
    if not keep.all():
        design, mean, scale = design[:, np.append(keep, True)], mean[keep], scale[keep]
    design[:, :-1] /= scale
    return design, keep, mean, scale


def _evidence_penalty(z, a, max_iter=100, tol=1e-10):
    """Slope penalty maximising the Laplace evidence of the logistic model,
    with the slopes' posterior mode at that penalty: (lam, slopes).

    The log-likelihood is replaced by its Gaussian approximation at the
    intercept-only fit (every e = a-bar) with the intercept profiled out:
    gradient g = Z^T (a - a-bar) and centred slope Hessian
    H = a-bar (1 - a-bar) Z^T Z over the standardised slopes Z. Under a
    N(0, I / lam) prior on the slopes the evidence is maximised at MacKay's
    fixed point lam = gamma / ||w_lam||^2, gamma = sum_i d_i / (d_i + lam),
    with d_i the eigenvalues of H and w_lam = (H + lam I)^{-1} g. One
    eigendecomposition makes each iteration O(p); the fixed point is solved
    by Newton's method in log(lam), with steps of at most a factor e^2. The
    result is a deterministic function of the rows, bounded to [1e-4, 1e6].
    """
    a_bar = float(a.mean())
    d, u = np.linalg.eigh(a_bar * (1.0 - a_bar) * (z.T @ z))
    d = np.maximum(d, 0.0)
    c = u.T @ (z.T @ (a - a_bar))
    c_sq = c**2
    t, t_lo, t_hi = 0.0, math.log(_LAMBDA_MIN), math.log(_LAMBDA_MAX)
    for _ in range(max_iter):
        r = 1.0 / (d + math.exp(t))
        gamma = float(d @ r)
        norm_sq = float(c_sq @ r**2)
        if norm_sq <= 0.0:  # no slope signal at all
            return _LAMBDA_MAX, np.zeros(z.shape[1])
        # h = log(gamma / ||w||^2) - log(lam): MacKay's update is t += h;
        # Newton's step on h replaces it wherever h is decreasing.
        h = math.log(gamma / norm_sq) - t
        dh = math.exp(t) * (2.0 * float(c_sq @ r**3) / norm_sq - float(d @ r**2) / gamma) - 1.0
        step = -h / dh if dh < 0.0 else h
        t_prev, t = t, min(max(t + max(min(step, 2.0), -2.0), t_lo), t_hi)
        if abs(t - t_prev) <= tol:
            break
    lam = math.exp(t)
    return lam, u @ (c / (d + lam))


def _penalized_loglik(design, a, w, penalty):
    z = design @ w
    # log(1 + e^z) via logaddexp for stability at large |z|
    return float(a @ z - np.logaddexp(0.0, z).sum() - 0.5 * (penalty * w) @ w)


def fit_propensity(x, a, lam=None, max_iter=100, tol=1e-8) -> Tuple[np.ndarray, float]:
    """Penalized logistic regression via iteratively reweighted SPD solves.

    Fits on the standardised non-constant slopes of Phi(x) plus an
    unpenalised intercept started at logit(a-bar); ``lam`` penalises the
    slopes only. None chooses it per call by Laplace evidence (see
    ``_evidence_penalty``) and starts the slopes at that approximation's
    posterior mode. Newton steps with step halving whenever the penalized
    log-likelihood would decrease. Once the Newton decrement
    grad^T H^{-1} grad is <= ``tol`` the step is taken in full without that
    comparison, which rounding decides this close to the optimum, and the
    loop stops; at most ``max_iter`` steps.

    Returns (coefficients over the raw feature map Phi(x), penalty used).
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if np.all(a == a[0]):
        raise DegenerateTreatment("treatment vector is constant; cannot fit a propensity")
    design, keep, mean, scale = _standardised_design(x)
    w = np.zeros(design.shape[1])
    w[-1] = logit(a.mean())
    if lam is None:
        lam, w[:-1] = _evidence_penalty(design[:, :-1], a)
    penalty = np.full(design.shape[1], float(lam))
    penalty[-1] = 0.0
    ll = _penalized_loglik(design, a, w, penalty)
    for _ in range(max_iter):
        p = expit(design @ w)
        grad = design.T @ (a - p) - penalty * w
        wgt = np.maximum(p * (1.0 - p), 1e-10)
        hess = design.T @ (design * wgt[:, None]) + np.diag(penalty)
        delta = cholesky_solve(hess, grad)
        if grad @ delta <= tol:
            w = w + delta
            break
        step = 1.0
        while step >= 1e-8:
            w_new = w + step * delta
            ll_new = _penalized_loglik(design, a, w_new, penalty)
            if ll_new >= ll:
                w, ll = w_new, ll_new
                break
            step *= 0.5
        else:
            break  # no ascent direction left at the smallest step
    slope = w[:-1] / scale
    coef = np.zeros(keep.size + 1)
    coef[:-1][keep] = slope
    coef[-1] = w[-1] - slope @ mean
    return coef, float(lam)


@dataclass(frozen=True)
class NuisanceFit:
    """Fitted propensity and per-arm outcome coefficients over Phi, with the
    penalties the fit used."""

    propensity_coef: np.ndarray
    outcome_coef_treated: np.ndarray
    outcome_coef_control: np.ndarray
    clip_eps: float
    lambda_prop: float
    lambda_out: float

    def predict_propensity(self, x) -> np.ndarray:
        raw = expit(feature_matrix(x) @ self.propensity_coef)
        return np.clip(raw, self.clip_eps, 1.0 - self.clip_eps)

    def predict_outcome(self, x, arm) -> np.ndarray:
        coef = self.outcome_coef_treated if arm == 1 else self.outcome_coef_control
        return feature_matrix(x) @ coef


def fit_nuisances(x, a, y, config: NuisanceConfig) -> NuisanceFit:
    a = np.asarray(a).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    treated = a == 1
    if treated.all() or (~treated).all():
        raise DegenerateTreatment("both treatment arms are required to fit nuisances")
    propensity_coef, lambda_prop = fit_propensity(x, a, config.lambda_prop)
    return NuisanceFit(
        propensity_coef=propensity_coef,
        outcome_coef_treated=fit_outcome(x[treated], y[treated], config.lambda_out),
        outcome_coef_control=fit_outcome(x[~treated], y[~treated], config.lambda_out),
        clip_eps=config.clip_eps,
        lambda_prop=lambda_prop,
        lambda_out=config.lambda_out,
    )


@dataclass(frozen=True)
class CrossFit:
    """Per-fold nuisance fits, each trained only on its fold's complement."""

    folds: FoldAssignment
    per_fold: List[NuisanceFit]

    def held_out_predictions(self, ds: Dataset):
        """(e_hat, m1_hat, m0_hat) for every observation, each predicted by
        the fit that never saw it, assembled in original index order."""
        n = ds.n
        e = np.empty(n)
        m1 = np.empty(n)
        m0 = np.empty(n)
        for k in range(self.folds.k):
            idx = self.folds.indices(k)
            fit = self.per_fold[k]
            xk = ds.x[idx]
            e[idx] = fit.predict_propensity(xk)
            m1[idx] = fit.predict_outcome(xk, 1)
            m0[idx] = fit.predict_outcome(xk, 0)
        return e, m1, m0


def cross_fit(ds: Dataset, k, config: NuisanceConfig, rng: Rng) -> CrossFit:
    """K-fold cross-fitting: fit nuisances on each fold's complement."""
    folds = make_folds(ds.n, k, rng)
    fits = []
    for fold in range(k):
        idx = folds.complement(fold)
        a_train = ds.a[idx]
        if np.all(a_train == a_train[0]):
            raise FoldArmCollapse(
                f"training complement of fold {fold} contains a single treatment arm",
                fold=fold,
            )
        fits.append(fit_nuisances(ds.x[idx], a_train, ds.y[idx], config))
    return CrossFit(folds=folds, per_fold=fits)
