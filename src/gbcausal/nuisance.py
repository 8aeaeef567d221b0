"""Nuisance estimation: fixed feature map, logistic-ridge propensity,
per-arm ridge outcome regressions (T-learner), and K-fold cross-fitting.

All models share one fixed feature map Phi(X) = [X, X^2, sin(X), x_extra, 1]
with x_extra = X1*X2 for d >= 2 and X1^3 for d = 1, built by
``feature_matrix`` alone. Phi is computed row by row, so the fits take
feature rows, not covariates, and Phi of some rows is bit-identical to those
rows of Phi(X). ``cross_fit`` never builds Phi(X) whole above a block of
rows: each fold builds Phi of its own training rows, one fold at a time, and
``CrossFit.from_fits`` predicts the held-out rows a block at a time.

The propensity is fit on the non-constant columns of Phi standardised by
the training rows' own statistics, with an unpenalised intercept and a slope
penalty chosen per training set by Laplace evidence unless one is given; its
coefficients are mapped back to Phi. Propensity predictions are clipped to
[clip_eps, 1 - clip_eps] at prediction time, so the clip applies uniformly
wherever a fit is evaluated.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .dataset import Dataset, make_folds
from .errors import DegenerateTreatment, DomainError, EmptyArm, FoldArmCollapse
from .numerics import Rng, cholesky_solve, expit, logit


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
        lambda_prop = 0.0 if self.lambda_prop is None else self.lambda_prop
        if not (0.0 <= lambda_prop < math.inf and 0.0 <= self.lambda_out < math.inf):
            raise DomainError("ridge penalties must be finite and >= 0")


# Rows per block of the row sums of the outcome and propensity fits.
_IRLS_BLOCK = 8192


def _row_blocks(n):
    return (slice(lo, lo + _IRLS_BLOCK) for lo in range(0, n, _IRLS_BLOCK))


def feature_matrix(x, idx=None) -> np.ndarray:
    """(n, 3d+2) feature matrix Phi(x[idx]) = [X, X^2, sin(X), x_extra, 1] of
    the rows idx of x (every row when None). It is filled a block of
    _IRLS_BLOCK rows at a time, one column group after another, so the
    covariates gathered beside it are one block's."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    phi = np.empty((x.shape[0] if idx is None else idx.size, 3 * d + 2))
    for rows in _row_blocks(phi.shape[0]):
        xb, out = x[rows if idx is None else idx[rows]], phi[rows]
        out[:, :d] = xb
        np.multiply(xb, xb, out=out[:, d : 2 * d])
        np.sin(xb, out=out[:, 2 * d : 3 * d])
        if d >= 2:
            np.multiply(xb[:, 0], xb[:, 1], out=out[:, 3 * d])
        else:
            out[:, 3 * d] = xb[:, 0] ** 3
    phi[:, -1] = 1.0
    return phi


def fit_outcome(phi, y, lam, arm=None) -> np.ndarray:
    """Ridge coefficients minimizing ||X w - y[arm]||^2 + lam ||w||^2 over
    the feature rows X = phi[arm] of phi = Phi(x), with y the outcomes of
    phi's rows and arm a boolean mask of the rows to fit (every row when
    None).

    Solved through the SPD normal equations; the intercept inside Phi is
    penalized like any other feature. X^T X and X^T y are summed over
    blocks of _IRLS_BLOCK rows of phi, each block's arm rows gathered in
    turn, so no copy of X is made; up to _IRLS_BLOCK rows of phi that is
    one product each, as on X itself.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size == 0 or (arm is not None and not arm.any()):
        raise EmptyArm("outcome regression needs at least one observation in the arm")
    gram = rhs = 0.0
    for rows in _row_blocks(y.size):
        block, target = phi[rows], y[rows]
        if arm is not None:
            # np.compress gathers rows of a 2-D array faster than a boolean index
            block, target = np.compress(arm[rows], block, axis=0), target[arm[rows]]
        gram = gram + block.T @ block
        rhs = rhs + block.T @ target
        del block  # free it before the next block is gathered
    return cholesky_solve(gram + lam * np.eye(phi.shape[1]), rhs)


# Bounds on the evidence-chosen propensity slope penalty.
_LAMBDA_MIN = 1e-4
_LAMBDA_MAX = 1e6


def _standardised_design(phi):
    """The feature rows phi with their non-constant slope columns centred and
    scaled by these rows' own mean and standard deviation, its constant ones
    dropped, and the intercept column kept last. phi is overwritten.

    Returns (design, keep, mean, scale): ``keep`` masks the kept columns of
    phi[:, :-1] and ``mean``/``scale`` are their statistics.
    """
    design = phi
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
    g is summed over blocks of _IRLS_BLOCK rows, one product up to that.
    """
    a_bar = float(a.mean())
    d, u = np.linalg.eigh(a_bar * (1.0 - a_bar) * (z.T @ z))
    d = np.maximum(d, 0.0)
    g = 0.0
    for rows in _row_blocks(z.shape[0]):
        g = g + z[rows].T @ (a[rows] - a_bar)
    c = u.T @ g
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


def _objective(design, a, w, penalty):
    """One pass over the rows at w: the penalized log-likelihood, its
    gradient X^T (a - p) - penalty w and its IRLS Hessian
    X^T diag(p (1 - p)) X + diag(penalty), summed over row blocks."""
    ll = grad = hess = 0.0
    for rows in _row_blocks(design.shape[0]):
        block = design[rows]
        z = block @ w
        # log(1 + e^z) as max(z, 0) + log1p(e^-|z|): stable at any |z|, and
        # numpy's exp and log1p run vector loops where its logaddexp runs a
        # scalar one (about 6x slower per row). The log-likelihood only
        # decides whether a candidate is accepted; the step comes from the
        # gradient and Hessian.
        ll = ll + (a[rows] @ z - (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))).sum())
        p = expit(z)
        wgt = np.maximum(p * (1.0 - p), 1e-10)
        grad = grad + block.T @ (a[rows] - p)
        # the products of block * sqrt(wgt)[:, None], bit for bit, without
        # the broadcast's loop over rows as short as 8 values
        s = np.einsum("ij,i->ij", block, np.sqrt(wgt))
        hess = hess + s.T @ s
        del s  # free it before the next block's temporaries are allocated
    return float(ll - 0.5 * (penalty * w) @ w), grad - penalty * w, hess + np.diag(penalty)


def fit_propensity(phi, a, lam=None, max_iter=100, tol=1e-8) -> Tuple[np.ndarray, float]:
    """Penalized logistic regression via iteratively reweighted SPD solves.

    Fits on the standardised non-constant slopes of the feature rows
    phi = Phi(x), which are standardised in place (pass rows nothing else
    reads afterwards, such as a fancy-indexed slice), plus an
    unpenalised intercept started at logit(a-bar); ``lam`` penalises the
    slopes only. None chooses it per call by Laplace evidence (see
    ``_evidence_penalty``) and starts the slopes at that approximation's
    posterior mode. Newton steps with step halving whenever the penalized
    log-likelihood would decrease. Once the Newton decrement
    grad^T H^{-1} grad is <= ``tol`` the step is taken in full without that
    comparison, which rounding decides this close to the optimum, and the
    loop stops; at most ``max_iter`` steps. Each candidate costs one pass
    over the rows, which also gives the next step's gradient and Hessian.

    The gradient, Hessian and penalized log-likelihood are sums over blocks
    of _IRLS_BLOCK rows, so each step's temporaries are a block in size
    whatever the number of rows; up to _IRLS_BLOCK rows they are the
    unblocked sums, computed by the same operations in the same order.

    Returns (coefficients over the raw feature map Phi(x), penalty used).
    """
    a = np.asarray(a).reshape(-1)
    if np.all(a == a[0]):
        raise DegenerateTreatment("treatment vector is constant; cannot fit a propensity")
    design, keep, mean, scale = _standardised_design(phi)
    w = np.zeros(design.shape[1])
    w[-1] = logit(a.mean())
    if lam is None:
        lam, w[:-1] = _evidence_penalty(design[:, :-1], a)
    penalty = np.full(design.shape[1], float(lam))
    penalty[-1] = 0.0
    ll, grad, hess = _objective(design, a, w, penalty)
    for _ in range(max_iter):
        delta = cholesky_solve(hess, grad)
        if grad @ delta <= tol:
            w = w + delta
            break
        step = 1.0
        while step >= 1e-8:
            w_new = w + step * delta
            ll_new, grad_new, hess_new = _objective(design, a, w_new, penalty)
            if ll_new >= ll:
                w, ll, grad, hess = w_new, ll_new, grad_new, hess_new
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

    def predict_propensity(self, phi) -> np.ndarray:
        """Clipped propensities at the feature rows phi = Phi(x)."""
        raw = expit(phi @ self.propensity_coef)
        return np.clip(raw, self.clip_eps, 1.0 - self.clip_eps)

    def predict_outcome(self, phi, arm) -> np.ndarray:
        """The arm's outcome regression at the feature rows phi = Phi(x)."""
        coef = self.outcome_coef_treated if arm == 1 else self.outcome_coef_control
        return phi @ coef


def fit_nuisances(phi, a, y, config: NuisanceConfig) -> NuisanceFit:
    """Propensity and per-arm outcome fits on the feature rows phi = Phi(x),
    with their treatments a and outcomes y. Each arm's outcome fit gathers
    its rows from phi a block at a time; the propensity fit then
    standardises phi in place, so pass rows nothing reads afterwards."""
    a = np.asarray(a).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    treated = a == 1
    if treated.all() or (~treated).all():
        raise DegenerateTreatment("both treatment arms are required to fit nuisances")
    outcome_coef_treated = fit_outcome(phi, y, config.lambda_out, treated)
    outcome_coef_control = fit_outcome(phi, y, config.lambda_out, ~treated)
    propensity_coef, lambda_prop = fit_propensity(phi, a, config.lambda_prop)
    return NuisanceFit(
        propensity_coef=propensity_coef,
        outcome_coef_treated=outcome_coef_treated,
        outcome_coef_control=outcome_coef_control,
        clip_eps=config.clip_eps,
        lambda_prop=lambda_prop,
        lambda_out=config.lambda_out,
    )


@dataclass(frozen=True)
class CrossFit:
    """Per-fold nuisance fits, each trained only on its fold's complement,
    and the held-out predictions (e_hat, m1_hat, m0_hat) of every
    observation by the fit that never saw it, in original index order.
    folds is make_folds' read-only fold_of array."""

    folds: np.ndarray
    per_fold: List[NuisanceFit]
    e_hat: np.ndarray
    m1_hat: np.ndarray
    m0_hat: np.ndarray

    @classmethod
    def from_fits(cls, folds: np.ndarray, per_fold, x) -> "CrossFit":
        """Predict every row of the covariates x with its fold's fit. Phi is
        built a block of _IRLS_BLOCK rows at a time and each fold's rows in
        the block are gathered from it, so Phi(x) is never whole above a
        block; up to _IRLS_BLOCK rows each fold predicts its rows at once."""
        n = folds.size
        e, m1, m0 = np.empty(n), np.empty(n), np.empty(n)
        for rows in _row_blocks(n):
            phi, fold_of = feature_matrix(x[rows]), folds[rows]
            for k, fit in enumerate(per_fold):
                held_out = fold_of == k
                x_k = np.compress(held_out, phi, axis=0)
                e[rows][held_out] = fit.predict_propensity(x_k)
                m1[rows][held_out] = fit.predict_outcome(x_k, 1)
                m0[rows][held_out] = fit.predict_outcome(x_k, 0)
        for arr in (e, m1, m0):
            arr.setflags(write=False)
        return cls(folds=folds, per_fold=per_fold, e_hat=e, m1_hat=m1, m0_hat=m0)


def cross_fit(ds: Dataset, k, config: NuisanceConfig, rng: Rng) -> CrossFit:
    """K-fold cross-fitting: fit nuisances on each fold's complement. One
    fold design is alive at a time: each fold builds Phi of its own training
    rows, which its fits consume; from_fits then predicts the held-out rows."""
    folds = make_folds(ds.n, k, rng)
    fits = [_fit_fold(ds, folds, fold, config) for fold in range(k)]
    return CrossFit.from_fits(folds, fits, ds.x)


def _fit_fold(ds: Dataset, folds: np.ndarray, fold, config: NuisanceConfig) -> NuisanceFit:
    """Nuisance fits on the training complement of fold `fold`. Phi of its
    rows is built while only their indices are alive beside it, and the
    indices are dropped once the rows' treatments and outcomes are gathered,
    so the fits hold Phi and those two columns."""
    idx = np.flatnonzero(folds != fold)
    phi = feature_matrix(ds.x, idx)
    a, y = ds.a[idx], ds.y[idx]
    del idx
    if np.all(a == a[0]):
        raise FoldArmCollapse(
            f"training complement of fold {fold} contains a single treatment arm",
            fold=fold,
        )
    return fit_nuisances(phi, a, y, config)
