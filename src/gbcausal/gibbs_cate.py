"""Generalized posterior over the CATE function.

With the squared-error pseudo-outcome loss, the Gibbs update is GP
regression under a Gaussian working likelihood with noise variance 1/omega:
the exact posterior (dense solves, guarded to n <= 2000) serves as the
oracle, and a sparse inducing-point variational engine is the scalable
route. Kernel hyperparameters and inducing locations stay fixed at their
configured values, so the optimal variational distribution over the
inducing values has a closed form and no optimizer is run.

A constant mean equal to the average pseudo-outcome is subtracted before
fitting and added back to predictions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DomainError
from .numerics import Rng, cholesky_factor
from .pseudo import PseudoOutcomes

_SQRT5 = np.sqrt(5.0)
_EXACT_GP_MAX_N = 2000
_VAR_FLOOR = 1e-18


@dataclass(frozen=True)
class KernelParams:
    family: str = "Matern52"
    lengthscale: float = 2.0
    variance: float = 2.0
    jitter: float = 1e-4

    def __post_init__(self):
        if self.family not in ("Matern52", "RBF"):
            raise DomainError(f"kernel family must be Matern52 or RBF, got {self.family!r}")
        if not (self.lengthscale > 0 and self.variance > 0):
            raise DomainError("lengthscale and variance must be positive")
        if self.jitter < 0:
            raise DomainError("jitter must be >= 0")


DEFAULT_KERNEL = KernelParams()


def _pairwise_dist(xa, xb):
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    sq = (
        np.sum(xa**2, axis=1)[:, None]
        + np.sum(xb**2, axis=1)[None, :]
        - 2.0 * (xa @ xb.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def kernel_matrix(params: KernelParams, xa, xb) -> np.ndarray:
    """Covariance matrix k(xa, xb); jitter joins the diagonal only when xb is
    the same object as xa, never for a cross-covariance between equal-valued
    copies.

    Matern-5/2: v (1 + sqrt5 r/l + 5 r^2 / (3 l^2)) exp(-sqrt5 r/l)
    RBF:        v exp(-r^2 / (2 l^2))
    """
    same = xa is xb
    r = _pairwise_dist(xa, xb)
    if params.family == "Matern52":
        s = _SQRT5 * r / params.lengthscale
        k = params.variance * (1.0 + s + s**2 / 3.0) * np.exp(-s)
    else:
        k = params.variance * np.exp(-(r**2) / (2.0 * params.lengthscale**2))
    if same:
        k = k + params.jitter * np.eye(k.shape[0])
    return k


def _prior_var(params: KernelParams):
    # Self-covariance of a single point, consistent with kernel_matrix(x, x).
    return params.variance + params.jitter


@dataclass(frozen=True)
class ExactGpPredictor:
    """Dense GP posterior over the centered pseudo-outcomes."""

    params: KernelParams
    x_train: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    const_mean: float
    omega: float

    def predict(self, x_query):
        k_q = kernel_matrix(self.params, x_query, self.x_train)
        means = k_q @ self.alpha + self.const_mean
        v = solve_triangular(self.chol, k_q.T, lower=True)
        variances = _prior_var(self.params) - np.sum(v * v, axis=0)
        return means, np.maximum(variances, _VAR_FLOOR)


def exact_gp_posterior(ds_x, pseudo: PseudoOutcomes, params: KernelParams, omega) -> ExactGpPredictor:
    """Exact posterior: mean k_*^T (K + omega^-1 I)^-1 y_centered + const,
    variance k_** - k_*^T (K + omega^-1 I)^-1 k_*."""
    if not omega > 0:
        raise DomainError("omega must be positive")
    x = np.atleast_2d(np.asarray(ds_x, dtype=float))
    n = x.shape[0]
    if n > _EXACT_GP_MAX_N:
        raise DomainError(f"exact GP is guarded to n <= {_EXACT_GP_MAX_N}, got n={n}")
    const_mean = float(np.mean(pseudo.values))
    y_c = pseudo.values - const_mean
    gram = kernel_matrix(params, x, x) + (1.0 / omega) * np.eye(n)
    chol, _ = cholesky_factor(gram)
    alpha = solve_triangular(chol.T, solve_triangular(chol, y_c, lower=True), lower=False)
    return ExactGpPredictor(
        params=params, x_train=x, chol=chol, alpha=alpha, const_mean=const_mean, omega=float(omega)
    )


@dataclass(frozen=True)
class GpPosterior:
    """Sparse variational posterior: q(u) = N(q_mean, q_cov) over the
    inducing values, the Cholesky factor of K_mm that predictions reuse, and
    the constant mean added back at prediction."""

    kernel: KernelParams
    inducing_x: np.ndarray
    chol_k: np.ndarray
    q_mean: np.ndarray
    q_cov: np.ndarray
    const_mean: float
    omega: float


def svgp_fit(
    ds_x,
    pseudo: PseudoOutcomes,
    params: KernelParams,
    omega,
    m_inducing,
    rng: Rng,
) -> GpPosterior:
    """Optimal q(u) of the inducing-point variational bound for Gaussian
    noise 1/omega.

    Inducing locations are a seeded random subsample of the training
    covariates and stay fixed. In the whitened coordinates u = L_K v, with
    C = L_K^-1 K_mn, the bound is maximised by v ~ N(m, S) with
        S = (I + omega C C^T)^-1,   m = omega S C y_centered
    (Titsias 2009; Hensman et al. 2013), so one Cholesky factor of
    P = I + omega C C^T gives both moments.
    """
    if not omega > 0:
        raise DomainError("omega must be positive")
    x = np.atleast_2d(np.asarray(ds_x, dtype=float))
    n = x.shape[0]
    m = int(m_inducing)
    if not 1 <= m <= n:
        raise DomainError(f"m_inducing must satisfy 1 <= M <= n, got M={m}, n={n}")

    const_mean = float(np.mean(pseudo.values))
    y_c = pseudo.values - const_mean

    perm = rng.permutation(n)
    z = x[perm[:m]]
    chol_k, _ = cholesky_factor(kernel_matrix(params, z, z))
    # whitened cross-covariances C = L_K^-1 K_mn
    c = solve_triangular(chol_k, kernel_matrix(params, z, x), lower=True)
    omega = float(omega)
    chol_p, _ = cholesky_factor(np.eye(m) + omega * (c @ c.T))
    v_mean = omega * solve_triangular(
        chol_p.T, solve_triangular(chol_p, c @ y_c, lower=True), lower=False
    )
    # q_cov = L_K S L_K^T = A^T A with A = L_P^-1 L_K^T
    a = solve_triangular(chol_p, chol_k.T, lower=True)
    return GpPosterior(
        kernel=params,
        inducing_x=z,
        chol_k=chol_k,
        q_mean=chol_k @ v_mean,
        q_cov=a.T @ a,
        const_mean=const_mean,
        omega=omega,
    )


def predict(gp: GpPosterior, x_query):
    """Pointwise predictive means and variances at the query rows."""
    chol_k = gp.chol_k
    k_qm = kernel_matrix(gp.kernel, x_query, gp.inducing_x)
    # K_mm^{-1} k_mq, reused for both moments
    half = solve_triangular(chol_k, k_qm.T, lower=True)
    kinv_kq = solve_triangular(chol_k.T, half, lower=False)
    means = kinv_kq.T @ gp.q_mean + gp.const_mean
    var_prior = _prior_var(gp.kernel)
    explained = np.sum(k_qm.T * kinv_kq, axis=0)
    recovered = np.sum(kinv_kq * (gp.q_cov @ kinv_kq), axis=0)
    variances = var_prior - explained + recovered
    return means, np.maximum(variances, _VAR_FLOOR)
