"""Generalized posterior over the CATE function.

With the squared-error pseudo-outcome loss, the Gibbs update is GP
regression under a Gaussian working likelihood with noise variance 1/omega,
which has a closed form per engine: exact (dense solves, guarded to
n <= 2000) and sparse (the optimal q over inducing values of Titsias 2009).
Kernel hyperparameters and inducing rows stay at their configured values,
so no optimizer is run.

Each engine's resampler fit(rows, omega) is the package's one CATE route
and export: the moments at fixed query rows after a fit to any resample of
the rows, the full-data fit being the resample that takes every row once.
exact_gp_posterior and svgp_fit with predict, which no package code calls,
stay only as the tests' oracles while the benchmark's tracer names them.

A constant mean equal to the average pseudo-outcome is subtracted before
fitting and added back to predictions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import Rng, cholesky_factor, pseudo_vector, restore_lower, solve_factored, solve_triangular

_SQRT5 = np.sqrt(5.0)
_EXACT_GP_MAX_N = 2000
_VAR_FLOOR = 1e-18
_BLOCK_ENTRIES = 1 << 15  # entries per elementwise pass of a kernel build


@dataclass(frozen=True)
class KernelParams:
    family: str = "Matern52"
    lengthscale: float = 2.0
    variance: float = 2.0
    jitter: float = 1e-4

    def __post_init__(self):
        if self.family not in ("Matern52", "RBF"):
            raise DomainError(f"kernel family must be Matern52 or RBF, got {self.family!r}")
        if not (self.lengthscale > 0 and 0 < self.variance < np.inf):
            raise DomainError("lengthscale must be positive, variance positive and finite")
        if not 0 <= self.jitter < np.inf:
            raise DomainError("jitter must be finite and >= 0")


def kernel_matrix(params: KernelParams, xa, xb=None) -> np.ndarray:
    """Covariance matrix k(xa, xb). The one-argument Gram form k(xa, xa)
    carries the jitter on its diagonal; a call that passes xb never does,
    whatever rows xb holds.

    Matern-5/2: v (1 + sqrt5 r/l + 5 r^2 / (3 l^2)) exp(-sqrt5 r/l)
    RBF:        v exp(-r^2 / (2 l^2))

    with r = sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)). The products a.b become
    distances, then covariances, in place, one pass per block of about
    _BLOCK_ENTRIES entries. With xb None or xa itself, the product is
    xa @ xa.T of one contiguous array, which is symmetric bit for bit.
    """
    gram, same = xb is None, xb is None or xb is xa
    xa = np.atleast_2d(np.ascontiguousarray(xa, dtype=float))
    xb = xa if same else np.atleast_2d(np.asarray(xb, dtype=float))
    sq_a, sq_b = np.sum(xa**2, axis=1), np.sum(xb**2, axis=1)
    k = xa @ xb.T
    step = max(1, _BLOCK_ENTRIES // max(1, k.shape[1]))
    for lo in range(0, k.shape[0], step):
        r = k[lo : lo + step]
        r *= -2.0  # exact, so the sum below rounds as (|a|^2 + |b|^2) - 2 a.b
        r += sq_a[lo : lo + step, None] + sq_b
        np.maximum(r, 0.0, out=r)
        np.sqrt(r, out=r)
        if params.family == "Matern52":
            s = _SQRT5 * r / params.lengthscale
            np.multiply(params.variance * (1.0 + s + s**2 / 3.0), np.exp(-s), out=r)
        else:
            np.multiply(params.variance, np.exp(-(r**2) / (2.0 * params.lengthscale**2)), out=r)
    if gram:
        k.flat[:: k.shape[0] + 1] += params.jitter
    return k


def _prior_var(params: KernelParams):
    # Self-covariance of a single point, consistent with kernel_matrix(x).
    return params.variance + params.jitter


def _whitened_moments(params, z, v, const_mean):
    """Predictive moments from whitened coordinates: with L the Cholesky
    factor of the noisy Gram matrix, z = L^-1 (y - const) and V = L^-1 k_q^T,
    the means are V^T z + const and the variances k_** - |V|^2 by column."""
    means = v.T @ z + const_mean  # before v, a solve's own output, is squared in place
    variances = _prior_var(params) - np.sum(np.square(v, out=v), axis=0)
    return means, np.maximum(variances, _VAR_FLOOR)


@dataclass(frozen=True)
class ExactGpPredictor:
    """Dense GP posterior over the centered pseudo-outcomes, in whitened
    form: the Cholesky factor L of the noisy Gram matrix and
    z = L^-1 (values - const_mean)."""

    params: KernelParams
    x_train: np.ndarray
    chol: np.ndarray
    z: np.ndarray
    const_mean: float

    def predict(self, x_query):
        k_q = kernel_matrix(self.params, x_query, self.x_train)
        v = solve_triangular(self.chol, k_q.T)
        return _whitened_moments(self.params, self.z, v, self.const_mean)


def check_exact_n(n):
    """Raise DomainError unless the exact GP may run on n rows."""
    if n > _EXACT_GP_MAX_N:
        raise DomainError(f"exact GP is guarded to n <= {_EXACT_GP_MAX_N}, got n={n}")


def exact_gp_posterior(ds_x, pseudo: np.ndarray, params: KernelParams, omega) -> ExactGpPredictor:
    """Exact posterior on the pseudo-outcome vector: mean k_*^T (K + omega^-1 I)^-1
    y_centered + const, variance k_** - k_*^T (K + omega^-1 I)^-1 k_*."""
    pseudo = pseudo_vector(pseudo)
    if not omega > 0:
        raise DomainError("omega must be positive")
    x = np.atleast_2d(np.asarray(ds_x, dtype=float))
    n = x.shape[0]
    check_exact_n(n)
    const_mean = float(np.mean(pseudo))
    gram = kernel_matrix(params, x)
    gram.flat[:: n + 1] += 1.0 / omega
    chol, _ = cholesky_factor(gram)
    z = solve_triangular(chol, pseudo - const_mean)
    return ExactGpPredictor(params, x, chol, z, const_mean)


def exact_gp_resampler(params: KernelParams, x, values, x_query):
    """Exact-posterior moments at x_query for any resample of (x, values).

    Returns fit(rows, omega) -> (means, variances): the exact posterior
    moments at x_query for covariates x[rows] and pseudo-outcomes values[rows]
    at this omega, which exact_gp_posterior (the tests' oracle while the
    benchmark's tracer names it) computes directly. k(x, x) and k(x_query, x)
    are built once here, and each fit uses only the distinct rows u of
    `rows`: a row drawn c times enters once with noise (jitter + 1/omega) / c.
    With S the selection matrix of `rows` and C = S^T S its diagonal of
    counts, the push-through identity S^T (S K S^T + s^2 I)^-1 S =
    (K + s^2 C^-1)^-1 makes the two the same posterior. Each fit factors that
    Gram matrix and makes one lower solve of the stacked right-hand sides
    [values - const | k(x_query, x)^T] for the whitened moments.

    Memory: k(x, x) lives as long as the resampler, and a fit that draws
    every row (the reported fit, each gpc point estimate) holds no other
    n x n array. It adds the noise to k(x, x)'s diagonal, factors it where
    it lies (cholesky_factor's in_place mode on its F-contiguous view
    k(x, x).T), solves over its gathered right-hand sides in place and
    restores the factor's triangle from the other and the saved diagonal,
    exactly, as kernel_matrix(params, x, x) is symmetric bit for bit. Other
    fits factor their gathered, F-contiguous u x u Gram matrix the same way.
    The D9 fit at the n = 2000 guard peaks at about 77 MB RSS, 6.7 MB of it
    OpenBLAS's packing buffer.

    The full-data fit (rows 0..n-1 in order) is computed once per omega
    and kept (see _keep_full_fits).
    """
    values = pseudo_vector(values)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    check_exact_n(n)
    k_xx = kernel_matrix(params, x, x)
    # row i: [values[i] | k(x_query, x[i])], gathered by each fit
    stacked = np.column_stack([values, kernel_matrix(params, x_query, x).T])

    def fit(rows, omega):
        u, counts = _distinct_rows(rows, n)
        const_mean = float(np.mean(values[rows]))
        full = u.size == n
        gram = k_xx.T if full else k_xx[u][:, u]
        diag = gram.diagonal().copy()
        gram.flat[:: u.size + 1] += (params.jitter + 1.0 / omega) / counts
        try:
            chol, _ = cholesky_factor(gram, in_place=True)
            zv = stacked[u]
            zv[:, 0] -= const_mean
            zv = solve_triangular(chol, zv, overwrite_b=True)
        finally:
            if full:
                restore_lower(gram, diag)
        return _whitened_moments(params, zv[:, 0], zv[:, 1:], const_mean)

    return _keep_full_fits(fit, n)


def _keep_full_fits(fit, n):
    """fit(rows, omega) that raises DomainError for omega <= 0 or NaN, as
    the posteriors do, and computes the full-data fit, rows 0..n-1 in order,
    once per omega and returns that result, read-only, on every later call:
    the gpc search takes it as each omega's point estimate and `fit` then
    reports it at the omega chosen. Other rows go to fit."""
    every_row = np.arange(n)
    full = {}

    def keeping(rows, omega):
        if not omega > 0:
            raise DomainError("omega must be positive")
        if not np.array_equal(rows, every_row):
            return fit(rows, omega)
        if omega not in full:
            moments = fit(rows, omega)
            for arr in moments:
                arr.setflags(write=False)
            full[omega] = moments
        return full[omega]

    return keeping


def _distinct_rows(rows, n):
    """The sorted distinct rows of a resample of 0..n-1 and how often each
    was drawn: np.unique(rows, return_counts=True) by counting, not sorting."""
    counts = np.bincount(rows, minlength=n)
    u = np.flatnonzero(counts)
    return u, counts[u]


@dataclass(frozen=True)
class GpPosterior:
    """Sparse variational posterior in the whitened coordinates u = L_K v,
    with L_K the Cholesky factor of K_mm: q(v) = N(v_mean, P^-1) held as
    v_mean and the Cholesky factor chol_p of P, and the constant mean added
    back at prediction. Unwhitened, q(u) = N(L_K v_mean, L_K P^-1 L_K^T)."""

    kernel: KernelParams
    inducing_x: np.ndarray
    chol_k: np.ndarray
    chol_p: np.ndarray
    v_mean: np.ndarray
    const_mean: float


def _inducing_basis(params: KernelParams, x, m_inducing, rng: Rng):
    """Inducing rows z (the first M of a seeded permutation of x's rows), the
    Cholesky factor L_K of K_mm and the whitened cross-covariances
    C = L_K^-1 K_mn."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    m = int(m_inducing)
    if not 1 <= m <= n:
        raise DomainError(f"m_inducing must satisfy 1 <= M <= n, got M={m}, n={n}")
    z = x[rng.permutation(n)[:m]]
    chol_k, _ = cholesky_factor(kernel_matrix(params, z))
    return z, chol_k, solve_triangular(chol_k, kernel_matrix(params, z, x))


def _whitened_optimum(c, counts, y_c, omega):
    """Optimal whitened q(v) = N(m, P^-1) of the bound when column i of C
    enters counts[i] times (Titsias 2009; Hensman et al. 2013):
        P = I + omega C diag(counts) C^T,   m = omega P^-1 C (counts * y_c).
    One Cholesky factor of P gives both moments; returns it and m."""
    w = c * np.sqrt(counts)
    chol_p, _ = cholesky_factor(np.eye(c.shape[0]) + omega * (w @ w.T))
    return chol_p, omega * solve_factored(chol_p, c @ (counts * y_c))


def _sparse_moments(params, b, chol_p, v_mean, const_mean):
    """Predictive moments of q(v) = N(v_mean, P^-1) at the query columns
    B = L_K^-1 K_mq: means B^T m + const and variances
    (k_** - |B|^2) + |L_P^-1 B|^2 by column."""
    recovered = solve_triangular(chol_p, b)
    variances = (_prior_var(params) - np.sum(b * b, axis=0)) + np.sum(recovered * recovered, axis=0)
    return b.T @ v_mean + const_mean, np.maximum(variances, _VAR_FLOOR)


def svgp_fit(
    ds_x,
    pseudo: np.ndarray,
    params: KernelParams,
    omega,
    m_inducing,
    rng: Rng,
) -> GpPosterior:
    """Optimal q(u) of the inducing-point variational bound for the
    pseudo-outcome vector `pseudo` under Gaussian noise 1/omega: in the
    whitened coordinates u = L_K v, the _whitened_optimum with every
    count 1. Inducing locations are a seeded random subsample of the
    training covariates and stay fixed.
    """
    pseudo = pseudo_vector(pseudo)
    if not omega > 0:
        raise DomainError("omega must be positive")
    z, chol_k, c = _inducing_basis(params, ds_x, m_inducing, rng)
    const_mean = float(np.mean(pseudo))
    chol_p, v_mean = _whitened_optimum(c, np.ones(pseudo.size), pseudo - const_mean, omega)
    return GpPosterior(params, z, chol_k, chol_p, v_mean, const_mean)


def sparse_gp_resampler(params: KernelParams, x, values, x_query, m_inducing, rng: Rng):
    """Sparse-posterior moments at x_query for any resample of (x, values).

    Returns fit(rows, omega) -> (means, variances): the predictive moments
    at x_query of the optimal q(u) for covariates x[rows] and pseudo-outcomes
    values[rows], with the inducing rows _inducing_basis(x, ..., rng) picks
    held fixed; svgp_fit with predict (the tests' oracle while the
    benchmark's tracer names them) computes the full-data fit directly.
    C = L_K^-1 K_mn and B = L_K^-1 K_mq are built once here; a row
    drawn c times enters P with weight c, so each fit factors one M x M
    matrix over the distinct rows of the resample and reads the moments
    off it with _sparse_moments. The full-data fit is kept per omega, as
    in exact_gp_resampler.
    """
    values = pseudo_vector(values)
    z, chol_k, c = _inducing_basis(params, x, m_inducing, rng)
    b = solve_triangular(chol_k, kernel_matrix(params, z, x_query))

    def fit(rows, omega):
        u, counts = _distinct_rows(rows, c.shape[1])
        const_mean = float(np.mean(values[rows]))
        chol_p, v_mean = _whitened_optimum(c[:, u], counts, values[u] - const_mean, omega)
        return _sparse_moments(params, b, chol_p, v_mean, const_mean)

    return _keep_full_fits(fit, c.shape[1])


def predict(gp: GpPosterior, x_query):
    """Pointwise predictive means and variances at the query rows."""
    b = solve_triangular(gp.chol_k, kernel_matrix(gp.kernel, gp.inducing_x, x_query))
    return _sparse_moments(gp.kernel, b, gp.chol_p, gp.v_mean, gp.const_mean)
