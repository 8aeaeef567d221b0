"""Generalized posterior over the scalar ATE.

Under the squared-error pseudo-outcome loss the update
    q(theta) ~ exp{-omega * n * L_n(theta)} * pi(theta)
is conjugate for a normal prior, giving the exact posterior

    s_p^2 = (s0^-2 + omega n)^-1
    m_p   = s_p^2 (s0^-2 m0 + omega n theta_hat),   theta_hat = mean(values).

A Gaussian variational engine minimizing
    J(q) = omega n E_q[L_n] + KL(q || pi)
over (mu, log sigma) is provided as the optimization-based route; the closed
form doubles as its oracle in tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import OptimizerConfig, Rng, adam_minimize, ndtri, normal_quantile
from .pseudo import PseudoOutcomes


@dataclass(frozen=True)
class NormalPrior:
    """N(m0, s0_sq) prior on the ATE; s0_sq = inf encodes the diffuse prior
    exactly via zero precision, removing any large-variance tolerance knob."""

    m0: float = 0.0
    s0_sq: float = 1.0

    def __post_init__(self):
        if not self.s0_sq > 0:
            raise DomainError("prior variance must be positive (inf for diffuse)")

    @property
    def precision(self):
        return 0.0 if math.isinf(self.s0_sq) else 1.0 / self.s0_sq


DIFFUSE_PRIOR = NormalPrior(m0=0.0, s0_sq=math.inf)


@dataclass(frozen=True)
class GaussianPosterior:
    m_p: float
    s_p_sq: float

    def __post_init__(self):
        if not self.s_p_sq > 0:
            raise DomainError("posterior variance must be positive")

    @property
    def sd(self):
        return math.sqrt(self.s_p_sq)


def normal_update(prior: NormalPrior, omega, n, theta_hat):
    """Normal-Normal update (m_p, s_p_sq) for n pseudo-outcomes with mean
    theta_hat; theta_hat may be an array of means sharing n and omega."""
    prec0 = prior.precision
    s_p_sq = 1.0 / (prec0 + omega * n)
    m_p = s_p_sq * (prec0 * prior.m0 + omega * n * theta_hat)
    return m_p, s_p_sq


def closed_form_posterior(pseudo: PseudoOutcomes, prior: NormalPrior, omega) -> GaussianPosterior:
    """Exact Normal-Normal conjugate posterior."""
    if not omega > 0:
        raise DomainError("omega must be positive")
    m_p, s_p_sq = normal_update(prior, omega, pseudo.n, float(np.mean(pseudo.values)))
    return GaussianPosterior(m_p=m_p, s_p_sq=s_p_sq)


def credible_interval(post: GaussianPosterior, alpha):
    """Central (1 - alpha) interval m_p +/- z_{1-alpha/2} s_p."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * post.sd
    return post.m_p - half, post.m_p + half


def _stratified_normals(batch_size, epochs, rng: Rng):
    """(epochs, batch_size) normals, one row per Adam step.

    One uniform shift per step; stratifying the inverse-CDF draws removes
    almost all Monte Carlo noise from the batch means while keeping the
    estimator an unbiased sample average. The shifts are taken in one draw,
    which gives the values of one draw per step, and go through ndtri
    together."""
    shifts = rng.uniform(epochs)
    probs = (np.arange(batch_size) + shifts[:, None]) / batch_size
    return ndtri(np.maximum(probs, 1e-300))


def vi_posterior(
    pseudo: PseudoOutcomes,
    prior: NormalPrior,
    omega,
    config: OptimizerConfig,
    rng: Rng,
) -> GaussianPosterior:
    """Gaussian variational fit of the generalized posterior.

    Each Adam step draws `config.batch_size` reparameterized samples
    theta = mu + sigma * eps and descends the stochastic gradient of
    omega n E_q[L_n] + KL(q || pi) in (mu, log sigma). The draws of all
    `config.epochs` steps are taken from `rng` before the first step.
    """
    if not omega > 0:
        raise DomainError("omega must be positive")
    values = pseudo.values
    n = values.shape[0]
    wn = omega * n
    ybar = float(np.mean(values))
    prec0 = prior.precision
    m0 = prior.m0
    # Start log sigma at the objective's natural posterior scale
    # (omega n + s0^-2)^(-1/2): with a tempered-likelihood term of curvature
    # omega n, the fitted sd is an O(1) multiple of this, so the search stays
    # short regardless of n (Adam's step sizes cannot chase a target that is
    # many log-units away within a fixed epoch budget).
    log_sigma0 = -0.5 * math.log(wn + prec0)

    draws = iter(_stratified_normals(config.batch_size, config.epochs, rng))

    def gradient(theta):
        mu, log_sigma = theta
        sigma = math.exp(log_sigma)
        eps = next(draws)
        resid = mu + sigma * eps - ybar  # dL_n/dtheta at the sampled thetas
        g_mu = wn * float(np.mean(resid)) + prec0 * (mu - m0)
        # KL(q||pi) in log sigma: -1 + prec0 sigma^2 (the -1 survives the
        # diffuse limit, where KL is defined up to an additive constant)
        g_ls = wn * float(np.mean(resid * eps)) * sigma - 1.0 + prec0 * sigma**2
        return np.array([g_mu, g_ls])

    init = np.array([m0 if prec0 > 0 else 0.0, log_sigma0])
    mu_fit, log_sigma_fit = adam_minimize(gradient, init, config)
    return GaussianPosterior(m_p=float(mu_fit), s_p_sq=float(math.exp(log_sigma_fit) ** 2))
