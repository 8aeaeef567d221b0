"""Generalized posterior over the scalar ATE.

Under the squared-error pseudo-outcome loss the update
    q(theta) ~ exp{-omega * n * L_n(theta)} * pi(theta)
is conjugate for a normal prior, giving the exact posterior

    s_p^2 = (s0^-2 + omega n)^-1
    m_p   = s_p^2 (s0^-2 m0 + omega n theta_hat),   theta_hat = mean(pseudo).

The Gaussian variational engine minimizes
    J(q) = omega n E_q[L_n] + KL(q || pi)
over (mu, log sigma). Over Gaussian q the loss is conjugate, so J's minimum is
the exact posterior above and the engine returns it without an optimizer
loop. (``numerics.adam_minimize`` has no caller in the package; it stays only
while the benchmark's tracer names it.)
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import normal_quantile


@dataclass(frozen=True)
class NormalPrior:
    """N(m0, s0_sq) prior on the ATE; s0_sq = inf encodes the diffuse prior
    exactly via zero precision, removing any large-variance tolerance knob."""

    m0: float = 0.0
    s0_sq: float = 1.0

    def __post_init__(self):
        if not -math.inf < self.m0 < math.inf:
            raise DomainError(f"prior mean must be finite, got {self.m0}")
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


def closed_form_posterior(pseudo: np.ndarray, prior: NormalPrior, omega) -> GaussianPosterior:
    """Exact Normal-Normal conjugate posterior on the pseudo-outcome vector."""
    if not omega > 0:
        raise DomainError("omega must be positive")
    m_p, s_p_sq = normal_update(prior, omega, pseudo.size, float(np.mean(pseudo)))
    return GaussianPosterior(m_p=m_p, s_p_sq=s_p_sq)


def credible_interval(post: GaussianPosterior, alpha):
    """Central (1 - alpha) interval m_p +/- z_{1-alpha/2} s_p."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * post.sd
    return post.m_p - half, post.m_p + half


def vi_posterior(pseudo: np.ndarray, prior: NormalPrior, omega) -> GaussianPosterior:
    """Gaussian variational fit of the generalized posterior on `pseudo`: the
    minimizer of J(q) = omega n E_q[L_n] + KL(q || pi) over q = N(mu, sigma^2).

    The gradient of J in (mu, log sigma) is
        (omega n (mu - theta_hat) + s0^-2 (mu - m0),  omega n sigma^2 - 1 + s0^-2 sigma^2),
    which vanishes exactly at the conjugate update, so the optimum is the
    closed form itself.
    """
    return closed_form_posterior(pseudo, prior, omega)
