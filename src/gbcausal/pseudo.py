"""Pseudo-outcomes for the RA / IPW / DR strategies and the squared-error
empirical loss they induce.

One shared kernel serves both the scalar target (ATE) and the functional
target (CATE); the strategies differ only in how an observation is
transformed. For the ATE the DR transform is the AIPW estimator's summand,
so "AIPW" is accepted as an alias of DR.
"""

import enum

import numpy as np

from .errors import ConfigError, DomainError
from .nuisance import CrossFit
from .numerics import pseudo_vector


class Strategy(str, enum.Enum):
    RA = "RA"
    IPW = "IPW"
    DR = "DR"

    @classmethod
    def parse(cls, label) -> "Strategy":
        name = str(label).strip().upper()
        if name == "AIPW":
            return cls.DR
        try:
            return cls[name]
        except KeyError:
            raise ConfigError(
                f"unknown strategy {label!r}; expected RA, IPW, DR, or AIPW"
            ) from None


def pseudo_values(a, y, e_hat, m1_hat, m0_hat, strategy: Strategy) -> np.ndarray:
    """Vectorized pseudo-outcome transform given nuisance predictions.

        RA : m1 - m0
        IPW: A Y / e - (1-A) Y / (1-e)
        DR : (A/e - (1-A)/(1-e)) (Y - m_A) + m1 - m0
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if strategy is Strategy.RA:
        return np.asarray(m1_hat, dtype=float) - np.asarray(m0_hat, dtype=float)
    e = np.asarray(e_hat, dtype=float).reshape(-1)
    if strategy is Strategy.IPW:
        return a * y / e - (1.0 - a) * y / (1.0 - e)
    m1 = np.asarray(m1_hat, dtype=float).reshape(-1)
    m0 = np.asarray(m0_hat, dtype=float).reshape(-1)
    m_obs = np.where(a == 1.0, m1, m0)
    return (a / e - (1.0 - a) / (1.0 - e)) * (y - m_obs) + m1 - m0


def cross_fitted_pseudo(a, y, cf: CrossFit, strategy: Strategy) -> np.ndarray:
    """Pseudo-outcomes of the treatments a and outcomes y that cf was
    cross-fitted on, where observation i is transformed with the fold fit
    that never saw i, as a read-only float64 vector of length len(a).
    DomainError unless a, y and cf hold the same number of observations."""
    if not np.size(a) == np.size(y) == cf.e_hat.size:
        raise DomainError(
            f"a and y must hold the {cf.e_hat.size} observations cf was fitted on, "
            f"got {np.size(a)} and {np.size(y)}"
        )
    values = pseudo_values(a, y, cf.e_hat, cf.m1_hat, cf.m0_hat, strategy)
    values.setflags(write=False)
    return values


def ate_loss(pseudo: np.ndarray, theta) -> float:
    """Empirical squared-error loss (1/2n) sum_i (pseudo_i - theta)^2.

    Strictly convex with second derivative exactly 1; minimized at the mean.
    The pseudo-outcomes are read through numerics.pseudo_vector.
    """
    return float(0.5 * np.mean((pseudo_vector(pseudo) - theta) ** 2))
