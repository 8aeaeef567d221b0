"""Pseudo-outcomes for the RA / IPW / DR strategies and the squared-error
empirical loss they induce.

One shared kernel serves both the scalar target (ATE) and the functional
target (CATE); the strategies differ only in how an observation is
transformed. For the ATE the DR transform is the AIPW estimator's summand,
so "AIPW" is accepted as an alias of DR.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .nuisance import CrossFit


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


@dataclass(frozen=True)
class PseudoOutcomes:
    values: np.ndarray
    strategy: Strategy
    cross_fitted: bool

    @property
    def n(self):
        return self.values.shape[0]


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


def cross_fitted_pseudo(ds: Dataset, cf: CrossFit, strategy: Strategy) -> PseudoOutcomes:
    """Pseudo-outcomes where observation i is transformed with the fold fit
    that never saw i."""
    values = pseudo_values(ds.a, ds.y, cf.e_hat, cf.m1_hat, cf.m0_hat, strategy)
    values.setflags(write=False)
    return PseudoOutcomes(values=values, strategy=strategy, cross_fitted=True)


def ate_loss(pseudo: PseudoOutcomes, theta) -> float:
    """Empirical squared-error loss (1/2n) sum_i (values_i - theta)^2.

    Strictly convex with second derivative exactly 1; minimized at the mean.
    """
    v = pseudo.values
    return float(0.5 * np.mean((v - theta) ** 2))
