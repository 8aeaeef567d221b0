"""The nine synthetic back-door data-generating processes D1..D9.

The ground truth is a function of the spec: `true_ate` gives the closed-form
ATE and `true_cate` the CATE at covariate rows. True nuisance functions
(propensity, per-arm outcome means) are exposed so experiments can run with
oracle nuisances or inject controlled nuisance error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import InvalidSpec, UnknownDgp
from .numerics import Rng, expit

DGP_IDS = ("D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9")


@dataclass(frozen=True)
class DgpSpec:
    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in DGP_IDS:
            raise UnknownDgp(f"unknown DGP id {self.id!r}; expected one of {DGP_IDS}")
        _validate(self.id, self.params)


def _default_params(dgp_id) -> dict:
    """Fresh default parameters for a known process id, so that no two specs
    share an array; their names are the parameters the process requires."""
    beta = np.array([0.5, -0.5])
    gamma = np.array([1.0, 1.0])
    return {
        "D1": {"tau": 2.0, "beta": beta, "gamma": gamma},
        "D2": {"theta0": 2.0, "theta": np.array([1.0, 0.5]), "beta": beta, "gamma": gamma},
        "D3": {
            "theta0": 2.0,
            "theta": np.array([1.0, 0.5]),
            "mu": np.array([0.5, -0.5]),
            "beta": beta,
            "gamma": gamma,
        },
        "D4": {"alpha0": 2.0, "alpha1": 1.0, "beta": beta},
        "D5": {"tau": 2.0, "b": np.array([0.0, 1.0, 0.5, 0.5])},
        "D6": {"tau": 2.0, "gamma": gamma},
        "D7": {"tau": 2.0, "beta": beta, "gamma": gamma, "nu": 3.0},
        "D8": {"tau": 2.0, "p": 50, "s": 5},
        "D9": {},
    }[dgp_id]


def default_spec(dgp_id) -> DgpSpec:
    """Pinned default parameters for each process id.

    Values give moderate confounding, nonzero treatment-effect heterogeneity
    where the process has any, and finite noise moments.
    """
    if dgp_id not in DGP_IDS:
        raise UnknownDgp(f"unknown DGP id {dgp_id!r}; expected one of {DGP_IDS}")
    return DgpSpec(id=dgp_id, params=_default_params(dgp_id))


def _validate(dgp_id, params):
    for name in _default_params(dgp_id):
        if name not in params:
            raise InvalidSpec(f"{dgp_id} requires parameter {name!r}")
        val = np.asarray(params[name], dtype=float)
        if not np.all(np.isfinite(val)):
            raise InvalidSpec(f"{dgp_id} parameter {name!r} must be finite")
    if dgp_id == "D7" and not params["nu"] > 2:
        raise InvalidSpec("D7 requires nu > 2 for finite noise variance")
    if dgp_id == "D8":
        p, s = int(params["p"]), int(params["s"])
        if not (1 <= s <= p):
            raise InvalidSpec("D8 requires 1 <= s <= p")
    if dgp_id == "D5" and np.asarray(params["b"]).size != 4:
        raise InvalidSpec("D5 requires a length-4 coefficient vector b")


def covariate_dim(spec: DgpSpec) -> int:
    if spec.id == "D8":
        return int(spec.params["p"])
    if spec.id == "D9":
        return 5
    return 2


def _sparse_coefs(spec):
    p, s = int(spec.params["p"]), int(spec.params["s"])
    beta = np.zeros(p)
    gamma = np.zeros(p)
    beta[:s] = np.linspace(0.2, 1.0, s)
    gamma[:s] = np.linspace(1.0, 0.2, s)
    return beta, gamma


def draw_covariates(spec: DgpSpec, n, rng: Rng) -> np.ndarray:
    d = covariate_dim(spec)
    if spec.id == "D9":
        return rng.uniform((n, d))
    x = rng.normal((n, d))
    if spec.id == "D3":
        x = x + np.asarray(spec.params["mu"], dtype=float)
    return x


def true_propensity(spec: DgpSpec, x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pid, pp = spec.id, spec.params
    if pid == "D5":
        b = np.asarray(pp["b"], dtype=float)
        z = b[0] + b[1] * x[:, 0] + b[2] * x[:, 0] ** 2 + b[3] * np.sin(x[:, 1])
    elif pid == "D6":
        z = 3.5 + 3.0 * x[:, 0]
    elif pid == "D8":
        beta, _ = _sparse_coefs(spec)
        z = x @ beta
    elif pid == "D9":
        z = -0.5 + x[:, 0] - 0.25 * x[:, 1] + 0.25 * x[:, 2]
    else:
        z = x @ np.asarray(pp["beta"], dtype=float)
    return expit(z)


def true_cate(spec: DgpSpec, x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pid, pp = spec.id, spec.params
    n = x.shape[0]
    if pid in ("D1", "D5", "D6", "D7", "D8"):
        return np.full(n, float(pp["tau"]))
    if pid in ("D2", "D3"):
        return float(pp["theta0"]) + x @ np.asarray(pp["theta"], dtype=float)
    if pid == "D4":
        return float(pp["alpha0"]) + float(pp["alpha1"]) * x[:, 0] * x[:, 1]
    # D9, Friedman-style nonlinear CATE
    return 1.0 + x[:, 0] / (x[:, 1] + 0.1)


def _baseline(spec: DgpSpec, x) -> np.ndarray:
    """Untreated conditional mean m_0(x)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pid, pp = spec.id, spec.params
    if pid == "D4":
        return x[:, 0] ** 2 + np.sin(x[:, 1])
    if pid == "D5":
        return x[:, 0] + 0.5 * x[:, 0] ** 2 + 0.5 * np.sin(x[:, 1])
    if pid == "D8":
        _, gamma = _sparse_coefs(spec)
        return x @ gamma
    if pid == "D9":
        return (
            10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
            + 20.0 * (x[:, 2] - 0.5) ** 2
            + 10.0 * x[:, 3]
            + 5.0 * x[:, 4]
        )
    return x @ np.asarray(pp["gamma"], dtype=float)


def true_outcome_mean(spec: DgpSpec, x, arm) -> np.ndarray:
    """m_a(x): noise has mean zero in every process, so m_a = m_0 + a * cate."""
    base = _baseline(spec, x)
    if arm == 0:
        return base
    return base + true_cate(spec, x)


def true_ate(spec: DgpSpec) -> float:
    pid, pp = spec.id, spec.params
    if pid in ("D1", "D5", "D6", "D7", "D8"):
        return float(pp["tau"])
    if pid == "D2":
        return float(pp["theta0"])
    if pid == "D3":
        theta = np.asarray(pp["theta"], dtype=float)
        mu = np.asarray(pp["mu"], dtype=float)
        return float(pp["theta0"] + theta @ mu)
    if pid == "D4":
        return float(pp["alpha0"])
    # D9: E[X1] = 1/2 and E[1/(X2+0.1)] = log(1.1/0.1) for uniform covariates
    return 1.0 + 0.5 * math.log(11.0)


def _noise(spec: DgpSpec, x, rng: Rng) -> np.ndarray:
    n = x.shape[0]
    if spec.id == "D7":
        scale = np.exp(0.5 * x[:, 0])
        return scale * rng.student_t(float(spec.params["nu"]), n)
    return rng.normal(n)


def generate(spec: DgpSpec, n, rng: Rng) -> Dataset:
    """n i.i.d. draws from the process.

    Draw order is fixed (covariates, treatment, noise) so results are a pure
    function of the rng stream.
    """
    if n < 1:
        raise InvalidSpec("n must be >= 1")
    x = draw_covariates(spec, n, rng)
    e = true_propensity(spec, x)
    a = rng.bernoulli(e)
    eps = _noise(spec, x, rng)
    y = _baseline(spec, x) + a * true_cate(spec, x) + eps
    return Dataset(x=x, a=a, y=y)

