"""Shared numerical kernels: keyed random streams, SPD solves, normal
distribution helpers, the bias-corrected Adam optimizer of the ATE
variational engine, and the OpenBLAS thread-count pin.

Random streams are counter-based (Philox keyed by a 64-bit seed and a 64-bit
stream index), so any (repetition, fold, purpose) tuple can be mapped to an
independent stream without coordination. Normal draws go through the inverse
CDF of the stream's uniforms, which makes every distributional draw a pure
function of the uniform sequence.
"""

import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincinv, ndtr, ndtri

from .errors import DomainError, NonFiniteGradient, NotPositiveDefinite

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Jitter escalation for near-singular SPD systems: start at 1e-10, multiply
# by 10 per retry, give up past 1e-4 (the GP jitter ceiling).
_JITTER_START = 1e-10
_JITTER_CEILING = 1e-4

# Thread-count variables OpenBLAS reads itself; a user who sets one keeps it.
_BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (set, get) symbol names of the OpenBLAS builds: the scipy-openblas wheels
# bundled with numpy (ILP64, "64_") and scipy (LP64), and a system build.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)
_PROC_MAPS = "/proc/self/maps"


def _splitmix64(z):
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Rng:
    """Deterministic random stream identified by (seed, stream).

    Instances are single-owner: never share one across concurrent tasks.
    Derive independent child streams with :meth:`derive` instead.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"

    def derive(self, *indices):
        """New independent stream keyed by integer indices off this one."""
        s = self.stream
        for ix in indices:
            s = _splitmix64((s + _GOLDEN) ^ ((int(ix) & _MASK64) * _GOLDEN & _MASK64))
        return Rng(self.seed, s)

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        u = self._gen.random(size)
        # random() lives in [0, 1); floor away exact zeros so ndtri stays finite
        return ndtri(np.maximum(u, 1e-300))

    def integers(self, n, size=None):
        """Uniform integers in [0, n), derived from the uniform stream."""
        return (self._gen.random(size) * n).astype(np.int64)

    def permutation(self, n):
        return np.argsort(self._gen.random(n), kind="stable")

    def bernoulli(self, p):
        p = np.asarray(p, dtype=float)
        return (self._gen.random(p.shape) < p).astype(np.int64)

    def chi_square(self, df, size=None):
        u = np.maximum(self._gen.random(size), 1e-300)
        return 2.0 * gammaincinv(df / 2.0, u)

    def student_t(self, df, size=None):
        """t draws as normal over scaled chi, both from the uniform stream."""
        z = self.normal(size)
        v = self.chi_square(df, size)
        return z / np.sqrt(v / df)


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings; defaults follow the experiment configuration
    (learning rate 0.03, 2000 epochs, 200 draws per update)."""

    learning_rate: float = 0.03
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 2000
    batch_size: int = 200

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise DomainError("learning_rate must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise DomainError("beta1 and beta2 must lie in [0, 1)")
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")


def cholesky_factor(a):
    """Lower Cholesky factor of an SPD matrix with jitter escalation.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    ceiling is passed, and DomainError for non-square or asymmetric input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    if a.shape[0] and np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise DomainError("matrix is not symmetric within tolerance 1e-10")

    jitter = 0.0
    while True:
        try:
            mat = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return np.linalg.cholesky(mat), jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_CEILING:
                raise NotPositiveDefinite(
                    f"matrix not positive definite after jitter escalation to {_JITTER_CEILING:g}"
                ) from None


def cholesky_solve(a, b):
    """Solve A X = B for symmetric positive-definite A."""
    L, _ = cholesky_factor(a)
    b = np.asarray(b, dtype=float)
    z = solve_triangular(L, b, lower=True)
    return solve_triangular(L.T, z, lower=False)


def _openblas_thread_controls():
    """(set, get) thread-count functions of each OpenBLAS mapped into this
    process; empty where the process map cannot be read (non-Linux)."""
    try:
        with open(_PROC_MAPS, encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = dict.fromkeys(
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                controls.append((set_fn, get_fn))
                break
    return controls


def set_blas_threads(n):
    """Set every loaded OpenBLAS to n threads and return a callable that
    restores the previous counts. Does nothing when the user set one of the
    thread variables OpenBLAS reads itself, or when no OpenBLAS is loaded.

    A library already at n is left alone: in a forked child, OpenBLAS's
    setter restarts the thread pool the fork dropped, and the new threads
    spin on the cores the pool workers need.
    """
    if any(var in os.environ for var in _BLAS_THREAD_ENV):
        return lambda: None
    n = int(n)
    changed = []
    for set_fn, get_fn in _openblas_thread_controls():
        count = get_fn()
        if count != n:
            set_fn(n)
            changed.append((set_fn, count))

    def restore():
        for set_fn, count in changed:
            set_fn(count)

    return restore


@contextmanager
def blas_threads(n):
    """Run the body with every loaded OpenBLAS at n threads, then restore
    the previous counts. The many small dense solves of this package run
    several times slower on two OpenBLAS threads than on one; parallel work
    goes across repetitions instead."""
    restore = set_blas_threads(n)
    try:
        yield
    finally:
        restore()


def normal_quantile(p):
    """Inverse standard normal CDF; p must lie strictly inside (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {p}")
    return float(ndtri(p))


def gaussian_tv(mean1, mean2, shared_sd):
    """Exact total variation between two normals with a common sd:
    TV = 2 Phi(|m1 - m2| / (2 sd)) - 1."""
    if not (shared_sd > 0 and math.isfinite(shared_sd)):
        raise DomainError("shared_sd must be positive and finite")
    delta = abs(float(mean1) - float(mean2))
    return float(2.0 * ndtr(delta / (2.0 * shared_sd)) - 1.0)


def adam_minimize(gradient_fn, init, config, rng):
    """Run `config.epochs` bias-corrected Adam updates and return the mean of
    the iterates over the second half of the epochs.

    Constant steps leave the last iterate circling the optimum; the average
    of the late iterates settles on it (Polyak & Juditsky 1992).
    `gradient_fn(theta, rng)` returns the (possibly stochastic) gradient at
    theta; it may consume draws from `rng`, which is advanced sequentially so
    the whole run is deterministic given (init, config, rng).
    """
    theta = np.array(init, dtype=float).reshape(-1).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    lr, b1, b2, eps = (
        config.learning_rate,
        config.beta1,
        config.beta2,
        config.epsilon,
    )
    burn_in = config.epochs // 2
    total = np.zeros_like(theta)
    for t in range(1, config.epochs + 1):
        g = np.asarray(gradient_fn(theta, rng), dtype=float).reshape(-1)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(
                f"non-finite gradient at epoch {t}", epoch=t, last_iterate=theta.copy()
            )
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        if t > burn_in:
            total += theta
    return total / (config.epochs - burn_in)
