"""Shared numerical kernels: keyed random streams, triangular and SPD
solves, the normal quantile and CDF, the logistic link, a bias-corrected
Adam optimizer and the OpenBLAS thread-count pin.

``adam_minimize`` (with ``OptimizerConfig``) has no caller in the package:
both variational engines are conjugate and computed in closed form. It stays
only while the benchmark's layer tracer names it.

Random streams are counter-based (Philox keyed by a 64-bit seed and a 64-bit
stream index), so any (repetition, fold, purpose) tuple can be mapped to an
independent stream without coordination. Uniform, normal, integer,
permutation and Bernoulli draws are pure functions of the stream's uniforms
(normal draws through the inverse CDF). Chi-square draws, and with them the
Student-t draws of D7's noise, come from numpy's gamma sampler on the same
stream; NEP 19 lets numpy change that sampler's stream between feature
releases, so they are a pure function of (seed, stream) for a given numpy
version only.

The special functions are numpy and standard-library code, so no gbcausal
process imports scipy (whose import costs more than the rest of the
package). ``ndtri`` follows cephes (Moshier 1989); the tests hold it and the
logistic link against scipy.

The Cholesky factor, the SPD solve on it and the triangular solve call
LAPACK's dpotrf and dpotrs and BLAS's dtrsm (ILP64 ``scipy_*_64_``) via ctypes
in the OpenBLAS numpy 2.x wheels map, found in /proc/self/maps as the thread
pin finds it; elsewhere (numpy < 2.0, Accelerate, no /proc) np.linalg.cholesky
and np.linalg.solve on the factor's triangle, then its transpose, stand in.
"""

import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

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
# factor, triangular solve, triangle copy and solve on a factor: numpy's OpenBLAS
_LAPACK_SYMBOLS = ("scipy_dpotrf_64_", "scipy_dtrsm_64_", "scipy_dlacpy_64_", "scipy_dpotrs_64_")
# Entries per block of cholesky_factor's symmetry test
_CHECK_ENTRIES = 65536
_lapack_binding = []  # _lapack()'s result, once looked up

# Rational approximations of cephes' ndtri, highest degree first; the Q
# polynomials have an implicit leading coefficient 1. P0/Q0 cover the body
# exp(-2) < y < 1 - exp(-2); P1/Q1 and P2/Q2 cover the tails in
# x = sqrt(-2 log y) below and above 8.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
_SQRT1_2 = math.sqrt(0.5)
# Elements per pass of the vectorised ndtri: enough to spread numpy's cost
# per call, few enough that its temporaries (128 KB each) stay in cache.
_NDTRI_CHUNK = 16384


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
        """Uniform integers in [0, n), derived from the uniform stream; a
        Python int when size is None."""
        if size is None:
            return int(self._gen.random() * n)
        return (self._gen.random(size) * n).astype(np.int64)

    def permutation(self, n):
        return np.argsort(self._gen.random(n), kind="stable")

    def bernoulli(self, p):
        p = np.asarray(p, dtype=float)
        return (self._gen.random(p.shape) < p).astype(np.int64)

    def chi_square(self, df, size=None):
        """Chi-square(df) draws for a scalar df > 0, as twice numpy's
        standard_gamma(df / 2) on this stream (Marsaglia & Tsang 2000 for
        shape >= 1). Exact in distribution, but not a function of the
        stream's uniforms alone, and numpy may change its stream between
        feature releases (NEP 19)."""
        return 2.0 * self._gen.standard_gamma(df / 2.0, size)

    def student_t(self, df, size=None):
        """t(df) draws z / sqrt(v / df): the normals z first, then the
        chi-square(df) draws v, from this one stream."""
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


def cholesky_factor(a, in_place=False):
    """Lower Cholesky factor of an SPD matrix with jitter escalation.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    ceiling is passed, and DomainError for non-square or asymmetric input.
    Only the lower triangle is read once the symmetry test has passed.

    Each jitter level is one LAPACK dpotrf('L') call (_potrf), the call
    np.linalg.cholesky makes, on a zeroed Fortran array given the lower
    triangle of a + jitter I: the call holds the input and the factor, not
    np.linalg.cholesky's working copy, and no n x n temporary of its checks.

    in_place=True factors a itself, a writeable F-contiguous float64 array
    symmetric bit for bit, and holds no other n x n array. L is then a: its
    lower triangle holds the factor and its strict upper triangle keeps
    a's values, so read it through its lower triangle only, as
    solve_triangular does. restore_lower(a, diag), with a's diagonal saved
    beforehand, puts a back exactly; each jitter retry does so first.
    """
    if in_place and not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable
                         and a.flags.f_contiguous):
        raise DomainError("an in-place factor needs a writeable F-contiguous float64 array")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    n = a.shape[0]
    if n and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise DomainError("matrix entries must be finite")
    step = max(1, _CHECK_ENTRIES // max(n, 1))
    if not all((a[lo:lo + step] == a[:, lo:lo + step].T).all() for lo in range(0, n, step)):
        if in_place:
            raise DomainError("an in-place factor needs a matrix symmetric bit for bit")
        if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
            raise DomainError("matrix is not symmetric within tolerance 1e-10")
        a = np.asfortranarray(a)  # whose lower triangle _lower_copy reads as stored

    diag = a.diagonal().copy() if in_place else None
    jitter = 0.0
    while True:
        mat = a if in_place else _lower_copy(a)
        if jitter:
            mat.flat[:: n + 1] += jitter  # the diagonal of a + jitter I, rounded alike
        if _potrf(mat):
            return mat, jitter
        if in_place:
            restore_lower(a, diag)
        jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
        if jitter > _JITTER_CEILING:
            raise NotPositiveDefinite(
                f"matrix not positive definite after jitter escalation to {_JITTER_CEILING:g}"
            ) from None


def restore_lower(a, diag):
    """Undo cholesky_factor(a, in_place=True) on a matrix that was symmetric
    bit for bit, with diag its diagonal saved before the call: copy, a
    column at a time, the upper triangle the factor left onto the lower one
    it wrote, and put diag on the diagonal."""
    for j in range(a.shape[0] - 1):
        a[j + 1:, j] = a[j, j + 1:]
    a.flat[:: a.shape[0] + 1] = diag


def solve_triangular(a, b, overwrite_b=False):
    """Solve L X = B for a lower-triangular L with a nonzero diagonal, a
    factor from cholesky_factor: one BLAS dtrsm on L in Fortran order, or
    np.linalg.solve on tril(L) where none is bound. L's upper triangle may
    hold anything (cholesky_factor's in-place factor keeps the input there).
    overwrite_b=True, as in scipy, lets dtrsm write X over a C-ordered b."""
    a, b = np.asfortranarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    if a.shape != (n, n) or b.shape[:1] != (n,):
        raise DomainError(f"factor {a.shape} and right-hand side {b.shape} do not match")
    x = b.reshape(n, -1)
    if not (overwrite_b and x.flags.c_contiguous and x.flags.writeable):
        x = np.array(x, order="C")
    lapack, k = _lapack(), x.shape[1]
    if lapack is None:
        return np.linalg.solve(np.tril(a), x).reshape(b.shape)
    # column-major dtrsm reads x as X^T: solve X^T L^T = B^T from the right
    if x.size:
        lapack[1](b"R", b"L", b"T", b"N", _int(k), _int(n), ctypes.byref(ctypes.c_double(1.0)),
                  _ptr(a), _int(n), _ptr(x), _int(k))
    return x.reshape(b.shape)


def solve_factored(chol, b):
    """Solve L L^T X = B on a lower Cholesky factor L, reading its lower
    triangle only: one LAPACK dpotrs on L in Fortran order, or np.linalg.solve
    on tril(L), then on its transpose, where none is bound."""
    chol, b = np.asfortranarray(chol, dtype=float), np.asarray(b, dtype=float)
    n, lapack = len(chol), _lapack()
    if chol.shape != (n, n) or b.shape[:1] != (n,):
        raise DomainError(f"factor {chol.shape} and right-hand side {b.shape} do not match")
    x = np.array(b.reshape(n, -1), order="F")
    if lapack is None:
        low = np.tril(chol)
        return np.linalg.solve(low.T, np.linalg.solve(low, x)).reshape(b.shape)
    if x.size:
        lapack[3](b"L", _int(n), _int(x.shape[1]), _ptr(chol), _int(n), _ptr(x), _int(n),
                  ctypes.byref(ctypes.c_int64()))
    return x.reshape(b.shape)


def cholesky_solve(a, b):
    """Solve A X = B for SPD A: solve_factored on cholesky_factor's factor."""
    return solve_factored(cholesky_factor(a)[0], b)


def _int(v):
    # a Fortran INTEGER of the ILP64 interface, by reference
    return ctypes.byref(ctypes.c_int64(v))


def _ptr(arr):
    return ctypes.c_void_p(arr.ctypes.data)


def _lower_copy(a):
    """A zeroed F-contiguous array with a's lower triangle: LAPACK's dlacpy
    on a's buffer read in Fortran order (a, or a.T, which has the same
    values if a is symmetric bit for bit), or a masked np.copyto."""
    n = a.shape[0]
    mat, lapack = np.zeros((n, n), order="F"), _lapack()
    if lapack is None or not (a.flags.c_contiguous or a.flags.f_contiguous):
        np.copyto(mat, a, where=np.tri(n, dtype=bool))
    elif n:
        nn = _int(n)
        lapack[2](b"L", nn, nn, _ptr(a), nn, _ptr(mat), nn)
    return mat


def _potrf(mat):
    """Factor the F-contiguous SPD mat in its lower triangle, leaving the
    other: LAPACK's dpotrf('L'), or np.linalg.cholesky where none is bound.
    False when mat is not positive definite (its lower triangle may then
    be partly overwritten)."""
    n = mat.shape[0]
    lapack = _lapack()
    if lapack is None:
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return False
        np.copyto(mat, chol, where=np.tri(n, dtype=bool))
        return True
    info = ctypes.c_int64()
    lapack[0](b"L", _int(n), _ptr(mat), _int(max(n, 1)), ctypes.byref(info))
    return info.value == 0


def _lapack():
    """(dpotrf, dtrsm, dlacpy, dpotrs) of the first mapped OpenBLAS that
    exports all four, looked up once per process; None where none does."""
    if not _lapack_binding:
        _lapack_binding.append(next(
            (tuple(getattr(lib, name) for name in _LAPACK_SYMBOLS) for lib in _openblas_libraries()
             if all(hasattr(lib, name) for name in _LAPACK_SYMBOLS)), None))
    return _lapack_binding[0]


def _openblas_libraries():
    """Each OpenBLAS mapped into this process, opened with ctypes; none
    where the process map cannot be read (non-Linux)."""
    try:
        with open(_PROC_MAPS, encoding="utf-8") as fh:
            paths = dict.fromkeys(
                f[5].strip() for f in (line.split(maxsplit=5) for line in fh)
                if len(f) == 6 and "openblas" in os.path.basename(f[5]))
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _openblas_thread_controls():
    """(set, get) thread-count functions of each mapped OpenBLAS."""
    controls = []
    for lib in _openblas_libraries():
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


def _polevl(x, coefs):
    # Horner's rule in cephes' operation order; in place on arrays
    ans = x * coefs[0]
    for c in coefs[1:-1]:
        ans += c
        ans *= x
    ans += coefs[-1]
    return ans


def _p1evl(x, coefs):
    # polevl with an implicit leading coefficient 1
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri_body(y):
    # exp(-2) < y < 1 - exp(-2)
    y = y - 0.5
    y2 = y * y
    return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _SQRT_2PI


def _ndtri_tail(x, log, far):
    # minus the quantile of y <= exp(-2), from x = sqrt(-2 log y); cephes
    # takes the far-tail polynomials once x >= 8
    z = 1.0 / x
    p, q = (_NDTRI_P2, _NDTRI_Q2) if far else (_NDTRI_P1, _NDTRI_Q1)
    return x - log(x) / x - z * _polevl(z, p) / _p1evl(z, q)


def _ndtri_scalar(p):
    if not 0.0 < p < 1.0:
        return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        return _ndtri_body(y)
    x = math.sqrt(-2.0 * math.log(y))
    x = _ndtri_tail(x, math.log, x >= 8.0)
    return x if upper else -x


def _ndtri_chunk(p):
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = _ndtri_body(y)
    tail = np.flatnonzero(~(y > _EXP_M2))
    if tail.size:
        y = y[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.sqrt(-2.0 * np.log(y))
            far = x >= 8.0
            t = _ndtri_tail(x, np.log, False)
            if far.any():
                t[far] = _ndtri_tail(x[far], np.log, True)
        t[y == 0.0] = np.inf  # y < 0 (p outside [0, 1]) is already nan
        out[tail] = np.where(upper[tail], t, -t)
    return out


def ndtri(p):
    """Inverse standard normal CDF, elementwise: cephes' rational
    approximations. -inf at 0, inf at 1, nan outside [0, 1].

    A scalar takes the C library's log, as scipy's compiled ndtri does, and
    equals scipy.special.ndtri bit for bit. Arrays take np.log on the tails,
    whose SIMD loop differs from the C library's log in the last bit on a
    small share of inputs, so their tail values lie within a few ulp of
    scipy's (their body values are equal); they are computed
    _NDTRI_CHUNK elements at a time."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        return _ndtri_scalar(float(p))
    flat = p.reshape(-1)
    out = np.empty(flat.shape)
    for s in range(0, flat.size, _NDTRI_CHUNK):
        out[s:s + _NDTRI_CHUNK] = _ndtri_chunk(flat[s:s + _NDTRI_CHUNK])
    return out.reshape(p.shape)


def ndtr(x):
    """Standard normal CDF of a scalar, arranged as cephes' ndtr."""
    x = float(x) * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0 else y


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), elementwise (scipy's formula)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def logit(p):
    """log(p / (1 - p)), elementwise; on [0.3, 0.65] it takes scipy's
    log1p(s) - log1p(-s) with s = 2(p - 1/2), which keeps precision near 1/2."""
    p = np.asarray(p, dtype=float)
    s = 2.0 * (p - 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = np.log1p(s) - np.log1p(-s)
        return np.where((p >= 0.3) & (p <= 0.65), mid, np.log(p / (1.0 - p)))[()]


def pseudo_vector(pseudo):
    """The pseudo-outcomes as a float array (np.asarray, so no copy of a
    float64 array); DomainError unless that array is 1-D."""
    pseudo = np.asarray(pseudo, dtype=float)
    if pseudo.ndim != 1:
        raise DomainError(f"pseudo-outcomes must be a 1-D array, got shape {pseudo.shape}")
    return pseudo


def normal_quantile(p):
    """Inverse standard normal CDF; p must lie strictly inside (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {p}")
    return _ndtri_scalar(p)


def gaussian_tv(mean1, mean2, shared_sd):
    """Exact total variation between two normals with a common sd:
    TV = 2 Phi(|m1 - m2| / (2 sd)) - 1."""
    if not (shared_sd > 0 and math.isfinite(shared_sd)):
        raise DomainError("shared_sd must be positive and finite")
    delta = abs(float(mean1) - float(mean2))
    return 2.0 * ndtr(delta / (2.0 * shared_sd)) - 1.0


def adam_minimize(gradient_fn, init, config):
    """Run `config.epochs` bias-corrected Adam updates and return the mean of
    the iterates over the second half of the epochs.

    Constant steps leave the last iterate circling the optimum; the average
    of the late iterates settles on it (Polyak & Juditsky 1992).
    `gradient_fn(theta)` returns the (possibly stochastic) gradient at
    theta; a stochastic one brings its own draws, so the run is as
    deterministic as they are.
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
        g = np.asarray(gradient_fn(theta), dtype=float).reshape(-1)
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
