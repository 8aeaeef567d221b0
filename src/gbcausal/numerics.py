"""Shared numerical kernels: keyed random streams, triangular and SPD
solves, the normal quantile and CDF, the logistic link, the chi-square
quantile, a bias-corrected Adam optimizer and the OpenBLAS thread-count pin.

``adam_minimize`` (with ``OptimizerConfig``) has no caller in the package:
both variational engines are conjugate and computed in closed form. It stays
only while the benchmark's layer tracer names it.

Random streams are counter-based (Philox keyed by a 64-bit seed and a 64-bit
stream index), so any (repetition, fold, purpose) tuple can be mapped to an
independent stream without coordination. Normal draws go through the inverse
CDF of the stream's uniforms, which makes every distributional draw a pure
function of the uniform sequence.

The special functions and the triangular solve are numpy and standard-library
code, so no gbcausal process imports scipy (whose import costs more than the
rest of the package). ``ndtri`` follows cephes (Moshier 1989) and
``gammaincinv`` the inverse incomplete gamma of DiDonato & Morris (1986, ACM
TOMS 12:377); the tests hold each against scipy.
"""

import ctypes
import functools
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

# Inverse incomplete gamma: the Halley iteration stops for an element once
# its step is below this fraction of x (the cubic convergence leaves an error
# near its cube), and gives up after _GAMMA_MAX_STEPS; the series and the
# continued fraction stop after _GAMMA_MAX_TERMS terms.
_GAMMA_STEP_TOL = 1e-5
_GAMMA_MAX_STEPS = 50
_GAMMA_MAX_TERMS = 10_000

# Rows per diagonal block of the blocked triangular solve.
_TRI_BLOCK = 32
# Fewest rows per diagonal block of the in-place Cholesky factor; a matrix
# of fewer than twice this many rows is one block, one np.linalg.cholesky call.
_CHOL_BLOCK = 128


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
        """Chi-square(df) draws for a scalar df, by the inverse CDF."""
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


def cholesky_factor(a, in_place=False):
    """Lower Cholesky factor of an SPD matrix with jitter escalation.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    ceiling is passed, and DomainError for non-square or asymmetric input.
    Only the lower triangle is read once the symmetry test has passed.

    The input is copied once, the jitter added to the copy's diagonal, the
    copy factored in its lower triangle by diagonal blocks
    (_factor_in_place; one np.linalg.cholesky call below 2 _CHOL_BLOCK
    rows) and its strict upper triangle zeroed, so the call holds two n x n
    arrays, the input and the factor, where np.linalg.cholesky on a large
    matrix holds a third, its LAPACK working copy. Each jitter retry starts
    again from a fresh copy of the input.

    in_place=True factors the float array a itself and holds no other
    n x n array: a's lower triangle, diagonal included, is overwritten with
    the factor and a is returned as L, while its strict upper triangle keeps
    a's values. Read that L through its lower triangle only, as
    solve_triangular does, and put a back with restore_lower(a, diag) from
    its diagonal saved beforehand; that is exact because a must then be
    symmetric bit for bit. Each jitter retry restores a the same way first.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    n = a.shape[0]
    if n and not np.array_equal(a, a.T):  # exact test first: no float temporaries
        if in_place:
            raise DomainError("an in-place factor needs a matrix symmetric bit for bit")
        if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
            raise DomainError("matrix is not symmetric within tolerance 1e-10")

    diag = a.diagonal().copy() if in_place else None
    jitter = 0.0
    while True:
        mat = a if in_place else a.copy()
        mat.flat[:: n + 1] += jitter  # the diagonal of a + jitter I, rounded alike
        try:
            _factor_in_place(mat, keep_upper=in_place)
        except np.linalg.LinAlgError:
            if in_place:
                restore_lower(a, diag)
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_CEILING:
                raise NotPositiveDefinite(
                    f"matrix not positive definite after jitter escalation to {_JITTER_CEILING:g}"
                ) from None
            continue
        return mat, jitter


@functools.lru_cache(maxsize=256)
def _tri_mask(m, k=0):
    """Read-only boolean mask of an m x m matrix's entries on and below its
    k-th diagonal (np.tri), built once per size for the blocked loops."""
    mask = np.tri(m, k=k, dtype=bool)
    mask.setflags(write=False)
    return mask


def _block_bounds(n):
    """Bounds of the n // _CHOL_BLOCK diagonal blocks of near equal size
    (one block below 2 _CHOL_BLOCK rows) that split n rows."""
    k = max(1, n // _CHOL_BLOCK)
    return [n * i // k for i in range(k + 1)]


def _factor_in_place(a, keep_upper=False):
    """Overwrite the symmetric matrix a with its lower Cholesky factor,
    left-looking by diagonal blocks (Golub & Van Loan 2013, sec. 4.2), and
    return it. For each block column: subtract the product of the factor
    rows already computed (one matrix product), factor the diagonal block
    with np.linalg.cholesky, which reads its lower triangle, and solve the
    rows below it against that block's transpose. Raises
    np.linalg.LinAlgError when a diagonal block is not positive definite.
    Temporaries are one block column in size.

    The strict upper triangle is zeroed block row by block row, or, with
    keep_upper, neither read nor written: only the lower triangle of each
    diagonal block's update and factor is written, and a is L only through
    its lower triangle.
    """
    bounds = _block_bounds(a.shape[0])
    for s, e in zip(bounds[:-1], bounds[1:]):
        panel = a[s:, s:e]
        block, below = panel[: e - s], panel[e - s:]
        written = _tri_mask(e - s) if keep_upper else True
        if s:
            update = a[s:, :s] @ a[s:e, :s].T
            np.subtract(block, update[: e - s], out=block, where=written)
            below -= update[e - s:]
            del update
        diag = np.linalg.cholesky(block)
        np.copyto(block, diag, where=written)
        if below.size:
            # rows below: L_below = A_below L_diag^-T
            below[...] = solve_triangular(diag, below.T, lower=True).T
            if not keep_upper:
                a[s:e, e:] = 0.0
    return a


def restore_lower(a, diag):
    """Copy the strict upper triangle of the square matrix a into its strict
    lower triangle and put diag on its diagonal, in place: this undoes
    cholesky_factor(a, in_place=True) on a matrix that was symmetric bit for
    bit, with diag its diagonal saved before the call. Temporaries are one
    diagonal block in size."""
    bounds = _block_bounds(a.shape[0])
    for s, e in zip(bounds[:-1], bounds[1:]):
        a[s:e, :s] = a[:s, s:e].T
        block = a[s:e, s:e]
        np.copyto(block, block.T.copy(), where=_tri_mask(e - s, -1))
    a.flat[:: a.shape[0] + 1] = diag


def solve_triangular(a, b, lower=False):
    """Solve A X = B for a triangular A with a nonzero diagonal, such as a
    Cholesky factor or its transpose. Only the triangle solved with is
    read, so the other may hold anything (cholesky_factor's in-place factor
    keeps the input there).

    Left-looking block substitution: for each diagonal block of at most
    _TRI_BLOCK rows, the rows already solved are taken off the block's rows
    of B with one matrix product, and the rest is multiplied by the block's
    inverse. Inverting the small block and multiplying costs less than
    np.linalg.solve on it once B has more than a few columns, as in the GP
    solves.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    rhs = b.reshape(n, -1)
    x = np.empty(rhs.shape)
    starts = range(0, n, _TRI_BLOCK)
    for s in starts if lower else reversed(starts):
        e = min(s + _TRI_BLOCK, n)
        solved = slice(0, s) if lower else slice(e, n)
        # the diagonal block's triangle, as np.tril or np.triu gives it
        mask = _tri_mask(e - s)
        block = np.where(mask if lower else mask.T, a[s:e, s:e], 0.0)
        x[s:e] = np.linalg.inv(block) @ (rhs[s:e] - a[s:e, solved] @ x[solved])
    return x.reshape(b.shape)


def cholesky_solve(a, b):
    """Solve A X = B for symmetric positive-definite A.

    The Cholesky factor checks A and sets the jitter; the system itself,
    with that jitter, goes to one LAPACK LU solve, since numpy has no LAPACK
    triangular solve. The LU is not the cheaper route at every size: on
    D8's 152-feature propensity Hessians it took 0.26-0.34 ms, against
    0.04 ms for two LAPACK triangular solves (scipy's) on the factor this
    call already has; two of this module's solve_triangular calls with one
    right-hand side cost about as much as the LU there (142 us each)."""
    _, jitter = cholesky_factor(a)
    a = np.asarray(a, dtype=float)
    if jitter:
        a = a + jitter * np.eye(a.shape[0])
    return np.linalg.solve(a, np.asarray(b, dtype=float))


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


def _gamma_series(a, x):
    # sum_k x^k / ((a+1)...(a+k)), so that P(a, x) = x^a e^-x / Gamma(a+1)
    # times it. An element's terms are set to 0 once they fall below its
    # sum's rounding (checked every fourth term), which freezes its sum.
    total = np.ones_like(x)
    term = np.ones_like(x)
    ap = a
    for k in range(1, _GAMMA_MAX_TERMS):
        ap += 1.0
        term *= x
        term /= ap
        total += term
        if k % 4 == 0:
            term[term <= total * 2.0**-53] = 0.0
            if not term.any():
                break
    return total


def _gamma_cfrac(a, x):
    # Legendre's continued fraction by Lentz's method, so that
    # Q(a, x) = x^a e^-x / Gamma(a) times it; converges fast for
    # x > a + 1. An element's value is taken at the first check (every
    # fourth step) after its step factor reaches 1 within rounding.
    b = x + 1.0 - a
    c = np.full_like(x, 1e300)
    d = 1.0 / b
    h = d
    out = h
    live = np.ones(x.shape, dtype=bool)
    for i in range(1, _GAMMA_MAX_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h = h * delta
        if i % 4 == 0:
            conv = live & (np.abs(delta - 1.0) <= 2.0**-53)
            out = np.where(conv, h, out)
            live &= ~conv
            if not live.any():
                break
    return out


def _gamma_pq(a, x):
    """Regularized incomplete gammas (P(a, x), Q(a, x)) at x > 0: the series
    below a + 1 + 2 sqrt(a), where the complement 1 - P is still accurate
    and the series is the cheaper, the continued fraction above."""
    cf = x > a + 1.0 + 2.0 * math.sqrt(a)
    log_gamma = math.lgamma(a)
    p, q = np.empty_like(x), np.empty_like(x)
    xs, xc = x[~cf], x[cf]
    p[~cf] = np.exp(a * np.log(xs) - xs - log_gamma) / a * _gamma_series(a, xs)
    q[~cf] = 1.0 - p[~cf]
    q[cf] = np.exp(a * np.log(xc) - xc - log_gamma) * _gamma_cfrac(a, xc)
    p[cf] = 1.0 - q[cf]
    return p, q


def gammaincinv(a, p):
    """x with P(a, x) = p for the regularized lower incomplete gamma P and a
    scalar a > 0, elementwise over p: 0 at p = 0, inf at 1, nan outside.

    Starts, as DiDonato & Morris (1986) do, from the Wilson-Hilferty cube
    a (1 - 1/(9a) + ndtri(p) / (3 sqrt a))^3, or in the lower tail from the
    first two terms of the series inversion x = (p Gamma(a+1))^(1/a)
    (1 + x/(a+1)). Then Halley steps on P(a, x) - p, or on its equal
    (1 - p) - Q(a, x) for p > 1/2 so that the upper tail keeps its
    relative accuracy, until each element's step is below 1e-5 x.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    out = np.where(flat == 0.0, 0.0, np.where(flat == 1.0, np.inf, np.nan))
    rows = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    pt = flat[rows]
    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        small = np.exp((np.log(pt) + math.lgamma(a + 1.0)) / a)
        small *= 1.0 + small / (a + 1.0)
        cube = 1.0 - 1.0 / (9.0 * a) + ndtri(pt) / (3.0 * math.sqrt(a))
        x = np.where((cube > 0.0) & (small > 0.5 * a), a * cube**3, small)
        # a start that underflows to 0 is the quantile rounded to a double
        zero = x == 0.0
        out[rows[zero]] = 0.0
        rows, pt, x = rows[~zero], pt[~zero], x[~zero]
        upper = pt > 0.5
        qt = 1.0 - pt
        log_gamma = math.lgamma(a)
        for _ in range(_GAMMA_MAX_STEPS):
            lo, hi = _gamma_pq(a, x)
            # Halley: f / f' with f' = x^(a-1) e^-x / Gamma(a), f''/f' = (a-1)/x - 1
            step = np.where(upper, qt - hi, lo - pt) / np.exp((a - 1.0) * np.log(x) - x - log_gamma)
            step /= 1.0 - 0.5 * np.minimum(step * ((a - 1.0) / x - 1.0), 1.0)
            new = x - step
            x = np.where(new > 0.0, new, 0.5 * x)
            done = np.abs(step) <= _GAMMA_STEP_TOL * x
            if done.any():
                out[rows[done]] = x[done]
                keep = ~done
                rows, pt, qt, upper, x = rows[keep], pt[keep], qt[keep], upper[keep], x[keep]
                if not rows.size:
                    break
        out[rows] = x
    return out.reshape(p.shape)[()]


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
