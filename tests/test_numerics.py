import ctypes
import math
import os

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from gbcausal import numerics
from gbcausal.errors import DomainError, NonFiniteGradient, NotPositiveDefinite
from gbcausal.numerics import (
    OptimizerConfig,
    Rng,
    adam_minimize,
    blas_threads,
    cholesky_factor,
    cholesky_solve,
    gaussian_tv,
    normal_quantile,
)


def erf_cdf(z):
    """Independent oracle: standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def erf_quantile(p):
    """Independent oracle: bisection inversion of erf_cdf."""
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCholeskySolve:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        x = cholesky_solve(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_diagonal_hand_solve(self):
        a = np.array([[4.0, 0.0], [0.0, 9.0]])
        b = np.array([[8.0], [18.0]])
        np.testing.assert_allclose(cholesky_solve(a, b), [[2.0], [2.0]], atol=1e-12)

    def test_two_by_two_hand_solve(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([[3.0], [3.0]])
        np.testing.assert_allclose(cholesky_solve(a, b), [[1.0], [1.0]], atol=1e-12)

    @pytest.mark.parametrize("size", [3, 20, 87, 200])
    def test_reconstruction_random_spd(self, size):
        rng = Rng(11, size)
        q = rng.normal((size, size))
        a = q.T @ q + 0.5 * np.eye(size)
        b = rng.normal((size, 3))
        x = cholesky_solve(a, b)
        err = np.max(np.abs(a @ x - b))
        assert err <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_vector_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = cholesky_solve(a, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_jitter_rescues_singular_psd(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        x = cholesky_solve(a, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(x))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(np.diag([1.0, -1.0]), np.ones(2))

    def test_asymmetric_raises(self):
        with pytest.raises(DomainError):
            cholesky_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_factor_reports_jitter(self):
        _, jit = cholesky_factor(np.eye(2))
        assert jit == 0.0


class TestNormalQuantile:
    def test_median(self):
        assert abs(normal_quantile(0.5)) <= 1e-12

    def test_upper_tail_against_erf_oracle(self):
        q = normal_quantile(0.975)
        assert abs(q - erf_quantile(0.975)) <= 1e-9
        assert abs(q - 1.959964) <= 5e-7

    def test_symmetry(self):
        assert abs(normal_quantile(0.025) + normal_quantile(0.975)) <= 1e-12

    def test_quantile_cdf_roundtrip(self):
        for z in np.linspace(-5.0, 5.0, 101):
            assert abs(normal_quantile(ndtr(z)) - z) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


class TestGaussianTv:
    def test_equal_means(self):
        assert gaussian_tv(1.0, 1.0, 0.3) == 0.0

    def test_unit_gap_against_erf_oracle(self):
        want = 2.0 * erf_cdf(1.0) - 1.0
        assert abs(gaussian_tv(0.0, 2.0, 1.0) - want) <= 1e-12
        assert abs(gaussian_tv(0.0, 2.0, 1.0) - 0.682689) <= 5e-7

    def test_small_gap_against_erf_oracle(self):
        want = 2.0 * erf_cdf(0.1) - 1.0
        assert abs(gaussian_tv(0.0, 0.2, 1.0) - want) <= 1e-12
        assert abs(gaussian_tv(0.0, 0.2, 1.0) - 0.079656) <= 5e-7

    def test_symmetry_and_monotonicity(self):
        rng = Rng(5)
        for _ in range(50):
            m1, m2 = rng.normal(2) * 3.0
            sd = 0.1 + float(rng.uniform()) * 2.0
            tv = gaussian_tv(m1, m2, sd)
            assert tv == gaussian_tv(m2, m1, sd)
            wider = gaussian_tv(m1, m2 + np.sign(m2 - m1 + 1e-12) * 0.5, sd)
            assert 0.0 <= tv <= 1.0
            assert wider >= tv

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_tv(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            gaussian_tv(0.0, 1.0, -1.0)


class TestAdam:
    def test_quadratic_converges(self):
        config = OptimizerConfig(learning_rate=0.1, epochs=500, batch_size=1)
        theta = adam_minimize(lambda t, _r: 2.0 * t, np.array([1.0]), config, Rng(0))
        assert abs(theta[0]) <= 1e-3

    def test_zero_gradient_is_fixed_point(self):
        config = OptimizerConfig(learning_rate=0.1, epochs=50, batch_size=1)
        theta = adam_minimize(lambda t, _r: np.zeros_like(t), np.array([3.25]), config, Rng(0))
        assert theta[0] == 3.25

    def test_shifted_quadratic_default_rate(self):
        config = OptimizerConfig(learning_rate=0.03, epochs=2000, batch_size=1)
        theta = adam_minimize(lambda t, _r: 2.0 * (t - 3.0), np.array([0.0]), config, Rng(0))
        assert abs(theta[0] - 3.0) <= 1e-2

    def test_non_finite_gradient_aborts_with_last_iterate(self):
        calls = {"n": 0}

        def grad(t, _r):
            calls["n"] += 1
            if calls["n"] >= 4:
                return np.array([np.nan])
            return 2.0 * t

        config = OptimizerConfig(learning_rate=0.1, epochs=100, batch_size=1)
        with pytest.raises(NonFiniteGradient) as err:
            adam_minimize(grad, np.array([1.0]), config, Rng(0))
        assert err.value.epoch == 4
        assert np.all(np.isfinite(err.value.last_iterate))

    def test_deterministic_given_rng(self):
        config = OptimizerConfig(learning_rate=0.05, epochs=100, batch_size=1)

        def noisy_grad(t, r):
            return 2.0 * t + r.normal(t.shape)

        a = adam_minimize(noisy_grad, np.array([1.0, -1.0]), config, Rng(9, 2))
        b = adam_minimize(noisy_grad, np.array([1.0, -1.0]), config, Rng(9, 2))
        np.testing.assert_array_equal(a, b)


class TestOptimizerConfig:
    def test_defaults_match_experiment_settings(self):
        config = OptimizerConfig()
        assert config.learning_rate == 0.03
        assert config.epochs == 2000
        assert config.batch_size == 200
        assert (config.beta1, config.beta2, config.epsilon) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerConfig(**kwargs)


class TestRng:
    def test_same_key_same_sequence(self):
        a = Rng(42, 7).uniform(1000)
        b = Rng(42, 7).uniform(1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(42, 0).uniform(100)
        b = Rng(42, 1).uniform(100)
        assert not np.array_equal(a, b)

    def test_normal_is_inverse_cdf_of_uniforms(self):
        z = Rng(8, 3).normal(500)
        u = Rng(8, 3).uniform(500)
        np.testing.assert_array_equal(z, ndtri(np.maximum(u, 1e-300)))

    def test_chi_square_uniformity_per_stream(self):
        # 20-bin chi-square statistic on 20k uniforms per stream; df = 19,
        # so values near 19 are expected and 45 is a generous ceiling.
        bins = 20
        for stream in range(8):
            u = Rng(123, stream).uniform(20000)
            counts = np.bincount((u * bins).astype(int), minlength=bins)
            expected = len(u) / bins
            stat = float(np.sum((counts - expected) ** 2 / expected))
            assert stat < 45.0, f"stream {stream} failed uniformity: chi2={stat:.1f}"

    def test_streams_nearly_uncorrelated(self):
        base = Rng(123, 0).uniform(20000)
        for stream in range(1, 6):
            other = Rng(123, stream).uniform(20000)
            rho = np.corrcoef(base, other)[0, 1]
            assert abs(rho) < 0.03

    def test_derive_is_stable_and_keyed(self):
        root = Rng(10)
        a = root.derive(3, 4)
        b = Rng(10).derive(3, 4)
        assert (a.seed, a.stream) == (b.seed, b.stream)
        assert a.stream != root.derive(4, 3).stream

    def test_integers_in_range(self):
        vals = Rng(1).integers(7, 10000)
        assert vals.min() >= 0 and vals.max() <= 6

    def test_permutation(self):
        perm = Rng(2).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_bernoulli_matches_probability(self):
        p = np.full(20000, 0.3)
        draws = Rng(3).bernoulli(p)
        assert abs(draws.mean() - 0.3) < 0.02

    def test_student_t_sample_moments(self):
        # nu = 5: variance nu/(nu-2) = 5/3
        t = Rng(4).student_t(5.0, 200000)
        assert abs(np.mean(t)) < 0.02
        assert abs(np.var(t) - 5.0 / 3.0) < 0.1


BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def openblas_thread_counts():
    """Independent read of the thread count of each OpenBLAS mapped into
    this process, keyed by library file name."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = get()
                break
    return counts


@pytest.fixture
def openblas(monkeypatch):
    """Thread counts before the test, with the user's thread variables
    cleared; skips where no OpenBLAS is mapped or the map is unreadable."""
    for var in BLAS_THREAD_ENV:
        monkeypatch.delenv(var, raising=False)
    try:
        counts = openblas_thread_counts()
    except OSError:
        pytest.skip("no process map to find OpenBLAS in")
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    return counts


class TestBlasThreads:
    def test_every_loaded_openblas_reads_one_inside(self, openblas):
        with blas_threads(2):  # a known count to come back to
            with blas_threads(1):
                inside = openblas_thread_counts()
            after = openblas_thread_counts()
        assert inside == {name: 1 for name in openblas}
        assert after == {name: 2 for name in openblas}
        assert openblas_thread_counts() == openblas

    @pytest.mark.parametrize("var", BLAS_THREAD_ENV)
    def test_user_thread_variable_wins(self, openblas, monkeypatch, var):
        monkeypatch.setenv(var, "2")
        with blas_threads(2):
            pinned = openblas_thread_counts()
            with blas_threads(1):
                unchanged = openblas_thread_counts()
        assert unchanged == pinned == openblas

    def test_no_library_found_is_a_no_op(self, openblas, monkeypatch, tmp_path):
        monkeypatch.setattr(numerics, "_PROC_MAPS", str(tmp_path / "missing"))
        assert numerics._openblas_thread_controls() == []
        ran = []
        with blas_threads(1):
            ran.append(openblas_thread_counts())
        assert ran == [openblas]
