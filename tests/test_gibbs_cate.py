import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbcausal import gibbs_cate, numerics
from gbcausal.dgp import default_spec, generate
from gbcausal.errors import DomainError, NotPositiveDefinite
from gbcausal.gibbs_cate import (
    KernelParams,
    check_exact_n,
    exact_gp_posterior,
    exact_gp_resampler,
    kernel_matrix,
    predict,
    sparse_gp_resampler,
    svgp_fit,
)
from gbcausal.nuisance import NuisanceConfig, cross_fit
from gbcausal.numerics import Rng, cholesky_factor, normal_quantile
from gbcausal.pseudo import Strategy, cross_fitted_pseudo


def _pv(values):
    return np.asarray(values, dtype=float)


def matern52_scalar(r, lengthscale, variance):
    """Independent hand evaluation of the Matern-5/2 covariance."""
    s = math.sqrt(5.0) * r / lengthscale
    return variance * (1.0 + s + s * s / 3.0) * math.exp(-s)


def whole_array_kernel(params, xa, xb=None):
    """Reference k(xa, xb) written as whole-array expressions, each step
    materialised, in the rounding order the kernel must keep."""
    gram = xb is None
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = xa if gram else np.atleast_2d(np.asarray(xb, dtype=float))
    sq = (
        np.sum(xa**2, axis=1)[:, None]
        + np.sum(xb**2, axis=1)[None, :]
        - 2.0 * (xa @ xb.T)
    )
    r = np.sqrt(np.maximum(sq, 0.0))
    if params.family == "Matern52":
        s = np.sqrt(5.0) * r / params.lengthscale
        k = params.variance * (1.0 + s + s**2 / 3.0) * np.exp(-s)
    else:
        k = params.variance * np.exp(-(r**2) / (2.0 * params.lengthscale**2))
    if gram:
        k = k + params.jitter * np.eye(k.shape[0])
    return k


class TestKernelMatrix:
    @pytest.mark.parametrize("family", ["Matern52", "RBF"])
    # shapes below, at and above one elementwise block, and rows wider than a block
    @pytest.mark.parametrize("na,nb", [(1, 1), (5, 3), (181, 181), (300, 301), (3, 40000)])
    def test_bit_identical_to_whole_array_expressions(self, family, na, nb):
        params = KernelParams(family=family, lengthscale=0.7, variance=1.3, jitter=1e-3)
        xa = 2.0 * Rng(60).normal((na, 3))
        xb = Rng(61).normal((nb, 3))

        def same_bits(got, want):
            return got.shape == want.shape and got.tobytes() == want.tobytes()

        assert same_bits(kernel_matrix(params, xa), whole_array_kernel(params, xa))
        cross = whole_array_kernel(params, xa, xb)
        assert same_bits(kernel_matrix(params, xa, xb), cross)
        # xb is xa: the cross form (no jitter) whose product is a @ a.T
        assert same_bits(kernel_matrix(params, xa, xa), whole_array_kernel(params, xa, xa))

    @pytest.mark.parametrize("family", ["Matern52", "RBF"])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_one_array_gram_is_symmetric_bit_for_bit(self, family, d):
        # exact_gp_resampler factors k(x, x) in its own lower triangle and
        # restores that from the upper one, which needs exact symmetry
        params = KernelParams(family=family)
        for n in (1, 2, 3, 17, 127, 128, 255, 256, 500, 1000, 2000):
            wide = Rng(69, n).normal((2 * n, 2 * d))
            layouts = (wide[:n, :d].copy(), np.asfortranarray(wide[:n, :d]), wide[::2, ::2])
            for x in layouts:
                k = kernel_matrix(params, x, x)
                assert k.tobytes() == k.T.copy().tobytes(), (n, x.flags.c_contiguous)

    def test_zero_distance_diagonal_gets_jitter(self):
        params = KernelParams(lengthscale=2.0, variance=2.0, jitter=1e-4)
        x = np.array([[0.0, 0.0], [1.0, -1.0]])
        k = kernel_matrix(params, x)
        assert k[0, 0] == pytest.approx(2.0 + 1e-4, abs=1e-15)
        assert k[1, 1] == pytest.approx(2.0 + 1e-4, abs=1e-15)

    def test_matern_hand_value_at_distance_two(self):
        params = KernelParams(lengthscale=2.0, variance=2.0, jitter=1e-4)
        xa = np.array([[0.0]])
        xb = np.array([[2.0]])
        k = kernel_matrix(params, xa, xb)
        assert k[0, 0] == pytest.approx(matern52_scalar(2.0, 2.0, 2.0), abs=1e-12)
        # 2 (1 + sqrt5 + 5/3) exp(-sqrt5)
        assert k[0, 0] == pytest.approx(
            2.0 * (1.0 + math.sqrt(5.0) + 5.0 / 3.0) * math.exp(-math.sqrt(5.0)), abs=1e-12
        )

    def test_cross_matrix_carries_no_jitter(self):
        params = KernelParams()
        xa = np.array([[0.0]])
        xb = np.array([[0.0]])
        k = kernel_matrix(params, xa, xb.copy())  # equal values, distinct objects
        assert k[0, 0] == params.variance
        assert kernel_matrix(params, xa, xa)[0, 0] == params.variance  # the same object
        k2 = kernel_matrix(params, xa, np.array([[1e-9]]))
        assert k2[0, 0] < params.variance + params.jitter

    def test_rbf_decays_to_zero(self):
        params = KernelParams(family="RBF", lengthscale=1.0, variance=1.0, jitter=0.0)
        k = kernel_matrix(params, np.array([[0.0]]), np.array([[30.0]]))
        assert k[0, 0] <= 1e-100

    def test_rbf_hand_value(self):
        params = KernelParams(family="RBF", lengthscale=1.5, variance=0.7, jitter=0.0)
        k = kernel_matrix(params, np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]))
        r_sq = 1.0 + 4.0
        assert k[0, 0] == pytest.approx(0.7 * math.exp(-r_sq / (2 * 1.5**2)), abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            KernelParams(family="Cubic")
        with pytest.raises(DomainError):
            KernelParams(lengthscale=0.0)
        with pytest.raises(DomainError):
            KernelParams(jitter=-1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(variance=math.inf), dict(variance=math.nan), dict(lengthscale=math.nan),
         dict(jitter=math.nan), dict(jitter=math.inf)],
    )
    def test_rejects_non_finite_settings(self, kwargs):
        with pytest.raises(DomainError):
            KernelParams(**kwargs)


class TestExactGp:
    def test_constant_pseudo_outcomes_reproduce_constant(self):
        params = KernelParams()
        x = Rng(1).normal((15, 2))
        gp = exact_gp_posterior(x, _pv(np.full(15, 3.3)), params, omega=1e6)
        means, variances = gp.predict(Rng(2).normal((7, 2)))
        # centering makes the residual target exactly zero
        np.testing.assert_allclose(means, 3.3, atol=1e-12)
        assert np.all(variances > 0)

    def test_single_point_formula(self):
        params = KernelParams(lengthscale=2.0, variance=2.0, jitter=1e-4)
        omega = 0.7
        x0 = np.array([[0.4, -0.2]])
        gp = exact_gp_posterior(x0, _pv([1.7]), params, omega)
        mean, var = gp.predict(x0)
        k00 = params.variance + params.jitter
        k_q = params.variance  # a cross-covariance carries no jitter
        # const_mean equals the single value, so the mean reduces to it
        assert mean[0] == pytest.approx(1.7 + k_q / (k00 + 1.0 / omega) * 0.0, abs=1e-12)
        assert var[0] == pytest.approx(k00 - k_q**2 / (k00 + 1.0 / omega), abs=1e-12)

    def test_two_point_hand_solve(self):
        params = KernelParams(lengthscale=2.0, variance=2.0, jitter=1e-4)
        omega = 2.0
        x = np.array([[0.0], [1.0]])
        values = np.array([1.0, 3.0])
        gp = exact_gp_posterior(x, _pv(values), params, omega)
        xq = np.array([[0.25]])
        got_mean, got_var = gp.predict(xq)
        # independent dense-solve oracle built from the hand kernel values
        kd = params.variance + params.jitter
        k01 = matern52_scalar(1.0, 2.0, 2.0)
        gram = np.array([[kd + 0.5, k01], [k01, kd + 0.5]])
        kq = np.array([matern52_scalar(0.25, 2.0, 2.0), matern52_scalar(0.75, 2.0, 2.0)])
        centered = values - values.mean()
        alpha = np.linalg.solve(gram, centered)
        want_mean = kq @ alpha + values.mean()
        want_var = kd - kq @ np.linalg.solve(gram, kq)
        assert got_mean[0] == pytest.approx(want_mean, abs=1e-10)
        assert got_var[0] == pytest.approx(want_var, abs=1e-10)

    def test_training_variance_below_prior(self):
        params = KernelParams()
        x = Rng(3).normal((30, 2))
        gp = exact_gp_posterior(x, _pv(Rng(4).normal(30)), params, omega=1.0)
        _, variances = gp.predict(x)
        assert np.all(variances <= params.variance + params.jitter)

    def test_far_query_returns_prior_variance(self):
        params = KernelParams()
        x = Rng(5).normal((25, 2))
        gp = exact_gp_posterior(x, _pv(Rng(6).normal(25)), params, omega=1.0)
        _, variances = gp.predict(np.array([[60.0, -60.0]]))
        prior_var = params.variance + params.jitter
        assert abs(variances[0] - prior_var) <= 0.05 * prior_var

    def test_predict_at_training_rows_ignores_array_identity(self):
        x = Rng(9).normal((200, 2))
        gp = exact_gp_posterior(x, _pv(Rng(10).normal(200)), KernelParams(), omega=1.0)
        mean_a, var_a = gp.predict(gp.x_train)
        mean_b, var_b = gp.predict(gp.x_train.copy())
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(var_a, var_b)

    def test_size_guard(self):
        check_exact_n(2000)
        with pytest.raises(DomainError, match="n <= 2000"):
            check_exact_n(2001)
        x = np.zeros((2001, 1))
        with pytest.raises(DomainError):
            exact_gp_posterior(x, _pv(np.zeros(2001)), KernelParams(), 1.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            exact_gp_posterior(np.zeros((2, 1)), _pv([1.0, 2.0]), KernelParams(), 0.0)


class TestExactGpResampler:
    @pytest.mark.parametrize("omega", [0.05, 1.0, 30.0])
    def test_matches_exact_gp_on_the_resample(self, omega):
        n = 120
        x = Rng(50).normal((n, 2))
        values = np.sin(2.0 * x[:, 0]) + Rng(51).normal(n)
        query = Rng(52).normal((25, 2))
        params = KernelParams()
        fit = exact_gp_resampler(params, x, values, query)
        for b in range(4):
            rows = Rng(53).derive(b).integers(n, n)
            assert np.unique(rows).size < n  # the resample repeats rows
            got_mean, got_var = fit(rows, omega)
            want = exact_gp_posterior(x[rows], _pv(values[rows]), params, omega)
            want_mean, want_var = want.predict(query)
            np.testing.assert_allclose(got_mean, want_mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got_var, want_var, rtol=0, atol=1e-10)

    def test_all_rows_once_is_the_full_data_fit(self):
        n = 60
        x = Rng(54).normal((n, 1))
        values = Rng(55).normal(n)
        query = Rng(56).normal((9, 1))
        fit = exact_gp_resampler(KernelParams(), x, values, query)
        got_mean, got_var = fit(np.arange(n), 0.8)
        want_mean, want_var = exact_gp_posterior(x, _pv(values), KernelParams(), 0.8).predict(query)
        np.testing.assert_allclose(got_mean, want_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got_var, want_var, rtol=0, atol=1e-10)

    @staticmethod
    def _problem(n=90):
        x = Rng(57).normal((n, 2))
        return x, np.cos(x[:, 0]) + Rng(58).normal(n), Rng(59).normal((11, 2))

    def _assert_k_xx_intact(self, fit, x, values, query):
        # a resample fit gathers from k(x, x), so it reads any entry left changed
        rows = Rng(62).integers(x.shape[0], x.shape[0])
        got = fit(rows, 0.6)
        want = exact_gp_resampler(KernelParams(), x, values, query)(rows, 0.6)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_full_row_fit_restores_k_xx(self):
        x, values, query = self._problem()
        fit = exact_gp_resampler(KernelParams(), x, values, query)
        first = fit(np.arange(x.shape[0]), 0.6)
        self._assert_k_xx_intact(fit, x, values, query)
        again = fit(np.arange(x.shape[0]), 0.6)
        for g, w in zip(again, first):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_full_row_fit_is_kept_per_omega(self, engine):
        x, values, query = self._problem()
        n = x.shape[0]

        def resampler():
            if engine == "exact":
                return exact_gp_resampler(KernelParams(), x, values, query)
            return sparse_gp_resampler(KernelParams(), x, values, query, 12, Rng(66))

        fit = resampler()
        first = fit(np.arange(n), 0.6)
        fit(Rng(67).integers(n, n), 0.6)
        fit(np.arange(n), 2.0)
        kept = fit(np.arange(n), 0.6)
        assert kept is first
        fresh = resampler()(np.arange(n), 0.6)
        for got, want in zip(kept, fresh):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()
        # any other rows are fitted anew, a permutation of every row included
        shuffled = fit(Rng(68).permutation(n), 0.6)
        assert shuffled is not first and shuffled[0].flags.writeable

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    @pytest.mark.parametrize("omega", [0.0, np.float64(0.0), -1.0, math.nan],
                             ids=["zero", "float64_zero", "negative", "nan"])
    @pytest.mark.parametrize("resample", [False, True], ids=["every_row", "resample"])
    def test_fit_rejects_a_bad_omega(self, engine, omega, resample):
        # as the posteriors do, on the kept full-row fit and on a resample alike
        x, values, query = self._problem()
        n = x.shape[0]
        if engine == "exact":
            fit = exact_gp_resampler(KernelParams(), x, values, query)
        else:
            fit = sparse_gp_resampler(KernelParams(), x, values, query, 12, Rng(66))
        rows = Rng(67).integers(n, n) if resample else np.arange(n)
        with pytest.raises(DomainError, match="omega must be positive"):
            fit(rows, omega)

    def test_failed_full_row_fit_restores_k_xx(self, monkeypatch):
        x, values, query = self._problem()
        fit = exact_gp_resampler(KernelParams(), x, values, query)

        def failing(a, *args, **kwargs):
            raise RuntimeError("factor failed")

        monkeypatch.setattr(gibbs_cate, "cholesky_factor", failing)
        with pytest.raises(RuntimeError, match="factor failed"):
            fit(np.arange(x.shape[0]), 0.6)
        monkeypatch.undo()
        self._assert_k_xx_intact(fit, x, values, query)

    @pytest.mark.parametrize("failures", [0, 1, 99], ids=["factor", "jitter_retry", "failed"])
    def test_full_row_fit_leaves_k_xx_bitwise_unchanged(self, monkeypatch, failures):
        # each failed factor has overwritten the lower triangle before it
        # raises; the fit puts k(x, x) back from the upper triangle all the same
        x, values, query = self._problem(300)
        built = []
        kernel = gibbs_cate.kernel_matrix
        monkeypatch.setattr(gibbs_cate, "kernel_matrix",
                            lambda *args: built.append(kernel(*args)) or built[-1])
        fit = exact_gp_resampler(KernelParams(), x, values, query)
        k_xx = built[0]
        assert k_xx.shape == (300, 300)
        before = k_xx.copy()
        factor, calls = numerics._potrf, []

        def flaky(mat):
            calls.append(mat.shape[0])
            return factor(mat) and len(calls) > failures

        monkeypatch.setattr(numerics, "_potrf", flaky)
        levels = 8  # jitter 0, then 1e-10 .. 1e-4
        if failures >= levels:
            with pytest.raises(NotPositiveDefinite):
                fit(np.arange(300), 0.6)
        else:
            fit(np.arange(300), 0.6)
        assert len(calls) == min(failures + 1, levels)
        assert k_xx.tobytes() == before.tobytes()

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
    def test_full_row_fit_holds_one_n_by_n_array(self):
        # In a fresh process the growth of the peak resident set (VmHWM) over
        # the resampler and its full-row fit is k(x, x), a few n x 51 arrays
        # and the packing buffer OpenBLAS touches at its first factor of
        # that size: the fit factors k(x, x) in place
        n = 1500
        script = textwrap.dedent(f"""
            import numpy as np
            from gbcausal.gibbs_cate import KernelParams, exact_gp_resampler
            from gbcausal.numerics import Rng, blas_threads

            def peak():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh
                                if line.startswith("VmHWM:"))

            x, values, query = Rng(63).normal(({n}, 3)), Rng(64).normal({n}), Rng(65).normal((50, 3))
            with blas_threads(1):
                before = peak()
                fit = exact_gp_resampler(KernelParams(family="Matern52"), x, values, query)
                fit(np.arange({n}), 1.0)
                print(peak() - before)
        """)
        src = str(Path(numerics.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 1.4 * 8 * n * n

    def test_full_row_fit_holds_at_most_three_n_by_n_arrays(self):
        # k(x, x) is the one n x n array: the fit factors it in place and
        # restores it afterwards; the rest is a few n x 51 arrays and the
        # symmetry and finiteness tests' boolean temporaries
        n = 600
        x = Rng(63).normal((n, 3))
        values = Rng(64).normal(n)
        query = Rng(65).normal((50, 3))
        tracemalloc.start()
        try:
            fit = exact_gp_resampler(KernelParams(family="Matern52"), x, values, query)
            fit(np.arange(n), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 8 * n * n

    def test_full_row_fit_on_strided_columns_matches_a_contiguous_copy(self):
        # column-strided x whose general product x @ x.T is not symmetric on
        # every BLAS; the in-place factor of k(x, x) needs it to be
        wide, values, query = Rng(70).normal((255, 4)), Rng(71).normal(255), Rng(72).normal((5, 2))
        got = exact_gp_resampler(KernelParams(), wide[:, ::2], values, query)(np.arange(255), 0.6)
        want = exact_gp_resampler(KernelParams(), wide[:, ::2].copy(), values, query)(
            np.arange(255), 0.6
        )
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_size_guard(self):
        with pytest.raises(DomainError):
            exact_gp_resampler(KernelParams(), np.zeros((2001, 1)), np.zeros(2001), np.zeros((1, 1)))


def titsias_moments(params, z, x, values, x_query, omega):
    """Independent oracle: predictive moments of the optimal q(u) for the
    inducing rows z in the unwhitened form of Titsias (2009), with
    Sigma = K_mm + omega K_mn K_nm: mean omega K_qm Sigma^-1 K_mn y_c + const,
    variance k_** - K_qm K_mm^-1 K_mq + K_qm Sigma^-1 K_mq."""
    k_mm = kernel_matrix(params, z)
    k_mn = kernel_matrix(params, z, x)
    k_mq = kernel_matrix(params, z, x_query)
    const = float(np.mean(values))
    sigma = k_mm + omega * (k_mn @ k_mn.T)
    means = omega * k_mq.T @ np.linalg.solve(sigma, k_mn @ (values - const)) + const
    variances = (
        params.variance + params.jitter
        - np.sum(k_mq * np.linalg.solve(k_mm, k_mq), axis=0)
        + np.sum(k_mq * np.linalg.solve(sigma, k_mq), axis=0)
    )
    return means, variances


class TestSparseGpResampler:
    @pytest.mark.parametrize("omega", [0.05, 1.0])
    def test_matches_dense_optimum_on_the_resample(self, omega):
        n, m = 150, 15
        x = Rng(60).normal((n, 2))
        values = np.sin(2.0 * x[:, 0]) + Rng(61).normal(n)
        query = Rng(62).normal((25, 2))
        params = KernelParams()
        fit = sparse_gp_resampler(params, x, values, query, m, Rng(63))
        z = svgp_fit(x, _pv(values), params, omega, m, Rng(63)).inducing_x
        for b in range(4):
            rows = Rng(64).derive(b).integers(n, n)
            assert np.unique(rows).size < n  # the resample repeats rows
            got_mean, got_var = fit(rows, omega)
            want_mean, want_var = titsias_moments(params, z, x[rows], values[rows], query, omega)
            np.testing.assert_allclose(got_mean, want_mean, rtol=0, atol=1e-9)
            np.testing.assert_allclose(got_var, want_var, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("omega", [0.05, 1.0, 30.0])
    def test_all_rows_once_is_the_reported_fit(self, omega):
        n, m = 200, 20
        x = Rng(65).normal((n, 2))
        values = Rng(66).normal(n) + x[:, 1]
        query = Rng(67).normal((30, 2))
        fit = sparse_gp_resampler(KernelParams(), x, values, query, m, Rng(68, 3))
        got_mean, got_var = fit(np.arange(n), omega)
        gp = svgp_fit(x, _pv(values), KernelParams(), omega, m, Rng(68, 3))
        want_mean, want_var = predict(gp, query)
        np.testing.assert_allclose(got_mean, want_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_var, want_var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 11])
    def test_inducing_bounds(self, m):
        with pytest.raises(DomainError):
            sparse_gp_resampler(KernelParams(), np.zeros((10, 1)), np.zeros(10),
                                np.zeros((1, 1)), m, Rng(0))

    def test_no_size_guard(self):
        n = 2500
        x = Rng(69).normal((n, 1))
        fit = sparse_gp_resampler(KernelParams(), x, Rng(70).normal(n), x[:5], 10, Rng(71))
        means, variances = fit(Rng(72).integers(n, n), 1.0)
        assert np.all(np.isfinite(means)) and np.all(variances > 0)


class TestSvgp:
    def _training_setup(self, n=40, seed=42):
        rng = Rng(seed)
        x = rng.normal((n, 2))
        values = 2.0 + x[:, 0] + 0.5 * np.sin(3.0 * x[:, 1]) + 0.7 * rng.normal(n)
        omega = 1.0 / float(np.var(values, ddof=1))
        return x, _pv(values), omega

    def test_full_inducing_matches_exact_gp(self):
        x, pv, omega = self._training_setup(n=40)
        params = KernelParams()
        exact = exact_gp_posterior(x, pv, params, omega)
        gp = svgp_fit(x, pv, params, omega, 40, Rng(7))
        xq = Rng(8).normal((50, 2))
        want_mean, want_var = exact.predict(xq)
        got_mean, got_var = predict(gp, xq)
        assert np.max(np.abs(got_mean - want_mean)) <= 1e-2
        ratio = np.sqrt(got_var / want_var)
        assert ratio.min() >= 0.9 and ratio.max() <= 1.1

    @pytest.mark.parametrize("omega", [0.0, math.nan])
    def test_rejects_bad_omega(self, omega):
        x, pv, _ = self._training_setup(n=20)
        with pytest.raises(DomainError, match="omega must be positive"):
            svgp_fit(x, pv, KernelParams(), omega, 5, Rng(7))

    def test_constant_pseudo_outcomes(self):
        x = Rng(9).normal((30, 2))
        gp = svgp_fit(x, _pv(np.full(30, -1.2)), KernelParams(), 1.0, 10, Rng(10))
        means, variances = predict(gp, Rng(11).normal((20, 2)))
        np.testing.assert_allclose(means, -1.2, atol=1e-2)
        assert np.all(variances > 0)

    def test_translation_equivariance(self):
        x, pv, omega = self._training_setup(n=25)
        shift = 3.7
        pv_shift = _pv(pv + shift)
        gp_a = svgp_fit(x, pv, KernelParams(), omega, 12, Rng(12))
        gp_b = svgp_fit(x, pv_shift, KernelParams(), omega, 12, Rng(12))
        xq = Rng(13).normal((15, 2))
        mean_a, var_a = predict(gp_a, xq)
        mean_b, var_b = predict(gp_b, xq)
        np.testing.assert_allclose(mean_b - mean_a, shift, atol=1e-10)
        np.testing.assert_allclose(var_a, var_b, atol=1e-10)

    def test_pipeline_on_d4_is_finite(self):
        spec = default_spec("D4")
        ds = generate(spec, 1000, Rng(14))
        cf = cross_fit(ds, 5, NuisanceConfig(), Rng(15))
        pv = cross_fitted_pseudo(ds, cf, Strategy.DR)
        omega = 1.0 / float(np.var(pv, ddof=1))
        gp = svgp_fit(ds.x, pv, KernelParams(), omega, 20, Rng(16))
        xq = Rng(17).normal((100, 2))
        means, variances = predict(gp, xq)
        assert np.all(np.isfinite(means))
        assert np.all(variances > 0)

    def test_pointwise_cri_has_gaussian_width(self):
        x, pv, omega = self._training_setup(n=20)
        gp = svgp_fit(x, pv, KernelParams(), omega, 10, Rng(18))
        means, variances = predict(gp, x[:5])
        z = normal_quantile(0.975)
        lo = means - z * np.sqrt(variances)
        hi = means + z * np.sqrt(variances)
        np.testing.assert_allclose(hi - lo, 2 * z * np.sqrt(variances), atol=1e-12)

    def test_inducing_bounds(self):
        x, pv, omega = self._training_setup(n=10)
        with pytest.raises(DomainError):
            svgp_fit(x, pv, KernelParams(), omega, 0, Rng(0))
        with pytest.raises(DomainError):
            svgp_fit(x, pv, KernelParams(), omega, 11, Rng(0))

    def test_deterministic_given_rng(self):
        x, pv, omega = self._training_setup(n=15)
        a = svgp_fit(x, pv, KernelParams(), omega, 8, Rng(20, 5))
        b = svgp_fit(x, pv, KernelParams(), omega, 8, Rng(20, 5))
        for name in ("inducing_x", "chol_k", "chol_p", "v_mean"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.const_mean == b.const_mean and a.kernel == b.kernel

    def test_closed_form_is_stationary_point_of_bound(self):
        x, pv, omega = self._training_setup(n=40)
        params = KernelParams()
        gp = svgp_fit(x, pv, params, omega, 15, Rng(22))
        chol_k, _ = cholesky_factor(kernel_matrix(params, gp.inducing_x))
        c = np.linalg.solve(chol_k, kernel_matrix(params, gp.inducing_x, x))
        y_c = pv - gp.const_mean
        p_mat = np.eye(15) + omega * (c @ c.T)
        # whitened covariance S~ = P^-1 = L_P^-T L_P^-1
        s_tilde = np.linalg.solve(gp.chol_p.T, np.linalg.solve(gp.chol_p, np.eye(15)))
        assert np.linalg.norm(p_mat @ gp.v_mean - omega * (c @ y_c)) <= 1e-10
        assert np.linalg.norm(p_mat @ s_tilde - np.eye(15)) <= 1e-10

    def test_q_cov_is_spd(self):
        x, pv, omega = self._training_setup(n=30)
        gp = svgp_fit(x, pv, KernelParams(), omega, 15, Rng(21))
        # q_cov = L_K S~ L_K^T = A^T A with A = L_P^-1 L_K^T
        a = np.linalg.solve(gp.chol_p, gp.chol_k.T)
        eigvals = np.linalg.eigvalsh(a.T @ a)
        assert eigvals.min() > -1e-10


class TestVarianceMonotonicity:
    def test_exact_gp_variance_non_increasing_in_n(self):
        params = KernelParams()
        rng = Rng(22)
        x_all = rng.normal((160, 2))
        v_all = rng.normal(160)
        xq = np.array([[0.3, -0.4]])
        prev = math.inf
        for n in (10, 20, 40, 80, 160):
            gp = exact_gp_posterior(x_all[:n], _pv(v_all[:n]), params, omega=1.0)
            _, var = gp.predict(xq)
            assert var[0] <= prev + 1e-12
            prev = var[0]
