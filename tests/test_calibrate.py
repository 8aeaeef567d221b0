import math

import numpy as np
import pytest

from gbcausal import calibrate, gibbs_cate
from gbcausal.calibrate import (
    CalibrationResult,
    gpc_omega,
    gpc_omega_cate_from_pseudo,
    gpc_omega_from_pseudo,
    gpc_search,
    plugin_omega,
)
from gbcausal.dgp import default_spec, generate
from gbcausal.errors import DegenerateVariance, DomainError, NumericError
from gbcausal.gibbs_ate import DIFFUSE_PRIOR, NormalPrior, closed_form_posterior, normal_update
from gbcausal.gibbs_cate import KernelParams, exact_gp_resampler, sparse_gp_resampler
from gbcausal.nuisance import NuisanceConfig, cross_fit
from gbcausal.numerics import Rng, normal_quantile
from gbcausal.pseudo import Strategy, cross_fitted_pseudo


def _pv(values):
    return np.asarray(values, dtype=float)


class TestPluginOmega:
    def test_hand_variance(self):
        assert plugin_omega(_pv([0.0, 2.0])) == pytest.approx(0.5, abs=1e-15)

    def test_unit_variance(self):
        assert plugin_omega(_pv([0.0, 1.0, 2.0])) == pytest.approx(1.0, abs=1e-15)

    def test_scaling_by_c_scales_omega_by_c_squared(self):
        values = Rng(1).normal(50) + 2.0
        base = plugin_omega(_pv(values))
        scaled = plugin_omega(_pv(3.0 * values))
        assert scaled == pytest.approx(base / 9.0, rel=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            plugin_omega(_pv([1.5, 1.5, 1.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pseudo_outcomes(self, bad):
        # np.var would read a NaN variance as constant, and warn on an inf
        with pytest.raises(NumericError, match="pseudo-outcomes are not finite"):
            plugin_omega(_pv([1.0, bad, 3.0]))

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            plugin_omega(_pv([1.0]))

    def test_diffuse_plugin_posterior_matches_standard_error(self):
        # With plug-in omega and a diffuse prior, s_p^2 is exactly the
        # squared standard error of the mean of the ?pseudo-outcomes.
        values = Rng(2).normal(321) * 2.5 + 1.0
        pv = _pv(values)
        post = closed_form_posterior(pv, DIFFUSE_PRIOR, plugin_omega(pv))
        want = float(np.var(values, ddof=1)) / len(values)
        assert abs(post.s_p_sq - want) <= 1e-12


class TestGpcSearch:
    def test_low_coverage_lowers_omega(self):
        omegas = []

        def coverage(omega):
            omegas.append(omega)
            return 0.90  # persistent deficit

        res = gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=10)
        assert not res.converged
        assert all(b < a for a, b in zip(omegas, omegas[1:]))
        assert res.omega < 1.0

    def test_high_coverage_raises_omega(self):
        omegas = []

        def coverage(omega):
            omegas.append(omega)
            return 1.0

        res = gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=10)
        assert all(b > a for a, b in zip(omegas, omegas[1:]))
        assert res.omega > 1.0

    def test_stops_within_tolerance(self):
        res = gpc_search(lambda o: 0.949, omega0=2.0, alpha=0.05, max_iter=50)
        assert res.converged and res.iterations == 1 and res.omega == 2.0
        assert res.achieved_bootstrap_coverage == 0.949

    @pytest.mark.parametrize("c_hat", [0.94, 0.96])
    def test_coverage_exactly_tol_from_nominal_converges(self, c_hat):
        # With 50 resamples coverage moves in steps of 0.02, so 0.94 and 0.96
        # are the closest it gets to 0.95; in floating point both differ from
        # 1 - 0.05 by just over 0.01.
        res = gpc_search(lambda o: c_hat, omega0=2.0, alpha=0.05, max_iter=50)
        assert res.converged and res.iterations == 1

    def test_converges_from_near_calibrated_start(self):
        # Smooth coverage curve crossing nominal close to the start, the
        # regime the plug-in initializer puts the search in.
        target_log = 0.04

        def coverage(omega):
            return 0.95 - 0.5 * (math.log(omega) - target_log)

        res = gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=50)
        assert res.converged
        assert res.iterations <= 3
        assert abs(res.achieved_bootstrap_coverage - 0.95) <= 0.0101

    def test_returns_an_evaluated_omega_with_its_own_coverage(self):
        # A step curve that jumps over nominal: no omega is within tol, and
        # the best evaluated one (coverage 0.97) is returned as evaluated.
        evaluated = []

        def coverage(omega):
            c_hat = 0.97 if omega < 2.0 else 0.92
            evaluated.append((omega, c_hat))
            return c_hat

        res = gpc_search(coverage, omega0=0.3, alpha=0.05, max_iter=8)
        assert not res.converged and res.iterations == len(evaluated) == 8
        assert (res.omega, res.achieved_bootstrap_coverage) in evaluated
        assert res.achieved_bootstrap_coverage == 0.97

    @pytest.mark.parametrize("start", [0.1, 10.0])
    def test_converges_from_tenfold_off_start_on_fixed_resample_ate_curve(self, start):
        # Diffuse prior: resample b covers the full-data mean iff
        # |theta_hat - mean_b| <= z / sqrt(omega n), so the coverage root is
        # z^2 / (n q^2) with q the 95% quantile of those distances.
        n, alpha = 400, 0.05
        values = Rng(51).normal(n) * 2.0 + 1.0
        means = values[Rng(52).integers(n, (200, n))].mean(axis=1)
        theta_hat = float(np.mean(values))
        z = normal_quantile(1.0 - alpha / 2.0)

        def coverage(omega):
            m_p, s_p_sq = normal_update(DIFFUSE_PRIOR, omega, n, means)
            return float(np.mean(np.abs(theta_hat - m_p) <= z * math.sqrt(s_p_sq)))

        q = np.sort(np.abs(theta_hat - means))[189]
        root = z**2 / (n * q**2)
        res = gpc_search(coverage, start * root, alpha, max_iter=50)
        assert res.converged
        assert abs(res.achieved_bootstrap_coverage - 0.95) <= 0.01
        assert coverage(res.omega) == res.achieved_bootstrap_coverage

    @pytest.mark.parametrize("start", [0.1, 10.0])
    def test_converges_from_tenfold_off_start_on_fixed_resample_cate_curve(self, start):
        ds = generate(default_spec("D4"), 150, Rng(53))
        values = Rng(54).normal(150) + ds.x[:, 0]
        query = ds.x[:20]
        fit = gibbs_cate.exact_gp_resampler(KernelParams(), ds.x, values, query)
        resamples = Rng(55).integers(150, (50, 150))
        z = normal_quantile(0.975)

        def coverage(omega):
            point_est, _ = fit(np.arange(150), omega)
            hits = 0
            for rows in resamples:
                means_b, vars_b = fit(rows, omega)
                hits += int(np.sum(np.abs(point_est - means_b) <= z * np.sqrt(vars_b)))
            return hits / (50 * 20)

        root = gpc_search(coverage, plugin_omega(_pv(values)), 0.05, max_iter=50)
        assert root.converged
        res = gpc_search(coverage, start * root.omega, 0.05, max_iter=50)
        assert res.converged
        assert abs(res.achieved_bootstrap_coverage - 0.95) <= 0.01

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            gpc_search(lambda o: 0.9, 1.0, alpha=0.0, max_iter=5)

    def test_max_iter_floor(self):
        with pytest.raises(DomainError, match="max_iter must be >= 1"):
            gpc_search(lambda o: 0.9, 1.0, alpha=0.05, max_iter=0)


class TestGpcOmega:
    def test_d1_converges_near_nominal(self):
        ds = generate(default_spec("D1"), 500, Rng(31))
        res = gpc_omega(ds, Strategy.DR, NormalPrior(0.0, 1.0), 0.05, 200, 50, Rng(32))
        assert isinstance(res, CalibrationResult)
        assert res.converged
        assert res.iterations <= 50
        assert abs(res.achieved_bootstrap_coverage - 0.95) <= 0.02
        assert res.omega > 0

    def test_deterministic(self):
        ds = generate(default_spec("D1"), 300, Rng(33))
        a = gpc_omega(ds, Strategy.DR, NormalPrior(), 0.05, 100, 20, Rng(34, 2))
        b = gpc_omega(ds, Strategy.DR, NormalPrior(), 0.05, 100, 20, Rng(34, 2))
        assert a == b

    def test_b_boot_floor(self):
        pv = _pv(Rng(35).normal(100))
        with pytest.raises(DomainError):
            gpc_omega_from_pseudo(pv, NormalPrior(), 0.05, 49, 10, Rng(36))

    def test_refit_nuisances_path(self):
        ds = generate(default_spec("D1"), 200, Rng(37))
        res = gpc_omega(
            ds, Strategy.DR, NormalPrior(), 0.05, 50, 3, Rng(38), refit_nuisances=True
        )
        assert res.omega > 0
        assert 0.0 <= res.achieved_bootstrap_coverage <= 1.0

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_refit_nuisances_cross_fits_each_resample_once(self, monkeypatch, max_iter):
        calls = []
        original = calibrate.cross_fit

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(calibrate, "cross_fit", counting)
        ds = generate(default_spec("D1"), 200, Rng(37))
        gpc_omega(
            ds, Strategy.DR, NormalPrior(), 0.05, 50, max_iter, Rng(38), refit_nuisances=True
        )
        assert len(calls) == 1 + 50

    def test_plugin_start_is_already_close(self):
        # The plug-in start should give near-nominal bootstrap coverage, so
        # the search finishes in a handful of iterations.
        ds = generate(default_spec("D2"), 400, Rng(39))
        res = gpc_omega(ds, Strategy.DR, NormalPrior(), 0.05, 200, 50, Rng(40))
        assert res.iterations <= 10


def _resampler(engine, ds, pv, query):
    if engine == "exact":
        return exact_gp_resampler(KernelParams(), ds.x, pv, query)
    return sparse_gp_resampler(KernelParams(), ds.x, pv, query, 10, Rng(45))


class TestGpcOmegaCate:
    def test_smoke_on_small_dataset(self):
        ds = generate(default_spec("D2"), 120, Rng(41))
        cf = cross_fit(ds, 4, NuisanceConfig(), Rng(42))
        pv = cross_fitted_pseudo(ds.a, ds.y, cf, Strategy.DR)
        for engine in ("exact", "sparse"):
            fit = _resampler(engine, ds, pv, ds.x[:20])
            res = gpc_omega_cate_from_pseudo(pv, 0.05, 50, 5, Rng(43), fit)
            assert res.omega > 0
            assert 0.0 <= res.achieved_bootstrap_coverage <= 1.0
            assert res.iterations <= 5

    @pytest.mark.parametrize("b_boot, max_iter", [(50, 1), (60, 4)])
    def test_kernel_matrices_built_once_per_calibration(self, monkeypatch, b_boot, max_iter):
        # the resampler builds its kernel matrices; the search builds none
        calls = []
        original = gibbs_cate.kernel_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gibbs_cate, "kernel_matrix", counting)
        # so tight a tolerance that the search runs all max_iter evaluations
        monkeypatch.setattr(calibrate, "COVERAGE_TOL", 1e-6)
        ds = generate(default_spec("D4"), 80, Rng(43))
        pv = _pv(Rng(44).normal(80) + ds.x[:, 0])
        for engine, builds in (("exact", 2), ("sparse", 3)):
            calls.clear()
            fit = _resampler(engine, ds, pv, ds.x[:7])
            assert len(calls) == builds
            # 60 resamples of 7 query rows give coverages in steps of 1/420,
            # and 60 * 7 * 0.95 = 399, so a coverage of exactly 0.95 is possible
            res = gpc_omega_cate_from_pseudo(pv, 0.05, b_boot, max_iter, Rng(46), fit)
            assert res.iterations == max_iter
            assert len(calls) == builds


@pytest.fixture
def integer_sizes(monkeypatch):
    """Record the `size` of every Rng.integers draw."""
    sizes = []
    original = Rng.integers

    def recording(self, n, size=None):
        sizes.append(size)
        return original(self, n, size)

    monkeypatch.setattr(Rng, "integers", recording)
    return sizes


class TestResamplesInLinearMemory:
    """gpc draws its resamples one row of n indices at a time, and its
    results equal those of the one (b_boot, n) matrix of the same stream."""

    def test_ate_matches_the_matrix_formula(self, integer_sizes):
        n, b_boot, alpha, prior = 300, 80, 0.05, NormalPrior(0.5, 2.0)
        pv = _pv(Rng(51).normal(n) * 1.7 + 0.4)
        got = gpc_omega_from_pseudo(pv, prior, alpha, b_boot, 50, Rng(52))
        assert integer_sizes == [n] * b_boot

        means = pv[Rng(52).derive(1).integers(n, (b_boot, n))].mean(axis=1)
        theta_hat = float(np.mean(pv))
        z = normal_quantile(1.0 - alpha / 2.0)

        def coverage(omega):
            m_p_b, s_p_sq = normal_update(prior, omega, n, means)
            return float(np.mean(np.abs(theta_hat - m_p_b) <= z * math.sqrt(s_p_sq)))

        assert got == gpc_search(coverage, plugin_omega(pv), alpha, 50)

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_cate_matches_the_matrix_formula(self, integer_sizes, monkeypatch, engine):
        # so tight a tolerance that every evaluation redraws the resamples
        monkeypatch.setattr(calibrate, "COVERAGE_TOL", 1e-6)
        n, b_boot, max_iter, alpha = 90, 50, 4, 0.05
        ds = generate(default_spec("D4"), n, Rng(53))
        pv = _pv(Rng(54).normal(n) + ds.x[:, 0])
        fit = _resampler(engine, ds, pv, ds.x[:9])
        got = gpc_omega_cate_from_pseudo(pv, alpha, b_boot, max_iter, Rng(55), fit)
        assert got.iterations == max_iter
        assert integer_sizes == [n] * (b_boot * max_iter)

        rows = Rng(55).derive(1).integers(n, (b_boot, n))
        z = normal_quantile(1.0 - alpha / 2.0)

        def coverage(omega):
            point_est, _ = fit(np.arange(n), omega)
            hits = 0
            for r in rows:
                means_b, vars_b = fit(r, omega)
                hits += int(np.sum(np.abs(point_est - means_b) <= z * np.sqrt(vars_b)))
            return hits / (b_boot * point_est.shape[0])

        assert got == gpc_search(coverage, plugin_omega(pv), alpha, max_iter)

    def test_refit_path_draws_one_row_at_a_time(self, integer_sizes):
        ds = generate(default_spec("D1"), 120, Rng(56))
        gpc_omega(ds, Strategy.DR, NormalPrior(), 0.05, 50, 2, Rng(57), refit_nuisances=True)
        assert integer_sizes and all(np.prod(size) <= ds.n for size in integer_sizes)

    def test_b_boot_is_checked_before_the_search(self, integer_sizes):
        def never(rows, omega):
            pytest.fail("the CATE search ran with too few resamples")

        with pytest.raises(DomainError):
            gpc_omega_cate_from_pseudo(_pv(Rng(58).normal(40)), 0.05, 49, 5, Rng(59), never)
        assert integer_sizes == []


_TWO_BY_TWO = np.array([[1.0, 2.0], [4.0, 5.0]])
_X = np.linspace(0.0, 1.0, 4)[:, None]


def _unreached_fit(rows, omega):
    raise AssertionError("the search fitted pseudo-outcomes it should have refused")


# Every consumer of a pseudo-outcome vector, called on `pseudo`.
_CONSUMERS = {
    "plugin_omega": lambda p: plugin_omega(p),
    "closed_form_posterior": lambda p: closed_form_posterior(p, NormalPrior(), 1.0),
    "gpc_omega_from_pseudo": lambda p: gpc_omega_from_pseudo(p, NormalPrior(), 0.05, 50, 3, Rng(0)),
    "gpc_omega_cate_from_pseudo": lambda p: gpc_omega_cate_from_pseudo(p, 0.05, 50, 3, Rng(0),
                                                                       _unreached_fit),
    "exact_gp_posterior": lambda p: gibbs_cate.exact_gp_posterior(_X, p, KernelParams(), 1.0),
    "svgp_fit": lambda p: gibbs_cate.svgp_fit(_X, p, KernelParams(), 1.0, 2, Rng(0)),
    "exact_gp_resampler": lambda p: exact_gp_resampler(KernelParams(), _X, p, _X),
    "sparse_gp_resampler": lambda p: sparse_gp_resampler(KernelParams(), _X, p, _X, 2, Rng(0)),
}


class TestPseudoOutcomeVector:
    """Each consumer takes its pseudo-outcomes through numerics.pseudo_vector:
    a 2-D array is refused before any of its entries is read, and a list
    reads like its array."""

    @pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
    def test_a_matrix_is_refused_naming_its_shape(self, consumer):
        with pytest.raises(DomainError, match=r"1-D array, got shape \(2, 2\)"):
            _CONSUMERS[consumer](_TWO_BY_TWO)

    @pytest.mark.parametrize("consumer", ["plugin_omega", "closed_form_posterior"])
    def test_a_list_reads_as_its_array(self, consumer):
        values = [1.0, 2.0, 4.0, 5.0]
        assert _CONSUMERS[consumer](values) == _CONSUMERS[consumer](np.array(values))
