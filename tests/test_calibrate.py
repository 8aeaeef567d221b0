import math

import numpy as np
import pytest

from gbcausal import gibbs_cate
from gbcausal.calibrate import (
    CalibrationResult,
    gpc_omega,
    gpc_omega_cate,
    gpc_omega_from_pseudo,
    gpc_search,
    plugin_omega,
)
from gbcausal.dgp import default_spec, generate
from gbcausal.errors import DegenerateVariance, DomainError
from gbcausal.gibbs_ate import DIFFUSE_PRIOR, NormalPrior, closed_form_posterior
from gbcausal.gibbs_cate import KernelParams
from gbcausal.numerics import Rng
from gbcausal.pseudo import PseudoOutcomes, Strategy


def _pv(values):
    return PseudoOutcomes(np.asarray(values, dtype=float), Strategy.DR, True)


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

        def coverage(omega, t):
            omegas.append(omega)
            return 0.90  # persistent deficit

        res = gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=10)
        assert not res.converged
        assert all(b < a for a, b in zip(omegas, omegas[1:]))
        assert res.omega < 1.0

    def test_high_coverage_raises_omega(self):
        omegas = []

        def coverage(omega, t):
            omegas.append(omega)
            return 1.0

        res = gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=10)
        assert all(b > a for a, b in zip(omegas, omegas[1:]))
        assert res.omega > 1.0

    def test_step_sizes_decay_like_one_over_t(self):
        # |delta log omega| = |c_hat - 0.95| / t; the final evaluation is not
        # followed by an update.
        omegas = []

        def coverage(omega, t):
            omegas.append(omega)
            return 0.80

        gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=12)
        log_steps = np.abs(np.diff(np.log(omegas)))
        np.testing.assert_allclose(
            log_steps, [0.15 / t for t in range(1, 12)], rtol=1e-10
        )

    def test_stops_within_tolerance(self):
        res = gpc_search(lambda o, t: 0.949, omega0=2.0, alpha=0.05, max_iter=50)
        assert res.converged and res.iterations == 1 and res.omega == 2.0
        assert res.achieved_bootstrap_coverage == 0.949

    def test_converges_from_near_calibrated_start(self):
        # Smooth coverage curve crossing nominal close to the start, the
        # regime the plug-in initializer puts the search in.
        target_log = 0.04

        def coverage(omega, t):
            return 0.95 - 0.5 * (math.log(omega) - target_log)

        res = gpc_search(coverage, omega0=1.0, alpha=0.05, max_iter=50, tol=0.01)
        assert res.converged
        assert res.iterations <= 3
        assert abs(res.achieved_bootstrap_coverage - 0.95) <= 0.0101

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            gpc_search(lambda o, t: 0.9, 1.0, alpha=0.0, max_iter=5)


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

    def test_plugin_start_is_already_close(self):
        # The plug-in start should give near-nominal bootstrap coverage, so
        # the search finishes in a handful of iterations.
        ds = generate(default_spec("D2"), 400, Rng(39))
        res = gpc_omega(ds, Strategy.DR, NormalPrior(), 0.05, 200, 50, Rng(40))
        assert res.iterations <= 10


class TestGpcOmegaCate:
    def test_smoke_on_small_dataset(self):
        ds = generate(default_spec("D2"), 120, Rng(41))
        query = ds.x[:20]
        res = gpc_omega_cate(
            ds, Strategy.DR, 0.05, 50, 5, Rng(42), KernelParams(), query, folds=4
        )
        assert res.omega > 0
        assert 0.0 <= res.achieved_bootstrap_coverage <= 1.0
        assert res.iterations <= 5

    @pytest.mark.parametrize("b_boot, max_iter", [(50, 1), (60, 4)])
    def test_kernel_matrices_built_once_per_calibration(self, monkeypatch, b_boot, max_iter):
        calls = []
        original = gibbs_cate.kernel_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gibbs_cate, "kernel_matrix", counting)
        ds = generate(default_spec("D4"), 80, Rng(43))
        # 7 query rows: no bootstrap coverage can equal 0.95 to within 1e-6,
        # so the search runs all max_iter iterations
        res = gpc_omega_cate(
            ds, Strategy.DR, 0.05, b_boot, max_iter, Rng(44), KernelParams(), ds.x[:7],
            folds=4, tol=1e-6,
        )
        assert res.iterations == max_iter
        assert len(calls) == 2
