import math

import numpy as np
import pytest

from gbcausal.calibrate import plugin_omega
from gbcausal.dgp import default_spec, generate
from gbcausal.errors import DomainError
from gbcausal.gibbs_ate import (
    DIFFUSE_PRIOR,
    _stratified_normals,
    GaussianPosterior,
    NormalPrior,
    closed_form_posterior,
    credible_interval,
    vi_posterior,
)
from gbcausal.nuisance import NuisanceConfig, cross_fit
from gbcausal.numerics import OptimizerConfig, Rng, ndtri
from gbcausal.pseudo import PseudoOutcomes, Strategy, cross_fitted_pseudo


def _pv(values):
    return PseudoOutcomes(np.asarray(values, dtype=float), Strategy.DR, True)


def quadrature_posterior_moments(values, prior, omega, n_points=40001):
    """Independent oracle: normalize exp{-omega n L_n(theta)} pi(theta) on a
    fine grid and integrate the first two moments."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    theta_hat = values.mean()
    spread = max(
        math.sqrt(1.0 / (omega * n)),
        0.0 if math.isinf(prior.s0_sq) else math.sqrt(prior.s0_sq),
    )
    lo = min(theta_hat, prior.m0) - 12.0 * spread
    hi = max(theta_hat, prior.m0) + 12.0 * spread
    grid = np.linspace(lo, hi, n_points)
    loss = 0.5 * np.mean((values[None, :] - grid[:, None]) ** 2, axis=1)
    log_density = -omega * n * loss
    if not math.isinf(prior.s0_sq):
        log_density = log_density - 0.5 * (grid - prior.m0) ** 2 / prior.s0_sq
    log_density -= log_density.max()
    density = np.exp(log_density)
    norm = np.trapezoid(density, grid)
    mean = np.trapezoid(grid * density, grid) / norm
    second = np.trapezoid(grid**2 * density, grid) / norm
    return mean, math.sqrt(second - mean**2)


class TestClosedForm:
    def test_hand_case(self):
        post = closed_form_posterior(_pv([2.0, 2.0, 2.0, 2.0]), NormalPrior(0.0, 1.0), 1.0)
        assert post.s_p_sq == pytest.approx(0.2, abs=1e-15)
        assert post.m_p == pytest.approx(1.6, abs=1e-15)

    def test_diffuse_prior_limits(self):
        values = [1.0, 3.0, 2.0, 2.0]
        post = closed_form_posterior(_pv(values), DIFFUSE_PRIOR, 0.5)
        assert post.m_p == np.mean(values)
        assert post.s_p_sq == 1.0 / (0.5 * 4)

    def test_no_data_limit_returns_prior(self):
        prior = NormalPrior(1.5, 2.0)
        post = closed_form_posterior(_pv([10.0]), prior, 1e-14)
        assert post.m_p == pytest.approx(prior.m0, rel=1e-9)
        assert post.s_p_sq == pytest.approx(prior.s0_sq, rel=1e-9)

    def test_mean_is_convex_combination(self):
        rng = Rng(1)
        for i in range(25):
            values = rng.normal(int(rng.uniform() * 100) + 5) * 2.0 + 1.0
            prior = NormalPrior(float(rng.normal()), 0.5 + float(rng.uniform()))
            omega = 0.1 + float(rng.uniform())
            post = closed_form_posterior(_pv(values), prior, omega)
            wn = omega * len(values)
            prec0 = 1.0 / prior.s0_sq
            want = (prec0 * prior.m0 + wn * values.mean()) / (prec0 + wn)
            assert post.m_p == pytest.approx(want, abs=1e-12)

    def test_quadrature_oracle_agreement(self):
        rng = Rng(2)
        for i in range(20):
            n = int(rng.uniform() * 150) + 10
            values = rng.normal(n) * (0.5 + float(rng.uniform()) * 2) + float(rng.normal())
            prior = NormalPrior(float(rng.normal()), 0.3 + 2.0 * float(rng.uniform()))
            omega = 0.05 + float(rng.uniform()) * 2.0
            post = closed_form_posterior(_pv(values), prior, omega)
            mean_q, sd_q = quadrature_posterior_moments(values, prior, omega)
            assert abs(post.m_p - mean_q) <= 1e-6
            assert abs(post.sd - sd_q) <= 1e-6

    def test_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            closed_form_posterior(_pv([1.0, 2.0]), DIFFUSE_PRIOR, 0.0)

    def test_prior_validation(self):
        with pytest.raises(DomainError):
            NormalPrior(0.0, 0.0)
        with pytest.raises(DomainError):
            GaussianPosterior(0.0, -1.0)


class TestCredibleInterval:
    def test_standard_normal_interval(self):
        lo, hi = credible_interval(GaussianPosterior(0.0, 1.0), 0.05)
        assert lo == pytest.approx(-1.959964, abs=5e-7)
        assert hi == pytest.approx(1.959964, abs=5e-7)

    def test_width_scales_with_sd(self):
        lo1, hi1 = credible_interval(GaussianPosterior(1.0, 4.0), 0.05)
        lo2, hi2 = credible_interval(GaussianPosterior(1.0, 1.0), 0.05)
        assert (hi1 - lo1) == pytest.approx(2.0 * (hi2 - lo2), rel=1e-12)

    def test_interval_shrinks_to_point(self):
        lo, hi = credible_interval(GaussianPosterior(3.0, 1.0), 1.0 - 1e-9)
        assert hi - lo <= 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            credible_interval(GaussianPosterior(0.0, 1.0), alpha)


class TestViPosterior:
    def test_batched_draws_equal_one_draw_per_step(self):
        # step t must see what a uniform draw of its own at step t would give
        rows = _stratified_normals(7, 1203, Rng(3, 1))
        step_rng = Rng(3, 1)
        assert rows.shape == (1203, 7)
        for row in rows:
            probs = (np.arange(7) + step_rng.uniform()) / 7
            np.testing.assert_array_equal(row, ndtri(np.maximum(probs, 1e-300)))

    def test_matches_closed_form_hand_case(self):
        pv = _pv([1.4, 2.6, 1.8, 2.2])  # mean 2.0
        prior = NormalPrior(0.0, 1.0)
        post_cf = closed_form_posterior(pv, prior, 1.0)
        post_vi = vi_posterior(pv, prior, 1.0, OptimizerConfig(), Rng(3))
        assert abs(post_vi.m_p - post_cf.m_p) <= 0.05 * post_cf.sd
        assert 0.9 <= post_vi.sd / post_cf.sd <= 1.2

    def test_tight_prior_dominates(self):
        pv = _pv([5.0, 6.0, 4.0, 5.0])
        prior = NormalPrior(1.0, 1e-8)
        post = vi_posterior(pv, prior, 1e-6, OptimizerConfig(), Rng(4))
        assert abs(post.m_p - 1.0) <= 1e-3
        assert 0.8 <= post.sd / math.sqrt(1e-8) <= 1.2

    def test_doubling_omega_halves_variance(self):
        pv = _pv(Rng(5).normal(300) * 2.0 + 1.0)
        post1 = vi_posterior(pv, DIFFUSE_PRIOR, 0.25, OptimizerConfig(), Rng(6))
        post2 = vi_posterior(pv, DIFFUSE_PRIOR, 0.5, OptimizerConfig(), Rng(7))
        ratio = post1.s_p_sq / post2.s_p_sq
        assert abs(ratio - 2.0) <= 0.3  # within 15%

    def test_agreement_on_random_instances(self):
        rng = Rng(8)
        config = OptimizerConfig()
        for i in range(20):
            n = int(50 + rng.uniform() * 1950)
            scale = 0.5 + 2.5 * float(rng.uniform())
            values = rng.normal(n) * scale + 3.0 * float(rng.normal())
            pv = _pv(values)
            omega = 1.0 / float(np.var(values, ddof=1))
            prior = NormalPrior(0.0, 1.0)
            post_cf = closed_form_posterior(pv, prior, omega)
            post_vi = vi_posterior(pv, prior, omega, config, rng.derive(i))
            assert abs(post_vi.m_p - post_cf.m_p) <= 0.05 * post_cf.sd
            assert 0.9 <= post_vi.sd / post_cf.sd <= 1.2

    @pytest.mark.parametrize("dgp_id", ["D1", "D4", "D8"])
    def test_mean_gap_is_small_and_does_not_grow_with_epochs(self, dgp_id):
        # The last iterate of constant-step Adam circles the optimum, and
        # more epochs took it farther away (gap 5e-3 at 2000 epochs, 1.7e-2
        # at 8000 on D1); the averaged iterate settles on it.
        rng = Rng(7)
        ds = generate(default_spec(dgp_id), 1000, rng.derive(0))
        pv = cross_fitted_pseudo(ds, cross_fit(ds, 5, NuisanceConfig(), rng.derive(1)), Strategy.DR)
        omega = plugin_omega(pv)
        post_cf = closed_form_posterior(pv, NormalPrior(), omega)
        gaps = []
        for epochs in (2000, 8000):
            post_vi = vi_posterior(pv, NormalPrior(), omega, OptimizerConfig(epochs=epochs),
                                   rng.derive(3))
            gaps.append(abs(post_vi.m_p - post_cf.m_p) / post_cf.sd)
        assert gaps[0] <= 1e-3
        assert gaps[1] <= gaps[0]

    def test_deterministic_given_rng(self):
        pv = _pv(Rng(9).normal(100))
        a = vi_posterior(pv, NormalPrior(), 1.0, OptimizerConfig(epochs=200), Rng(10, 4))
        b = vi_posterior(pv, NormalPrior(), 1.0, OptimizerConfig(epochs=200), Rng(10, 4))
        assert a.m_p == b.m_p and a.s_p_sq == b.s_p_sq

    def test_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            vi_posterior(_pv([1.0, 2.0]), NormalPrior(), -1.0, OptimizerConfig(), Rng(0))
