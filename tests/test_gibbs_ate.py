import math

import numpy as np
import pytest

from gbcausal.errors import DomainError
from gbcausal.gibbs_ate import (
    DIFFUSE_PRIOR,
    GaussianPosterior,
    NormalPrior,
    closed_form_posterior,
    credible_interval,
    vi_posterior,
)
from gbcausal.numerics import Rng
from gbcausal.pseudo import PseudoOutcomes, Strategy


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
            NormalPrior(0.0, math.nan)
        with pytest.raises(DomainError):
            GaussianPosterior(0.0, -1.0)

    @pytest.mark.parametrize("m0", [math.nan, math.inf, -math.inf])
    def test_prior_mean_must_be_finite(self, m0):
        with pytest.raises(DomainError, match="prior mean"):
            NormalPrior(m0, 1.0)


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
    def test_matches_closed_form_hand_case(self):
        pv = _pv([1.4, 2.6, 1.8, 2.2])  # mean 2.0
        prior = NormalPrior(0.0, 1.0)
        post_cf = closed_form_posterior(pv, prior, 1.0)
        post_vi = vi_posterior(pv, prior, 1.0)
        assert abs(post_vi.m_p - post_cf.m_p) <= 0.05 * post_cf.sd
        assert 0.9 <= post_vi.sd / post_cf.sd <= 1.2

    def test_tight_prior_dominates(self):
        pv = _pv([5.0, 6.0, 4.0, 5.0])
        prior = NormalPrior(1.0, 1e-8)
        post = vi_posterior(pv, prior, 1e-6)
        assert abs(post.m_p - 1.0) <= 1e-3
        assert 0.8 <= post.sd / math.sqrt(1e-8) <= 1.2

    def test_doubling_omega_halves_variance(self):
        pv = _pv(Rng(5).normal(300) * 2.0 + 1.0)
        post1 = vi_posterior(pv, DIFFUSE_PRIOR, 0.25)
        post2 = vi_posterior(pv, DIFFUSE_PRIOR, 0.5)
        ratio = post1.s_p_sq / post2.s_p_sq
        assert abs(ratio - 2.0) <= 0.3  # within 15%

    def test_agreement_on_random_instances(self):
        rng = Rng(8)
        for i in range(20):
            n = int(50 + rng.uniform() * 1950)
            scale = 0.5 + 2.5 * float(rng.uniform())
            values = rng.normal(n) * scale + 3.0 * float(rng.normal())
            pv = _pv(values)
            omega = 1.0 / float(np.var(values, ddof=1))
            prior = NormalPrior(0.0, 1.0)
            post_cf = closed_form_posterior(pv, prior, omega)
            post_vi = vi_posterior(pv, prior, omega)
            assert abs(post_vi.m_p - post_cf.m_p) <= 0.05 * post_cf.sd
            assert 0.9 <= post_vi.sd / post_cf.sd <= 1.2

    @pytest.mark.parametrize("prior", [NormalPrior(0.0, 1.0), DIFFUSE_PRIOR,
                                       NormalPrior(1.0, 1e-8)])
    def test_is_stationary_point_of_objective(self, prior):
        # Exact gradients of J = omega n E_q[L_n] + KL(q || pi) in
        # (mu, log sigma): omega n (mu - ybar) + prec0 (mu - m0) and
        # omega n sigma^2 - 1 + prec0 sigma^2. The mean gradient is scaled
        # by s_p, which makes it the gap to the optimum in posterior sds.
        rng = Rng(11)
        for i in range(50):
            n = int(2 + rng.uniform() * 2000)
            values = rng.normal(n) * (0.1 + 3.0 * float(rng.uniform())) + 3.0 * float(rng.normal())
            omega = math.exp(4.0 * float(rng.uniform()) - 2.0)
            post = vi_posterior(_pv(values), prior, omega)
            mu, sigma_sq = post.m_p, post.s_p_sq
            wn, prec0, ybar = omega * n, prior.precision, float(np.mean(values))
            g_mu = wn * (mu - ybar) + prec0 * (mu - prior.m0)
            g_log_sigma = wn * sigma_sq - 1.0 + prec0 * sigma_sq
            assert abs(g_mu) * post.sd <= 1e-10
            assert abs(g_log_sigma) <= 1e-10

    def test_deterministic_given_rng(self):
        pv = _pv(Rng(9).normal(100))
        a = vi_posterior(pv, NormalPrior(), 1.0)
        b = vi_posterior(pv, NormalPrior(), 1.0)
        assert a.m_p == b.m_p and a.s_p_sq == b.s_p_sq

    def test_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            vi_posterior(_pv([1.0, 2.0]), NormalPrior(), -1.0)
