import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from gbcausal import nuisance, numerics
from gbcausal.dataset import Dataset, make_folds
from gbcausal.dgp import DGP_IDS, default_spec, generate, true_propensity
from gbcausal.errors import DegenerateTreatment, DomainError, EmptyArm, FoldArmCollapse
from gbcausal.nuisance import (
    NuisanceConfig,
    NuisanceFit,
    cross_fit,
    feature_matrix,
    fit_nuisances,
    fit_outcome,
    fit_propensity,
)
from gbcausal.numerics import Rng, cholesky_solve, logit


class TestFeatureMap:
    def test_univariate_uses_cube(self):
        np.testing.assert_allclose(
            feature_matrix(np.atleast_2d([2.0]))[0],
            [2.0, 4.0, math.sin(2.0), 8.0, 1.0],
            atol=1e-15,
        )

    def test_bivariate_zeros(self):
        np.testing.assert_allclose(
            feature_matrix(np.atleast_2d([0.0, 0.0]))[0], [0, 0, 0, 0, 0, 0, 0, 1], atol=0
        )

    def test_bivariate_hand_values(self):
        np.testing.assert_allclose(
            feature_matrix(np.atleast_2d([1.0, 2.0]))[0],
            [1.0, 2.0, 1.0, 4.0, math.sin(1.0), math.sin(2.0), 2.0, 1.0],
            atol=1e-15,
        )

    @pytest.mark.parametrize("d", [1, 2, 5, 50])
    def test_output_dimension(self, d):
        x = Rng(0, d).normal((7, d))
        assert feature_matrix(x).shape == (7, 3 * d + 2)


class TestOutcomeRidge:
    def test_zero_targets_give_zero_coefficients(self):
        x = Rng(1).normal((30, 2))
        w = fit_outcome(feature_matrix(x), np.zeros(30), 1e-3)
        assert np.max(np.abs(w)) <= 1e-12

    def test_huge_penalty_shrinks_to_zero(self):
        x = Rng(2).normal((10, 2))
        y = Rng(3).normal(10) + 5.0
        w = fit_outcome(feature_matrix(x), y, 1e12)
        assert np.max(np.abs(w)) <= 1e-4

    def test_noiseless_recovery(self):
        rng = Rng(4)
        x = rng.normal((60, 2))
        w_star = rng.normal(8)
        y = feature_matrix(x) @ w_star
        w = fit_outcome(feature_matrix(x), y, 0.0)
        assert np.max(np.abs(w - w_star)) <= 1e-6

    def test_normal_equation_gradient_is_zero(self):
        rng = Rng(5)
        x = rng.normal((80, 2))
        y = rng.normal(80)
        lam = 1e-3
        w = fit_outcome(feature_matrix(x), y, lam)
        phi = feature_matrix(x)
        grad = 2.0 * (phi.T @ (phi @ w - y) + lam * w)
        assert np.linalg.norm(grad) <= 1e-8

    def test_row_order_invariance(self):
        rng = Rng(6)
        x = rng.normal((50, 2))
        y = rng.normal(50)
        w = fit_outcome(feature_matrix(x), y, 1e-3)
        perm = Rng(7).permutation(50)
        w_perm = fit_outcome(feature_matrix(x[perm]), y[perm], 1e-3)
        assert np.max(np.abs(w - w_perm)) <= 1e-10

    def test_empty_arm(self):
        with pytest.raises(EmptyArm):
            fit_outcome(feature_matrix(np.zeros((0, 2))), np.zeros(0), 1e-3)


class TestPropensity:
    def test_independent_treatment_predicts_half(self):
        # With A independent of X the fit should sit at 0.5 up to ridge
        # noise: mean within the band and 90% of points within 0.05.
        rng = Rng(8)
        x = rng.normal((2000, 2))
        a = rng.bernoulli(np.full(2000, 0.5))
        w, _ = fit_propensity(feature_matrix(x), a, 1.0)
        fit = NuisanceFit(w, np.zeros(8), np.zeros(8), 0.01, 1.0, 1e-3)
        e_hat = fit.predict_propensity(feature_matrix(x))
        assert abs(float(np.mean(e_hat)) - 0.5) <= 0.05
        assert float(np.quantile(np.abs(e_hat - 0.5), 0.9)) <= 0.05

    def test_separable_data_stays_finite(self):
        rng = Rng(9)
        x = rng.normal((200, 2))
        a = (x[:, 0] > 0).astype(int)
        w, _ = fit_propensity(feature_matrix(x), a, 1.0)
        assert np.all(np.isfinite(w))
        assert np.linalg.norm(w) < 100.0

    def test_d1_recovers_true_propensity(self):
        spec = default_spec("D1")
        ds = generate(spec, 5000, Rng(10))
        w, _ = fit_propensity(feature_matrix(ds.x), ds.a, 1.0)
        fit = NuisanceFit(w, np.zeros(8), np.zeros(8), 0.01, 1.0, 1e-3)
        e_hat = fit.predict_propensity(feature_matrix(ds.x))
        e_true = true_propensity(spec, ds.x)
        assert float(np.mean(np.abs(e_hat - e_true))) <= 0.05

    def test_degenerate_treatment(self):
        x = Rng(11).normal((20, 2))
        with pytest.raises(DegenerateTreatment):
            fit_propensity(feature_matrix(x), np.ones(20), 1.0)
        with pytest.raises(DegenerateTreatment):
            fit_propensity(feature_matrix(x), np.zeros(20), 1.0)

    @pytest.mark.parametrize("arm", [0, 1])
    def test_fit_nuisances_needs_both_arms(self, arm):
        x = Rng(11).normal((20, 2))
        with pytest.raises(DegenerateTreatment, match="both treatment arms"):
            fit_nuisances(feature_matrix(x), np.full(20, arm), x[:, 0], NuisanceConfig())

    def test_row_order_invariance(self):
        rng = Rng(12)
        x = rng.normal((300, 2))
        a = rng.bernoulli(np.full(300, 0.4))
        w, _ = fit_propensity(feature_matrix(x), a, 1.0)
        perm = Rng(13).permutation(300)
        w_perm, _ = fit_propensity(feature_matrix(x[perm]), a[perm], 1.0)
        assert np.max(np.abs(w - w_perm)) <= 1e-10

    def test_row_order_invariance_with_selected_penalty(self):
        rng = Rng(12)
        x = rng.normal((300, 2))
        a = rng.bernoulli(np.full(300, 0.4))
        perm = Rng(13).permutation(300)
        w, lam = fit_propensity(feature_matrix(x), a)
        w_perm, lam_perm = fit_propensity(feature_matrix(x[perm]), a[perm])
        assert abs(lam_perm - lam) <= 1e-10 * lam
        assert np.max(np.abs(w - w_perm)) <= 1e-10

    def test_independent_treatment_with_selected_penalty(self):
        rng = Rng(8)
        x = rng.normal((2000, 2))
        a = rng.bernoulli(np.full(2000, 0.5))
        w, _ = fit_propensity(feature_matrix(x), a)
        fit = NuisanceFit(w, np.zeros(8), np.zeros(8), 0.01, 0.0, 1e-3)
        e_hat = fit.predict_propensity(feature_matrix(x))
        assert float(np.quantile(np.abs(e_hat - 0.5), 0.9)) <= 0.05

    @pytest.mark.parametrize("dgp_id", DGP_IDS)
    def test_unpenalised_intercept_score_equation(self, dgp_id):
        # The intercept is unpenalised, so at the optimum the fitted
        # propensities average to the treated fraction of the training rows.
        ds = generate(default_spec(dgp_id), 500, Rng(23))
        cf = cross_fit(ds, 5, NuisanceConfig(), Rng(24))
        for k, fit in enumerate(cf.per_fold):
            idx = cf.folds.complement(k)
            raw = expit(feature_matrix(ds.x[idx]) @ fit.propensity_coef)
            assert abs(float(raw.mean()) - float(ds.a[idx].mean())) <= 1e-10

    def test_selected_penalty_maximises_laplace_evidence(self):
        # Gaussian approximation at the intercept-only fit, slopes
        # standardised by the rows' own statistics, intercept profiled out.
        ds = generate(default_spec("D3"), 400, Rng(25))
        slopes = feature_matrix(ds.x)[:, :-1]
        z = (slopes - slopes.mean(axis=0)) / slopes.std(axis=0)
        a = ds.a.astype(float)
        a_bar = a.mean()
        hess = a_bar * (1.0 - a_bar) * (z.T @ z)
        grad = z.T @ (a - a_bar)

        def log_evidence(lam):
            mat = hess + lam * np.eye(hess.shape[0])
            return 0.5 * (grad @ np.linalg.solve(mat, grad) + hess.shape[0] * math.log(lam)
                          - np.linalg.slogdet(mat)[1])

        _, lam = fit_propensity(feature_matrix(ds.x), ds.a)
        assert 1e-4 <= lam <= 1e6
        best_on_grid = max(log_evidence(v) for v in np.logspace(-4, 6, 201))
        assert log_evidence(lam) >= best_on_grid - 1e-9

    def test_constant_feature_column_is_dropped(self):
        # x2 == 0 makes x2, x2^2, sin(x2) and x1*x2 constant; their
        # coefficients stay exactly zero.
        rng = Rng(26)
        x = np.column_stack([rng.normal(300), np.zeros(300)])
        a = rng.bernoulli(expit(x[:, 0]))
        w, _ = fit_propensity(feature_matrix(x), a)
        assert np.all(np.isfinite(w))
        np.testing.assert_array_equal(w[[1, 3, 5, 6]], 0.0)

    def test_all_features_constant_gives_intercept_only_fit(self):
        x = np.full((40, 2), 0.7)
        a = np.array([1, 0, 0, 0] * 10)
        w, lam = fit_propensity(feature_matrix(x), a)
        assert lam == 1e6
        np.testing.assert_array_equal(w[:-1], 0.0)
        assert abs(w[-1] - math.log(0.25 / 0.75)) <= 1e-12


def _unblocked_propensity(phi, a, lam=None, max_iter=100, tol=1e-8):
    """Reference: fit_propensity with its sums over all rows at once, as it
    was before the IRLS was blocked."""
    def loglik(design, w, penalty):
        z = design @ w
        return float(a @ z - np.logaddexp(0.0, z).sum() - 0.5 * (penalty * w) @ w)

    a = np.asarray(a, dtype=float).reshape(-1)
    design, keep, mean, scale = nuisance._standardised_design(phi)
    w = np.zeros(design.shape[1])
    w[-1] = logit(a.mean())
    if lam is None:
        lam, w[:-1] = nuisance._evidence_penalty(design[:, :-1], a)
    penalty = np.full(design.shape[1], float(lam))
    penalty[-1] = 0.0
    ll = loglik(design, w, penalty)
    for _ in range(max_iter):
        p = numerics.expit(design @ w)
        grad = design.T @ (a - p) - penalty * w
        wgt = np.maximum(p * (1.0 - p), 1e-10)
        s = design * np.sqrt(wgt)[:, None]
        hess = s.T @ s + np.diag(penalty)
        delta = cholesky_solve(hess, grad)
        if grad @ delta <= tol:
            w = w + delta
            break
        step = 1.0
        while step >= 1e-8:
            w_new = w + step * delta
            ll_new = loglik(design, w_new, penalty)
            if ll_new >= ll:
                w, ll = w_new, ll_new
                break
            step *= 0.5
        else:
            break
    slope = w[:-1] / scale
    coef = np.zeros(keep.size + 1)
    coef[:-1][keep] = slope
    coef[-1] = w[-1] - slope @ mean
    return coef, float(lam)


class TestBlockedIrls:
    @staticmethod
    def _problem(n):
        x = Rng(90, n).normal((n, 3))
        a = Rng(91, n).bernoulli(expit(0.8 * x[:, 0] - 0.5 * x[:, 1] * x[:, 2]))
        return feature_matrix(x), a

    @pytest.mark.parametrize("n", [800, nuisance._IRLS_BLOCK])
    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_one_block_is_the_unblocked_fit(self, n, lam):
        phi, a = self._problem(n)
        coef, used = fit_propensity(phi.copy(), a, lam)
        want, want_lam = _unblocked_propensity(phi.copy(), a, lam)
        assert coef.tobytes() == want.tobytes()
        assert used == want_lam

    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_several_blocks_match_the_unblocked_fit(self, lam):
        phi, a = self._problem(20_000)
        coef, used = fit_propensity(phi.copy(), a, lam)
        want, want_lam = _unblocked_propensity(phi.copy(), a, lam)
        assert used == want_lam
        assert np.max(np.abs(coef - want)) <= 1e-12 * np.max(np.abs(want))


class TestEvidencePenaltyBlocks:
    """_evidence_penalty sums Z^T (a - a-bar) a row block at a time; with
    one block of every row it is the unblocked sum it replaced."""

    @staticmethod
    def _problem(n):
        x = Rng(94, n).normal((n, 3))
        a = Rng(95, n).bernoulli(expit(0.8 * x[:, 0] - 0.5 * x[:, 1] * x[:, 2]))
        design = nuisance._standardised_design(feature_matrix(x))[0]
        return design[:, :-1], a

    @staticmethod
    def _unblocked(monkeypatch, z, a):
        monkeypatch.setattr(nuisance, "_IRLS_BLOCK", 10**9)
        try:
            return nuisance._evidence_penalty(z, a)
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [800, nuisance._IRLS_BLOCK])
    def test_one_block_is_the_unblocked_sum(self, monkeypatch, n):
        z, a = self._problem(n)
        lam, slopes = nuisance._evidence_penalty(z, a)
        want_lam, want_slopes = self._unblocked(monkeypatch, z, a)
        assert lam == want_lam
        assert slopes.tobytes() == want_slopes.tobytes()

    def test_several_blocks_within_1e_12(self, monkeypatch):
        z, a = self._problem(20_000)
        lam, slopes = nuisance._evidence_penalty(z, a)
        want_lam, want_slopes = self._unblocked(monkeypatch, z, a)
        assert abs(lam - want_lam) <= 1e-12 * want_lam
        assert np.max(np.abs(slopes - want_slopes)) <= 1e-12 * np.max(np.abs(want_slopes))


def _two_pass_propensity(phi, a, lam=None, max_iter=100, tol=1e-8, passes=None):
    """Reference: fit_propensity as it was with separate passes over the
    rows, one for the gradient and Hessian at each accepted point and one
    for the log-likelihood of each candidate. Appends "ll" to ``passes`` for
    every log-likelihood pass and "halve" for every rejected candidate."""
    def loglik(design, w, penalty):
        passes.append("ll")
        ll = 0.0
        for rows in nuisance._row_blocks(design.shape[0]):
            z = design[rows] @ w
            ll = ll + (a[rows] @ z - np.logaddexp(0.0, z).sum())
        return float(ll - 0.5 * (penalty * w) @ w)

    def score_and_hessian(design, w):
        grad = hess = 0.0
        for rows in nuisance._row_blocks(design.shape[0]):
            block = design[rows]
            p = numerics.expit(block @ w)
            wgt = np.maximum(p * (1.0 - p), 1e-10)
            grad = grad + block.T @ (a[rows] - p)
            s = block * np.sqrt(wgt)[:, None]
            hess = hess + s.T @ s
        return grad, hess

    passes = [] if passes is None else passes
    a = np.asarray(a, dtype=float).reshape(-1)
    design, keep, mean, scale = nuisance._standardised_design(phi)
    w = np.zeros(design.shape[1])
    w[-1] = logit(a.mean())
    if lam is None:
        lam, w[:-1] = nuisance._evidence_penalty(design[:, :-1], a)
    penalty = np.full(design.shape[1], float(lam))
    penalty[-1] = 0.0
    ll = loglik(design, w, penalty)
    for _ in range(max_iter):
        grad, hess = score_and_hessian(design, w)
        grad = grad - penalty * w
        hess = hess + np.diag(penalty)
        delta = cholesky_solve(hess, grad)
        if grad @ delta <= tol:
            w = w + delta
            break
        step = 1.0
        while step >= 1e-8:
            w_new = w + step * delta
            ll_new = loglik(design, w_new, penalty)
            if ll_new >= ll:
                w, ll = w_new, ll_new
                break
            passes.append("halve")
            step *= 0.5
        else:
            break
    slope = w[:-1] / scale
    coef = np.zeros(keep.size + 1)
    coef[:-1][keep] = slope
    coef[-1] = w[-1] - slope @ mean
    return coef, float(lam)


def _separable_problem():
    x = Rng(13).normal((200, 2))
    return feature_matrix(x), (x[:, 0] > 0).astype(int)


class TestOnePassNewton:
    """Each Newton candidate is evaluated in one pass over the rows, and the
    fit is bit-identical to the two-pass loop it replaced."""

    @staticmethod
    def _assert_two_pass_fit(phi, a, lam=None, **kwargs):
        coef, used = fit_propensity(phi.copy(), a, lam, **kwargs)
        want, want_lam = _two_pass_propensity(phi.copy(), a, lam, **kwargs)
        assert coef.tobytes() == want.tobytes()
        assert used == want_lam

    @pytest.mark.parametrize("lam", [1e-4, 0.0])
    def test_separable_data_with_step_halving(self, lam):
        phi, a = _separable_problem()
        passes = []
        _two_pass_propensity(phi.copy(), a, lam, passes=passes)
        assert "halve" in passes
        self._assert_two_pass_fit(phi, a, lam)

    def test_d6_folds(self):
        ds = generate(default_spec("D6"), 1000, Rng(5))
        phi = feature_matrix(ds.x)
        folds = make_folds(ds.n, 5, Rng(6))
        for fold in range(5):
            idx = folds.complement(fold)
            self._assert_two_pass_fit(phi[idx], ds.a[idx])

    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_three_row_blocks(self, lam):
        n = 20_000
        assert 2 * nuisance._IRLS_BLOCK < n <= 3 * nuisance._IRLS_BLOCK
        x = Rng(90, n).normal((n, 3))
        a = Rng(91, n).bernoulli(expit(0.8 * x[:, 0] - 0.5 * x[:, 1] * x[:, 2]))
        self._assert_two_pass_fit(feature_matrix(x), a, lam)

    @pytest.mark.parametrize("lam", [None, 1e-4])
    def test_single_step(self, lam):
        phi, a = _separable_problem()
        self._assert_two_pass_fit(phi, a, lam, max_iter=1)

    @pytest.mark.parametrize("lam", [None, 1e-4, 0.0])
    def test_one_pass_at_the_start_and_per_candidate(self, monkeypatch, lam):
        phi, a = _separable_problem()
        calls = []
        original = nuisance._objective

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(nuisance, "_objective", counting)
        fit_propensity(phi.copy(), a, lam)
        passes = []
        _two_pass_propensity(phi.copy(), a, lam, passes=passes)
        # the reference's log-likelihood passes: one at the start, one per candidate
        assert len(calls) == passes.count("ll")


def _logaddexp_objective(design, a, w, penalty):
    """Reference: _objective with log(1 + e^z) as np.logaddexp(0, z) and the
    Hessian's weighted rows as the broadcast design * sqrt(wgt)[:, None]."""
    ll = grad = hess = 0.0
    for rows in nuisance._row_blocks(design.shape[0]):
        block = design[rows]
        z = block @ w
        ll = ll + (a[rows] @ z - np.logaddexp(0.0, z).sum())
        p = numerics.expit(z)
        wgt = np.maximum(p * (1.0 - p), 1e-10)
        grad = grad + block.T @ (a[rows] - p)
        s = block * np.sqrt(wgt)[:, None]
        hess = hess + s.T @ s
    return float(ll - 0.5 * (penalty * w) @ w), grad - penalty * w, hess + np.diag(penalty)


class TestObjective:
    """_objective's log(1 + e^z) as max(z, 0) + log1p(e^-|z|) and its einsum
    weighting against the logaddexp and broadcast expressions they replaced."""

    TARGETS = (0.0, 1.0, -1.0, 37.0, -37.0, 709.0, -709.0, 1e4, -1e4)

    @staticmethod
    def _problem(n, p, targets=TARGETS):
        """Standard normal rows, the first and the last len(targets) of them
        replaced by rows that put z = design @ w at targets (0 by a zero
        row; the others to rounding)."""
        design = Rng(96, n).normal((n, p))
        w = Rng(97, p).normal(p) / np.sqrt(p)
        a = Rng(98, n).bernoulli(np.full(n, 0.5)).astype(float)
        k = len(targets)
        design[:k] = np.outer(targets, w / (w @ w))
        design[n - k:] = design[:k]
        assert np.allclose(design[:k] @ w, targets, rtol=1e-12, atol=0.0)
        penalty = np.full(p, 0.3)
        penalty[-1] = 0.0
        return design, a, w, penalty

    @staticmethod
    def _assert_log_likelihood_within_1e_12(design, a, w, penalty):
        ll = nuisance._objective(design, a, w, penalty)[0]
        want = _logaddexp_objective(design, a, w, penalty)[0]
        assert abs(ll - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("target", TARGETS)
    def test_one_row_log_likelihood(self, target):
        self._assert_log_likelihood_within_1e_12(*self._problem(1, 3, [target]))

    @pytest.mark.parametrize("n", [nuisance._IRLS_BLOCK, 20_000])
    def test_log_likelihood_over_row_blocks(self, n):
        self._assert_log_likelihood_within_1e_12(*self._problem(n, 3))

    @pytest.mark.parametrize("n", [800, 20_000])
    @pytest.mark.parametrize("p", [2, 8, 17, 152])
    def test_gradient_and_hessian_bit_identical_to_broadcast_rows(self, n, p):
        design, a, w, penalty = self._problem(n, p)
        _, grad, hess = nuisance._objective(design, a, w, penalty)
        _, want_grad, want_hess = _logaddexp_objective(design, a, w, penalty)
        assert grad.tobytes() == want_grad.tobytes()
        assert hess.tobytes() == want_hess.tobytes()


class TestPenaltyRecord:
    def test_each_fold_records_its_selected_penalty(self):
        ds = generate(default_spec("D1"), 400, Rng(27))
        cf = cross_fit(ds, 4, NuisanceConfig(), Rng(28))
        for k, fit in enumerate(cf.per_fold):
            idx = cf.folds.complement(k)
            coef, lam = fit_propensity(feature_matrix(ds.x[idx]), ds.a[idx])
            assert lam == fit.lambda_prop
            np.testing.assert_array_equal(fit.propensity_coef, coef)

    def test_selected_and_explicit_penalty_reach_one_optimum(self):
        # The selected penalty warm-starts the slopes; the optimum is the
        # same as when that penalty is passed in and the fit starts at zero.
        ds = generate(default_spec("D5"), 400, Rng(29))
        coef, lam = fit_propensity(feature_matrix(ds.x), ds.a)
        coef_explicit, _ = fit_propensity(feature_matrix(ds.x), ds.a, lam)
        np.testing.assert_allclose(coef, coef_explicit, rtol=0, atol=1e-8)

    def test_explicit_penalty_is_kept(self):
        ds = generate(default_spec("D1"), 400, Rng(27))
        fit = fit_nuisances(feature_matrix(ds.x), ds.a, ds.y, NuisanceConfig(lambda_prop=2.5))
        assert fit.lambda_prop == 2.5
        np.testing.assert_array_equal(
            fit.propensity_coef, fit_propensity(feature_matrix(ds.x), ds.a, 2.5)[0]
        )


class TestNuisanceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(lambda_prop=-1.0), dict(lambda_prop=math.nan), dict(lambda_prop=math.inf),
         dict(lambda_out=-1e-9), dict(lambda_out=math.nan), dict(lambda_out=math.inf),
         dict(clip_eps=math.nan)],
    )
    def test_rejects_out_of_domain_settings(self, kwargs):
        with pytest.raises(DomainError):
            NuisanceConfig(**kwargs)

    def test_zero_penalties_are_valid(self):
        NuisanceConfig(lambda_prop=0.0, lambda_out=0.0)


class TestClipping:
    def test_clip_binds_exactly_on_extreme_data(self):
        spec = default_spec("D6")
        ds = generate(spec, 2000, Rng(14))
        fit = fit_nuisances(feature_matrix(ds.x), ds.a, ds.y, NuisanceConfig())
        e_hat = fit.predict_propensity(feature_matrix(ds.x))
        assert e_hat.max() == 0.99
        assert e_hat.min() >= 0.01

    def test_heldout_predictions_clipped(self):
        ds = generate(default_spec("D1"), 1000, Rng(15))
        cf = cross_fit(ds, 5, NuisanceConfig(), Rng(16))
        e = cf.e_hat
        assert e.min() >= 0.01 and e.max() <= 0.99


class TestCrossFit:
    def test_two_folds_on_four_points(self):
        x = np.array([[0.1], [0.2], [0.3], [0.4]])
        a = np.array([1, 0, 1, 0])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        ds = Dataset(x=x, a=a, y=y)
        cf = cross_fit(ds, 2, NuisanceConfig(), Rng(1))
        assert len(cf.per_fold) == 2
        assert np.bincount(cf.folds.fold_of).tolist() == [2, 2]

    def test_symmetric_duplicated_rows_give_identical_fold_fits(self):
        # Rows alternate two fixed (x, a, y) profiles and the fold split
        # puts one of each into every fold, so both training complements are
        # identical multisets and the fitted coefficients must coincide.
        x = np.array([[0.5, -1.0], [2.0, 0.3], [0.5, -1.0], [2.0, 0.3]])
        a = np.array([1, 0, 1, 0])
        y = np.array([1.5, -0.5, 1.5, -0.5])
        ds = Dataset(x=x, a=a, y=y)
        cf = cross_fit(ds, 2, NuisanceConfig(), Rng(1))  # split = [{0,1},{2,3}]
        f0, f1 = cf.per_fold
        np.testing.assert_allclose(f0.propensity_coef, f1.propensity_coef, atol=1e-12)
        np.testing.assert_allclose(f0.outcome_coef_treated, f1.outcome_coef_treated, atol=1e-12)
        np.testing.assert_allclose(f0.outcome_coef_control, f1.outcome_coef_control, atol=1e-12)

    def test_leakage_fold_fit_ignores_its_own_fold(self):
        ds = generate(default_spec("D1"), 200, Rng(17))
        cf = cross_fit(ds, 4, NuisanceConfig(), Rng(18))
        target_fold = 2
        idx = cf.folds.indices(target_fold)
        y_mod = ds.y.copy()
        y_mod[idx] += 10.0
        # moving the held-out rows' covariates shows the propensity's
        # standardisation uses training-fold statistics only
        x_mod = ds.x.copy()
        x_mod[idx] = 3.0 * x_mod[idx] + 5.0
        ds_mod = Dataset(x=x_mod, a=ds.a, y=y_mod)
        cf_mod = cross_fit(ds_mod, 4, NuisanceConfig(), Rng(18))
        np.testing.assert_array_equal(cf.folds.fold_of, cf_mod.folds.fold_of)
        same = cf.per_fold[target_fold]
        other = cf_mod.per_fold[target_fold]
        np.testing.assert_array_equal(same.outcome_coef_treated, other.outcome_coef_treated)
        np.testing.assert_array_equal(same.outcome_coef_control, other.outcome_coef_control)
        np.testing.assert_array_equal(same.propensity_coef, other.propensity_coef)
        # a fold whose complement overlaps the perturbed rows must change
        changed = cf.per_fold[(target_fold + 1) % 4]
        changed_mod = cf_mod.per_fold[(target_fold + 1) % 4]
        assert not np.array_equal(changed.outcome_coef_treated, changed_mod.outcome_coef_treated)
        assert not np.array_equal(changed.propensity_coef, changed_mod.propensity_coef)

    def test_fold_arm_collapse_reports_fold(self):
        x = Rng(19).normal((6, 2))
        a = np.array([1, 0, 0, 0, 0, 0])
        y = Rng(20).normal(6)
        ds = Dataset(x=x, a=a, y=y)
        with pytest.raises(FoldArmCollapse) as err:
            cross_fit(ds, 3, NuisanceConfig(), Rng(0))
        assert err.value.fold == 0

    def test_heldout_assembled_in_original_order(self):
        ds = generate(default_spec("D2"), 300, Rng(21))
        cf = cross_fit(ds, 3, NuisanceConfig(), Rng(22))
        e, m1, m0 = cf.e_hat, cf.m1_hat, cf.m0_hat
        for k in range(3):
            idx = cf.folds.indices(k)
            fit = cf.per_fold[k]
            phi = feature_matrix(ds.x[idx])
            np.testing.assert_array_equal(e[idx], fit.predict_propensity(phi))
            np.testing.assert_array_equal(m1[idx], fit.predict_outcome(phi, 1))
            np.testing.assert_array_equal(m0[idx], fit.predict_outcome(phi, 0))

    def test_holds_about_one_fold_design(self):
        # one fold's Phi of its training rows is alive at a time, and Phi of
        # every row is never built
        n, k = 100_000, 5
        x = Rng(32).normal((n, 2))
        a = Rng(33).bernoulli(expit(0.5 * x[:, 0] - 0.25 * x[:, 1]))
        ds = Dataset(x=x, a=a, y=1.0 + x[:, 0] + a + Rng(34).normal(n))
        tracemalloc.start()
        try:
            cross_fit(ds, k, NuisanceConfig(), Rng(35))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        design = (n - n // k) * (3 * ds.d + 2) * 8
        assert peak <= 2.2 * design

    def test_feature_map_is_built_once_per_cross_fit(self, monkeypatch):
        calls = []
        original = nuisance.feature_matrix

        def counting(x, idx=None):
            calls.append((x.shape[0] if idx is None else idx.size, x.shape[1]))
            return original(x, idx)

        monkeypatch.setattr(nuisance, "feature_matrix", counting)
        ds = generate(default_spec("D8"), 200, Rng(30))
        cf = cross_fit(ds, 5, NuisanceConfig(), Rng(31))
        # one build per fold of its 160 training rows, then one of every row
        assert calls == [(160, ds.d)] * 5 + [ds.x.shape]
        assert len(cf.per_fold) == 5
