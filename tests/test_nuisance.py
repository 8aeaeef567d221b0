import math

import numpy as np
import pytest
from scipy.special import expit

from gbcausal.dataset import Dataset
from gbcausal.dgp import DGP_IDS, default_spec, generate, true_propensity
from gbcausal.errors import DegenerateTreatment, EmptyArm, FoldArmCollapse
from gbcausal.nuisance import (
    NuisanceConfig,
    NuisanceFit,
    cross_fit,
    feature_matrix,
    fit_nuisances,
    fit_outcome,
    fit_propensity,
)
from gbcausal.numerics import Rng


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
        w = fit_outcome(x, np.zeros(30), 1e-3)
        assert np.max(np.abs(w)) <= 1e-12

    def test_huge_penalty_shrinks_to_zero(self):
        x = Rng(2).normal((10, 2))
        y = Rng(3).normal(10) + 5.0
        w = fit_outcome(x, y, 1e12)
        assert np.max(np.abs(w)) <= 1e-4

    def test_noiseless_recovery(self):
        rng = Rng(4)
        x = rng.normal((60, 2))
        w_star = rng.normal(8)
        y = feature_matrix(x) @ w_star
        w = fit_outcome(x, y, 0.0)
        assert np.max(np.abs(w - w_star)) <= 1e-6

    def test_normal_equation_gradient_is_zero(self):
        rng = Rng(5)
        x = rng.normal((80, 2))
        y = rng.normal(80)
        lam = 1e-3
        w = fit_outcome(x, y, lam)
        phi = feature_matrix(x)
        grad = 2.0 * (phi.T @ (phi @ w - y) + lam * w)
        assert np.linalg.norm(grad) <= 1e-8

    def test_row_order_invariance(self):
        rng = Rng(6)
        x = rng.normal((50, 2))
        y = rng.normal(50)
        w = fit_outcome(x, y, 1e-3)
        perm = Rng(7).permutation(50)
        w_perm = fit_outcome(x[perm], y[perm], 1e-3)
        assert np.max(np.abs(w - w_perm)) <= 1e-10

    def test_empty_arm(self):
        with pytest.raises(EmptyArm):
            fit_outcome(np.zeros((0, 2)), np.zeros(0), 1e-3)


class TestPropensity:
    def test_independent_treatment_predicts_half(self):
        # With A independent of X the fit should sit at 0.5 up to ridge
        # noise: mean within the band and 90% of points within 0.05.
        rng = Rng(8)
        x = rng.normal((2000, 2))
        a = rng.bernoulli(np.full(2000, 0.5))
        w, _ = fit_propensity(x, a, 1.0)
        fit = NuisanceFit(w, np.zeros(8), np.zeros(8), 0.01, 1.0, 1e-3)
        e_hat = fit.predict_propensity(x)
        assert abs(float(np.mean(e_hat)) - 0.5) <= 0.05
        assert float(np.quantile(np.abs(e_hat - 0.5), 0.9)) <= 0.05

    def test_separable_data_stays_finite(self):
        rng = Rng(9)
        x = rng.normal((200, 2))
        a = (x[:, 0] > 0).astype(int)
        w, _ = fit_propensity(x, a, 1.0)
        assert np.all(np.isfinite(w))
        assert np.linalg.norm(w) < 100.0

    def test_d1_recovers_true_propensity(self):
        spec = default_spec("D1")
        ds = generate(spec, 5000, Rng(10))
        w, _ = fit_propensity(ds.x, ds.a, 1.0)
        fit = NuisanceFit(w, np.zeros(8), np.zeros(8), 0.01, 1.0, 1e-3)
        e_hat = fit.predict_propensity(ds.x)
        e_true = true_propensity(spec, ds.x)
        assert float(np.mean(np.abs(e_hat - e_true))) <= 0.05

    def test_degenerate_treatment(self):
        x = Rng(11).normal((20, 2))
        with pytest.raises(DegenerateTreatment):
            fit_propensity(x, np.ones(20), 1.0)
        with pytest.raises(DegenerateTreatment):
            fit_propensity(x, np.zeros(20), 1.0)

    def test_row_order_invariance(self):
        rng = Rng(12)
        x = rng.normal((300, 2))
        a = rng.bernoulli(np.full(300, 0.4))
        w, _ = fit_propensity(x, a, 1.0)
        perm = Rng(13).permutation(300)
        w_perm, _ = fit_propensity(x[perm], a[perm], 1.0)
        assert np.max(np.abs(w - w_perm)) <= 1e-10

    def test_row_order_invariance_with_selected_penalty(self):
        rng = Rng(12)
        x = rng.normal((300, 2))
        a = rng.bernoulli(np.full(300, 0.4))
        perm = Rng(13).permutation(300)
        w, lam = fit_propensity(x, a)
        w_perm, lam_perm = fit_propensity(x[perm], a[perm])
        assert abs(lam_perm - lam) <= 1e-10 * lam
        assert np.max(np.abs(w - w_perm)) <= 1e-10

    def test_independent_treatment_with_selected_penalty(self):
        rng = Rng(8)
        x = rng.normal((2000, 2))
        a = rng.bernoulli(np.full(2000, 0.5))
        w, _ = fit_propensity(x, a)
        fit = NuisanceFit(w, np.zeros(8), np.zeros(8), 0.01, 0.0, 1e-3)
        e_hat = fit.predict_propensity(x)
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

        _, lam = fit_propensity(ds.x, ds.a)
        assert 1e-4 <= lam <= 1e6
        best_on_grid = max(log_evidence(v) for v in np.logspace(-4, 6, 201))
        assert log_evidence(lam) >= best_on_grid - 1e-9

    def test_constant_feature_column_is_dropped(self):
        # x2 == 0 makes x2, x2^2, sin(x2) and x1*x2 constant; their
        # coefficients stay exactly zero.
        rng = Rng(26)
        x = np.column_stack([rng.normal(300), np.zeros(300)])
        a = rng.bernoulli(expit(x[:, 0]))
        w, _ = fit_propensity(x, a)
        assert np.all(np.isfinite(w))
        np.testing.assert_array_equal(w[[1, 3, 5, 6]], 0.0)

    def test_all_features_constant_gives_intercept_only_fit(self):
        x = np.full((40, 2), 0.7)
        a = np.array([1, 0, 0, 0] * 10)
        w, lam = fit_propensity(x, a)
        assert lam == 1e6
        np.testing.assert_array_equal(w[:-1], 0.0)
        assert abs(w[-1] - math.log(0.25 / 0.75)) <= 1e-12


class TestPenaltyRecord:
    def test_each_fold_records_its_selected_penalty(self):
        ds = generate(default_spec("D1"), 400, Rng(27))
        cf = cross_fit(ds, 4, NuisanceConfig(), Rng(28))
        for k, fit in enumerate(cf.per_fold):
            idx = cf.folds.complement(k)
            coef, lam = fit_propensity(ds.x[idx], ds.a[idx])
            assert lam == fit.lambda_prop
            np.testing.assert_array_equal(fit.propensity_coef, coef)

    def test_selected_and_explicit_penalty_reach_one_optimum(self):
        # The selected penalty warm-starts the slopes; the optimum is the
        # same as when that penalty is passed in and the fit starts at zero.
        ds = generate(default_spec("D5"), 400, Rng(29))
        coef, lam = fit_propensity(ds.x, ds.a)
        coef_explicit, _ = fit_propensity(ds.x, ds.a, lam)
        np.testing.assert_allclose(coef, coef_explicit, rtol=0, atol=1e-8)

    def test_explicit_penalty_is_kept(self):
        ds = generate(default_spec("D1"), 400, Rng(27))
        fit = fit_nuisances(ds.x, ds.a, ds.y, NuisanceConfig(lambda_prop=2.5))
        assert fit.lambda_prop == 2.5
        np.testing.assert_array_equal(fit.propensity_coef, fit_propensity(ds.x, ds.a, 2.5)[0])


class TestClipping:
    def test_clip_binds_exactly_on_extreme_data(self):
        spec = default_spec("D6")
        ds = generate(spec, 2000, Rng(14))
        fit = fit_nuisances(ds.x, ds.a, ds.y, NuisanceConfig())
        e_hat = fit.predict_propensity(ds.x)
        assert e_hat.max() == 0.99
        assert e_hat.min() >= 0.01

    def test_heldout_predictions_clipped(self):
        ds = generate(default_spec("D1"), 1000, Rng(15))
        cf = cross_fit(ds, 5, NuisanceConfig(), Rng(16))
        e, _, _ = cf.held_out_predictions(ds)
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
        e, m1, m0 = cf.held_out_predictions(ds)
        for k in range(3):
            idx = cf.folds.indices(k)
            fit = cf.per_fold[k]
            np.testing.assert_array_equal(e[idx], fit.predict_propensity(ds.x[idx]))
            np.testing.assert_array_equal(m1[idx], fit.predict_outcome(ds.x[idx], 1))
            np.testing.assert_array_equal(m0[idx], fit.predict_outcome(ds.x[idx], 0))
