import math

import numpy as np
import pytest
from scipy.special import expit, logit

from gbcausal.dataset import FoldAssignment
from gbcausal.dgp import default_spec, generate, true_outcome_mean, true_propensity
from gbcausal.errors import ConfigError
from gbcausal.nuisance import CrossFit, NuisanceFit, feature_matrix
from gbcausal.numerics import Rng
from gbcausal.pseudo import (
    PseudoOutcomes,
    Strategy,
    ate_loss,
    cross_fitted_pseudo,
    pseudo_values,
)


def _constant_fit(e, m1, m0, clip_eps=0.01):
    """NuisanceFit that predicts the given constants (d=2 feature map; the
    constant feature is the last entry)."""
    coef_e = np.zeros(8)
    coef_e[-1] = logit(e)
    coef_m1 = np.zeros(8)
    coef_m1[-1] = m1
    coef_m0 = np.zeros(8)
    coef_m0[-1] = m0
    return NuisanceFit(coef_e, coef_m1, coef_m0, clip_eps, 1.0, 1e-3)


class TestStrategy:
    def test_parse_aliases(self):
        assert Strategy.parse("AIPW") is Strategy.DR
        assert Strategy.parse("aipw") is Strategy.DR
        assert Strategy.parse("ra") is Strategy.RA
        assert Strategy.parse("IPW") is Strategy.IPW
        assert Strategy.parse("DR") is Strategy.DR

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            Strategy.parse("XYZ")


class TestPseudoValues:
    def test_ra_difference_of_regressions(self):
        assert pseudo_values([1], [2.0], [0.5], [1.5], [0.5], Strategy.RA)[0] == 1.0

    def test_ipw_hand_value(self):
        assert pseudo_values([1], [2.0], [0.5], [0.0], [0.0], Strategy.IPW)[0] == 4.0

    def test_ipw_control_arm(self):
        # -(1-A) Y / (1-e) with A=0, Y=3, e=0.25
        assert pseudo_values([0], [3.0], [0.25], [0.0], [0.0], Strategy.IPW)[0] == -4.0

    def test_dr_hand_value(self):
        got = pseudo_values([1], [2.0], [0.5], [1.0], [0.0], Strategy.DR)[0]
        assert got == (1 / 0.5) * (2.0 - 1.0) + 1.0 - 0.0

    def test_dr_uses_observed_arm_regression(self):
        # A=0: correction uses m0, not m1
        got = pseudo_values([0], [1.0], [0.5], [5.0], [2.0], Strategy.DR)[0]
        assert got == -(1 / 0.5) * (1.0 - 2.0) + 5.0 - 2.0


class TestCrossFittedPseudo:
    def _toy_crossfit(self):
        # Two folds with different constant fits: fold 0 -> (e=.5, m1=2, m0=1),
        # fold 1 -> (e=.25, m1=3, m0=0).
        fold_of = np.array([0, 1, 0, 1])
        folds = FoldAssignment(k=2, fold_of=fold_of)
        fits = [_constant_fit(0.5, 2.0, 1.0), _constant_fit(0.25, 3.0, 0.0)]
        return CrossFit.from_fits(folds, fits, feature_matrix(self._toy_dataset().x))

    def _toy_dataset(self):
        from gbcausal.dataset import Dataset

        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [0.2, 0.1]])
        a = np.array([1, 1, 0, 0])
        y = np.array([2.0, 2.0, 1.0, 1.0])
        return Dataset(x=x, a=a, y=y)

    def test_values_use_assigned_fold_fit(self):
        ds = self._toy_dataset()
        cf = self._toy_crossfit()
        got = cross_fitted_pseudo(ds, cf, Strategy.DR).values
        want = np.array(
            [
                (1 / 0.5) * (2.0 - 2.0) + 2.0 - 1.0,  # fold 0 fit
                (1 / 0.25) * (2.0 - 3.0) + 3.0 - 0.0,  # fold 1 fit
                -(1 / 0.5) * (1.0 - 1.0) + 2.0 - 1.0,
                -(1 / 0.75) * (1.0 - 0.0) + 3.0 - 0.0,
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_fold_relabeling_permutes_consistently(self):
        ds = self._toy_dataset()
        cf = self._toy_crossfit()
        swapped = CrossFit.from_fits(
            FoldAssignment(k=2, fold_of=1 - cf.folds.fold_of),
            [cf.per_fold[1], cf.per_fold[0]],
            feature_matrix(ds.x),
        )
        np.testing.assert_array_equal(
            cross_fitted_pseudo(ds, cf, Strategy.DR).values,
            cross_fitted_pseudo(ds, swapped, Strategy.DR).values,
        )

    def test_identical_heldout_predictions_give_identical_values(self):
        ds = self._toy_dataset()
        fits = [_constant_fit(0.5, 2.0, 1.0)] * 2
        folds = FoldAssignment(k=2, fold_of=np.array([0, 1, 0, 1]))
        cf = CrossFit.from_fits(folds, fits, feature_matrix(ds.x))
        vals = cross_fitted_pseudo(ds, cf, Strategy.DR).values
        # same (a, y) profile and same fit => same pseudo-outcome
        assert vals[0] == vals[1] and vals[2] == vals[3]

    def test_flags(self):
        ds = self._toy_dataset()
        pv = cross_fitted_pseudo(ds, self._toy_crossfit(), Strategy.IPW)
        assert pv.cross_fitted and pv.strategy is Strategy.IPW and pv.n == 4


class TestOracleNuisanceProperties:
    def test_dr_unbiased_with_true_nuisances_d2(self):
        spec = default_spec("D2")
        ds = generate(spec, 20_000, Rng(44))
        e = true_propensity(spec, ds.x)
        m1 = true_outcome_mean(spec, ds.x, 1)
        m0 = true_outcome_mean(spec, ds.x, 0)
        vals = pseudo_values(ds.a, ds.y, e, m1, m0, Strategy.DR)
        se = float(np.std(vals, ddof=1)) / math.sqrt(ds.n)
        assert abs(float(np.mean(vals)) - ds.truth.ate) <= 3.0 * se

    @pytest.mark.parametrize("corrupt", ["outcome", "propensity"])
    def test_double_robustness(self, corrupt):
        spec = default_spec("D1")
        ds = generate(spec, 50_000, Rng(45))
        e = true_propensity(spec, ds.x)
        m1 = true_outcome_mean(spec, ds.x, 1)
        m0 = true_outcome_mean(spec, ds.x, 0)
        if corrupt == "outcome":
            m1 = 2.0 * np.sin(ds.x[:, 0]) - 1.0  # wrong on purpose
            m0 = ds.x[:, 1] ** 2
        else:
            e = expit(logit(e) + 1.5)
        vals = pseudo_values(ds.a, ds.y, e, m1, m0, Strategy.DR)
        se = float(np.std(vals, ddof=1)) / math.sqrt(ds.n)
        assert abs(float(np.mean(vals)) - ds.truth.ate) <= 3.0 * se

    def test_conditional_unbiasedness_binned(self):
        # E[DR pseudo | X] should track the CATE: compare binwise means.
        spec = default_spec("D2")
        ds = generate(spec, 50_000, Rng(46))
        e = true_propensity(spec, ds.x)
        m1 = true_outcome_mean(spec, ds.x, 1)
        m0 = true_outcome_mean(spec, ds.x, 0)
        vals = pseudo_values(ds.a, ds.y, e, m1, m0, Strategy.DR)
        cate = ds.truth.cate(ds.x)
        edges = np.quantile(ds.x[:, 0], np.linspace(0, 1, 11))
        which = np.clip(np.searchsorted(edges, ds.x[:, 0], side="right") - 1, 0, 9)
        for b in range(10):
            mask = which == b
            count = int(mask.sum())
            assert count > 100
            se = float(np.std(vals[mask], ddof=1)) / math.sqrt(count)
            assert abs(float(np.mean(vals[mask])) - float(np.mean(cate[mask]))) <= 3.0 * se


class TestAteLoss:
    def test_zero_residuals(self):
        pv = PseudoOutcomes(np.array([2.0, 2.0]), Strategy.DR, True)
        assert ate_loss(pv, 2.0) == 0.0

    def test_hand_value(self):
        pv = PseudoOutcomes(np.array([0.0, 2.0]), Strategy.DR, True)
        assert ate_loss(pv, 1.0) == 0.5

    def test_minimized_at_mean(self):
        rng = Rng(47)
        pv = PseudoOutcomes(rng.normal(100) * 2.0 + 1.0, Strategy.DR, True)
        mean = float(np.mean(pv.values))
        at_mean = ate_loss(pv, mean)
        for delta in (1e-3, -1e-3, 0.1, -0.1):
            assert ate_loss(pv, mean + delta) > at_mean

    def test_second_derivative_is_one(self):
        pv = PseudoOutcomes(Rng(48).normal(50), Strategy.DR, True)
        h = 0.5
        second = (ate_loss(pv, 1.0 + h) - 2.0 * ate_loss(pv, 1.0) + ate_loss(pv, 1.0 - h)) / h**2
        assert abs(second - 1.0) <= 1e-9
