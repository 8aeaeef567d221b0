import math

import numpy as np
import pytest

from gbcausal import dgp
from gbcausal.dgp import (
    DGP_IDS,
    DgpSpec,
    covariate_dim,
    default_spec,
    draw_covariates,
    generate,
    true_ate,
    true_cate,
    true_outcome_mean,
    true_propensity,
)
from gbcausal.errors import InvalidSpec, UnknownDgp
from gbcausal.numerics import Rng


def sample_potential_outcomes(spec, n, rng):
    """Oracle draws of (Y(0), Y(1)) sharing one noise realization per unit:
    covariates, then noise, each arm's outcome being its true mean plus that
    noise, as in generate.

    Valid because noise enters additively in every process, so each unit's
    potential outcomes differ by exactly its CATE.
    """
    x = draw_covariates(spec, n, rng)
    eps = dgp._noise(spec, x, rng)
    return true_outcome_mean(spec, x, 0) + eps, true_outcome_mean(spec, x, 1) + eps


class TestSpecs:
    def test_all_defaults_valid(self):
        for dgp_id in DGP_IDS:
            spec = default_spec(dgp_id)
            assert spec.id == dgp_id

    def test_unknown_id(self):
        with pytest.raises(UnknownDgp):
            default_spec("D10")
        with pytest.raises(UnknownDgp):
            DgpSpec(id="D0", params={})

    def test_d7_requires_heavy_tail_guard(self):
        with pytest.raises(InvalidSpec):
            DgpSpec(id="D7", params={"tau": 2.0, "beta": [0.5, -0.5], "gamma": [1, 1], "nu": 2.0})

    def test_d8_sparsity_bounds(self):
        with pytest.raises(InvalidSpec):
            DgpSpec(id="D8", params={"tau": 2.0, "p": 5, "s": 6})

    @pytest.mark.parametrize("value", [math.nan, math.inf, [0.5, math.nan]])
    def test_non_finite_parameter(self, value):
        params = dict(default_spec("D1").params, beta=value)
        with pytest.raises(InvalidSpec, match="'beta' must be finite"):
            DgpSpec(id="D1", params=params)

    def test_d5_coefficient_length(self):
        params = dict(default_spec("D5").params, b=[0.0, 1.0, 0.5])
        with pytest.raises(InvalidSpec, match="length-4"):
            DgpSpec(id="D5", params=params)

    def test_missing_parameter(self):
        with pytest.raises(InvalidSpec):
            DgpSpec(id="D1", params={"tau": 2.0, "beta": [0.5, -0.5]})

    def test_d9_needs_no_parameters(self):
        assert default_spec("D9").params == {}

    def test_covariate_dims(self):
        assert covariate_dim(default_spec("D1")) == 2
        assert covariate_dim(default_spec("D8")) == 50
        assert covariate_dim(default_spec("D9")) == 5


class TestGroundTruth:
    def test_d9_ate_closed_form(self):
        assert abs(true_ate(default_spec("D9")) - (1.0 + 0.5 * math.log(11.0))) < 1e-15

    def test_d3_ate_includes_mean_shift(self):
        # theta0 + theta' mu = 2 + (1.0 * 0.5 + 0.5 * -0.5)
        assert true_ate(default_spec("D3")) == pytest.approx(2.25, abs=1e-15)

    def test_d3_with_zero_heterogeneity_reduces_to_theta0(self):
        spec = DgpSpec(
            id="D3",
            params={
                "theta0": 2.0,
                "theta": np.zeros(2),
                "mu": np.array([0.5, -0.5]),
                "beta": np.array([0.5, -0.5]),
                "gamma": np.array([1.0, 1.0]),
            },
        )
        assert true_ate(spec) == 2.0

    @pytest.mark.parametrize("dgp_id", DGP_IDS)
    def test_potential_outcome_oracle_matches_ate(self, dgp_id):
        # Monte Carlo draw of both potential outcomes (shared noise) at 1e5;
        # the closed-form ATE must sit within 4 standard errors.
        spec = default_spec(dgp_id)
        n = 100_000
        y0, y1 = sample_potential_outcomes(spec, n, Rng(404))
        diff = y1 - y0
        se = float(np.std(diff, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(diff)) - true_ate(spec)) <= 4.0 * se + 1e-12

    @pytest.mark.parametrize("dgp_id", DGP_IDS)
    def test_cate_mean_matches_ate_on_fresh_sample(self, dgp_id):
        # Fresh 1e6-point covariate sample in chunks; mean CATE within 3 MC
        # standard errors of the ATE.
        spec = default_spec(dgp_id)
        total = 0.0
        total_sq = 0.0
        n = 1_000_000
        chunk = 100_000
        for i in range(n // chunk):
            x = draw_covariates(spec, chunk, Rng(777, i + 1))
            c = true_cate(spec, x)
            total += float(np.sum(c))
            total_sq += float(np.sum(c * c))
        mean = total / n
        var = max(total_sq / n - mean**2, 0.0)
        se = math.sqrt(var / n)
        assert abs(mean - true_ate(spec)) <= 3.0 * se + 1e-12


class TestGeneratedData:
    def test_deterministic(self):
        a = generate(default_spec("D4"), 500, Rng(31, 2))
        b = generate(default_spec("D4"), 500, Rng(31, 2))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.y, b.y)

    def test_invalid_n(self):
        with pytest.raises(InvalidSpec):
            generate(default_spec("D1"), 0, Rng(0))

    @pytest.mark.parametrize("dgp_id", DGP_IDS)
    def test_shapes_and_arms(self, dgp_id):
        spec = default_spec(dgp_id)
        ds = generate(spec, 400, Rng(5))
        assert ds.n == 400 and ds.d == covariate_dim(spec)
        assert set(np.unique(ds.a)).issubset({0, 1})

    @pytest.mark.parametrize("dgp_id", DGP_IDS)
    def test_covariates_are_the_streams_first_draw(self, dgp_id):
        # the bench keeps no covariates and redraws them from the stream
        spec = default_spec(dgp_id)
        ds = generate(spec, 300, Rng(7, 3))
        np.testing.assert_array_equal(draw_covariates(spec, 300, Rng(7, 3)), ds.x)

    def test_d6_limited_overlap_regime(self):
        # Propensities concentrate near 1 but the regime stays non-degenerate.
        spec = default_spec("D6")
        x = draw_covariates(spec, 10_000, Rng(6))
        e = true_propensity(spec, x)
        assert e.min() < 0.999
        assert e.min() > 0.0005
        assert float(np.mean(e > 0.97)) > 0.5

    def test_d7_heteroskedastic_noise(self):
        spec = default_spec("D7")
        ds = generate(spec, 10_000, Rng(77))
        resid = ds.y - true_outcome_mean(spec, ds.x, 0) - ds.a * (
            true_outcome_mean(spec, ds.x, 1) - true_outcome_mean(spec, ds.x, 0)
        )
        x1 = ds.x[:, 0]
        lo_q, hi_q = np.quantile(x1, [0.25, 0.75])
        var_top = float(np.var(resid[x1 >= hi_q]))
        var_bottom = float(np.var(resid[x1 <= lo_q]))
        assert var_top >= 2.0 * var_bottom

    def test_d8_only_first_s_covariates_matter(self):
        spec = default_spec("D8")
        x = np.zeros((1, 50))
        x_tail = x.copy()
        x_tail[0, 10:] = 5.0  # beyond the sparse support
        assert true_propensity(spec, x)[0] == true_propensity(spec, x_tail)[0]
        assert true_outcome_mean(spec, x, 0)[0] == true_outcome_mean(spec, x_tail, 0)[0]

    def test_true_nuisances_consistent_with_generator(self):
        # Empirical treated fraction tracks the propensity, and outcome means
        # track m_a, on a large draw.
        spec = default_spec("D1")
        ds = generate(spec, 200_000, Rng(123))
        e = true_propensity(spec, ds.x)
        assert abs(float(np.mean(ds.a)) - float(np.mean(e))) < 0.005
        treated = ds.a == 1
        m1 = true_outcome_mean(spec, ds.x, 1)
        resid = ds.y[treated] - m1[treated]
        assert abs(float(np.mean(resid))) < 0.02
