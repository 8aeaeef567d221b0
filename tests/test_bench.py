import math
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gbcausal import bench, nuisance, numerics
from gbcausal import dgp as dgp_mod
from gbcausal.bench import (
    _execute,
    orthogonality_slopes,
    reports_to_csv,
    reports_to_markdown,
    run_ate_bench,
    run_cate_bench,
    tv_stability,
    wilson_interval,
)
from gbcausal.calibrate import plugin_omega
from gbcausal.dgp import default_spec
from gbcausal.errors import ConfigError, DegenerateVariance, DomainError, NumericError
from gbcausal.gibbs_ate import NormalPrior
from gbcausal.gibbs_cate import KernelParams
from gbcausal.nuisance import NuisanceConfig
from gbcausal.numerics import Rng, blas_threads, gaussian_tv
from gbcausal.pseudo import Strategy

_Z = 1.959963984540054


def _worker_blas_counts(_):
    return [get_fn() for _, get_fn in numerics._openblas_thread_controls()]


class TestExecute:
    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if not _worker_blas_counts(None):
            pytest.skip("no OpenBLAS loaded")
        # workers start from this process's count unless the pool pins them
        with blas_threads(2):
            counts = _execute(_worker_blas_counts, range(4), parallelism=2)
        assert len(counts) == 4
        assert all(c and set(c) == {1} for c in counts)


class TestWilson:
    def test_contains_point_estimate(self):
        rng = Rng(1)
        for _ in range(200):
            total = int(rng.uniform() * 200) + 1
            hits = int(rng.uniform() * (total + 1))
            lo, hi = wilson_interval(hits, total, _Z)
            p = hits / total
            assert 0.0 <= lo <= p <= hi <= 1.0

    def test_boundaries(self):
        lo, hi = wilson_interval(0, 50, _Z)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50, _Z)
        assert hi == 1.0 and lo < 1.0

    def test_empty(self):
        assert wilson_interval(0, 0, _Z) == (0.0, 1.0)


class TestRunAteBench:
    def test_report_structure_and_faithful_rule(self):
        report = run_ate_bench(
            default_spec("D1"), Strategy.DR, 120, 4, NormalPrior(), "plugin", base_seed=5
        )
        assert report.dataset_id == "D1" and report.strategy == "DR"
        assert report.r_total == 4 and report.failures == 0
        hits = sum(r.hits for r in report.runs)
        assert report.coverage == hits / 4
        lo, hi = report.coverage_ci
        assert lo <= report.coverage <= hi
        assert report.faithful == (hi >= 0.95)
        lengths = [r.length for r in report.runs]
        assert report.mean_length == pytest.approx(float(np.mean(lengths)))
        assert report.sd_length == pytest.approx(float(np.std(lengths, ddof=1)))

    def test_all_hits_gives_unit_coverage(self):
        # Very wide intervals: huge prior variance barely matters; use a
        # small n so intervals are wide relative to estimator noise.
        report = run_ate_bench(
            default_spec("D1"), Strategy.DR, 200, 3, NormalPrior(), "plugin", base_seed=11
        )
        if all(r.hits == 1 for r in report.runs):
            assert report.coverage == 1.0

    def test_parallelism_does_not_change_results(self):
        kwargs = dict(
            spec=default_spec("D2"),
            strategy=Strategy.IPW,
            n=100,
            r_reps=4,
            prior=NormalPrior(),
            calibration_mode="plugin",
            base_seed=7,
        )
        seq = run_ate_bench(**kwargs, parallelism=1)
        par = run_ate_bench(**kwargs, parallelism=3)
        assert reports_to_csv([seq]) == reports_to_csv([par])
        assert seq.runs == par.runs

    def test_deterministic_across_calls(self):
        a = run_ate_bench(default_spec("D3"), Strategy.RA, 90, 3, NormalPrior(), "plugin", 9)
        b = run_ate_bench(default_spec("D3"), Strategy.RA, 90, 3, NormalPrior(), "plugin", 9)
        assert a.runs == b.runs

    def test_gpc_mode_runs(self):
        report = run_ate_bench(
            default_spec("D1"), Strategy.DR, 150, 2, NormalPrior(), "gpc", 13,
            b_boot=60, max_iter=5,
        )
        assert report.r_total == 2
        assert all(r.omega > 0 for r in report.runs)

    def test_rep_floor(self):
        with pytest.raises(DomainError):
            run_ate_bench(default_spec("D1"), Strategy.DR, 50, 1, NormalPrior(), "plugin", 0)

    def test_bad_calibration_mode(self):
        with pytest.raises(ConfigError):
            run_ate_bench(default_spec("D1"), Strategy.DR, 50, 2, NormalPrior(), "magic", 0)

    def test_failed_repetitions_are_excluded_and_counted(self):
        # D6 at a tiny n: some repetitions collapse an arm inside a training
        # complement and must be recorded as failures, not abort the study.
        report = run_ate_bench(
            default_spec("D6"), Strategy.DR, 30, 12, NormalPrior(), "plugin", 0
        )
        assert report.failures > 0
        assert report.r_total == 12 - report.failures
        assert len(report.runs) == report.r_total

    def test_numeric_error_while_scoring_counts_as_a_failure(self, monkeypatch):
        calls = []

        def second_call_fails(pv):
            calls.append(pv.size)
            if len(calls) == 2:
                raise DegenerateVariance("pseudo-outcomes are constant; variance is zero")
            return plugin_omega(pv)

        monkeypatch.setattr(bench, "plugin_omega", second_call_fails)
        report = run_ate_bench(default_spec("D1"), Strategy.DR, 50, 3, NormalPrior(), "plugin", 0)
        assert calls == [50, 50, 50]
        assert report.failures == 1 and report.r_total == 2
        assert [run.rep for run in report.runs] == [0, 2]

    def test_cell_without_a_successful_repetition_is_not_faithful(self):
        # D6 at n=6 in two folds collapses an arm in every repetition; the
        # empty coverage interval (0, 1) must not read as faithful
        report = run_ate_bench(
            default_spec("D6"), Strategy.RA, 6, 3, NormalPrior(), "plugin", 1, folds=2
        )
        assert report.r_total == 0 and report.failures == 3
        assert report.coverage_ci == (0.0, 1.0)
        assert not report.faithful


class TestRunCateBench:
    def test_report_structure(self):
        report = run_cate_bench(
            default_spec("D2"), Strategy.DR, 150, 3, KernelParams(), 10, 25, base_seed=21,
        )
        assert report.r_total == 3
        hits = sum(r.hits for r in report.runs)
        assert report.coverage == hits / (3 * 25)
        assert 0.0 <= report.coverage <= 1.0
        lo, hi = report.coverage_ci
        assert lo <= report.coverage <= hi

    def test_single_query_point_is_scalar_coverage(self):
        report = run_cate_bench(
            default_spec("D1"), Strategy.DR, 120, 3, KernelParams(), 8, 1, base_seed=22,
        )
        for run in report.runs:
            assert run.points == 1 and run.hits in (0, 1)

    def test_parallel_matches_sequential(self):
        kwargs = dict(
            spec=default_spec("D1"),
            strategy=Strategy.DR,
            n=100,
            r_reps=3,
            kernel=KernelParams(),
            m_inducing=8,
            k_points=10,
            base_seed=23,
        )
        a = run_cate_bench(**kwargs, parallelism=1)
        b = run_cate_bench(**kwargs, parallelism=2)
        assert a.runs == b.runs


@pytest.fixture
def fit_calls(monkeypatch):
    """Start from an empty nuisance memo and record the sample size of every
    cross-fit the bench runs in this process."""
    monkeypatch.setattr(bench, "_memo", {"key": None, "fits": {}})
    calls = []
    original = bench.cross_fit

    def counting(ds, *args):
        calls.append(ds.n)
        return original(ds, *args)

    monkeypatch.setattr(bench, "cross_fit", counting)
    return calls


def _ate_cells(spec, strategies, n=80, reps=3, seed=61, parallelism=1, **kwargs):
    return [
        run_ate_bench(
            spec, s, n, reps, NormalPrior(), "plugin", seed, parallelism=parallelism, **kwargs
        )
        for s in strategies
    ]


class TestNuisanceMemo:
    def test_strategies_share_each_repetitions_fit(self, fit_calls):
        _ate_cells(default_spec("D1"), [Strategy.RA, Strategy.IPW, Strategy.DR])
        assert fit_calls == [80] * 3

    def test_strategies_share_each_repetitions_data(self, fit_calls, monkeypatch):
        drawn = []
        original = dgp_mod.generate

        def counting(spec, n, rng):
            drawn.append(n)
            return original(spec, n, rng)

        monkeypatch.setattr(dgp_mod, "generate", counting)
        _ate_cells(default_spec("D1"), [Strategy.RA, Strategy.IPW, Strategy.DR])
        assert drawn == [80] * 3 and fit_calls == [80] * 3

    def test_length_sweep_fits_once_per_size_and_rep(self, fit_calls):
        spec = default_spec("D1")
        for strategy in (Strategy.DR, Strategy.RA):
            for n in (60, 120):
                run_ate_bench(spec, strategy, n, 2, NormalPrior(), "plugin", 31)
        assert sorted(fit_calls) == [60, 60, 120, 120]

    def test_ate_and_cate_cells_share_each_repetitions_fit(self, fit_calls):
        # the memo key names no estimand: a CATE cell after an ATE cell with
        # the same spec object, seed, folds, nuisance config and n refits nothing
        spec = default_spec("D2")
        ate, = _ate_cells(spec, [Strategy.DR])
        cate = run_cate_bench(spec, Strategy.DR, 80, 3, KernelParams(), 8, 5, 61)
        assert fit_calls == [80] * 3
        assert ate.r_total == cate.r_total == 3

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=62),
            dict(folds=3),
            dict(nuisance_config=NuisanceConfig(lambda_out=0.01)),
            dict(n=90),
            dict(spec=default_spec("D1")),
        ],
        ids=["base_seed", "folds", "nuisance_config", "n", "new_spec"],
    )
    def test_a_different_key_refits(self, fit_calls, change):
        spec = default_spec("D1")
        _ate_cells(spec, [Strategy.RA])
        kwargs = dict(spec=spec, seed=61, n=80)
        kwargs.update(change)
        _ate_cells(kwargs.pop("spec"), [Strategy.DR], **kwargs)
        assert len(fit_calls) == 6

    def test_a_cell_served_from_the_memo_builds_no_features(self, fit_calls, monkeypatch):
        spec = default_spec("D1")
        _ate_cells(spec, [Strategy.RA])
        built = []
        original = nuisance.feature_matrix

        def counting(x, idx=None):
            built.append(x.shape[0] if idx is None else idx.size)
            return original(x, idx)

        monkeypatch.setattr(nuisance, "feature_matrix", counting)
        _ate_cells(spec, [Strategy.IPW, Strategy.DR])
        assert built == []
        _ate_cells(spec, [Strategy.DR], seed=62)
        # per repetition: each of 5 folds' 64 training rows, then all 80 rows
        assert built == ([64] * 5 + [80]) * 3 and len(fit_calls) == 6

    def test_failed_cross_fits_are_fitted_once(self, fit_calls):
        # D6 at a tiny n collapses an arm in some training complements; the
        # memo keeps those failures, so the DR cell counts them without a refit
        first, second = _ate_cells(default_spec("D6"), [Strategy.RA, Strategy.DR], n=30, reps=12,
                                   seed=0)
        assert first.failures == second.failures == 3
        assert len(fit_calls) == 12

    def test_cell_after_other_cells_matches_a_fresh_process(self, tmp_path):
        script = textwrap.dedent(
            """
            import pickle, sys
            from gbcausal.bench import run_ate_bench
            from gbcausal.dgp import default_spec
            from gbcausal.gibbs_ate import NormalPrior
            from gbcausal.numerics import blas_threads
            from gbcausal.pseudo import Strategy
            with blas_threads(1):
                report = run_ate_bench(
                    default_spec("D6"), Strategy.DR, 30, 12, NormalPrior(), "plugin", 0
                )
            with open(sys.argv[1], "wb") as fh:
                pickle.dump((report, report.runs), fh)
            """
        )
        out = tmp_path / "report.pkl"
        src = str(Path(bench.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", script, str(out)], check=True, env=env)
        with blas_threads(1):
            *_, report = _ate_cells(
                default_spec("D6"), [Strategy.RA, Strategy.IPW, Strategy.DR], n=30, reps=12, seed=0
            )
        fresh, fresh_runs = pickle.loads(out.read_bytes())
        assert report.failures > 0
        assert report == fresh and report.runs == fresh_runs

    def test_pool_maps_only_missing_repetitions(self, fit_calls, monkeypatch):
        mapped = []
        original = bench._execute

        def recording(worker, items, parallelism):
            mapped.append(list(items))
            return original(worker, mapped[-1], parallelism)

        strategies = [Strategy.RA, Strategy.DR]
        serial = _ate_cells(default_spec("D2"), strategies)
        monkeypatch.setattr(bench, "_execute", recording)
        pooled = _ate_cells(default_spec("D2"), strategies, parallelism=2)
        assert [r.runs for r in pooled] == [r.runs for r in serial]
        assert reports_to_csv(pooled) == reports_to_csv(serial)
        # the first cell's draws and cross-fits go to the pool as bare rep
        # indices; the second cell finds them all in the memo and starts none
        assert mapped == [[0, 1, 2]]
        assert all(type(rep) is int for rep in mapped[0])


class TestOrthogonalitySlopes:
    def test_ra_shift_is_exactly_delta(self):
        res = orthogonality_slopes(default_spec("D1"), [0.2, 0.1, 0.05], 500, base_seed=41)
        np.testing.assert_allclose(res[Strategy.RA].shifts, [0.2, 0.1, 0.05], atol=1e-12)
        assert res[Strategy.RA].slope == pytest.approx(1.0, abs=1e-9)

    def test_all_shifts_positive_and_finite(self):
        res = orthogonality_slopes(default_spec("D2"), [0.2, 0.1], 2000, base_seed=42)
        for strategy in Strategy:
            assert np.all(res[strategy].shifts > 0)
            assert math.isfinite(res[strategy].slope)

    def test_rejects_nonpositive_deltas(self):
        for deltas in ([0.1, 0.0], [-0.1], [math.nan], [0.1, math.inf], [-math.inf]):
            with pytest.raises(DomainError, match="positive and finite"):
                orthogonality_slopes(default_spec("D1"), deltas, 100, 0)

    @pytest.mark.parametrize("deltas", [[0.1], [0.1, 0.1]])
    def test_rejects_fewer_than_two_distinct_deltas(self, deltas):
        with pytest.raises(DomainError, match="two distinct"):
            orthogonality_slopes(default_spec("D1"), deltas, 10, 0)

    def test_zero_shift_raises_naming_its_delta(self):
        # perturbations this small round away: no estimate moves, so no
        # log-log slope exists
        with pytest.raises(NumericError, match="delta=1e-16"):
            orthogonality_slopes(default_spec("D1"), [1e-16, 1e-17], 1000, 0)


class TestTvStability:
    def test_zero_error_gives_zero_tv(self):
        points = tv_stability(default_spec("D1"), math.inf, [100, 200], base_seed=51, reps=3)
        assert all(p.r_n == 0.0 for p in points)
        assert all(p.tv_mean == 0.0 for p in points)

    @pytest.mark.parametrize("beta", [math.nan, -0.5, -math.inf])
    def test_beta_below_zero_or_nan_rejected(self, beta):
        with pytest.raises(DomainError, match="beta"):
            tv_stability(default_spec("D1"), beta, [100], base_seed=51, reps=2)

    def test_beta_zero_is_a_constant_error(self):
        points = tv_stability(default_spec("D1"), 0.0, [100, 200], base_seed=51, reps=2)
        assert [p.r_n for p in points] == [1.0, 1.0]

    @pytest.mark.parametrize("reps", [0, -2])
    def test_reps_below_one_rejected(self, reps):
        with pytest.raises(DomainError, match="reps"):
            tv_stability(default_spec("D1"), 0.3, [100], base_seed=51, reps=reps)

    @pytest.mark.parametrize("size", [0, 1, -5])
    def test_sample_size_below_two_rejected(self, size):
        with pytest.raises(DomainError, match=f"got {size}"):
            tv_stability(default_spec("D1"), 0.3, [100, size], base_seed=51, reps=2)

    def test_tv_values_in_unit_interval(self):
        points = tv_stability(default_spec("D1"), 0.3, [100, 200], base_seed=52, reps=4)
        for p in points:
            assert 0.0 <= p.tv_mean <= 1.0
            assert p.tv_se >= 0.0

    def test_tv_matches_common_sd_gaussian_formula(self):
        # Posteriors share s_p by construction, so each repetition's TV is
        # exactly the common-sd Gaussian formula; replaying one repetition
        # through the same streams must reproduce it.
        from gbcausal import dgp as dgp_mod
        from gbcausal.bench import _perturbed_nuisances
        from gbcausal.pseudo import pseudo_values

        spec = default_spec("D1")
        points = tv_stability(spec, 0.25, [150], base_seed=53, reps=1)
        rng = Rng(53).derive(0, 0)
        ds = dgp_mod.generate(spec, 150, rng.derive(0))
        e0 = dgp_mod.true_propensity(spec, ds.x)
        m1 = dgp_mod.true_outcome_mean(spec, ds.x, 1)
        m0 = dgp_mod.true_outcome_mean(spec, ds.x, 0)
        oracle = pseudo_values(ds.a, ds.y, e0, m1, m0, Strategy.DR)
        r_n = 150.0 ** (-0.25)
        e_d, m1_d, m0_d = _perturbed_nuisances(e0, m1, m0, r_n)
        feasible = pseudo_values(ds.a, ds.y, e_d, m1_d, m0_d, Strategy.DR)
        omega = 1.0 / float(np.var(oracle, ddof=1))
        s_p = math.sqrt(1.0 / (omega * 150))
        want = gaussian_tv(float(np.mean(feasible)), float(np.mean(oracle)), s_p)
        assert points[0].tv_mean == pytest.approx(want, abs=1e-15)


class TestReportEmission:
    def _reports(self):
        spec = default_spec("D1")
        return [
            run_ate_bench(spec, s, 80, 3, NormalPrior(), "plugin", 61, strategy_label=l)
            for s, l in [(Strategy.RA, "RA"), (Strategy.IPW, "IPW"), (Strategy.DR, "AIPW")]
        ]

    def test_csv_header_and_shape(self):
        text = reports_to_csv(self._reports())
        lines = text.strip().split("\n")
        assert lines[0] == (
            "dataset,strategy,n,reps,coverage,cov_ci_lo,cov_ci_hi,"
            "mean_len,sd_len,faithful,failures"
        )
        assert len(lines) == 4
        assert lines[1].startswith("D1,RA,80,")

    def test_markdown_marks_unfaithful_and_best(self):
        reports = self._reports()
        text = reports_to_markdown(reports, alpha=0.05)
        assert "### Coverage" in text and "### Mean CrI length" in text
        assert "**" in text
        unfaithful = [r for r in reports if not r.faithful]
        if unfaithful:
            assert "~~" in text

    def test_cell_without_a_successful_repetition_scores_in_neither_table(self):
        failed, working = (
            run_ate_bench(default_spec(d), Strategy.RA, 6, 3, NormalPrior(), "plugin", 1, folds=2)
            for d in ("D6", "D1")
        )
        assert failed.r_total == 0 and working.r_total == 3
        text = reports_to_markdown([failed, working], alpha=0.05)
        d6_rows = [line for line in text.splitlines() if line.startswith("| D6 ")]
        assert d6_rows == [
            "| D6 (n=6) | ~~0.000 (0.000, 1.000)~~ |",
            "| D6 (n=6) | ~~0.000 (0.000)~~ |",
        ]

    def test_row_without_a_strategy_has_an_empty_cell(self):
        ra, ipw, _ = self._reports()
        d2 = run_ate_bench(default_spec("D2"), Strategy.RA, 80, 3, NormalPrior(), "plugin", 61,
                           strategy_label="RA")
        text = reports_to_markdown([ra, ipw, d2], alpha=0.05)
        d2_rows = [line for line in text.splitlines() if line.startswith("| D2 ")]
        assert len(d2_rows) == 2
        assert all(line.endswith(" |  |") for line in d2_rows)

    def test_markdown_handles_multiple_sample_sizes(self):
        spec = default_spec("D1")
        reports = [
            run_ate_bench(spec, Strategy.DR, n, 2, NormalPrior(), "plugin", 62) for n in (60, 120)
        ]
        text = reports_to_markdown(reports, alpha=0.05)
        assert "D1 (n=60)" in text and "D1 (n=120)" in text
