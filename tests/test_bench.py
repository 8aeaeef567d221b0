import math

import numpy as np
import pytest

from gbcausal import numerics
from gbcausal.bench import (
    BenchReport,
    _execute,
    length_sweep,
    orthogonality_slopes,
    reports_to_csv,
    reports_to_markdown,
    run_ate_bench,
    run_cate_bench,
    tv_stability,
    wilson_interval,
)
from gbcausal.dgp import default_spec
from gbcausal.errors import ConfigError, DomainError
from gbcausal.gibbs_ate import NormalPrior
from gbcausal.gibbs_cate import KernelParams
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


class TestLengthSweep:
    def test_one_report_per_strategy_and_n(self):
        reports = length_sweep(
            default_spec("D1"), [Strategy.DR, Strategy.RA], [60, 120], 2, base_seed=31
        )
        assert len(reports) == 4
        assert {(r.strategy, r.n) for r in reports} == {
            ("DR", 60), ("DR", 120), ("RA", 60), ("RA", 120)
        }

    def test_single_n_equals_bench_run(self):
        sweep = length_sweep(default_spec("D1"), [Strategy.DR], [80], 2, base_seed=32)
        single = run_ate_bench(
            default_spec("D1"), Strategy.DR, 80, 2, NormalPrior(), "plugin", 32
        )
        assert sweep[0].runs == single.runs

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            length_sweep(default_spec("D1"), [Strategy.DR], [100, 100], 2, 0)


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
        with pytest.raises(DomainError):
            orthogonality_slopes(default_spec("D1"), [0.1, 0.0], 100, 0)


class TestTvStability:
    def test_zero_error_gives_zero_tv(self):
        points = tv_stability(default_spec("D1"), math.inf, [100, 200], base_seed=51, reps=3)
        assert all(p.r_n == 0.0 for p in points)
        assert all(p.tv_mean == 0.0 for p in points)

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

    def test_markdown_handles_multiple_sample_sizes(self):
        reports = length_sweep(default_spec("D1"), [Strategy.DR], [60, 120], 2, 62)
        text = reports_to_markdown(reports, alpha=0.05)
        assert "D1 (n=60)" in text and "D1 (n=120)" in text
