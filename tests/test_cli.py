import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbcausal import bench as bench_mod
from gbcausal import calibrate
from gbcausal import cli
from gbcausal import dgp as dgp_mod
from gbcausal import gibbs_cate
from gbcausal.calibrate import gpc_omega_cate_from_pseudo, gpc_omega_from_pseudo
from gbcausal.gibbs_ate import NormalPrior
from gbcausal.nuisance import NuisanceConfig, cross_fit
from gbcausal.numerics import Rng, blas_threads
from gbcausal.pseudo import Strategy, cross_fitted_pseudo

GOLDEN_DIR = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parents[1]


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["COLUMNS"] = "80"  # frozen help-text width
    env.pop("GBC_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gbcausal", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestHelpGolden:
    @pytest.mark.parametrize("sub", ["main", "dgp", "fit", "bench", "experiment"])
    def test_help_text_pinned(self, sub):
        args = ["--help"] if sub == "main" else [sub, "--help"]
        proc = run_cli(args)
        assert proc.returncode == 0
        want = (GOLDEN_DIR / f"help_{sub}.txt").read_text(encoding="utf-8")
        assert proc.stdout == want


class TestDgpCommand:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "d1.csv"
        proc = run_cli(["dgp", "--id", "D1", "--n", "100", "--seed", "7", "--out", str(out)])
        assert proc.returncode == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 101
        assert lines[0] == "x1,x2,a,y"

    def test_unknown_id_exits_2(self, tmp_path):
        proc = run_cli(["dgp", "--id", "D42", "--n", "10", "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 2
        assert "--id" in proc.stderr

    def test_nonpositive_n_exits_2(self, tmp_path):
        proc = run_cli(["dgp", "--id", "D1", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 2

    def test_same_flags_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["dgp", "--id", "D5", "--n", "50", "--seed", "3", "--out", str(a)])
        run_cli(["dgp", "--id", "D5", "--n", "50", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFitCommand:
    def test_ate_closed_plugin_summary(self, tmp_path):
        out = tmp_path / "fit.json"
        proc = run_cli([
            "fit", "--dgp", "D1", "--n", "400", "--seed", "5",
            "--prior-var", "inf", "--out", str(out),
        ])
        assert proc.returncode == 0
        summary = json.loads(out.read_text(encoding="utf-8"))
        assert summary["estimand"] == "ate"
        assert summary["strategy"] == "AIPW"
        assert summary["n"] == 400 and summary["seed"] == 5
        omega = summary["omega"]
        width = summary["cri"]["hi"] - summary["cri"]["lo"]
        # diffuse prior: width = 2 z / sqrt(omega n)
        want = 2.0 * 1.959963984540054 / math.sqrt(omega * 400)
        assert width == pytest.approx(want, rel=1e-9)
        assert summary["posterior"]["sd"] == pytest.approx(
            1.0 / math.sqrt(omega * 400), rel=1e-12
        )

    def test_repeat_invocation_identical_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fit", "--dgp", "D2", "--n", "200", "--seed", "11", "--strategy", "IPW"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("calibration", ["plugin", "gpc"])
    def test_ate_vi_output_equals_closed(self, tmp_path, monkeypatch, calibration):
        # the variational optimum over Gaussian q is the conjugate posterior
        monkeypatch.delenv("GBC_SEED", raising=False)
        outs = {}
        for engine in ("closed", "vi"):
            outs[engine] = tmp_path / f"{engine}.json"
            assert cli.main([
                "fit", "--dgp", "D2", "--n", "300", "--engine", engine, "--calibration",
                calibration, "--b-boot", "50", "--max-iter", "5", "--seed", "8",
                "--out", str(outs[engine]),
            ]) == 0
        assert outs["vi"].read_bytes() == outs["closed"].read_bytes()

    def test_cate_with_closed_engine_exits_2(self, tmp_path):
        proc = run_cli([
            "fit", "--dgp", "D1", "--n", "100", "--estimand", "cate",
            "--engine", "closed", "--out", str(tmp_path / "x.json"),
        ])
        assert proc.returncode == 2
        assert "engine" in proc.stderr

    def test_ate_with_exact_gp_exits_2(self, tmp_path):
        proc = run_cli([
            "fit", "--dgp", "D1", "--n", "100", "--engine", "exact-gp",
            "--out", str(tmp_path / "x.json"),
        ])
        assert proc.returncode == 2

    def test_data_and_dgp_mutually_exclusive(self, tmp_path):
        proc = run_cli(["fit", "--dgp", "D1", "--n", "10", "--data", "whatever.csv"])
        assert proc.returncode == 2

    def test_missing_data_file_exits_2(self, tmp_path):
        proc = run_cli(["fit", "--data", str(tmp_path / "missing.csv")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_missing_out_directory_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "fit.json"
        proc = run_cli(["fit", "--dgp", "D1", "--n", "50", "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("grid_size", ["0", "-1"])
    def test_grid_size_below_one_exits_2(self, tmp_path, capsys, monkeypatch, grid_size):
        monkeypatch.delenv("GBC_SEED", raising=False)
        out = tmp_path / "fit.json"
        code = cli.main([
            "fit", "--dgp", "D1", "--n", "50", "--estimand", "cate", "--engine", "exact-gp",
            "--grid-size", grid_size, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--grid-size" in err
        assert not out.exists()

    # one warning site serves both estimands; the ATE cases keep their ids
    @pytest.mark.parametrize(
        "engine, max_iter",
        [pytest.param("closed", 1, id="1"), pytest.param("closed", 50, id="50")]
        + [pytest.param(e, m, id=f"{e}-{m}") for e in ("vi", "exact-gp") for m in (1, 50)],
    )
    def test_gpc_warns_exactly_when_search_does_not_converge(
        self, tmp_path, capsys, monkeypatch, engine, max_iter
    ):
        monkeypatch.delenv("GBC_SEED", raising=False)
        seed, out = 3, tmp_path / "fit.json"
        estimand = "ate" if engine == "closed" else "cate"
        code = cli.main([
            "fit", "--dgp", "D1", "--n", "200", "--estimand", estimand, "--engine", engine,
            "--calibration", "gpc", "--b-boot", "50", "--max-iter", str(max_iter),
            "--seed", str(seed), "--out", str(out),
        ])
        assert code == 0
        rng = Rng(seed)
        ds = dgp_mod.generate(dgp_mod.default_spec("D1"), 200, rng.derive(0))
        with blas_threads(1):
            cf = cross_fit(ds, 5, NuisanceConfig(), rng.derive(1))
            pv = cross_fitted_pseudo(ds.a, ds.y, cf, Strategy.DR)
            if estimand == "ate":
                want = gpc_omega_from_pseudo(pv, NormalPrior(), 0.05, 50, max_iter, rng.derive(2))
            else:
                x_query = ds.x[rng.derive(4).permutation(ds.n)[:100]]
                if engine == "vi":
                    fit = gibbs_cate.sparse_gp_resampler(
                        gibbs_cate.KernelParams(), ds.x, pv, x_query, 20, rng.derive(3)
                    )
                else:
                    fit = gibbs_cate.exact_gp_resampler(
                        gibbs_cate.KernelParams(), ds.x, pv, x_query
                    )
                want = gpc_omega_cate_from_pseudo(pv, 0.05, 50, max_iter, rng.derive(2), fit)
        assert json.loads(out.read_text(encoding="utf-8"))["omega"] == want.omega
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning: gpc did not converge")]
        assert len(warned) == (0 if want.converged else 1)
        if warned:
            assert f"in {want.iterations} iterations" in warned[0]

    def test_cate_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GBC_SEED", raising=False)
        out = tmp_path / "fit.json"
        code = cli.main([
            "fit", "--dgp", "D1", "--n", "50", "--estimand", "cate", "--engine", "exact-gp",
            "--alpha", "1.5", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--alpha" in err[0]
        assert not out.exists()

    def test_cate_sparse_gpc_has_no_exact_size_guard(self, tmp_path, monkeypatch):
        # gpc calibrates the sparse engine on its own resamples, so n may
        # exceed the exact GP's n <= 2000 guard
        monkeypatch.delenv("GBC_SEED", raising=False)
        out = tmp_path / "fit.json"
        code = cli.main([
            "fit", "--dgp", "D2", "--n", "2500", "--estimand", "cate", "--engine", "vi",
            "--calibration", "gpc", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text(encoding="utf-8"))
        assert summary["n"] == 2500 and summary["omega"] > 0

    def test_numeric_failure_exits_3(self, tmp_path):
        # A single treated unit guarantees that the fold holding it has a
        # training complement without any treated observations.
        csv_path = tmp_path / "collapse.csv"
        rows = ["x1,a,y"] + [f"{i / 10},{1 if i == 0 else 0},{i}.5" for i in range(20)]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        proc = run_cli(["fit", "--data", str(csv_path), "--strategy", "RA"])
        assert proc.returncode == 3
        assert "fold" in proc.stderr

    def test_fit_from_csv_file(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        run_cli(["dgp", "--id", "D1", "--n", "300", "--seed", "2", "--out", str(csv_path)])
        out = tmp_path / "fit.json"
        proc = run_cli(["fit", "--data", str(csv_path), "--strategy", "DR", "--out", str(out)])
        assert proc.returncode == 0
        summary = json.loads(out.read_text(encoding="utf-8"))
        assert summary["n"] == 300

    @pytest.mark.parametrize(
        "flags",
        [
            ["--prior-var", "0"],
            ["--estimand", "cate", "--engine", "vi", "--lengthscale", "0"],
            ["--strategy", "XYZ"],
            ["--clip-eps", "0.7"],
            ["--folds", "1"],
            ["--calibration", "gpc", "--b-boot", "10"],
            ["--calibration", "gpc", "--max-iter", "0"],
            ["--estimand", "cate", "--engine", "vi", "--m-inducing", "0"],
            ["--prior-mean", "nan"],
            ["--lambda-out", "inf"],
            ["--lambda-prop", "nan"],
            ["--estimand", "cate", "--engine", "vi", "--jitter", "nan"],
        ],
    )
    @pytest.mark.parametrize("source", [["--data", "data.csv"], ["--dgp", "D8", "--n", "300"]])
    def test_bad_flag_exits_2_before_the_data(self, tmp_path, capsys, monkeypatch, flags, source):
        def unreachable(*args, **kwargs):
            pytest.fail("a bad flag reached the data")

        monkeypatch.setattr(cli, "read_csv", unreachable)
        monkeypatch.setattr(cli, "cross_fit", unreachable)
        monkeypatch.delenv("GBC_SEED", raising=False)
        out = tmp_path / "fit.json"
        assert cli.main(["fit", *source, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("calibration", ["plugin", "gpc"])
    def test_exact_gp_size_guard_exits_2_before_the_cross_fit(
        self, tmp_path, capsys, monkeypatch, calibration
    ):
        def unreachable(*args, **kwargs):
            pytest.fail("the exact GP size guard ran after the cross-fit")

        monkeypatch.setattr(cli, "cross_fit", unreachable)
        monkeypatch.delenv("GBC_SEED", raising=False)
        out = tmp_path / "fit.json"
        code = cli.main([
            "fit", "--dgp", "D8", "--n", "3000", "--estimand", "cate", "--engine", "exact-gp",
            "--calibration", calibration, "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: exact GP is guarded to n <= 2000, got n=3000\n"
        assert not out.exists()

    def test_cate_exact_gp_pointwise_summary(self, tmp_path):
        out = tmp_path / "cate.json"
        proc = run_cli([
            "fit", "--dgp", "D2", "--n", "150", "--estimand", "cate",
            "--engine", "exact-gp", "--grid-size", "10", "--seed", "4",
            "--out", str(out),
        ])
        assert proc.returncode == 0
        summary = json.loads(out.read_text(encoding="utf-8"))
        points = summary["posterior"]["pointwise"]
        assert len(points) == 10 and len(summary["cri"]) == 10
        z = 1.959963984540054
        for pt, ci in zip(points, summary["cri"]):
            assert ci["hi"] - ci["lo"] == pytest.approx(2 * z * pt["sd"], rel=1e-9)

    def test_cate_vi_engine_runs(self, tmp_path):
        out = tmp_path / "cate_vi.json"
        proc = run_cli([
            "fit", "--dgp", "D1", "--n", "120", "--estimand", "cate",
            "--engine", "vi", "--grid-size", "5", "--m-inducing", "10",
            "--seed", "4", "--out", str(out),
        ])
        assert proc.returncode == 0
        summary = json.loads(out.read_text(encoding="utf-8"))
        assert len(summary["posterior"]["pointwise"]) == 5

    @pytest.mark.parametrize("engine, calls", [("exact-gp", 2), ("vi", 3)])
    @pytest.mark.parametrize("calibration", ["plugin", "gpc"])
    def test_cate_fit_builds_each_kernel_matrix_once(
        self, tmp_path, monkeypatch, engine, calls, calibration
    ):
        # exact: k(x, x) and k(x_query, x); sparse: K_mm, K_mn and K_mq. The
        # gpc search and the reported fit share the resampler that built them.
        monkeypatch.delenv("GBC_SEED", raising=False)
        count = [0]
        original = gibbs_cate.kernel_matrix

        def counting(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(gibbs_cate, "kernel_matrix", counting)
        code = cli.main([
            "fit", "--dgp", "D4", "--n", "120", "--estimand", "cate", "--engine", engine,
            "--calibration", calibration, "--b-boot", "50", "--max-iter", "2",
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == 0
        assert count[0] == calls

    @pytest.mark.parametrize("engine", ["exact-gp", "vi"])
    def test_cate_gpc_fit_computes_one_full_row_fit_per_omega(self, tmp_path, monkeypatch, engine):
        # gpc's coverage function fits every row once at each omega it
        # evaluates; the report reads that fit at the omega chosen
        monkeypatch.delenv("GBC_SEED", raising=False)
        n = 120
        omegas, full_fits = [], [0]
        search = calibrate.gpc_search

        def recording_search(coverage_fn, *args):
            return search(lambda omega: omegas.append(omega) or coverage_fn(omega), *args)

        # resamples of 120 rows draw fewer distinct rows: a factor of n rows is a full fit
        if engine == "exact-gp":
            factor = gibbs_cate.cholesky_factor

            def counting(a, *args, **kwargs):
                full_fits[0] += a.shape[0] == n
                return factor(a, *args, **kwargs)

            monkeypatch.setattr(gibbs_cate, "cholesky_factor", counting)
        else:
            optimum = gibbs_cate._whitened_optimum

            def counting(c, *args):
                full_fits[0] += c.shape[1] == n
                return optimum(c, *args)

            monkeypatch.setattr(gibbs_cate, "_whitened_optimum", counting)
        monkeypatch.setattr(calibrate, "gpc_search", recording_search)
        monkeypatch.setattr(calibrate, "COVERAGE_TOL", 1e-6)  # every max_iter step runs
        out = tmp_path / "fit.json"
        code = cli.main([
            "fit", "--dgp", "D4", "--n", str(n), "--estimand", "cate", "--engine", engine,
            "--calibration", "gpc", "--b-boot", "50", "--max-iter", "3", "--grid-size", "10",
            "--m-inducing", "10", "--out", str(out),
        ])
        assert code == 0
        assert len(omegas) == 3
        assert json.loads(out.read_text(encoding="utf-8"))["omega"] in omegas
        assert full_fits[0] == len(set(omegas))

    def test_cate_gpc_calibration_runs(self, tmp_path):
        out = tmp_path / "cate_gpc.json"
        proc = run_cli([
            "fit", "--dgp", "D2", "--n", "100", "--estimand", "cate",
            "--engine", "exact-gp", "--calibration", "gpc", "--grid-size", "8",
            "--b-boot", "50", "--max-iter", "2", "--seed", "4", "--out", str(out),
        ])
        assert proc.returncode == 0
        summary = json.loads(out.read_text(encoding="utf-8"))
        assert summary["omega"] > 0
        assert len(summary["cri"]) == 8


def write_bench_config(path, **overrides):
    config = {
        "datasets": ["D1", "D2"],
        "strategies": ["RA", "IPW", "AIPW"],
        "n": 60,
        "reps": 2,
        "alpha": 0.05,
        "estimand": "ate",
        "calibration": "plugin",
        "seed": 17,
        "parallelism": 1,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


class TestBenchCommand:
    def test_row_cardinality(self, tmp_path):
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg)
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        lines = (tmp_path / "bench_report.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 2 * 3  # header + datasets x strategies
        assert (tmp_path / "bench_report.md").exists()

    def test_cell_without_a_successful_repetition_is_reported_unfaithful(self, tmp_path):
        # every D6 repetition at n=6 in two folds collapses an arm
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, datasets=["D6", "D1"], strategies=["RA", "AIPW"], n=6, reps=3,
                           folds=2, seed=1)
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        rows = (tmp_path / "bench_report.csv").read_text(encoding="utf-8").splitlines()
        assert [row for row in rows if row.startswith("D6,")] == [
            "D6,RA,6,0,0,0,1,0,0,false,3",
            "D6,AIPW,6,0,0,0,1,0,0,false,3",
        ]
        md = (tmp_path / "bench_report.md").read_text(encoding="utf-8")
        d6_rows = [line for line in md.splitlines() if line.startswith("| D6 ")]
        assert len(d6_rows) == 2 and not any("**" in line for line in d6_rows)

    def test_reps_floor_exits_2(self, tmp_path):
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, reps=1)
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 2
        assert "reps" in proc.stderr

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, typo_key=3)
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 2
        assert "typo_key" in proc.stderr

    def test_missing_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "bench.json"
        config = write_bench_config(cfg)
        del config["alpha"]
        cfg.write_text(json.dumps(config), encoding="utf-8")
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 2
        assert "alpha" in proc.stderr

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("seed", dict(seed=True)),
            ("reps", dict(reps=True)),
            ("n", dict(n=True)),
            ("n_grid", dict(n=None, n_grid=[60, True])),
            ("parallelism", dict(parallelism=True)),
            ("folds", dict(folds=2.5)),
            ("b_boot", dict(calibration="gpc", b_boot="x")),
            ("max_iter", dict(calibration="gpc", max_iter=False)),
            ("m_inducing", dict(estimand="cate", m_inducing=2.5)),
            ("k_points", dict(estimand="cate", k_points=True)),
            ("alpha", dict(alpha="0.05")),
            ("clip_eps", dict(clip_eps="x")),
            ("lambda_prop", dict(lambda_prop=True)),
            ("lambda_out", dict(lambda_out="0.001")),
            ("prior_mean", dict(prior_mean=[0])),
            ("prior_var", dict(prior_var="1")),
        ],
    )
    def test_mistyped_key_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, key, overrides):
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, **overrides)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "bench_report.csv").exists()

    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("datasets", dict(datasets=["D1", "d1 "])),
            ("strategies", dict(strategies=["RA", "AIPW", "ra"])),
            ("n_grid", dict(n=None, n_grid=[60, 60])),
        ],
    )
    def test_repeated_entry_exits_2_naming_its_key(
        self, tmp_path, capsys, monkeypatch, key, overrides
    ):
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, **overrides)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "bench_report.csv").exists()

    @pytest.mark.parametrize("k_points", [0, -3])
    def test_cate_k_points_below_one_exits_2(self, tmp_path, capsys, monkeypatch, k_points):
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, datasets=["D1"], strategies=["DR"], estimand="cate",
                           k_points=k_points)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "'k_points'" in capsys.readouterr().err
        assert not (tmp_path / "bench_report.csv").exists()

    @pytest.mark.parametrize("m_inducing", [0, -2])
    def test_cate_m_inducing_below_one_exits_2(self, tmp_path, capsys, monkeypatch, m_inducing):
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, datasets=["D1"], strategies=["DR"], estimand="cate",
                           m_inducing=m_inducing)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "'m_inducing'" in capsys.readouterr().err
        assert not (tmp_path / "bench_report.csv").exists()

    def test_cate_m_inducing_is_clipped_to_n(self, tmp_path, monkeypatch):
        # as in `fit --n 15`, the default 20 inducing points clip to n=15
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, datasets=["D2"], strategies=["DR"], estimand="cate", n=None,
                           n_grid=[15, 200], k_points=5)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "bench_report.csv").read_text(encoding="utf-8").strip().split("\n")
        assert [line.split(",")[2] for line in lines[1:]] == ["15", "200"]

    @pytest.mark.parametrize(
        "overrides, bad",
        [
            (dict(datasets=["D1", "D10"]), "'D10'"),
            (dict(strategies=["RA", "XYZ"]), "'XYZ'"),
        ],
    )
    def test_bad_last_entry_exits_2_before_any_cross_fit(
        self, tmp_path, capsys, monkeypatch, overrides, bad
    ):
        def unreachable(*args, **kwargs):
            pytest.fail("a cell ran before the whole config was checked")

        monkeypatch.setattr(bench_mod, "cross_fit", unreachable)
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, **overrides)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert bad in capsys.readouterr().err
        assert not (tmp_path / "bench_report.csv").exists()

    @pytest.mark.parametrize(
        "key, overrides",
        [
            # the sizes run in config order, so 25 folds would meet n=20 only
            # after the D8 cells at n=1000
            ("folds", dict(datasets=["D8"], strategies=["RA", "IPW", "AIPW"], n=None,
                           n_grid=[1000, 20], reps=6, folds=25)),
            ("folds", dict(folds=1)),
            ("b_boot", dict(calibration="gpc", b_boot=10)),
            ("max_iter", dict(calibration="gpc", max_iter=0)),
        ],
    )
    def test_fold_and_gpc_limits_exit_2_before_any_cross_fit(
        self, tmp_path, capsys, monkeypatch, key, overrides
    ):
        def unreachable(*args, **kwargs):
            pytest.fail("a cell ran before the fold and gpc limits were checked")

        monkeypatch.setattr(bench_mod, "cross_fit", unreachable)
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, **overrides)
        code = cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "bench_report.csv").exists()

    def test_fit_and_bench_share_defaults(self):
        fit = cli.build_parser().parse_args(["fit"])
        for key in ("folds", "clip_eps", "lambda_prop", "lambda_out", "b_boot", "max_iter",
                    "prior_mean", "prior_var", "m_inducing"):
            assert getattr(fit, key) == cli._BENCH_KEYS[key][0], key

    @pytest.mark.parametrize(
        "key, bad",
        [("alpha", 0.0), ("alpha", 1.0), ("folds", 1), ("b_boot", 49), ("max_iter", 0),
         ("m_inducing", 0)],
    )
    def test_fit_and_bench_share_limits(self, tmp_path, capsys, monkeypatch, key, bad):
        def unreachable(*args, **kwargs):
            pytest.fail("a limit was checked after the cross-fit")

        monkeypatch.setattr(cli, "cross_fit", unreachable)
        monkeypatch.setattr(bench_mod, "cross_fit", unreachable)
        monkeypatch.delenv("GBC_SEED", raising=False)
        flag = "--" + key.replace("_", "-")
        assert cli.main(["fit", "--dgp", "D1", "--n", "100", flag, str(bad)]) == 2
        fit_err = capsys.readouterr().err
        assert fit_err.startswith(f"error: {flag} must ")
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, **{key: bad})
        assert cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        bench_err = capsys.readouterr().err
        assert bench_err == fit_err.replace(flag, f"key {key!r}", 1)
        assert not (tmp_path / "bench_report.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("prior_mean", math.nan), ("prior_mean", math.inf), ("lambda_out", math.inf),
         ("lambda_prop", math.nan)],
    )
    def test_non_finite_setting_exits_2_before_any_cross_fit(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        # json.load accepts the NaN and Infinity tokens json.dumps writes
        def unreachable(*args, **kwargs):
            pytest.fail("a non-finite setting reached a cell")

        monkeypatch.setattr(bench_mod, "cross_fit", unreachable)
        monkeypatch.delenv("GBC_SEED", raising=False)
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, **{key: value})
        assert cli.main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not (tmp_path / "bench_report.csv").exists()

    def test_default_parallelism_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3

    def test_cate_estimand_runs(self, tmp_path):
        cfg = tmp_path / "bench.json"
        write_bench_config(
            cfg, datasets=["D1"], strategies=["DR"], estimand="cate", n=80,
            m_inducing=8, k_points=5,
        )
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        lines = (tmp_path / "bench_report.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 2

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize(
        "name, overrides",
        [
            # D6 at n=30 loses some repetitions to arm collapse: the failure
            # path, which at parallelism 2 also runs through the pool
            ("ate", dict(datasets=["D1", "D6"], strategies=["RA", "AIPW"], n=30, reps=12,
                         seed=0)),
            ("cate", dict(datasets=["D2"], strategies=["DR"], n=150, reps=3, estimand="cate",
                          m_inducing=10, k_points=25, seed=21)),
            ("ate_gpc", dict(datasets=["D1", "D2"], strategies=["RA", "AIPW"], n=60, reps=6,
                             calibration="gpc", b_boot=50, prior_var=1e6, seed=0)),
        ],
    )
    def test_reports_match_golden_bytes(self, tmp_path, name, overrides, parallelism):
        cfg = tmp_path / "bench.json"
        write_bench_config(cfg, parallelism=parallelism, **overrides)
        proc = run_cli(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        for ext in ("csv", "md"):
            got = (tmp_path / f"bench_report.{ext}").read_bytes()
            assert got == (GOLDEN_DIR / f"bench_{name}.{ext}").read_bytes()


def run_seeded(sub, out_dir, seed, env_extra=None):
    """Run a small dgp or bench command with the given flag/config seed;
    return the process and the CSV it writes."""
    out_dir.mkdir()
    if sub == "dgp":
        out = out_dir / "d1.csv"
        args = ["dgp", "--id", "D1", "--n", "20", "--seed", str(seed), "--out", str(out)]
    else:
        cfg = out_dir / "bench.json"
        write_bench_config(cfg, datasets=["D1"], strategies=["AIPW"], seed=seed)
        out = out_dir / "bench_report.csv"
        args = ["bench", "--config", str(cfg), "--out-dir", str(out_dir)]
    return run_cli(args, env_extra=env_extra), out


class TestSeedOverride:
    @pytest.mark.parametrize("sub", ["dgp", "bench"])
    def test_env_seed_overrides_flag(self, tmp_path, sub):
        proc_a, a = run_seeded(sub, tmp_path / "a", 7, env_extra={"GBC_SEED": "9"})
        proc_b, b = run_seeded(sub, tmp_path / "b", 9)
        assert proc_a.returncode == 0 and proc_b.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("sub", ["dgp", "bench"])
    def test_bad_env_seed_exits_2(self, tmp_path, sub):
        proc, _ = run_seeded(sub, tmp_path / "x", 7, env_extra={"GBC_SEED": "not-a-number"})
        assert proc.returncode == 2
        assert "GBC_SEED" in proc.stderr


class TestExperimentCommand:
    def test_slopes_row_cardinality(self, tmp_path):
        out = tmp_path / "slopes.csv"
        proc = run_cli([
            "experiment", "--kind", "slopes", "--dgp", "D1", "--n", "2000",
            "--deltas", "0.2,0.1,0.05", "--seed", "1", "--out", str(out),
        ])
        assert proc.returncode == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        # header + 3 strategies x (3 deltas + 1 slope row)
        assert len(lines) == 1 + 3 * 4
        assert lines[0] == "strategy,delta,shift,slope"

    def test_tv_csv_structure(self, tmp_path):
        out = tmp_path / "tv.csv"
        proc = run_cli([
            "experiment", "--kind", "tv", "--dgp", "D1", "--beta", "0.3",
            "--n-grid", "200,400", "--reps", "3", "--seed", "1", "--out", str(out),
        ])
        assert proc.returncode == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "n,r_n,tv_mean,tv_se"
        assert len(lines) == 3

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_tv_reps_below_one_exits_2(self, tmp_path, capsys, monkeypatch, reps):
        monkeypatch.delenv("GBC_SEED", raising=False)
        out = tmp_path / "tv.csv"
        code = cli.main([
            "experiment", "--kind", "tv", "--n-grid", "200", "--reps", reps, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "reps" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("beta", [["--beta", "nan"], ["--beta=-1"]])
    def test_tv_beta_below_zero_or_nan_exits_2(self, tmp_path, beta):
        out = tmp_path / "tv.csv"
        proc = run_cli([
            "experiment", "--kind", "tv", *beta, "--n-grid", "200", "--reps", "2",
            "--out", str(out),
        ])
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "beta" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("deltas", ["nan", "inf", "0.1,nan"])
    def test_slopes_non_finite_delta_exits_2(self, tmp_path, deltas):
        out = tmp_path / "slopes.csv"
        proc = run_cli([
            "experiment", "--kind", "slopes", "--deltas", deltas, "--n", "200",
            "--out", str(out),
        ])
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "delta_grid" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("deltas", ["0.1", "0.1,0.1"])
    def test_slopes_fewer_than_two_distinct_deltas_exits_2(self, tmp_path, deltas):
        out = tmp_path / "slopes.csv"
        proc = run_cli([
            "experiment", "--kind", "slopes", "--deltas", deltas, "--n", "10",
            "--out", str(out),
        ])
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "two distinct" in err[0]
        assert not out.exists()

    def test_slopes_zero_shift_exits_3(self, tmp_path):
        out = tmp_path / "slopes.csv"
        proc = run_cli([
            "experiment", "--kind", "slopes", "--deltas", "1e-16,1e-17", "--n", "1000",
            "--out", str(out),
        ])
        assert proc.returncode == 3
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "delta=1e-16" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "1"])
    def test_tv_sample_size_below_two_exits_2(self, tmp_path, size):
        out = tmp_path / "tv.csv"
        proc = run_cli([
            "experiment", "--kind", "tv", "--n-grid", size, "--reps", "2", "--out", str(out),
        ])
        assert proc.returncode == 2
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"got {size}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["inf", "nan", "1e30", "2.5", "200,2.5"])
    def test_tv_non_integer_sample_size_exits_2(self, tmp_path, grid):
        out = tmp_path / "tv.csv"
        proc = run_cli([
            "experiment", "--kind", "tv", "--n-grid", grid, "--reps", "2", "--out", str(out),
        ])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: --n-grid must be a comma-separated list of integers"
        ]
        assert not out.exists()

    def test_invalid_kind_exits_2(self, tmp_path):
        proc = run_cli(["experiment", "--kind", "nope", "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 2


class TestEntrypoint:
    """The process entry freezes the import-time heap out of the cyclic
    collector; `main`, which library callers and the tests use, does not."""

    def test_entrypoint_freezes_the_collector_before_main(self, monkeypatch):
        assert gc.get_freeze_count() == 0
        frozen = []
        monkeypatch.setattr(cli, "main", lambda argv: frozen.append(gc.get_freeze_count()) or 0)
        monkeypatch.setattr(sys, "argv", ["gbcausal", "fit"])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.entrypoint()
        finally:
            gc.unfreeze()
        assert exc.value.code == 0
        assert len(frozen) == 1 and frozen[0] > 0

    @pytest.mark.parametrize("flags", [
        ["--dgp", "D1", "--n", "300", "--calibration", "gpc", "--b-boot", "50",
         "--max-iter", "5", "--seed", "3"],
        ["--dgp", "D4", "--n", "100", "--estimand", "cate", "--engine", "exact-gp",
         "--calibration", "gpc", "--b-boot", "50", "--max-iter", "3", "--grid-size", "8",
         "--seed", "5"],
    ], ids=["ate-gpc", "cate-exact-gp-gpc"])
    def test_module_run_freezes_and_writes_the_bytes_of_main(self, tmp_path, monkeypatch, flags):
        monkeypatch.delenv("GBC_SEED", raising=False)
        sub, inproc = tmp_path / "sub.json", tmp_path / "main.json"
        # runs gbcausal as `python -m gbcausal` does, and reports the freeze count at exit
        code = (
            "import atexit, gc, runpy\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "runpy.run_module('gbcausal', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, "fit", *flags, "--out", str(sub)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        word, count = proc.stdout.splitlines()[-1].split()
        assert word == "frozen" and int(count) > 0
        assert cli.main(["fit", *flags, "--out", str(inproc)]) == 0
        assert gc.get_freeze_count() == 0
        assert sub.read_bytes() == inproc.read_bytes()

    def test_both_process_entries_start_at_the_entrypoint(self):
        # the installed command and `python -m gbcausal` lose the freeze
        # without any error if either starts anywhere else
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["gbcausal"] == "gbcausal.cli:entrypoint"
        main_py = (REPO / "src" / "gbcausal" / "__main__.py").read_text(encoding="utf-8")
        assert main_py == "from .cli import entrypoint\n\nentrypoint()\n"
