"""The traced benchmark (perfbench/) wraps gbcausal functions by name and
treats each ``run_*_bench`` call as one bench cell; these tests pin the
names it looks up, the one-call-per-cell shape of ``gbcausal bench``, and
the module-level helpers through which every sparse CATE fit passes."""

import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

from gbcausal import bench, cli, gibbs_cate, numerics

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
SPARSE_HELPERS = ("_whitened_optimum", "_sparse_moments")


def _load_layertrace():
    # exec the source instead of importing it, so nothing is written beside it
    module = types.ModuleType("layertrace")
    module.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(encoding="utf-8"), str(LAYERTRACE), "exec"), module.__dict__)
    return module


def _count_calls(monkeypatch, owner, names):
    """Wrap each named function of `owner` with a call counter; returns the
    counts, which the wrappers update."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    monkeypatch.delenv("GBC_SEED", raising=False)
    return calls


def test_every_traced_layer_function_resolves():
    layertrace = _load_layertrace()
    assert layertrace.LAYER_FUNCTIONS
    for module_name, attr, _ in layertrace.LAYER_FUNCTIONS:
        owner = importlib.import_module(f"gbcausal.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"gbcausal.{module_name}.{attr}"


@pytest.mark.parametrize(
    "config, cells",
    [
        ({"datasets": ["D1", "D2"], "strategies": ["RA", "AIPW"], "n": 60, "reps": 2,
          "estimand": "ate"}, {"run_ate_bench": 4, "run_cate_bench": 0}),
        ({"datasets": ["D2"], "strategies": ["DR"], "n": 80, "reps": 2, "estimand": "cate",
          "m_inducing": 8, "k_points": 5}, {"run_ate_bench": 0, "run_cate_bench": 1}),
    ],
)
def test_bench_calls_each_cell_function_once_per_cell(tmp_path, monkeypatch, config, cells):
    calls = _count_calls(monkeypatch, bench, cells)
    path = tmp_path / "bench.json"
    path.write_text(
        json.dumps({"alpha": 0.05, "calibration": "plugin", "seed": 3, **config}),
        encoding="utf-8",
    )
    code = cli.main(
        ["bench", "--config", str(path), "--out-dir", str(tmp_path), "--parallelism", "1"]
    )
    assert code == 0
    assert calls == cells
    rows = (tmp_path / "bench_report.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 1 + sum(cells.values())


def test_sparse_fit_helpers_are_looked_up_by_module_name(tmp_path, monkeypatch):
    # The resampler's fit is a closure the tracer cannot wrap; it reaches the
    # sparse closed form through these two module-level names, so wrapping
    # them by name catches every sparse fit.
    calls = _count_calls(monkeypatch, gibbs_cate, SPARSE_HELPERS)
    code = cli.main([
        "fit", "--dgp", "D2", "--n", "80", "--estimand", "cate", "--engine", "vi",
        "--m-inducing", "8", "--grid-size", "5", "--out", str(tmp_path / "fit.json"),
    ])
    assert code == 0
    assert calls == {"_whitened_optimum": 1, "_sparse_moments": 1}

    calls = _count_calls(monkeypatch, gibbs_cate, SPARSE_HELPERS)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({
        "datasets": ["D2"], "strategies": ["DR"], "n": 80, "reps": 2, "estimand": "cate",
        "m_inducing": 8, "k_points": 5, "alpha": 0.05, "calibration": "plugin", "seed": 3,
    }), encoding="utf-8")
    code = cli.main(
        ["bench", "--config", str(path), "--out-dir", str(tmp_path), "--parallelism", "1"]
    )
    assert code == 0
    assert calls == {"_whitened_optimum": 2, "_sparse_moments": 2}


@pytest.mark.parametrize("a", [[[2.0, 1.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]]],
                         ids=["spd", "needs_jitter"])
@pytest.mark.parametrize("b", [[1.0, 2.0], [[1.0], [2.0]]], ids=["vector", "matrix"])
def test_cholesky_solve_factors_once_through_the_module_name(monkeypatch, a, b):
    # The tracer counts numerics.cholesky_factor calls, and nuisance.irls_steps
    # as the cholesky_solve spans under fit_propensity, by wrapping the module
    # attributes; a solve that factored without that lookup, or twice, would
    # change the traced counts.
    calls = _count_calls(monkeypatch, numerics, ["cholesky_factor"])
    x = numerics.cholesky_solve(np.array(a), np.array(b))
    assert calls == {"cholesky_factor": 1}
    assert x.shape == np.shape(b)


def test_sparse_fit_factors_once_and_solves_on_that_factor(monkeypatch):
    # The tracer counts cholesky_factor calls under both names it is bound
    # to, and the cholesky_solve spans. Each sparse fit factors its M x M
    # matrix once and solves on that factor; a fit that went through
    # cholesky_solve would factor twice and change the traced counts.
    rng = numerics.Rng(5)
    x, values, query = rng.normal((60, 2)), rng.normal(60), rng.normal((7, 2))
    fit = gibbs_cate.sparse_gp_resampler(gibbs_cate.KernelParams(), x, values, query, 8,
                                         numerics.Rng(6))
    local = _count_calls(monkeypatch, gibbs_cate, ["cholesky_factor"])
    calls = _count_calls(monkeypatch, numerics, ["cholesky_factor", "cholesky_solve"])
    for b in range(3):
        fit(numerics.Rng(7).derive(b).integers(60, 60), 0.5)
        assert local == {"cholesky_factor": b + 1}
    assert calls == {"cholesky_factor": 0, "cholesky_solve": 0}
