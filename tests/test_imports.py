"""Startup cost: no gbcausal process loads scipy. Importing the CLI, each of
the benchmark's seven fit requests and a bench over every DGP (D7's
Student-t noise included) run on numpy and the standard library alone, and
none of them loads the process pool, which only a bench at parallelism > 1
imports. Only `bench` and `experiment` load the bench module: importing the
CLI and every fit request skip it. The import-time heap is frozen out of the
cyclic collector by `cli.entrypoint` alone (`tests/test_cli.py`), so these
in-process `cli.main` calls run with the collector as it was.

Also pinned here: the package's exports, that the posterior modules
`gibbs_ate` and `gibbs_cate` take a plain pseudo-outcome array and so import
nothing of the nuisance or dataset layers, and that no module of the package
or of its tests imports a name it never reads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbcausal

SRC = str(Path(gbcausal.__file__).resolve().parents[1])

# Defines report(), which prints the scipy, multiprocessing and
# concurrent.futures.process modules loaded so far as one line, and
# report_bench(), which prints whether gbcausal.bench is loaded.
_PRELUDE = """import json, sys
def report():
    print(json.dumps(sorted(m for m in sys.modules
                            if m.split('.')[0] in ('scipy', 'multiprocessing')
                            or m == 'concurrent.futures.process')))
def report_bench():
    print('bench loaded' if 'gbcausal.bench' in sys.modules else 'bench not loaded')
"""


def _stdout_lines(code, *args):
    """Run `code` in a fresh interpreter, with `args` as sys.argv[1:], and
    return the lines it printed."""
    env = dict(os.environ)
    env.pop("GBC_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code, *args], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def heavy_modules_after(code, *args):
    """What each report() call of `code` saw."""
    return [json.loads(line) for line in _stdout_lines(code, *args) if line.startswith("[")]


def bench_loaded_after(code, *args):
    """What each report_bench() call of `code` saw: True where gbcausal.bench
    was loaded."""
    return [line == "bench loaded" for line in _stdout_lines(code, *args)
            if line.startswith("bench")]


def test_the_check_sees_scipy():
    assert "scipy.special" in heavy_modules_after("import scipy.special\nreport()")[0]


def test_the_check_sees_the_process_pool():
    seen = heavy_modules_after("from concurrent.futures import ProcessPoolExecutor\nreport()")[0]
    assert {"concurrent.futures.process", "multiprocessing"} <= set(seen)


def test_importing_the_cli_loads_no_scipy():
    assert heavy_modules_after("import gbcausal.cli\nreport()") == [[]]


# The fit requests of the benchmark's fit-cli workload; the CSV is smaller.
_FIT_REQUESTS = [
    ["ate", "--dgp", "D1", "--n", "1000", "--engine", "closed", "--calibration", "plugin"],
    ["ate", "--dgp", "D2", "--n", "1000", "--engine", "vi", "--calibration", "gpc"],
    ["ate", "--dgp", "D8", "--n", "1000", "--engine", "closed", "--calibration", "gpc"],
    ["cate", "--dgp", "D2", "--n", "1000", "--engine", "vi"],
    ["cate", "--dgp", "D9", "--n", "1000", "--engine", "exact-gp"],
    ["ate", "--data", "{csv}", "--engine", "closed"],
    ["cate", "--dgp", "D4", "--n", "300", "--engine", "exact-gp", "--calibration", "gpc",
     "--b-boot", "50", "--max-iter", "5"],
]


def _fit_requests_code(tmp_path, report):
    """Code that writes a CSV to sys.argv[1], runs each fit request through
    cli.main in one process, and calls `report` after the CSV and each fit."""
    csv = tmp_path / "rows.csv"
    code = (
        "from gbcausal import cli, dataset, dgp\nfrom gbcausal.numerics import Rng\n"
        "dataset.write_csv(dgp.generate(dgp.default_spec('D1'), 500, Rng(3)), sys.argv[1])\n"
        f"{report}()\n"
    )
    for i, request in enumerate(_FIT_REQUESTS):
        argv = ["fit", "--estimand", *[f.format(csv=csv) for f in request], "--seed", str(11 + i),
                "--out", str(tmp_path / f"fit{i}.json")]
        code += f"assert cli.main({argv!r}) == 0\n{report}()\n"
    return code, str(csv)


def test_each_fit_request_loads_no_scipy(tmp_path):
    code, csv = _fit_requests_code(tmp_path, "report")
    assert heavy_modules_after(code, csv) == [[]] * (1 + len(_FIT_REQUESTS))


def test_fit_does_not_load_the_bench_module(tmp_path):
    assert bench_loaded_after("import gbcausal.cli\nreport_bench()") == [False]
    code, csv = _fit_requests_code(tmp_path, "report_bench")
    assert bench_loaded_after(code, csv) == [False] * (1 + len(_FIT_REQUESTS))


def test_bench_and_experiment_load_the_bench_module(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "datasets": ["D1"], "strategies": ["RA"], "n": 60, "reps": 2, "alpha": 0.05,
        "estimand": "ate", "calibration": "plugin", "seed": 5,
    }))
    runs = [
        ["bench", "--config", str(config), "--out-dir", str(tmp_path / "out"),
         "--parallelism", "1"],
        ["experiment", "--kind", "tv", "--n-grid", "200,400", "--reps", "2",
         "--out", str(tmp_path / "tv.csv")],
    ]
    for argv in runs:
        code = (f"from gbcausal import cli\nreport_bench()\n"
                f"assert cli.main({argv!r}) == 0\nreport_bench()\n")
        assert bench_loaded_after(code) == [False, True]


def test_a_bench_over_every_dgp_loads_no_scipy(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "datasets": [f"D{i}" for i in range(1, 10)], "strategies": ["RA"], "n": 60, "reps": 2,
        "alpha": 0.05, "estimand": "ate", "calibration": "plugin", "seed": 5,
    }))
    argv = ["bench", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--parallelism", "1"]
    code = f"from gbcausal import cli\nassert cli.main({argv!r}) == 0\nreport()\n"
    assert heavy_modules_after(code) == [[]]


def test_every_export_resolves_once_and_star_imports():
    names = gbcausal.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gbcausal, name)] == []
    namespace = {}
    exec("from gbcausal import *", namespace)
    assert set(names) <= namespace.keys()


@pytest.mark.parametrize("module", ["gibbs_ate", "gibbs_cate"])
def test_posterior_modules_import_only_errors_and_numerics(module):
    tree = ast.parse(Path(SRC, "gbcausal", f"{module}.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"errors", "numerics"}


def _unread_imports(path):
    """'file:line name' of each name `path` imports and never reads; a name
    listed in its __all__ counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    files = sorted(Path(SRC, "gbcausal").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [entry for path in files for entry in _unread_imports(path)] == []
