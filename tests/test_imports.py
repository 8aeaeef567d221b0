"""Startup cost: no gbcausal process loads scipy. Importing the CLI, each of
the benchmark's seven fit requests and a bench over every DGP (D7's
Student-t noise included) run on numpy and the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gbcausal

SRC = str(Path(gbcausal.__file__).resolve().parents[1])

# Defines report(), which prints the scipy modules loaded so far as one line.
_PRELUDE = """import json, sys
def report():
    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


def scipy_modules_after(code, *args):
    """Run `code` in a fresh interpreter, with `args` as sys.argv[1:], and
    return what each of its report() calls saw."""
    env = dict(os.environ)
    env.pop("GBC_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code, *args], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


def test_the_check_sees_scipy():
    assert "scipy.special" in scipy_modules_after("import scipy.special\nreport()")[0]


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import gbcausal.cli\nreport()") == [[]]


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


def test_each_fit_request_loads_no_scipy(tmp_path):
    csv = tmp_path / "rows.csv"
    code = (
        "from gbcausal import cli, dataset, dgp\nfrom gbcausal.numerics import Rng\n"
        "dataset.write_csv(dgp.generate(dgp.default_spec('D1'), 500, Rng(3)), sys.argv[1])\n"
        "report()\n"
    )
    for i, request in enumerate(_FIT_REQUESTS):
        argv = ["fit", "--estimand", *[f.format(csv=csv) for f in request], "--seed", str(11 + i),
                "--out", str(tmp_path / f"fit{i}.json")]
        code += f"assert cli.main({argv!r}) == 0\nreport()\n"
    assert scipy_modules_after(code, str(csv)) == [[]] * (1 + len(_FIT_REQUESTS))


def test_a_bench_over_every_dgp_loads_no_scipy(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "datasets": [f"D{i}" for i in range(1, 10)], "strategies": ["RA"], "n": 60, "reps": 2,
        "alpha": 0.05, "estimand": "ate", "calibration": "plugin", "seed": 5,
    }))
    argv = ["bench", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--parallelism", "1"]
    code = f"from gbcausal import cli\nassert cli.main({argv!r}) == 0\nreport()\n"
    assert scipy_modules_after(code) == [[]]
