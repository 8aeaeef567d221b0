#!/usr/bin/env python3
"""Benchmark of the gbcausal package, driven through its ``gbcausal`` CLI.

    python3 perfbench/run.py --workload ate-grid --seed 1 --seconds 25 --trace 0

--trace 0 runs the workload's rounds as CLI subprocesses, one after another
(a closed loop with one client), until --seconds have passed, checks every
output and reports the end-to-end metrics. --trace 1 runs round 0 inside
this process: once untraced, then twice with every layer function wrapped,
and reports per-layer self times and counts. The last line of stdout is the
result object. See README.md for the workloads and metrics.

The program is run from the checkout's own ``src`` tree. Nothing here sets a
BLAS or OpenMP thread variable: users do not, and the oversubscription that
follows is part of what the benchmark has to show.
"""

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import layertrace
from checks import CheckFailed, require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
CALL_TIMEOUT_S = 170
POOL_WORKERS = 2
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# The paper's headline table: 9 DGPs x {RA, IPW, AIPW}, closed-form posterior,
# plug-in omega. D8's 152-feature propensity IRLS dominates its time.
ATE_GRID = {
    "datasets": [f"D{i}" for i in range(1, 10)],
    "strategies": ["RA", "IPW", "AIPW"],
    "n": 1000,
    "reps": 6,
    "alpha": 0.05,
    "estimand": "ate",
    "calibration": "plugin",
}

# CATE coverage through the sparse GP; svgp_fit's Adam epochs dominate.
CATE_SVGP = {
    "datasets": ["D2", "D4", "D9"],
    "strategies": ["DR"],
    "n": 1000,
    "reps": 4,
    "alpha": 0.05,
    "estimand": "cate",
    "calibration": "plugin",
    "m_inducing": 20,
    "k_points": 100,
}

CSV_ROWS = 100_000
# One round of the fit-cli workload: (estimand, rows, flags). "{csv}" stands
# for the CSV written at setup.
FIT_REQUESTS = (
    ("ate", 1000, ["--dgp", "D1", "--n", "1000", "--engine", "closed", "--calibration", "plugin"]),
    ("ate", 1000, ["--dgp", "D2", "--n", "1000", "--engine", "vi", "--calibration", "gpc"]),
    ("ate", 1000, ["--dgp", "D8", "--n", "1000", "--engine", "closed", "--calibration", "gpc"]),
    ("cate", 1000, ["--dgp", "D2", "--n", "1000", "--engine", "vi"]),
    ("cate", 1000, ["--dgp", "D9", "--n", "1000", "--engine", "exact-gp"]),
    ("ate", CSV_ROWS, ["--data", "{csv}", "--engine", "closed"]),
    ("cate", 300, ["--dgp", "D4", "--n", "300", "--engine", "exact-gp", "--calibration", "gpc",
                   "--b-boot", "50", "--max-iter", "5"]),
)


def derive_seed(*parts):
    """Program seed for one round or request, a pure function of ``parts``."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Call:
    """One ``gbcausal`` invocation: its arguments, where it writes, how many
    operations it attempts, and the check of what it wrote."""

    argv: list
    output: Path
    ops: int
    check: Callable[[], tuple]

    def output_bytes(self):
        if self.output.is_dir():
            return {p.name: p.read_bytes() for p in sorted(self.output.iterdir())}
        return self.output.read_bytes()


class BenchWorkload:
    def __init__(self, config, pool_pass=False):
        self.config = config
        self.pool_pass = pool_pass

    def make_inputs(self, seed, inputs):
        inputs.mkdir(parents=True, exist_ok=True)

    def round_calls(self, seed, r, inputs, outputs, parallelism=1):
        config = dict(self.config, seed=derive_seed(seed, r))
        path = inputs / f"round{r}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        out = outputs / f"round{r}"
        argv = ["bench", "--config", str(path), "--out-dir", str(out),
                "--parallelism", str(parallelism)]
        ops = len(config["datasets"]) * len(config["strategies"]) * config["reps"]
        return [Call(argv, out, ops, functools.partial(checks.bench_report, config, out))]


class FitWorkload:
    pool_pass = False

    def make_inputs(self, seed, inputs):
        inputs.mkdir(parents=True, exist_ok=True)
        write_rows_csv(inputs / "rows.csv", derive_seed(seed, "csv"), CSV_ROWS)

    def round_calls(self, seed, r, inputs, outputs, parallelism=1):
        outputs.mkdir(parents=True, exist_ok=True)
        calls = []
        for i, (estimand, n, flags) in enumerate(FIT_REQUESTS):
            out = outputs / f"round{r}-fit{i}.json"
            argv = ["fit", "--estimand", estimand,
                    *[f.format(csv=inputs / "rows.csv") for f in flags],
                    "--seed", str(derive_seed(seed, r, i)), "--out", str(out)]
            calls.append(Call(argv, out, 1, functools.partial(checks.fit_summary, out, estimand, n)))
        return calls


WORKLOADS = {
    "ate-grid": BenchWorkload(ATE_GRID, pool_pass=True),
    "cate-svgp": BenchWorkload(CATE_SVGP),
    "fit-cli": FitWorkload(),
}


def write_rows_csv(path, seed, n):
    """Confounded two-covariate design with a unit treatment effect, in the
    CLI's CSV format (x1,x2,a,y)."""
    rng = random.Random(seed)
    lines = ["x1,x2,a,y"]
    for _ in range(n):
        x1, x2 = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        a = 1 if rng.random() < 1.0 / (1.0 + math.exp(-(0.5 * x1 - 0.25 * x2))) else 0
        y = 1.0 + x1 + 0.5 * math.sin(x2) + a + rng.gauss(0.0, 1.0)
        lines.append(f"{x1!r},{x2!r},{a},{y!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def program_env():
    env = dict(os.environ)
    env.pop("GBC_SEED", None)  # it would override every --seed passed below
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_program(args, env, cwd):
    """Run ``python3 <args>`` and wait for it; returns (seconds, process)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{args} ran past {CALL_TIMEOUT_S} s") from None
    return time.perf_counter() - start, proc


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, with that percentile; (None, None) below eleven samples."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return None, None
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def measure(workload, seed, seconds, run_dir):
    """Untraced run: end-to-end metrics."""
    env = program_env()
    inputs, outputs = run_dir / "inputs", run_dir / "outputs"
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _, proc = run_program(["-c", "import gbcausal.cli"], env, run_dir)
        require(proc.returncode == 0, f"importing gbcausal failed:\n{proc.stderr}")
        workload.make_inputs(seed, inputs)
        setup.append(time.perf_counter() - start)

    done = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for kind, call in enumerate(workload.round_calls(seed, rounds, inputs, outputs)):
            latency, proc = run_program(["-m", "gbcausal", *call.argv], env, run_dir)
            done.append((rounds, kind, call, latency, proc))
        rounds += 1

    attempted = failed = 0
    gaps = []
    round_ops = [0] * rounds
    round_s = [0.0] * rounds
    kind_latencies = defaultdict(list)
    for r, kind, call, latency, proc in done:
        attempted += call.ops
        round_s[r] += latency
        kind_latencies[kind].append(latency)
        if proc.returncode != 0:
            print(f"gbcausal {' '.join(call.argv)} exited {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
            failed += call.ops
            continue
        call_failed, gap = call.check()
        failed += call_failed
        round_ops[r] += call.ops - call_failed
        if r == 0 and gap is not None:
            gaps.append(gap)

    # Medians over rounds and over the calls of one kind: on a shared
    # machine with multi-threaded BLAS, single rounds swing by 20%.
    latencies = [latency for _, _, _, latency, _ in done]
    tail, tail_pct = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "reps_per_s": statistics.median(o / s for o, s in zip(round_ops, round_s)),
        "call_p50_s": statistics.median(latencies),
        "slowest_p50_s": max(statistics.median(v) for v in kind_latencies.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    info = {
        "rounds": rounds,
        "calls": len(latencies),
        "setup_samples_s": setup,
        "call_latencies_s": latencies,
        "tail_s": tail,
        "tail_percentile": tail_pct,
        "failed_frac": failed / attempted,
        "coverage_gap_round0": sum(gaps) / len(gaps) if gaps else None,
    }
    return metrics, attempted, failed, info


def run_in_process(cli, calls):
    """Run calls through ``gbcausal.cli.main``; returns (seconds, exit codes)."""
    codes = []
    start = time.perf_counter()
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(call.argv))
    return time.perf_counter() - start, codes


def same_outputs(reference, calls, what):
    for ref, call in zip(reference, calls):
        require(ref.output_bytes() == call.output_bytes(),
                f"{what}: {call.output} differs from {ref.output}")


def trace_run(workload, seed, run_dir):
    """Traced run of round 0: per-layer metrics."""
    inputs, outputs = run_dir / "inputs", run_dir / "outputs"
    workload.make_inputs(seed, inputs)
    os.environ.pop("GBC_SEED", None)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("gbcausal.cli")
    import_s = time.perf_counter() - start
    require(Path(cli.__file__).resolve().is_relative_to(SRC), f"gbcausal imported from {cli.__file__}")

    def round0(tag, parallelism=1):
        return workload.round_calls(seed, 0, inputs, outputs / tag, parallelism)

    untraced = round0("untraced")
    untraced_s, codes = run_in_process(cli, untraced)
    attempted = failed = 0
    gaps = []
    for call, code in zip(untraced, codes):
        attempted += call.ops
        if code != 0:
            failed += call.ops
            continue
        call_failed, gap = call.check()
        failed += call_failed
        if gap is not None:
            gaps.append(gap)

    tracer = layertrace.Tracer()
    tracer.install()
    passes = []
    try:
        for tag in ("traced-a", "traced-b"):
            calls = round0(tag)
            wall, traced_codes = run_in_process(cli, calls)
            require(traced_codes == codes, f"{tag}: exit codes {traced_codes} != untraced {codes}")
            same_outputs(untraced, calls, tag)
            passes.append((wall, list(tracer.spans)))
            if tag == "traced-a":
                tracer.write(run_dir / "spans.jsonl")
            tracer.reset()
    finally:
        tracer.uninstall()
    (traced_s, spans), (_, spans_b) = passes
    require(layertrace.counts(spans) == layertrace.counts(spans_b),
            "layer counts differ between two traced runs at one seed")

    metrics = layertrace.layer_metrics(spans, traced_s)
    busy = layertrace.busy_time(spans)
    metrics.update({
        "cli.import_s": import_s,
        # Two untraced passes of one round differ by up to 20% on a shared
        # machine, so the overhead is the measured cost of one wrapper times
        # the number of spans, not the difference of two passes.
        "trace.overhead_frac": len(spans) * layertrace.span_cost() / traced_s,
        "bench.coverage_gap": sum(gaps) / len(gaps) if gaps else 0.0,
        "bench.serial_busy_s": busy,
        "bench.par2_wall_s": 0.0,
        "bench.par2_cell_max_s": 0.0,
        "bench.pool_efficiency": 0.0,
    })
    if workload.pool_pass:
        # Spans recorded inside pool workers never reach this process, so
        # only the cells, which the parent runs, are wrapped for this pass.
        pool_tracer = layertrace.Tracer()
        pool_tracer.install(only=layertrace.BENCH_CELLS)
        try:
            pooled = round0("par2", POOL_WORKERS)
            par2_s, pool_codes = run_in_process(cli, pooled)
        finally:
            pool_tracer.uninstall()
        require(pool_codes == codes, f"par2: exit codes {pool_codes} != serial {codes}")
        same_outputs(untraced, pooled, f"--parallelism {POOL_WORKERS}")
        metrics.update({
            "bench.par2_wall_s": par2_s,
            "bench.par2_cell_max_s": max(e - s for _, s, e, _, _ in pool_tracer.spans),
            "bench.pool_efficiency": busy / (POOL_WORKERS * par2_s),
        })

    info = {"untraced_s": untraced_s, "traced_s": traced_s, "spans_file": "spans.jsonl"}
    return metrics, attempted, failed, info


def declared_units(kind):
    """{metric: unit} of one metric list in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(load_before):
    # Imported only now, so a traced run times the program's own first
    # import of numpy and scipy in cli.import_s.
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def run_all(args):
    """Every workload in turn, each in a fresh process."""
    status = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gbcausal" / "cli.py").is_file():
        print(f"error: no gbcausal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    load_before = os.getloadavg()
    try:
        if args.trace:
            metrics, attempted, failed, info = trace_run(workload, args.seed, run_dir)
        else:
            metrics, attempted, failed, info = measure(workload, args.seed, args.seconds, run_dir)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        require(set(metrics) == set(units),
                f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    for bulky in ("inputs", "outputs"):
        shutil.rmtree(run_dir / bulky, ignore_errors=True)

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(load_before), "info": info,
              "result": result}
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: " + ", ".join(
        f"{name}={value:.6g} {units[name]}" for name, value in metrics.items()))
    print("info " + json.dumps({k: v for k, v in info.items() if not isinstance(v, list)}))
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
