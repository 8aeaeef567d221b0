"""Output checks on what the gbcausal CLI writes.

Every check raises CheckFailed; the benchmark exits nonzero on the first
one rather than folding a wrong answer into a metric.
"""

import csv
import json
import math

REPORT_HEADER = [
    "dataset", "strategy", "n", "reps", "coverage", "cov_ci_lo", "cov_ci_hi",
    "mean_len", "sd_len", "faithful", "failures",
]


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _finite(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def bench_report(config, out_dir):
    """Check one ``gbcausal bench`` report against the config that made it.

    One row per (dataset, strategy) cell in config order, reps + failures
    equal to the reps attempted, coverage inside its own Wilson interval,
    and a markdown table with one line per dataset in each of its two
    tables. Returns (failed repetitions, coverage gap), the gap being the
    mean over cells of |coverage - (1 - alpha)|.
    """
    with open(out_dir / "bench_report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == REPORT_HEADER, f"{out_dir}: unexpected report header {rows[:1]}")
    cells = [
        (dataset, strategy.strip().upper())
        for dataset in config["datasets"]
        for strategy in config["strategies"]
    ]
    body = rows[1:]
    require(len(body) == len(cells), f"{out_dir}: {len(body)} rows for {len(cells)} cells")
    nominal = 1.0 - config["alpha"]
    failed = 0
    gaps = []
    for row, (dataset, strategy) in zip(body, cells):
        where = f"{out_dir}: row {dataset}/{strategy}"
        require(len(row) == len(REPORT_HEADER), f"{where} has {len(row)} fields")
        require(row[:3] == [dataset, strategy, str(config["n"])],
                f"{where} is out of order: {row[:3]}")
        reps, failures = int(row[3]), int(row[10])
        require(reps + failures == config["reps"],
                f"{where}: reps {reps} + failures {failures} != {config['reps']} attempted")
        coverage, lo, hi = float(row[4]), float(row[5]), float(row[6])
        require(0.0 <= lo <= coverage <= hi <= 1.0,
                f"{where}: coverage {coverage} outside its Wilson interval ({lo}, {hi})")
        require(reps == 0 or float(row[7]) > 0.0, f"{where}: mean length {row[7]} is not positive")
        failed += failures
        gaps.append(abs(coverage - nominal))
    with open(out_dir / "bench_report.md", encoding="utf-8") as fh:
        md = fh.read()
    for dataset in config["datasets"]:
        label = f"| {dataset} (n={config['n']}) |"
        require(md.count(label) == 2, f"{out_dir}: markdown has {md.count(label)} rows for {dataset}")
    return failed, sum(gaps) / len(gaps)


def fit_summary(path, estimand, n):
    """Check one ``gbcausal fit`` JSON summary: it parses, omega is finite
    and positive, and lo < mean < hi at every reported point."""
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path}: unreadable fit summary: {exc}") from None
    require(summary.get("estimand") == estimand, f"{path}: estimand {summary.get('estimand')!r}")
    require(summary.get("n") == n, f"{path}: n {summary.get('n')!r}, expected {n}")
    omega = summary.get("omega")
    require(_finite(omega) and omega > 0, f"{path}: omega {omega!r} is not finite and positive")
    if estimand == "ate":
        points = [(summary["posterior"], summary["cri"])]
    else:
        points = list(zip(summary["posterior"]["pointwise"], summary["cri"]))
        require(len(points) == min(100, n) and len(summary["cri"]) == len(points),
                f"{path}: {len(points)} CATE points")
    for index, (post, cri) in enumerate(points):
        mean, sd, lo, hi = post.get("mean"), post.get("sd"), cri.get("lo"), cri.get("hi")
        require(all(_finite(v) for v in (mean, sd, lo, hi)),
                f"{path}: point {index} has a non-finite value")
        require(lo < mean < hi, f"{path}: point {index}: not lo {lo} < mean {mean} < hi {hi}")
    return 0, None
