"""Command-line surface binding the pipeline end to end.

Subcommands: ``dgp`` (emit a synthetic dataset as CSV), ``fit`` (one
posterior fit, JSON summary), ``bench`` (Monte Carlo coverage/length study
from a JSON config, CSV + markdown reports), ``experiment`` (orthogonality
slopes and TV-stability runs, CSV).

``fit`` runs one pipeline for both estimands; only the posterior and its
credible set depend on the estimand. Flags shared with the bench config
take their defaults and limits from the bench key table.

Exit codes: 0 success, 2 configuration or file error, 3 numeric failure. The
environment variable GBC_SEED, when set, overrides --seed everywhere.
"""

import argparse
import json
import os
import sys
from functools import partial

import numpy as np

from . import bench as bench_mod
from . import dgp as dgp_mod
from .calibrate import gpc_omega_cate_from_pseudo, gpc_omega_from_pseudo, plugin_omega
from .dataset import read_csv, write_csv
from .errors import ConfigError, GbcError, SchemaError
from .gibbs_ate import (
    NormalPrior,
    closed_form_posterior,
    credible_interval,
    vi_posterior,
)
from .gibbs_cate import KernelParams, check_exact_n, exact_gp_resampler, sparse_gp_resampler
from .nuisance import NuisanceConfig, cross_fit
from .numerics import Rng, blas_threads, normal_quantile
from .pseudo import Strategy, cross_fitted_pseudo


def _resolve_seed(fallback):
    """GBC_SEED when set, else the seed given by flag or config."""
    env = os.environ.get("GBC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"GBC_SEED must be an integer, got {env!r}") from None
    return fallback


def _add_nuisance_flags(p):
    p.add_argument("--folds", type=int, default=_BENCH_KEYS["folds"][0],
                   help="cross-fitting folds (default: %(default)s)")
    p.add_argument("--clip-eps", type=float, default=_BENCH_KEYS["clip_eps"][0],
                   help="propensity clip bound (default: %(default)s)")
    p.add_argument("--lambda-prop", type=float, default=_BENCH_KEYS["lambda_prop"][0],
                   help="propensity slope penalty on standardised features "
                        "(default: chosen per training fold by Laplace evidence)")
    p.add_argument("--lambda-out", type=float, default=_BENCH_KEYS["lambda_out"][0],
                   help="outcome ridge penalty (default: %(default)s)")


def _add_kernel_flags(p):
    p.add_argument("--kernel", choices=["Matern52", "RBF"], default="Matern52",
                   help="GP kernel family (default: %(default)s)")
    p.add_argument("--lengthscale", type=float, default=2.0,
                   help="kernel lengthscale (default: %(default)s)")
    p.add_argument("--variance", type=float, default=2.0,
                   help="kernel variance (default: %(default)s)")
    p.add_argument("--jitter", type=float, default=1e-4,
                   help="diagonal jitter (default: %(default)s)")


def cmd_dgp(args):
    seed = _resolve_seed(args.seed)
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    spec = dgp_mod.default_spec(args.id)
    ds = dgp_mod.generate(spec, args.n, Rng(seed))
    write_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


def _fit_dataset(args, seed):
    if (args.data is None) == (args.dgp is None):
        raise ConfigError("provide exactly one of --data or --dgp")
    if args.dgp is not None:
        if args.n is None:
            raise ConfigError("--dgp requires --n")
        if args.n < 1:
            raise ConfigError("--n must be >= 1")
        return dgp_mod.generate(dgp_mod.default_spec(args.dgp), args.n, Rng(seed).derive(0))
    return read_csv(args.data)


def cmd_fit(args):
    seed = _resolve_seed(args.seed)
    if args.grid_size < 1:
        raise ConfigError("--grid-size must be >= 1")
    if args.estimand == "cate" and args.engine == "closed":
        raise ConfigError("engine=closed is only valid for estimand=ate; use vi or exact-gp")
    if args.estimand == "ate" and args.engine == "exact-gp":
        raise ConfigError("engine=exact-gp is only valid for estimand=cate")
    for key in ("alpha", "folds", "b_boot", "max_iter", "m_inducing"):
        _check(key, getattr(args, key), "--" + key.replace("_", "-"))

    # every flag is checked before the data are read or drawn
    strategy = Strategy.parse(args.strategy)
    config = NuisanceConfig(
        clip_eps=args.clip_eps, lambda_prop=args.lambda_prop, lambda_out=args.lambda_out
    )
    prior = NormalPrior(m0=args.prior_mean, s0_sq=args.prior_var)
    if args.estimand == "cate":
        kernel = KernelParams(family=args.kernel, lengthscale=args.lengthscale,
                              variance=args.variance, jitter=args.jitter)

    rng = Rng(seed)
    ds = _fit_dataset(args, seed)
    if args.engine == "exact-gp":
        check_exact_n(ds.n)
    cf = cross_fit(ds, args.folds, config, rng.derive(1))
    pv = cross_fitted_pseudo(ds, cf, strategy)

    if args.estimand == "cate":
        x_query = ds.x[rng.derive(4).permutation(ds.n)[:min(args.grid_size, ds.n)]]
        if args.engine == "vi":
            fit = sparse_gp_resampler(
                kernel, ds.x, pv.values, x_query, min(args.m_inducing, ds.n), rng.derive(3)
            )
        else:
            fit = exact_gp_resampler(kernel, ds.x, pv.values, x_query)

    if args.calibration == "plugin":
        omega = plugin_omega(pv)
    else:
        search = (args.alpha, args.b_boot, args.max_iter, rng.derive(2))
        if args.estimand == "ate":
            cal = gpc_omega_from_pseudo(pv, prior, *search)
        else:
            cal = gpc_omega_cate_from_pseudo(pv, *search, fit)
        if not cal.converged:
            print(f"warning: gpc did not converge in {cal.iterations} iterations: coverage "
                  f"{cal.achieved_bootstrap_coverage:.4f}, target {1 - args.alpha:.4f}",
                  file=sys.stderr)
        omega = cal.omega

    summary = {"estimand": args.estimand, "strategy": args.strategy.strip().upper(),
               "omega": omega, "n": ds.n, "seed": seed}
    if args.estimand == "ate":
        engine = closed_form_posterior if args.engine == "closed" else vi_posterior
        post = engine(pv, prior, omega)
        lo, hi = credible_interval(post, args.alpha)
        summary["posterior"] = {"mean": post.m_p, "sd": post.sd}
        summary["cri"] = {"lo": lo, "hi": hi}
    else:
        # the full-data fit is the resample that takes every row once
        means, variances = fit(np.arange(ds.n), omega)
        half = normal_quantile(1.0 - args.alpha / 2.0) * variances**0.5
        summary["posterior"] = {"pointwise": [
            {"x": [float(v) for v in x], "mean": float(mean), "sd": float(var**0.5)}
            for x, mean, var in zip(x_query, means, variances)
        ]}
        summary["cri"] = [
            {"lo": float(mean - h), "hi": float(mean + h)} for mean, h in zip(means, half)
        ]

    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote fit summary to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _is_int(value):
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_nonempty_list(value):
    return isinstance(value, list) and len(value) > 0


def _one_of(*choices):
    return lambda value: value in choices, f"must be {' or '.join(map(repr, choices))}"


def _at_least(low):
    return lambda value: value >= low, f"must be an integer >= {low}"


_REQUIRED = object()  # the default of a key that every bench config must give
_INT = (_is_int, "must be an integer, got {!r}")
_NUMBER = (_is_number, "must be a number, got {!r}")

# Every bench config key: its default, then the rules its value must pass in
# order, each a test and the end of the message when the test fails. A key
# whose default is None may be null; "n" and "n_grid" are checked together.
_BENCH_KEYS = {
    "datasets": (_REQUIRED, (_is_nonempty_list, "must be a non-empty list of DGP ids")),
    "strategies": (_REQUIRED, (_is_nonempty_list, "must be a non-empty list")),
    "reps": (_REQUIRED, _INT, _at_least(2)),
    "alpha": (_REQUIRED, _NUMBER, (lambda value: 0 < value < 1, "must lie in (0, 1)")),
    "estimand": (_REQUIRED, _one_of("ate", "cate")),
    "calibration": (_REQUIRED, _one_of("plugin", "gpc")),
    "seed": (_REQUIRED, _INT),
    "n": (None,),
    "n_grid": (None,),
    "parallelism": (None, _INT),
    "folds": (5, _INT, _at_least(2)),
    "clip_eps": (0.01, _NUMBER),
    "lambda_prop": (None, _NUMBER),
    "lambda_out": (0.001, _NUMBER),
    "b_boot": (200, _INT, _at_least(50)),
    "max_iter": (50, _INT, _at_least(1)),
    "prior_mean": (0.0, _NUMBER),
    "prior_var": (1.0, _NUMBER),
    "m_inducing": (20, _INT, _at_least(1)),
    "k_points": (100, _INT, _at_least(1)),
}


def _check(key, value, name):
    """Apply the rules of bench key `key` to `value`, a config value or the
    `fit` flag of that name; the ConfigError names `name`."""
    for test, message in _BENCH_KEYS[key][1:]:
        if not test(value):
            raise ConfigError(f"{name} {message.format(value)}")


def _load_bench_config(path):
    """The bench config at `path`, checked whole before anything runs, with
    `datasets` resolved to DgpSpecs, `strategies` to (Strategy, label) pairs
    and `n`/`n_grid` to the list `n_grid`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"could not read bench config {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("bench config must be a JSON object")
    for key, (default, *_) in _BENCH_KEYS.items():
        if default is _REQUIRED and key not in raw:
            raise SchemaError(f"bench config is missing required key {key!r}")
    for key in raw:
        if key not in _BENCH_KEYS:
            raise SchemaError(f"bench config has unknown key {key!r}")
    cfg = {key: raw.get(key, default) for key, (default, *_) in _BENCH_KEYS.items()}
    for key, (default, *_) in _BENCH_KEYS.items():
        if cfg[key] is not None or default is not None:
            _check(key, cfg[key], f"key {key!r}")

    if cfg["n"] is None and cfg["n_grid"] is None:
        raise SchemaError("bench config needs key 'n' or 'n_grid'")
    if cfg["n"] is not None and cfg["n_grid"] is not None:
        raise SchemaError("bench config keys 'n' and 'n_grid' are mutually exclusive")
    if cfg["estimand"] == "cate" and cfg["calibration"] != "plugin":
        raise SchemaError("key 'calibration' must be 'plugin' for the cate bench")
    n_grid = cfg["n_grid"] if cfg["n_grid"] is not None else [cfg["n"]]
    if not (isinstance(n_grid, list) and all(_is_int(v) and v >= 1 for v in n_grid)):
        raise SchemaError("sample sizes in 'n'/'n_grid' must be integers >= 1")
    if cfg["folds"] > min(n_grid):
        raise SchemaError(f"key 'folds' must be <= the smallest sample size {min(n_grid)}")
    cfg["n_grid"] = n_grid
    for key in ("datasets", "strategies", "n_grid"):
        labels = [str(v).strip().upper() for v in cfg[key]]
        if len(set(labels)) < len(labels):
            raise SchemaError(f"key {key!r} repeats an entry: {cfg[key]!r}")
    cfg["datasets"] = [dgp_mod.default_spec(v) for v in cfg["datasets"]]
    cfg["strategies"] = [(Strategy.parse(v), str(v).strip().upper()) for v in cfg["strategies"]]
    return cfg


def _usable_cpus():
    """CPUs this process may run on (its affinity mask where the OS has
    one), which can be fewer than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_bench(args):
    cfg = _load_bench_config(args.config)
    seed = _resolve_seed(cfg["seed"])
    if args.parallelism is not None:
        parallelism = args.parallelism
    elif cfg["parallelism"] is not None:
        parallelism = cfg["parallelism"]
    else:
        parallelism = _usable_cpus()
    if parallelism < 1:
        raise ConfigError("parallelism must be an integer >= 1")

    nconf = NuisanceConfig(
        clip_eps=cfg["clip_eps"], lambda_prop=cfg["lambda_prop"], lambda_out=cfg["lambda_out"]
    )
    prior = NormalPrior(m0=cfg["prior_mean"], s0_sq=cfg["prior_var"])
    if cfg["estimand"] == "ate":
        run_cell = partial(
            bench_mod.run_ate_bench, r_reps=cfg["reps"], prior=prior,
            calibration_mode=cfg["calibration"], base_seed=seed,
            b_boot=cfg["b_boot"], max_iter=cfg["max_iter"],
        )
    else:
        run_cell = partial(
            bench_mod.run_cate_bench, r_reps=cfg["reps"], kernel=KernelParams(),
            m_inducing=cfg["m_inducing"], k_points=cfg["k_points"], base_seed=seed,
        )
    reports = [
        run_cell(spec, strategy, n, alpha=cfg["alpha"], folds=cfg["folds"],
                 nuisance_config=nconf, parallelism=parallelism, strategy_label=label)
        for spec in cfg["datasets"]
        for strategy, label in cfg["strategies"]
        for n in cfg["n_grid"]
    ]

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "bench_report.csv")
    md_path = os.path.join(args.out_dir, "bench_report.md")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(bench_mod.reports_to_csv(reports))
    with open(md_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(bench_mod.reports_to_markdown(reports, alpha=cfg["alpha"]))
    print(f"wrote {csv_path} and {md_path} ({len(reports)} rows)")
    return 0


def _parse_list(text, flag, kind=float):
    """Comma-separated values of `kind` (float or int); anything else, an
    integer written as 2.5 or 1e3 included, is a ConfigError."""
    try:
        values = [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag} must be a comma-separated list of {noun}") from None
    if not values:
        raise ConfigError(f"{flag} must contain at least one value")
    return values


def cmd_experiment(args):
    seed = _resolve_seed(args.seed)
    spec = dgp_mod.default_spec(args.dgp)
    if args.kind == "slopes":
        deltas = _parse_list(args.deltas, "--deltas")
        results = bench_mod.orthogonality_slopes(spec, deltas, args.n, seed)
        lines = ["strategy,delta,shift,slope"]
        for strategy in Strategy:
            res = results[strategy]
            for delta, shift in zip(res.deltas, res.shifts):
                lines.append(f"{strategy.value},{delta:.6g},{shift:.17g},")
            lines.append(f"{strategy.value},,,{res.slope:.6g}")
        text = "\n".join(lines) + "\n"
    else:
        n_grid = _parse_list(args.n_grid, "--n-grid", int)
        strategy = Strategy.parse(args.strategy)
        points = bench_mod.tv_stability(
            spec, args.beta, n_grid, seed, strategy=strategy, reps=args.reps
        )
        lines = ["n,r_n,tv_mean,tv_se"]
        for pt in points:
            lines.append(f"{pt.n},{pt.r_n:.6g},{pt.tv_mean:.17g},{pt.tv_se:.17g}")
        text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbcausal",
        description="Generalized (Gibbs) posteriors for causal estimands: "
        "datasets, fits, coverage benchmarks, and stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dgp = sub.add_parser("dgp", help="generate a synthetic dataset and write it as CSV")
    p_dgp.add_argument("--id", required=True, choices=list(dgp_mod.DGP_IDS),
                       help="data-generating process id")
    p_dgp.add_argument("--n", type=int, required=True, help="number of observations")
    p_dgp.add_argument("--seed", type=int, default=0,
                       help="random seed (default: %(default)s); GBC_SEED overrides")
    p_dgp.add_argument("--out", required=True, help="output CSV path")
    p_dgp.set_defaults(func=cmd_dgp)

    p_fit = sub.add_parser("fit", help="fit one generalized posterior and emit a JSON summary")
    p_fit.add_argument("--data", default=None, help="input dataset CSV (exclusive with --dgp)")
    p_fit.add_argument("--dgp", default=None, choices=list(dgp_mod.DGP_IDS),
                       help="generate the input from this DGP (needs --n)")
    p_fit.add_argument("--n", type=int, default=None, help="observations when using --dgp")
    p_fit.add_argument("--estimand", choices=["ate", "cate"], default="ate",
                       help="target estimand (default: %(default)s)")
    p_fit.add_argument("--strategy", default="AIPW",
                       help="RA, IPW, DR, or AIPW (default: %(default)s)")
    p_fit.add_argument("--engine", choices=["closed", "vi", "exact-gp"], default="closed",
                       help="posterior engine (default: %(default)s); "
                       "ate: closed|vi, cate: vi|exact-gp")
    p_fit.add_argument("--calibration", choices=["plugin", "gpc"], default="plugin",
                       help="omega selection rule (default: %(default)s)")
    p_fit.add_argument("--prior-mean", type=float, default=_BENCH_KEYS["prior_mean"][0],
                       help="normal prior mean (default: %(default)s)")
    p_fit.add_argument("--prior-var", type=float, default=_BENCH_KEYS["prior_var"][0],
                       help="normal prior variance; inf for diffuse (default: %(default)s)")
    p_fit.add_argument("--alpha", type=float, default=0.05,
                       help="credible level is 1 - alpha (default: %(default)s)")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="random seed (default: %(default)s); GBC_SEED overrides")
    p_fit.add_argument("--b-boot", type=int, default=_BENCH_KEYS["b_boot"][0],
                       help="bootstrap resamples for gpc (default: %(default)s)")
    p_fit.add_argument("--max-iter", type=int, default=_BENCH_KEYS["max_iter"][0],
                       help="max gpc iterations (default: %(default)s)")
    p_fit.add_argument("--m-inducing", type=int, default=_BENCH_KEYS["m_inducing"][0],
                       help="inducing points for the cate engine (default: %(default)s)")
    p_fit.add_argument("--grid-size", type=int, default=100,
                       help="query points reported for cate (default: %(default)s)")
    _add_nuisance_flags(p_fit)
    _add_kernel_flags(p_fit)
    p_fit.add_argument("--out", default=None, help="summary JSON path (default: stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("bench", help="run a Monte Carlo coverage/length study from a JSON config")
    p_bench.add_argument("--config", required=True, help="JSON config path")
    p_bench.add_argument("--out-dir", default=".",
                         help="directory for bench_report.csv/.md (default: %(default)s)")
    p_bench.add_argument("--parallelism", type=int, default=None,
                         help="worker count (default: config value, else the CPUs "
                         "this process may run on); results are independent of "
                         "this setting")
    p_bench.set_defaults(func=cmd_bench)

    p_exp = sub.add_parser("experiment", help="run a nuisance-stability experiment and write CSV")
    p_exp.add_argument("--kind", required=True, choices=["slopes", "tv"],
                       help="slopes: point-estimate shift vs delta; tv: feasible-vs-oracle TV")
    p_exp.add_argument("--dgp", default="D1", choices=list(dgp_mod.DGP_IDS),
                       help="data-generating process (default: %(default)s)")
    p_exp.add_argument("--n", type=int, default=100000,
                       help="sample size for slopes (default: %(default)s)")
    p_exp.add_argument("--deltas", default="0.2,0.1,0.05,0.025",
                       help="perturbation magnitudes for slopes (default: %(default)s)")
    p_exp.add_argument("--beta", type=float, default=0.3,
                       help="nuisance-error exponent r_n = n^-beta for tv (default: %(default)s)")
    p_exp.add_argument("--n-grid", default="500,2000,8000",
                       help="sample sizes for tv (default: %(default)s)")
    p_exp.add_argument("--reps", type=int, default=20,
                       help="repetitions per tv point (default: %(default)s)")
    p_exp.add_argument("--strategy", default="AIPW",
                       help="strategy for tv (default: %(default)s)")
    p_exp.add_argument("--seed", type=int, default=0,
                       help="random seed (default: %(default)s); GBC_SEED overrides")
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with blas_threads(1):
            return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GbcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main(sys.argv[1:]))
