"""Monte Carlo experiment harness.

Coverage / credible-interval-length studies for the ATE and CATE posteriors,
length-versus-n sweeps, and the two nuisance-stability experiments: the
point-estimate orthogonality slopes and the feasible-versus-oracle posterior
total-variation sequence.

Every repetition owns the stream (base_seed, rep), so repetitions can run in
any order or in parallel without changing a single reported byte; the
aggregation is a deterministic fold over rep index order.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.special import expit, logit

from . import dgp as dgp_mod
from .calibrate import gpc_omega_from_pseudo, plugin_omega
from .dgp import DgpSpec
from .errors import ConfigError, DomainError, NumericError
from .gibbs_ate import NormalPrior, closed_form_posterior, credible_interval
from .gibbs_cate import KernelParams, predict, svgp_fit
from .nuisance import NuisanceConfig, cross_fit
from .numerics import Rng, gaussian_tv, normal_quantile
from .pseudo import Strategy, cross_fitted_pseudo, pseudo_values


@dataclass(frozen=True)
class RunResult:
    rep: int
    theta_hat: float
    cri_lo: float
    cri_hi: float
    covered: bool
    omega: float

    @property
    def length(self):
        return self.cri_hi - self.cri_lo


@dataclass(frozen=True)
class CateRunResult:
    rep: int
    pointwise_coverage: float
    mean_length: float
    omega: float
    hits: int
    points: int


@dataclass(frozen=True)
class BenchReport:
    dataset_id: str
    strategy: str
    n: int
    r_total: int
    coverage: float
    coverage_ci: Tuple[float, float]
    mean_length: float
    sd_length: float
    faithful: bool
    failures: int
    alpha: float
    runs: tuple = field(default=(), compare=False, repr=False)


def wilson_interval(hits, total, level_z):
    """Wilson score interval for a binomial proportion; always contains the
    point estimate and stays inside [0, 1]."""
    if total <= 0:
        return 0.0, 1.0
    p = hits / total
    z_sq = level_z * level_z
    denom = 1.0 + z_sq / total
    center = (p + z_sq / (2.0 * total)) / denom
    half = level_z * math.sqrt(p * (1.0 - p) / total + z_sq / (4.0 * total * total)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == total else min(1.0, center + half)
    return lo, hi


def _rep_rng(base_seed, rep):
    return Rng(base_seed).derive(rep)


def _ate_rep(payload):
    (spec, strategy, n, rep, base_seed, prior, mode, alpha, folds, config, b_boot, max_iter) = payload
    try:
        rng = _rep_rng(base_seed, rep)
        ds = dgp_mod.generate(spec, n, rng.derive(0))
        cf = cross_fit(ds, folds, config, rng.derive(1))
        pv = cross_fitted_pseudo(ds, cf, strategy)
        if mode == "plugin":
            omega = plugin_omega(pv)
        else:
            omega = gpc_omega_from_pseudo(pv, prior, alpha, b_boot, max_iter, rng.derive(2)).omega
        post = closed_form_posterior(pv, prior, omega)
        lo, hi = credible_interval(post, alpha)
        truth = ds.truth.ate
        return ("ok", rep, float(np.mean(pv.values)), lo, hi, bool(lo <= truth <= hi), omega)
    except NumericError as exc:
        return ("err", rep, f"{type(exc).__name__}: {exc}")


def _cate_rep(payload):
    (spec, strategy, n, rep, base_seed, kernel, m_inducing, k_points, alpha, folds, config) = payload
    try:
        rng = _rep_rng(base_seed, rep)
        ds = dgp_mod.generate(spec, n, rng.derive(0))
        cf = cross_fit(ds, folds, config, rng.derive(1))
        pv = cross_fitted_pseudo(ds, cf, strategy)
        omega = plugin_omega(pv)
        gp = svgp_fit(ds.x, pv, kernel, omega, m_inducing, rng.derive(2))
        x_query = dgp_mod.draw_covariates(spec, k_points, rng.derive(3))
        means, variances = predict(gp, x_query)
        half = normal_quantile(1.0 - alpha / 2.0) * np.sqrt(variances)
        truth = ds.truth.cate(x_query)
        hit = (means - half <= truth) & (truth <= means + half)
        return ("ok", rep, float(hit.mean()), float(np.mean(2.0 * half)), omega, int(hit.sum()), k_points)
    except NumericError as exc:
        return ("err", rep, f"{type(exc).__name__}: {exc}")


def _execute(worker, payloads, parallelism):
    if parallelism and parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


_WILSON_Z = 1.959963984540054  # 95% confidence on the coverage estimate


def run_ate_bench(
    spec: DgpSpec,
    strategy: Strategy,
    n,
    r_reps,
    prior: NormalPrior,
    calibration_mode,
    base_seed,
    alpha=0.05,
    folds=5,
    nuisance_config: NuisanceConfig = NuisanceConfig(),
    parallelism=1,
    b_boot=200,
    max_iter=50,
    strategy_label: Optional[str] = None,
) -> BenchReport:
    """Coverage and CrI length of the closed-form ATE posterior over
    r_reps independent repetitions of the full pipeline."""
    if r_reps < 2:
        raise DomainError("r_reps must be >= 2")
    if calibration_mode not in ("plugin", "gpc"):
        raise ConfigError(f"calibration must be 'plugin' or 'gpc', got {calibration_mode!r}")
    payloads = [
        (spec, strategy, n, rep, base_seed, prior, calibration_mode, alpha, folds,
         nuisance_config, b_boot, max_iter)
        for rep in range(r_reps)
    ]
    outcomes = _execute(_ate_rep, payloads, parallelism)
    runs = []
    failures = 0
    for out in outcomes:
        if out[0] == "ok":
            _, rep, theta_hat, lo, hi, covered, omega = out
            runs.append(RunResult(rep, theta_hat, lo, hi, covered, omega))
        else:
            failures += 1
    hits = sum(r.covered for r in runs)
    total = len(runs)
    coverage = hits / total if total else 0.0
    ci = wilson_interval(hits, total, _WILSON_Z)
    lengths = np.array([r.length for r in runs]) if runs else np.array([0.0])
    return BenchReport(
        dataset_id=spec.id,
        strategy=strategy_label or strategy.value,
        n=n,
        r_total=total,
        coverage=coverage,
        coverage_ci=ci,
        mean_length=float(np.mean(lengths)),
        sd_length=float(np.std(lengths, ddof=1)) if total > 1 else 0.0,
        faithful=ci[1] >= 1.0 - alpha,
        failures=failures,
        alpha=alpha,
        runs=tuple(runs),
    )


def run_cate_bench(
    spec: DgpSpec,
    strategy: Strategy,
    n,
    r_reps,
    kernel: KernelParams,
    m_inducing,
    k_points,
    base_seed,
    alpha=0.05,
    folds=5,
    nuisance_config: NuisanceConfig = NuisanceConfig(),
    parallelism=1,
    strategy_label: Optional[str] = None,
) -> BenchReport:
    """CATE posterior study: per repetition, fit the sparse GP on the
    cross-fitted pseudo-outcomes and average the pointwise 95% CrI coverage
    and length over k_points fresh covariates from the process."""
    if r_reps < 2:
        raise DomainError("r_reps must be >= 2")
    payloads = [
        (spec, strategy, n, rep, base_seed, kernel, m_inducing, k_points, alpha, folds,
         nuisance_config)
        for rep in range(r_reps)
    ]
    outcomes = _execute(_cate_rep, payloads, parallelism)
    runs = []
    failures = 0
    for out in outcomes:
        if out[0] == "ok":
            _, rep, frac, mean_len, omega, hits, points = out
            runs.append(CateRunResult(rep, frac, mean_len, omega, hits, points))
        else:
            failures += 1
    total = len(runs)
    hits = sum(r.hits for r in runs)
    points = sum(r.points for r in runs)
    coverage = hits / points if points else 0.0
    ci = wilson_interval(hits, points, _WILSON_Z)
    lengths = np.array([r.mean_length for r in runs]) if runs else np.array([0.0])
    return BenchReport(
        dataset_id=spec.id,
        strategy=strategy_label or strategy.value,
        n=n,
        r_total=total,
        coverage=coverage,
        coverage_ci=ci,
        mean_length=float(np.mean(lengths)),
        sd_length=float(np.std(lengths, ddof=1)) if total > 1 else 0.0,
        faithful=ci[1] >= 1.0 - alpha,
        failures=failures,
        alpha=alpha,
        runs=tuple(runs),
    )


def length_sweep(
    spec: DgpSpec,
    strategies,
    n_grid,
    r_reps,
    base_seed,
    prior: NormalPrior = NormalPrior(),
    calibration_mode="plugin",
    **kwargs,
):
    """One ATE bench report per (strategy, n); the data behind the
    length-versus-sample-size box plots."""
    n_grid = list(n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    reports = []
    for strategy in strategies:
        for n in n_grid:
            reports.append(
                run_ate_bench(
                    spec, strategy, n, r_reps, prior, calibration_mode, base_seed, **kwargs
                )
            )
    return reports


@dataclass(frozen=True)
class SlopeResult:
    strategy: Strategy
    deltas: np.ndarray
    shifts: np.ndarray
    slope: float


def _perturbed_nuisances(e0, m1, m0, delta):
    # Fixed smooth direction: +delta on the propensity logit and +delta on
    # the treated-arm outcome mean. Chosen so RA shifts exactly first order,
    # IPW first order through the propensity, and DR second order through
    # the product of the two errors.
    return expit(logit(e0) + delta), m1 + delta, m0


def orthogonality_slopes(spec: DgpSpec, delta_grid, n, base_seed):
    """Point-estimate shift |theta_fe(delta) - theta_or| per strategy with
    true nuisances perturbed by magnitude delta; returns log-log slopes."""
    deltas = np.asarray(list(delta_grid), dtype=float)
    if np.any(deltas <= 0):
        raise DomainError("delta_grid entries must be positive")
    ds = dgp_mod.generate(spec, n, Rng(base_seed).derive(0))
    e0 = dgp_mod.true_propensity(spec, ds.x)
    m1 = dgp_mod.true_outcome_mean(spec, ds.x, 1)
    m0 = dgp_mod.true_outcome_mean(spec, ds.x, 0)
    results = {}
    for strategy in Strategy:
        base = float(np.mean(pseudo_values(ds.a, ds.y, e0, m1, m0, strategy)))
        shifts = np.empty(deltas.shape[0])
        for i, delta in enumerate(deltas):
            e_d, m1_d, m0_d = _perturbed_nuisances(e0, m1, m0, delta)
            est = float(np.mean(pseudo_values(ds.a, ds.y, e_d, m1_d, m0_d, strategy)))
            shifts[i] = abs(est - base)
        slope = float(np.polyfit(np.log(deltas), np.log(shifts), 1)[0])
        results[strategy] = SlopeResult(strategy=strategy, deltas=deltas, shifts=shifts, slope=slope)
    return results


@dataclass(frozen=True)
class TvPoint:
    n: int
    r_n: float
    tv_mean: float
    tv_se: float


def tv_stability(
    spec: DgpSpec,
    beta,
    n_grid,
    base_seed,
    strategy: Strategy = Strategy.DR,
    reps=20,
):
    """Feasible-versus-oracle posterior TV with injected nuisance error
    r_n = n^-beta, both posteriors closed form under a diffuse prior and a
    shared plug-in omega, so TV is exactly 2 Phi(|m_fe - m_or| / (2 s_p)) - 1."""
    points = []
    for i, n in enumerate(n_grid):
        r_n = float(n) ** (-beta) if not math.isinf(beta) else 0.0
        tvs = np.empty(reps)
        for rep in range(reps):
            rng = Rng(base_seed).derive(i, rep)
            ds = dgp_mod.generate(spec, n, rng.derive(0))
            e0 = dgp_mod.true_propensity(spec, ds.x)
            m1 = dgp_mod.true_outcome_mean(spec, ds.x, 1)
            m0 = dgp_mod.true_outcome_mean(spec, ds.x, 0)
            oracle = pseudo_values(ds.a, ds.y, e0, m1, m0, strategy)
            e_d, m1_d, m0_d = _perturbed_nuisances(e0, m1, m0, r_n)
            feasible = pseudo_values(ds.a, ds.y, e_d, m1_d, m0_d, strategy)
            var_or = float(np.var(oracle, ddof=1))
            omega = 1.0 / var_or
            s_p = math.sqrt(1.0 / (omega * n))
            tvs[rep] = gaussian_tv(float(np.mean(feasible)), float(np.mean(oracle)), s_p)
        se = float(np.std(tvs, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        points.append(
            TvPoint(n=int(n), r_n=r_n, tv_mean=float(np.mean(tvs)), tv_se=se)
        )
    return points


def reports_to_csv(reports) -> str:
    lines = ["dataset,strategy,n,reps,coverage,cov_ci_lo,cov_ci_hi,mean_len,sd_len,faithful,failures"]
    for r in reports:
        lines.append(
            f"{r.dataset_id},{r.strategy},{r.n},{r.r_total},{r.coverage:.6g},"
            f"{r.coverage_ci[0]:.6g},{r.coverage_ci[1]:.6g},{r.mean_length:.6g},"
            f"{r.sd_length:.6g},{str(r.faithful).lower()},{r.failures}"
        )
    return "\n".join(lines) + "\n"


def _md_row(cells):
    return "| " + " | ".join(cells) + " |"


def reports_to_markdown(reports, alpha=0.05) -> str:
    """Two tables mirroring the coverage / masked-length report layout:
    bold marks the strategy closest to nominal coverage (respectively the
    narrowest faithful interval); unfaithful entries are struck through."""
    strategies = []
    for r in reports:
        if r.strategy not in strategies:
            strategies.append(r.strategy)
    row_keys = []
    for r in reports:
        key = (r.dataset_id, r.n)
        if key not in row_keys:
            row_keys.append(key)
    by_cell = {(r.dataset_id, r.n, r.strategy): r for r in reports}
    nominal = 1.0 - alpha

    cov_lines = [f"### Coverage of the {nominal:.0%} credible interval", ""]
    cov_lines.append(_md_row(["dataset"] + strategies))
    cov_lines.append(_md_row(["---"] * (1 + len(strategies))))
    for dataset_id, n in row_keys:
        cells = [f"{dataset_id} (n={n})"]
        here = [by_cell.get((dataset_id, n, s)) for s in strategies]
        dists = [abs(r.coverage - nominal) if r else math.inf for r in here]
        best = min(dists)
        for r, dist in zip(here, dists):
            if r is None:
                cells.append("")
                continue
            text = f"{r.coverage:.3f} ({r.coverage_ci[0]:.3f}, {r.coverage_ci[1]:.3f})"
            if dist == best:
                text = f"**{text}**"
            if not r.faithful:
                text = f"~~{text}~~"
            cells.append(text)
        cov_lines.append(_md_row(cells))

    len_lines = ["", "### Mean CrI length (sd) across repetitions", ""]
    len_lines.append(_md_row(["dataset"] + strategies))
    len_lines.append(_md_row(["---"] * (1 + len(strategies))))
    for dataset_id, n in row_keys:
        cells = [f"{dataset_id} (n={n})"]
        here = [by_cell.get((dataset_id, n, s)) for s in strategies]
        faithful_lens = [r.mean_length for r in here if r is not None and r.faithful]
        best = min(faithful_lens) if faithful_lens else None
        for r in here:
            if r is None:
                cells.append("")
                continue
            text = f"{r.mean_length:.3f} ({r.sd_length:.3f})"
            if r.faithful and best is not None and r.mean_length == best:
                text = f"**{text}**"
            if not r.faithful:
                text = f"~~{text}~~"
            cells.append(text)
        len_lines.append(_md_row(cells))

    return "\n".join(cov_lines + len_lines) + "\n"
