"""Monte Carlo experiment harness.

Coverage / credible-interval-length studies for the ATE and CATE posteriors
(a length-versus-n sweep is a bench config's ``n_grid``: one cell per n),
and the two nuisance-stability experiments: the point-estimate orthogonality
slopes and the feasible-versus-oracle posterior total-variation sequence.

Every repetition owns the stream (base_seed, rep), so repetitions can run in
any order or in parallel without changing a single reported byte; the
aggregation is a deterministic fold over rep index order. Cells that differ
only in strategy share each repetition's data and cross-fitted nuisances,
which are drawn and fitted once (see ``_memo``).
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Tuple

import numpy as np

from . import dgp as dgp_mod
from .calibrate import gpc_omega_from_pseudo, plugin_omega
from .dgp import DgpSpec
from .errors import ConfigError, DomainError, NumericError
from .gibbs_ate import (
    DIFFUSE_PRIOR, NormalPrior, closed_form_posterior, credible_interval, normal_update,
)
from .gibbs_cate import KernelParams, sparse_gp_resampler
from .nuisance import NuisanceConfig, cross_fit
from .numerics import (
    Rng, blas_threads, expit, gaussian_tv, logit, normal_quantile, set_blas_threads,
)
from .pseudo import PseudoOutcomes, Strategy, cross_fitted_pseudo, pseudo_values


@dataclass(frozen=True)
class RunResult:
    """One repetition: `hits` of `points` credible intervals held the truth
    (one ATE interval, or k_points pointwise CATE intervals); `length` is
    the interval length, averaged over the points."""

    rep: int
    hits: int
    points: int
    length: float
    omega: float


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


@dataclass(frozen=True)
class Cell:
    """What a repetition of one bench cell needs besides its index. A kernel
    makes it a CATE cell; the other estimand's fields keep their defaults."""

    spec: DgpSpec
    strategy: Strategy
    n: int
    base_seed: int
    alpha: float
    folds: int
    nuisance_config: NuisanceConfig
    calibration_mode: str = "plugin"
    prior: Optional[NormalPrior] = None
    b_boot: int = 0
    max_iter: int = 0
    kernel: Optional[KernelParams] = None
    m_inducing: int = 0
    k_points: int = 0


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


def _fit_rep(cell: Cell, rep):
    """Draw repetition `rep`'s dataset on the stream (base_seed, rep) and
    cross-fit its nuisances. Returns the (dataset, cross-fit) pair, or the
    message of the NumericError that ended it."""
    rng = Rng(cell.base_seed).derive(rep)
    try:
        ds = dgp_mod.generate(cell.spec, cell.n, rng.derive(0))
        return ds, cross_fit(ds, cell.folds, cell.nuisance_config, rng.derive(1))
    except NumericError as exc:
        return f"{type(exc).__name__}: {exc}"


def _rep(cell: Cell, rep, fitted):
    """Repetition `rep` of the cell from `fitted`, its _fit_rep result: a
    RunResult, or the message of the NumericError that ended it (a failed
    cross-fit's own)."""
    if isinstance(fitted, str):
        return fitted
    ds, cf = fitted
    rng = Rng(cell.base_seed).derive(rep)
    try:
        pv = cross_fitted_pseudo(ds, cf, cell.strategy)
        if cell.calibration_mode == "plugin":
            omega = plugin_omega(pv)
        else:
            omega = gpc_omega_from_pseudo(
                pv, cell.prior, cell.alpha, cell.b_boot, cell.max_iter, rng.derive(2)
            ).omega
        if cell.kernel is None:
            lo, hi = credible_interval(closed_form_posterior(pv, cell.prior, omega), cell.alpha)
            return RunResult(rep, int(lo <= ds.truth.ate <= hi), 1, hi - lo, omega)
        x_query = dgp_mod.draw_covariates(cell.spec, cell.k_points, rng.derive(3))
        fit = sparse_gp_resampler(
            cell.kernel, ds.x, pv.values, x_query, min(cell.m_inducing, ds.n), rng.derive(2)
        )
        means, variances = fit(np.arange(ds.n), omega)
        half = normal_quantile(1.0 - cell.alpha / 2.0) * np.sqrt(variances)
        truth = ds.truth.cate(x_query)
        hit = (means - half <= truth) & (truth <= means + half)
        return RunResult(rep, int(hit.sum()), cell.k_points, float(np.mean(2.0 * half)), omega)
    except NumericError as exc:
        return f"{type(exc).__name__}: {exc}"


# Cells that share a spec object, base seed, fold count and nuisance config
# draw the same data and cross-fitted nuisances in each repetition (common
# random numbers), so only the first of them draws and fits. The memo holds
# the _fit_rep results, failures included, by (n, rep) for one such key; a
# cell with another key replaces it.
# DgpSpec holds numpy arrays and is compared by identity.
_memo = {"key": None, "fits": {}}


def _memo_fits(cell: Cell):
    key = (cell.spec, cell.base_seed, cell.folds, cell.nuisance_config)
    old = _memo["key"]
    if old is None or old[0] is not key[0] or old[1:] != key[1:]:
        _memo["key"], _memo["fits"] = key, {}
    return _memo["fits"]


def _execute(worker, payloads, parallelism):
    if parallelism and parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor

        # One OpenBLAS thread per worker: the pool already fills the cores.
        # Forked workers inherit the parent's pinned count (setting it inside
        # a fork restarts OpenBLAS's thread pool); the initializer pins
        # workers that start from a fresh interpreter.
        with blas_threads(1), ProcessPoolExecutor(
            max_workers=parallelism, initializer=set_blas_threads, initargs=(1,)
        ) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


_WILSON_Z = 1.959963984540054  # 95% confidence on the coverage estimate


def _run_cell(cell: Cell, r_reps, parallelism, strategy_label) -> BenchReport:
    """Run r_reps repetitions of a cell and fold them, in rep order, into
    one report: coverage is hits over points with a Wilson interval, and
    repetitions that raised a NumericError count as failures."""
    if r_reps < 2:
        raise DomainError("r_reps must be >= 2")
    fits = _memo_fits(cell)
    missing = [rep for rep in range(r_reps) if (cell.n, rep) not in fits]
    if missing:  # a fully memoised cell starts no pool
        for rep, fitted in zip(missing, _execute(partial(_fit_rep, cell), missing, parallelism)):
            fits[(cell.n, rep)] = fitted
    outcomes = [_rep(cell, rep, fits[(cell.n, rep)]) for rep in range(r_reps)]
    runs = [out for out in outcomes if isinstance(out, RunResult)]
    total = len(runs)
    hits = sum(r.hits for r in runs)
    points = sum(r.points for r in runs)
    ci = wilson_interval(hits, points, _WILSON_Z)
    lengths = np.array([r.length for r in runs]) if runs else np.array([0.0])
    return BenchReport(
        dataset_id=cell.spec.id,
        strategy=strategy_label or cell.strategy.value,
        n=cell.n,
        r_total=total,
        coverage=hits / points if points else 0.0,
        coverage_ci=ci,
        mean_length=float(np.mean(lengths)),
        sd_length=float(np.std(lengths, ddof=1)) if total > 1 else 0.0,
        faithful=ci[1] >= 1.0 - cell.alpha,
        failures=len(outcomes) - total,
        alpha=cell.alpha,
        runs=tuple(runs),
    )


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
    if calibration_mode not in ("plugin", "gpc"):
        raise ConfigError(f"calibration must be 'plugin' or 'gpc', got {calibration_mode!r}")
    cell = Cell(
        spec, strategy, n, base_seed, alpha, folds, nuisance_config,
        calibration_mode=calibration_mode, prior=prior, b_boot=b_boot, max_iter=max_iter,
    )
    return _run_cell(cell, r_reps, parallelism, strategy_label)


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
    cell = Cell(
        spec, strategy, n, base_seed, alpha, folds, nuisance_config,
        kernel=kernel, m_inducing=m_inducing, k_points=k_points,
    )
    return _run_cell(cell, r_reps, parallelism, strategy_label)


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
    true nuisances perturbed by magnitude delta; returns log-log slopes,
    which need two distinct deltas and a shift above 0 at each of them."""
    deltas = np.asarray(list(delta_grid), dtype=float)
    if not np.all((deltas > 0) & np.isfinite(deltas)):
        raise DomainError("delta_grid entries must be positive and finite")
    if np.unique(deltas).size < 2:
        raise DomainError("delta_grid must hold at least two distinct values to fit a slope")
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
            if shifts[i] == 0.0:
                raise NumericError(f"{strategy.value} estimate does not move at delta={delta:.6g}")
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
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    if not beta >= 0:  # NaN fails too; beta = inf means oracle nuisances
        raise DomainError(f"beta must be >= 0, got {beta}")
    for n in n_grid:
        if n < 2:  # the oracle variance takes two draws
            raise DomainError(f"n_grid sizes must be >= 2, got {n}")
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
            oracle_mean = float(np.mean(oracle))
            omega = plugin_omega(PseudoOutcomes(oracle, strategy, cross_fitted=False))
            _, s_p_sq = normal_update(DIFFUSE_PRIOR, omega, n, oracle_mean)
            tvs[rep] = gaussian_tv(float(np.mean(feasible)), oracle_mean, math.sqrt(s_p_sq))
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
    bold marks the lowest score of a row, that is the strategy closest to
    nominal coverage (respectively the narrowest faithful interval; an
    unfaithful one scores None); unfaithful entries are struck through."""
    strategies = list(dict.fromkeys(r.strategy for r in reports))
    row_keys = list(dict.fromkeys((r.dataset_id, r.n) for r in reports))
    by_cell = {(r.dataset_id, r.n, r.strategy): r for r in reports}
    nominal = 1.0 - alpha

    def table(title, text, score):
        lines = [title, "", _md_row(["dataset"] + strategies)]
        lines.append(_md_row(["---"] * (1 + len(strategies))))
        for dataset_id, n in row_keys:
            here = [by_cell.get((dataset_id, n, s)) for s in strategies]
            scores = [score(r) for r in here if r is not None and score(r) is not None]
            cells = [f"{dataset_id} (n={n})"]
            for r in here:
                if r is None:
                    cells.append("")
                    continue
                cell = text(r)
                if score(r) is not None and score(r) == min(scores):
                    cell = f"**{cell}**"
                if not r.faithful:
                    cell = f"~~{cell}~~"
                cells.append(cell)
            lines.append(_md_row(cells))
        return lines

    cov = table(
        f"### Coverage of the {nominal:.0%} credible interval",
        lambda r: f"{r.coverage:.3f} ({r.coverage_ci[0]:.3f}, {r.coverage_ci[1]:.3f})",
        lambda r: abs(r.coverage - nominal),
    )
    lengths = table(
        "### Mean CrI length (sd) across repetitions",
        lambda r: f"{r.mean_length:.3f} ({r.sd_length:.3f})",
        lambda r: r.mean_length if r.faithful else None,
    )
    return "\n".join(cov + [""] + lengths) + "\n"
