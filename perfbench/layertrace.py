"""In-memory span tracer for the gbcausal layer functions.

Each traced function is replaced under every name the package binds it to:
``gbcausal.numerics.cholesky_factor`` and the copy that ``gbcausal.gibbs_cate``
imported by name are both wrapped, so a call is caught wherever the calling
module looks the function up. Nothing inside the package is edited; the
wrappers live only in the benchmark process and are removed afterwards.

A span is (name, start, end, parent index, value). ``value`` is read at the
layer boundary from what the call already takes or returns (the jitter
``cholesky_factor`` reports, a ``CalibrationResult``, the rows of a dataset),
so counts are measured where the work happens.
"""

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict


def _jitter(args, kwargs, result):
    return result[1]


def _epochs(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.epochs


def _calibration(args, kwargs, result):
    return [result.iterations, bool(result.converged)]


def _rows(args, kwargs, result):
    return result.n


# (module, attribute, value reader). A dotted attribute names a method of a
# class defined in that module.
LAYER_FUNCTIONS = (
    ("numerics", "cholesky_factor", _jitter),
    ("numerics", "cholesky_solve", None),
    ("numerics", "adam_minimize", _epochs),
    ("dataset", "read_csv", _rows),
    ("dgp", "generate", None),
    ("dgp", "draw_covariates", None),
    ("nuisance", "cross_fit", None),
    ("nuisance", "fit_propensity", None),
    ("nuisance", "fit_outcome", None),
    ("pseudo", "cross_fitted_pseudo", None),
    ("gibbs_ate", "closed_form_posterior", None),
    ("gibbs_ate", "vi_posterior", None),
    ("gibbs_cate", "kernel_matrix", None),
    ("gibbs_cate", "exact_gp_posterior", None),
    ("gibbs_cate", "ExactGpPredictor.predict", None),
    ("gibbs_cate", "svgp_fit", None),
    ("gibbs_cate", "predict", None),
    ("calibrate", "plugin_omega", None),
    ("calibrate", "gpc_omega_from_pseudo", None),
    ("calibrate", "gpc_omega_cate_from_pseudo", None),
    ("calibrate", "gpc_search", _calibration),
    ("bench", "run_ate_bench", None),
    ("bench", "run_cate_bench", None),
)

BENCH_CELLS = ("bench.run_ate_bench", "bench.run_cate_bench")
GPC_FUNCTIONS = (
    "calibrate.gpc_omega_from_pseudo",
    "calibrate.gpc_omega_cate_from_pseudo",
    "calibrate.gpc_search",
)


def span_names():
    return [f"{module}.{attr}" for module, attr, _ in LAYER_FUNCTIONS]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, reader):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if reader is not None:
                spans[index] = (name, start, end, parent, reader(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self, only=None):
        """Wrap every layer function (or those named in ``only``) under each
        name bound to it in an imported gbcausal module."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "gbcausal"]
        for module_name, attr, reader in LAYER_FUNCTIONS:
            name = f"{module_name}.{attr}"
            if only is not None and name not in only:
                continue
            owner = importlib.import_module(f"gbcausal.{module_name}")
            *path, fn_name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self._wrap(name, original, reader)
            if path:
                self._patch(owner, fn_name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def write(self, path):
        """One JSON line per span; times in seconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "value": value,
                }) + "\n")


def self_times(spans):
    """Per-name (self seconds, calls): a span's duration minus the time its
    child spans cover. Calls are synchronous, so children never overlap."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += end - start - covered[index]
        calls[name] += 1
    return self_s, calls


def counts(spans):
    """Work counts of one traced pass; at a fixed seed every one of them
    must repeat exactly."""
    _, calls = self_times(spans)
    values = defaultdict(list)
    for name, _, _, _, value in spans:
        if value is not None:
            values[name].append(value)
    irls = sum(
        1 for name, _, _, parent, _ in spans
        if name == "numerics.cholesky_solve" and parent >= 0
        and spans[parent][0] == "nuisance.fit_propensity"
    )
    gpc = values["calibrate.gpc_search"]
    return {
        "calls": {name: calls.get(name, 0) for name in span_names()},
        "nuisance.irls_steps": irls,
        "numerics.adam_epochs": sum(values["numerics.adam_minimize"]),
        "numerics.jitter": values["numerics.cholesky_factor"],
        "calibrate.gpc": gpc,
        "dataset.read_csv_rows": sum(values["dataset.read_csv"]),
    }


def layer_metrics(spans, wall_s):
    """Per-layer numbers of one traced pass lasting ``wall_s`` seconds."""
    self_s, calls = self_times(spans)
    work = counts(spans)
    out = {}
    for name in span_names():
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    gpc = work["calibrate.gpc"]
    out.update({
        "nuisance.irls_steps": work["nuisance.irls_steps"],
        "numerics.adam_epochs": work["numerics.adam_epochs"],
        "numerics.jitter_max": max(work["numerics.jitter"], default=0.0),
        "calibrate.gpc_s": sum(self_s.get(name, 0.0) for name in GPC_FUNCTIONS),
        "calibrate.gpc_iterations": sum(it for it, _ in gpc),
        "calibrate.gpc_converged_frac": (
            sum(conv for _, conv in gpc) / len(gpc) if gpc else 0.0
        ),
        "dataset.read_csv_rows": work["dataset.read_csv_rows"],
        "bench.cell_max_s": max(
            (end - start for name, start, end, _, _ in spans if name in BENCH_CELLS),
            default=0.0,
        ),
        "trace.spans": len(spans),
        "trace.unattributed_s": wall_s - sum(
            end - start for _, start, end, parent, _ in spans if parent < 0
        ),
    })
    return out


def span_cost(calls=10000, trials=5):
    """Seconds a wrapper adds to one call: the median over ``trials`` of the
    extra time ``calls`` wrapped no-op calls take over direct ones."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    clock = time.perf_counter
    costs = []
    for _ in range(trials):
        start = clock()
        for _ in range(calls):
            noop()
        direct = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - start - direct) / calls)
    return max(statistics.median(costs), 0.0)


def busy_time(spans):
    """Seconds spent inside bench cells."""
    return sum(end - start for name, start, end, _, _ in spans if name in BENCH_CELLS)
