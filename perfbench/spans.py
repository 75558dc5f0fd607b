"""Span tracer for the benchmark's traced pass.

Nothing under ``src/`` knows about it: ``install`` replaces each traced
copeda function at every module attribute that is bound to it (the
defining module, every calling module and the package namespace), and the
``cdf``/``quantile`` methods on the margin classes, with a wrapper that
records a span.  The methods are wrapped on the classes rather than through
``margin_cdf``/``margin_quantile`` so the layer stays measured whichever
entry point calls them; the kernel margin's bisection therefore shows up as
``margins.cdf`` children of ``margins.quantile``.

A span is (layer, start, end, parent span, run id).  Spans are kept in
flat arrays while the pass runs and written out once at the end.  The loop
is single-threaded, so the open spans form one stack and every span's
parent is the innermost span open when it started.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> (copeda module, public function)
FUNCTION_LAYERS = {
    "eda.select": ("eda", "select_truncation"),
    "eda.evaluate": ("eda", "evaluate_objective"),
    "algorithms.learn": ("algorithms", "learn_model"),
    "algorithms.sample": ("algorithms", "sample_model"),
    "margins.fit": ("margins", "fit_margin"),
    "dependence.tau_matrix": ("dependence", "kendall_tau_matrix"),
    "dependence.indep_test": ("dependence", "indep_test_cvm"),
    "dependence.gof_select": ("dependence", "gof_select_copula"),
    "dependence.pseudo_obs": ("dependence", "pseudo_observations"),
    "dependence.pd_repair": ("dependence", "make_positive_definite"),
    "dependence.mutual_info": ("dependence", "copula_mutual_information"),
    "copulas.h": ("copulas", "copula_h"),
    "copulas.hinv": ("copulas", "copula_hinv"),
    "copulas.loglik": ("copulas", "copula_loglik"),
    "copulas.mvn_sample": ("copulas", "mvnormal_copula_sample"),
    "vines.fit": ("vines", "fit_vine"),
    "vines.sample": ("vines", "vine_sample"),
}

# layer -> method of every margin class in copeda.margins
METHOD_LAYERS = {
    "margins.quantile": "quantile",
    "margins.cdf": "cdf",
}

# The benchmark wraps these two itself: eda.run around each run it starts,
# benchmarks.objective around the objective it hands to the run.
OWN_LAYERS = ("eda.run", "benchmarks.objective")

LAYERS = OWN_LAYERS + tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# layer -> (metric suffix, amount per call from (args, kwargs, result),
#           whether the metric is the per-call mean rather than the total)
COUNTERS = {
    "eda.evaluate": ("rows", lambda a, k, out: len(out), False),
    "margins.quantile": ("points", lambda a, k, out: np.size(out), False),
    "copulas.h": ("points", lambda a, k, out: np.size(out), False),
    "copulas.hinv": ("points", lambda a, k, out: np.size(out), False),
    "dependence.tau_matrix": (
        "pairs", lambda a, k, out: out.shape[0] * (out.shape[0] - 1) // 2,
        False),
    # share of edges the independence pre-test settles, skipping GoF
    "dependence.indep_test": (
        "independent_ratio", lambda a, k, out: int(out.independent), True),
    "dependence.pd_repair": (
        "fired",
        lambda a, k, out: int(not np.array_equal(out, _first_arg(a, k))),
        False),
    "vines.fit": ("trunc_level_mean", lambda a, k, out: out.trunc_level, True),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.layers: list[str] = []
        self.counts: dict[str, float] = {}
        self.run_id = -1
        self._layer = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def wrap(self, layer: str, fn, counter=None):
        """``fn`` with every call recorded as a span of ``layer``."""
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self._layer.append(layer_id)
            self._parent.append(stack[-1])
            self._run.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[layer] = (self.counts.get(layer, 0)
                                      + counter[1](args, kwargs, result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self._layer, dtype=np.intc),
            "parent": np.frombuffer(self._parent, dtype=np.intc),
            "run": np.frombuffer(self._run, dtype=np.intc),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, layers=np.array(self.layers), **self.arrays())

    def summary(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer calls, busy and self seconds, counters and ratios,
        plus the problems the span self-check found (empty when sound)."""
        spans = self.arrays()
        layer, parent = spans["layer"], spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=dur.size)
        own = dur - covered
        metrics: dict[str, float] = {}
        for name in LAYERS:
            mask = (layer == self.layers.index(name)
                    if name in self.layers else np.zeros(dur.size, bool))
            metrics[f"{name}.calls"] = int(mask.sum())
            metrics[f"{name}.busy_s"] = float(dur[mask].sum())
            metrics[f"{name}.self_s"] = float(own[mask].sum())
        for name, (suffix, _, per_call) in COUNTERS.items():
            total = self.counts.get(name, 0)
            calls = metrics[f"{name}.calls"]
            metrics[f"{name}.{suffix}"] = (
                (total / calls if calls else 0.0) if per_call else total)

        problems = []
        run_layer = (self.layers.index("eda.run")
                     if "eda.run" in self.layers else -1)
        if np.any(layer[~nested] != run_layer):
            problems.append("a span lies outside every eda.run span")
        run_busy = metrics["eda.run.busy_s"]
        if own.sum() > run_busy * (1 + 1e-9) + 1e-9:
            problems.append(f"span self times sum to {own.sum()!r} s, more "
                            f"than the {run_busy!r} s eda.run is busy")
        if np.any(own < -1e-9):
            problems.append("a span has negative self time")
        return metrics, problems


def install(tracer: Tracer) -> None:
    """Wrap every traced copeda function and margin method in place."""
    import copeda  # noqa: F401  (imports every submodule that binds a layer)

    modules = [m for name, m in list(sys.modules.items())
               if name == "copeda" or name.startswith("copeda.")]
    for layer, (module_name, function) in FUNCTION_LAYERS.items():
        original = getattr(sys.modules[f"copeda.{module_name}"], function)
        traced = tracer.wrap(layer, original, COUNTERS.get(layer))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    margins = sys.modules["copeda.margins"]
    for layer, method in METHOD_LAYERS.items():
        classes = [c for c in vars(margins).values()
                   if isinstance(c, type) and c.__module__ == margins.__name__
                   and method in vars(c)]
        if not classes:
            raise AttributeError(f"no margin class defines {method}()")
        for cls in classes:
            setattr(cls, method,
                    tracer.wrap(layer, vars(cls)[method], COUNTERS.get(layer)))
