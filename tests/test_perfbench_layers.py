"""The benchmark's traced pass finds every copeda layer it names.

``perfbench/spans.py`` wraps copeda functions and margin methods by name
from outside the package, so a rename inside ``src/`` would silently drop
a layer from the traced pass.  These tests read the layer tables from that
file and check them against the package.
"""

import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import copeda
from copeda.eda import eda_run

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

pytestmark = pytest.mark.skipif(not SPANS.exists(),
                                reason="perfbench/ is not in this checkout")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_layers_resolve():
    for layer, (module, function) in load_spans().FUNCTION_LAYERS.items():
        target = getattr(importlib.import_module(f"copeda.{module}"),
                         function, None)
        assert callable(target), f"{layer}: copeda.{module}.{function}"


def test_method_layers_resolve_on_every_margin_class():
    from copeda.margins import (BetaRescaledMargin, KernelMargin,
                                NormalMargin, TruncNormalMargin)

    for layer, method in load_spans().METHOD_LAYERS.items():
        for cls in (NormalMargin, KernelMargin, TruncNormalMargin,
                    BetaRescaledMargin):
            assert method in vars(cls), f"{layer}: {cls.__name__}.{method}"


def test_eda_run_accepts_model_sink():
    assert "model_sink" in inspect.signature(eda_run).parameters


TRACED_HEAD = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spans
from copeda.benchmarks import f_sphere
from copeda.eda import EdaSpec, TerminationSpec, eda_run, run_rng

tracer = spans.Tracer()
spans.install(tracer)
run = tracer.wrap("eda.run", eda_run)
"""

TRACED_TAIL = """
metrics, problems = tracer.summary()
assert not problems, problems
for layer in LAYERS:
    print(layer, metrics[layer + ".calls"])
"""


def traced_calls(body):
    """The ``name count`` lines of a traced pass: ``body`` runs between
    the tracer's install and its summary, may print lines of its own and
    names in LAYERS the layers whose calls the pass prints."""
    src = os.path.dirname(os.path.dirname(copeda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TRACED_HEAD + body + TRACED_TAIL,
         str(SPANS.parent)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return {layer: int(count) for layer, count in
            (line.split() for line in done.stdout.splitlines())}


def test_traced_pass_counts_the_vine_layers():
    calls = traced_calls("""
# product edges skip copula_h, so the pre-test at sig_level 0.999 keeps
# nearly every edge, and trees are never truncated
for algorithm in ("cveda", "dveda"):
    spec = EdaSpec(algorithm, 40, TerminationSpec(max_gen=3),
                   sig_level=0.999, trunc_criterion="none")
    run(spec, f_sphere, np.full(4, -5.0), np.full(4, 5.0), run_rng(1, 0),
        model_sink=lambda *_: None)
LAYERS = ("algorithms.learn", "algorithms.sample", "vines.fit",
          "vines.sample", "copulas.h", "margins.quantile")
""")
    assert len(calls) == 6
    for layer, count in calls.items():
        assert count > 0, layer


def test_traced_pass_counts_the_frank_chain_hinv():
    # learning draws nothing, so every copula_hinv call is the sampler's
    calls = traced_calls("""
spec = EdaSpec("copula-mimic", 30, TerminationSpec(max_gen=3),
               copulas=("frank",))
run(spec, f_sphere, np.full(3, -5.0), np.full(3, 5.0), run_rng(1, 0),
    model_sink=lambda *_: None)
trace = tracer.arrays()
names = np.array(tracer.layers)[trace["layer"]]
parents = trace["parent"][names == "copulas.hinv"]
print("sample>copulas.hinv",
      np.count_nonzero(names[parents[parents >= 0]] == "algorithms.sample"))
LAYERS = ("algorithms.sample", "copulas.hinv")
""")
    assert calls["algorithms.sample"] > 0
    assert calls["sample>copulas.hinv"] == calls["copulas.hinv"] > 0


def test_traced_normal_chain_takes_no_margin_cdf():
    # normal margins map to and from normal scores in closed form, so a
    # normal chain on them learns and samples without cdf or quantile
    calls = traced_calls("""
spec = EdaSpec("copula-mimic", 30, TerminationSpec(max_gen=3),
               margin="normal")
run(spec, f_sphere, np.full(3, -5.0), np.full(3, 5.0), run_rng(1, 0),
    model_sink=lambda *_: None)
LAYERS = ("algorithms.learn", "algorithms.sample", "margins.cdf",
          "margins.quantile")
""")
    assert calls["algorithms.learn"] > 0 and calls["algorithms.sample"] > 0
    assert calls["margins.cdf"] == calls["margins.quantile"] == 0


def test_benchmark_pass_replays_the_study_runs():
    # each workload's benchmark pass does exactly the runs of
    # eda_indep_runs, the identity the benchmark's fingerprints rest on
    done = subprocess.run(
        [sys.executable, str(SPANS.parent / "harness_check.py"),
         "--seconds", "5"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4 and all(line.split()[1] == "same" for line in lines)
