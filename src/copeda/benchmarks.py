"""Benchmark objective functions and their registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eda import EdaSpec, TerminationSpec


def f_sphere(x):
    """Sum of squares; global minimum 0 at the origin.

    Batched: a row-vector times column-vector product gives each row the
    one-point value's bits wherever the two calls reach the same OpenBLAS
    dot kernel (not under ``OPENBLAS_CORETYPE=Prescott``, for one); the
    sum ``np.sum(x * x, -1)`` rounds otherwise.  The kernel sums a strided row
    in another order, hence the contiguous copy.  The trailing ``[()]``
    turns one point's 0-d result into a float.
    """
    x = np.ascontiguousarray(x, dtype=float)
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0][()]


def f_summation_cancellation(x):
    """Prefix-sum cancellation objective, stored negated for minimization.

    With y_1 = x_1 and y_i = y_{i-1} + x_i the value is
    -1 / (1e-5 + sum |y_i|); the global minimum is -1e5 at the origin.
    Batched over the last axis; contiguous rows keep each row's sum in the
    one-point summation order whatever the input's memory layout.  The
    prefix sums add column i - 1 into column i of a C-order copy: the
    additions of ``np.cumsum``, in its order, one column for all rows.
    """
    y = np.array(x, dtype=float, order="C")
    for i in range(1, y.shape[-1]):
        y[..., i] += y[..., i - 1]
    return -1.0 / (1e-5 + np.sum(np.abs(y, out=y), axis=-1))


f_sphere.batched = True
f_summation_cancellation.batched = True


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    func: Callable[[np.ndarray], float]
    default_lower: float
    default_upper: float
    target_eval: float


REGISTRY = {
    "sphere": BenchmarkSpec("sphere", f_sphere, -600.0, 600.0, 0.0),
    "summation-cancellation": BenchmarkSpec(
        "summation-cancellation", f_summation_cancellation, -0.16, 0.16, -1e5),
}


class UnknownBenchmarkError(KeyError):
    pass


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownBenchmarkError(
            f"unknown function {name!r}; registry: {known}") from None


# The reference study's cells: each algorithm on each 10-D function at the
# critical population size its bisection found.  A cell keeps every EdaSpec
# default, so its margins are the algorithm's own (rescaled beta for
# copula-MIMIC).  Which margins the paper's copula-MIMIC figures used is
# still open, so acceptance criterion 6 sets normal margins itself.
STUDY = {
    ("umda", "sphere"): 81,
    ("gceda", "sphere"): 310,
    ("cveda", "sphere"): 104,
    ("dveda", "sphere"): 111,
    ("copula-mimic", "sphere"): 172,
    ("umda", "summation-cancellation"): 2000,
    ("gceda", "summation-cancellation"): 325,
    ("cveda", "summation-cancellation"): 294,
    ("dveda", "summation-cancellation"): 965,
    ("copula-mimic", "summation-cancellation"): 2000,
}


def study_cell(algorithm: str, function: str, dim: int = 10,
               pop_size: int | None = None, max_evals: int = 300000):
    """``(spec, objective, lower, upper)`` of one cell of ``STUDY``.

    ``pop_size`` defaults to the published size.  A run stops at the
    function's target within 1e-6, after ``max_evals`` evaluations, or when
    the sd of a generation's evaluations falls below 1e-8.
    """
    bench = get_benchmark(function)
    if pop_size is None:
        pop_size = STUDY[algorithm, function]
    spec = EdaSpec(algorithm, pop_size,
                   TerminationSpec(target_eval=bench.target_eval,
                                   target_tol=1e-6, max_evals=max_evals,
                                   eval_stddev_floor=1e-8))
    return (spec, bench.func, np.full(dim, bench.default_lower),
            np.full(dim, bench.default_upper))
