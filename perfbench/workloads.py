"""The benchmark's workloads: acceptance-study configs replayed run by run.

A workload is a cycle of one or more algorithm specs on one objective.
Run ``k`` of a pass uses spec ``k % len(specs)`` with the harness stream
``run_rng(seed, k // len(specs))``, so the runs of each spec are exactly
the first runs of ``eda_indep_runs(spec, ..., base_seed=seed, jobs=1)``.
Why each workload was chosen, and which layers it should not move, is in
README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from copeda.benchmarks import f_sphere, f_summation_cancellation
from copeda.copulas import CopulaFamily
from copeda.eda import EdaSpec, TerminationSpec
from copeda.margins import MarginKind

FULL_TERM = TerminationSpec(target_eval=0.0, target_tol=1e-6,
                            max_evals=300000, eval_stddev_floor=1e-8)


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[EdaSpec, ...]
    objective: Callable[[np.ndarray], float]
    lower: np.ndarray
    upper: np.ndarray
    # single-threaded wall seconds of one run on the reference machine
    # (2-core x86-64, Python 3.11, numpy 2.4, scipy 1.17); it only turns
    # --seconds into a run count, so a pass always does the same runs
    nominal_run_s: float

    def plan(self, seconds: float) -> list[tuple[EdaSpec, int]]:
        """(spec, harness run index) for every run of a pass, in run order."""
        cycles = max(1, round(seconds / (self.nominal_run_s * len(self.specs))))
        return [(spec, i) for i in range(cycles) for spec in self.specs]


def _box(dim: int, lower: float, upper: float):
    return np.full(dim, lower), np.full(dim, upper)


def build_workloads() -> dict[str, Workload]:
    sphere5 = _box(5, -300.0, 900.0)
    sphere10 = _box(10, -600.0, 600.0)
    sumcan10 = _box(10, -0.16, 0.16)
    normal = (CopulaFamily.NORMAL,)
    workloads = [
        # acceptance criterion 1
        Workload("gceda-kernel-sphere5",
                 (EdaSpec("gceda", 200,
                          TerminationSpec(max_gen=50, target_eval=0.0,
                                          target_tol=1e-6),
                          margin=MarginKind.KERNEL),),
                 f_sphere, *sphere5, nominal_run_s=3.0),
        # acceptance criterion 5, both vine types alternating
        Workload("vine-sphere10",
                 (EdaSpec("cveda", 104, FULL_TERM, copulas=normal),
                  EdaSpec("dveda", 111, FULL_TERM, copulas=normal)),
                 f_sphere, *sphere10, nominal_run_s=4.9),
        # acceptance criterion 4
        Workload("umda-sumcan10",
                 (EdaSpec("umda", 2000,
                          TerminationSpec(target_eval=-1e5, target_tol=1e-6,
                                          max_evals=300000,
                                          eval_stddev_floor=1e-8)),),
                 f_summation_cancellation, *sumcan10, nominal_run_s=4.7),
        # acceptance criterion 6
        Workload("cmimic-sphere10",
                 (EdaSpec("copula-mimic", 172, FULL_TERM, copulas=normal,
                          margin=MarginKind.NORMAL),),
                 f_sphere, *sphere10, nominal_run_s=2.6),
    ]
    return {w.name: w for w in workloads}

