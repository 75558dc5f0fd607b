"""Generic estimation-of-distribution loop and experiment harness.

The loop seeds an initial uniform population, then iterates truncation
selection, model learning, sampling, evaluation and complete replacement
until a termination criterion fires.  The harness runs independent
replications with deterministic per-run seeding, summarizes them, and
searches for the critical population size by bisection.
"""

from __future__ import annotations

import concurrent.futures
import math
import pickle
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .copulas import CopulaFamily
from .margins import MarginKind
from .vines import VineType

REPORT_HEADER = (f"{'Generation':>12} {'Minimum':>12} "
                 f"{'Mean':>12} {'Std. Dev.':>12}")


class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value."""


class InputError(ValueError):
    """A study was configured with values it cannot run: a bad spec, bounds,
    run count or critical-population search, an objective that cannot be
    sent to worker processes, or a malformed config file."""


@dataclass
class Population:
    """Candidate solutions and, once evaluated, their objective values."""

    solutions: np.ndarray
    evaluations: np.ndarray | None = None

    def __post_init__(self):
        self.solutions = np.asarray(self.solutions, dtype=float)
        if self.evaluations is not None:
            self.evaluations = np.asarray(self.evaluations, dtype=float)
            if self.evaluations.shape[0] != self.solutions.shape[0]:
                raise ValueError("evaluations length must match population size")

    @property
    def size(self) -> int:
        return self.solutions.shape[0]


@dataclass(frozen=True)
class TerminationSpec:
    """OR-combination of stopping criteria; at least one must be set."""

    max_gen: int | None = None
    max_evals: int | None = None
    target_eval: float | None = None
    target_tol: float = 1e-6
    eval_stddev_floor: float | None = None

    def __post_init__(self):
        if (self.max_gen is None and self.max_evals is None
                and self.target_eval is None and self.eval_stddev_floor is None):
            raise InputError("at least one termination criterion must be set")


ALGORITHMS = ("umda", "gceda", "cveda", "dveda", "copula-mimic")


@dataclass(frozen=True)
class EdaSpec:
    """Configuration of one algorithm instance."""

    algorithm: str
    pop_size: int
    termination: TerminationSpec
    margin: MarginKind | None = None
    copulas: tuple[CopulaFamily, ...] = (CopulaFamily.NORMAL,)
    vine_type: VineType | None = None
    sig_level: float = 0.01
    trunc_criterion: str = "aic"
    truncation_factor: float = 0.3
    report: str = "none"
    mi_samples: int = 100
    indep_replicates: int = 100

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {ALGORITHMS}")
        if self.pop_size < 2:
            raise InputError("pop_size must be at least 2")
        if not 0.0 < self.truncation_factor <= 1.0:
            raise InputError("truncation_factor must be in (0, 1]")
        if self.trunc_criterion not in ("aic", "bic", "none"):
            raise InputError("trunc_criterion must be aic, bic or none")
        if self.report not in ("none", "simple"):
            raise InputError("report must be none or simple")
        try:
            if self.margin is not None:
                object.__setattr__(self, "margin", MarginKind(self.margin))
            object.__setattr__(self, "copulas",
                               tuple(CopulaFamily(c) for c in self.copulas))
            if self.vine_type is not None:
                object.__setattr__(self, "vine_type", VineType(self.vine_type))
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    @property
    def effective_margin(self) -> MarginKind:
        """Margin kind with the per-algorithm default applied.

        The copula-chain algorithm models margins with the rescaled beta
        distribution unless told otherwise; everything else defaults to
        normal margins.
        """
        if self.margin is not None:
            return self.margin
        if self.algorithm == "copula-mimic":
            return MarginKind.BETA_RESCALED
        return MarginKind.NORMAL

    @property
    def effective_vine_type(self) -> VineType:
        if self.vine_type is not None:
            return self.vine_type
        return VineType.DVINE if self.algorithm == "dveda" else VineType.CVINE


@dataclass
class RunResult:
    num_gens: int
    f_evals: int
    best_sol: np.ndarray
    best_eval: float
    cpu_time: float


@dataclass(frozen=True)
class Stats:
    minimum: float
    median: float
    maximum: float
    mean: float
    std_dev: float


@dataclass(frozen=True)
class RunsSummary:
    generations: Stats
    evaluations: Stats
    best_evaluation: Stats
    cpu_time: Stats


# ---------------------------------------------------------------------------
# loop building blocks


def seed_uniform(lower, upper, pop_size: int,
                 rng: np.random.Generator) -> Population:
    """Initial population: each entry uniform on its coordinate interval."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower >= upper):
        raise InputError("need lower < upper in every coordinate")
    sols = rng.uniform(lower, upper, size=(pop_size, lower.size))
    return Population(sols)


def select_truncation(pop: Population, factor: float) -> Population:
    """Keep the max(2, round(factor * popSize)) best rows (minimization)."""
    if pop.evaluations is None:
        raise ValueError("population must be evaluated before selection")
    count = max(2, int(math.floor(factor * pop.size + 0.5)))
    count = min(count, pop.size)
    order = np.argsort(pop.evaluations, kind="stable")[:count]
    return Population(pop.solutions[order].copy(), pop.evaluations[order].copy())


def terminate_check(term: TerminationSpec, *, gen: int, evals: int,
                    best_eval: float, eval_stddev: float) -> bool:
    """True once any enabled criterion fires."""
    if term.max_gen is not None and gen >= term.max_gen:
        return True
    if term.max_evals is not None and evals >= term.max_evals:
        return True
    if (term.target_eval is not None
            and abs(best_eval - term.target_eval) <= term.target_tol):
        return True
    if (term.eval_stddev_floor is not None
            and eval_stddev < term.eval_stddev_floor):
        return True
    return False


def evaluate_objective(f, solutions: np.ndarray) -> np.ndarray:
    values = np.empty(solutions.shape[0])
    for i, row in enumerate(solutions):
        values[i] = f(row)
        if not np.isfinite(values[i]):
            raise ObjectiveError(
                f"objective returned {values[i]} at point {row.tolist()}")
    return values


def _report_line(stream, gen: int, evaluations: np.ndarray):
    mean = float(np.mean(evaluations))
    std = float(np.std(evaluations, ddof=1)) if evaluations.size > 1 else 0.0
    stream.write(f"{gen:>12d} {np.min(evaluations):>12.6e} "
                 f"{mean:>12.6e} {std:>12.6e}\n")


def eda_run(spec: EdaSpec, f, lower, upper, rng: np.random.Generator,
            report_stream=None, model_sink=None) -> RunResult:
    """One optimization run; returns generations, evaluations, best and time."""
    from .algorithms import learn_model, sample_model

    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    start = time.perf_counter()
    stream = report_stream if report_stream is not None else sys.stdout
    reporting = spec.report == "simple"

    pop = seed_uniform(lower, upper, spec.pop_size, rng)
    evals = evaluate_objective(f, pop.solutions)
    pop = Population(pop.solutions, evals)
    gen = 1
    f_evals = spec.pop_size
    best_idx = int(np.argmin(evals))
    best_eval = float(evals[best_idx])
    best_sol = pop.solutions[best_idx].copy()

    if reporting:
        stream.write(REPORT_HEADER + "\n")
        _report_line(stream, gen, evals)

    def state():
        std = float(np.std(pop.evaluations, ddof=1)) if pop.size > 1 else 0.0
        return dict(gen=gen, evals=f_evals, best_eval=best_eval,
                    eval_stddev=std)

    while not terminate_check(spec.termination, **state()):
        gen += 1
        selected = select_truncation(pop, spec.truncation_factor)
        model = learn_model(spec, selected, lower, upper, rng)
        if model_sink is not None:
            model_sink(gen, model)
        sols = sample_model(model, spec.pop_size, lower, upper, rng)
        evals = evaluate_objective(f, sols)
        pop = Population(sols, evals)
        f_evals += spec.pop_size
        gen_best = int(np.argmin(evals))
        if evals[gen_best] < best_eval:
            best_eval = float(evals[gen_best])
            best_sol = sols[gen_best].copy()
        if reporting:
            _report_line(stream, gen, evals)

    return RunResult(gen, f_evals, best_sol, best_eval,
                     time.perf_counter() - start)


# ---------------------------------------------------------------------------
# independent runs


def run_rng(base_seed: int, *path: int) -> np.random.Generator:
    """Deterministic stream for (base_seed, run index, ...) combinations."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, *path]))


def _one_indep_run(args):
    spec, f, lower, upper, base_seed, index = args
    return eda_run(spec, f, lower, upper, run_rng(base_seed, index))


def eda_indep_runs(spec: EdaSpec, f, lower, upper, runs: int,
                   base_seed: int = 12345, jobs: int = 1
                   ) -> tuple[list[RunResult], RunsSummary]:
    """Independent replications with per-run streams derived from the seed."""
    if runs < 1:
        raise InputError("runs must be >= 1")
    tasks = [(spec, f, lower, upper, base_seed, i) for i in range(runs)]
    if jobs > 1:
        try:
            pickle.dumps(tasks[0])
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise InputError(
                f"jobs={jobs} sends the objective to worker processes, so it "
                "must be picklable (a module-level function, not a lambda or "
                f"closure): {exc}") from exc
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_indep_run, tasks))
    else:
        results = [_one_indep_run(t) for t in tasks]
    return results, summarize_runs(results)


def _stats(values) -> Stats:
    arr = np.asarray(values, dtype=float)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return Stats(float(arr.min()), float(np.median(arr)), float(arr.max()),
                 float(arr.mean()), std)


def summarize_runs(results: list[RunResult]) -> RunsSummary:
    """Minimum/median/maximum/mean/std-dev per result metric."""
    if not results:
        raise ValueError("summarize_runs needs at least one result")
    return RunsSummary(
        generations=_stats([r.num_gens for r in results]),
        evaluations=_stats([r.f_evals for r in results]),
        best_evaluation=_stats([r.best_eval for r in results]),
        cpu_time=_stats([r.cpu_time for r in results]),
    )


# ---------------------------------------------------------------------------
# critical population size


def _probe_size(spec, f, lower, upper, target, tol, size, total_runs,
                success_runs, base_seed):
    """Run up to total_runs at this size, stopping once success is impossible."""
    sized = replace(spec, pop_size=size,
                    termination=replace(spec.termination, target_eval=target,
                                        target_tol=tol))
    max_failures = total_runs - success_runs
    successes = failures = attempted = 0
    results = []
    for i in range(total_runs):
        result = eda_run(sized, f, lower, upper, run_rng(base_seed, size, i))
        results.append(result)
        attempted += 1
        if abs(result.best_eval - target) <= tol:
            successes += 1
        else:
            failures += 1
            if failures > max_failures:
                break
    return successes, attempted, results


def critical_pop_size(spec: EdaSpec, f, lower, upper, target: float,
                      tol: float, lower_pop: int, upper_pop: int,
                      total_runs: int = 30, success_runs: int = 30,
                      stop_percent: float = 10.0, base_seed: int = 12345,
                      trace=None, probe=None) -> int | None:
    """Bisection search for the smallest reliably successful population size.

    A size succeeds when at least ``success_runs`` of ``total_runs``
    independent runs reach ``target`` within ``tol``.  The upper bound is
    probed first and ``None`` is returned if it fails.  Bisection keeps a
    [failing, succeeding] bracket and stops once its width drops below
    ``stop_percent`` percent of the succeeding bound.  ``probe`` overrides
    the per-size success probe (used by tests and custom studies); ``trace``
    receives (size, successes, attempted) after each probe.
    """
    if not lower_pop < upper_pop:
        raise InputError("need lower_pop < upper_pop")
    if success_runs > total_runs:
        raise InputError("success_runs cannot exceed total_runs")

    cache: dict[int, bool] = {}

    def succeeded(size: int) -> bool:
        if size not in cache:
            if probe is not None:
                successes, attempted = probe(size)
            else:
                successes, attempted, _ = _probe_size(
                    spec, f, lower, upper, target, tol, size, total_runs,
                    success_runs, base_seed)
            cache[size] = successes >= success_runs
            if trace is not None:
                trace(size, successes, attempted)
        return cache[size]

    if not succeeded(upper_pop):
        return None
    lo, hi = lower_pop, upper_pop
    while (hi - lo) > stop_percent / 100.0 * hi:
        mid = (lo + hi) // 2
        if mid <= lo or mid >= hi:
            break
        if succeeded(mid):
            hi = mid
        else:
            lo = mid
    return hi
