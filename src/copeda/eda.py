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
import numbers
import pickle
import time
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import _DEPENDENCE, learn_model, sample_model
from .copulas import CopulaFamily
from .dependence import CVM_MAX_M
from .margins import MarginKind, _mean_sd

class ObjectiveError(RuntimeError):
    """The objective returned a non-finite value, or a batched objective
    returned a result whose shape is not one value per population row."""


class InputError(ValueError):
    """A study was configured with values it cannot run: a bad spec, bounds,
    run count or critical-population search, an objective that cannot be
    sent to worker processes, or a malformed config file."""


def _count(name: str, value, least: int | None = None) -> int:
    """``value`` as an ``int``, a numpy integer too; a bool, a value that is
    not an integer or one below ``least`` raises ``InputError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InputError(f"{name} must be >= {least}")
    return int(value)


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
        for name in ("max_gen", "max_evals"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _count(name, value, 1))
        if not self.target_tol >= 0.0:
            raise InputError("target_tol must be >= 0")
        if not (self.target_eval is None or math.isfinite(self.target_eval)):
            raise InputError("target_eval must be finite")
        if not (self.eval_stddev_floor is None or self.eval_stddev_floor > 0):
            raise InputError("eval_stddev_floor must be > 0")


ALGORITHMS = tuple(_DEPENDENCE)


@dataclass(frozen=True)
class EdaSpec:
    """Configuration of one algorithm instance."""

    algorithm: str
    pop_size: int
    termination: TerminationSpec
    margin: MarginKind | None = None
    copulas: tuple[CopulaFamily, ...] = (CopulaFamily.NORMAL,)
    sig_level: float = 0.01
    trunc_criterion: str = "aic"
    truncation_factor: float = 0.3

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {ALGORITHMS}")
        object.__setattr__(self, "pop_size",
                           _count("pop_size", self.pop_size, 2))
        if not 0.0 < self.truncation_factor <= 1.0:
            raise InputError("truncation_factor must be in (0, 1]")
        selected = _truncation_count(self.truncation_factor, self.pop_size)
        if self.algorithm in ("cveda", "dveda") and selected > CVM_MAX_M:
            raise InputError(
                f"{self.algorithm}'s CvM independence pre-test takes at most "
                f"{CVM_MAX_M} selected rows; pop_size {self.pop_size} "
                f"selects {selected}")
        if not 0.0 < self.sig_level < 1.0:  # also catches NaN
            raise InputError("sig_level must be in (0, 1)")
        if self.trunc_criterion not in ("aic", "bic", "none"):
            raise InputError("trunc_criterion must be aic, bic or none")
        try:
            if self.margin is not None:
                object.__setattr__(self, "margin", MarginKind(self.margin))
            object.__setattr__(self, "copulas",
                               tuple(CopulaFamily(c) for c in self.copulas))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if not self.copulas:
            raise InputError("copulas must name at least one family")
        if self.algorithm == "copula-mimic" and self.copulas not in (
                (CopulaFamily.NORMAL,), (CopulaFamily.FRANK,)):
            raise InputError("copula-mimic takes exactly one copula family, "
                             "normal or frank")

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


@dataclass
class RunResult:
    num_gens: int
    f_evals: int
    best_sol: np.ndarray
    best_eval: float
    cpu_time: float  # process CPU seconds of the run (time.process_time)


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
                 rng: np.random.Generator) -> np.ndarray:
    """Initial ``(pop_size, n)`` population: each entry uniform on its
    coordinate interval."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(lower >= upper):
        raise InputError("need lower < upper in every coordinate")
    if not np.isfinite(upper - lower).all():  # NaN, an infinity or overflow
        raise InputError("need finite bounds with a finite upper - lower")
    return rng.uniform(lower, upper, size=(pop_size, lower.size))


def _truncation_count(factor: float, m: int) -> int:
    """How many of m rows ``select_truncation`` keeps."""
    return min(max(2, int(math.floor(factor * m + 0.5))), m)


def select_truncation(X: np.ndarray, evaluations: np.ndarray,
                      factor: float) -> np.ndarray:
    """The max(2, round(factor * m)) best of the m rows of X, best first
    (minimization).

    The rows of ``np.argsort(evaluations, kind="stable")[:count]``, in that
    order: a linear-time partition (``np.partition``, Hoare's FIND) finds
    the count-th smallest evaluation, and only the rows at or below it are
    stable-sorted.  Ties keep row order, so of the rows tied at the cut the
    earliest are kept.  Raises ``ValueError`` on a NaN evaluation.
    """
    m = X.shape[0]
    evaluations = np.asarray(evaluations)
    if evaluations.shape != (m,):
        raise ValueError("need one evaluation per population row")
    if np.isnan(evaluations).any():
        raise ValueError("cannot select on a NaN evaluation")
    count = _truncation_count(factor, m)
    cut = np.partition(evaluations, count - 1)[count - 1]
    rows = np.flatnonzero(evaluations <= cut)
    return X[rows[np.argsort(evaluations[rows], kind="stable")[:count]]]


def _std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof 1), with the bits of
    ``np.std(values, ddof=1)``; 0 for a single value."""
    return float(_mean_sd(values)[1]) if values.size > 1 else 0.0


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
    """Objective values of the ``(m, n)`` population, one per row.

    An objective with the attribute ``batched = True`` is called once on
    the whole population and must return shape ``(m,)`` whose row i equals
    ``f(solutions[i])`` bit for bit; any other objective is called once per
    row.  Raises ``ObjectiveError`` on a wrong-shape batched result or a
    non-finite value, naming the first row that has one.
    """
    m = solutions.shape[0]
    if getattr(f, "batched", False):
        values = np.asarray(f(solutions), dtype=float)
        if values.shape != (m,):
            raise ObjectiveError(
                f"batched objective returned shape {values.shape} for "
                f"{m} points; expected ({m},)")
    else:
        values = np.empty(m)
        for i, row in enumerate(solutions):
            values[i] = f(row)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise ObjectiveError(f"objective returned {values[i]} at point "
                             f"{solutions[i].tolist()}")
    return values


def eda_run(spec: EdaSpec, f, lower, upper, rng: np.random.Generator,
            model_sink=None) -> RunResult:
    """One optimization run; returns generations, evaluations, best and the
    run's process CPU time.

    ``model_sink``, if given, is the run's only output channel: once each
    generation's population is evaluated it is called as
    ``model_sink(gen, evaluations, model)`` for gen = 1, 2, ..., where
    ``evaluations`` is that generation's ``(pop_size,)`` array and
    ``model`` the ``SearchModel`` it was sampled from (``None`` for
    generation 1, the uniform initial population).  It draws nothing from
    ``rng``, so observing a run does not change it.  The name predates the
    evaluations argument and is kept for callers that pass it by keyword.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    start = time.process_time()

    X = seed_uniform(lower, upper, spec.pop_size, rng)
    model = None
    gen = f_evals = 0
    best_eval, best_sol = math.inf, None
    while True:
        evals = evaluate_objective(f, X)
        gen += 1
        f_evals += spec.pop_size
        gen_best = int(np.argmin(evals))
        if evals[gen_best] < best_eval:
            best_eval = float(evals[gen_best])
            best_sol = X[gen_best].copy()
        if model_sink is not None:
            model_sink(gen, evals, model)
        if terminate_check(spec.termination, gen=gen, evals=f_evals,
                           best_eval=best_eval, eval_stddev=_std(evals)):
            break
        selected = select_truncation(X, evals, spec.truncation_factor)
        model = learn_model(spec, selected, lower, upper)
        X = sample_model(model, spec.pop_size, rng)

    return RunResult(gen, f_evals, best_sol, best_eval,
                     time.process_time() - start)


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
    runs, jobs = _count("runs", runs, 1), _count("jobs", jobs, 1)
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
    return Stats(float(arr.min()), float(np.median(arr)), float(arr.max()),
                 float(arr.mean()), _std(arr))


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
    for i in range(total_runs):
        result = eda_run(sized, f, lower, upper, run_rng(base_seed, size, i))
        attempted += 1
        if abs(result.best_eval - target) <= tol:
            successes += 1
        else:
            failures += 1
            if failures > max_failures:
                break
    return successes, attempted


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
    lower_pop = _count("lower_pop", lower_pop)
    upper_pop = _count("upper_pop", upper_pop)
    total_runs = _count("total_runs", total_runs)
    success_runs = _count("success_runs", success_runs)
    if not 1 <= lower_pop < upper_pop:
        raise InputError("need 1 <= lower_pop < upper_pop")
    if not 1 <= success_runs <= total_runs:
        raise InputError("need 1 <= success_runs <= total_runs")
    if not 0.0 <= stop_percent < math.inf:
        raise InputError("need a finite stop_percent >= 0")

    def succeeded(size: int) -> bool:
        # bisection never probes a size twice: every mid is inside (lo, hi)
        if probe is not None:
            successes, attempted = probe(size)
        else:
            successes, attempted = _probe_size(
                spec, f, lower, upper, target, tol, size, total_runs,
                success_runs, base_seed)
        if trace is not None:
            trace(size, successes, attempted)
        return successes >= success_runs

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
