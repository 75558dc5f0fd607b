import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copeda.benchmarks import f_sphere
from copeda.eda import (
    EdaSpec,
    InputError,
    ObjectiveError,
    Population,
    TerminationSpec,
    critical_pop_size,
    eda_indep_runs,
    eda_run,
    run_rng,
    seed_uniform,
    select_truncation,
    summarize_runs,
    terminate_check,
)
from copeda.margins import MarginKind


def umda_spec(pop_size=30, **term):
    return EdaSpec("umda", pop_size, TerminationSpec(**term))


class TestSeedUniform:
    def test_column_means(self):
        rng = np.random.default_rng(1)
        pop = seed_uniform([0.0, 0.0], [1.0, 1.0], 1000, rng)
        assert np.allclose(pop.solutions.mean(axis=0), 0.5, atol=0.05)

    def test_inside_bounds(self):
        rng = np.random.default_rng(2)
        pop = seed_uniform([-300.0] * 5, [900.0] * 5, 200, rng)
        assert np.all(pop.solutions >= -300.0)
        assert np.all(pop.solutions <= 900.0)

    def test_single_row(self):
        rng = np.random.default_rng(3)
        pop = seed_uniform([0.0], [1.0], 1, rng)
        assert pop.solutions.shape == (1, 1)
        assert 0.0 <= pop.solutions[0, 0] <= 1.0

    def test_invalid_bounds(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            seed_uniform([1.0], [1.0], 5, rng)


class TestSelectTruncation:
    def test_keeps_best_third(self):
        pop = Population(np.arange(10.0)[:, None], np.arange(1.0, 11.0))
        out = select_truncation(pop, 0.3)
        assert sorted(out.evaluations) == [1.0, 2.0, 3.0]

    def test_factor_one_is_whole_population(self):
        pop = Population(np.arange(4.0)[:, None], np.array([3.0, 1.0, 2.0, 0.0]))
        out = select_truncation(pop, 1.0)
        assert out.size == 4

    def test_minimum_of_two(self):
        pop = Population(np.arange(3.0)[:, None], np.array([5.0, 1.0, 3.0]))
        out = select_truncation(pop, 0.3)
        assert out.size == 2
        assert sorted(out.evaluations) == [1.0, 3.0]

    @given(st.lists(st.floats(-1e5, 1e5), min_size=4, max_size=30, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_transform(self, evals):
        evals = np.array(evals)
        mapped = np.exp(evals / 2e5) * 7.0 + 1.0
        if len(np.unique(mapped)) < len(evals):
            return  # transform collapsed distinct values in float precision
        pop = Population(np.arange(len(evals))[:, None].astype(float), evals)
        a = select_truncation(pop, 0.3)
        b = select_truncation(Population(pop.solutions, mapped), 0.3)
        assert np.array_equal(a.solutions, b.solutions)


class TestTerminateCheck:
    def test_max_gen(self):
        term = TerminationSpec(max_gen=50)
        assert terminate_check(term, gen=50, evals=0, best_eval=1.0,
                               eval_stddev=1.0)
        assert not terminate_check(term, gen=49, evals=0, best_eval=1.0,
                                   eval_stddev=1.0)

    def test_target_with_tolerance(self):
        term = TerminationSpec(target_eval=0.0, target_tol=1e-6)
        assert terminate_check(term, gen=1, evals=0, best_eval=8.48383e-07,
                               eval_stddev=1.0)

    def test_stddev_floor(self):
        term = TerminationSpec(eval_stddev_floor=1e-8)
        assert terminate_check(term, gen=1, evals=0, best_eval=1.0,
                               eval_stddev=1e-9)

    def test_max_evals(self):
        term = TerminationSpec(max_evals=300000)
        assert terminate_check(term, gen=1, evals=300000, best_eval=1.0,
                               eval_stddev=1.0)

    def test_requires_some_criterion(self):
        with pytest.raises(ValueError):
            TerminationSpec()


class TestEdaRun:
    def test_umda_small_sphere(self):
        hits = 0
        for seed in (1, 2, 3):
            spec = umda_spec(pop_size=30, max_gen=50, target_eval=0.0,
                             target_tol=1e-2)
            result = eda_run(spec, f_sphere, [-10.0, -10.0], [10.0, 10.0],
                             run_rng(12345, seed))
            hits += result.best_eval <= 1e-2
        assert hits >= 2

    def test_single_generation_accounting(self):
        spec = umda_spec(pop_size=17, max_gen=1)
        result = eda_run(spec, f_sphere, [-1.0] * 3, [1.0] * 3,
                         run_rng(12345, 0))
        assert result.num_gens == 1
        assert result.f_evals == 17

    def test_accounting_and_monotone_best(self):
        spec = umda_spec(pop_size=20, max_gen=12)
        trace = []

        class Recorder:
            def __call__(self, x):
                val = f_sphere(x)
                trace.append(val)
                return val

        result = eda_run(spec, Recorder(), [-5.0] * 2, [5.0] * 2,
                         run_rng(1, 1))
        assert result.f_evals == result.num_gens * 20
        assert result.f_evals == len(trace)
        # running best over the trace is the reported best
        assert result.best_eval == pytest.approx(min(trace))

    def test_gceda_kernel_margins_converges(self):
        spec = EdaSpec("gceda", 200,
                       TerminationSpec(max_gen=50, target_eval=0.0,
                                       target_tol=1e-6),
                       margin=MarginKind.KERNEL)
        result = eda_run(spec, f_sphere, [-300.0] * 5, [900.0] * 5,
                         run_rng(12345, 0))
        assert result.best_eval <= 1e-6
        assert 25 <= result.num_gens <= 50

    def test_report_stream_format(self):
        stream = io.StringIO()
        spec = EdaSpec("umda", 10, TerminationSpec(max_gen=3), report="simple")
        eda_run(spec, f_sphere, [-1.0] * 2, [1.0] * 2, run_rng(5, 5),
                report_stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0].split() == ["Generation", "Minimum", "Mean", "Std.", "Dev."]
        assert len(lines) == 4
        first = lines[1].split()
        assert first[0] == "1"
        assert all("e" in tok for tok in first[1:])

    def test_objective_error_names_point(self):
        spec = umda_spec(pop_size=5, max_gen=2)

        def bad(x):
            return float("nan")

        with pytest.raises(ObjectiveError, match="point"):
            eda_run(spec, bad, [0.0], [1.0], run_rng(0, 0))


class TestIndepRuns:
    def test_single_run_degenerate_summary(self):
        spec = umda_spec(pop_size=10, max_gen=2)
        results, summary = eda_indep_runs(spec, f_sphere, [-1.0] * 2,
                                          [1.0] * 2, runs=1, base_seed=7)
        assert len(results) == 1
        assert summary.generations.minimum == summary.generations.maximum
        assert summary.generations.std_dev == 0.0

    def test_deterministic_given_seed(self):
        spec = umda_spec(pop_size=15, max_gen=5)
        r1, _ = eda_indep_runs(spec, f_sphere, [-2.0] * 2, [2.0] * 2,
                               runs=3, base_seed=99)
        r2, _ = eda_indep_runs(spec, f_sphere, [-2.0] * 2, [2.0] * 2,
                               runs=3, base_seed=99)
        for a, b in zip(r1, r2):
            assert a.num_gens == b.num_gens
            assert a.f_evals == b.f_evals
            assert a.best_eval == b.best_eval
            assert np.array_equal(a.best_sol, b.best_sol)

    def test_parallel_jobs_match_sequential(self):
        spec = umda_spec(pop_size=12, max_gen=4)
        seq, _ = eda_indep_runs(spec, f_sphere, [-2.0] * 2, [2.0] * 2,
                                runs=4, base_seed=3)
        par, _ = eda_indep_runs(spec, f_sphere, [-2.0] * 2, [2.0] * 2,
                                runs=4, base_seed=3, jobs=2)
        for a, b in zip(seq, par):
            assert a.best_eval == b.best_eval
            assert np.array_equal(a.best_sol, b.best_sol)

    @pytest.mark.parametrize("objective", [
        lambda x: float(np.sum(x ** 2)),
        (lambda scale: (lambda x: scale * float(np.sum(x ** 2))))(2.0),
    ], ids=["lambda", "closure"])
    def test_unpicklable_objective_rejected_before_any_worker(self, objective,
                                                               monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        spec = umda_spec(pop_size=12, max_gen=4)
        with pytest.raises(ValueError, match="picklable"):
            eda_indep_runs(spec, objective, [-2.0] * 2, [2.0] * 2, runs=2,
                           jobs=2)


class TestSummarizeRuns:
    def make(self, gens):
        from copeda.eda import RunResult
        return [RunResult(g, g * 10, np.zeros(2), float(g), 0.1) for g in gens]

    def test_hand_arithmetic(self):
        summary = summarize_runs(self.make([33, 38, 36]))
        assert summary.generations.mean == pytest.approx(35.6667, abs=1e-3)
        assert summary.generations.median == 36

    def test_reference_thirty_run_table(self):
        # generation counts of a published 30-run experiment; the summary
        # row reports mean 35.433333 and std dev 1.250747
        gens = [33, 38, 36, 37, 34, 35, 35, 35, 36, 37, 36, 35, 37, 36, 34,
                35, 36, 38, 36, 35, 36, 35, 35, 34, 36, 34, 35, 33, 36, 35]
        summary = summarize_runs(self.make(gens))
        assert summary.generations.mean == pytest.approx(35.433333, abs=1e-4)
        assert summary.generations.std_dev == pytest.approx(1.250747, abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])


class TestCriticalPopSize:
    def test_threshold_oracle_within_ten_percent(self):
        spec = umda_spec(pop_size=10, max_gen=1, target_eval=0.0)
        probed = []

        def probe(size):
            probed.append(size)
            return (30, 30) if size >= 100 else (0, 30)

        found = critical_pop_size(spec, f_sphere, [0.0], [1.0], 0.0, 1e-6,
                                  50, 2000, 30, 30, 10.0, probe=probe)
        assert found is not None
        assert 100 <= found <= 110
        assert len(probed) == len(set(probed))  # cached, no repeats

    def test_upper_bound_failure_returns_none(self):
        spec = umda_spec(pop_size=10, max_gen=1, target_eval=0.0)
        found = critical_pop_size(spec, f_sphere, [0.0], [1.0], 0.0, 1e-6,
                                  50, 2000, 30, 30, 10.0,
                                  probe=lambda size: (0, 30))
        assert found is None

    def test_always_successful_lands_near_lower(self):
        spec = umda_spec(pop_size=10, max_gen=1, target_eval=0.0)
        found = critical_pop_size(spec, f_sphere, [0.0], [1.0], 0.0, 1e-6,
                                  50, 2000, 30, 30, 10.0,
                                  probe=lambda size: (30, 30))
        assert found is not None
        assert found <= 50 * 1.1

    def test_real_probe_on_easy_problem(self):
        # every size solves this one; the search must run real probes and
        # settle near the lower bound
        spec = EdaSpec("umda", 8, TerminationSpec(max_gen=40, target_eval=0.0,
                                                  target_tol=1e-2))
        trace = []
        found = critical_pop_size(
            spec, f_sphere, [-1.0], [1.0], 0.0, 1e-2, 4, 16,
            total_runs=3, success_runs=3, stop_percent=10.0, base_seed=11,
            trace=lambda size, ok, att: trace.append((size, ok, att)))
        assert found is not None
        assert 4 <= found <= 16
        assert trace[0][0] == 16  # upper bound probed first


class TestInputError:
    """Every check on a study's configuration raises the one typed error."""

    @pytest.mark.parametrize("build", [
        lambda: EdaSpec("nope", 30, TerminationSpec(max_gen=5)),
        lambda: EdaSpec("umda", 1, TerminationSpec(max_gen=5)),
        lambda: EdaSpec("umda", 30, TerminationSpec(max_gen=5),
                        truncation_factor=0.0),
        lambda: EdaSpec("umda", 30, TerminationSpec(max_gen=5),
                        trunc_criterion="aicc"),
        lambda: EdaSpec("umda", 30, TerminationSpec(max_gen=5), report="all"),
        lambda: EdaSpec("gceda", 30, TerminationSpec(max_gen=5),
                        margin="uniform"),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        copulas=("joe",)),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        vine_type="rvine"),
        lambda: TerminationSpec(),
        lambda: seed_uniform([1.0], [1.0], 5, np.random.default_rng(0)),
        lambda: eda_indep_runs(umda_spec(max_gen=2), f_sphere, [-1.0], [1.0],
                               runs=0),
        lambda: critical_pop_size(umda_spec(max_gen=2), f_sphere, [-1.0],
                                  [1.0], 0.0, 1e-6, 20, 10),
        lambda: critical_pop_size(umda_spec(max_gen=2), f_sphere, [-1.0],
                                  [1.0], 0.0, 1e-6, 10, 20, total_runs=5,
                                  success_runs=6),
    ])
    def test_raised_by_input_checks(self, build):
        with pytest.raises(InputError):
            build()

    def test_is_a_value_error(self):
        assert issubclass(InputError, ValueError)


class TestDeterminismAcrossConfigs:
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_run_trace_fully_determined(self, pop_size, max_gen, seed):
        spec = umda_spec(pop_size=pop_size, max_gen=max_gen)
        a = eda_run(spec, f_sphere, [-3.0] * 2, [3.0] * 2, run_rng(seed, 0))
        b = eda_run(spec, f_sphere, [-3.0] * 2, [3.0] * 2, run_rng(seed, 0))
        assert a.num_gens == b.num_gens
        assert a.f_evals == b.f_evals
        assert a.best_eval == b.best_eval
        assert np.array_equal(a.best_sol, b.best_sol)
        assert a.f_evals == a.num_gens * pop_size
