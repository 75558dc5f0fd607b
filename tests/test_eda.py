import io
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from copeda.algorithms import SearchModel
from copeda.benchmarks import f_sphere
from copeda.cli import _PROGRESS_HEADER, _progress_line
from copeda.eda import (
    ALGORITHMS,
    EdaSpec,
    InputError,
    ObjectiveError,
    TerminationSpec,
    _std,
    critical_pop_size,
    eda_indep_runs,
    eda_run,
    evaluate_objective,
    run_rng,
    seed_uniform,
    select_truncation,
    summarize_runs,
    terminate_check,
)
from copeda.margins import MarginKind


def umda_spec(pop_size=30, **term):
    return EdaSpec("umda", pop_size, TerminationSpec(**term))


def no_probe(size):
    raise AssertionError(f"probed pop {size} before checking the inputs")


def checked_search(lower_pop, upper_pop, total_runs, success_runs,
                   stop_percent=10.0):
    return critical_pop_size(umda_spec(max_gen=2), f_sphere, [-1.0], [1.0],
                             0.0, 1e-6, lower_pop, upper_pop, total_runs,
                             success_runs, stop_percent, probe=no_probe)


class TestSeedUniform:
    def test_column_means(self):
        rng = np.random.default_rng(1)
        X = seed_uniform([0.0, 0.0], [1.0, 1.0], 1000, rng)
        assert X.shape == (1000, 2)
        assert np.allclose(X.mean(axis=0), 0.5, atol=0.05)

    def test_inside_bounds(self):
        rng = np.random.default_rng(2)
        X = seed_uniform([-300.0] * 5, [900.0] * 5, 200, rng)
        assert np.all(X >= -300.0)
        assert np.all(X <= 900.0)

    def test_single_row(self):
        rng = np.random.default_rng(3)
        X = seed_uniform([0.0], [1.0], 1, rng)
        assert X.shape == (1, 1)
        assert 0.0 <= X[0, 0] <= 1.0

    def test_invalid_bounds(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            seed_uniform([1.0], [1.0], 5, rng)


class TestSelectTruncation:
    # each row holds its own evaluation, so the selected rows show which
    # evaluations were kept
    def test_keeps_best_third(self):
        evals = np.arange(1.0, 11.0)
        out = select_truncation(evals[:, None], evals, 0.3)
        assert out[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_factor_one_is_whole_population(self):
        evals = np.array([3.0, 1.0, 2.0, 0.0])
        out = select_truncation(evals[:, None], evals, 1.0)
        assert out[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_minimum_of_two(self):
        evals = np.array([5.0, 1.0, 3.0])
        out = select_truncation(evals[:, None], evals, 0.3)
        assert out[:, 0].tolist() == [1.0, 3.0]

    def test_ties_keep_row_order(self):
        out = select_truncation(np.arange(4.0)[:, None],
                                np.array([2.0, 1.0, 1.0, 0.0]), 0.75)
        assert out[:, 0].tolist() == [3.0, 1.0, 2.0]

    def test_evaluation_count_must_match_rows(self):
        with pytest.raises(ValueError):
            select_truncation(np.zeros((4, 2)), np.zeros(3), 0.5)

    def test_nan_evaluation_raises(self):
        evals = np.array([1.0, np.nan, 0.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            select_truncation(evals[:, None], evals, 0.5)

    # values from a small pool tie heavily (levels 1: all equal), and the
    # pool mixes -0.0 with 0.0 and infinities with finite values
    @given(m=st.integers(2, 3000), factor=st.floats(0.0, 1.0, exclude_min=True),
           levels=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    @example(m=2000, factor=0.3, levels=1, seed=0)
    @example(m=3000, factor=1.0, levels=2, seed=1)
    @example(m=2, factor=1e-9, levels=7, seed=2)
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort(self, m, factor, levels, seed):
        pool = np.array([0.0, -1.0, 2.5, -0.0, np.inf, -np.inf, 1e-300])
        evals = np.random.default_rng(seed).choice(pool[:levels], m)
        X = np.arange(m)[:, None]
        count = min(max(2, int(math.floor(factor * m + 0.5))), m)
        expected = X[np.argsort(evals, kind="stable")[:count]]
        assert np.array_equal(select_truncation(X, evals, factor), expected)

    @given(st.lists(st.floats(-1e5, 1e5), min_size=4, max_size=30, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_increasing_transform(self, evals):
        evals = np.array(evals)
        mapped = np.exp(evals / 2e5) * 7.0 + 1.0
        if len(np.unique(mapped)) < len(evals):
            return  # transform collapsed distinct values in float precision
        X = np.arange(len(evals))[:, None].astype(float)
        a = select_truncation(X, evals, 0.3)
        b = select_truncation(X, mapped, 0.3)
        assert np.array_equal(a, b)


class TestStd:
    @pytest.mark.parametrize("size", [2, 3, 10, 172, 2000])
    def test_bits_of_numpy_std(self, size):
        rng = np.random.default_rng(size)
        for scale in (1e-8, 1.0, 1e5):
            values = rng.normal(3.0 * scale, scale, size)
            assert _std(values).hex() == float(np.std(values, ddof=1)).hex()


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
        # the progress table `copeda run --report` writes from the sink
        stream = io.StringIO()

        def sink(gen, evaluations, model):
            if gen == 1:
                stream.write(_PROGRESS_HEADER + "\n")
            stream.write(_progress_line(gen, evaluations) + "\n")

        spec = EdaSpec("umda", 10, TerminationSpec(max_gen=3))
        eda_run(spec, f_sphere, [-1.0] * 2, [1.0] * 2, run_rng(5, 5),
                model_sink=sink)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0].split() == ["Generation", "Minimum", "Mean", "Std.", "Dev."]
        assert len(lines) == 4
        first = lines[1].split()
        assert first[0] == "1"
        assert all("e" in tok for tok in first[1:])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_dimensional_problem(self, algorithm):
        spec = EdaSpec(algorithm, 10, TerminationSpec(max_gen=5))
        result = eda_run(spec, f_sphere, [-5.0], [5.0], run_rng(1, 0))
        assert (result.num_gens, result.f_evals) == (5, 50)
        assert result.best_sol.shape == (1,)
        assert result.best_eval == f_sphere(result.best_sol)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_dimensional_problem(self, algorithm):
        spec = EdaSpec(algorithm, 10, TerminationSpec(max_gen=5))
        result = eda_run(spec, f_sphere, [], [], run_rng(1, 0))
        assert (result.num_gens, result.f_evals) == (5, 50)
        assert result.best_sol.shape == (0,)
        assert result.best_eval == f_sphere(result.best_sol)

    def test_objective_error_names_point(self):
        spec = umda_spec(pop_size=5, max_gen=2)

        def bad(x):
            return float("nan")

        with pytest.raises(ObjectiveError, match="point"):
            eda_run(spec, bad, [0.0], [1.0], run_rng(0, 0))


class TestModelSink:
    """eda_run's one output channel: model_sink(gen, evaluations, model)."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_called_once_per_evaluated_generation(self, algorithm):
        spec = EdaSpec(algorithm, 30, TerminationSpec(max_gen=4))
        calls = []
        result = eda_run(spec, f_sphere, [-5.0] * 3, [5.0] * 3, run_rng(3, 0),
                         model_sink=lambda *args: calls.append(args))
        assert [gen for gen, _, _ in calls] == list(
            range(1, result.num_gens + 1))
        assert calls[0][2] is None
        assert all(isinstance(model, SearchModel) for _, _, model in calls[1:])
        assert sum(len(evals) for _, evals, _ in calls) == result.f_evals
        assert min(evals.min() for _, evals, _ in calls) == result.best_eval
        # observing a run does not change it
        bare = eda_run(spec, f_sphere, [-5.0] * 3, [5.0] * 3, run_rng(3, 0))
        assert (bare.num_gens, bare.f_evals, bare.best_eval) == (
            result.num_gens, result.f_evals, result.best_eval)

    def test_run_ending_at_generation_one(self):
        calls = []
        result = eda_run(umda_spec(pop_size=10, max_gen=1), f_sphere,
                         [-1.0] * 2, [1.0] * 2, run_rng(5, 5),
                         model_sink=lambda *args: calls.append(args))
        assert len(calls) == 1
        gen, evals, model = calls[0]
        assert (gen, model) == (1, None)
        assert evals.shape == (10,)
        assert evals.min() == result.best_eval


class TestEvaluateObjective:
    X = np.arange(12.0).reshape(4, 3)

    @staticmethod
    def batched(fn):
        fn.batched = True
        return fn

    def test_batched_objective_called_once(self):
        calls = []

        @self.batched
        def f(X):
            calls.append(X.shape)
            return f_sphere(X)

        values = evaluate_objective(f, self.X)
        assert calls == [(4, 3)]
        assert values.tolist() == [f_sphere(row) for row in self.X]

    def test_scalar_objective_called_once_per_row(self):
        calls = []
        values = evaluate_objective(lambda x: calls.append(x) or 1.0, self.X)
        assert len(calls) == 4
        assert values.tolist() == [1.0] * 4

    @pytest.mark.parametrize("result", [
        np.zeros((4, 1)), np.zeros(3), np.zeros(5), 0.0, np.zeros((1, 4))])
    def test_batched_wrong_shape(self, result):
        f = self.batched(lambda X: result)
        with pytest.raises(ObjectiveError, match=r"shape .*expected \(4,\)"):
            evaluate_objective(f, self.X)

    @pytest.mark.parametrize("is_batched", [True, False])
    def test_non_finite_names_first_bad_row(self, is_batched):
        values = [1.0, 2.0, float("inf"), float("nan")]

        def f(X):
            if X.ndim == 2:
                return np.array(values)
            return values[int(X[0]) // 3]

        f.batched = is_batched
        with pytest.raises(ObjectiveError) as info:
            evaluate_objective(f, self.X)
        assert str(info.value) == "objective returned inf at point [6.0, 7.0, 8.0]"


class TestCpuTime:
    def test_sleeping_objective_is_not_cpu_time(self):
        # 20 rows sleeping 1 ms each: about 20 ms of wall time and no CPU
        spec = umda_spec(pop_size=10, max_gen=2)

        def sleepy(x):
            time.sleep(0.001)
            return f_sphere(x)

        # BLAS worker threads spin for ~0.1 s of CPU after a matrix product
        # of an earlier test; let them go idle so only the run is counted
        time.sleep(0.25)
        start = time.perf_counter()
        result = eda_run(spec, sleepy, [-1.0] * 2, [1.0] * 2, run_rng(3, 3))
        wall = time.perf_counter() - start
        assert result.f_evals == 20
        assert wall >= 0.02
        assert result.cpu_time < wall - 0.01


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
        assert len(probed) == len(set(probed))  # no size probed twice

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
        lambda: EdaSpec("gceda", 30, TerminationSpec(max_gen=5),
                        margin="uniform"),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        copulas=("joe",)),
        lambda: EdaSpec("copula-mimic", 30, TerminationSpec(max_gen=5),
                        copulas=("clayton",)),
        lambda: EdaSpec("copula-mimic", 30, TerminationSpec(max_gen=5),
                        copulas=("normal", "frank")),
        lambda: EdaSpec("copula-mimic", 30, TerminationSpec(max_gen=5),
                        copulas=()),
        lambda: TerminationSpec(),
        lambda: seed_uniform([1.0], [1.0], 5, np.random.default_rng(0)),
        lambda: eda_indep_runs(umda_spec(max_gen=2), f_sphere, [-1.0], [1.0],
                               runs=0),
        lambda: critical_pop_size(umda_spec(max_gen=2), f_sphere, [-1.0],
                                  [1.0], 0.0, 1e-6, 20, 10),
        lambda: critical_pop_size(umda_spec(max_gen=2), f_sphere, [-1.0],
                                  [1.0], 0.0, 1e-6, 10, 20, total_runs=5,
                                  success_runs=6),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        sig_level=0.0),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        sig_level=1.0),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        sig_level=2.0),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        sig_level=-0.01),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        sig_level=float("nan")),
        lambda: TerminationSpec(max_gen=0),
        lambda: TerminationSpec(max_gen=-1, target_eval=0.0),
        lambda: TerminationSpec(max_evals=0),
        lambda: TerminationSpec(target_eval=0.0, target_tol=math.nan),
        lambda: TerminationSpec(target_eval=0.0, target_tol=-1.0),
        lambda: TerminationSpec(target_eval=math.nan),
        lambda: TerminationSpec(max_gen=5, target_eval=-math.inf),
        lambda: TerminationSpec(eval_stddev_floor=math.nan),
        lambda: TerminationSpec(eval_stddev_floor=0.0),
        lambda: eda_indep_runs(umda_spec(max_gen=2), f_sphere, [-1.0], [1.0],
                               runs=2, jobs=0),
        lambda: eda_indep_runs(umda_spec(max_gen=2), f_sphere, [-1.0], [1.0],
                               runs=2, jobs=-1),
        lambda: EdaSpec("cveda", 30, TerminationSpec(max_gen=5),
                        copulas=()),
        lambda: seed_uniform([math.nan], [1.0], 5, np.random.default_rng(0)),
        lambda: seed_uniform([-5.0], [math.inf], 5, np.random.default_rng(0)),
        lambda: checked_search(4, 64, total_runs=0, success_runs=0),
        lambda: checked_search(4, 64, total_runs=2, success_runs=-1),
        lambda: checked_search(0, 3, total_runs=2, success_runs=2),
        lambda: checked_search(4, 64, 2, 2, stop_percent=math.nan),
        lambda: checked_search(4, 64, 2, 2, stop_percent=math.inf),
        lambda: checked_search(4, 64, 2, 2, stop_percent=-1.0),
        # round(0.3 * 20010) = 6003 selected rows, past the CvM test's 6000
        lambda: EdaSpec("cveda", 20010, TerminationSpec(max_gen=2)),
        lambda: EdaSpec("dveda", 6001, TerminationSpec(max_gen=2),
                        truncation_factor=1.0),
    ])
    def test_raised_by_input_checks(self, build):
        with pytest.raises(InputError):
            build()

    def test_vine_selection_at_the_cvm_limit_is_accepted(self):
        # 6000 selected rows is the CvM test's largest sample; non-vine
        # algorithms run no CvM test
        EdaSpec("cveda", 20000, TerminationSpec(max_gen=2))
        EdaSpec("dveda", 6000, TerminationSpec(max_gen=2),
                truncation_factor=1.0)
        for algorithm in ("umda", "gceda", "copula-mimic"):
            EdaSpec(algorithm, 20010, TerminationSpec(max_gen=2))

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
