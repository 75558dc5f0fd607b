import functools
import importlib.util
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from copeda.benchmarks import (
    REGISTRY,
    UnknownBenchmarkError,
    f_sphere,
    f_summation_cancellation,
    get_benchmark,
    study_cell,
)
from copeda.margins import MarginKind

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
STUDY_SCRIPT = ROOT / "scripts" / "benchmark_study.py"


class TestSphere:
    def test_origin(self):
        assert f_sphere(np.zeros(7)) == 0.0

    def test_arithmetic(self):
        assert f_sphere([1.0, 2.0, 3.0]) == pytest.approx(14.0)

    def test_two_dim_value(self):
        assert f_sphere([-2.20, -0.01]) == pytest.approx(4.8401)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_zero_only_at_origin(self, xs):
        val = f_sphere(xs)
        assert val >= 0.0
        if any(abs(x) > 1e-150 for x in xs):  # x^2 underflows below that
            assert val > 0.0


class TestSummationCancellation:
    def test_origin_value(self):
        assert f_summation_cancellation(np.zeros(10)) == pytest.approx(-1e5)

    def test_two_dim_recurrence(self):
        # y = (0.1, 0.0): sum |y| = 0.1
        assert f_summation_cancellation([0.1, -0.1]) == pytest.approx(
            -1.0 / (1e-5 + 0.1))

    @given(st.lists(st.floats(-0.16, 0.16), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_range(self, xs):
        val = f_summation_cancellation(xs)
        assert -1e5 <= val < 0.0

    def test_order_sensitivity(self):
        a = f_summation_cancellation([0.1, -0.1, 0.05])
        b = f_summation_cancellation([0.05, 0.1, -0.1])
        assert a != b


class TestRegistry:
    def test_defaults(self):
        sphere = get_benchmark("sphere")
        assert (sphere.default_lower, sphere.default_upper) == (-600.0, 600.0)
        assert sphere.target_eval == 0.0
        sc = get_benchmark("summation-cancellation")
        assert (sc.default_lower, sc.default_upper) == (-0.16, 0.16)
        assert sc.target_eval == -1e5

    def test_unknown_name_lists_registry(self):
        with pytest.raises(UnknownBenchmarkError, match="sphere"):
            get_benchmark("rosenbrock")

    def test_functions_are_registered_callables(self):
        for spec in REGISTRY.values():
            assert spec.func(np.zeros(3)) == pytest.approx(spec.target_eval)


class TestStudyCell:
    def test_arguments_override_the_published_cell(self):
        spec, func, lower, upper = study_cell(
            "cveda", "summation-cancellation", dim=3, pop_size=40,
            max_evals=500)
        assert (spec.algorithm, spec.pop_size) == ("cveda", 40)
        assert spec.termination.max_evals == 500
        assert spec.termination.target_eval == -1e5
        assert func is f_summation_cancellation
        assert lower.tolist() == [-0.16] * 3 and upper.tolist() == [0.16] * 3

    @pytest.mark.skipif(not WORKLOADS.exists(),
                        reason="perfbench/ is not in this checkout")
    def test_benchmark_workloads_are_study_cells(self, monkeypatch):
        # the benchmark builds its own specs; they must stay the table's,
        # and criterion 1's
        modules = {}
        for name, path in [("perfbench_workloads", WORKLOADS),
                           ("acceptance_criteria", ACCEPTANCE)]:
            spec = importlib.util.spec_from_file_location(name, path)
            modules[name] = importlib.util.module_from_spec(spec)
            # dataclasses resolve the module's annotations through sys.modules
            monkeypatch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        workloads = modules["perfbench_workloads"].build_workloads()
        cmimic, *sphere10 = study_cell("copula-mimic", "sphere")
        expected = {
            "gceda-kernel-sphere5": [
                modules["acceptance_criteria"].CRITERION_1],
            "vine-sphere10": [study_cell("cveda", "sphere"),
                              study_cell("dveda", "sphere")],
            "umda-sumcan10": [study_cell("umda", "summation-cancellation")],
            # acceptance criterion 6's margins
            "cmimic-sphere10": [(replace(cmimic, margin=MarginKind.NORMAL),
                                 *sphere10)],
        }
        for name, cells in expected.items():
            workload = workloads[name]
            assert workload.specs == tuple(cell[0] for cell in cells), name
            for _, func, lower, upper in cells:
                assert workload.objective is func, name
                np.testing.assert_array_equal(workload.lower, lower)
                np.testing.assert_array_equal(workload.upper, upper)

    def test_study_script_says_when_critpop_finds_no_size(
            self, monkeypatch, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location("benchmark_study",
                                                      STUDY_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "STUDY", {("umda", "sphere"): 81})
        monkeypatch.setattr(script, "critical_pop_size", lambda *a, **k: None)
        assert script.main(["--quick", "--runs", "1", "--critpop",
                            "--outdir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        note = "no size found in [50, 2000]; ran at 2000"
        row = out.splitlines()[1]
        assert row.split()[:3] == ["umda", "sphere", "2000"]
        assert row.endswith(note)
        assert note in err
        assert [p.name for p in tmp_path.iterdir()] == ["umda_sphere.csv"]


def sphere_point(x):
    return float(np.dot(x, x))


def summation_cancellation_point(x):
    return float(-1.0 / (1e-5 + np.sum(np.abs(np.cumsum(x)))))


# the one-point formulas the study results were recorded with
ONE_POINT = {f_sphere: sphere_point,
             f_summation_cancellation: summation_cancellation_point}
# each registry objective on its default box and on [-300, 900]
BATCH_CASES = [(f_sphere, -600.0, 600.0), (f_sphere, -300.0, 900.0),
               (f_summation_cancellation, -0.16, 0.16),
               (f_summation_cancellation, -300.0, 900.0)]


class TestBatched:
    @pytest.mark.parametrize("f, lower, upper", BATCH_CASES)
    @given(data=st.data(), m=st.integers(1, 40), n=st.integers(1, 30),
           fortran=st.booleans())
    @example(data=None, m=1, n=1, fortran=False)
    @example(data=None, m=1, n=10, fortran=True)
    @example(data=None, m=25, n=1, fortran=False)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_one_point_values_bitwise(self, f, lower, upper,
                                                 data, m, n, fortran):
        if data is None:
            X = np.random.default_rng(m * 100 + n).uniform(lower, upper,
                                                           (m, n))
        else:
            X = data.draw(hnp.arrays(np.float64, (m, n),
                                     elements=st.floats(lower, upper)))
        if fortran:
            X = np.asfortranarray(X)
        batch = f(X)
        assert isinstance(batch, np.ndarray) and batch.shape == (m,)
        rows = [f(X[i]) for i in range(m)]
        assert all(isinstance(v, float) for v in rows)
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in rows]
        reference = [ONE_POINT[f](np.array(X[i])) for i in range(m)]
        assert [v.hex() for v in rows] == [v.hex() for v in reference]

    def test_registry_objectives_are_batched(self):
        for spec in REGISTRY.values():
            assert spec.func.batched is True

    def test_wraps_keeps_batched(self):
        @functools.wraps(f_sphere)
        def traced(*args, **kwargs):
            return f_sphere(*args, **kwargs)

        assert traced.batched is True
