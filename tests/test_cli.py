import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import copeda
from copeda import cli, eda
from copeda.cli import CSV_HEADER, main


def run_cli(argv):
    stream = io.StringIO()
    status = main(argv, stream=stream)
    return status, stream.getvalue()


def run_python(*args):
    # the child imports the copeda these tests import, installed or not
    src = os.path.dirname(os.path.dirname(copeda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


# scipy subpackages that ``import copeda`` must not load
LAZY_SCIPY = ("scipy.stats", "scipy.optimize", "scipy.integrate",
              "scipy.linalg", "scipy.sparse")

FAST_RUN = ["--algorithm", "umda", "--function", "sphere", "--dim", "2",
            "--lower", "-5", "--upper", "5", "--pop-size", "30",
            "--max-gen", "25", "--tol", "1e-2", "--seed", "12345"]


class TestRun:
    def test_unknown_function_exits_2(self, capsys):
        status, _ = run_cli(["run", "--function", "rosenbrock", "--dim", "2"])
        assert status == 2
        err = capsys.readouterr().err
        assert "sphere" in err
        assert "summation-cancellation" in err

    @pytest.mark.parametrize("option", [("--tol", "nan"), ("--tol", "-1"),
                                        ("--target", "nan"),
                                        ("--stddev-floor", "0")])
    def test_unreachable_stop_exits_2(self, option, capsys):
        # a NaN target or tolerance is a run with no stop, not a long run
        status, out = run_cli(["run", "--algorithm", "umda", "--function",
                               "sphere", "--dim", "2", "--pop-size", "20",
                               *option])
        assert (status, out) == (2, "")
        message = {"--tol": "target_tol must be >= 0",
                   "--target": "target_eval must be finite",
                   "--stddev-floor": "eval_stddev_floor must be > 0"}
        assert capsys.readouterr().err == f"error: {message[option[0]]}\n"

    @pytest.mark.parametrize("bound", ["--lower", "--upper"])
    def test_nan_bound_flag_exits_2(self, bound, capsys):
        status, out = run_cli(["run", *FAST_RUN, bound, "nan"])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: need finite bounds with a finite upper - lower\n")

    def test_final_block_without_report(self):
        status, out = run_cli(["run", *FAST_RUN])
        assert status == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("Best function evaluation")
        assert lines[1].startswith("No. of generations")
        assert lines[2].startswith("No. of function evaluations")
        assert lines[3].startswith("CPU time")

    def test_report_prints_generations(self):
        status, out = run_cli(["run", *FAST_RUN, "--report"])
        assert status == 0
        lines = out.strip().splitlines()
        num_gens = int(lines[-3].split()[-1])  # "No. of generations  N"
        table = lines[:-4]  # the final block is four lines
        assert table[0].split() == ["Generation", "Minimum", "Mean", "Std.",
                                    "Dev."]
        assert len(table) == num_gens + 1
        assert [int(row.split()[0]) for row in table[1:]] == list(
            range(1, num_gens + 1))
        assert all("e" in tok for tok in table[1].split()[1:])

    def test_success_on_paper_setup(self):
        argv = ["run", "--algorithm", "gceda", "--function", "sphere",
                "--dim", "5", "--lower", "-300", "--upper", "900",
                "--pop-size", "200", "--margin", "kernel", "--max-gen", "50",
                "--target", "0", "--tol", "1e-6", "--seed", "12345"]
        status, out = run_cli(argv)
        assert status == 0
        best = float(out.splitlines()[0].split()[-1])
        assert best <= 1e-6

    def test_dump_model_and_copula_trace(self, tmp_path):
        model_path = tmp_path / "model.txt"
        trace_path = tmp_path / "trace.csv"
        argv = ["run", "--algorithm", "cveda", "--function", "sphere",
                "--dim", "3", "--lower", "-5", "--upper", "5",
                "--pop-size", "60", "--max-gen", "5", "--tol", "1e-9",
                "--seed", "1", "--dump-model", str(model_path),
                "--copula-trace", str(trace_path)]
        status, _ = run_cli(argv)
        assert status == 0
        model_text = model_path.read_text()
        assert "cvine" in model_text
        assert "margin 0" in model_text
        trace_lines = trace_path.read_text().strip().splitlines()
        assert trace_lines[0] == ("generation,product,normal,student,"
                                  "clayton,frank,gumbel")
        assert len(trace_lines) >= 2
        first = trace_lines[1].split(",")
        assert first[0] == "2"
        assert sum(int(x) for x in first[1:]) == 3  # all pair copulas, n=3

    def test_dveda_dump_names_its_vine(self, tmp_path):
        # the algorithm alone picks the vine type
        path = tmp_path / "dmodel.txt"
        status, _ = run_cli(["run", "--algorithm", "dveda", "--function",
                             "sphere", "--dim", "3", "--lower", "-5",
                             "--upper", "5", "--pop-size", "40",
                             "--max-gen", "4", "--dump-model", str(path)])
        assert status == 0
        assert "dependence: dvine" in path.read_text()

    def test_frank_chain_runs_and_dumps(self, tmp_path):
        # a Frank chain samples link by link through the h-inverse; the
        # normal chain of every benchmark workload takes the Gaussian path
        path = tmp_path / "chain.txt"
        status, _ = run_cli(["run", "--algorithm", "copula-mimic",
                             "--copula", "frank", "--function", "sphere",
                             "--dim", "3", "--lower", "-5", "--upper", "5",
                             "--pop-size", "40", "--max-gen", "4",
                             "--dump-model", str(path)])
        assert status == 0
        lines = path.read_text().splitlines()
        assert any("dependence: chain perm=" in line for line in lines)
        assert sum(line.startswith("link ") for line in lines) >= 2

    @pytest.mark.parametrize("algorithm", ["cveda", "dveda"])
    def test_vine_trace_over_every_copula_family(self, algorithm, tmp_path):
        # most generations choose Student and Frank edges, and Clayton and
        # Gumbel are scored; a pair past the last fitted tree counts as
        # product, so each row holds all 10 pairs of a 5-variable vine
        path = tmp_path / "families.csv"
        status, _ = run_cli(["run", "--algorithm", algorithm, "--copula",
                             "normal,student,clayton,frank,gumbel",
                             "--function", "summation-cancellation",
                             "--dim", "5", "--pop-size", "200",
                             "--max-gen", "8", "--copula-trace", str(path)])
        assert status == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 8  # the header and generations 2-8
        assert lines[0] == ("generation,product,normal,student,clayton,"
                            "frank,gumbel")
        assert all(sum(map(int, row.split(",")[1:])) == 10
                   for row in lines[1:])

    @pytest.mark.parametrize("margin", ["kernel", "truncnorm", "beta"])
    @pytest.mark.parametrize("algorithm", ["umda", "gceda", "copula-mimic"])
    def test_dump_lists_each_margin(self, algorithm, margin, tmp_path):
        # a margin model holds every column: one "margin j:" line per
        # column and, for a 3-variable chain, two "link k:" lines; the
        # Gaussian structures hand normal scores to the margins, which the
        # kernel, truncnorm and beta kinds map through quantile(ndtr(z))
        path = tmp_path / "model.txt"
        status, _ = run_cli(["run", "--algorithm", algorithm, "--margin",
                             margin, "--function", "sphere", "--dim", "3",
                             "--lower", "-5", "--upper", "5", "--pop-size",
                             "40", "--max-gen", "4", "--dump-model",
                             str(path)])
        assert status == 0
        lines = path.read_text().splitlines()
        assert sum(line.startswith("margin ") for line in lines) == 3
        links = sum(line.startswith("link ") for line in lines)
        assert links == (2 if algorithm == "copula-mimic" else 0)

    @pytest.mark.parametrize("flag", [["--jobs", "4"], ["--format", "json"],
                                      ["--out", "x.json"]])
    def test_study_output_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", *FAST_RUN, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_dim_below_one_exits_2(self, dim, capsys):
        status, out = run_cli(["run", *FAST_RUN, "--dim", dim])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == "error: dim must be at least 1\n"

    @pytest.mark.parametrize("flag", ["--max-gen", "--max-evals"])
    def test_zero_generation_or_evaluation_budget_exits_2(self, flag, capsys):
        status, out = run_cli(["run", *FAST_RUN, flag, "0"])
        assert (status, out) == (2, "")
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be >= 1\n"

    @pytest.mark.parametrize("flag", ["--dump-model", "--copula-trace"])
    def test_unwritable_output_exits_2_before_the_run(self, flag, tmp_path,
                                                      monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "eda_run", no_run)
        path = tmp_path / "no" / "such" / "dir" / "x.txt"
        status, out = run_cli(["run", *FAST_RUN, flag, str(path)])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {path}: ")


class TestIndepRuns:
    def test_table_and_summary(self):
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "3"])
        assert status == 0
        assert "Run 1" in out
        assert "Run 3" in out
        assert "Std. Dev." in out

    def test_single_run(self):
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "1"])
        assert status == 0
        assert "Run 1" in out
        assert "Run 2" not in out

    def test_csv_columns(self):
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "2",
                               "--format", "csv"])
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "1"
        for tok in row[1:]:
            assert "e" in tok  # scientific notation

    def test_copula_mimic_default_margin_sphere_cell(self):
        # copula-MIMIC's default cell, pop 172 with rescaled beta margins,
        # as the study runs it (every other run of beta margins here is
        # small): a CSV header and two runs, both at the target
        status, out = run_cli(["indep-runs", "--algorithm", "copula-mimic",
                               "--function", "sphere", "--pop-size", "172",
                               "--max-evals", "300000", "--stddev-floor",
                               "1e-8", "--runs", "2", "--format", "csv"])
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(float(line.split(",")[3]) <= 1e-6 for line in lines[1:])

    def test_json_round_trip(self):
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "2",
                               "--format", "json"])
        assert status == 0
        doc = json.loads(out)
        assert len(doc["runs"]) == 2
        assert set(doc["runs"][0]) == {"run", "generations", "evaluations",
                                       "best_evaluation", "cpu_time_seconds"}
        assert "generations" in doc["summary"]
        assert "mean" in doc["summary"]["generations"]

    def test_deterministic_output_modulo_time(self):
        _, out1 = run_cli(["indep-runs", *FAST_RUN, "--runs", "2",
                           "--format", "csv"])
        _, out2 = run_cli(["indep-runs", *FAST_RUN, "--runs", "2",
                           "--format", "csv"])

        def strip_time(text):
            return [",".join(line.split(",")[:-1])
                    for line in text.strip().splitlines()]

        assert strip_time(out1) == strip_time(out2)

    def test_out_file(self, tmp_path):
        out_path = tmp_path / "runs.csv"
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "1",
                               "--format", "csv", "--out", str(out_path)])
        assert status == 0
        assert out == ""
        assert out_path.read_text().startswith(CSV_HEADER)

    @pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
    def test_unwritable_out_exits_2_before_any_run(self, target, tmp_path,
                                                   monkeypatch, capsys):
        def no_runs(*args, **kwargs):
            raise AssertionError("the study started")

        monkeypatch.setattr(cli, "eda_indep_runs", no_runs)
        path = (tmp_path / "no" / "x.csv" if target == "missing-dir"
                else tmp_path)
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "30",
                               "--out", str(path)])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {path}: ")

    def test_writable_check_leaves_no_file(self, tmp_path):
        # the path is checked before the runs; a later input error must not
        # leave an empty file behind
        out_path = tmp_path / "runs.csv"
        status, _ = run_cli(["indep-runs", *FAST_RUN, "--dim", "0",
                             "--out", str(out_path)])
        assert status == 2
        assert not out_path.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2(self, jobs, capsys):
        status, out = run_cli(["indep-runs", *FAST_RUN, "--runs", "2",
                               "--jobs", jobs])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"

    @pytest.mark.slow
    def test_study_script_quick_run_writes_one_csv_per_cell(self, tmp_path):
        # the study script loops over copeda.benchmarks.STUDY, whose cells
        # acceptance criteria 2-6 run, and writes indep-runs' CSV format;
        # about 10 s, most of it copula-MIMIC's beta-margin Summation
        # Cancellation cell
        script = pathlib.Path(__file__).resolve().parent.parent / "scripts"
        done = run_python(str(script / "benchmark_study.py"), "--quick",
                          "--runs", "1", "--outdir", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert len(list(tmp_path.glob("*.csv"))) == 10
        header = (tmp_path / "umda_sphere.csv").read_text().splitlines()[0]
        assert header == ("run,generations,evaluations,best_evaluation,"
                          "cpu_time_seconds")


class TestCritpop:
    def test_easy_problem_completes(self):
        argv = ["critpop", "--algorithm", "umda", "--function", "sphere",
                "--dim", "1", "--lower", "-1", "--upper", "1",
                "--max-gen", "40", "--tol", "1e-2", "--target", "0",
                "--lower-pop", "4", "--upper-pop", "16", "--total-runs", "2",
                "--success-runs", "2", "--stop-percent", "10",
                "--seed", "11"]
        status, out = run_cli(argv)
        assert status == 0
        assert "[4, 16]" in out
        assert "pop     16" in out
        assert "critical population size:" in out

    def test_upper_failure_falls_back(self):
        # target below the sphere minimum is unreachable: every run fails
        argv = ["critpop", "--algorithm", "umda", "--function", "sphere",
                "--dim", "2", "--lower", "-1", "--upper", "1",
                "--max-gen", "2", "--tol", "1e-6", "--target", "-1",
                "--lower-pop", "4", "--upper-pop", "8", "--total-runs", "2",
                "--success-runs", "2", "--stop-percent", "10", "--seed", "3"]
        status, out = run_cli(argv)
        assert status == 0
        assert "not found in [4, 8]" in out
        assert "falling back" in out
        assert "Run 1" in out

    def test_fallback_runs_take_the_format(self):
        argv = ["critpop", "--algorithm", "umda", "--function", "sphere",
                "--dim", "2", "--lower", "-1", "--upper", "1",
                "--max-gen", "2", "--target", "-1", "--lower-pop", "4",
                "--upper-pop", "8", "--total-runs", "2", "--success-runs", "2",
                "--format", "csv"]
        status, out = run_cli(argv)
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[-3] == CSV_HEADER
        assert [row.split(",")[0] for row in lines[-2:]] == ["1", "2"]

    def test_jobs_below_one_exits_2_before_the_search(self, monkeypatch,
                                                      capsys):
        # --jobs reaches only the fallback runs, so it is checked up front
        def no_search(*args, **kwargs):
            raise AssertionError("the search started")

        monkeypatch.setattr(cli, "critical_pop_size", no_search)
        status, out = run_cli(["critpop", *FAST_RUN, "--jobs", "0"])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"


    @pytest.mark.parametrize("counts", [
        ["--total-runs", "0", "--success-runs", "0"],
        ["--total-runs", "2", "--success-runs", "-1"],
        ["--lower-pop", "0", "--upper-pop", "3"],
    ])
    def test_bad_search_exits_2_before_any_run(self, counts, monkeypatch,
                                               capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(eda, "eda_run", no_run)
        argv = ["critpop", "--algorithm", "umda", "--function", "sphere",
                "--dim", "2", "--lower", "-1", "--upper", "1", "--max-gen",
                "2", "--lower-pop", "4", "--upper-pop", "64", *counts]
        status, _ = run_cli(argv)
        assert status == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= ")

    @pytest.mark.parametrize("stop_percent", ["nan", "inf", "-1"])
    def test_bad_stop_percent_exits_2_before_any_run(self, stop_percent,
                                                     monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(eda, "eda_run", no_run)
        status, _ = run_cli(["critpop", *FAST_RUN,
                             "--stop-percent", stop_percent])
        assert status == 2
        assert (capsys.readouterr().err
                == "error: need a finite stop_percent >= 0\n")


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment configuration\n"
            "algorithm=umda\n"
            "function=sphere\n"
            "dim=2\n"
            "lower=-5\n"
            "upper=5\n"
            "pop-size=30\n"
            "max-gen=10\n"
            "tol=1e-2\n"
            "runs=3\n")
        status, out = run_cli(["indep-runs", "--config", str(cfg),
                               "--runs", "2"])
        assert status == 0
        assert "Run 2" in out
        assert "Run 3" not in out

    def test_study_config_sets_the_format(self, tmp_path):
        # a study file's format key reaches indep-runs' --out file
        cfg = tmp_path / "study.cfg"
        cfg.write_text("algorithm=umda\nfunction=sphere\ndim=2\nlower=-5\n"
                       "upper=5\npop-size=30\nmax-gen=10\ntol=1e-2\n"
                       "runs=3\nformat=csv\n")
        out = tmp_path / "runs.csv"
        status, _ = run_cli(["indep-runs", "--config", str(cfg), "--runs",
                             "2", "--out", str(out)])
        assert status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2"]

    @pytest.mark.parametrize("line", ["runs=3", "jobs=2", "report=1",
                                      "config=x"])
    def test_run_config_takes_only_the_run_options(self, tmp_path, line,
                                                   capsys):
        # a key is a valued option of the invoked command, never --config
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"function=sphere\n{line}\n")
        status, out = run_cli(["run", "--config", str(cfg), "--max-gen", "2"])
        assert (status, out) == (2, "")
        assert "unknown key" in capsys.readouterr().err

    def test_indep_runs_config_rejects_critpop_keys(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("lower-pop=4\n")
        status, _ = run_cli(["indep-runs", "--config", str(cfg), *FAST_RUN,
                             "--runs", "1"])
        assert status == 2
        assert "unknown key 'lower-pop'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        status, out = run_cli(["run", "--config", str(path)])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: cannot read {path}: No such file or directory\n")

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"dim=\xff\xfe\n")
        status, out = run_cli(["run", "--config", str(path)])
        assert (status, out) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_bad_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-key=1\n")
        status, _ = run_cli(["run", "--config", str(cfg)])
        assert status == 2

    @pytest.mark.parametrize("line", ["dim=ten", "copula=normal,joe",
                                      "copula=,", "margin=uniform",
                                      "vine=rvine", "just-a-word",
                                      "lower=nan", "upper=inf"])
    def test_bad_value_is_a_usage_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"function=sphere\n{line}\n")
        status, _ = run_cli(["run", "--config", str(cfg), "--max-gen", "2"])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestEntryPoint:
    def test_import_loads_scipy_special_alone(self):
        # each of these takes longer to import than copeda itself; the
        # functions that call them load them on first use
        proc = run_python("-c", "import sys, copeda, copeda.cli; "
                                f"print([m for m in {LAZY_SCIPY} "
                                "if m in sys.modules])")
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_lazy_import_sites_work_in_a_fresh_process(self):
        # every function that imports scipy.optimize on first use, each
        # called with it not loaded yet; the Frank tau and the Student CDF
        # are closed forms and must not load scipy.integrate
        script = (
            "import math, sys\n"
            "import numpy as np\n"
            "import copeda as c\n"
            f"assert not [m for m in {LAZY_SCIPY} if m in sys.modules]\n"
            "rng = np.random.default_rng(0)\n"
            "fr = c.tau_to_parameter(c.CopulaFamily.FRANK, 0.4)\n"
            "assert math.isclose(c.parameter_to_tau(fr), 0.4, abs_tol=1e-9)\n"
            "U = c.copula_sample(c.student(0.5, 4.0), 200, rng)\n"
            "assert 1.0 <= c.fit_student_dof(U, 0.5).nu <= 100.0\n"
            "assert 0.25 < c.copula_cdf(c.student(0.5, 4.0), 0.5, 0.5) < 0.5\n"
            "spec = c.EdaSpec('copula-mimic', 40, "
            "c.TerminationSpec(max_gen=2), copulas=('frank',))\n"
            "X = rng.random((40, 3))\n"
            "model = c.learn_model(spec, X, np.zeros(3), np.ones(3))\n"
            "assert model.dependence.family_counts()['frank'] "
            "+ model.dependence.family_counts()['product'] == 2\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
            "if m in sys.modules))\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['scipy.optimize']\n"

    def test_no_run_loads_scipy_stats(self):
        # runs whose taus come from Knight's count: long vine samples over
        # every copula family (pop 700 selects 210 rows), a kernel-margin
        # GCEDA at pop 1100 (330 rows) and an infinite value
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import copeda as c\n"
            "from copeda.benchmarks import f_summation_cancellation as f\n"
            "lo, hi = np.full(5, -0.16), np.full(5, 0.16)\n"
            "for algorithm in ('cveda', 'dveda'):\n"
            "    spec = c.EdaSpec(algorithm, 700, c.TerminationSpec(max_gen=3), "
            "copulas=('normal', 'student', 'clayton', 'frank', 'gumbel'))\n"
            "    c.eda_run(spec, f, lo, hi, c.run_rng(12345, 0))\n"
            "spec = c.EdaSpec('gceda', 1100, c.TerminationSpec(max_gen=2), "
            "margin=c.MarginKind.KERNEL)\n"
            "c.eda_run(spec, f, lo, hi, c.run_rng(12345, 0))\n"
            "X = np.random.default_rng(0).random((40, 3))\n"
            "X[5, 0], X[7, 2] = np.inf, -np.inf\n"
            "c.kendall_tau_matrix(X)\n"
            "print('scipy.stats' in sys.modules)\n")
        proc = run_python("-c", script)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_beta_margin_fit_loads_no_optimizer(self):
        # the beta fit solves its likelihood equations with scipy.special
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import copeda as c\n"
            "X = np.random.default_rng(0).random((30, 2))\n"
            "beta = c.fit_margin(c.MarginKind.BETA_RESCALED, X, 0.0, 1.0)\n"
            "assert np.all(beta.a > 0) and np.all(beta.b > 0)\n"
            f"print([m for m in {LAZY_SCIPY} if m in sys.modules])\n")
        proc = run_python("-c", script)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_module_invocation(self):
        proc = run_python("-m", "copeda.cli", "run", *FAST_RUN)
        assert proc.returncode == 0
        assert "Best function evaluation" in proc.stdout

    def test_invalid_bounds_exit_2(self):
        proc = run_python("-m", "copeda.cli", "run", *FAST_RUN,
                          "--lower", "5", "--upper", "-5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: need lower < upper")

    @pytest.mark.parametrize("command", ["run", "indep-runs", "critpop"])
    def test_negative_seed_exits_2_without_a_traceback(self, command):
        proc = run_python("-m", "copeda.cli", command, *FAST_RUN,
                          "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr == "error: base_seed must be >= 0\n"

    @pytest.mark.parametrize("sig_level", ["2", "nan", "0"])
    def test_sig_level_outside_unit_interval_exits_2(self, sig_level):
        proc = run_python("-m", "copeda.cli", "run", *FAST_RUN,
                          "--algorithm", "cveda", "--sig-level", sig_level)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: sig_level must be in (0, 1)\n"

    @pytest.mark.parametrize("algorithm", ["cveda", "dveda"])
    def test_vine_selection_past_the_cvm_limit_exits_2(self, algorithm):
        # pop 20010 selects 6003 rows; the CvM pre-test takes at most 6000
        proc = run_python("-m", "copeda.cli", "run", "--algorithm", algorithm,
                          "--function", "sphere", "--dim", "2", "--lower",
                          "-5", "--upper", "5", "--pop-size", "20010",
                          "--max-gen", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: {algorithm}'s CvM independence pre-test takes at most "
            "6000 selected rows; pop_size 20010 selects 6003\n")

    @pytest.mark.parametrize("copulas", ["clayton", "normal,frank"])
    def test_chain_copula_family_checked_before_the_run(self, copulas):
        proc = run_python("-m", "copeda.cli", "run", *FAST_RUN,
                          "--algorithm", "copula-mimic", "--copula", copulas)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: copula-mimic takes exactly one copula "
                               "family, normal or frank\n")

    @pytest.mark.parametrize("error", ["ParameterError", "UnsupportedTauError"])
    def test_numerical_failure_is_not_a_usage_error(self, error):
        # the copula layer raising mid-run must not read as exit 2
        script = (
            "import sys\n"
            "import copeda.cli as cli\n"
            f"from copeda.copulas import {error} as Err\n"
            "def failing_run(*args, **kwargs):\n"
            "    raise Err('theta outside the family domain')\n"
            "cli.eda_run = failing_run\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = run_python("-c", script, "run", *FAST_RUN)
        assert proc.returncode == 1
        assert f"{error}: theta outside the family domain" in proc.stderr
        assert "Traceback" in proc.stderr

    def test_value_error_inside_a_run_is_not_a_usage_error(self):
        # only InputError (bad configuration) maps to exit 2
        script = (
            "import sys\n"
            "import copeda.cli as cli\n"
            "def failing_run(*args, **kwargs):\n"
            "    raise ValueError('array must not contain infs or NaNs')\n"
            "cli.eda_run = failing_run\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = run_python("-c", script, "run", *FAST_RUN)
        assert proc.returncode == 1
        assert "ValueError: array must not contain infs or NaNs" in proc.stderr
        assert "Traceback" in proc.stderr
