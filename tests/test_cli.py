import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import copeda
from copeda.cli import _CONFIG_KEYS, CSV_HEADER, main


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
        assert "Generation" in out
        assert "Minimum" in out

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

    def test_keys_are_the_study_flags(self):
        assert _CONFIG_KEYS == {
            "algorithm": str, "function": str, "dim": int, "lower": float,
            "upper": float, "pop-size": int, "margin": str, "copula": str,
            "vine": str, "sig-level": float, "trunc-criterion": str,
            "max-gen": int, "max-evals": int, "target": float, "tol": float,
            "stddev-floor": float, "runs": int, "seed": int, "jobs": int,
            "format": str, "out": str, "lower-pop": int, "upper-pop": int,
            "total-runs": int, "success-runs": int, "stop-percent": float,
        }
        for flag_only in ("config", "report", "dump-model", "copula-trace"):
            assert flag_only not in _CONFIG_KEYS

    def test_bad_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-key=1\n")
        status, _ = run_cli(["run", "--config", str(cfg)])
        assert status == 2

    @pytest.mark.parametrize("line", ["dim=ten", "copula=normal,joe",
                                      "margin=uniform", "vine=rvine",
                                      "just-a-word"])
    def test_bad_value_is_a_usage_error(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"function=sphere\n{line}\n")
        status, _ = run_cli(["run", "--config", str(cfg), "--max-gen", "2"])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_python("-m", "copeda.cli", "run", *FAST_RUN)
        assert proc.returncode == 0
        assert "Best function evaluation" in proc.stdout

    def test_invalid_bounds_exit_2(self):
        proc = run_python("-m", "copeda.cli", "run", *FAST_RUN,
                          "--lower", "5", "--upper", "-5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: need lower < upper")

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
