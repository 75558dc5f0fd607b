"""Command-line harness: single runs, independent-runs studies, and
critical-population-size searches, with table, CSV or JSON output."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .algorithms import describe_search_model
from .benchmarks import UnknownBenchmarkError, get_benchmark
from .copulas import CopulaFamily
from .eda import (
    ALGORITHMS,
    EdaSpec,
    InputError,
    ObjectiveError,
    RunsSummary,
    TerminationSpec,
    critical_pop_size,
    eda_indep_runs,
    eda_run,
    run_rng,
)
from .margins import MarginKind

CSV_HEADER = "run,generations,evaluations,best_evaluation,cpu_time_seconds"

def _read_config_file(path: str) -> dict:
    """Flat key=value pairs, one per line, '#' comments."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise InputError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key.replace("-", "_")] = _CONFIG_KEYS[key](val.strip())
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copeda",
        description="Copula-based estimation-of-distribution algorithms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--algorithm", choices=ALGORITHMS)
        p.add_argument("--function", help="benchmark name from the registry")
        p.add_argument("--dim", type=int)
        p.add_argument("--lower", type=float, help="scalar lower bound")
        p.add_argument("--upper", type=float, help="scalar upper bound")
        p.add_argument("--pop-size", type=int)
        p.add_argument("--margin",
                       choices=[k.value for k in MarginKind])
        p.add_argument("--copula",
                       help="comma-separated copula families "
                            "(normal,student,clayton,frank,gumbel)")
        p.add_argument("--sig-level", type=float)
        p.add_argument("--trunc-criterion", choices=["aic", "bic", "none"])
        p.add_argument("--max-gen", type=int)
        p.add_argument("--max-evals", type=int)
        p.add_argument("--target", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--stddev-floor", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int)
        p.add_argument("--format", choices=["table", "csv", "json"])
        p.add_argument("--out", help="write output to this path")

    run_p = sub.add_parser("run", help="single optimization run")
    common(run_p)
    run_p.add_argument("--report", action="store_true",
                       help="print per-generation progress")
    run_p.add_argument("--dump-model",
                       help="write the final generation's model to this path")
    run_p.add_argument("--copula-trace",
                       help="write per-generation copula family counts (CSV)")

    indep_p = sub.add_parser("indep-runs", help="independent replications")
    common(indep_p)
    indep_p.add_argument("--runs", type=int)

    crit_p = sub.add_parser("critpop", help="critical population size search")
    common(crit_p)
    crit_p.add_argument("--lower-pop", type=int)
    crit_p.add_argument("--upper-pop", type=int)
    crit_p.add_argument("--total-runs", type=int)
    crit_p.add_argument("--success-runs", type=int)
    crit_p.add_argument("--stop-percent", type=float)
    return parser


def _config_keys() -> dict[str, type]:
    """Config-file keys and their types, read off the parser: every option
    of the study commands (indep-runs, critpop) except --config.  The run
    command's own options only shape one run's output and stay flags."""
    commands = _build_parser()._subparsers._group_actions[0].choices
    return {a.option_strings[-1][2:]: a.type or str
            for name in ("indep-runs", "critpop")
            for a in commands[name]._actions
            if a.dest not in ("help", "config")}


_CONFIG_KEYS = _config_keys()

_DEFAULTS = dict(algorithm="gceda", function="sphere", dim=10,
                 copula="normal", sig_level=0.01, trunc_criterion="aic",
                 tol=1e-6, seed=12345, jobs=1, format="table", runs=30,
                 lower_pop=50, upper_pop=2000, total_runs=30, success_runs=30,
                 stop_percent=10.0)


class _Resolved:
    """Flag > config-file > defaults precedence, resolved once."""

    def __init__(self, args: argparse.Namespace):
        file_values = _read_config_file(args.config) if args.config else {}
        self._layers = (vars(args), file_values, _DEFAULTS)

    def get(self, key, fallback=None):
        for layer in self._layers:
            if layer.get(key) is not None:
                return layer[key]
        return fallback


def _resolve_experiment(cfg: _Resolved):
    bench = get_benchmark(cfg.get("function"))
    dim = int(cfg.get("dim"))
    lower = np.full(dim, float(cfg.get("lower", bench.default_lower)))
    upper = np.full(dim, float(cfg.get("upper", bench.default_upper)))
    target = cfg.get("target")
    target = bench.target_eval if target is None else float(target)
    termination = TerminationSpec(
        max_gen=cfg.get("max_gen"),
        max_evals=cfg.get("max_evals"),
        target_eval=target,
        target_tol=float(cfg.get("tol")),
        eval_stddev_floor=cfg.get("stddev_floor"),
    )
    families = tuple(tok.strip()
                     for tok in str(cfg.get("copula")).split(",") if tok.strip())
    spec = EdaSpec(
        algorithm=cfg.get("algorithm"),
        pop_size=int(cfg.get("pop_size", 100)),
        termination=termination,
        margin=cfg.get("margin"),
        copulas=families,
        sig_level=float(cfg.get("sig_level")),
        trunc_criterion=cfg.get("trunc_criterion"),
    )
    return spec, bench, lower, upper, target


def _fmt(x) -> str:
    return f"{x:.6e}"


def _runs_table(results) -> str:
    lines = [f"{'':>7}{'Generations':>12} {'Evaluations':>12} "
             f"{'Best Evaluation':>16} {'CPU Time':>9}"]
    for i, r in enumerate(results, start=1):
        lines.append(f"Run {i:<3}{r.num_gens:>12} {r.f_evals:>12} "
                     f"{r.best_eval:>16.6e} {r.cpu_time:>9.3f}")
    return "\n".join(lines)


def _summary_table(summary: RunsSummary) -> str:
    rows = [("Minimum", "minimum"), ("Median", "median"), ("Maximum", "maximum"),
            ("Mean", "mean"), ("Std. Dev.", "std_dev")]
    lines = [f"{'':>10}{'Generations':>13} {'Evaluations':>13} "
             f"{'Best Evaluation':>16} {'CPU Time':>11}"]
    for label, attr in rows:
        gens = getattr(summary.generations, attr)
        evals = getattr(summary.evaluations, attr)
        best = getattr(summary.best_evaluation, attr)
        cpu = getattr(summary.cpu_time, attr)
        lines.append(f"{label:<10}{gens:>13.6f} {evals:>13.4f} "
                     f"{best:>16.6e} {cpu:>11.7f}")
    return "\n".join(lines)


def _runs_csv(results) -> str:
    lines = [CSV_HEADER]
    for i, r in enumerate(results, start=1):
        lines.append(f"{i},{_fmt(r.num_gens)},{_fmt(r.f_evals)},"
                     f"{_fmt(r.best_eval)},{_fmt(r.cpu_time)}")
    return "\n".join(lines)


def _runs_json(results, summary: RunsSummary) -> str:
    doc = {
        "runs": [
            {"run": i, "generations": r.num_gens, "evaluations": r.f_evals,
             "best_evaluation": r.best_eval, "cpu_time_seconds": r.cpu_time}
            for i, r in enumerate(results, start=1)
        ],
        "summary": {
            "generations": asdict(summary.generations),
            "evaluations": asdict(summary.evaluations),
            "best_evaluation": asdict(summary.best_evaluation),
            "cpu_time_seconds": asdict(summary.cpu_time),
        },
    }
    return json.dumps(doc, indent=2)


def _emit(text: str, out_path, stream):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        stream.write(text + "\n")


_PROGRESS_HEADER = (f"{'Generation':>12} {'Minimum':>12} "
                    f"{'Mean':>12} {'Std. Dev.':>12}")


def _progress_line(gen: int, evaluations: np.ndarray) -> str:
    std = np.std(evaluations, ddof=1)  # EdaSpec keeps pop_size >= 2
    return (f"{gen:>12d} {np.min(evaluations):>12.6e} "
            f"{np.mean(evaluations):>12.6e} {std:>12.6e}")


def _final_block(result) -> str:
    return "\n".join([
        f"Best function evaluation    {result.best_eval:.6g}",
        f"No. of generations          {result.num_gens}",
        f"No. of function evaluations {result.f_evals}",
        f"CPU time                    {result.cpu_time:.3f} seconds",
    ])


def cmd_run(args, stream) -> int:
    cfg = _Resolved(args)
    spec, bench, lower, upper, _ = _resolve_experiment(cfg)
    families = [f.value for f in CopulaFamily]
    trace_rows = ["generation," + ",".join(families)]
    last_model = None

    def sink(gen, evaluations, model):
        nonlocal last_model
        last_model = model
        if args.report:
            if gen == 1:
                stream.write(_PROGRESS_HEADER + "\n")
            stream.write(_progress_line(gen, evaluations) + "\n")
        if args.copula_trace and model is not None:
            counts = model.dependence.family_counts()
            trace_rows.append(f"{gen}," + ",".join(str(counts[f])
                                                   for f in families))

    result = eda_run(spec, bench.func, lower, upper,
                     run_rng(int(cfg.get("seed")), 0), model_sink=sink)
    stream.write(_final_block(result) + "\n")
    if args.dump_model:
        if last_model is not None:
            _emit(describe_search_model(last_model), args.dump_model, stream)
        else:
            stream.write("no model learned (run ended at generation 1); "
                         "nothing dumped\n")
    if args.copula_trace:
        _emit("\n".join(trace_rows), args.copula_trace, stream)
    return 0


def cmd_indep_runs(args, stream) -> int:
    cfg = _Resolved(args)
    spec, bench, lower, upper, _ = _resolve_experiment(cfg)
    runs = int(cfg.get("runs"))
    results, summary = eda_indep_runs(spec, bench.func, lower, upper, runs,
                                      base_seed=int(cfg.get("seed")),
                                      jobs=int(cfg.get("jobs")))
    fmt = cfg.get("format")
    if fmt == "csv":
        _emit(_runs_csv(results), cfg.get("out"), stream)
    elif fmt == "json":
        _emit(_runs_json(results, summary), cfg.get("out"), stream)
    else:
        text = _runs_table(results) + "\n\n" + _summary_table(summary)
        _emit(text, cfg.get("out"), stream)
    return 0


def cmd_critpop(args, stream) -> int:
    cfg = _Resolved(args)
    spec, bench, lower, upper, target = _resolve_experiment(cfg)
    lower_pop = int(cfg.get("lower_pop"))
    upper_pop = int(cfg.get("upper_pop"))
    total_runs = int(cfg.get("total_runs"))
    success_runs = int(cfg.get("success_runs"))
    stop_percent = float(cfg.get("stop_percent"))
    tol = float(cfg.get("tol"))
    seed = int(cfg.get("seed"))
    stream.write(f"critical population size search in [{lower_pop}, "
                 f"{upper_pop}], stop at {stop_percent:g}% width, "
                 f"{success_runs}/{total_runs} successes required\n")

    def trace(size, successes, attempted):
        stream.write(f"pop {size:>6}: {successes}/{attempted} successful runs\n")

    found = critical_pop_size(spec, bench.func, lower, upper, target, tol,
                              lower_pop, upper_pop, total_runs, success_runs,
                              stop_percent, base_seed=seed, trace=trace)
    if found is None:
        stream.write(f"critical population size not found in "
                     f"[{lower_pop}, {upper_pop}]\n")
        stream.write(f"falling back to {total_runs} runs at the upper bound "
                     f"{upper_pop}\n")
        results, summary = eda_indep_runs(
            replace(spec, pop_size=upper_pop), bench.func, lower, upper,
            total_runs, base_seed=seed, jobs=int(cfg.get("jobs")))
        _emit(_runs_table(results) + "\n\n" + _summary_table(summary),
              cfg.get("out"), stream)
    else:
        stream.write(f"critical population size: {found}\n")
    return 0


def main(argv=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "indep-runs": cmd_indep_runs,
                "critpop": cmd_critpop}
    # Only bad input is a usage error (exit 2); a ValueError raised by the
    # numerics inside a run propagates with its traceback (exit 1).
    try:
        return handlers[args.command](args, stream)
    except (UnknownBenchmarkError, InputError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ObjectiveError as exc:
        print(f"objective error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
