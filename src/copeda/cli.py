"""Command-line harness: single runs, independent-runs studies, and
critical-population-size searches, with table, CSV or JSON output."""

from __future__ import annotations

import argparse
import json
import os
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


def _read_config_file(path: str, command: argparse.ArgumentParser) -> dict:
    """Flat key=value pairs, one per line, '#' comments.  A key is any option
    of ``command`` that takes a value, except --config; its value goes
    through the option's type and choices."""
    options = {a.option_strings[-1][2:]: a for a in command._actions
               if a.option_strings and a.nargs != 0 and a.dest != "config"}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc.reason}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in options:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        action = options[key]
        try:
            value = (action.type or str)(val.strip())
            if action.choices and value not in action.choices:
                raise ValueError(f"{value!r} is not one of "
                                 f"{', '.join(action.choices)}")
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {key}: {exc}") from exc
        values[action.dest] = value
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="copeda",
        description="Copula-based estimation-of-distribution algorithms")
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config",
                       help="key=value file of this command's options")
        p.add_argument("--algorithm", choices=ALGORITHMS, default="gceda")
        p.add_argument("--function", default="sphere",
                       help="benchmark name from the registry")
        p.add_argument("--dim", type=int, default=10)
        p.add_argument("--lower", type=float,
                       help="scalar lower bound (default: the benchmark's)")
        p.add_argument("--upper", type=float,
                       help="scalar upper bound (default: the benchmark's)")
        p.add_argument("--pop-size", type=int, default=100)
        p.add_argument("--margin",
                       choices=[k.value for k in MarginKind])
        p.add_argument("--copula", default="normal",
                       help="comma-separated copula families "
                            "(normal,student,clayton,frank,gumbel)")
        p.add_argument("--sig-level", type=float, default=0.01)
        p.add_argument("--trunc-criterion", choices=["aic", "bic", "none"],
                       default="aic")
        p.add_argument("--max-gen", type=int)
        p.add_argument("--max-evals", type=int)
        p.add_argument("--target", type=float,
                       help="target evaluation (default: the benchmark's)")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--stddev-floor", type=float)
        p.add_argument("--seed", type=int, default=12345)
        return p

    def study(name, help):
        p = experiment(name, help)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent runs")
        p.add_argument("--format", choices=["table", "csv", "json"],
                       default="table")
        p.add_argument("--out", help="write output to this path")
        return p

    run_p = experiment("run", "single optimization run")
    run_p.add_argument("--report", action="store_true",
                       help="print per-generation progress")
    run_p.add_argument("--dump-model",
                       help="write the final generation's model to this path")
    run_p.add_argument("--copula-trace",
                       help="write per-generation copula family counts (CSV)")

    indep_p = study("indep-runs", "independent replications")
    indep_p.add_argument("--runs", type=int, default=30)

    crit_p = study("critpop", "critical population size search")
    crit_p.add_argument("--lower-pop", type=int, default=50)
    crit_p.add_argument("--upper-pop", type=int, default=2000)
    crit_p.add_argument("--total-runs", type=int, default=30)
    crit_p.add_argument("--success-runs", type=int, default=30)
    crit_p.add_argument("--stop-percent", type=float, default=10.0)
    return parser, {"run": run_p, "indep-runs": indep_p, "critpop": crit_p}


def _parse(argv) -> argparse.Namespace:
    """Flag > config file > default: the file's values become the command's
    defaults, and the command line is parsed again over them."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = commands[args.command]
        command.set_defaults(**_read_config_file(args.config, command))
        args = parser.parse_args(argv)
    return args


def _check_before_runs(args: argparse.Namespace):
    """Exit 2 on a bad --jobs or output path before the first run, not
    after a finished study (critpop passes --jobs only to its fallback).
    A file made only to check the path is removed again."""
    if getattr(args, "jobs", 1) < 1:
        raise InputError("jobs must be >= 1")
    for dest in ("out", "dump_model", "copula_trace"):
        path = getattr(args, dest, None)
        if not path:
            continue
        existed = os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from exc
        if not existed:
            os.remove(path)


def _resolve_experiment(args: argparse.Namespace):
    if args.dim < 1:
        raise InputError("dim must be at least 1")
    bench = get_benchmark(args.function)
    lower = bench.default_lower if args.lower is None else args.lower
    upper = bench.default_upper if args.upper is None else args.upper
    target = bench.target_eval if args.target is None else args.target
    termination = TerminationSpec(
        max_gen=args.max_gen,
        max_evals=args.max_evals,
        target_eval=target,
        target_tol=args.tol,
        eval_stddev_floor=args.stddev_floor,
    )
    families = tuple(tok.strip()
                     for tok in args.copula.split(",") if tok.strip())
    spec = EdaSpec(
        algorithm=args.algorithm,
        pop_size=args.pop_size,
        termination=termination,
        margin=args.margin,
        copulas=families,
        sig_level=args.sig_level,
        trunc_criterion=args.trunc_criterion,
    )
    return (spec, bench, np.full(args.dim, float(lower)),
            np.full(args.dim, float(upper)), target)


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


def _write_runs(args, results, summary: RunsSummary, stream):
    if args.format == "csv":
        text = _runs_csv(results)
    elif args.format == "json":
        text = _runs_json(results, summary)
    else:
        text = _runs_table(results) + "\n\n" + _summary_table(summary)
    _emit(text, args.out, stream)


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
    spec, bench, lower, upper, _ = _resolve_experiment(args)
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

    result = eda_run(spec, bench.func, lower, upper, run_rng(args.seed, 0),
                     model_sink=sink)
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
    spec, bench, lower, upper, _ = _resolve_experiment(args)
    results, summary = eda_indep_runs(spec, bench.func, lower, upper,
                                      args.runs, base_seed=args.seed,
                                      jobs=args.jobs)
    _write_runs(args, results, summary, stream)
    return 0


def cmd_critpop(args, stream) -> int:
    spec, bench, lower, upper, target = _resolve_experiment(args)
    stream.write(f"critical population size search in [{args.lower_pop}, "
                 f"{args.upper_pop}], stop at {args.stop_percent:g}% width, "
                 f"{args.success_runs}/{args.total_runs} successes required\n")

    def trace(size, successes, attempted):
        stream.write(f"pop {size:>6}: {successes}/{attempted} successful runs\n")

    found = critical_pop_size(spec, bench.func, lower, upper, target, args.tol,
                              args.lower_pop, args.upper_pop, args.total_runs,
                              args.success_runs, args.stop_percent,
                              base_seed=args.seed, trace=trace)
    if found is None:
        stream.write(f"critical population size not found in "
                     f"[{args.lower_pop}, {args.upper_pop}]\n")
        stream.write(f"falling back to {args.total_runs} runs at the upper "
                     f"bound {args.upper_pop}\n")
        results, summary = eda_indep_runs(
            replace(spec, pop_size=args.upper_pop), bench.func, lower, upper,
            args.total_runs, base_seed=args.seed, jobs=args.jobs)
        _write_runs(args, results, summary, stream)
    else:
        stream.write(f"critical population size: {found}\n")
    return 0


def main(argv=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    handlers = {"run": cmd_run, "indep-runs": cmd_indep_runs,
                "critpop": cmd_critpop}
    # Only bad input is a usage error (exit 2); a ValueError raised by the
    # numerics inside a run propagates with its traceback (exit 1).
    try:
        args = _parse(argv)
        _check_before_runs(args)
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
