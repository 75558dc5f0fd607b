"""One benchmark process: set up, then run one pass over a workload.

run.py starts this script in a fresh process for every set-up probe and
every pass, with PYTHONPATH pointing at the checkout's ``src`` and the BLAS
thread count capped, so set-up time and peak memory belong to one pass.
The last line of standard output is one JSON object with the results.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _setup(workload_name: str):
    """Import copeda from the checkout and build the workload.

    Returns the workload and the set-up time, in wall seconds and in
    reference seconds (see speed.py).
    """
    start = time.perf_counter()
    import copeda
    from workloads import build_workloads

    if not Path(copeda.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"copeda imported from {copeda.__file__}, "
                         f"not from {ROOT / 'src'}")
    workload = build_workloads()[workload_name]
    setup_wall_s = time.perf_counter() - start
    from speed import speed_factor  # after the timer: it imports numpy

    return workload, setup_wall_s, setup_wall_s * speed_factor()


def _clock_tick(clock, repeats: int = 25) -> float:
    """Median over repeats of the smallest step the clock shows."""
    steps = []
    for _ in range(repeats):
        t0 = clock()
        t1 = clock()
        while t1 == t0:
            t1 = clock()
        steps.append(t1 - t0)
    return statistics.median(steps)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "perf_counter_tick_s": _clock_tick(time.perf_counter),
        "process_time_tick_s": _clock_tick(time.process_time),
    }


def check_run(spec, objective, result) -> list[str]:
    """Output checks for one finished run; empty when all hold."""
    problems = []
    again = float(objective(result.best_sol))
    if again.hex() != float(result.best_eval).hex():
        problems.append(f"objective at best_sol is {again!r}, "
                        f"best_eval is {result.best_eval!r}")
    if result.f_evals != result.num_gens * spec.pop_size:
        problems.append(f"f_evals {result.f_evals} != num_gens "
                        f"{result.num_gens} * pop_size {spec.pop_size}")
    term = spec.termination
    if term.max_gen is not None and result.num_gens > term.max_gen:
        problems.append(f"{result.num_gens} generations > max_gen")
    if (term.max_evals is not None
            and result.f_evals >= term.max_evals + spec.pop_size):
        problems.append(f"{result.f_evals} evaluations overran max_evals")
    stopped = (
        (term.target_eval is not None
         and abs(result.best_eval - term.target_eval) <= term.target_tol)
        or (term.max_gen is not None and result.num_gens == term.max_gen)
        or (term.max_evals is not None and result.f_evals >= term.max_evals)
        or term.eval_stddev_floor is not None)
    if not stopped:
        problems.append("run stopped before any termination criterion held")
    return problems


def fingerprint(records: list[dict]) -> str:
    """sha256 over (num_gens, f_evals, best_eval bits) of each run, in order."""
    digest = hashlib.sha256()
    for r in records:
        line = (f"error:{r['error']}" if "best_eval" not in r else
                f"{r['num_gens']},{r['f_evals']},{r['best_eval']}")
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def run_pass(workload, seed: int, seconds: float, tracer=None) -> dict:
    from copeda.eda import eda_run, run_rng
    from speed import Meter

    run, objective = eda_run, workload.objective
    # the traced pass samples the reference work only between runs, so no
    # span holds any of it
    meter = Meter(every_s=math.inf if tracer is not None else 0.1)
    if tracer is not None:
        run = tracer.wrap("eda.run", eda_run)
        objective = tracer.wrap("benchmarks.objective", objective)
    plan = workload.plan(seconds)
    outcomes = []
    for k, (spec, index) in enumerate(plan):
        if tracer is not None:
            tracer.run_id = k
        meter.start()
        try:
            result = run(spec, objective, workload.lower, workload.upper,
                         run_rng(seed, index), model_sink=meter.tick)
        except Exception as exc:  # a failed run is counted; the pass goes on
            traceback.print_exc(file=sys.stderr)
            result = exc
        outcomes.append((result, meter.stop()))
    times = meter.totals()
    study_s = times["wall_ref_s"]

    records = []
    for (spec, index), (result, wall_s) in zip(plan, outcomes):
        record = {"algorithm": spec.algorithm, "index": index,
                  "wall_s": wall_s}
        if isinstance(result, Exception):
            record["error"] = type(result).__name__
            record["problems"] = [f"raised {result!r}"]
        else:
            term = spec.termination
            record.update(
                num_gens=result.num_gens, f_evals=result.f_evals,
                best_eval=float(result.best_eval).hex(),
                success=abs(result.best_eval - term.target_eval)
                <= term.target_tol,
                problems=check_run(spec, workload.objective, result))
        records.append(record)

    done = [r for r in records if "best_eval" in r]
    failed = sum(bool(r["problems"]) for r in records)
    return {
        "runs": records,
        "attempted": len(records),
        "failed": failed,
        "fingerprint": fingerprint(records),
        "study_s": study_s,
        "cpu_s": times["cpu_ref_s"],
        "times": times,
        "run_s.p50": statistics.median(r["wall_s"] for r in records),
        "evals_per_s": sum(r["f_evals"] for r in done) / study_s,
        "mean_evals": (statistics.fmean(r["f_evals"] for r in done)
                       if done else 0.0),
        "success_rate": sum(r["success"] for r in done) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload, setup_wall_s, setup_s = _setup(args.workload)
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
        out.update(run_pass(workload, args.seed, args.seconds, tracer))
        out["environment"] = environment()
        if tracer is not None:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
            tracer.save(path)
            out["spans_file"] = str(path.relative_to(ROOT))
            out["layers"], out["span_problems"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
