"""Five-algorithm benchmark study on Sphere and Summation Cancellation.

Replays the comparison of UMDA, GCEDA, CVEDA, DVEDA and the copula-chain
MIMIC at their critical population sizes, 30 independent runs each, and
writes one CSV per algorithm/function pair plus a summary table to stdout.

    python scripts/benchmark_study.py --outdir results/
    python scripts/benchmark_study.py --quick          # 5 runs, dim 5
    python scripts/benchmark_study.py --critpop        # search pop sizes
                                                       # instead of reusing
                                                       # the published ones
"""

import argparse
import pathlib
import sys
import time

from copeda import critical_pop_size, eda_indep_runs
from copeda.benchmarks import STUDY, study_cell
from copeda.cli import _runs_csv

# the --critpop bisection's bracket
LOWER_POP, UPPER_POP = 50, 2000


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="study_results")
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="5 runs in dimension 5 for a fast smoke study")
    parser.add_argument("--critpop", action="store_true",
                        help="bisect the critical population size in "
                             f"[{LOWER_POP}, {UPPER_POP}] instead of using "
                             "the published one")
    args = parser.parse_args(argv)
    max_evals = 300000
    if args.quick:
        args.runs, args.dim = min(args.runs, 5), min(args.dim, 5)
        max_evals = 20000

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'algorithm':<14}{'function':<26}{'pop':>6}{'success':>9}"
          f"{'evals':>12}{'best':>14}{'time':>8}")
    for algorithm, function in STUDY:
        pop = min(STUDY[algorithm, function], 150) if args.quick else None
        spec, func, lower, upper = study_cell(algorithm, function, args.dim,
                                              pop, max_evals)
        target = spec.termination.target_eval
        tol = spec.termination.target_tol
        note = ""
        if args.critpop:
            found = critical_pop_size(
                spec, func, lower, upper, target, tol,
                lower_pop=LOWER_POP, upper_pop=UPPER_POP,
                total_runs=args.runs, success_runs=args.runs,
                stop_percent=10.0, base_seed=args.seed,
                trace=lambda s, ok, att: print(f"  pop {s}: {ok}/{att}",
                                               file=sys.stderr))
            if found is None:
                note = (f"  no size found in [{LOWER_POP}, {UPPER_POP}];"
                        f" ran at {UPPER_POP}")
                print(note, file=sys.stderr)
                found = UPPER_POP
            spec = study_cell(algorithm, function, args.dim, found,
                              max_evals)[0]
        start = time.perf_counter()
        results, summary = eda_indep_runs(spec, func, lower, upper,
                                          args.runs, base_seed=args.seed,
                                          jobs=args.jobs)
        elapsed = time.perf_counter() - start
        successes = sum(abs(r.best_eval - target) <= tol for r in results)
        (outdir / f"{algorithm}_{function}.csv").write_text(
            _runs_csv(results) + "\n")
        print(f"{algorithm:<14}{function:<26}{spec.pop_size:>6}"
              f"{successes:>5}/{args.runs:<3}"
              f"{summary.evaluations.mean:>12.1f}"
              f"{summary.best_evaluation.mean:>14.3e}{elapsed:>8.1f}{note}")
    print(f"per-run CSVs written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
