"""Check that a benchmark pass does exactly the runs of the study harness.

For each workload it computes the run fingerprint twice: once from the
benchmark's own pass (worker.run_pass, untraced) and once from
``eda_indep_runs(spec, ..., base_seed=seed, jobs=1)`` per spec, interleaved
in the pass's run order.  Exits 1 if any pair differs.

    python3 perfbench/harness_check.py [--seed 12345] [--seconds 15] [NAME ...]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

from copeda.eda import eda_indep_runs  # noqa: E402
from run import WORKLOADS  # noqa: E402
from worker import fingerprint, run_pass  # noqa: E402
from workloads import build_workloads  # noqa: E402


def harness_fingerprint(workload, seed: int, seconds: float) -> str:
    plan = workload.plan(seconds)
    per_spec = {}
    for spec in workload.specs:
        runs = sum(1 for s, _ in plan if s is spec)
        per_spec[spec.algorithm], _ = eda_indep_runs(
            spec, workload.objective, workload.lower, workload.upper, runs,
            base_seed=seed, jobs=1)
    records = [per_spec[spec.algorithm][index] for spec, index in plan]
    return fingerprint([{"num_gens": r.num_gens, "f_evals": r.f_evals,
                         "best_eval": float(r.best_eval).hex()}
                        for r in records])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="workloads to check (default: all)")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    workloads = build_workloads()
    mismatches = 0
    for name in args.names or WORKLOADS:
        workload = workloads[name]
        ours = run_pass(workload, args.seed, args.seconds)["fingerprint"]
        theirs = harness_fingerprint(workload, args.seed, args.seconds)
        mismatches += ours != theirs
        print(f"{name:<22} {'same' if ours == theirs else 'DIFFERENT'}  "
              f"bench {ours}  eda_indep_runs {theirs}", flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
