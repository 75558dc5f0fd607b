"""copeda benchmark: replays acceptance-study configs and reports timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one report

Every pass runs in a fresh single-threaded process (worker.py) built from
the checkout's ``src``.  ``--trace 0`` measures the end-to-end metrics:
set-up is the median of three fresh processes, the rest come from one
untraced pass; times are in reference seconds, scaled by the host speed
measured beside them (speed.py).  ``--trace 1`` runs an untraced pass and
then a traced pass of the same runs, checks that both give the same run
fingerprint, and reports per-layer metrics from the spans.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  Workloads, metrics and the layer map are described in README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gceda-kernel-sphere5", "vine-sphere10", "umda-sumcan10",
             "cmimic-sphere10")
SETUP_PROBES = 2          # set-up-only processes besides the pass's own
BLAS_THREADS = "1"        # one thread per process, below nproc
DEADLINE_S = 170.0        # a workload's processes all end within this

END_TO_END_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "evals_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "mean_evals": "count",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} for "
                         f"{' '.join(args)}:\n{proc.stderr[-4000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload: a result object plus the report lines that explain it."""
    deadline = time.monotonic() + DEADLINE_S
    pass_args = ("--workload", workload, "--seed", str(seed),
                 "--seconds", repr(seconds))
    setup = [] if trace else [
        _worker(deadline, "--workload", workload, "--setup-only")["setup_s"]
        for _ in range(SETUP_PROBES)]
    base = _worker(deadline, *pass_args)
    setup.append(base["setup_s"])
    problems = [f"run {r['algorithm']}#{r['index']}: {p}"
                for r in base["runs"] for p in r["problems"]]
    lines = [f"workload {workload}  seed {seed}  runs {base['attempted']}",
             f"  environment {json.dumps(base['environment'])}",
             f"  fingerprint {base['fingerprint']}"]
    lines += [f"  run {r['algorithm']}#{r['index']}: {r['wall_s']:.3f} s, "
              + (f"{r['num_gens']} generations, {r['f_evals']} evaluations, "
                 f"best {float.fromhex(r['best_eval']):.6g}"
                 if "best_eval" in r else f"raised {r['error']}")
              for r in base["runs"]]
    attempted, failed = base["attempted"], base["failed"]

    if trace:
        traced = _worker(deadline, *pass_args, "--trace")
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["fingerprint"] != base["fingerprint"]:
            problems.append(f"traced fingerprint {traced['fingerprint']} "
                            "differs from the untraced one")
        problems += traced["span_problems"]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["study_s"] / base["study_s"]
        lines.append(f"  spans written to {traced['spans_file']}")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {name: base[name] for name in END_TO_END_UNITS}
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
        lines.append(f"  setup_s samples {setup}")
        lines.append(f"  unscaled: {json.dumps(base['times'])}")
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value!r} {units[name]}")
    lines.append(f"  run_s.p50 {base['run_s.p50']!r} s "
                 "(median run wall time, unscaled)")
    lines.append(f"  success_rate {base['success_rate']!r} "
                 f"(runs within tolerance of the target)")
    lines.append(f"  run_fail_rate {base['failed'] / base['attempted']!r} "
                 f"({base['failed']}/{base['attempted']} runs raised or "
                 "failed an output check)")
    lines += [f"  PROBLEM {p}" for p in problems]
    return {
        "lines": lines,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mean"):
        return "trees"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="nominal wall seconds of one pass; fixes how "
                             "many runs it does")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "copeda" / "__init__.py").is_file():
        print(f"error: no copeda source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in results.items()
                   for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
