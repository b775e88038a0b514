"""Entry point of the bbmlab benchmark.

    python3 perfbench/run.py --workload witness_search --seed 0 --seconds 25 --trace 0

Runs one workload (witness_search, long_flow, estimate_sweep, certify) on the
bbmlab source tree of the checkout this file sits in, never on an installed
copy.  Every process it starts gets PYTHONPATH=<checkout>/src and one
OpenMP/BLAS thread, and is waited for.  The last line of standard output is
one JSON object: with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The exit code is 0 only
when every output check passed.  Scratch files, spans and a results record
(with git revision, Python and numpy versions, nproc and seed) go under
perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("witness_search", "long_flow", "estimate_sweep", "certify")
# Set-up is measured in this many fresh processes (the worker counts as one)
# and reported as the median.
SETUP_SAMPLES = 7
# Every process this run starts must have ended by then.
DEADLINE_S = 170.0


def _git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(args, workdir: str, out: str, env: dict, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", ROOT, "--workdir", workdir, "--out", out,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bbmlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    for needed in (os.path.join(src, "bbmlab", "__init__.py"), os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from a bbmlab checkout", file=sys.stderr)
            return 2

    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    work = os.path.join(HERE, "work")
    workdir = os.path.join(work, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results_dir = os.path.join(work, "results")
    os.makedirs(results_dir, exist_ok=True)

    result = _worker(args, os.path.join(workdir, "run"), os.path.join(workdir, "run.json"), env,
                     deadline, setup_only=False)
    setups = [result["setup_s"]]
    for i in range(SETUP_SAMPLES - 1):
        probe = _worker(args, os.path.join(workdir, f"probe{i}"), os.path.join(workdir, f"probe{i}.json"),
                        env, deadline, setup_only=True)
        setups.append(probe["setup_s"])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["per_layer"].items()}
    else:
        wall = result["wall_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": result["ops_per_batch"] / wall, "unit": "op/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    environment = {
        "git_revision": _git_revision(),
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
    }
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment, "setup_samples": setups,
        "fail_ratio": failed / attempted, "worker": result, "metrics": metrics,
    }
    record_path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{key}={value}" for key, value in environment.items()))
    print(
        f"{args.workload}: {result['batches']} batches of {result['ops_per_batch']} "
        f"{result['op_unit']}(s), fail_ratio {failed / attempted:.3g}"
    )
    for check in result["failed_checks"]:
        print(f"  FAILED {check}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
