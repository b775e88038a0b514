"""One benchmark process: import bbmlab, warm up, run batches of one workload.

run.py starts this file in a fresh interpreter with PYTHONPATH set to the
checkout's src/ and the OpenMP/BLAS pools pinned to one thread, and reads the
JSON it writes to --out.  With --setup-only it stops after set-up, which is
`import bbmlab` (plus its CLI) and one warm-up op of the workload.

Batches run back to back in this one thread, each experiment starting when
the last has finished, until --seconds have passed.  The first batch is
checked against the oracles; every later batch must reproduce its outputs
byte for byte.  With --trace 1, traced and untraced batches alternate, so the
tracing overhead is the difference of their medians.

Batch times are reported at one reference speed of the host, measured by a
reference loop run around and during every experiment (see hostspeed.py).
The times as measured go into the result too, under raw_*.  Set-up is a
single cold measurement per process and is reported as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

MIN_BATCHES = 3


def _within(path: str, directory: str) -> bool:
    path, directory = os.path.realpath(path), os.path.realpath(directory)
    return os.path.commonpath([path, directory]) == directory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import bbmlab
    import bbmlab.cli  # noqa: F401  (the CLI workloads enter here)

    import_s = perf_counter() - t0
    src = os.path.join(args.root, "src")
    if not _within(bbmlab.__file__, src):
        print(f"perfbench: refusing to measure bbmlab from {bbmlab.__file__}, outside {src}",
              file=sys.stderr)
        return 2

    import numpy as np
    from hostspeed import HostSpeed
    from tracer import Tracer, per_layer_metrics, repeat_signature, write_spans
    from workloads import WORKLOADS, load_oracles

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir, load_oracles(args.root))
    t1 = perf_counter()
    workload.warm_up()
    setup_s = import_s + (perf_counter() - t1)
    result = {"setup_s": setup_s}
    if args.setup_only:
        return _dump(args.out, result)

    # Seconds per experiment, one row per batch: at the reference speed, and
    # as measured.
    times, traced_times, raw_times, tracers = [], [], [], []
    reference, failed_checks, extra = None, [], {}
    attempted = failed = 0
    schedule = (False, True) if args.trace else (False,)
    host = HostSpeed()
    start = perf_counter()
    round_s = 0.0
    # Stop when another round would end further past --seconds than short of it.
    while len(times) < MIN_BATCHES or perf_counter() - start + round_s / 2 < args.seconds:
        round_start = perf_counter()
        for traced in schedule:
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            outcomes, seconds, scaled = workload.run_batch(host, tracer)
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
                traced_times.append(scaled)
            else:
                times.append(scaled)
                raw_times.append(seconds)
            collected = [exp.collect(out) for exp, out in zip(workload.experiments, outcomes)]
            if reference is None:
                reference = collected
                failed_checks, extra = workload.check()
                failed += len(failed_checks)
            attempted += workload.ops_per_batch
            for exp, got, want in zip(workload.experiments, collected, reference):
                if got is None or got != want:
                    failed += exp.ops
                    failed_checks.append(f"{exp.label}: failed or output differs from batch 1")
        round_s = perf_counter() - round_start

    result.update(
        wall_s=_batch_seconds(times),
        raw_wall_s=_batch_seconds(raw_times),
        batches=len(times),
        times=times,
        raw_times=raw_times,
        ops_per_batch=workload.ops_per_batch,
        op_unit=workload.op_unit,
        attempted=attempted,
        failed=failed,
        failed_checks=failed_checks,
        outputs={exp.label: hashlib.sha256(out or b"").hexdigest()
                 for exp, out in zip(workload.experiments, reference)},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=np.__version__,
        **extra,
    )
    if tracers:
        signatures = [repeat_signature(t) for t in tracers]
        if any(sig != signatures[0] for sig in signatures[1:]):
            result["failed"] += 1
            failed_checks.append("traced batches disagree on calls or counts at one seed")
        per_layer = per_layer_metrics(tracers)
        per_layer["squeeze.witness_ratio"] = (extra.get("witness_ratio", 0.0), "ratio")
        per_layer["trace.overhead_s"] = (
            _batch_seconds(traced_times) - _batch_seconds(times), "s"
        )
        result["per_layer"] = per_layer
        result["traced_times"] = traced_times
        spans_path = os.path.join(args.workdir, "spans.csv")
        write_spans(spans_path, tracers)
        result["spans"] = spans_path
    return _dump(args.out, result)


def _batch_seconds(times: list[list[float]]) -> float:
    """Time to finish one batch: each experiment's median over batches, summed.

    A burst of load from another process slows one experiment of one batch;
    the per-experiment median drops it even when such bursts hit some
    experiment in most batches, which a per-batch median would not.
    """
    return sum(statistics.median(column) for column in zip(*times))


def _dump(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
