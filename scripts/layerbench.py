#!/usr/bin/env python3
"""Per-layer timings of the flow and estimate kernels, as one JSON object on standard output.

    python3 scripts/layerbench.py [--against TREE] [--quick]

Each layer is one call of a kernel on the same inputs every time: the bound rhs at N =
32, 64 and 128 on 1 and 16 rows, one rk4 step (N = 64, one row), one implicit midpoint step
(N = 32, one row, and N = 8 on the 64 bumped rows of a flow Jacobian), the whole midpoint flow
of those 64 rows over T = 0.25 under the certify workload's config (dt = 5e-3, midpoint_tol =
1e-13) and its reverse pass, whose later steps start their solves from the steps before and
so show what a single first step cannot, one Picard subinterval
(N = 32, length 1) on a kept workspace, a whole one-subinterval Picard integrate (N = 32, h =
1: a fresh workspace and binding, as in the certify workload's Picard experiments), one
integrate over T = 1 (N = 64, one row, dt = 1e-3: the serial flow of `bbmlab simulate`), a
taped 2-row rk4 flow at N = 32 over T = 1 (dt = 0.02) and its reverse pass, both again on 16
rows (a witness search's 16 starts) and on 2 linear_only rows (a calibration cell's flows),
one search iteration (a witness-search cell: r = 0.5, n0 = 1, T = 1, N = 32, dt = 0.02, 16
starts, max_ascent_iters = 1), the invariants of one N = 128 state, one smoothing ratio (N =
32, T = 1, dt = 0.01: one pass of 32 segments of 4 steps on two rows), and the estimate
sweep's gaussian chunk: one substream key, the u and v normals of 32 samples at N = 128 and
the bilinear ratios of those 32 row pairs.  The steppers work in place, so their row is reset
from a saved copy before each call.  A repeat times a fixed number of calls of every layer in turn, so a drift
in the host's speed reaches all layers alike; each layer reports the median and quartiles of
its per-call time over REPEATS repeats, in microseconds.

--against TREE also loads the bbmlab of another checkout (TREE/src) into the same process and
times each layer's call block on both trees back to back, the order alternating from repeat
to repeat.  Separate processes see the host's speed change between them, which can swamp a
kernel's difference; back-to-back blocks in one process resolve it.  The "against" record
holds the other tree's timings, the relative change of this tree's median and the number of
repeats in which this tree was faster.

The host record holds the fields perfbench records: git revision, Python and numpy versions,
nproc and the seed.  --quick runs 3 repeats of few calls, to check that the script runs, not
to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 15
SEED = 0


def _git_revision(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_tree(root: str):
    """The flow, sampling, estimates and squeeze modules of the bbmlab under root/src.

    The modules are imported afresh and the bbmlab modules already imported are put back
    afterwards, so two trees' kernels can be timed in one process.
    """
    def ours():
        return [name for name in sys.modules if name == "bbmlab" or name.startswith("bbmlab.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        return tuple(importlib.import_module(f"bbmlab.{name}")
                     for name in ("flow", "sampling", "estimates", "squeeze"))
    finally:
        sys.path.remove(src)
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def layers(flow, sampling, estimates, squeeze) -> dict:
    """name -> (zero-argument call, calls per repeat) for one tree's kernels."""
    def rows(n_modes, batch, radius=0.5):
        draws = np.array([sampling.substream(SEED, "layerbench", n_modes, i).standard_normal(
            (2, n_modes)) for i in range(batch)])
        return sampling.sobolev_ball_rows(draws, 0.5, radius)

    def midpoint_step(ops, y, dt, tol, work):
        stepper = ops.bind(y.shape[:-1])
        return lambda y: flow._midpoint_step(stepper, y, dt, tol, 1, work)

    def from_start(y0, step):
        y = y0.copy()

        def call():
            np.copyto(y, y0)
            step(y)
        return call

    out = {}
    for n_modes in (32, 64, 128):
        ops = flow._VecOps(n_modes)
        for batch in (1, 16):
            c = ops.pad(rows(n_modes, batch))
            c = c[0] if batch == 1 else c
            rhs, res = ops.bind(c.shape[:-1]).rhs, np.empty_like(c)
            out[f"rhs/N={n_modes}/rows={batch}"] = (lambda rhs=rhs, c=c, res=res: rhs(c, res), 400)
    ops = flow._VecOps(64)
    y0 = ops.pad(rows(64, 1)[0])
    bound, work = ops.bind(), np.empty((5,) + y0.shape, complex)
    p, coef = bound.flux, flow.rk4_coefficients(1e-3, bound.gen)  # rk4 steps y' = L P(y)
    out["rk4_step/N=64/rows=1"] = (from_start(y0, lambda y: flow.rk4_step(p, y, coef, work)),
                                   200)
    mid_ops = flow._VecOps(32)
    y_mid = mid_ops.pad(rows(32, 1))
    mid_work, mid_dt = np.empty((5,) + y_mid.shape, complex), np.array(1e-3, complex)
    out["midpoint_step/N=32/rows=1"] = (from_start(y_mid, midpoint_step(
        mid_ops, y_mid, mid_dt, 1e-12, mid_work)), 100)
    # A flow Jacobian's batch: 8 modes' real and imaginary parts bumped by +-1e-4 and +-5e-5.
    jac_ops = flow._VecOps(8)
    bumps = np.concatenate([np.eye(8), 1j * np.eye(8)])
    c_jac = rows(8, 1)[0] + np.concatenate(
        [sign * h * bumps for h in (1e-4, 5e-5) for sign in (1.0, -1.0)])
    y_jac = jac_ops.pad(c_jac)
    jac_work, jac_dt = np.empty((5,) + y_jac.shape, complex), np.array(5e-3, complex)
    out["midpoint_step/N=8/rows=64"] = (from_start(y_jac, midpoint_step(
        jac_ops, y_jac, jac_dt, 1e-13, jac_work)), 50)
    # The whole flow of that batch under the certify workload's config, and the reverse pass
    # of the same flow with the 16 unit cotangents on each of its four bump blocks.
    jac_cfg = flow.FlowConfig(N=8, dt=5e-3, integrator="implicit_midpoint", midpoint_tol=1e-13)
    out["integrate_midpoint/N=8/rows=64/T=0.25"] = (
        lambda: flow.integrate_batch(c_jac, 0.25, jac_cfg), 3)
    _, jac_tape = flow.integrate_taped(c_jac, 0.25, jac_cfg)
    jac_lam = np.tile(bumps, (4, 1))
    out["adjoint_batch_midpoint/N=8/rows=64/T=0.25"] = (
        lambda: flow.adjoint_batch(jac_tape, jac_lam, 0.25, jac_cfg), 3)
    y_picard = mid_ops.pad(rows(32, 1, radius=1.0)[0])
    out["picard_subinterval/N=32/h=1"] = (
        lambda: flow._picard_subinterval(mid_ops, y_picard, 1.0, flow._PICARD_TOL, 200, 0.0), 5)
    u_picard = sampling.sobolev_ball_state(sampling.substream(SEED, "layerbench", "picard"), 32,
                                           0.5, 1.0)
    picard_cfg = flow.FlowConfig(N=32, dt=1.0, integrator="picard", picard_max_iter=200)
    out["integrate_picard/N=32/h=1"] = (lambda: flow.integrate(u_picard, 1.0, picard_cfg), 5)
    u_long = sampling.sobolev_ball_state(sampling.substream(SEED, "layerbench", "long"), 64, 0.5,
                                         0.5)
    long_cfg = flow.FlowConfig(N=64, dt=1e-3)
    out["integrate/N=64/rows=1/T=1"] = (lambda: flow.integrate(u_long, 1.0, long_cfg), 1)
    for batch, linear_only, kind in ((2, False, ""), (16, False, ""), (2, True, "_linear")):
        c, cfg = rows(32, batch), flow.FlowConfig(N=32, dt=0.02, linear_only=linear_only)
        _, tape = flow.integrate_taped(c, 1.0, cfg)
        out[f"integrate_taped{kind}/N=32/rows={batch}/T=1"] = (
            lambda c=c, cfg=cfg: flow.integrate_taped(c, 1.0, cfg), 5)
        out[f"adjoint_batch{kind}/N=32/rows={batch}/T=1"] = (
            lambda c=c, tape=tape, cfg=cfg: flow.adjoint_batch(tape, c, 1.0, cfg), 5)
    search = squeeze.SqueezeConfig(r=0.5, n0=1, T=1.0, flow=flow.FlowConfig(N=32, dt=0.02),
                                   n_starts=16, max_ascent_iters=1, stall_tol=1e-5, seed=SEED)
    out["search_iteration/N=32/starts=16"] = (lambda: squeeze.maximize_image_radius(search), 1)
    u_inv = sampling.sobolev_ball_state(sampling.substream(SEED, "layerbench", "invariants"), 128,
                                        0.5, 0.5)
    out["invariants_of/N=128"] = (lambda: flow.invariants_of(u_inv), 200)
    u0, v0 = (sampling.sobolev_ball_state(sampling.substream(SEED, "layerbench", name), 32, 0.5,
                                          0.8) for name in ("u0", "v0"))
    smoothing = flow.FlowConfig(N=32, dt=0.01)
    out["smoothing_ratio/N=32/T=1"] = (
        lambda: estimates.smoothing_ratio(u0, v0, 1.0, 1.0 / 24.0, smoothing), 3)
    # The estimate sweep's gaussian chunk: one key's generator, the u and v draws of 32
    # samples at N = 128, and the bilinear ratios of the chunk's rows.
    chunk = range(estimates._SWEEP_BATCH)
    out["substream/keys=1"] = (lambda: sampling.substream(SEED, 128, 0, 0), 200)
    out["sweep_normals/N=128/rows=32"] = (lambda: sampling.sweep_normals(SEED, 128, chunk), 10)
    u, v = estimates._sample_rows("gaussian", SEED, chunk, 128, 0.5, 0.5)
    out["bilinear_ratio/N=128/rows=32"] = (
        lambda: estimates._ratio_rows(u, v, 0.5, 0.5, 0.5, "bilinear_ratio"), 20)
    return out


def _stats(samples: list, calls: int) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"unit": "us", "median": median, "q1": q1, "q3": q3, "calls": calls,
            "repeats": len(samples)}


def measure(trees: list, repeats: int, scale: float) -> tuple[dict, list]:
    """Calls per block of each layer, and per tree its microseconds per call in each repeat.

    Every repeat times each layer's call block on every tree back to back, the trees' order
    turning by one from repeat to repeat.
    """
    calls_of = [layers(*modules) for modules in trees]
    calls = {name: max(1, round(number * scale)) for name, (_, number) in calls_of[0].items()}
    times = [{name: [] for name in calls} for _ in trees]
    for tree_calls in calls_of:  # one warm-up call: workspaces, caches
        for call, _ in tree_calls.values():
            call()
    for rep in range(repeats):
        for name in calls:
            for k in range(len(trees)):
                t = (k + rep) % len(trees)
                call = calls_of[t][name][0]
                t0 = time.perf_counter()
                for _ in range(calls[name]):
                    call()
                times[t][name].append(1e6 * (time.perf_counter() - t0) / calls[name])
    return calls, times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="TREE",
                    help="a checkout whose bbmlab is timed in the same process, block by block")
    ap.add_argument("--quick", action="store_true", help="3 repeats of few calls")
    args = ap.parse_args(argv)
    repeats, scale = (3, 0.05) if args.quick else (REPEATS, 1.0)
    trees = [load_tree(ROOT)] + ([load_tree(args.against)] if args.against else [])
    environment = {
        "git_revision": _git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": SEED,
    }
    calls, times = measure(trees, repeats, scale)
    timings = [{name: _stats(samples, calls[name]) for name, samples in tree.items()}
               for tree in times]
    record = {"environment": environment, "quick": args.quick, "layers": timings[0]}
    if args.against:
        this, other = timings
        record["against"] = {
            "tree": os.path.abspath(args.against),
            "git_revision": _git_revision(args.against),
            "layers": other,
            "relative_change": {name: this[name]["median"] / other[name]["median"] - 1.0
                                for name in this},
            "this_faster": {name: sum(a < b for a, b in zip(times[0][name], times[1][name]))
                            for name in this},
        }
    json.dump(record, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
