"""The four benchmark workloads: generated inputs, one batch of ops, output checks.

Each workload turns `--seed` into a fixed batch of experiments.  Where bbmlab
has a CLI subcommand the batch drives `bbmlab.cli.main` on generated INI files,
as a user would; `certify` has no subcommand and calls the public API.  Calls
go through module attributes (``cli.main``, ``flow.integrate``) so that the
tracer's rebinding sees them.

An op is the unit `ops_per_s` counts: one ascent start, one rk4 step, one
sampled ratio or one certificate check.  `run_batch` returns one raw outcome
per experiment; `collect` turns it into bytes that must repeat exactly from
batch to batch; `check` verifies the first batch against the slow oracles in
tests/oracles.py and the paper's inequalities.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io as _stdio
import math
import os
import pickle
import statistics
from dataclasses import dataclass, field

import numpy as np

from bbmlab import cli, estimates, flow, sampling, spectral, squeeze
from bbmlab import io as bio

_FAILED = (flow.FlowError, ValueError)


def load_oracles(root: str):
    """tests/oracles.py of the measured checkout, imported by path (not copied)."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bbmlab_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_ini(path: str, sections: dict) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _digest(*paths: str) -> bytes:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.digest()


def _attempt(run):
    """run(), or the FlowError/ValueError it raised."""
    try:
        return run()
    except _FAILED as exc:
        return exc


def _pickled(outcome):
    return None if isinstance(outcome, _FAILED) else pickle.dumps(outcome)


def _read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


@dataclass
class Experiment:
    """One call into bbmlab: `run` is timed, `collect` is not.

    `collect` maps the outcome to bytes that must repeat from batch to batch,
    or to None when the call failed.
    """

    label: str
    ops: int
    run: object
    collect: object
    meta: dict = field(default_factory=dict)


class Workload:
    name = ""
    op_unit = ""

    def __init__(self, seed: int, workdir: str, oracles):
        self.seed = seed
        self.workdir = workdir
        self.oracles = oracles
        self.experiments: list[Experiment] = []
        self.last_outcomes: list = []

    @property
    def ops_per_batch(self) -> int:
        return sum(e.ops for e in self.experiments)

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_batch(self, host, tracer=None) -> tuple[list, list[float], list[float]]:
        """Run every experiment once, in order: outcomes, and the seconds each
        took as measured and at the reference host speed (`host.measure`).

        Errors are outcomes, not exits.
        """
        outcomes, raw, scaled = [], [], []
        with contextlib.redirect_stdout(_stdio.StringIO()):
            for idx, exp in enumerate(self.experiments):
                if tracer is not None:
                    tracer.op = idx
                outcome, seconds, at_reference = host.measure(lambda: _attempt(exp.run))
                outcomes.append(outcome)
                raw.append(seconds)
                scaled.append(at_reference)
        self.last_outcomes = outcomes
        return outcomes, raw, scaled

    def check(self) -> tuple[list[str], dict]:
        """Failed check labels, and extra figures, for the batch just run."""
        raise NotImplementedError

    def _completed(self) -> list:
        """(experiment, outcome) for each call of the last batch that did not fail.

        A failed call is already counted by the worker; its outputs are not
        checked.
        """
        return [
            (exp, out) for exp, out in zip(self.experiments, self.last_outcomes)
            if exp.collect(out) is not None
        ]

    # CLI helpers -------------------------------------------------------------

    def _cli(self, label: str, ops: int, command: str, sections: dict, outputs: tuple, meta=None):
        outdir = os.path.join(self.workdir, label)
        os.makedirs(outdir, exist_ok=True)
        sections = {"run": {"seed": self.seed, "outdir": outdir}, **sections}
        ini = os.path.join(self.workdir, f"{label}.ini")
        _write_ini(ini, sections)
        paths = tuple(os.path.join(outdir, name) for name in outputs)

        def collect(rc):
            return _digest(*paths) if rc == 0 else None

        exp = Experiment(label, ops, lambda: cli.main([command, ini]), collect, dict(meta or {}))
        exp.meta["outdir"] = outdir
        self.experiments.append(exp)
        return exp


class WitnessSearch(Workload):
    """`bbmlab squeeze` cells shaped like acceptance criterion 6."""

    name = "witness_search"
    op_unit = "ascent start"
    CELLS = ((0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3))
    BASE = {"T": 1.0, "N": 32, "dt": 0.02, "n_starts": 2}

    def __init__(self, seed, workdir, oracles):
        super().__init__(seed, workdir, oracles)
        for r, n0 in self.CELLS:
            cell = {**self.BASE, "r": r, "n0": n0}
            self._cli(
                f"squeeze_r{r}_n{n0}", self.BASE["n_starts"], "squeeze",
                {"squeeze": {**cell, "max_ascent_iters": 3, "stall_tol": 1e-5}},
                ("squeeze.csv", "witness_state.csv"), {"r": r, "n0": n0, "linear": False},
            )
            self._cli(
                f"linear_r{r}_n{n0}", self.BASE["n_starts"], "squeeze",
                {"squeeze": {**cell, "max_ascent_iters": 2, "linear_only": True}},
                ("squeeze.csv", "witness_state.csv"), {"r": r, "n0": n0, "linear": True},
            )

    def warm_up(self):
        u0 = sampling.z_sphere_state(sampling.substream(self.seed, "warm_up"), 0.5, 32, 2)
        final = flow.integrate(u0, 1.0, flow.FlowConfig(N=32, dt=0.02)).final
        squeeze.cylinder_radius(final, 1)

    def check(self):
        failures, ratios = [], []
        fcfg = flow.FlowConfig(N=self.BASE["N"], dt=self.BASE["dt"])
        for exp, _ in self._completed():
            r, outdir = exp.meta["r"], exp.meta["outdir"]
            best = float(_read_rows(os.path.join(outdir, "squeeze.csv"))[-1][2])
            if exp.meta["linear"]:
                if not abs(best / r - 1.0) <= 1e-9:
                    failures.append(f"{exp.label}: linear calibration {best / r!r} != 1")
                continue
            ratios.append(best / r)
            if not best / r >= 0.95:
                failures.append(f"{exp.label}: achieved radius {best / r:.4f} r < 0.95 r")
            witness = bio.read_state_csv(os.path.join(outdir, "witness_state.csv"))
            znorm_err = abs(spectral.z_norm(witness) - r)
            if not znorm_err <= 1e-9:
                failures.append(f"{exp.label}: witness Z norm off r by {znorm_err:.2e}")
            fast = flow.rhs(witness, fcfg)
            ref = self.oracles.oracle_rhs(witness, fcfg.N)
            rhs_err = max(np.max(np.abs(fast.a - ref.a)), np.max(np.abs(fast.b - ref.b)))
            if not rhs_err <= 1e-12:
                failures.append(f"{exp.label}: witness rhs off the oracle by {rhs_err:.2e}")
        return failures, {"witness_ratio": statistics.median(ratios) if ratios else 0.0}


class LongFlow(Workload):
    """`bbmlab simulate` trajectories at N = 64 and 128, restarted once from CSV."""

    name = "long_flow"
    op_unit = "rk4 step"
    DT = 1e-3
    SEGMENT_T = 0.5

    def __init__(self, seed, workdir, oracles):
        super().__init__(seed, workdir, oracles)
        steps = max(1, math.ceil(self.SEGMENT_T / self.DT))
        rng = sampling.substream(seed, "long_flow")
        flow_keys = {"dt": self.DT, "T": self.SEGMENT_T, "integrator": "rk4", "trace_every": 100}
        outputs = ("trace.csv", "final_state.csv")
        for n_modes in (64, 128):
            for preset in ("smooth", "random_ball"):
                if preset == "smooth":
                    state = {"preset": "smooth", "scale": round(float(rng.uniform(0.5, 1.5)), 6)}
                else:
                    state = {"preset": "random_ball", "radius": round(float(rng.uniform(0.5, 1.0)), 6),
                             "reg": 0.5}
                label = f"simulate_N{n_modes}_{preset}"
                first = self._cli(
                    f"{label}_a", steps, "simulate", {"flow": {"N": n_modes, **flow_keys}, "state": state},
                    outputs,
                )
                restart = os.path.join(first.meta["outdir"], "final_state.csv")
                self._cli(
                    f"{label}_b", steps, "simulate",
                    {"flow": {"N": n_modes, **flow_keys}, "state": {"csv": restart}},
                    outputs, {"first": first.meta["outdir"]},
                )

    def warm_up(self):
        u0 = sampling.smooth_profile(128)
        flow.integrate(u0, 10 * self.DT, flow.FlowConfig(N=128, dt=self.DT), trace_every=5)

    def check(self):
        failures = []
        for exp, _ in self._completed():
            if "first" not in exp.meta:
                continue
            start = [float(x) for x in _read_rows(os.path.join(exp.meta["first"], "trace.csv"))[0]]
            end = [float(x) for x in _read_rows(os.path.join(exp.meta["outdir"], "trace.csv"))[-1]]
            if end[1] - start[1] != 0.0:
                failures.append(f"{exp.label}: I1 drift {end[1] - start[1]!r} != 0")
            for name, idx in (("I2", 2), ("H", 3)):
                rel = abs(end[idx] - start[idx]) / abs(start[idx])
                if not rel < 1e-8:
                    failures.append(f"{exp.label}: {name} relative drift {rel:.2e} >= 1e-8")
        return failures, {}


class EstimateSweep(Workload):
    """`bbmlab estimates` in bilinear (gaussian, adversarial) and multiplier mode."""

    name = "estimate_sweep"
    op_unit = "sampled ratio"
    N_LIST = (64, 128)
    N_SAMPLES = 300
    RUNS = (
        ("bilinear", "gaussian", 0.5, 0.5, 0.5),
        ("bilinear", "adversarial", 0.5, 0.5, 0.5),
        ("multiplier", "gaussian", 0.0, 1.0, 0.0),
    )

    def __init__(self, seed, workdir, oracles):
        super().__init__(seed, workdir, oracles)
        for mode, sampler, s, r, rprime in self.RUNS:
            keys = {
                "s": s, "r": r, "rprime": rprime, "n_samples": self.N_SAMPLES,
                "N_list": ", ".join(str(n) for n in self.N_LIST), "sampler": sampler, "mode": mode,
            }
            self._cli(
                f"estimates_{mode}_{sampler}", self.N_SAMPLES * len(self.N_LIST), "estimates",
                {"estimates": keys}, ("estimate.csv",),
                {"mode": mode, "sampler": sampler, "s": s, "r": r, "rprime": rprime},
            )

    def warm_up(self):
        u = sampling.sobolev_ball_state(sampling.substream(self.seed, "warm_up", 0), 128, 0.5, 1.0)
        v = sampling.sobolev_ball_state(sampling.substream(self.seed, "warm_up", 1), 128, 0.5, 1.0)
        estimates.bilinear_ratio(u, v, 0.5, 0.5, 0.5)

    def _pair(self, sampler, idx, n_modes, r, rprime):
        # The sample path estimate_constant documents: draw i at truncation N
        # comes from substream (seed, N, i, 0/1); the adversarial pairs are
        # cos(Kx), cos((K +- 1)x) with K swept through 1..N-1.
        if sampler == "gaussian":
            u = sampling.sobolev_ball_state(sampling.substream(self.seed, n_modes, idx, 0), n_modes, r, 1.0)
            v = sampling.sobolev_ball_state(sampling.substream(self.seed, n_modes, idx, 1), n_modes, rprime, 1.0)
            return u, v
        k = 1 + idx % (n_modes - 1)
        delta = 1 if (idx // (n_modes - 1)) % 2 == 0 else -1
        k2 = min(max(k + delta, 1), n_modes)
        return (spectral.TrigState.single_mode(k, n_modes, a_k=1.0),
                spectral.TrigState.single_mode(k2, n_modes, a_k=1.0))

    def _oracle_ratio(self, meta, u, v):
        product = self.oracles.oracle_product(u, v)
        top = spectral.dispersion_multiplier(product)
        s, r, rprime = meta["s"], meta["r"], meta["rprime"]
        if meta["mode"] == "bilinear":
            return spectral.sobolev_norm(top, s) / (
                spectral.sobolev_norm(u, r) * spectral.sobolev_norm(v, rprime))
        return spectral.sobolev_norm(top, s + 1.0) / (
            spectral.sobolev_norm(u, r) * spectral.sobolev_norm(v, s))

    def check(self):
        failures = []
        for exp, _ in self._completed():
            meta = exp.meta
            for row in _read_rows(os.path.join(meta["outdir"], "estimate.csv")):
                n_modes, ratio, idx = int(row[3]), float(row[5]), int(row[6])
                u, v = self._pair(meta["sampler"], idx, n_modes, meta["r"], meta["rprime"])
                err = abs(self._oracle_ratio(meta, u, v) - ratio)
                if not err <= 1e-10:
                    failures.append(f"{exp.label} N={n_modes}: argmax ratio off the oracle by {err:.2e}")
        return failures, {}


class Certify(Workload):
    """Structural certificates through the public API (no CLI subcommand exists)."""

    name = "certify"
    op_unit = "check"
    MIDPOINT = flow.FlowConfig(N=8, dt=5e-3, integrator="implicit_midpoint", midpoint_tol=1e-13)
    JACOBIAN_T = 0.25
    # Picard subintervals have length 1 / (4 C rho), as in acceptance
    # criterion 10.  C = 0.25 is about twice the largest bilinear ratio
    # estimate_sweep finds at (1/2, 1/2, 1/2) (about 0.13, from the
    # adversarial pairs), so each subinterval lies inside the contraction
    # region the theory predicts.
    PICARD_C = 0.25
    PICARD_RHOS = (0.5, 1.0, 1.5, 2.0)
    SMOOTHING = flow.FlowConfig(N=32, dt=0.01)
    SMOOTHING_PAIRS = 3
    EPS = 1.0 / 24.0

    def __init__(self, seed, workdir, oracles):
        super().__init__(seed, workdir, oracles)
        for i in range(2):
            u0 = sampling.sobolev_ball_state(sampling.substream(seed, "certify", "jacobian", i), 8, 0.5, 0.5,
                                             decay=2.0)
            self._add(f"jacobian_{i}", self._jacobian(u0), {"kind": "jacobian"})
        for j, rho in enumerate(self.PICARD_RHOS):
            u0 = sampling.sobolev_ball_state(sampling.substream(seed, "certify", "picard", j), 32, 0.5, rho)
            h = 1.0 / (4.0 * self.PICARD_C * rho)
            cfg = flow.FlowConfig(N=32, dt=h, integrator="picard", picard_max_iter=200)
            self._add(f"picard_{j}", self._integrate(u0, h, cfg), {"kind": "picard", "u0": u0, "h": h})
        for k in range(self.SMOOTHING_PAIRS):
            rng = sampling.substream(seed, "certify", "smoothing", k)
            u0 = sampling.sobolev_ball_state(sampling.substream(seed, "certify", "smoothing_u", k), 32, 0.5,
                                             float(rng.uniform(0.3, 1.0)))
            v0 = sampling.sobolev_ball_state(sampling.substream(seed, "certify", "smoothing_v", k), 32, 0.5,
                                             float(rng.uniform(0.3, 1.0)))
            self._add(f"smoothing_{k}", self._smoothing(u0, v0), {"kind": "smoothing"})

    def _add(self, label, run, meta):
        self.experiments.append(Experiment(label, 1, run, _pickled, meta))

    def _jacobian(self, u0):
        def run():
            jac = estimates.flow_jacobian(u0, self.JACOBIAN_T, 8, 1e-4, self.MIDPOINT)
            return jac, estimates.symplectic_defect(jac)
        return run

    @staticmethod
    def _integrate(u0, h, cfg):
        return lambda: flow.integrate(u0, h, cfg)

    def _smoothing(self, u0, v0):
        return lambda: estimates.smoothing_ratio(u0, v0, 1.0, self.EPS, self.SMOOTHING)

    def warm_up(self):
        u0 = sampling.sobolev_ball_state(sampling.substream(self.seed, "warm_up"), 32, 0.5, 1.0)
        flow.integrate(u0, 0.5, flow.FlowConfig(N=32, dt=0.5, integrator="picard"))

    def check(self):
        failures = []
        for exp, out in self._completed():
            kind = exp.meta["kind"]
            if kind == "jacobian" and not out[1] < 1e-5:
                failures.append(f"{exp.label}: symplectic defect {out[1]:.2e} >= 1e-5")
            elif kind == "picard":
                diffs = out.picard_diffs[0]
                worst = max(d2 / d1 for d1, d2 in zip(diffs, diffs[1:]))
                if not worst < 1.0:
                    failures.append(f"{exp.label}: successive-difference ratio {worst:.3f} >= 1")
                h = exp.meta["h"]
                ref = flow.integrate(exp.meta["u0"], h, flow.FlowConfig(N=32, dt=min(2e-3, h / 100.0))).final
                dist = spectral.sobolev_norm(out.final - ref, 0.0)
                if not dist < 1e-7:
                    failures.append(f"{exp.label}: endpoint {dist:.2e} from fine-step rk4")
            elif kind == "smoothing" and not math.isfinite(out):
                failures.append(f"{exp.label}: smoothing ratio {out!r} not finite")
        return failures, {}


WORKLOADS = {w.name: w for w in (WitnessSearch, LongFlow, EstimateSweep, Certify)}
