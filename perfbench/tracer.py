"""Span tracer for the public functions of each bbmlab module.

The spans are taken from the benchmark's side of the boundary: `install`
rebinds every listed function in each bbmlab module namespace that holds it
(``bbmlab.squeeze.integrate``, ``bbmlab.estimates.integrate``,
``bbmlab.cli.integrate`` and ``bbmlab.flow.integrate`` all get the same
wrapper), so calls the package makes internally are seen as well.  Nothing
in bbmlab is edited, and `uninstall` restores every binding.

Spans (name, start, end, parent, op id) stay in memory; the caller writes them
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import Counter
from time import perf_counter

# Layer -> public functions whose calls are timed.  Layer names are the
# modules of src/bbmlab.
LAYERS = {
    "cli": ("main",),
    "io": (
        "write_state_csv",
        "write_trace_csv",
        "write_estimate_csv",
        "write_squeeze_csv",
        "write_manifest",
        "read_state_csv",
    ),
    "squeeze": ("maximize_image_radius", "cylinder_radius"),
    "estimates": (
        "estimate_constant",
        "bilinear_ratio",
        "multiplier_ratio",
        "exact_product",
        "flow_jacobian",
        "smoothing_ratio",
        "symplectic_defect",
    ),
    "flow": ("integrate", "rhs", "free_evolution", "invariants_of"),
    "spectral": ("synthesize", "analyze", "sobolev_norm", "to_symplectic", "from_symplectic"),
    "sampling": ("substream", "sobolev_ball_state", "z_sphere_state"),
}
TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Counts read off return values and arguments at the span boundary.
DERIVED_COUNTS = (
    "flow.steps",
    "flow.rk4_steps",
    "flow.picard_sweeps",
    "squeeze.objective_evals",
    "squeeze.accepted_steps",
    "io.bytes_written",
)


def _integrate_hook(counts, caller, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counts["flow.steps"] += result.steps
    if cfg.integrator == "rk4":
        counts["flow.rk4_steps"] += result.steps
    counts["flow.picard_sweeps"] += sum(len(diffs) for diffs in result.picard_diffs)
    if caller == "bbmlab.squeeze":
        counts["squeeze.objective_evals"] += 1


def _squeeze_hook(counts, caller, args, kwargs, result):
    counts["squeeze.accepted_steps"] += sum(len(traj) - 1 for traj in result.trajectories)


def _write_hook(counts, caller, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])


_HOOKS = {
    "flow.integrate": _integrate_hook,
    "squeeze.maximize_image_radius": _squeeze_hook,
    **{f"io.{fn}": _write_hook for fn in LAYERS["io"] if fn.startswith("write_")},
}


class Tracer:
    """Records one batch of experiments; make a new one for each batch."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter({name: 0 for name in DERIVED_COUNTS})
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "bbmlab" or name.startswith("bbmlab.")
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"bbmlab.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, self._wrap(f"{layer}.{fn}", original, mod.__name__))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn, caller):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(counts, caller, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_totals(self) -> tuple[Counter, dict]:
        """Calls and self time per traced function over this batch."""
        cover = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        calls = Counter({name: 0 for name in TRACED})
        self_s = {name: 0.0 for name in TRACED}
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - cover[idx]
        return calls, self_s


def per_layer_metrics(tracers: list[Tracer]) -> dict:
    """Per-layer metrics over traced batches: exact counts, median self times.

    Counts are taken from the first batch; the caller checks they repeat.
    """
    totals = [t.layer_totals() for t in tracers]
    calls = totals[0][0]
    counts = tracers[0].counts
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[name] for _, s in totals), "s")
    steps = counts["flow.steps"]
    us_per_step = [1e6 * s["flow.integrate"] / steps if steps else 0.0 for _, s in totals]
    evals = counts["squeeze.objective_evals"]
    metrics.update(
        {
            "flow.steps": (steps, "count"),
            # Computed, not counted: rk4 makes four rhs evaluations per step.
            "flow.rhs_evals": (4 * counts["flow.rk4_steps"], "count"),
            "flow.us_per_step": (statistics.median(us_per_step), "us"),
            "flow.picard_sweeps": (counts["flow.picard_sweeps"], "count"),
            "squeeze.objective_evals": (evals, "count"),
            "squeeze.accepted_steps": (counts["squeeze.accepted_steps"], "count"),
            "squeeze.useful_ratio": (
                counts["squeeze.accepted_steps"] / evals if evals else 0.0,
                "ratio",
            ),
            "io.bytes_written": (counts["io.bytes_written"], "B"),
        }
    )
    return metrics


def repeat_signature(tracer: Tracer) -> dict:
    """The counts that must repeat exactly between two traced runs of one seed."""
    calls, _ = tracer.layer_totals()
    sig = {f"{name}.calls": calls[name] for name in TRACED}
    for name in ("flow.steps", "flow.picard_sweeps", "squeeze.objective_evals"):
        sig[name] = tracer.counts[name]
    return sig


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """All spans of the run as CSV, one row per span, times relative to the first."""
    origin = min((t.spans[0][1] for t in tracers if t.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("batch,span,name,start_s,end_s,parent,op\n")
        for batch, tracer in enumerate(tracers):
            for idx, (name, start, end, parent, op) in enumerate(tracer.spans):
                fh.write(
                    f"{batch},{idx},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n"
                )
