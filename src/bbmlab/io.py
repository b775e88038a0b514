"""CSV serialization and run manifests.

All floats are written with 17 significant digits so that decimal
round-trips are exact and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import __version__
from .estimates import EstimateReport
from .spectral import MAX_MODES, TrigState
from .squeeze import SqueezeReport


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at path; a ValueError naming what and path if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ValueError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from None


def write_state_csv(path, state: TrigState) -> None:
    """Rows k,a_k,b_k for k = 1..N plus the 0,mean,0 row."""
    lines = ["k,a_k,b_k", f"0,{fmt(state.mean)},0"]
    for k in range(1, state.n_modes + 1):
        lines.append(f"{k},{fmt(state.a[k - 1])},{fmt(state.b[k - 1])}")
    _write(path, lines)


def read_state_csv(path, n_modes: int | None = None) -> TrigState:
    """Inverse of write_state_csv.

    Rejects a file that read_text cannot read, naming it, and, naming the
    file and line, a row that does not parse or holds a non-finite number,
    a negative or repeated k, a k above n_modes (spectral.MAX_MODES when not
    given), and a nonzero b on the k = 0 (mean) row.  The state has as many
    modes as its largest k.
    """
    mean = 0.0
    pairs = {}
    seen = set()
    for line_no, line in enumerate(read_text(path, "state file").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("k,"):
            continue
        where = f"state file {path}, line {line_no}"
        try:
            k_str, a_str, b_str = line.split(",")
            k, ak, bk = int(k_str), float(a_str), float(b_str)
        except ValueError as exc:
            raise ValueError(f"{where}: expected a row k,a_k,b_k, got {line!r}") from exc
        if not (math.isfinite(ak) and math.isfinite(bk)):
            raise ValueError(f"{where}: non-finite coefficient in {line!r}")
        if k < 0:
            raise ValueError(f"{where}: negative mode k = {k}")
        if k > (MAX_MODES if n_modes is None else n_modes):
            bound = f"spectral.MAX_MODES = {MAX_MODES}" if n_modes is None else n_modes
            raise ValueError(f"{where}: mode k = {k} exceeds the truncation N = {bound}")
        if k in seen:
            raise ValueError(f"{where}: duplicate row for mode k = {k}")
        seen.add(k)
        if k == 0:
            if bk != 0.0:
                raise ValueError(f"{where}: the k = 0 (mean) row must have b = 0, got {b_str}")
            mean = ak
        else:
            pairs[k] = (ak, bk)
    if not pairs:
        raise ValueError(f"state file {path} holds no modes")
    n = max(pairs)
    a = np.zeros(n)
    b = np.zeros(n)
    for k, (ak, bk) in pairs.items():
        a[k - 1] = ak
        b[k - 1] = bk
    return TrigState(mean, a, b)


def write_trace_csv(path, trace) -> None:
    lines = ["t,I1,I2,H"]
    for t, i1, i2, ham in trace:
        lines.append(f"{fmt(t)},{fmt(i1)},{fmt(i2)},{fmt(ham)}")
    _write(path, lines)


def write_estimate_csv(path, report: EstimateReport) -> None:
    lines = ["s,r,rprime,N,n_samples,max_ratio,argmax_seed"]
    for n_modes in sorted(report.sweep):
        sample = report.sweep[n_modes]
        lines.append(
            f"{fmt(report.s)},{fmt(report.r)},{fmt(report.rprime)},{n_modes},"
            f"{report.n_samples},{fmt(sample.ratio)},{sample.seed}"
        )
    _write(path, lines)


def write_squeeze_csv(path, report: SqueezeReport) -> None:
    lines = ["start_id,iter,radius"]
    for start_id, traj in enumerate(report.trajectories):
        for it, radius in traj:
            lines.append(f"{start_id},{it},{fmt(radius)}")
    lines.append(f"best,,{fmt(report.achieved_radius)}")
    _write(path, lines)


def write_galerkin_csv(path, rows) -> None:
    lines = ["N_small,defect"]
    for n_small, defect in rows:
        lines.append(f"{n_small},{fmt(defect)}")
    _write(path, lines)


def write_orbit_csv(path, rows) -> None:
    lines = ["fprime,period,period_times_fprime"]
    for fprime, period in rows:
        lines.append(f"{fmt(fprime)},{fmt(period)},{fmt(period * fprime)}")
    _write(path, lines)


def write_manifest(path, command: str, config: dict, seed: int, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "artifact_version": __version__,
        "seed": seed,
        "config": config,
        "outputs": sorted(outputs),
    }
    _write(path, [json.dumps(manifest, indent=2, sort_keys=True)])


def _write(path, lines) -> None:
    """Write lines to path, one per line; a ValueError naming path if it cannot be written."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
