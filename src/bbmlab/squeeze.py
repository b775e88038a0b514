"""Non-squeezing witness search.

Over initial data on a Z-norm sphere, maximize the mode-n0 cylinder radius
of the time-T image of the flow.  The experiment produces a lower bound for
the supremum: a witness close to the ball radius r illustrates numerically
that the image cannot fit in a thinner cylinder.  Values above r are
legitimate (the statement is one-sided) and are never clamped.

The multistart ascent runs its starts in lock step: each batch of flows
holds one group of rows per live start, in chunks of _ROW_CHUNK rows, and
every start keeps its own step size and stop state, so each path is the one
the start would take alone.  A batch whose flow fails is flowed again one
start at a time, and only the starts whose own flows fail are affected.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .flow import FlowConfig, FlowError, integrate_batch, require_finite
from .sampling import substream, z_sphere_row, z_sphere_state
from .spectral import TrigState, pair_coords, pair_rows, require_mean_zero, sobolev_norms

log = logging.getLogger(__name__)

_SCAN_TAG = 0x5CA7
# Cap on the optimizer's active window: each gradient flows 4 states per pair.
_MAX_ACTIVE_PAIRS = 16
# Rows flowed per integrate_batch call, for the scan and the lock-step search
# alike: near 100 rows the cost per row-step is lowest, and the chunk bounds
# a batch's memory.
_ROW_CHUNK = 128


@dataclass(frozen=True)
class SqueezeConfig:
    """One witness-search experiment.

    r is the ball radius in Z-norm units, n0 the cylinder mode, T the
    horizon, and flow the flow every candidate is evolved by (its N is the
    truncation).  center is the ball center (default 0); cyl_center the
    cylinder axis point in the (p_n0, q_n0) plane.  The optimizer works in
    the first min(2 n0, 16, N) mode pairs, a window that must contain n0,
    so n0 <= 16.
    """

    r: float
    n0: int
    T: float
    flow: FlowConfig
    n_starts: int = 16
    center: TrigState | None = None
    cyl_center: tuple[float, float] = (0.0, 0.0)
    fd_step: float = 1e-4
    ascent_step: float | None = None
    max_ascent_iters: int = 40
    stall_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("r", "T", "fd_step", "stall_tol"):
            require_finite(name, getattr(self, name))
        if not self.r > 0:
            raise ValueError("ball radius r must be positive")
        if not self.fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")
        if self.ascent_step is not None:
            require_finite("ascent_step", self.ascent_step)
            if not self.ascent_step > 0:
                raise ValueError(f"ascent_step must be positive, got {self.ascent_step}")
        if self.max_ascent_iters < 0:
            raise ValueError(f"max_ascent_iters must be >= 0, got {self.max_ascent_iters}")
        if self.stall_tol < 0:
            raise ValueError(f"stall_tol must be >= 0, got {self.stall_tol}")
        if not 1 <= self.n0 <= self.flow.N:
            raise ValueError(f"cylinder mode n0 = {self.n0} outside 1..{self.flow.N}")
        if self.n0 > _MAX_ACTIVE_PAIRS:
            raise ValueError(
                f"cylinder mode n0 = {self.n0} lies outside the optimizer's active window: "
                f"the witness search works in at most {_MAX_ACTIVE_PAIRS} mode pairs"
            )
        if self.n_starts < 1:
            raise ValueError(f"need at least one start, got n_starts = {self.n_starts}")
        if self.center is not None:
            require_mean_zero(self.center, "center")
            if self.center.n_modes > self.flow.N:
                raise ValueError(
                    f"center has {self.center.n_modes} modes, more than flow.N = {self.flow.N}"
                )

    @property
    def n_active(self) -> int:
        return min(2 * self.n0, _MAX_ACTIVE_PAIRS, self.flow.N)


@dataclass(frozen=True)
class SqueezeReport:
    """Result of one witness search."""

    config: SqueezeConfig
    best_witness: TrigState
    achieved_radius: float
    trajectories: tuple
    wall_time: float


@dataclass(frozen=True)
class ScanReport:
    """Cylinder radii of the flowed sphere samples, with summary quantiles."""

    config: SqueezeConfig
    radii: np.ndarray
    quantiles: dict


def sample_sphere(r: float, n_modes: int, n_active: int, seed) -> TrigState:
    """Gaussian direction on the Z sphere of radius r, supported on n_active pairs."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return z_sphere_state(rng, r, n_modes, n_active)


def _radii(c: np.ndarray, n0: int, cyl_center: tuple[float, float]) -> np.ndarray:
    """Distance of the mode-n0 pair of each row c (..., N) from the cylinder axis point."""
    pq = np.atleast_2d(pair_coords(c, n0))[:, [n0 - 1, -1]].tolist()
    # math.hypot, not np.hypot: the two round differently in the last bit.
    return np.array([math.hypot(p - cyl_center[0], q - cyl_center[1]) for p, q in pq])


def cylinder_radius(u: TrigState, n0: int, cyl_center: tuple[float, float] = (0.0, 0.0)) -> float:
    """Distance of the mode-n0 pair coordinates from the cylinder axis point."""
    require_mean_zero(u, "cylinder_radius")
    if n0 > u.n_modes:
        raise ValueError(f"cylinder mode n0 = {n0} exceeds truncation {u.n_modes}")
    return float(_radii(u.row, n0, cyl_center)[0])


def _center_state(cfg: SqueezeConfig) -> TrigState:
    return (cfg.center or TrigState.zero(cfg.flow.N)).padded(cfg.flow.N)


def _reproject(x: np.ndarray, r: float) -> np.ndarray:
    return (r / float(np.linalg.norm(x))) * x


def _flowed_radii(rows: np.ndarray, cfg: SqueezeConfig) -> np.ndarray:
    """Cylinder radius of the time-T image of each coefficient row, in chunks of _ROW_CHUNK rows.

    Raises FlowError when any of the flows fails.
    """
    return np.concatenate([
        _radii(integrate_batch(rows[lo:lo + _ROW_CHUNK], cfg.T, cfg.flow), cfg.n0, cfg.cyl_center)
        for lo in range(0, len(rows), _ROW_CHUNK)
    ])


def _radii_per_start(groups: list, cfg: SqueezeConfig, center: np.ndarray) -> list:
    """Image radii of each start's group of points, every group flowed in one batch.

    A point holds 2 n_active pair coordinates relative to the center row.
    When the batch raises FlowError, each group is flowed again on its own,
    as a serial search would flow it, so a failing flow costs only its own
    start: that group's entry is then the FlowError it raised.
    """
    rows = [center + pair_rows(points, cfg.flow.N) for points in groups]
    try:
        radii = _flowed_radii(np.concatenate(rows), cfg)
    except FlowError:
        per_start = []
        for start_rows in rows:
            try:
                per_start.append(_flowed_radii(start_rows, cfg))
            except FlowError as exc:
                per_start.append(exc)
        return per_start
    return np.split(radii, np.cumsum([len(start_rows) for start_rows in rows[:-1]]))


def _objectives(xs: list, cfg: SqueezeConfig, center: np.ndarray) -> list[float]:
    """Image radius of each point of xs, nan where its flow fails."""
    return [float("nan") if isinstance(radii, FlowError) else float(radii[0])
            for radii in _radii_per_start([x[None] for x in xs], cfg, center)]


def _fd_gradients(xs: list, cfg: SqueezeConfig, center: np.ndarray) -> list:
    """Central differences of the image radius in each active coordinate of each point of xs.

    The 2 len(x) perturbed points of every x in xs are flowed together, as
    one batch in chunks of _ROW_CHUNK rows.  The entry of a point whose
    perturbed flows fail is the FlowError they raised.
    """
    groups = []
    for x in xs:
        points = []
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = cfg.fd_step
            points += [_reproject(x + e, cfg.r), _reproject(x - e, cfg.r)]
        groups.append(np.array(points))
    return [radii if isinstance(radii, FlowError)
            else (radii[0::2] - radii[1::2]) / (2.0 * cfg.fd_step)
            for radii in _radii_per_start(groups, cfg, center)]


@dataclass
class _Start:
    """One ascent start: its point x on the sphere, objective val, step alpha and history."""

    start_id: int
    x: np.ndarray
    val: float
    alpha: float
    traj: list
    gains: list = field(default_factory=list)
    abandoned: bool = False


def maximize_image_radius(cfg: SqueezeConfig) -> SqueezeReport:
    """Multistart projected gradient ascent of the image cylinder radius.

    Objective: u0 on the sphere |u0 - center|_Z = r, maximize
    cylinder_radius(Phi_T(u0), n0, cyl_center).  Gradients are central
    differences in the active pair coordinates; every step reprojects to the
    sphere, so the per-start objective sequence is non-decreasing.  The pure
    mode-n0 state is always among the starts, which pins the report to at
    least the rigid-rotation baseline.

    The starts advance in lock step, one ascent iteration at a time: every
    seed objective is flowed in one batch, so are the gradient points of
    every live start, and so is each line-search round's candidate of every
    start that has not yet gained.  Each start keeps its own point, step
    size and recent gains, so its path is the one it would take alone: a
    flowed row has the same bits in any batch.  A flow that fails counts as
    a non-finite objective: the line search halves its step, and a start
    whose seed or gradient fails is abandoned.  A batch that fails is flowed
    again one start at a time, so a failing flow costs only its own start.
    """
    t_begin = time.perf_counter()
    center_state = _center_state(cfg)
    center = center_state.row
    na = cfg.n_active
    alpha0 = cfg.ascent_step if cfg.ascent_step is not None else 0.05 * cfg.r

    seed_x = np.zeros(2 * na)
    seed_x[cfg.n0 - 1] = cfg.r
    xs = [seed_x]
    for i in range(1, cfg.n_starts):
        draw = z_sphere_row(substream(cfg.seed, "start", i), cfg.r, cfg.flow.N, na)
        # The offset of the point center + draw from center: it may differ from draw in the last bit.
        xs.append(pair_coords((center + draw) - center, na))
    xs = [_reproject(x, cfg.r) for x in xs]

    starts = []
    for start_id, (x, val) in enumerate(zip(xs, _objectives(xs, cfg, center))):
        start = _Start(start_id, x, val, alpha0, [(0, val)])
        if not math.isfinite(val):
            log.warning("start %d abandoned: non-finite objective at the seed", start_id)
            start.abandoned = True
        starts.append(start)

    live = [s for s in starts if not s.abandoned]
    for it in range(1, cfg.max_ascent_iters + 1):
        if not live:
            break
        searching = []
        for s, grad in zip(live, _fd_gradients([s.x for s in live], cfg, center)):
            if isinstance(grad, FlowError):
                log.warning("start %d abandoned at iteration %d: gradient flow failed: %s",
                            s.start_id, it, grad)
                s.abandoned = True
                continue
            xhat = s.x / float(np.linalg.norm(s.x))
            tang = grad - float(grad @ xhat) * xhat
            if float(np.linalg.norm(tang)) != 0.0:
                searching.append((s, tang, s.alpha))
        # Line search: halve a start's step until its candidate gains, at most 21 tries.
        for _ in range(21):
            if not searching:
                break
            cands = [_reproject(s.x + a * tang, cfg.r) for s, tang, a in searching]
            still = []
            for (s, tang, a), cand, cand_val in zip(searching, cands, _objectives(cands, cfg, center)):
                if not (math.isfinite(cand_val) and cand_val > s.val):
                    still.append((s, tang, 0.5 * a))
                    continue
                s.gains.append(cand_val - s.val)
                s.x, s.val = cand, cand_val
                s.traj.append((it, cand_val))
                s.alpha = min(2.0 * a, alpha0)
            searching = still
        # A start goes on only if it gained in this iteration and has not stalled.
        live = [s for s in live if s.traj[-1][0] == it
                and not (len(s.gains) >= 5 and sum(s.gains[-5:]) < cfg.stall_tol)]

    finals = [(s.val, s.start_id, s.x) for s in starts if not s.abandoned]
    if not finals:
        raise FlowError("all starts abandoned: every ascent start hit a failing flow")

    best_val = max(v for v, _, _ in finals)
    # Near-ties resolved toward the smoother witness (lower H^1 norm).
    contenders = [f for f in finals if f[0] >= best_val * (1.0 - 1e-12)]
    witnesses = [
        (v, float(sobolev_norms(center_state.mean, center + pair_rows(x, cfg.flow.N), 1.0)), sid, x)
        for v, sid, x in contenders
    ]
    witnesses.sort(key=lambda t: (-t[0], t[1], t[2]))
    _, _, _, best_x = witnesses[0]
    best_witness = center_state + TrigState.from_row(
        pair_rows(_reproject(best_x, cfg.r), cfg.flow.N))

    return SqueezeReport(
        config=cfg,
        best_witness=best_witness,
        achieved_radius=best_val,
        trajectories=tuple(tuple(s.traj) for s in starts),
        wall_time=time.perf_counter() - t_begin,
    )


def ball_image_scan(cfg: SqueezeConfig, n_samples: int) -> ScanReport:
    """Cylinder radii of the flowed images of uniform sphere samples.

    Shows how far random (non-optimized) data falls below the witness-search
    supremum.  Samples are flowed in chunks of _ROW_CHUNK.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rows = _center_state(cfg).row + np.array([
        z_sphere_row(substream(cfg.seed, _SCAN_TAG, i), cfg.r, cfg.flow.N, cfg.n_active)
        for i in range(n_samples)
    ])
    radii = _flowed_radii(rows, cfg)
    levels = [round(0.1 * i, 1) for i in range(11)]
    quantiles = {lv: float(qv) for lv, qv in zip(levels, np.quantile(radii, levels))}
    return ScanReport(config=cfg, radii=radii, quantiles=quantiles)
