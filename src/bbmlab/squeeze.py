"""Non-squeezing witness search.

Over initial data on a Z-norm sphere, maximize the mode-n0 cylinder radius
of the time-T image of the flow.  The experiment produces a lower bound for
the supremum: a witness close to the ball radius r illustrates numerically
that the image cannot fit in a thinner cylinder.  Values above r are
legitimate (the statement is one-sided) and are never clamped.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .flow import FlowConfig, FlowError, integrate_batch, require_finite
from .sampling import substream, z_sphere_state
from .spectral import (
    SymplecticCoords,
    TrigState,
    from_symplectic,
    require_mean_zero,
    sobolev_norm,
    to_symplectic,
)

log = logging.getLogger(__name__)

_SCAN_TAG = 0x5CA7
# Cap on the optimizer's active window: each gradient flows 4 states per pair.
_MAX_ACTIVE_PAIRS = 16
# Scan samples flowed per batch, which bounds the batch's memory.
_SCAN_BATCH = 256


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


def cylinder_radius(u: TrigState, n0: int, cyl_center: tuple[float, float] = (0.0, 0.0)) -> float:
    """Distance of the mode-n0 pair coordinates from the cylinder axis point."""
    require_mean_zero(u, "cylinder_radius")
    if n0 > u.n_modes:
        raise ValueError(f"cylinder mode n0 = {n0} exceeds truncation {u.n_modes}")
    coords = to_symplectic(u)
    dp = coords.p[n0 - 1] - cyl_center[0]
    dq = coords.q[n0 - 1] - cyl_center[1]
    return math.hypot(dp, dq)


def _center_state(cfg: SqueezeConfig) -> TrigState:
    if cfg.center is None:
        return TrigState.zero(cfg.flow.N)
    require_mean_zero(cfg.center, "squeeze center")
    if cfg.center.n_modes > cfg.flow.N:
        raise ValueError("ball center has more modes than the truncation")
    return cfg.center.padded(cfg.flow.N)


def _embed(x: np.ndarray, center: TrigState, n_active: int, n_modes: int) -> TrigState:
    p = np.zeros(n_modes)
    q = np.zeros(n_modes)
    p[:n_active] = x[:n_active]
    q[:n_active] = x[n_active:]
    return center + from_symplectic(SymplecticCoords(p, q))


def _sphere_coords(state: TrigState, center: TrigState, n_active: int) -> np.ndarray:
    coords = to_symplectic(state - center)
    return np.concatenate([coords.p[:n_active], coords.q[:n_active]])


def _reproject(x: np.ndarray, r: float) -> np.ndarray:
    return (r / float(np.linalg.norm(x))) * x


def _image_radii(points, cfg: SqueezeConfig, center: TrigState) -> np.ndarray:
    """Cylinder radius of the time-T image of each sphere point, flowed as one batch.

    Raises FlowError when any of the flows fails.
    """
    u0s = [_embed(x, center, cfg.n_active, cfg.flow.N) for x in points]
    finals = integrate_batch(u0s, cfg.T, cfg.flow)
    return np.array([cylinder_radius(u, cfg.n0, cfg.cyl_center) for u in finals])


def _fd_gradient(x: np.ndarray, cfg: SqueezeConfig, center: TrigState) -> np.ndarray:
    """Central differences of the image radius in each active coordinate.

    All 2 len(x) perturbed points are flowed as one batch.
    """
    points = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = cfg.fd_step
        points += [_reproject(x + e, cfg.r), _reproject(x - e, cfg.r)]
    radii = _image_radii(points, cfg, center)
    return (radii[0::2] - radii[1::2]) / (2.0 * cfg.fd_step)


def maximize_image_radius(cfg: SqueezeConfig) -> SqueezeReport:
    """Multistart projected gradient ascent of the image cylinder radius.

    Objective: u0 on the sphere |u0 - center|_Z = r, maximize
    cylinder_radius(Phi_T(u0), n0, cyl_center).  Gradients are central
    differences in the active pair coordinates; every step reprojects to the
    sphere, so the per-start objective sequence is non-decreasing.  The pure
    mode-n0 state is always among the starts, which pins the report to at
    least the rigid-rotation baseline.  A flow that fails counts as a
    non-finite objective: the line search halves its step, and a start
    whose seed or gradient fails is abandoned.
    """
    t_begin = time.perf_counter()
    center = _center_state(cfg)
    na = cfg.n_active
    alpha0 = cfg.ascent_step if cfg.ascent_step is not None else 0.05 * cfg.r

    def objective(x: np.ndarray) -> float:
        try:
            return float(_image_radii([x], cfg, center)[0])
        except FlowError:
            return float("nan")

    starts = []
    seed_x = np.zeros(2 * na)
    seed_x[cfg.n0 - 1] = cfg.r
    starts.append(seed_x)
    for i in range(1, cfg.n_starts):
        draw = sample_sphere(cfg.r, cfg.flow.N, na, substream(cfg.seed, "start", i))
        starts.append(_sphere_coords(center + draw, center, na))

    trajectories = []
    finals = []
    for start_id, x in enumerate(starts):
        x = _reproject(x, cfg.r)
        val = objective(x)
        if not math.isfinite(val):
            log.warning("start %d abandoned: non-finite objective at the seed", start_id)
            trajectories.append(((0, float("nan")),))
            continue
        traj = [(0, val)]
        alpha = alpha0
        gains: list[float] = []
        abandoned = False
        for it in range(1, cfg.max_ascent_iters + 1):
            try:
                grad = _fd_gradient(x, cfg, center)
            except FlowError as exc:
                log.warning("start %d abandoned at iteration %d: gradient flow failed: %s",
                            start_id, it, exc)
                abandoned = True
                break
            xhat = x / float(np.linalg.norm(x))
            tang = grad - float(grad @ xhat) * xhat
            tnorm = float(np.linalg.norm(tang))
            if tnorm == 0.0:
                break
            a = alpha
            accepted = False
            for _ in range(21):
                cand = _reproject(x + a * tang, cfg.r)
                cand_val = objective(cand)
                if not math.isfinite(cand_val):
                    a *= 0.5
                    continue
                if cand_val > val:
                    accepted = True
                    break
                a *= 0.5
            if not accepted:
                break
            gains.append(cand_val - val)
            x, val = cand, cand_val
            traj.append((it, val))
            alpha = min(2.0 * a, alpha0)
            if len(gains) >= 5 and sum(gains[-5:]) < cfg.stall_tol:
                break
        trajectories.append(tuple(traj))
        if not abandoned:
            finals.append((val, start_id, x))

    if not finals:
        raise FlowError("all starts abandoned: every ascent start hit a failing flow")

    best_val = max(v for v, _, _ in finals)
    # Near-ties resolved toward the smoother witness (lower H^1 norm).
    contenders = [f for f in finals if f[0] >= best_val * (1.0 - 1e-12)]
    witnesses = [
        (v, sobolev_norm(_embed(x, center, na, cfg.flow.N), 1.0), sid, x)
        for v, sid, x in contenders
    ]
    witnesses.sort(key=lambda t: (-t[0], t[1], t[2]))
    _, _, _, best_x = witnesses[0]
    best_witness = _embed(_reproject(best_x, cfg.r), center, na, cfg.flow.N)

    return SqueezeReport(
        config=cfg,
        best_witness=best_witness,
        achieved_radius=best_val,
        trajectories=tuple(trajectories),
        wall_time=time.perf_counter() - t_begin,
    )


def ball_image_scan(cfg: SqueezeConfig, n_samples: int) -> ScanReport:
    """Cylinder radii of the flowed images of uniform sphere samples.

    Shows how far random (non-optimized) data falls below the witness-search
    supremum.  Samples are flowed in batches of _SCAN_BATCH.
    """
    center = _center_state(cfg)
    u0s = [
        center + sample_sphere(cfg.r, cfg.flow.N, cfg.n_active, substream(cfg.seed, _SCAN_TAG, i))
        for i in range(n_samples)
    ]
    radii = np.array([
        cylinder_radius(u, cfg.n0, cfg.cyl_center)
        for lo in range(0, n_samples, _SCAN_BATCH)
        for u in integrate_batch(u0s[lo:lo + _SCAN_BATCH], cfg.T, cfg.flow)
    ])
    levels = [round(0.1 * i, 1) for i in range(11)]
    quantiles = {lv: float(qv) for lv, qv in zip(levels, np.quantile(radii, levels))}
    return ScanReport(config=cfg, radii=radii, quantiles=quantiles)
