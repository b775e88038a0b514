"""Non-squeezing witness search.

Over initial data on a Z-norm sphere, maximize the mode-n0 cylinder radius
of the time-T image of the flow.  The experiment produces a lower bound for
the supremum: a witness close to the ball radius r illustrates numerically
that the image cannot fit in a thinner cylinder.  Values above r are
legitimate (the statement is one-sided) and are never clamped.

The multistart ascent runs its starts in lock step: each batch of flows
holds one row per candidate point of every live start, and every start
keeps its own step size and stop state, so each path is the one the start
would take alone.  A batch whose flow fails is flowed again one point at a
time, and only the starts whose own flows fail are affected.

The search runs over the whole truncation: a point is the 2N pair
coordinates of its offset from the ball center.  Gradients are exact for
the discrete flow.  Every batch is flowed with a tape
(flow.integrate_taped); a start keeps the tape and final row of its current
point, and the tapes of rejected candidates go with their batch.  One
reverse pass (flow.adjoint_batch) over the kept tapes of all live starts
then gives every gradient at once, at about the cost of flowing one row per
start.
"""

from __future__ import annotations

import logging
import math
import operator
import time
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .flow import FlowConfig, FlowError, adjoint_batch, integrate_taped, require_finite, tape_shape
from .sampling import substream, z_sphere_row
from .spectral import (
    TrigState,
    basis_scale,
    pair_coords,
    pair_rows,
    require_mean_zero,
    sobolev_norms,
)

log = logging.getLogger(__name__)

# Line-search tries per iteration; a start backtracking alone flows its
# remaining tries, at most _TRIES - 1, in one batch.
_TRIES = 21
# Most ascent starts one search runs, 64 times the shipped 16.
MAX_STARTS = 1024
# Most tape bytes one search may hold: every start's kept tape plus the
# largest batch in flight.  The shipped searches (16 starts, N = 32, T = 1,
# dt = 0.02) need 5.8 MB of it.
MAX_TAPE_BYTES = 1 << 28


@dataclass(frozen=True)
class SqueezeConfig:
    """One witness-search experiment.

    r is the ball radius in Z-norm units, n0 the cylinder mode, T the
    horizon, and flow the flow every candidate is evolved by (its N is the
    truncation; rk4 or implicit_midpoint, which have adjoints).  center is
    the ball center (default 0); cyl_center the cylinder axis point in the
    (p_n0, q_n0) plane.  The search runs in all N mode pairs.  The tapes
    of a search hold 8 bytes per step, stage and padded-grid point for every
    start and every row of the largest batch in flight, at most
    MAX_TAPE_BYTES.
    """

    r: float
    n0: int
    T: float
    flow: FlowConfig
    n_starts: int = 16
    center: TrigState | None = None
    cyl_center: tuple[float, float] = (0.0, 0.0)
    max_ascent_iters: int = 40
    stall_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("r", "T", "stall_tol"):
            require_finite(name, getattr(self, name))
        if not self.r > 0:
            raise ValueError("ball radius r must be positive")
        if self.max_ascent_iters < 0:
            raise ValueError(f"max_ascent_iters must be >= 0, got {self.max_ascent_iters}")
        if len(self.cyl_center) != 2 or not all(map(math.isfinite, self.cyl_center)):
            raise ValueError(f"cyl_center must be two finite numbers, got {self.cyl_center!r}")
        if self.stall_tol < 0:
            raise ValueError(f"stall_tol must be >= 0, got {self.stall_tol}")
        if not 1 <= self.n0 <= self.flow.N:
            raise ValueError(f"cylinder mode n0 = {self.n0} outside 1..{self.flow.N}")
        if self.n_starts < 1:
            raise ValueError(f"need at least one start, got n_starts = {self.n_starts}")
        if self.n_starts > MAX_STARTS:
            raise ValueError(
                f"n_starts must be <= {MAX_STARTS} (squeeze.MAX_STARTS), got {self.n_starts}")
        if self.center is not None:
            require_mean_zero(self.center, "center")
            if self.center.n_modes > self.flow.N:
                raise ValueError(
                    f"center has {self.center.n_modes} modes, more than flow.N = {self.flow.N}"
                )
        rows = self.n_starts + max(self.n_starts, _TRIES - 1)
        tape_bytes = 8 * rows * math.prod(tape_shape(self.T, self.flow))
        if tape_bytes > MAX_TAPE_BYTES:
            raise ValueError(
                f"the search's tapes need {tape_bytes / 2 ** 20:.4g} MiB at "
                f"n_starts = {self.n_starts}, N = {self.flow.N}, T = {self.T!r}, "
                f"dt = {self.flow.dt!r}, more than squeeze.MAX_TAPE_BYTES = "
                f"{MAX_TAPE_BYTES >> 20} MiB"
            )


@dataclass(frozen=True)
class SqueezeReport:
    """Result of one witness search."""

    config: SqueezeConfig
    best_witness: TrigState
    achieved_radius: float
    trajectories: tuple
    wall_time: float


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


def _image_points(xs: list, cfg: SqueezeConfig, center: np.ndarray) -> tuple:
    """Image radius, final row and tape of each point of xs, all flowed as one batch.

    A point holds the 2N pair coordinates of its offset from the center row.
    When the batch raises FlowError each point is flowed again on its own,
    as a serial search would flow it, so a failing flow costs only its own
    point: its radius is then nan and its tape row is left unset.
    """
    rows = center + pair_rows(np.array(xs), cfg.flow.N)
    try:
        finals, tapes = integrate_taped(rows, cfg.T, cfg.flow)
    except FlowError:
        finals = np.full_like(rows, np.nan)
        tapes = np.empty((len(rows),) + tape_shape(cfg.T, cfg.flow))
        for j in range(len(rows)):
            try:
                finals[j:j + 1], tapes[j:j + 1] = integrate_taped(rows[j:j + 1], cfg.T, cfg.flow)
            except FlowError:
                continue
    return _radii(finals, cfg.n0, cfg.cyl_center).tolist(), finals, tapes


def _gradients(vals: list, finals: np.ndarray, tapes: np.ndarray, cfg: SqueezeConfig) -> np.ndarray:
    """Gradient of the image radius in the pair coordinates x of each point, in one reverse pass.

    vals, finals and tapes are the points' image radii, final rows and
    tapes.  The radius hypot(p - p_c, q - q_c) of the mode-n0 pair has the
    cotangent ((p - p_c) - i (q - q_c)) / (radius s_n0) on mode n0 of the
    final row (s = basis_scale), the gradient of hypot through the transpose
    of pair_coords; a radius of 0, where hypot has no gradient, gets 0.
    flow.adjoint_batch pulls it back to the initial row, and the transpose
    of pair_rows gives g_k = s_k Re lam_k and g_{n+k} = -s_k Im lam_k.  A
    row that overflows in the reverse pass comes back non-finite.
    """
    n0 = cfg.n0
    scale = basis_scale(cfg.flow.N)
    lam = np.zeros_like(finals)
    pq = pair_coords(finals, n0)[:, [n0 - 1, -1]].tolist()
    for j, (val, (p, q)) in enumerate(zip(vals, pq)):
        if val:
            d = val * scale[n0 - 1]
            lam[j, n0 - 1] = complex((p - cfg.cyl_center[0]) / d, (cfg.cyl_center[1] - q) / d)
    lam = adjoint_batch(tapes, lam, cfg.T, cfg.flow)
    return np.concatenate([lam.real * scale, lam.imag * -scale], axis=-1)


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
    cylinder_radius(Phi_T(u0), n0, cyl_center).  Gradients are those of the
    discrete flow in the pair coordinates, taken by one reverse pass
    over the tape each start kept from flowing its current point (see
    _gradients); every step reprojects to the sphere, so the per-start
    objective sequence is non-decreasing.  The pure mode-n0 state is always
    among the starts, which pins the report to at least the rigid-rotation
    baseline.

    The starts advance in lock step, one ascent iteration at a time: every
    seed objective is flowed in one batch, so is each line-search round's
    candidate of every start that has not yet gained, and the gradients of
    all live starts are one reverse pass; a start left searching alone after
    a failed try flows all its remaining halvings in one batch.  Each start
    keeps its own point, step size and recent gains, so its path is the one
    it would take alone: a flowed or pulled-back row has the same bits in
    any batch.  A flow that fails counts as a non-finite objective: the line
    search halves its step, and a start whose seed fails, or whose gradient
    turns non-finite, is abandoned.  A batch that fails is flowed again one
    point at a time, so a failing flow costs only its own start.
    """
    t_begin = time.perf_counter()
    center_state = _center_state(cfg)
    center = center_state.row
    n = cfg.flow.N
    alpha0 = 0.05 * cfg.r

    seed_x = np.zeros(2 * n)
    seed_x[cfg.n0 - 1] = cfg.r
    xs = [seed_x]
    for i in range(1, cfg.n_starts):
        draw = z_sphere_row(substream(cfg.seed, "start", i), cfg.r, n, n)
        # The offset of the point center + draw from center: it may differ from draw in the last bit.
        xs.append(pair_coords((center + draw) - center, n))
    xs = [_reproject(x, cfg.r) for x in xs]

    # The final row and tape of each start's current point.
    vals, kept_finals, kept_tapes = _image_points(xs, cfg, center)
    starts = []
    for start_id, (x, val) in enumerate(zip(xs, vals)):
        start = _Start(start_id, x, val, alpha0, [(0, val)])
        if not math.isfinite(val):
            log.warning("start %d abandoned: non-finite objective at the seed", start_id)
            start.abandoned = True
        starts.append(start)

    live = [s for s in starts if not s.abandoned]
    for it in range(1, cfg.max_ascent_iters + 1):
        if not live:
            break
        ids = [s.start_id for s in live]
        searching = []
        for s, grad in zip(live, _gradients([s.val for s in live], kept_finals[ids],
                                            kept_tapes[ids], cfg)):
            if not np.isfinite(grad).all():
                log.warning("start %d abandoned at iteration %d: gradient turned non-finite "
                            "in the reverse pass", s.start_id, it)
                s.abandoned = True
                continue
            xhat = s.x / float(np.linalg.norm(s.x))
            tang = grad - float(grad @ xhat) * xhat
            if float(np.linalg.norm(tang)) != 0.0:
                searching.append((s, tang, s.alpha))
        # Line search: halve a start's step until its candidate gains, at most _TRIES tries.
        # A start left alone after a failed try flows all its remaining halvings at once, in
        # try order.
        tries = 0
        while searching and tries < _TRIES:
            width = _TRIES - tries if len(searching) == 1 and tries else 1
            tries += width
            trials = [(s, tang, b) for s, tang, a in searching
                      for b in accumulate([a] + [0.5] * (width - 1), operator.mul)]
            cands = [_reproject(s.x + a * tang, cfg.r) for s, tang, a in trials]
            cand_vals, cand_finals, cand_tapes = _image_points(cands, cfg, center)
            still = []
            for j, ((s, tang, a), cand, cand_val) in enumerate(zip(trials, cands, cand_vals)):
                if s.traj[-1][0] == it:
                    continue  # the lone start gained at a larger step of this batch
                if not (math.isfinite(cand_val) and cand_val > s.val):
                    still.append((s, tang, 0.5 * a))
                    continue
                s.gains.append(cand_val - s.val)
                s.x, s.val = cand, cand_val
                s.traj.append((it, cand_val))
                s.alpha = min(2.0 * a, alpha0)
                kept_finals[s.start_id], kept_tapes[s.start_id] = cand_finals[j], cand_tapes[j]
            del cand_tapes  # the tapes of the rejected candidates go with their batch
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
