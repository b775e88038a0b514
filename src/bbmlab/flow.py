"""Flow map of the BBM equation u_t + u_x + u u_x - u_txx = 0 on the circle.

Everything here evolves the mean-zero spectral truncation of

    u_t = -dx (1 - dxx)^{-1} (u + u^2/2),

whose linear part rotates each Fourier pair at frequency phi(k) = k/(1+k^2)
and whose quadratic term is evaluated pseudo-spectrally on a padded grid
(exact for trigonometric polynomials, no aliasing into the kept modes).

Three integrators:

* ``rk4``              classical fourth order, the workhorse;
* ``implicit_midpoint`` fixed-point midpoint rule, symplectic for the
                        canonical pair-coordinate system;
* ``picard``            Duhamel fixed point per subinterval on 8-point
                        Gauss-Legendre collocation nodes, used to probe the
                        local contraction theory.

All three share one stepping loop over (batch, 2N) arrays of coefficient
rows [a_1..a_N, b_1..b_N]: the spectral kernels (``square_half``,
``nonlinear``, ``rhs``, ``free``, ``znorm``) act on the last axis, with the
FFTs taken along it.  ``integrate`` runs that loop on a single (2N,) row;
``integrate_batch`` flows many independent states at once (rk4 and
implicit midpoint; each midpoint row iterates to its own tolerance), which
is how gradients, Jacobian columns and samples are evaluated.  A row that
turns non-finite stops the loop with a ``FlowError``.

Sign conventions are pinned operationally: the time derivative of the free
evolution at t = 0 equals the linear part of ``rhs``, and
rhs(cos x) = (1/2) sin x + (1/10) sin 2x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spectral import (
    TrigState,
    dispersion_symbol,
    project,
    require_mean_zero,
    smooth_grid_size,
    synthesize,
    truncate,
    wavenumbers,
    z_norm,
)

_INTEGRATORS = ("rk4", "implicit_midpoint", "picard")
_MIDPOINT_MAX_ITER = 100


class FlowError(RuntimeError):
    """Integration failure (non-contracting Picard map, stalled solver, ...)."""


def require_finite(name: str, value: float) -> None:
    """Reject a nan or infinite config number, naming its field."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FlowConfig:
    """Settings for one flow evaluation.

    N is the spectral truncation, dt the (maximum) step size.  For the
    picard integrator dt is the Duhamel subinterval length, which must stay
    inside the contraction region.  linear_only disables the quadratic term
    (diagnostic; the flow becomes the free rotation).
    """

    N: int
    dt: float
    integrator: str = "rk4"
    picard_tol: float = 1e-12
    picard_max_iter: int = 60
    midpoint_tol: float = 1e-12
    linear_only: bool = False

    def __post_init__(self):
        for name in ("dt", "picard_tol", "midpoint_tol"):
            require_finite(name, getattr(self, name))
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}")
        if not 0 < self.picard_tol <= 1e-6:
            raise ValueError("picard_tol must lie in (0, 1e-6]")
        if not 0 < self.midpoint_tol <= 1e-6:
            raise ValueError("midpoint_tol must lie in (0, 1e-6]")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")


@dataclass(frozen=True)
class FlowResult:
    """Outcome of integrate(): final state, optional invariant trace, step count.

    trace rows are (t, I1, I2, H).  picard_diffs holds, per subinterval, the
    successive-iterate X^0 differences of the Duhamel fixed point (empty for
    the other integrators).
    """

    final: TrigState
    trace: tuple
    steps: int
    picard_diffs: tuple = ()


class _VecOps:
    """Coefficient-row workspace on the last axis of (..., 2N) arrays.

    A row is y = [a_1..a_N, b_1..b_N] (mean omitted); every operation acts
    row by row, so a (batch, 2N) array flows a batch of independent states
    and a 1-D row is the batch-free case.

    The padded grid has m_pad >= 3N+1 points, which keeps u^2 alias-free on
    modes 1..N (an even m_pad is fine: its Nyquist bin lies above every kept
    mode).  m_pad is rounded up to a 5-smooth length because 3N+1 is often
    prime (97 at N = 32, 193 at N = 64), and pocketfft transforms prime
    lengths several times slower.
    """

    def __init__(self, n: int, linear_only: bool = False):
        self.n = n
        k = wavenumbers(n)
        self.phi = dispersion_symbol(k)
        self.neg_phi = -self.phi
        self.zw = math.pi * (1.0 + k * k) / k
        self.m_pad = smooth_grid_size(3 * n + 1)
        self.linear_only = linear_only

    @classmethod
    def of(cls, cfg: FlowConfig) -> "_VecOps":
        return cls(cfg.N, cfg.linear_only)

    def pack(self, state: TrigState) -> np.ndarray:
        return np.concatenate([state.a, state.b])

    def unpack(self, y: np.ndarray) -> TrigState:
        return TrigState.mean_zero(y[: self.n], y[self.n:])

    def square_half(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Modes 1..N of u^2/2 per row, dealiased exactly on the padded grid."""
        n, m = self.n, self.m_pad
        spec = np.zeros(y.shape[:-1] + (m // 2 + 1,), dtype=complex)
        spec[..., 1:n + 1] = 0.5 * m * (y[..., :n] - 1j * y[..., n:])
        vals = np.fft.irfft(spec, m, axis=-1)
        prod = np.fft.rfft(vals * vals, axis=-1)
        qa = prod[..., 1:n + 1].real / m
        qb = prod[..., 1:n + 1].imag / -m
        return qa, qb

    def nonlinear(self, y: np.ndarray) -> np.ndarray:
        """-dx (1-dxx)^{-1} (u^2/2): the quadratic part of the right-hand side."""
        if self.linear_only:
            return np.zeros_like(y)
        qa, qb = self.square_half(y)
        return np.concatenate([self.neg_phi * qb, self.phi * qa], axis=-1)

    def rhs(self, y: np.ndarray) -> np.ndarray:
        n = self.n
        if self.linear_only:
            wa, wb = y[..., :n], y[..., n:]
        else:
            qa, qb = self.square_half(y)
            wa = y[..., :n] + qa
            wb = y[..., n:] + qb
        return np.concatenate([self.neg_phi * wb, self.phi * wa], axis=-1)

    def free(self, y: np.ndarray, t) -> np.ndarray:
        """Free rotation by t; an array t of shape (..., 1) gives each row its own time."""
        n = self.n
        th = t * self.phi
        c, s = np.cos(th), np.sin(th)
        a, b = y[..., :n], y[..., n:]
        return np.concatenate([a * c - b * s, a * s + b * c], axis=-1)

    def l2(self, y: np.ndarray) -> np.ndarray:
        return np.sqrt(math.pi * np.sum(y * y, axis=-1))

    def znorm(self, y: np.ndarray) -> np.ndarray:
        n = self.n
        return np.sqrt(np.sum(self.zw * (y[..., :n] ** 2 + y[..., n:] ** 2), axis=-1))


def _padded(state: TrigState, cfg: FlowConfig, op: str) -> TrigState:
    require_mean_zero(state, op)
    if state.n_modes > cfg.N:
        raise ValueError(f"state truncation {state.n_modes} exceeds config N = {cfg.N}")
    return state.padded(cfg.N)


def rhs(state: TrigState, cfg: FlowConfig) -> TrigState:
    """Right-hand side -dx (1-dxx)^{-1} P_N(u + u^2/2) of the truncated system.

    The product u^2 is evaluated on a grid large enough that no alias lands
    on the kept modes.  Mode by mode the output pair is
    (phi(k) beta_k, -phi(k) alpha_k) where (alpha_k, beta_k) are the
    coefficients of -(u + u^2/2); concretely rhs(cos x) =
    (1/2) sin x + (1/10) sin 2x.
    """
    state = _padded(state, cfg, "rhs")
    ops = _VecOps.of(cfg)
    return ops.unpack(ops.rhs(ops.pack(state)))


def free_evolution(state: TrigState, t: float) -> TrigState:
    """Linear BBM group: rotate each pair by theta_k = t phi(k).

    a_k(t) = a_k cos - b_k sin, b_k(t) = a_k sin + b_k cos; every H^s norm
    is preserved exactly, and d/dt at t = 0 matches the linear part of rhs.
    """
    require_mean_zero(state, "free_evolution")
    ops = _VecOps(state.n_modes)
    return ops.unpack(ops.free(ops.pack(state), t))


def rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of y' = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _midpoint_step(ops: _VecOps, y: np.ndarray, dt: float, tol: float, step_no: int) -> np.ndarray:
    # Fixed point for each row's endpoint z: z = y + dt * f((y+z)/2), seeded
    # by Euler.  A row stops once its own residual meets tol; a non-finite
    # residual also stops it, and the stepping loop then reports the row.
    shape = y.shape
    y = y.reshape(-1, shape[-1])
    z = y + dt * ops.rhs(y)
    active = np.arange(len(y))
    for _ in range(_MIDPOINT_MAX_ITER):
        ya, za = y[active], z[active]
        z_new = ya + dt * ops.rhs(0.5 * (ya + za))
        delta = ops.znorm(z_new - za)
        z[active] = z_new
        active = active[delta > tol]
        if not active.size:
            return z.reshape(shape)
    raise FlowError(
        f"implicit midpoint solver stalled at step {step_no}: "
        f"residual {float(np.max(delta)):.3e} > tol {tol:.3e}"
    )


def _gauss_collocation(n_nodes: int = 8):
    """Nodes/weights on [0,1] plus the interpolatory integration matrix.

    integ[j] @ f(nodes) integrates the degree n_nodes-1 interpolant of f
    from 0 to node j; built in the Legendre basis for conditioning.
    """
    xi, wi = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (xi + 1.0)
    w = 0.5 * wi
    basis = [
        np.polynomial.Legendre([0.0] * j + [1.0], domain=[0.0, 1.0]) for j in range(n_nodes)
    ]
    colloc = np.array([[p(t) for p in basis] for t in x])
    prim = [p.integ() for p in basis]
    moments = np.array([[pp(t) - pp(0.0) for pp in prim] for t in x])
    integ = np.linalg.solve(colloc.T, moments.T).T
    return x, w, integ


_PNODES, _PWEIGHTS, _PINTEG = _gauss_collocation(8)

# Quadrature panels never exceed this length; the Duhamel fixed point still
# spans the whole subinterval, only the integral is composite.  One panel
# resolves at most ~1 radian of dispersive phase, which keeps the 8-node
# rule at spectral accuracy even for the long subintervals the contraction
# theory allows at small data.
_PICARD_PANEL_MAX = 1.0


def _picard_subinterval(
    ops: _VecOps, y0: np.ndarray, h: float, tol: float, max_iter: int, t0: float
) -> tuple[np.ndarray, list[float]]:
    """Solve the Duhamel equation on [t0, t0+h] by fixed-point iteration.

    u(t) = e^{tL}(u0 + int_0^t e^{-sL} Q(u(s)) ds) with L the free rotation
    and Q the quadratic term.  The integral uses composite 8-node
    Gauss-Legendre collocation (panels of length <= _PICARD_PANEL_MAX);
    iterates are represented by their values at all panel nodes, one row
    per node.  Returns the endpoint vector and the successive-iterate X^0
    differences.
    """
    n_panels = max(1, math.ceil(abs(h) / _PICARD_PANEL_MAX))
    ph = h / n_panels
    # Node times, panel by panel: tau[p, j] = p*ph + ph*x_j, one per row.
    tau = (ph * np.arange(n_panels)[:, None] + ph * _PNODES[None, :]).reshape(-1, 1)
    n_nodes = len(tau)
    ys = ops.free(y0, tau)
    diffs: list[float] = []
    grew = 0

    def duhamel(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = ops.free(ops.nonlinear(values), -tau).reshape(n_panels, len(_PNODES), -1)
        panel_full = ph * np.einsum("j,pjd->pd", _PWEIGHTS, v)
        prefix = np.concatenate([np.zeros((1, v.shape[-1])), np.cumsum(panel_full, axis=0)])
        node_part = ph * np.einsum("ij,pjd->pid", _PINTEG, v)
        integrals = (prefix[:-1, None, :] + node_part).reshape(n_nodes, -1)
        return integrals, prefix[-1]

    for _ in range(max_iter):
        integrals, _total = duhamel(ys)
        ys_new = ops.free(y0 + integrals, tau)
        diff = float(np.max(ops.l2(ys_new - ys)))
        if diffs and diff >= diffs[-1] and diff > tol:
            grew += 1
            if grew >= 2 or not math.isfinite(diff):
                raise FlowError(
                    f"picard iteration not contracting on subinterval "
                    f"[{t0:.6g}, {t0 + h:.6g}] (diffs {diffs[-1]:.3e} -> {diff:.3e})"
                )
        else:
            grew = 0
        diffs.append(diff)
        ys = ys_new
        if diff < tol:
            break
    else:
        raise FlowError(
            f"picard iteration did not reach tol {tol:.3e} within {max_iter} sweeps "
            f"on subinterval [{t0:.6g}, {t0 + h:.6g}]"
        )
    _integrals, total = duhamel(ys)
    y_end = ops.free(y0 + total, h)
    return y_end, diffs


def _advance(ops: _VecOps, y: np.ndarray, t_span: float, cfg: FlowConfig, trace_every: int = 0,
             record=None) -> tuple[np.ndarray, int, list]:
    """The one stepping loop: flow the rows of y over [0, t_span].

    y is a (batch, 2N) array, or a single (2N,) row, which spares the
    batch axis's per-call overhead on long serial flows; Picard takes only
    the single row.  Takes ceil(|t_span| / dt) equal steps.  Every
    trace_every steps, and after the last, calls record(t, y).  Raises
    FlowError naming the step and time (and the row, for a batch) as soon
    as a row turns non-finite.  Returns the final rows, the step count and
    the Picard X^0 differences per subinterval.
    """
    n_steps = max(1, math.ceil(abs(t_span) / cfg.dt))
    dt = t_span / n_steps
    picard_diffs = []
    # A row that overflows is reported below as a FlowError; numpy's own
    # RuntimeWarning would only repeat it.  One guard per call, not per step.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if cfg.integrator == "rk4":
                y = rk4_step(ops.rhs, y, dt)
            elif cfg.integrator == "implicit_midpoint":
                y = _midpoint_step(ops, y, dt, cfg.midpoint_tol, i + 1)
            else:
                y, diffs = _picard_subinterval(ops, y, dt, cfg.picard_tol, cfg.picard_max_iter, i * dt)
                picard_diffs.append(tuple(diffs))
            if not np.isfinite(y).all():
                where = ""
                if y.ndim > 1:
                    where = f" in row {int(np.flatnonzero(~np.isfinite(y).all(axis=-1))[0])}"
                raise FlowError(
                    f"state became non-finite{where} at step {i + 1} of {n_steps} "
                    f"(t = {(i + 1) * dt:.6g})"
                )
            if trace_every and ((i + 1) % trace_every == 0 or i + 1 == n_steps):
                record((i + 1) * dt, y)
    return y, n_steps, picard_diffs


def integrate(state: TrigState, t_span: float, cfg: FlowConfig, trace_every: int = 0) -> FlowResult:
    """Flow the truncated system over [0, t_span] (t_span < 0 runs backwards).

    The step count is ceil(|t_span| / dt) with the actual step shrunk to land
    exactly on the horizon.  With trace_every = k > 0 the invariants
    (I1, I2, H) are recorded every k steps plus at both endpoints.  Raises
    FlowError when the solver fails or the state turns non-finite.
    """
    state = _padded(state, cfg, "integrate")
    if t_span == 0.0:
        tr = ((0.0,) + invariants_of(state),) if trace_every else ()
        return FlowResult(final=state, trace=tuple(tr), steps=0)

    ops = _VecOps.of(cfg)
    trace = [(0.0,) + invariants_of(state)] if trace_every else []

    def record(t: float, row: np.ndarray) -> None:
        trace.append((t,) + invariants_of(ops.unpack(row)))

    y, n_steps, picard_diffs = _advance(ops, ops.pack(state), t_span, cfg, trace_every, record)
    return FlowResult(
        final=ops.unpack(y),
        trace=tuple(trace),
        steps=n_steps,
        picard_diffs=tuple(picard_diffs),
    )


def integrate_batch(states, t_span: float, cfg: FlowConfig) -> tuple[TrigState, ...]:
    """Flow independent states over [0, t_span] as one (batch, 2N) array.

    Entry i of the result is integrate(states[i], t_span, cfg).final: bit for
    bit under rk4, and to solver tolerance under implicit_midpoint, where
    each row iterates until its own residual meets midpoint_tol.  The
    Picard integrator solves one state at a time, so its states are flowed
    in turn.
    """
    states = [_padded(u, cfg, "integrate_batch") for u in states]
    if cfg.integrator == "picard":
        return tuple(integrate(u, t_span, cfg).final for u in states)
    if not states or t_span == 0.0:
        return tuple(states)
    ops = _VecOps.of(cfg)
    y, _, _ = _advance(ops, np.array([ops.pack(u) for u in states]), t_span, cfg)
    return tuple(ops.unpack(row) for row in y)


def invariants_of(state: TrigState) -> tuple[float, float, float]:
    """The conserved quantities (I1, I2, H).

    I1 = int u, I2 = int (u^2 + u_x^2), H = int (u^2/2 + u^3/6); the cubic
    term uses exact quadrature on a 4N-point grid (alias-free for mode 0 of
    a degree-3N integrand).
    """
    k = wavenumbers(state.n_modes)
    power = state.a ** 2 + state.b ** 2
    i1 = 2.0 * math.pi * state.mean
    i2 = math.pi * float(np.sum((1.0 + k * k) * power)) + 2.0 * math.pi * state.mean ** 2
    quad = math.pi * float(np.sum(power)) + 2.0 * math.pi * state.mean ** 2
    vals = synthesize(state, 4 * state.n_modes).values
    cubic = 2.0 * math.pi * float(np.mean(vals ** 3))
    return i1, i2, 0.5 * quad + cubic / 6.0


def nonlinear_part(u0: TrigState, t_span: float, cfg: FlowConfig) -> TrigState:
    """Deviation of the flow from the free rotation in interaction coordinates.

    Returns e^{-t L} Phi_t(u0) - u0, where L is the free rotation generator.
    Zero is a fixed point; the result is one derivative smoother than u0.
    """
    require_mean_zero(u0, "nonlinear_part")
    if t_span == 0.0:
        return TrigState.zero(max(u0.n_modes, cfg.N))
    final = integrate(u0, t_span, cfg).final
    return free_evolution(final, -t_span) - u0.padded(cfg.N)


def galerkin_defect(u0: TrigState, t_span: float, n_small: int, cfg_ref: FlowConfig) -> float:
    """Z distance between the reference nonlinear part and its n_small truncation.

    The truncated system keeps only modes <= n_small of both the data and
    the quadratic term; the reference truncation plays the role of the full
    flow.  Identical truncations give 0.
    """
    if n_small > cfg_ref.N:
        raise ValueError(f"n_small = {n_small} exceeds reference truncation {cfg_ref.N}")
    full = nonlinear_part(u0, t_span, cfg_ref)
    cfg_small = replace(cfg_ref, N=n_small)
    u0_small = truncate(project(u0, n_small), n_small)
    small = nonlinear_part(u0_small, t_span, cfg_small)
    return z_norm(full - small)
