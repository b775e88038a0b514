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

All three share one stepping loop over half-spectrum rows c_k = a_k - i b_k
in pocketfft's padded layout: the m_pad // 2 + 1 bins of a length-m_pad real
FFT, exactly 0 at bin 0 and above N.  A row enters that layout when a flow
starts and leaves it at the end and at each trace point.  A flow binds its
kernels (``_VecOps.bind``) to its row shape once, the implicit midpoint again
when its set of unconverged rows shrinks, and a step is their ufunc calls.
The product calls pocketfft's FFT ufuncs (spectral.IRFFT, RFFT) on the row
itself: the inverse at scale 0.5, the grid product, the forward transform at
scale 1/m (2/m for the adjoint's u v).  The rhs is L P(c), P(c) = c + u^2/2 and
L = -i phi, 0 outside 1..N, so its multiply projects P back.  rk4 folds L into
per-flow tables: a step is 8 FFTs and 20 elementwise calls, its transpose 8 and
21, a linear_only step one multiply by R(dt L).  Fixed scalars are 0-d arrays
and per-N symbols read-only tables, built once.  A flow takes at most MAX_STEPS
steps, none over a zero horizon, in place.
``integrate`` runs that loop on the (N,) row of one ``TrigState``, and
``integrate_batch`` on a (batch, N) row array (each implicit-midpoint row
iterates to its own tolerance; Picard flows row by row), as the witness
search and the flow Jacobian do.  ``interaction_samples`` samples
e^{-tL}Phi_t(c) - c along one such flow, for ``nonlinear_part`` and the
smoothing ratio.  A row that turns non-finite stops the loop with a
``FlowError``.

``integrate_taped`` runs the loop with a tape, into which the product
kernel's inverse FFT writes the grid values of each rk4 stage input (or of
each converged implicit midpoint), and ``adjoint_batch`` runs the discrete
adjoint of the step map backwards over it: one reverse pass pulls a
cotangent at the horizon back to the initial rows, which is how the witness
search takes its gradients.  The implicit midpoint's transpose is the same
implicit solve with the adjoint right-hand side: one fixed-point solver.

Sign conventions are pinned operationally: the time derivative of the free
evolution at t = 0 equals the linear part of ``rhs``, and
rhs(cos x) = (1/2) sin x + (1/10) sin 2x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from types import SimpleNamespace

import numpy as np

from .spectral import (
    FFT_AXES,
    IRFFT,
    MAX_MODES,
    RFFT,
    TrigState,
    dispersion_symbol,
    require_mean_zero,
    smooth_grid_size,
    sobolev_norms,
    synthesize,
    wavenumbers,
    z_norm,
)

_INTEGRATORS = ("rk4", "implicit_midpoint", "picard")
_MIDPOINT_MAX_ITER = 100
_HALF = np.array(0.5, complex)  # the midpoint's (y + z)/2; .real scales a row to grid values
# The successive-iterate X^0 difference at which a Picard subinterval has converged.
_PICARD_TOL = 1e-12

# Quadrature panels never exceed this length; the Duhamel fixed point still
# spans the whole subinterval, only the integral is composite.  One panel
# resolves at most ~1 radian of dispersive phase, which keeps the 8-node
# rule at spectral accuracy even for the long subintervals the contraction
# theory allows at small data.
_PICARD_PANEL_MAX = 1.0
# Most panels one Picard subinterval may take, about 100 times the longest subinterval the
# shipped contraction checks use: a picard dt of 1e300 is rejected by name instead of asking for
# 8 node rows per panel.
MAX_PICARD_PANELS = 1000

# Most steps one flow may take, about 770 times the longest shipped flow (criterion 10's rk4
# references, about 13,000 steps): a dt far below the horizon, such as 1e-300, is rejected by
# name instead of stepping for ever.
MAX_STEPS = 10 ** 7


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
    (diagnostic): a step is then the integrator's map of u_t = L u, for rk4 the
    multiply by R(dt L), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, not the rotation.
    """

    N: int
    dt: float
    integrator: str = "rk4"
    picard_max_iter: int = 60
    midpoint_tol: float = 1e-12
    linear_only: bool = False

    def __post_init__(self):
        for name in ("dt", "midpoint_tol"):
            require_finite(name, getattr(self, name))
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.N > MAX_MODES:
            raise ValueError(f"N must be <= {MAX_MODES} (spectral.MAX_MODES), got {self.N}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}")
        if not 0 < self.midpoint_tol <= 1e-6:
            raise ValueError("midpoint_tol must lie in (0, 1e-6]")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be >= 1")
        if self.integrator == "picard" and not self.dt <= MAX_PICARD_PANELS * _PICARD_PANEL_MAX:
            raise ValueError(
                f"dt = {self.dt!r} makes Picard subintervals of up to "
                f"{math.ceil(self.dt / _PICARD_PANEL_MAX):.4g} quadrature panels, "
                f"more than flow.MAX_PICARD_PANELS = {MAX_PICARD_PANELS}"
            )


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


@functools.cache
def _tables(n: int) -> tuple:
    """_VecOps's read-only tables at N = n, built on first use and shared by every flow."""
    m, k = smooth_grid_size(3 * n + 1), wavenumbers(n)
    phi, zw, mask = np.zeros((3, m // 2 + 1))
    phi[1:n + 1], zw[1:n + 1], mask[1:n + 1] = dispersion_symbol(k), math.pi * (1 + k * k) / k, 1
    gen, dual, mask = -1j * phi, 1j * phi, mask + 0j  # the linear rhs -i phi c, its transpose
    one, two = np.array(1.0 / m), np.array(2.0 / m)
    for table in (phi, zw, gen, dual, mask, one, two):
        table.flags.writeable = False
    return m, phi, zw, gen, dual, mask, (RFFT[m % 2], one, two)


class _VecOps:
    """Workspace and spectral kernels for flow rows in the padded half-spectrum layout.

    A flow row holds the m_pad // 2 + 1 bins of pocketfft's real FFT of length m_pad: bin k =
    1..N holds c_k = a_k - i b_k, and bin 0 and every bin above N hold exactly 0.  ``pad`` puts
    (..., N) rows into that layout and ``rows[..., modes]`` reads them back.  Every operation acts
    row by row on the last axis, so a (batch, bins) array flows a batch of independent states and
    a 1-D row is the batch-free case.

    The grid has m_pad >= 3N+1 points, which keeps u^2 alias-free on modes 1..N (an even m_pad
    is fine: its Nyquist bin lies above every kept mode).  m_pad is rounded up to a 5-smooth
    length because 3N+1 is often prime (97 at N = 32, 193 at N = 64), and pocketfft transforms
    prime lengths several times slower.  The inverse FFT at scale 0.5 gives a row's grid values
    v, the forward FFT at scale 1/m the row of v^2/2 and at 2/m the row of u v.  Those scales
    are np.fft's norm="forward" ones times 0.5, 1 and 2, and pocketfft applies each as one final
    multiply, so the kernel is exact against np.fft at its own scalings.  phi, gen, dual, zw and
    mask are 0 at bin 0 and above N, so multiplying by them projects a product onto 1..N.
    ``bind`` hands out the kernels, once per row shape.
    """

    def __init__(self, n: int, linear_only: bool = False):
        self.n, self.modes, self.linear_only = n, slice(1, n + 1), linear_only
        self.m_pad, self.phi, self.zw, self.gen, self.dual, self.mask, self._fft = _tables(n)
        self._rows, self._tiled = np.empty((0, self.m_pad)), None  # the workspace, by row capacity

    @classmethod
    def of(cls, cfg: FlowConfig) -> "_VecOps":
        return cls(cfg.N, cfg.linear_only)

    def pad(self, c: np.ndarray, dtype=complex) -> np.ndarray:
        """A new array holding the rows c, shape (..., N), in the padded layout."""
        y = np.zeros(c.shape[:-1] + (self.m_pad // 2 + 1,), dtype)
        y[..., self.modes] = c
        return y

    def bind(self, lead: tuple = ()) -> SimpleNamespace:
        """The kernels of rows of shape lead + (bins,), each its ufunc calls writing into out.

        square_half(c, out): the padded spectrum of v^2/2, v the grid values of c (the rest of the
        product in bins 0 and above N); product(c, u, out): that of u v, u grid rows; nonlinear(c,
        out): -dx (1-dxx)^{-1} (u^2/2); flux(c, out): P(c) = c + the row of v^2/2 (not 0 outside
        1..N); rhs(c, out): the right-hand side L P(c); taped(slots): flux writing v into
        next(slots), a tape's rows; rhs_adjoint(lam, u, out): the transpose of the rhs's derivative
        at grid rows u, lam -> mu + P_N(u w) with mu = i phi lam and w its grid values, in the
        pairing Re sum conj(lam_k) d_k; znorm(d): the Z norm of each row, squaring d in place; gen,
        dual, mask: L, its transpose i phi and 1 on 1..N; bind: this method.  out overlaps no input.
        The grid workspace and the symbols tiled to a batch (numpy's contiguous loops, bit for bit)
        grow with row capacity, and a smaller batch takes their leading rows.
        """
        rows, shape = math.prod(lead), lead + (self.m_pad // 2 + 1,)
        if len(self._rows) < rows:
            self._rows, self._tiled = np.empty((rows, self.m_pad)), None
        symbols = (self.gen, self.dual, self.mask, self.zw)
        if lead and self._tiled is None:  # row 0 of each table, taken once per row of capacity
            self._tiled = [t[None].take(np.zeros(len(self._rows), int), axis=0) for t in symbols]
        gen, dual, mask, zw = [t[:rows].reshape(shape) for t in self._tiled] if lead else symbols
        grid = self._rows[:rows].reshape(lead + (self.m_pad,))
        squares, tmp = np.empty(shape), np.empty(shape, complex)  # znorm's and rhs_adjoint's
        irfft, half, axes, (rfft, one, two) = IRFFT, _HALF.real, FFT_AXES, self._fft
        add, multiply, reduce, sqrt = np.add, np.multiply, np.add.reduce, np.sqrt

        def square_half(c, out):
            v = irfft(c, half, axes=axes, out=grid)
            return rfft(multiply(v, v, out=grid), one, axes=axes, out=out)

        def nonlinear(c, out):
            return multiply(gen, square_half(c, out), out=out)

        def taped(slots):
            def flux(c, out):
                v = irfft(c, half, axes=axes, out=next(slots))
                rfft(multiply(v, v, out=grid), one, axes=axes, out=out)
                return add(c, out, out=out)
            return flux

        def product(c, u, out):
            w = irfft(c, half, axes=axes, out=grid)
            return rfft(multiply(u, w, out=grid), two, axes=axes, out=out)

        def rhs_adjoint(lam, u, out):
            mu = multiply(dual, lam, out=out)
            return add(mu, multiply(mask, product(mu, u, tmp), out=tmp), out=out)

        def znorm(d):
            parts = d.view(float)
            multiply(parts, parts, out=parts)
            add(d.real, d.imag, out=squares)
            return sqrt(reduce(multiply(zw, squares, out=squares), axis=-1))

        flux = taped(repeat(grid))

        def rhs(c, out):
            return multiply(gen, flux(c, out), out=out)

        if self.linear_only:  # no product, and no tape to write; rk4 steps by R(dt L) alone
            def nonlinear(c, out):
                out[...] = 0.0
                return out

            def rhs_adjoint(lam, u, out):
                return multiply(dual, lam, out=out)
            rhs = functools.partial(multiply, gen)
        return SimpleNamespace(square_half=square_half, product=product, nonlinear=nonlinear,
                               flux=flux, rhs=rhs, taped=taped, rhs_adjoint=rhs_adjoint,
                               znorm=znorm, gen=gen, dual=dual, mask=mask, bind=self.bind)

    def free(self, c: np.ndarray, t, out=None) -> np.ndarray:
        """Free rotation by t, into out (not overlapping c) if given.

        An array t of shape (..., 1) gives each row its own time; rotation(t) may stand for t.
        """
        cos, sin = t if isinstance(t, tuple) else self.rotation(t)
        out = np.empty(np.broadcast_shapes(c.shape, cos.shape), complex) if out is None else out
        # c e^{-i th} part by part: a complex product may fuse multiply-adds.
        out.real = c.real * cos + c.imag * sin
        out.imag = c.imag * cos - c.real * sin
        return out

    def rotation(self, t) -> tuple:
        """The tables cos(t phi), sin(t phi) that free rotates by, to reuse for one t."""
        th = t * self.phi
        return np.cos(th), np.sin(th)


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
    ops = _VecOps.of(cfg)
    c = ops.pad(_padded(state, cfg, "rhs").row)
    return TrigState.from_row(ops.bind().rhs(c, np.empty_like(c))[ops.modes])


def free_evolution(state: TrigState, t: float) -> TrigState:
    """Linear BBM group: rotate each pair by theta_k = t phi(k).

    a_k(t) = a_k cos - b_k sin, b_k(t) = a_k sin + b_k cos; every H^s norm
    is preserved exactly, and d/dt at t = 0 matches the linear part of rhs.
    """
    require_mean_zero(state, "free_evolution")
    ops = _VecOps(state.n_modes)
    return TrigState.from_row(ops.free(ops.pad(state.row), t)[ops.modes])


def rk4_coefficients(dt: float, symbol, linear: bool = False) -> tuple:
    """rk4_step's tables for y' = L p(y), L = symbol (an array, or a scalar such as 1.0): (dt/2
    L, dt L, dt/6 L, dt/3 L), built once per flow in the shape of L and as arrays (0-d for a
    scalar).  With linear (p the identity, y' = L y) the one table R(dt L), R(z) = 1 + z + z^2/2
    + z^3/6 + z^4/24 the rk4 amplification polynomial, by Horner's rule.
    """
    if linear:
        z = dt * np.asarray(symbol)
        return (1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0)))),)
    return tuple(np.asarray(s * np.asarray(symbol)) for s in (0.5 * dt, dt, dt / 6.0, dt / 3.0))


def rk4_step(p, y: np.ndarray, coef: tuple, work: np.ndarray) -> None:
    """One classical fourth-order Runge-Kutta step of y' = L p(y), taken in place on y.

    p(x, out) writes p(x) into out; coef = rk4_coefficients(dt, L); work, of shape (5,
    *y.shape), holds the four p values and the stage input y + (a L) p (L projects p).  A
    linear coef, (R(dt L),), makes the step one multiply, without p.
    """
    if len(coef) == 1:
        np.multiply(coef[0], y, out=y)
        return
    half, whole, sixth, third = coef
    p1, p2, p3, p4, x = work
    add, multiply = np.add, np.multiply
    p(y, p1)
    p(add(y, multiply(half, p1, out=x), out=x), p2)
    p(add(y, multiply(half, p2, out=x), out=x), p3)
    p(add(y, multiply(whole, p3, out=x), out=x), p4)
    multiply(sixth, add(p1, p4, out=p1), out=p1)
    add(y, add(p1, multiply(third, add(p2, p3, out=p2), out=p2), out=p1), out=y)


def _midpoint_solve(kernels, g_of, y: np.ndarray, dt, tol, work: np.ndarray) -> tuple:
    """Solve z = y + dt g((y + z)/2) row by row by fixed-point iteration from Euler's guess.

    The one implicit-midpoint solver, of the step (g the rhs) and of its transpose (the adjoint
    rhs); dt is a 0-d complex array.  g_of(kernels, rows) is g(x, out) for x standing for the
    rows `rows` of y, on kernels bound to them.  A row stops once the Z norm of its change is at
    most tol (a number, or one per row) or is not finite.  All rows iterate on y itself until
    one stops; then the moving ones are gathered into leading rows of work, (5, *y.shape), and
    the kernels rebound.  Returns z, in work[0], and the indices and last changes of the rows
    still moving after _MIDPOINT_MAX_ITER; the callers discard those rows of z.
    """
    z, ya, za, mid, f = work
    g, znorm = g_of(kernels, slice(None)), kernels.znorm
    np.add(y, np.multiply(dt, g(y, f), out=z), out=z)
    active, y_k, z_k, f_k, mid_k, tol_k = np.arange(len(y)), y, z, f, mid, tol
    for _ in range(_MIDPOINT_MAX_ITER):
        np.multiply(_HALF, np.add(y_k, z_k, out=mid_k), out=mid_k)
        np.add(y_k, np.multiply(dt, g(mid_k, f_k), out=f_k), out=f_k)
        delta = znorm(np.subtract(f_k, z_k, out=mid_k))
        z_k, f_k = f_k, z_k
        moving = delta > tol_k
        if moving.all() and moving.size:
            continue
        z[active] = z_k
        active = active[moving]
        if not active.size:
            break
        kernels = kernels.bind((active.size,))
        g, znorm = g_of(kernels, active), kernels.znorm
        y_k = np.take(y, active, axis=0, out=ya[:active.size])
        z_k = np.take(z, active, axis=0, out=za[:active.size])
        f_k, mid_k = f[:active.size], mid[:active.size]
        tol_k = tol[active] if isinstance(tol, np.ndarray) else tol
    return z, active, delta[moving]


def _midpoint_step(kernels, y: np.ndarray, dt: np.ndarray, tol: float, step_no: int,
                   work: np.ndarray, tape=None) -> None:
    """One implicit-midpoint step of 0-d complex length dt, in place on the (rows, bins) y.

    kernels are bound to y's rows, and work is _midpoint_solve's.  A stalled solve raises
    FlowError.  Given tape, a (rows, m_pad) array, the midpoints' grid values go into it.
    """
    z, stalled, residual = _midpoint_solve(kernels, lambda k, rows: k.rhs, y, dt, tol, work)
    if stalled.size:
        raise FlowError(
            f"implicit midpoint solver stalled at step {step_no}: "
            f"residual {float(np.max(residual)):.3e} > tol {tol:.3e}"
        )
    if tape is not None:
        mid = np.multiply(_HALF, np.add(y, z, out=work[3]), out=work[3])
        IRFFT(mid, _HALF.real, axes=FFT_AXES, out=tape)
    np.copyto(y, z)


@functools.cache
def _gauss_collocation(n_nodes: int = 8):
    """Nodes/weights on [0,1] plus the interpolatory integration matrix.

    integ[j] @ f(nodes) integrates the degree n_nodes-1 interpolant of f
    from 0 to node j; built in the Legendre basis (for conditioning) on first use.
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


def _picard_subinterval(
    ops: _VecOps, y0: np.ndarray, h: float, tol: float, max_iter: int, t0: float
) -> tuple[np.ndarray, list[float]]:
    """Solve the Duhamel equation on [t0, t0+h] by fixed-point iteration.

    u(t) = e^{tL}(u0 + int_0^t e^{-sL} Q(u(s)) ds) with L the free rotation and Q the quadratic
    term.  The integral uses composite 8-node Gauss-Legendre collocation (panels of length <=
    _PICARD_PANEL_MAX); iterates are represented by their values at all panel nodes, one row per
    node, rotated by tables built once for the node times tau and -tau.  Returns the endpoint
    vector and the successive-iterate X^0 differences.
    """
    nodes, weights, integ = _gauss_collocation()
    n_panels = max(1, math.ceil(abs(h) / _PICARD_PANEL_MAX))
    ph = h / n_panels
    # Node times, panel by panel: tau[p, j] = p*ph + ph*x_j, one per row.
    tau = (ph * np.arange(n_panels)[:, None] + ph * nodes[None, :]).reshape(-1, 1)
    ys, ys_new, quad, rot = np.empty((4, len(tau), y0.shape[-1]), complex)  # iterates swap buffers
    forward, back = ops.rotation(tau), ops.rotation(-tau)
    nonlinear = ops.bind((len(tau),)).nonlinear
    ops.free(y0, forward, ys)
    diffs: list[float] = []
    grew = 0

    def duhamel(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = ops.free(nonlinear(values, quad), back, rot).reshape(n_panels, len(nodes), -1)
        panel_full = ph * np.einsum("j,pjd->pd", weights, v)
        prefix = np.concatenate([np.zeros((1, v.shape[-1])), np.cumsum(panel_full, axis=0)])
        node_part = ph * np.einsum("ij,pjd->pid", integ, v)
        integrals = (prefix[:-1, None, :] + node_part).reshape(len(tau), -1)
        return integrals, prefix[-1]

    for _ in range(max_iter):
        integrals, _total = duhamel(ys)
        ops.free(y0 + integrals, forward, ys_new)
        diff = float(np.max(sobolev_norms(0.0, (ys_new - ys)[:, ops.modes], 0.0)))
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
        ys, ys_new = ys_new, ys
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


def _step_count(t_span: float, dt: float, name: str = "dt") -> int:
    """ceil(|t_span| / dt), 0 for a zero horizon; a non-finite T or over MAX_STEPS: ValueError."""
    require_finite("T", t_span)
    steps = abs(t_span) / dt
    if not steps <= MAX_STEPS:
        raise ValueError(
            f"{name} = {dt!r} over T = {t_span!r} needs {steps:.3g} steps, "
            f"more than flow.MAX_STEPS = {MAX_STEPS}"
        )
    return math.ceil(steps)


def _advance(ops: _VecOps, y: np.ndarray, t_span: float, cfg: FlowConfig, trace_every: int = 0,
             record=None, tape=None) -> tuple[np.ndarray, int, list]:
    """The one stepping loop: flow the rows of y over [0, t_span].

    y is a (batch, N) array, or a single (N,) row, which spares the batch axis's per-call
    overhead on long serial flows; Picard takes only the single row.  The rows enter ops's padded
    layout here and leave it on return and in record.  Takes ceil(|t_span| / dt) equal steps, none
    for a zero horizon.  Every trace_every steps, and after the last, calls record(t, y).  Step i
    records into tape[:, i], if given, the grid values of its rk4 stage inputs or midpoints.
    Raises FlowError naming the step and time (and the row, for a batch) as soon as a row turns
    non-finite.  Returns the final rows, the step count and the Picard X^0 differences per
    subinterval.  More than MAX_STEPS steps are refused with a ValueError, before anything is
    allocated.
    """
    n_steps = _step_count(t_span, cfg.dt)
    dt = t_span / max(n_steps, 1)
    picard_diffs = []
    y = ops.pad(y)
    if cfg.integrator != "picard":  # which binds its own node rows
        # rk4 and the midpoint step the padded copy in place, in one set of five work rows.
        work, step = np.empty((5,) + y.shape, complex), np.array(dt, complex)
        y2, work2 = y.reshape(-1, y.shape[-1]), work.reshape(5, -1, y.shape[-1])  # the midpoint's
        kernels = ops.bind(y2.shape[:-1] if cfg.integrator == "implicit_midpoint" else y.shape[:-1])
        if cfg.integrator == "rk4":
            coef = rk4_coefficients(dt, kernels.gen, cfg.linear_only)
        # rk4's P, writing the tape's rows in the order the stages are taken, step by step.
        f = kernels.flux if tape is None else kernels.taped(chain.from_iterable(
            tape.transpose(1, 2, 0, 3)))
    # A row that overflows is reported below as a FlowError; numpy's own
    # RuntimeWarning would only repeat it.  One guard per call, not per step.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            if cfg.integrator == "rk4":
                rk4_step(f, y, coef, work)
            elif cfg.integrator == "implicit_midpoint":
                _midpoint_step(kernels, y2, step, cfg.midpoint_tol, i + 1, work2,
                               None if tape is None else tape[:, i, 0])
            else:
                y, diffs = _picard_subinterval(ops, y, dt, _PICARD_TOL, cfg.picard_max_iter, i * dt)
                picard_diffs.append(tuple(diffs))
            # A finite sum of squared moduli proves every entry finite; only one that is not
            # (an entry past 1e154, or not finite) needs the exact test.
            if not math.isfinite(np.vdot(y, y).real) and not np.isfinite(y).all():
                where = ""
                if y.ndim > 1:
                    where = f" in row {int(np.flatnonzero(~np.isfinite(y).all(axis=-1))[0])}"
                raise FlowError(
                    f"state became non-finite{where} at step {i + 1} of {n_steps} "
                    f"(t = {(i + 1) * dt:.6g})"
                )
            if trace_every and ((i + 1) % trace_every == 0 or i + 1 == n_steps):
                record((i + 1) * dt, y[..., ops.modes])
    return y[..., ops.modes].copy(), n_steps, picard_diffs


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
        trace.append((t,) + invariants_of(TrigState.from_row(row)))

    y, n_steps, picard_diffs = _advance(ops, state.row, t_span, cfg, trace_every, record)
    return FlowResult(
        final=TrigState.from_row(y),
        trace=tuple(trace),
        steps=n_steps,
        picard_diffs=tuple(picard_diffs),
    )


def _check_rows(c: np.ndarray, cfg: FlowConfig, op: str = "integrate_batch") -> None:
    if c.ndim != 2 or c.shape[1] != cfg.N:
        raise ValueError(f"{op} needs rows of shape (batch, {cfg.N}), got {c.shape}")


def integrate_batch(c: np.ndarray, t_span: float, cfg: FlowConfig) -> np.ndarray:
    """Flow the independent coefficient rows c, shape (batch, cfg.N), over [0, t_span].

    Row i of the result is integrate(TrigState.from_row(c[i]), t_span,
    cfg).final as a row, bit for bit: each implicit-midpoint row iterates
    until its own residual meets midpoint_tol; Picard solves row by row.
    """
    _check_rows(c, cfg)
    return _flow_rows(_VecOps.of(cfg), c, t_span, cfg)


def _flow_rows(ops: _VecOps, c: np.ndarray, t_span: float, cfg: FlowConfig) -> np.ndarray:
    """integrate_batch's rows, on ops."""
    if not len(c):
        return c.copy()
    if cfg.integrator == "picard":
        return np.array([_advance(ops, row, t_span, cfg)[0] for row in c])
    return _advance(ops, c, t_span, cfg)[0]


def interaction_samples(c: np.ndarray, t_span: float, n_times: int, cfg: FlowConfig) -> np.ndarray:
    """e^{-t_i L} Phi_{t_i}(c) - c, shape (n_times, batch, N), at t_i = i t_span / n_times, i >= 1.

    Segment i flows segment i - 1's endpoint rows as integrate_batch(rows, t_span / n_times, cfg)
    does, on one workspace for the whole pass, and one rotation takes them back by t_i.
    """
    _check_rows(c, cfg, "interaction_samples")
    if n_times < 1:
        raise ValueError(f"interaction_samples needs n_times >= 1, got {n_times}")
    ops, seg = _VecOps.of(cfg), t_span / n_times
    samples, y = np.empty((n_times,) + c.shape, complex), c
    for i in range(1, n_times + 1):
        y = _flow_rows(ops, y, seg, cfg)
        np.subtract(ops.free(ops.pad(y), -i * seg)[..., ops.modes], c, out=samples[i - 1])
    return samples


def tape_shape(t_span: float, cfg: FlowConfig) -> tuple[int, int, int]:
    """Shape (steps, stages, m_pad) of one row's tape over [0, t_span]; see integrate_taped.

    rk4 records 4 stages a step, the implicit midpoint 1; a linear_only flow records nothing, so
    its m_pad axis is empty.  Raises ValueError for Picard, which has no adjoint, and for more
    than MAX_STEPS steps.
    """
    if cfg.integrator == "picard":
        raise ValueError("integrator = 'picard' has no adjoint: taped flows take rk4 or "
                         "implicit_midpoint")
    stages = 4 if cfg.integrator == "rk4" else 1
    return _step_count(t_span, cfg.dt), stages, 0 if cfg.linear_only else _tables(cfg.N)[0]


def integrate_taped(c: np.ndarray, t_span: float, cfg: FlowConfig) -> tuple[np.ndarray, np.ndarray]:
    """integrate_batch's final rows, bit for bit, and the tape adjoint_batch reads.

    The tape, of shape (batch, *tape_shape(t_span, cfg)), holds per row and
    step the padded-grid values of each rk4 stage input, written there by
    the product kernel's inverse FFT, or of the implicit midpoint's
    converged midpoint (y + z)/2.
    """
    _check_rows(c, cfg, "integrate_taped")
    tape = np.empty((len(c),) + tape_shape(t_span, cfg))
    # A linear_only flow has no products to record.
    return _advance(_VecOps.of(cfg), c, t_span, cfg, tape=tape if tape.size else None)[0], tape


def _rk4_adjoint_step(kernels, u: np.ndarray, lam: np.ndarray, coef: tuple,
                      work: np.ndarray) -> None:
    """The transpose of one rk4_step, in place on the cotangent rows lam.

    u, of shape (rows, 4, m_pad), holds the grid values of the step's four stage inputs; coef
    is rk4_coefficients(dt, L^T), L^T = i phi; work, of shape (6, *lam.shape), the stage
    cotangents and temporaries; kernels are bound to lam's rows.  Stage s's cotangent is l_s =
    mu_s + (the row of u_s w, w the grid values of mu_s), for mu4 = (dt/6 L^T) lam, mu3 = (dt/3
    L^T) lam + (dt L^T) l4, mu2 = (dt/3 L^T) lam + (dt/2 L^T) l3 and mu1 = (dt/6 L^T) lam + (dt/2
    L^T) l2; lam gains the mask times their sum (L^T projects each mu).  A linear coef
    multiplies lam by R(dt L^T).
    """
    if len(coef) == 1:
        np.multiply(coef[0], lam, out=lam)
        return
    half, whole, sixth, third = coef
    l2, l3, l4, a, b, mu = work
    add, multiply, product = np.add, np.multiply, kernels.product
    multiply(sixth, lam, out=a)
    multiply(third, lam, out=b)
    add(a, product(a, u[:, 3], l4), out=l4)
    # Stage s's cotangent from lam's share and stage s + 1's, written into out; l1 goes into a.
    for s, share, step, later, out in ((2, b, whole, l4, l3), (1, b, half, l3, l2),
                                       (0, a, half, l2, a)):
        add(share, multiply(step, later, out=mu), out=mu)
        add(mu, product(mu, u[:, s], out), out=out)
    add(a, add(l2, add(l3, l4, out=l4), out=l4), out=l4)
    add(lam, multiply(kernels.mask, l4, out=l4), out=lam)


def _midpoint_adjoint_step(kernels, u: np.ndarray, lam: np.ndarray, dt: np.ndarray,
                           tol: float, work: np.ndarray) -> None:
    """The transpose of one implicit-midpoint step, in place on the cotangent rows lam.

    u, of shape (rows, m_pad), holds the grid values of the converged midpoints.  The step's
    tangent map (I - dt/2 J)^{-1} (I + dt/2 J) has the transpose lam -> nu, nu = lam + dt
    A((lam + nu)/2) with A the adjoint rhs at u: the forward step's equation.  A row iterates
    until its change is at most 2 tol |lam|_Z (a cotangent has no scale of its own); a row that
    stalls is set to nan, which fails its start.  kernels and work as in _rk4_adjoint_step.
    """
    def adjoint_rhs(bound, rows):
        u_k = u[rows]
        return lambda x, out: bound.rhs_adjoint(x, u_k, out)

    nu, stalled, _ = _midpoint_solve(kernels, adjoint_rhs, lam, dt,
                                     2.0 * tol * kernels.znorm(lam.copy()), work[:5])
    nu[stalled] = np.nan
    np.copyto(lam, nu)


def adjoint_batch(tape: np.ndarray, lam: np.ndarray, t_span: float, cfg: FlowConfig) -> np.ndarray:
    """Pull the cotangent rows lam, given at t_span, back to time 0 through a taped flow.

    tape is integrate_taped's over the same t_span and cfg.  Row i of the
    result is the gradient, in the pairing Re sum conj(.) (.) on rows, of
    Re sum conj(lam_i) c_i(t_span) with respect to the initial row c_i: the
    discrete adjoint of the step map, exact up to rounding for rk4 and to
    midpoint_tol for the implicit midpoint.  Every row depends on its own
    tape and cotangent alone, bit for bit; a row that overflows comes back
    non-finite, and the caller decides what that costs.
    """
    ops = _VecOps.of(cfg)
    lam = ops.pad(np.asarray(lam))
    n_steps = tape.shape[1]
    dt = t_span / max(n_steps, 1)
    work, step = np.empty((6,) + lam.shape, complex), np.array(dt, complex)
    kernels = ops.bind(lam.shape[:-1])
    if cfg.integrator == "rk4":
        coef = rk4_coefficients(dt, kernels.dual, cfg.linear_only)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in reversed(range(n_steps)):
            if cfg.integrator == "rk4":
                _rk4_adjoint_step(kernels, tape[:, i], lam, coef, work)
            else:
                _midpoint_adjoint_step(kernels, tape[:, i, 0], lam, step, cfg.midpoint_tol, work)
    return lam[..., ops.modes].copy()


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

    Returns e^{-t L} Phi_t(u0) - u0, L the free rotation generator: interaction_samples
    at one time.  Zero is a fixed point; the result is one derivative smoother than u0.
    """
    c = _padded(u0, cfg, "nonlinear_part").row
    return TrigState.from_row(interaction_samples(c[None], t_span, 1, cfg)[0, 0])


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
    small = nonlinear_part(TrigState(u0.mean, u0.a[:n_small], u0.b[:n_small]), t_span, cfg_small)
    return z_norm(full - small)
