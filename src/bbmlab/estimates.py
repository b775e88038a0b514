"""Empirical constants for the bilinear and smoothing estimates.

None of this proves anything: each routine measures a ratio whose
boundedness the analysis asserts, over deterministic random draws, and
reports the observed supremum together with its behavior under truncation
refinement.  Absence of growth is recorded, not asserted as evidence.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .flow import FlowConfig, FlowError, free_evolution, integrate_batch, rk4_step
from .sampling import sobolev_ball_state, substream
from .spectral import (
    GridSamples,
    SymplecticCoords,
    TrigState,
    analyze,
    dispersion_multiplier,
    from_symplectic,
    require_mean_zero,
    smooth_grid_size,
    sobolev_norm,
    synthesize,
    to_symplectic,
)

DEFAULT_N_SWEEP = (16, 32, 64, 128)


@dataclass(frozen=True)
class EstimateSample:
    """One random draw with its measured ratio."""

    seed: int
    s: float
    r: float
    rprime: float
    ratio: float
    norm_u: float
    norm_v: float

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio >= 0.0):
            raise ValueError(f"ratio must be finite and nonnegative, got {self.ratio}")


@dataclass(frozen=True)
class EstimateReport:
    """Observed supremum of an estimate's ratio over a sample sweep.

    sweep maps truncation N to the argmax EstimateSample.  The `bounded`
    flag records whether the supremum grew by less than 10% between the two
    largest truncations.
    """

    s: float
    r: float
    rprime: float
    mode: str
    n_samples: int
    sampler: str
    sweep: dict = field(default_factory=dict)

    @property
    def max_ratio(self) -> float:
        return self.sweep[max(self.sweep)].ratio

    @property
    def argmax_seed(self) -> int:
        return self.sweep[max(self.sweep)].seed

    @property
    def bounded(self) -> bool:
        ns = sorted(self.sweep)
        if len(ns) < 2:
            return True
        return self.sweep[ns[-1]].ratio < 1.10 * self.sweep[ns[-2]].ratio


def exact_product(u: TrigState, v: TrigState) -> TrigState:
    """Pointwise product as a trig polynomial with all 2N modes kept, alias-free.

    The grid has the smallest 5-smooth length >= 2 n_out + 1 (see
    spectral.smooth_grid_size): 2 n_out + 1 itself is prime at N = 64.
    """
    n_out = u.n_modes + v.n_modes
    m = smooth_grid_size(2 * n_out + 1)
    vals = synthesize(u.padded(n_out), m).values * synthesize(v.padded(n_out), m).values
    return analyze(GridSamples(vals), n_out)


def bilinear_ratio(u: TrigState, v: TrigState, s: float, r: float, rprime: float) -> float:
    """||phi(D)(u v)||_{H^s} / (||u||_{H^r} ||v||_{H^r'}) with the product exact."""
    require_mean_zero(u, "bilinear_ratio")
    require_mean_zero(v, "bilinear_ratio")
    nu = sobolev_norm(u, r)
    nv = sobolev_norm(v, rprime)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("bilinear_ratio requires nonzero inputs")
    return sobolev_norm(dispersion_multiplier(exact_product(u, v)), s) / (nu * nv)


def multiplier_ratio(u: TrigState, v: TrigState, s: float, r: float) -> float:
    """||phi(D)(u v)||_{H^{s+1}} / (||u||_{H^r} ||v||_{H^s}): the one-derivative gain."""
    require_mean_zero(u, "multiplier_ratio")
    require_mean_zero(v, "multiplier_ratio")
    nu = sobolev_norm(u, r)
    nv = sobolev_norm(v, s)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("multiplier_ratio requires nonzero inputs")
    return sobolev_norm(dispersion_multiplier(exact_product(u, v)), s + 1.0) / (nu * nv)


def check_exponents(s: float, r: float, rprime: float, mode: str = "bilinear") -> None:
    """Validate the admissible exponent region, naming the violated inequality."""
    if mode == "bilinear":
        if not 0.0 <= r:
            raise ValueError(f"inadmissible exponents: need 0 <= r, got r = {r}")
        if not 0.0 <= rprime:
            raise ValueError(f"inadmissible exponents: need 0 <= r', got r' = {rprime}")
        if not r <= s:
            raise ValueError(f"inadmissible exponents: need r <= s, got r = {r}, s = {s}")
        if not rprime <= s:
            raise ValueError(f"inadmissible exponents: need r' <= s, got r' = {rprime}, s = {s}")
        gap = 2.0 * s - r - rprime
        if not gap < 0.25:
            raise ValueError(
                f"inadmissible exponents: need 2s - r - r' < 1/4, got 2s - r - r' = {gap}"
            )
    elif mode == "multiplier":
        if not 0.0 <= s:
            raise ValueError(f"inadmissible exponents: need 0 <= s, got s = {s}")
        if not s <= r:
            raise ValueError(f"inadmissible exponents: need s <= r, got s = {s}, r = {r}")
        if not r > 0.5:
            raise ValueError(f"inadmissible exponents: need r > 1/2, got r = {r}")
    else:
        raise ValueError(f"unknown estimate mode {mode!r}")


def _sample_pair(sampler: str, seed: int, idx: int, n_modes: int, r: float, rprime: float):
    if sampler == "gaussian":
        u = sobolev_ball_state(substream(seed, n_modes, idx, 0), n_modes, r, 1.0)
        v = sobolev_ball_state(substream(seed, n_modes, idx, 1), n_modes, rprime, 1.0)
        return u, v
    if sampler == "adversarial":
        # Near-resonant concentrated pairs cos(Kx), cos((K+-1)x), K swept to N.
        if n_modes < 2:
            raise ValueError("adversarial sampler needs at least 2 modes")
        k = 1 + idx % (n_modes - 1)
        delta = 1 if (idx // (n_modes - 1)) % 2 == 0 else -1
        k2 = min(max(k + delta, 1), n_modes)
        u = TrigState.single_mode(k, n_modes, a_k=1.0)
        v = TrigState.single_mode(k2, n_modes, a_k=1.0)
        return u, v
    raise ValueError(f"unknown sampler {sampler!r}")


def estimate_constant(
    s: float,
    r: float,
    rprime: float,
    n_samples: int,
    n_sweep=DEFAULT_N_SWEEP,
    sampler: str = "gaussian",
    mode: str = "bilinear",
    seed: int = 0,
) -> EstimateReport:
    """Observed supremum of the estimate's ratio over n_samples draws per truncation.

    Sample i at truncation N always uses the substream (seed, N, i), so the
    supremum is non-decreasing in n_samples for a fixed seed.
    """
    check_exponents(s, r, rprime, mode)
    sweep = {}
    for n_modes in n_sweep:
        best = None
        for i in range(n_samples):
            u, v = _sample_pair(sampler, seed, i, n_modes, r, rprime)
            if mode == "bilinear":
                ratio = bilinear_ratio(u, v, s, r, rprime)
            else:
                ratio = multiplier_ratio(u, v, s, r)
            if best is None or ratio > best.ratio:
                best = EstimateSample(
                    seed=i,
                    s=s,
                    r=r,
                    rprime=rprime,
                    ratio=ratio,
                    norm_u=sobolev_norm(u, r),
                    norm_v=sobolev_norm(v, s if mode == "multiplier" else rprime),
                )
        sweep[int(n_modes)] = best
    return EstimateReport(
        s=s, r=r, rprime=rprime, mode=mode, n_samples=n_samples, sampler=sampler, sweep=sweep
    )


def smoothing_ratio(
    u0: TrigState,
    v0: TrigState,
    t_span: float,
    eps: float,
    cfg: FlowConfig,
    n_time_samples: int = 32,
) -> float:
    """Gain-of-regularity quotient of the interaction parts of two solutions.

    sup over sampled t in [0, T] of
    ||NL_t(u0) - NL_t(v0)||_{H^{1/2+eps}} / ||u0 - v0||_{H^{1/2-eps}},
    where NL_t is the deviation from free rotation.  The time sup uses a
    uniform grid of n_time_samples points (an under-estimate of the true sup).
    """
    if not 0.0 < eps < 1.0 / 12.0:
        raise ValueError(f"eps must lie in (0, 1/12), got {eps}")
    denom = sobolev_norm(u0 - v0, 0.5 - eps)
    if denom == 0.0:
        raise ValueError("smoothing_ratio requires distinct initial states")
    if t_span == 0.0:
        return 0.0
    best = 0.0
    u0p, v0p = u0.padded(cfg.N), v0.padded(cfg.N)
    uu, vv = u0p, v0p
    dt_seg = t_span / n_time_samples
    for i in range(1, n_time_samples + 1):
        uu, vv = integrate_batch((uu, vv), dt_seg, cfg)
        t = i * dt_seg
        nl_u = free_evolution(uu, -t) - u0p
        nl_v = free_evolution(vv, -t) - v0p
        best = max(best, sobolev_norm(nl_u - nl_v, 0.5 + eps) / denom)
    return best


def canonical_form_matrix(n_pairs: int) -> np.ndarray:
    """Matrix of the symplectic form in (p_1..p_n, q_1..q_n) coordinates.

    Omega[i, j] = omega(e_i, e_j) with omega(xi, eta) = <J xi, eta>_Z and
    J(p, q) = (q, -p), i.e. the block form [[0, -I], [I, 0]].
    """
    eye = np.eye(n_pairs)
    zero = np.zeros((n_pairs, n_pairs))
    return np.block([[zero, -eye], [eye, zero]])


def _pq_vector(state: TrigState, n_pairs: int) -> np.ndarray:
    coords = to_symplectic(state)
    return np.concatenate([coords.p[:n_pairs], coords.q[:n_pairs]])


def _bump(state: TrigState, coord: int, n_pairs: int, amount: float) -> TrigState:
    coords = to_symplectic(state)
    p = coords.p.copy()
    q = coords.q.copy()
    if coord < n_pairs:
        p[coord] += amount
    else:
        q[coord - n_pairs] += amount
    return from_symplectic(SymplecticCoords(p, q))


def flow_jacobian(
    u0: TrigState,
    t_span: float,
    active_modes: int,
    h: float,
    cfg: FlowConfig,
    check_step: bool = True,
) -> np.ndarray:
    """Central-difference Jacobian of the flow in the first active_modes pair coordinates.

    Modes beyond active_modes are carried along unperturbed.  With
    check_step the Jacobian is recomputed at h/2 and a >10% disagreement
    (noise floor or roughness) attaches a warning.  Every bumped state, for
    both step sizes, is flowed in one batch.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"finite-difference step h = {h} outside [1e-6, 1e-3]")
    if active_modes > 8:
        raise ValueError("at most 8 active mode pairs are supported")
    if active_modes > cfg.N:
        raise ValueError("active_modes exceeds the truncation")
    u0 = u0.padded(cfg.N)
    dim = 2 * active_modes
    step_sizes = (h, 0.5 * h) if check_step else (h,)
    bumped = [
        _bump(u0, i, active_modes, sign * step_size)
        for step_size in step_sizes
        for i in range(dim)
        for sign in (1.0, -1.0)
    ]
    finals = integrate_batch(bumped, t_span, cfg)
    pq = np.array([_pq_vector(u, active_modes) for u in finals]).reshape(len(step_sizes), dim, 2, dim)
    jacs = [(pq[j, :, 0] - pq[j, :, 1]).T / (2.0 * s) for j, s in enumerate(step_sizes)]
    jh = jacs[0]
    if check_step:
        jh2 = jacs[1]
        scale = max(float(np.max(np.abs(jh))), 1.0)
        if float(np.max(np.abs(jh - jh2))) > 0.10 * scale:
            warnings.warn(
                f"flow_jacobian: h = {h} and h/2 disagree by more than 10%; "
                "step may sit below the noise floor",
                RuntimeWarning,
                stacklevel=2,
            )
    return jh


def symplectic_defect(jacobian: np.ndarray) -> float:
    """max-abs entry of M^T Omega M - Omega for the canonical form."""
    n_pairs = jacobian.shape[0] // 2
    omega = canonical_form_matrix(n_pairs)
    return float(np.max(np.abs(jacobian.T @ omega @ jacobian - omega)))


def _radial_rhs(x: np.ndarray, fprime_max: float, radius2: float) -> np.ndarray:
    """Hamiltonian field of H(x) = f(|x|^2) with f(t) = fprime_max t^2 / (2 radius2).

    f'(|x|^2) = fprime_max |x|^2 / radius2 equals fprime_max on the tested
    shell; xdot = 2 f'(|x|^2) J x with J(p, q) = (q, -p) pairwise.
    """
    n = len(x) // 2
    p, q = x[:n], x[n:]
    fp = fprime_max * float(np.dot(x, x)) / radius2
    return 2.0 * fp * np.concatenate([q, -p])


def radial_orbit(
    fprime_max: float, n_pairs: int, radius2: float, steps_per_period: int = 20000
) -> tuple[float, float]:
    """Measured orbit period of a radial Hamiltonian, plus max shell drift.

    For radial H the orbit rotates every pair rigidly at angular speed
    2 f'(shell), so the period is pi / f'(shell); the measurement integrates
    the ODE with rk4 and interpolates the 2-pi crossing of the accumulated
    angle.  Requires 0 < fprime_max < pi so the period exceeds 1.
    """
    if not 0.0 < fprime_max < math.pi:
        raise ValueError(f"fprime_max must lie in (0, pi), got {fprime_max}")
    if not 0.0 < radius2 < 1.0:
        raise ValueError(f"radius2 must lie in (0, 1), got {radius2}")
    amp = math.sqrt(radius2 / n_pairs)
    angles = 0.7 * np.arange(n_pairs)
    x = np.concatenate([amp * np.cos(angles), amp * np.sin(angles)])

    rhs = functools.partial(_radial_rhs, fprime_max=fprime_max, radius2=radius2)
    period_guess = math.pi / fprime_max
    dt = period_guess / steps_per_period
    accumulated = 0.0
    drift = 0.0
    t = 0.0
    zeta = complex(x[0], x[n_pairs])
    for _ in range(4 * steps_per_period):
        x = rk4_step(rhs, x, dt)
        t += dt
        drift = max(drift, abs(float(np.dot(x, x)) - radius2))
        zeta_new = complex(x[0], x[n_pairs])
        d_angle = abs(np.angle(zeta_new / zeta))
        zeta = zeta_new
        prev = accumulated
        accumulated += d_angle
        if accumulated >= 2.0 * math.pi:
            frac = (2.0 * math.pi - prev) / d_angle
            return t - dt + frac * dt, drift
    raise FlowError("radial orbit failed to close within four nominal periods")
