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

from .flow import (FlowConfig, FlowError, _padded, integrate_batch, interaction_samples,
                   rk4_coefficients, rk4_step)
from .sampling import sobolev_ball_rows, sweep_normals
from .spectral import (
    MAX_MODES,
    TrigState,
    analyze_rows,
    dispersion_symbol,
    pair_coords,
    pair_rows,
    require_mean_zero,
    smooth_grid_size,
    sobolev_norm,
    sobolev_norms,
    synthesize_rows,
    wavenumbers,
)

DEFAULT_N_SWEEP = (16, 32, 64, 128)
# Sample pairs per padded-grid product in estimate_constant.  The sweep runs
# no faster with larger chunks, while its peak memory grows with them.
_SWEEP_BATCH = 32
# Most samples per truncation, 100 times criterion 5's 10,000.
MAX_SAMPLES = 10 ** 6
_SMOOTHING_TIMES = 32
_ORBIT_STEPS_PER_PERIOD = 2000


@dataclass(frozen=True)
class EstimateSample:
    """One random draw with its measured ratio."""

    seed: int
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


def _product_rows(u, v):
    """Pointwise products of paired coefficient rows (mean, c), alias-free.

    All n_u + n_v modes are kept.  The grid has the smallest 5-smooth length >= 2 n_out + 1 (see
    spectral.smooth_grid_size): 2 n_out + 1 itself is prime at N = 64.
    """
    n_out = u[1].shape[-1] + v[1].shape[-1]
    m = smooth_grid_size(2 * n_out + 1)
    return analyze_rows(synthesize_rows(*u, m) * synthesize_rows(*v, m), n_out)


def _ratio_rows(u, v, s_top: float, r_u: float, r_v: float, name: str):
    """||phi(D)(u v)||_{H^s_top} / (||u||_{H^r_u} ||v||_{H^r_v}) per row pair.

    Returns the ratios and the two denominator norms, one entry per row.
    """
    norm_u = sobolev_norms(*u, r_u)
    norm_v = sobolev_norms(*v, r_v)
    if np.any(norm_u == 0.0) or np.any(norm_v == 0.0):
        raise ValueError(f"{name} requires nonzero inputs")
    _, c = _product_rows(u, v)
    phi = dispersion_symbol(wavenumbers(c.shape[-1]))
    return sobolev_norms(0.0, phi * c, s_top) / (norm_u * norm_v), norm_u, norm_v


def exact_product(u: TrigState, v: TrigState) -> TrigState:
    """Pointwise product as a trig polynomial with all 2N modes kept, alias-free."""
    mean, c = _product_rows((u.mean, u.row), (v.mean, v.row))
    return TrigState.from_row(c, mean)


def bilinear_ratio(u: TrigState, v: TrigState, s: float, r: float, rprime: float) -> float:
    """||phi(D)(u v)||_{H^s} / (||u||_{H^r} ||v||_{H^r'}) with the product exact."""
    require_mean_zero(u, "bilinear_ratio")
    require_mean_zero(v, "bilinear_ratio")
    return float(_ratio_rows((u.mean, u.row), (v.mean, v.row), s, r, rprime, "bilinear_ratio")[0])


def multiplier_ratio(u: TrigState, v: TrigState, s: float, r: float) -> float:
    """||phi(D)(u v)||_{H^{s+1}} / (||u||_{H^r} ||v||_{H^s}): the one-derivative gain."""
    require_mean_zero(u, "multiplier_ratio")
    require_mean_zero(v, "multiplier_ratio")
    return float(_ratio_rows((u.mean, u.row), (v.mean, v.row), s + 1.0, r, s, "multiplier_ratio")[0])


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


def _sample_rows(sampler: str, seed: int, idx: range, n_modes: int, r: float, rprime: float):
    """Coefficient rows (mean, c) of the u and v draws of samples idx at N = n_modes."""
    if sampler == "gaussian":
        draws = sweep_normals(seed, n_modes, idx)
        u = sobolev_ball_rows(draws[:, 0], r, 1.0)
        v = sobolev_ball_rows(draws[:, 1], rprime, 1.0)
        return (0.0, u), (0.0, v)
    # Near-resonant concentrated pairs cos(Kx), cos((K+-1)x), K swept to N.
    i = np.arange(idx.start, idx.stop)[:, None]
    k = 1 + i % (n_modes - 1)
    k2 = np.clip(k + 1 - 2 * ((i // (n_modes - 1)) % 2), 1, n_modes)
    modes = wavenumbers(n_modes)
    return (0.0, 1.0 * (modes == k) + 0j), (0.0, 1.0 * (modes == k2) + 0j)


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

    Gaussian sample i at truncation N draws u and v from the substreams (seed, N, i, 0) and
    (seed, N, i, 1), so the supremum is non-decreasing in n_samples for a fixed seed.  The
    samples are drawn (sampling.sweep_normals: those substreams' draws, bit for bit) and
    measured _SWEEP_BATCH at a time, with one padded-grid product per chunk; the first
    sample reaching the supremum is reported.
    """
    check_exponents(s, r, rprime, mode)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise ValueError(
            f"n_samples must be <= {MAX_SAMPLES} (estimates.MAX_SAMPLES), got {n_samples}")
    if sampler not in ("gaussian", "adversarial"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if not n_sweep:
        raise ValueError("N_list must name at least one truncation")
    for i, n_modes in enumerate(n_sweep):
        if n_sweep.index(n_modes) < i:
            raise ValueError(f"N_list must not repeat an entry, got N = {n_modes} twice")
        if not 1 <= n_modes <= MAX_MODES:
            raise ValueError(f"N_list entry N = {n_modes} outside 1..{MAX_MODES}")
        if sampler == "adversarial" and n_modes < 2:
            raise ValueError("adversarial sampler needs at least 2 modes")
    s_top, r_v = (s, rprime) if mode == "bilinear" else (s + 1.0, s)
    sweep = {}
    for n_modes in n_sweep:
        best = None
        for lo in range(0, n_samples, _SWEEP_BATCH):
            idx = range(lo, min(lo + _SWEEP_BATCH, n_samples))
            u, v = _sample_rows(sampler, seed, idx, n_modes, r, rprime)
            ratio, norm_u, norm_v = _ratio_rows(u, v, s_top, r, r_v, f"{mode}_ratio")
            if not np.all(np.isfinite(ratio)):
                raise ValueError(f"non-finite {mode} ratio among samples {idx} at N = {n_modes}")
            j = int(np.argmax(ratio))
            if best is None or ratio[j] > best.ratio:
                best = EstimateSample(seed=idx[j], ratio=float(ratio[j]),
                                      norm_u=float(norm_u[j]), norm_v=float(norm_v[j]))
        sweep[int(n_modes)] = best
    return EstimateReport(
        s=s, r=r, rprime=rprime, mode=mode, n_samples=n_samples, sampler=sampler, sweep=sweep
    )


def smoothing_ratio(u0: TrigState, v0: TrigState, t_span: float, eps: float,
                    cfg: FlowConfig) -> float:
    """Gain-of-regularity quotient of the interaction parts of two solutions.

    sup over sampled t in [0, T] of
    ||NL_t(u0) - NL_t(v0)||_{H^{1/2+eps}} / ||u0 - v0||_{H^{1/2-eps}},
    where NL_t is the deviation from free rotation.  The time sup uses a uniform grid of
    _SMOOTHING_TIMES points, sampled in one flow.interaction_samples pass (an under-estimate).
    """
    if not 0.0 < eps < 1.0 / 12.0:
        raise ValueError(f"eps must lie in (0, 1/12), got {eps}")
    denom = sobolev_norm(u0 - v0, 0.5 - eps)
    if denom == 0.0:
        raise ValueError("smoothing_ratio requires distinct initial states")
    c0 = np.array([_padded(u, cfg, "smoothing_ratio").row for u in (u0, v0)])
    nl = interaction_samples(c0, t_span, _SMOOTHING_TIMES, cfg)
    return float(np.max(sobolev_norms(0.0, nl[:, 0] - nl[:, 1], 0.5 + eps))) / denom


def canonical_form_matrix(n_pairs: int) -> np.ndarray:
    """Matrix of the symplectic form in (p_1..p_n, q_1..q_n) coordinates.

    Omega[i, j] = omega(e_i, e_j) with omega(xi, eta) = <J xi, eta>_Z and
    J(p, q) = (q, -p), i.e. the block form [[0, -I], [I, 0]].
    """
    eye = np.eye(n_pairs)
    zero = np.zeros((n_pairs, n_pairs))
    return np.block([[zero, -eye], [eye, zero]])


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
    if not 1 <= active_modes <= min(8, cfg.N):
        raise ValueError(f"active_modes = {active_modes} outside 1..{min(8, cfg.N)}")
    c0 = _padded(u0, cfg, "flow_jacobian").row
    step_sizes = (h, 0.5 * h) if check_step else (h,)
    # Row k bumps coordinate i (p_i, or q_{i-n} at column N + i - n) by sign * step.
    cols = np.r_[0:active_modes, cfg.N:cfg.N + active_modes]
    amounts = [sign * step_size for step_size in step_sizes for _ in cols for sign in (1.0, -1.0)]
    x = np.tile(pair_coords(c0, cfg.N), (len(amounts), 1))
    x[np.arange(len(amounts)), np.tile(np.repeat(cols, 2), len(step_sizes))] += amounts
    finals = integrate_batch(pair_rows(x, cfg.N), t_span, cfg)
    pq = pair_coords(finals, active_modes).reshape(len(step_sizes), len(cols), 2, len(cols))
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


def _radial_rhs(x: np.ndarray, out: np.ndarray, fprime_max: float, radius2: float) -> None:
    """Hamiltonian field of H(x) = f(|x|^2) with f(t) = fprime_max t^2 / (2 radius2), into out.

    f'(|x|^2) = fprime_max |x|^2 / radius2 equals fprime_max on the tested
    shell; xdot = 2 f'(|x|^2) J x with J(p, q) = (q, -p) pairwise.
    """
    n = len(x) // 2
    fp = fprime_max * float(np.dot(x, x)) / radius2
    out[:n] = x[n:]
    np.negative(x[:n], out=out[n:])
    np.multiply(2.0 * fp, out, out=out)


def radial_orbit(fprime_max: float, n_pairs: int, radius2: float) -> tuple[float, float]:
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
    if not 1 <= n_pairs <= MAX_MODES:
        raise ValueError(f"n_pairs must lie in 1..{MAX_MODES}, got {n_pairs}")
    amp = math.sqrt(radius2 / n_pairs)
    angles = 0.7 * np.arange(n_pairs)
    x = np.concatenate([amp * np.cos(angles), amp * np.sin(angles)])

    rhs = functools.partial(_radial_rhs, fprime_max=fprime_max, radius2=radius2)
    period_guess = math.pi / fprime_max
    dt = period_guess / _ORBIT_STEPS_PER_PERIOD
    accumulated = 0.0
    drift = 0.0
    t = 0.0
    zeta = complex(x[0], x[n_pairs])
    work, coef = tuple(np.empty((5,) + x.shape)), rk4_coefficients(dt, 1.0)  # L = 1
    for _ in range(4 * _ORBIT_STEPS_PER_PERIOD):
        rk4_step(rhs, x, coef, work)
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
