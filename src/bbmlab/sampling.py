"""Deterministic random-state factories.

All randomness in the package flows from one 64-bit seed through
SeedSequence spawn keys, so every sample is identified by (seed, path) and
is reproducible regardless of evaluation order or worker scheduling.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .spectral import TrigState, pair_rows, sobolev_norms, wavenumbers, z_norm

_MASK64 = (1 << 64) - 1


def _path_id(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.blake2s(str(part).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the sub-experiment identified by (seed, *path)."""
    key = tuple(_path_id(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=key))


def sobolev_ball_rows(
    rngs,
    n_modes: int,
    reg: float,
    radius: float,
    decay: float | None = None,
) -> np.ndarray:
    """Coefficient rows c = a - i b, shape (len(rngs), n_modes), of random mean-zero states.

    Row i is drawn from rngs[i] alone (a_k then b_k ~ N(0,1), scaled by
    <k>^{-decay}) and rescaled to H^reg norm exactly `radius`, so it does
    not depend on the other rows.  The default spectral decay
    <k>^{-(reg + 1/2 + 0.01)} concentrates mass near the critical
    regularity, which is where the bilinear estimates are tightest; pass a
    larger `decay` for smoother draws.
    """
    if n_modes < 1:
        raise ValueError("truncation must be at least 1")
    if decay is None:
        decay = reg + 0.5 + 0.01
    k = wavenumbers(n_modes)
    w = (1.0 + k * k) ** (-decay / 2.0)
    draws = np.array([(rng.standard_normal(n_modes), rng.standard_normal(n_modes)) for rng in rngs])
    c = (draws[:, 0] - 1j * draws[:, 1]) * w
    nrm = sobolev_norms(0.0, c, reg)
    if np.any(nrm == 0.0):
        raise ValueError("degenerate zero draw")
    c = (radius / nrm)[:, None] * c
    if not np.all(np.isfinite(c)):
        raise ValueError("state coefficients must be finite")
    return c


def sobolev_ball_state(
    rng: np.random.Generator,
    n_modes: int,
    reg: float,
    radius: float,
    decay: float | None = None,
) -> TrigState:
    """Random state with H^reg norm exactly `radius`: one row of sobolev_ball_rows."""
    return TrigState.from_row(sobolev_ball_rows([rng], n_modes, reg, radius, decay)[0])


def z_sphere_row(rng: np.random.Generator, radius: float, n_modes: int, n_active: int) -> np.ndarray:
    """Row (n_modes,) of a uniform direction on the Z sphere of the first n_active mode pairs."""
    if not 1 <= n_active <= n_modes:
        raise ValueError(f"n_active = {n_active} outside 1..{n_modes}")
    # The norm sums over all n_modes pairs, zeros included, as the draw always has.
    p = np.zeros(n_modes)
    q = np.zeros(n_modes)
    p[:n_active] = rng.standard_normal(n_active)
    q[:n_active] = rng.standard_normal(n_active)
    nrm = math.sqrt(float(np.sum(p * p + q * q)))
    if nrm == 0.0:
        raise ValueError("degenerate zero draw")
    return pair_rows(np.concatenate([radius * p / nrm, radius * q / nrm]), n_modes)


def z_sphere_state(rng: np.random.Generator, radius: float, n_modes: int, n_active: int) -> TrigState:
    """Uniform direction on the Z sphere of the first n_active pairs: z_sphere_row as a state."""
    return TrigState.from_row(z_sphere_row(rng, radius, n_modes, n_active))


def smooth_profile(n_modes: int) -> TrigState:
    """The shipped smooth initial state: sum_{k<=20} k^{-2}(cos kx + sin kx), Z-normalized."""
    km = min(20, n_modes)
    a = np.zeros(n_modes)
    b = np.zeros(n_modes)
    k = np.arange(1, km + 1, dtype=float)
    a[:km] = k ** -2.0
    b[:km] = k ** -2.0
    u = TrigState.mean_zero(a, b)
    return (1.0 / z_norm(u)) * u
