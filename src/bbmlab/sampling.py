"""Deterministic random-state factories.

All randomness in the package flows from one 64-bit seed through
SeedSequence spawn keys, so every sample is identified by (seed, path) and
is reproducible regardless of evaluation order or worker scheduling.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math

import numpy as np

from .spectral import TrigState, pair_rows, sobolev_norms, wavenumbers, z_norm

_MASK64 = (1 << 64) - 1
# numpy's SeedSequence hash and PCG64 seeding constants, fixed by its stream-compatibility
# policy (NEP 19).
_M32, _MASK128, _PCG_MULT = 0xFFFFFFFF, (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _path_id(part) -> int:
    if isinstance(part, (int, np.integer)):
        if not 0 <= part <= _MASK64:
            raise ValueError(f"substream path part must lie in 0..2^64 - 1, got {part}")
        return int(part)
    digest = hashlib.blake2s(str(part).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _check_seed(seed) -> None:
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in 0..2^64 - 1, got {seed}")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the sub-experiment identified by (seed, *path); seed lies in 0..2^64 - 1."""
    _check_seed(seed)
    key = tuple(_path_id(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


def _hash(value, xor, mul):
    """SeedSequence's hashmix of uint32 words, ints or arrays, under hash constants xor, mul."""
    h = (value ^ xor) * mul & _M32
    return h ^ h >> 16


def _mix(x, y):
    z = (_MIX_L * x - _MIX_R * y) & _M32
    return z ^ z >> 16


@functools.lru_cache(maxsize=64)
def _key_tables(seed: int, n_modes: int) -> tuple:
    """uint32 tables of SeedSequence(seed, spawn_key=(n_modes, i, j)) that do not depend on i.

    The pool after the seed's words (padded to 4) and n_modes, the i word's hash constants,
    the hashed j = 0, 1 words and generate_state's constants; hash call k xors with a[k] and
    multiplies by a[k + 1].  Checked once against substream's draws of the key i = 0.
    """
    a = list(itertools.accumulate(range(28), lambda h, _: h * _MULT_A & _M32, initial=_INIT_A))
    b = list(itertools.accumulate(range(8), lambda h, _: h * _MULT_B & _M32, initial=_INIT_B))
    pool = [_hash(w, a[k], a[k + 1]) for k, w in enumerate((seed & _M32, seed >> 32, 0, 0))]
    for k, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        pool[dst] = _mix(pool[dst], _hash(pool[src], a[k], a[k + 1]))
    pool = [_mix(p, _hash(n_modes, a[16 + d], a[17 + d])) for d, p in enumerate(pool)]
    hashed_j = [[_hash(j, a[24 + d], a[25 + d]) for d in range(4)] for j in (0, 1)]
    tables = tuple(np.array(t, np.uint32)
                   for t in (pool, a[20:24], a[21:25], hashed_j, b[:8], b[1:]))
    want = [substream(seed, n_modes, 0, j).standard_normal((2, n_modes)) for j in (0, 1)]
    if not np.array_equal(_draw(tables, range(1), n_modes)[0], want):
        raise RuntimeError(f"batched substream seeding does not reproduce numpy "
                           f"{np.__version__}'s SeedSequence and PCG64 streams")
    return tables


def _draw(tables, idx: range, n_modes: int) -> np.ndarray:
    pool, xor_i, mul_i, hashed_j, xor_b, mul_b = tables
    i = np.asarray(idx, np.uint32)[:, None]
    pool = _mix(_mix(pool, _hash(i, xor_i, mul_i))[:, None], hashed_j)
    # generate_state(4, uint64): 8 hashed words, paired little-endian into initstate, initseq.
    words = _hash(pool[..., [0, 1, 2, 3, 0, 1, 2, 3]], xor_b, mul_b)
    keys = np.ascontiguousarray(words, "<u4").view("<u8").reshape(-1, 4).tolist()
    out = np.empty((len(idx), 2, 2, n_modes))
    bits = np.random.PCG64(0)
    normal = np.random.Generator(bits).standard_normal
    for draws, (s_hi, s_lo, q_hi, q_lo) in zip(out.reshape(-1, 2, n_modes), keys):
        # PCG64's seeding: two LCG steps from state 0, adding initstate after the first.
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, "inc": inc}}
        normal(out=draws)
    return out


def sweep_normals(seed: int, n_modes: int, idx: range) -> np.ndarray:
    """Standard normals (len(idx), 2, 2, n_modes) of the estimate sweep's keys, bit for bit.

    Entry [s, j] holds the first 2 n_modes draws of substream(seed, n_modes, idx[s], j), with
    no SeedSequence or PCG64 built per key: the hash runs once per (seed, n_modes) and in
    uint32 arrays for the i and j words, and one PCG64 is re-seeded per key.  n_modes and
    every i take one uint32 word each.
    """
    _check_seed(seed)
    if not (1 <= n_modes <= _M32 and 0 <= idx.start and idx.stop <= _M32 + 1):
        raise ValueError(f"sweep keys need 1 <= N < 2^32 and 0 <= i < 2^32, got N = {n_modes}, "
                         f"i in {idx}")
    return _draw(_key_tables(int(seed), int(n_modes)), idx, n_modes)


def sobolev_ball_rows(draws: np.ndarray, reg: float, radius: float,
                      decay: float | None = None) -> np.ndarray:
    """Coefficient rows c = a - i b, shape (rows, N), of random mean-zero states.

    draws holds standard normals (rows, 2, N): row i's a_k then b_k, scaled by
    <k>^{-decay} and rescaled to H^reg norm exactly `radius`, so it does not
    depend on the other rows.  The default spectral decay
    <k>^{-(reg + 1/2 + 0.01)} concentrates mass near the critical
    regularity, which is where the bilinear estimates are tightest; pass a
    larger `decay` for smoother draws.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n_modes = draws.shape[-1]
    if n_modes < 1:
        raise ValueError("truncation must be at least 1")
    if decay is None:
        decay = reg + 0.5 + 0.01
    k = wavenumbers(n_modes)
    w = (1.0 + k * k) ** (-decay / 2.0)
    c = (draws[:, 0] - 1j * draws[:, 1]) * w
    nrm = sobolev_norms(0.0, c, reg)
    if np.any(nrm == 0.0):
        raise ValueError("degenerate zero draw")
    c = (radius / nrm)[:, None] * c
    if not np.all(np.isfinite(c)):
        raise ValueError("state coefficients must be finite")
    return c


def sobolev_ball_state(rng: np.random.Generator, n_modes: int, reg: float, radius: float,
                       decay: float | None = None) -> TrigState:
    """Random state with H^reg norm exactly `radius`: sobolev_ball_rows of rng's next draws."""
    return TrigState.from_row(
        sobolev_ball_rows(rng.standard_normal((1, 2, n_modes)), reg, radius, decay)[0])


def z_sphere_row(rng: np.random.Generator, radius: float, n_modes: int, n_active: int) -> np.ndarray:
    """Row (n_modes,) of a uniform direction on the Z sphere of the first n_active mode pairs."""
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
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
