"""Trigonometric polynomials on the circle and their Sobolev geometry.

A state is u(x) = mean + sum_{k=1}^N a_k cos(kx) + b_k sin(kx).  All inner
products use the plain L2 pairing <f, g> = int_0^{2pi} f(x) g(x) dx, so
||cos(kx)||_{L2}^2 = pi.  Mean-zero states form the phase space; on it we
use the weighted norm

    ||u||_Z^2 = pi * sum_k ((1 + k^2)/k) (a_k^2 + b_k^2),

for which the scaled modes sqrt(n / (pi (n^2+1))) cos(nx) and sin(nx) are an
exact orthonormal basis.  The coordinates of u in that basis are the
canonical pair coordinates (p_n, q_n) used by the flow map and by the
squeezing experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

# Mean magnitudes below this count as zero for phase-space preconditions.
MEAN_TOL = 1e-12

# Largest truncation any experiment accepts, 128 times the largest shipped N:
# every array sized from N then fits in memory (a state is 256 KiB), while a
# request for 10^13 modes is rejected by name instead of failing to allocate.
MAX_MODES = 1 << 14

# pocketfft's FFT ufuncs, called directly by every product kernel: numpy's public FFT functions
# wrap them in about 4 us of argument handling per call.  The module is private to numpy (present
# from 2.0 on); tests/test_spectral.py pins the ufuncs and their bits.  A ufunc takes (rows,
# scale) and, by its default core axes, transforms along the last axis of its input and of out,
# whose length sets that of an inverse transform; so no call passes axes, which costs a parse per
# call.  IRFFT takes 1/m here (numpy's default norm), RFFT 1.0; flow._VecOps, its own.
IRFFT = _pocketfft.irfft
RFFT = (_pocketfft.rfft_n_even, _pocketfft.rfft_n_odd)  # indexed by the parity m % 2


class ResolutionError(ValueError):
    """Sample grid too coarse for the requested truncation (aliasing risk)."""


def _coeffs(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("coefficient list must be one-dimensional")
    return arr


@dataclass(frozen=True)
class TrigState:
    """Real trigonometric polynomial: mean value plus (a_k, b_k) mode pairs.

    Immutable value type.  The truncation N is the length of the coefficient
    arrays; trailing zeros are kept, never dropped silently.
    """

    mean: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _coeffs(self.a).copy()
        b = _coeffs(self.b).copy()
        if len(a) != len(b):
            raise ValueError(
                f"cos/sin coefficient lists differ in length: {len(a)} vs {len(b)}"
            )
        if len(a) < 1:
            raise ValueError("truncation must be at least 1")
        mean = float(self.mean)
        if not (math.isfinite(mean) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("state coefficients must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_modes(self) -> int:
        return len(self.a)

    @property
    def row(self) -> np.ndarray:
        """Half-spectrum coefficient row c_k = a_k - i b_k, k = 1..N."""
        return self.a - 1j * self.b

    @classmethod
    def from_row(cls, c: np.ndarray, mean: float = 0.0) -> "TrigState":
        """State of the half-spectrum row c = a - i b; b = 0 - imag, so a zero mode has b = +0."""
        return cls(mean, c.real, 0.0 - c.imag)

    @classmethod
    def zero(cls, n_modes: int) -> "TrigState":
        return cls(0.0, np.zeros(n_modes), np.zeros(n_modes))

    @classmethod
    def mean_zero(cls, a, b) -> "TrigState":
        """Phase-space constructor: mean pinned to exactly 0."""
        return cls(0.0, a, b)

    @classmethod
    def single_mode(cls, k: int, n_modes: int, a_k: float = 0.0, b_k: float = 0.0) -> "TrigState":
        if not 1 <= k <= n_modes:
            raise ValueError(f"mode {k} outside truncation {n_modes}")
        a = np.zeros(n_modes)
        b = np.zeros(n_modes)
        a[k - 1] = a_k
        b[k - 1] = b_k
        return cls(0.0, a, b)

    def padded(self, n_modes: int) -> "TrigState":
        """Same state with trailing zero modes appended (never truncates)."""
        if n_modes < self.n_modes:
            raise ValueError("padding target smaller than current truncation")
        if n_modes == self.n_modes:
            return self
        extra = np.zeros(n_modes - self.n_modes)
        return TrigState(self.mean, np.concatenate([self.a, extra]), np.concatenate([self.b, extra]))

    def __add__(self, other: "TrigState") -> "TrigState":
        n = max(self.n_modes, other.n_modes)
        u, v = self.padded(n), other.padded(n)
        return TrigState(u.mean + v.mean, u.a + v.a, u.b + v.b)

    def __sub__(self, other: "TrigState") -> "TrigState":
        return self + (-1.0) * other

    def __mul__(self, c: float) -> "TrigState":
        return TrigState(c * self.mean, c * self.a, c * self.b)

    __rmul__ = __mul__

    def __neg__(self) -> "TrigState":
        return (-1.0) * self


def require_mean_zero(state: TrigState, op: str) -> None:
    if abs(state.mean) > MEAN_TOL:
        raise ValueError(f"{op} requires a mean-zero state (mean = {state.mean!r})")


def wavenumbers(n_modes: int) -> np.ndarray:
    return np.arange(1, n_modes + 1, dtype=float)


def smooth_grid_size(m_min: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c that is >= m_min.

    Product kernels pad to at least m_min points; any larger grid is just as
    alias-free, and FFTs of 5-smooth length avoid pocketfft's slow
    prime-length path (a 97-point transform costs about five 100-point ones).
    """
    m = max(1, int(m_min))
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def dispersion_symbol(k) -> np.ndarray:
    """phi(k) = k / (1 + k^2), the linear BBM dispersion multiplier."""
    k = np.asarray(k, dtype=float)
    return k / (1.0 + k * k)


def basis_scale(n_modes: int) -> np.ndarray:
    """c_n = sqrt(n / (pi (n^2+1))): cos/sin prefactor of the Z-orthonormal modes."""
    k = wavenumbers(n_modes)
    return np.sqrt(k / (math.pi * (k * k + 1.0)))


def pair_coords(c: np.ndarray, n_pairs: int) -> np.ndarray:
    """Pair coordinates [p_1..p_n, q_1..q_n] (n = n_pairs) of the rows c (..., N).

    With c = a - i b: p_k = a_k / basis_scale_k, q_k = b_k / basis_scale_k.
    """
    if not 1 <= n_pairs <= c.shape[-1]:
        raise ValueError(f"n_pairs = {n_pairs} outside 1..{c.shape[-1]}")
    scale = basis_scale(n_pairs)
    head = c[..., :n_pairs]
    return np.concatenate([head.real / scale, (0.0 - head.imag) / scale], axis=-1)


def pair_rows(x: np.ndarray, n_modes: int) -> np.ndarray:
    """Rows c (..., n_modes) of the pair coordinates x (..., 2n), zero above mode n.

    The inverse of pair_coords; the imaginary part is 0 - b_k, +0 on a zero mode.
    """
    n = x.shape[-1] // 2
    if x.shape[-1] % 2 or n > n_modes:
        raise ValueError(f"need 2n <= {2 * n_modes} pair coordinates, got {x.shape[-1]}")
    scale = basis_scale(n)
    c = np.zeros(x.shape[:-1] + (n_modes,), dtype=complex)
    c.real[..., :n] = x[..., :n] * scale
    c.imag[..., :n] = 0.0 - x[..., n:] * scale
    return c


def unit_cos_mode(k: int, n_modes: int) -> TrigState:
    """Z-normalized cosine mode: sqrt(k/(pi(k^2+1))) cos(kx)."""
    c = float(basis_scale(n_modes)[k - 1])
    return TrigState.single_mode(k, n_modes, a_k=c)


def unit_sin_mode(k: int, n_modes: int) -> TrigState:
    """Z-normalized sine mode: sqrt(k/(pi(k^2+1))) sin(kx)."""
    c = float(basis_scale(n_modes)[k - 1])
    return TrigState.single_mode(k, n_modes, b_k=c)


def synthesize_rows(mean, c: np.ndarray, m: int) -> np.ndarray:
    """Values at x_j = 2 pi j / m of the coefficient rows (mean, c).

    c has shape (..., N) with m >= 2N+1; mean is a number or one per row.
    With analyze_rows this holds the one half-spectrum layout: bin 0 of
    the length-m real FFT is m * mean and bin k = 1..N is m c_k / 2.  The
    inverse FFT acts on each row alone, so a row's values do not depend on
    the rows stacked with it.
    """
    spec = np.zeros(c.shape[:-1] + (m // 2 + 1,), dtype=complex)
    spec[..., 0] = m * mean
    np.multiply(0.5 * m, c, out=spec[..., 1:c.shape[-1] + 1])
    return IRFFT(spec, 1.0 / m, out=np.empty(c.shape[:-1] + (m,)))


def analyze_rows(values: np.ndarray, n_modes: int):
    """Coefficient rows (mean, c) of modes <= n_modes interpolating the grid rows.

    values has shape (..., M) with M >= 2 n_modes + 1; each row is
    transformed alone.  The modes are scaled on the float view (x 2, then
    / M), as complex / real would round the two parts together.
    """
    m = values.shape[-1]
    spec = np.empty(values.shape[:-1] + (m // 2 + 1,), dtype=complex)
    RFFT[m % 2](values, 1.0, out=spec)
    x = np.multiply(2.0, spec[..., 1:n_modes + 1].view(float))
    return spec[..., 0].real / m, np.divide(x, m, out=x).view(complex)


def synthesize(state: TrigState, m: int) -> np.ndarray:
    """Values (M,) of the state at x_j = 2 pi j / M, j = 0..M-1.

    Requires M >= 2N+1 so that the analysis of the samples is exact.
    """
    n = state.n_modes
    if m < 2 * n + 1:
        raise ResolutionError(f"resolution too low: M = {m} < 2N+1 = {2 * n + 1}")
    return synthesize_rows(state.mean, state.row, m)


def analyze(values, n_modes: int) -> TrigState:
    """Exact trigonometric interpolation coefficients for modes <= n_modes of the values (M,).

    The grid must satisfy M >= 2N+1; coarser grids alias and are rejected.
    """
    vals = _coeffs(values)
    m = len(vals)
    if m < 1:
        raise ValueError("empty sample grid")
    if m < 2 * n_modes + 1:
        raise ResolutionError(
            f"aliasing risk: M = {m} < 2N+1 = {2 * n_modes + 1} samples for N = {n_modes} modes"
        )
    mean, c = analyze_rows(vals, n_modes)
    return TrigState.from_row(c, mean)


def sobolev_norms(mean, c: np.ndarray, s: float) -> np.ndarray:
    """H^s norms of the coefficient rows (mean, c), c of shape (..., N).

    Each row's sum runs along the last axis exactly as for a single row, so
    a row's norm does not depend on the rows stacked with it.
    """
    k = wavenumbers(c.shape[-1])
    power = (1.0 + k * k) ** s * (c.real ** 2 + c.imag ** 2)
    return np.sqrt(math.pi * np.sum(power, axis=-1) + 2.0 * math.pi * mean ** 2)


def sobolev_norm(state: TrigState, s: float) -> float:
    """H^s norm: (sum_k <k>^{2s} pi (a_k^2+b_k^2) + 2 pi mean^2)^{1/2}.

    <k> = (1+k^2)^{1/2}; s may be negative.
    """
    return float(sobolev_norms(state.mean, state.row, s))


def _z_weights(n_modes: int) -> np.ndarray:
    k = wavenumbers(n_modes)
    return math.pi * (1.0 + k * k) / k


def z_norm(state: TrigState) -> float:
    """Phase-space norm (pi sum_k ((1+k^2)/k)(a_k^2+b_k^2))^{1/2}.

    Exactly 1 on the scaled basis modes.  Defined on mean-zero states only.
    """
    require_mean_zero(state, "z_norm")
    w = _z_weights(state.n_modes)
    return math.sqrt(float(np.sum(w * (state.a ** 2 + state.b ** 2))))


def dispersion_multiplier(state: TrigState) -> TrigState:
    """Apply the Fourier multiplier phi(k) = k/(1+k^2) mode by mode.

    phi(0) = 0, so the mean is annihilated.
    """
    phi = dispersion_symbol(wavenumbers(state.n_modes))
    return TrigState(0.0, phi * state.a, phi * state.b)


def to_symplectic(state: TrigState) -> np.ndarray:
    """Coordinates [p, q] in the Z-orthonormal basis: p_n = a_n sqrt(pi(n^2+1)/n)."""
    require_mean_zero(state, "to_symplectic")
    return pair_coords(state.row, state.n_modes)


def from_symplectic(x) -> TrigState:
    """The mean-zero state of the coordinates x = [p, q] (2N,)."""
    x = _coeffs(x)
    return TrigState.from_row(pair_rows(x, len(x) // 2))
