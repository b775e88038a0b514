"""Independent slow-path oracles for the spectral operations.

Everything here but reference_estimate, reference_flow_jacobian and
PairRowFlow works from the definitions (convolution sums, Riemann
quadrature, trig calculus) without touching the package's FFT paths, so the
fast implementations can be checked against it at 1e-12.
reference_estimate is the pair-by-pair loop the batched estimate sweep must
reproduce bit for bit, reference_flow_jacobian the state-by-state bump loop
flow_jacobian must reproduce bit for bit, and PairRowFlow the real-row flow
core the complex-row one must reproduce bit for bit.
"""

import math

import numpy as np

from bbmlab.estimates import bilinear_ratio, multiplier_ratio
from bbmlab.flow import integrate
from bbmlab.sampling import sobolev_ball_state, substream
from bbmlab.spectral import TrigState, basis_scale, smooth_grid_size, sobolev_norm


def complex_modes(state: TrigState) -> np.ndarray:
    """Two-sided coefficient array c[k], k = -N..N, with u = sum c_k e^{ikx}.

    c_0 = mean, c_k = (a_k - i b_k)/2 for k >= 1, c_{-k} = conj(c_k).
    Index k lives at position N + k.
    """
    n = state.n_modes
    c = np.zeros(2 * n + 1, dtype=complex)
    c[n] = state.mean
    c[n + 1:] = 0.5 * (state.a - 1j * state.b)
    c[:n] = np.conj(c[n + 1:])[::-1]
    return c


def from_complex_modes(c: np.ndarray) -> TrigState:
    n = (len(c) - 1) // 2
    mean = float(c[n].real)
    a = 2.0 * c[n + 1:].real
    b = -2.0 * c[n + 1:].imag
    return TrigState(mean, a, b)


def oracle_product(u: TrigState, v: TrigState) -> TrigState:
    """u*v by direct O(N^2) convolution of the two-sided coefficients."""
    cu = complex_modes(u)
    cv = complex_modes(v)
    nu = u.n_modes
    nv = v.n_modes
    n_out = nu + nv
    out = np.zeros(2 * n_out + 1, dtype=complex)
    for k in range(-nu, nu + 1):
        out[n_out + k - nv: n_out + k + nv + 1] += cu[nu + k] * cv
    return from_complex_modes(out)


def oracle_rhs(u: TrigState, n_out: int) -> TrigState:
    """-dx (1-dxx)^{-1} (u + u^2/2) truncated to n_out, from trig calculus.

    The operator sends cos(kx) to phi(k) sin(kx) and sin(kx) to
    -phi(k) cos(kx), phi(k) = k/(1+k^2); the mean is annihilated.
    """
    w = u.padded(2 * u.n_modes) + 0.5 * oracle_product(u, u)
    k = np.arange(1, n_out + 1, dtype=float)
    phi = k / (1.0 + k * k)
    wa = w.a[:n_out] if w.n_modes >= n_out else np.concatenate([w.a, np.zeros(n_out - w.n_modes)])
    wb = w.b[:n_out] if w.n_modes >= n_out else np.concatenate([w.b, np.zeros(n_out - w.n_modes)])
    return TrigState.mean_zero(-phi * wb, phi * wa)


def oracle_cubic_integral(u: TrigState) -> float:
    """int u^3 dx via the triple convolution sum 2 pi sum_{k+l+m=0} c_k c_l c_m."""
    c = complex_modes(u)
    n = u.n_modes
    total = 0.0 + 0.0j
    for k in range(-n, n + 1):
        for l in range(-n, n + 1):
            m = -k - l
            if -n <= m <= n:
                total += c[n + k] * c[n + l] * c[n + m]
    return 2.0 * np.pi * float(total.real)


def oracle_analyze(values: np.ndarray, n_modes: int) -> TrigState:
    """Trapezoid-exact quadrature coefficients: a_k = (2/M) sum_j u_j cos(k x_j)."""
    m = len(values)
    x = 2.0 * np.pi * np.arange(m) / m
    mean = float(np.mean(values))
    a = np.array([2.0 / m * np.sum(values * np.cos(k * x)) for k in range(1, n_modes + 1)])
    b = np.array([2.0 / m * np.sum(values * np.sin(k * x)) for k in range(1, n_modes + 1)])
    return TrigState(mean, a, b)


def reference_estimate(s, r, rprime, n_samples, n_modes, sampler, mode, seed):
    """(seed, ratio, norm_u, norm_v) of estimate_constant's sample at N = n_modes.

    Pairs are drawn and measured one at a time.  Draw i comes from the
    substreams (seed, N, i, 0/1), or is the adversarial pair cos(Kx),
    cos((K +- 1)x); the first draw with the largest ratio wins.
    """
    best = None
    for i in range(n_samples):
        if sampler == "gaussian":
            u = sobolev_ball_state(substream(seed, n_modes, i, 0), n_modes, r, 1.0)
            v = sobolev_ball_state(substream(seed, n_modes, i, 1), n_modes, rprime, 1.0)
        else:
            k = 1 + i % (n_modes - 1)
            delta = 1 if (i // (n_modes - 1)) % 2 == 0 else -1
            u = TrigState.single_mode(k, n_modes, a_k=1.0)
            v = TrigState.single_mode(min(max(k + delta, 1), n_modes), n_modes, a_k=1.0)
        if mode == "bilinear":
            row = (i, bilinear_ratio(u, v, s, r, rprime), sobolev_norm(u, r), sobolev_norm(v, rprime))
        else:
            row = (i, multiplier_ratio(u, v, s, r), sobolev_norm(u, r), sobolev_norm(v, s))
        if best is None or row[1] > best[1]:
            best = row
    return best


def reference_flow_jacobian(u0, t_span, active_modes, h, cfg):
    """Central-difference Jacobian in the first active_modes pair coordinates.

    One TrigState per bumped state: every mode's pair coordinates are
    p = a / scale, q = b / scale and go back as a = p scale, b = q scale
    (scale = basis_scale), the bumped state is flowed alone by integrate,
    and its image is read the same way.  Column i bumps p_i (i < n) or
    q_{i-n}.
    """
    u0 = u0.padded(cfg.N)
    scale = basis_scale(cfg.N)
    n = active_modes
    jac = np.zeros((2 * n, 2 * n))
    for i in range(2 * n):
        images = []
        for sign in (1.0, -1.0):
            p, q = u0.a / scale, u0.b / scale
            if i < n:
                p[i] += sign * h
            else:
                q[i - n] += sign * h
            final = integrate(TrigState(0.0, p * scale, q * scale), t_span, cfg).final
            images.append(np.concatenate([final.a[:n] / scale[:n], final.b[:n] / scale[:n]]))
        jac[:, i] = (images[0] - images[1]) / (2.0 * h)
    return jac


class PairRowFlow:
    """The flow core on real rows y = [a_1..a_N, b_1..b_N], one state at a time.

    The same arithmetic as flow._VecOps on its complex rows c = a - i b,
    written out on the cosine and sine parts: u^2/2 on the 5-smooth padded
    grid, the rotation a cos - b sin, a sin + b cos, rk4 and the implicit
    midpoint fixed point.  Every result must match the package bit for bit.
    """

    def __init__(self, n, linear_only=False):
        k = np.arange(1, n + 1, dtype=float)
        self.n = n
        self.phi = k / (1.0 + k * k)
        self.zw = math.pi * (1.0 + k * k) / k
        self.m_pad = smooth_grid_size(3 * n + 1)
        self.linear_only = linear_only

    def rhs(self, y):
        n, m = self.n, self.m_pad
        wa, wb = y[:n], y[n:]
        if not self.linear_only:
            spec = np.zeros(m // 2 + 1, dtype=complex)
            spec[1:n + 1] = 0.5 * m * (wa - 1j * wb)
            vals = np.fft.irfft(spec, m)
            prod = np.fft.rfft(vals * vals)
            wa = wa + prod[1:n + 1].real / m
            wb = wb + prod[1:n + 1].imag / -m
        return np.concatenate([-self.phi * wb, self.phi * wa])

    def free(self, y, t):
        th = t * self.phi
        c, s = np.cos(th), np.sin(th)
        a, b = y[:self.n], y[self.n:]
        return np.concatenate([a * c - b * s, a * s + b * c])

    def rk4(self, y, h):
        k1 = self.rhs(y)
        k2 = self.rhs(y + 0.5 * h * k1)
        k3 = self.rhs(y + 0.5 * h * k2)
        k4 = self.rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def midpoint(self, y, h, tol):
        z = y + h * self.rhs(y)
        for _ in range(100):
            z_new = y + h * self.rhs(0.5 * (y + z))
            d = z_new - z
            delta = math.sqrt(np.sum(self.zw * (d[:self.n] ** 2 + d[self.n:] ** 2)))
            z = z_new
            if not delta > tol:
                return z
        raise RuntimeError("reference midpoint iteration stalled")

    def integrate(self, state, t_span, dt, integrator="rk4", tol=1e-12):
        """Final (a, b) after ceil(|t_span| / dt) equal steps from state."""
        n_steps = max(1, math.ceil(abs(t_span) / dt))
        h = t_span / n_steps
        y = np.concatenate([state.a, state.b])
        for _ in range(n_steps):
            y = self.rk4(y, h) if integrator == "rk4" else self.midpoint(y, h, tol)
        return y[:self.n], y[self.n:]
