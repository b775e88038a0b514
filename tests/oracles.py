"""Independent slow-path oracles for the spectral operations.

Everything here but reference_estimate, reference_flow_jacobian,
reference_maximize_image_radius and PairRowFlow works from the definitions
(convolution sums, Riemann quadrature, trig calculus) without touching the
package's FFT paths, so the fast implementations can be checked against it
at 1e-12.
reference_estimate is the pair-by-pair loop the batched estimate sweep must
reproduce bit for bit, reference_flow_jacobian the state-by-state bump loop
flow_jacobian must reproduce bit for bit, reference_maximize_image_radius
the start-by-start ascent the lock-step witness search must reproduce bit
for bit, and PairRowFlow the real-row flow core the complex-row one must
reproduce bit for bit.
"""

import logging
import math
import time

import numpy as np

from bbmlab.estimates import bilinear_ratio, multiplier_ratio
from bbmlab.flow import FlowError, integrate, integrate_batch
from bbmlab.sampling import sobolev_ball_state, substream, z_sphere_row
from bbmlab.spectral import (
    TrigState,
    basis_scale,
    pair_coords,
    pair_rows,
    smooth_grid_size,
    sobolev_norm,
    sobolev_norms,
)
from bbmlab.squeeze import SqueezeReport

log = logging.getLogger("bbmlab.squeeze")


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


def reference_maximize_image_radius(cfg):
    """maximize_image_radius with its starts run one after another.

    Each start ascends alone to its end before the next one begins: its
    seed and each line-search candidate are flowed as a one-row batch, and
    each gradient's 4 n_active perturbed points as one batch of their own.
    A start whose seed or gradient flow fails is abandoned, with the log
    messages of the search.
    """
    t_begin = time.perf_counter()
    center_state = (cfg.center or TrigState.zero(cfg.flow.N)).padded(cfg.flow.N)
    center = center_state.row
    na = cfg.n_active
    alpha0 = cfg.ascent_step if cfg.ascent_step is not None else 0.05 * cfg.r

    def reproject(x):
        return (cfg.r / float(np.linalg.norm(x))) * x

    def image_radii(points):
        finals = integrate_batch(center + pair_rows(points, cfg.flow.N), cfg.T, cfg.flow)
        pq = pair_coords(finals, cfg.n0)
        return np.array([math.hypot(p - cfg.cyl_center[0], q - cfg.cyl_center[1])
                         for p, q in zip(pq[:, cfg.n0 - 1].tolist(), pq[:, -1].tolist())])

    def objective(x):
        try:
            return float(image_radii(x[None])[0])
        except FlowError:
            return float("nan")

    def fd_gradient(x):
        points = []
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = cfg.fd_step
            points += [reproject(x + e), reproject(x - e)]
        radii = image_radii(np.array(points))
        return (radii[0::2] - radii[1::2]) / (2.0 * cfg.fd_step)

    starts = []
    seed_x = np.zeros(2 * na)
    seed_x[cfg.n0 - 1] = cfg.r
    starts.append(seed_x)
    for i in range(1, cfg.n_starts):
        draw = z_sphere_row(substream(cfg.seed, "start", i), cfg.r, cfg.flow.N, na)
        starts.append(pair_coords((center + draw) - center, na))

    trajectories = []
    finals = []
    for start_id, x in enumerate(starts):
        x = reproject(x)
        val = objective(x)
        if not math.isfinite(val):
            log.warning("start %d abandoned: non-finite objective at the seed", start_id)
            trajectories.append(((0, float("nan")),))
            continue
        traj = [(0, val)]
        alpha = alpha0
        gains = []
        abandoned = False
        for it in range(1, cfg.max_ascent_iters + 1):
            try:
                grad = fd_gradient(x)
            except FlowError as exc:
                log.warning("start %d abandoned at iteration %d: gradient flow failed: %s",
                            start_id, it, exc)
                abandoned = True
                break
            xhat = x / float(np.linalg.norm(x))
            tang = grad - float(grad @ xhat) * xhat
            if float(np.linalg.norm(tang)) == 0.0:
                break
            a = alpha
            accepted = False
            for _ in range(21):
                cand = reproject(x + a * tang)
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
    contenders = [f for f in finals if f[0] >= best_val * (1.0 - 1e-12)]
    witnesses = [
        (v, float(sobolev_norms(center_state.mean, center + pair_rows(x, cfg.flow.N), 1.0)), sid, x)
        for v, sid, x in contenders
    ]
    witnesses.sort(key=lambda t: (-t[0], t[1], t[2]))
    best_x = witnesses[0][3]
    best_witness = center_state + TrigState.from_row(pair_rows(reproject(best_x), cfg.flow.N))
    return SqueezeReport(cfg, best_witness, best_val, tuple(trajectories),
                         time.perf_counter() - t_begin)


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
