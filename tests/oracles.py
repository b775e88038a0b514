"""Independent slow-path oracles for the spectral operations.

Everything here but reference_estimate, reference_flow_jacobian,
reference_smoothing_ratio, reference_maximize_image_radius, fd_gradients,
reference_ball_image_scan, tangent_linear, stagewise_rk4, stagewise_rk4_adjoint and
PairRowFlow works from the
definitions (convolution sums, Riemann quadrature, trig calculus) without
touching the package's FFT paths, so the fast implementations can be checked
against it at 1e-12.  reference_estimate is the pair-by-pair loop the batched
estimate sweep must reproduce bit for bit, reference_flow_jacobian the
state-by-state bump loop flow_jacobian must reproduce bit for bit,
reference_smoothing_ratio the segment-by-segment loop of public flow calls
smoothing_ratio must reproduce exactly, reference_maximize_image_radius the
start-by-start ascent the lock-step witness search must reproduce bit for
bit, and PairRowFlow the real-row flow core the complex-row one must
reproduce bit for bit.  fd_gradients is the central-difference gradient the
witness search's adjoint gradient must match to O(h^2),
reference_ball_image_scan the image radii of random sphere points that any
witness search must reach, tangent_linear the forward derivative of a
taped flow that its adjoint must transpose, and stagewise_rk4 and
stagewise_rk4_adjoint the rk4 step and its transpose stage by stage, on the
package's own rhs kernels, which the fused steps must match to rounding.
"""

import logging
import math
import time

import numpy as np

from bbmlab import flow
from bbmlab.estimates import bilinear_ratio, multiplier_ratio
from bbmlab.flow import FlowError, free_evolution, integrate, integrate_batch, integrate_taped
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
from bbmlab.squeeze import SqueezeReport, _gradients, _radii

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


def oracle_synthesize(u: TrigState, m: int) -> np.ndarray:
    """Direct sum of the modes at x_j = 2 pi j / m: mean + sum_k a_k cos(k x_j) + b_k sin(k x_j)."""
    x = 2.0 * np.pi * np.arange(m) / m
    kx = np.outer(np.arange(1, u.n_modes + 1), x)
    return u.mean + u.a @ np.cos(kx) + u.b @ np.sin(kx)


def oracle_analyze(values: np.ndarray, n_modes: int) -> TrigState:
    """Trapezoid-exact quadrature coefficients: a_k = (2/M) sum_j u_j cos(k x_j)."""
    m = len(values)
    x = 2.0 * np.pi * np.arange(m) / m
    mean = float(np.mean(values))
    a = np.array([2.0 / m * np.sum(values * np.cos(k * x)) for k in range(1, n_modes + 1)])
    b = np.array([2.0 / m * np.sum(values * np.sin(k * x)) for k in range(1, n_modes + 1)])
    return TrigState(mean, a, b)


def oracle_apply_J(state: TrigState) -> TrigState:
    """The complex structure J: (p_n, q_n) -> (q_n, -p_n), so (a_n, b_n) -> (b_n, -a_n)."""
    return TrigState(0.0, state.b.copy(), -state.a)


def oracle_z_inner(u: TrigState, v: TrigState) -> float:
    """Inner product of the Z norm: pi sum_k ((1+k^2)/k)(a_k a'_k + b_k b'_k)."""
    n = max(u.n_modes, v.n_modes)
    u, v = u.padded(n), v.padded(n)
    k = np.arange(1, n + 1, dtype=float)
    return float(np.sum(math.pi * (1.0 + k * k) / k * (u.a * v.a + u.b * v.b)))


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


def reference_smoothing_ratio(u0, v0, t_span, eps, cfg, n_times=32):
    """smoothing_ratio as a loop of n_times segments over the public flow functions.

    Both states are flowed segment by segment as one integrate_batch call each,
    every endpoint row is rotated back to time 0 by free_evolution, and the
    running sup of the H^{1/2+eps} quotient is kept.
    """
    denom = sobolev_norm(u0 - v0, 0.5 - eps)
    c = c0 = np.array([u.padded(cfg.N).row for u in (u0, v0)])
    best, dt_seg = 0.0, t_span / n_times
    for i in range(1, n_times + 1):
        c = integrate_batch(c, dt_seg, cfg)
        nl = np.array([free_evolution(TrigState.from_row(row), -i * dt_seg).row for row in c]) - c0
        best = max(best, float(sobolev_norms(0.0, nl[0] - nl[1], 0.5 + eps)) / denom)
    return best


def reference_maximize_image_radius(cfg):
    """maximize_image_radius with its starts run one after another.

    Each start ascends alone to its end before the next one begins: its
    seed and each line-search candidate are flowed as a one-row taped
    batch, and each gradient is the one-row reverse pass over the tape of
    its current point.  A start whose seed flow fails, or whose gradient
    turns non-finite, is abandoned, with the log messages of the search.
    """
    t_begin = time.perf_counter()
    center_state = (cfg.center or TrigState.zero(cfg.flow.N)).padded(cfg.flow.N)
    center = center_state.row
    na = cfg.n_active
    alpha0 = 0.05 * cfg.r

    def reproject(x):
        return (cfg.r / float(np.linalg.norm(x))) * x

    def flow_point(x):
        """Image radius, final row and tape of x; radius nan where its flow fails."""
        try:
            final, tape = integrate_taped(center + pair_rows(x[None], cfg.flow.N), cfg.T, cfg.flow)
        except FlowError:
            return float("nan"), None, None
        p, q = pair_coords(final, cfg.n0)[0, [cfg.n0 - 1, -1]].tolist()
        return math.hypot(p - cfg.cyl_center[0], q - cfg.cyl_center[1]), final, tape

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
        val, final, tape = flow_point(x)
        if not math.isfinite(val):
            log.warning("start %d abandoned: non-finite objective at the seed", start_id)
            trajectories.append(((0, float("nan")),))
            continue
        traj = [(0, val)]
        alpha = alpha0
        gains = []
        abandoned = False
        for it in range(1, cfg.max_ascent_iters + 1):
            grad = _gradients([val], final, tape, cfg)[0]
            if not np.isfinite(grad).all():
                log.warning("start %d abandoned at iteration %d: gradient turned non-finite "
                            "in the reverse pass", start_id, it)
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
                cand_val, cand_final, cand_tape = flow_point(cand)
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
            x, val, final, tape = cand, cand_val, cand_final, cand_tape
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


def fd_gradients(xs, cfg, center, h):
    """Central differences of the image radius in each active coordinate of each point of xs.

    Coordinate i of point x is (R(x + h e_i) - R(x - h e_i)) / 2h with R the
    image radius of the point reprojected onto the sphere of radius cfg.r,
    so it approximates the tangential part of the gradient to O(h^2).  The
    2 len(x) perturbed points of each x are flowed as one batch.
    """
    grads = []
    for x in xs:
        points = []
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = h
            points += [x + e, x - e]
        points = np.array([(cfg.r / float(np.linalg.norm(p))) * p for p in points])
        finals = integrate_batch(center + pair_rows(points, cfg.flow.N), cfg.T, cfg.flow)
        radii = _radii(finals, cfg.n0, cfg.cyl_center)
        grads.append((radii[0::2] - radii[1::2]) / (2.0 * h))
    return grads


def reference_ball_image_scan(cfg, n_samples):
    """Image cylinder radii of n_samples uniform points of the search's sphere.

    Point i is drawn from the substream (cfg.seed, 0x5CA7, i) on the first
    cfg.n_active mode pairs around the center, and all are flowed as one
    batch: random, unoptimized data that a witness search must reach.
    """
    center = (cfg.center or TrigState.zero(cfg.flow.N)).padded(cfg.flow.N).row
    rows = center + np.array([
        z_sphere_row(substream(cfg.seed, 0x5CA7, i), cfg.r, cfg.flow.N, cfg.n_active)
        for i in range(n_samples)
    ])
    return _radii(integrate_batch(rows, cfg.T, cfg.flow), cfg.n0, cfg.cyl_center)


def tangent_linear(tape, delta, t_span, cfg):
    """The derivative of a taped flow applied to the initial perturbation rows delta.

    tape is flow.integrate_taped's.  The step's derivative is applied
    forward with np.fft: D f(c) v = -i phi (v + P_N(u v)), u the taped grid
    values; rk4 by its four stages, the implicit midpoint by iterating
    dz = dy + dt/2 J (dy + dz) until it stops changing.
    """
    rows, n_steps, _, m = tape.shape
    n = delta.shape[-1]
    k = np.arange(1, n + 1, dtype=float)
    gen = -1j * k / (1.0 + k * k)
    dt = t_span / n_steps if n_steps else 0.0

    def jac(u, v):
        if not m:
            return gen * v
        spec = np.zeros(v.shape[:-1] + (m // 2 + 1,), dtype=complex)
        spec[..., 1:n + 1] = 0.5 * m * v
        prod = np.fft.rfft(u * np.fft.irfft(spec, m), axis=-1)[..., 1:n + 1] * (2.0 / m)
        return gen * (v + prod)

    d = np.array(delta, dtype=complex)
    for i in range(n_steps):
        u = tape[:, i]
        if cfg.integrator == "rk4":
            k1 = jac(u[:, 0], d)
            k2 = jac(u[:, 1], d + 0.5 * dt * k1)
            k3 = jac(u[:, 2], d + 0.5 * dt * k2)
            k4 = jac(u[:, 3], d + dt * k3)
            d = d + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            z = d
            for _ in range(200):
                z_new = d + 0.5 * dt * jac(u[:, 0], d + z)
                done = np.max(np.abs(z_new - z)) <= 1e-16 * np.max(np.abs(z_new))
                z = z_new
                if done:
                    break
            d = z
    return d


def stagewise_rk4(c, t_span, cfg):
    """integrate_batch's rk4 rows by the stagewise step rk4 took before it folded L into tables.

    Each stage applies the whole rhs, the bound kernel L P(y) (L y for linear_only), whose
    arithmetic is unchanged: k1 = f(y), k2 = f(y + dt/2 k1), k3 = f(y + dt/2 k2), k4 = f(y +
    dt k3), y + dt/6 ((k1 + 2 k2) + 2 k3 + k4), the scalars 0-d complex arrays.  The rounding
    differs from rk4_step's, not the map.
    """
    ops = flow._VecOps.of(cfg)
    y = ops.pad(np.asarray(c, complex))
    n_steps = math.ceil(abs(t_span) / cfg.dt)
    dt = t_span / max(n_steps, 1)
    f = ops.bind(y.shape[:-1]).rhs
    half, whole, two, sixth = (np.array(s, complex) for s in (0.5 * dt, dt, 2.0, dt / 6.0))
    k1, k2, k3, k4, x = np.empty((5,) + y.shape, complex)
    for _ in range(n_steps):
        f(y, k1)
        f(np.add(y, np.multiply(half, k1, out=x), out=x), k2)
        f(np.add(y, np.multiply(half, k2, out=x), out=x), k3)
        f(np.add(y, np.multiply(whole, k3, out=x), out=x), k4)
        np.add(k1, np.multiply(two, k2, out=k2), out=k1)
        np.add(k1, np.multiply(two, k3, out=k3), out=k1)
        np.add(y, np.multiply(sixth, np.add(k1, k4, out=k1), out=k1), out=y)
    return y[..., ops.modes]


def stagewise_rk4_adjoint(tape, lam, t_span, cfg):
    """adjoint_batch's rk4 rows by the stagewise transpose it took before the fused one.

    With A_s the bound adjoint rhs at stage s (lam -> mu + P_N(u_s w), mu = i phi lam, masked
    at every stage), the stage cotangents are l4 = A4(dt/6 lam), l3 = A3(dt/3 lam + dt l4), l2
    = A2(dt/3 lam + dt/2 l3), l1 = A1(dt/6 lam + dt/2 l2), and lam gains l1, l2, l3, l4 in
    turn.  A linear_only flow's tape is empty and A_s is lam -> i phi lam.
    """
    ops = flow._VecOps.of(cfg)
    lam = ops.pad(np.asarray(lam, complex))
    n_steps = tape.shape[1]
    dt = t_span / max(n_steps, 1)
    adjoint = ops.bind(lam.shape[:-1]).rhs_adjoint
    half, whole, sixth, third = (np.array(s, complex) for s in (0.5 * dt, dt, dt / 6.0, dt / 3.0))
    work = np.empty((6,) + lam.shape, complex)
    l1, l2, l3, l4, x, y = work
    for i in reversed(range(n_steps)):
        u = tape[:, i]
        adjoint(np.multiply(sixth, lam, out=x), u[:, 3], l4)
        for s, weight, step, later in ((2, third, whole, l4), (1, third, half, l3),
                                       (0, sixth, half, l2)):
            np.add(np.multiply(weight, lam, out=x), np.multiply(step, later, out=y), out=x)
            adjoint(x, u[:, s], work[s])
        for stage_cotangent in (l1, l2, l3, l4):
            np.add(lam, stage_cotangent, out=lam)
    return lam[..., ops.modes]


class PairRowFlow:
    """The flow core on real rows y = [a_1..a_N, b_1..b_N], one state at a time.

    The same arithmetic as flow._VecOps on its complex rows c = a - i b,
    written out on the cosine and sine parts: u^2/2 on the 5-smooth padded
    grid (c_k itself in the half spectrum, the inverse FFT at 0.5 times
    np.fft's norm="forward" scale, the forward one at that scale), the
    rotation a cos - b sin, a sin + b cos, rk4 and the implicit midpoint
    fixed point.  rk4 takes P(y) = y + u^2/2 at each stage and applies the
    linear symbol L = -i phi through the tables s L = -i (s phi): (s L) P is
    [-(s phi) P_b, (s phi) P_a], a stage input y + (a L) P and the step
    y + ((h/6 L)(P1 + P4) + (h/3 L)(P2 + P3)).  A linear_only rk4 step
    multiplies by R(h L), R(z) = 1 + z(1 + z(1/2 + z(1/6 + z/24))), built
    here on real parts from z = i theta, theta = -(h phi); that one product
    of two complex numbers is numpy's complex multiply, which may fuse
    multiply-adds.  Every result must match the package bit for bit.
    """

    def __init__(self, n, linear_only=False):
        k = np.arange(1, n + 1, dtype=float)
        self.n = n
        self.phi = k / (1.0 + k * k)
        self.zw = math.pi * (1.0 + k * k) / k
        self.m_pad = smooth_grid_size(3 * n + 1)
        self.linear_only = linear_only

    def flux(self, y):
        """P(y) = y + u^2/2 on the kept modes, [P_a, P_b]."""
        n, m = self.n, self.m_pad
        wa, wb = y[:n], y[n:]
        if not self.linear_only:
            spec = np.zeros(m // 2 + 1, dtype=complex)
            spec[1:n + 1] = wa - 1j * wb
            vals = 0.5 * np.fft.irfft(spec, m, norm="forward")
            prod = np.fft.rfft(vals * vals, norm="forward")
            wa = wa + prod[1:n + 1].real
            wb = wb - prod[1:n + 1].imag
        return np.concatenate([wa, wb])

    def linear(self, s, p):
        """(s L) p: [-(s phi) p_b, (s phi) p_a]."""
        w = s * self.phi
        return np.concatenate([-(w * p[self.n:]), w * p[:self.n]])

    def rhs(self, y):
        return self.linear(1.0, self.flux(y))

    def free(self, y, t):
        th = t * self.phi
        c, s = np.cos(th), np.sin(th)
        a, b = y[:self.n], y[self.n:]
        return np.concatenate([a * c - b * s, a * s + b * c])

    def amplification(self, h):
        """R(h L) per mode, as a complex array: Horner's rule on real parts, z = i theta."""
        theta = -(h * self.phi)
        re, im = np.full(self.n, 1.0 / 6.0), theta * (1.0 / 24.0)
        for a in (0.5, 1.0, 1.0):
            re, im = a - theta * im, theta * re
        r = np.empty(self.n, complex)
        r.real, r.imag = re, im
        return r

    def rk4(self, y, h):
        if self.linear_only:
            c = self.amplification(h) * (y[:self.n] - 1j * y[self.n:])  # TrigState.row's c
            return np.concatenate([c.real, 0.0 - c.imag])  # and TrigState.from_row's b
        p1 = self.flux(y)
        p2 = self.flux(y + self.linear(0.5 * h, p1))
        p3 = self.flux(y + self.linear(0.5 * h, p2))
        p4 = self.flux(y + self.linear(h, p3))
        return y + (self.linear(h / 6.0, p1 + p4) + self.linear(h / 3.0, p2 + p3))

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
        """Final (a, b) after ceil(|t_span| / dt) equal steps from state, none at t_span = 0."""
        n_steps = math.ceil(abs(t_span) / dt)
        h = t_span / max(n_steps, 1)
        y = np.concatenate([state.a, state.b])
        for _ in range(n_steps):
            y = self.rk4(y, h) if integrator == "rk4" else self.midpoint(y, h, tol)
        return y[:self.n], y[self.n:]
