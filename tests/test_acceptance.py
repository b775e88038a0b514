"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with the measured numbers.  Frozen regression values were
produced by this implementation (fixed seeds) and guard against silent
drift; the structural inequalities are the primary gates.
"""

import math
import time

import numpy as np
import pytest

from bbmlab.estimates import (
    estimate_constant,
    flow_jacobian,
    radial_orbit,
    smoothing_ratio,
    symplectic_defect,
)
from bbmlab.flow import FlowConfig, galerkin_defect, integrate, rhs
from bbmlab.sampling import smooth_profile, sobolev_ball_state, substream
from bbmlab.spectral import TrigState, sobolev_norm, unit_cos_mode
from bbmlab.squeeze import SqueezeConfig, maximize_image_radius

from oracles import oracle_rhs


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def bilinear_reports():
    """Criterion 5 sweeps, shared with criterion 10 (the fitted constant)."""
    reports = {}
    t0 = time.perf_counter()
    for s, r, rp in ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.5, 0.5, 0.45)):
        reports[(s, r, rp)] = estimate_constant(s, r, rp, 10_000, n_sweep=(64, 128), seed=0)
    reports["multiplier"] = estimate_constant(
        0.0, 1.0, 0.0, 10_000, n_sweep=(64, 128), mode="multiplier", seed=0
    )
    reports["elapsed"] = time.perf_counter() - t0
    return reports


def test_criterion_1_spectral_oracle():
    t0 = time.perf_counter()
    cfg = FlowConfig(N=32, dt=1e-3)
    worst = 0.0
    for i in range(100):
        u = sobolev_ball_state(substream(100, "c1", i), 32, 0.5, 1.0)
        fast = rhs(u, cfg)
        ref = oracle_rhs(u, 32)
        worst = max(worst, float(np.max(np.abs(fast.a - ref.a))), float(np.max(np.abs(fast.b - ref.b))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    assert report(1, ok, f"pseudo-spectral vs convolution max-abs {worst:.2e} over 100 states, {elapsed:.1f} s")


def test_criterion_2_worked_example():
    out = rhs(TrigState.single_mode(1, 8, a_k=1.0), FlowConfig(N=8, dt=1e-3))
    err_main = max(abs(out.b[0] - 0.5), abs(out.b[1] - 0.1))
    err_rest = float(np.max(np.abs(np.concatenate([out.a, out.b[2:]]))))
    ok = err_main < 1e-14 and err_rest < 1e-14
    assert report(2, ok, f"rhs(cos x) coefficients off by {err_main:.2e}, others {err_rest:.2e}")


def test_criterion_3_conservation():
    t0 = time.perf_counter()
    u0 = smooth_profile(64)
    u0 = (1.0 / sobolev_norm(u0, 1.0)) * u0
    res = integrate(u0, 10.0, FlowConfig(N=64, dt=1e-3), trace_every=1000)
    elapsed = time.perf_counter() - t0
    first, last = res.trace[0], res.trace[-1]
    i1_drift = last[1] - first[1]
    i2_rel = abs(last[2] - first[2]) / abs(first[2])
    h_rel = abs(last[3] - first[3]) / abs(first[3])
    ok = i1_drift == 0.0 and i2_rel < 1e-8 and h_rel < 1e-8 and elapsed < 30.0
    assert report(
        3,
        ok,
        f"I1 drift {i1_drift!r}, I2 rel {i2_rel:.2e}, H rel {h_rel:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_symplecticity():
    t0 = time.perf_counter()
    cfg = FlowConfig(N=8, dt=5e-3, integrator="implicit_midpoint", midpoint_tol=1e-13)
    u0 = sobolev_ball_state(substream(7, "symp"), 8, 0.5, 0.5, decay=2.0)
    defect = symplectic_defect(flow_jacobian(u0, 1.0, 8, 1e-4, cfg))
    defect0 = symplectic_defect(flow_jacobian(TrigState.zero(8), 1.0, 8, 1e-4, cfg, check_step=False))
    elapsed = time.perf_counter() - t0
    ok = defect < 1e-5 and defect0 < 1e-8 and elapsed < 60.0
    assert report(4, ok, f"defect {defect:.2e} (random u0), {defect0:.2e} (u0 = 0), {elapsed:.1f} s")


def test_criterion_5_bilinear_constants(bilinear_reports):
    details = []
    ok = bilinear_reports["elapsed"] < 300.0
    for key, rep in bilinear_reports.items():
        if key == "elapsed":
            continue
        lo, hi = rep.sweep[64].ratio, rep.sweep[128].ratio
        growth = hi / lo - 1.0
        ok = ok and growth < 0.10
        label = "L3.2" if key == "multiplier" else f"{key}"
        details.append(f"{label}: max {hi:.4f} growth {growth:+.1%}")
    assert report(5, ok, "; ".join(details) + f"; {bilinear_reports['elapsed']:.0f} s")


# Produced by this implementation (seed 0); guards against silent drift.
FROZEN_CELL_05_1 = 1.0002003208


def test_criterion_6_nonsqueezing_grid():
    t0 = time.perf_counter()
    details = []
    ok = True
    for r in (0.5, 1.0):
        for n0 in (1, 2, 3):
            cfg = SqueezeConfig(
                r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=0.02), n_starts=16,
                max_ascent_iters=12, stall_tol=1e-5, seed=0,
            )
            rep = maximize_image_radius(cfg)
            ratio = rep.achieved_radius / r
            ok = ok and ratio >= 0.95
            details.append(f"(r={r},n0={n0}): {ratio:.4f}r")
            lin = maximize_image_radius(
                SqueezeConfig(
                    r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=0.02, linear_only=True),
                    n_starts=4, max_ascent_iters=4, seed=0,
                )
            )
            ok = ok and abs(lin.achieved_radius / r - 1.0) < 1e-9
            if r == 0.5 and n0 == 1:
                ok = ok and abs(ratio - FROZEN_CELL_05_1) < 1e-3 * FROZEN_CELL_05_1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    assert report(6, ok, "; ".join(details) + f"; calibration exact; {elapsed:.0f} s")


# Produced by this implementation (deterministic); loose 1% band.
FROZEN_DEFECTS = {8: 1.72173671e-3, 16: 3.68357681e-4, 32: 1.79055876e-6}


def test_criterion_7_galerkin_defect():
    u0 = smooth_profile(128)
    cfg = FlowConfig(N=128, dt=1e-3)
    defects = {n: galerkin_defect(u0, 1.0, n, cfg) for n in (8, 16, 32)}
    ok = defects[8] > defects[16] > defects[32]
    ok = ok and defects[32] < 0.1 * defects[8]
    for n, frozen in FROZEN_DEFECTS.items():
        ok = ok and abs(defects[n] - frozen) < 0.01 * frozen
    assert report(
        7,
        ok,
        "defects " + ", ".join(f"N={n}: {d:.4e}" for n, d in defects.items()),
    )


def test_criterion_8_smoothing():
    t0 = time.perf_counter()
    eps = 1.0 / 24.0
    maxima = {}
    for n_modes in (32, 64):
        cfg = FlowConfig(N=n_modes, dt=0.01)
        worst = 0.0
        for i in range(100):
            rng = substream(5, "c8", i)
            u0 = sobolev_ball_state(substream(5, "c8u", i), 32, 0.5, float(rng.uniform(0.3, 1.0)))
            v0 = sobolev_ball_state(substream(5, "c8v", i), 32, 0.5, float(rng.uniform(0.3, 1.0)))
            val = smoothing_ratio(u0, v0, 1.0, eps, cfg)
            if not math.isfinite(val):
                worst = float("inf")
                break
            worst = max(worst, val)
        maxima[n_modes] = worst
    stable = math.isfinite(maxima[64]) and abs(maxima[64] / maxima[32] - 1.0) < 0.10

    v0 = sobolev_ball_state(substream(9, "pert"), 32, 0.5, 0.8)
    cfg32 = FlowConfig(N=32, dt=0.01)
    r1 = smoothing_ratio(v0 + 1e-6 * unit_cos_mode(3, 32), v0, 1.0, eps, cfg32)
    r2 = smoothing_ratio(v0 + 5e-7 * unit_cos_mode(3, 32), v0, 1.0, eps, cfg32)
    pert_stable = 0.5 < r1 / r2 < 2.0
    elapsed = time.perf_counter() - t0
    ok = stable and pert_stable
    assert report(
        8,
        ok,
        f"max ratio N=32: {maxima[32]:.4f}, N=64: {maxima[64]:.4f}; "
        f"perturbation halving ratio {r1 / r2:.3f}; {elapsed:.0f} s",
    )


def test_criterion_9_radial_orbit_periods():
    details = []
    ok = True
    for fprime in (0.1, 0.5, 1.0, 2.0, 3.0):
        period, drift = radial_orbit(fprime, 2, 0.5)
        ok = ok and abs(period * fprime - math.pi) < 1e-5 and period > 1.0 and drift < 1e-9
        details.append(f"f'={fprime}: T*f'={period * fprime:.7f}")
    assert report(9, ok, "; ".join(details))


def test_criterion_10_picard_contraction(bilinear_reports):
    t0 = time.perf_counter()
    c_hat = max(v.ratio for v in bilinear_reports[(0.5, 0.5, 0.5)].sweep.values())
    worst_ratio = 0.0
    worst_dist = 0.0
    for i in range(50):
        rng = substream(42, "c10", i)
        rho = float(rng.uniform(0.1, 2.0))
        u0 = sobolev_ball_state(substream(42, "c10u", i), 32, 0.5, rho)
        h = 1.0 / (4.0 * c_hat * rho)
        cfg = FlowConfig(N=32, dt=h, integrator="picard", picard_max_iter=200)
        res = integrate(u0, h, cfg)
        diffs = res.picard_diffs[0]
        ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
        worst_ratio = max(worst_ratio, max(ratios))
        ref = integrate(u0, h, FlowConfig(N=32, dt=min(2e-3, h / 100.0))).final
        worst_dist = max(worst_dist, sobolev_norm(res.final - ref, 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst_ratio < 1.0 and worst_dist < 1e-7
    assert report(
        10,
        ok,
        f"C_hat {c_hat:.4f}; worst successive-difference ratio {worst_ratio:.3f}; "
        f"worst X^0 distance to rk4 {worst_dist:.2e}; {elapsed:.0f} s",
    )
