import math
import warnings

import numpy as np
import pytest

from bbmlab.estimates import (
    bilinear_ratio,
    canonical_form_matrix,
    check_exponents,
    estimate_constant,
    exact_product,
    flow_jacobian,
    multiplier_ratio,
    radial_orbit,
    smoothing_ratio,
    symplectic_defect,
)
from bbmlab.flow import FlowConfig
from bbmlab.sampling import sobolev_ball_state, substream
from bbmlab.spectral import TrigState, dispersion_symbol, unit_cos_mode

from conftest import random_state
from oracles import oracle_product


class TestBilinearRatio:
    def test_hand_computed_cos_case(self):
        # u = v = cos x: phi(D)(u v) = (1/5) cos 2x, so the L2 ratio is 1/(5 sqrt(pi)).
        u = TrigState.single_mode(1, 1, a_k=1.0)
        got = bilinear_ratio(u, u, 0.0, 0.0, 0.0)
        assert abs(got - 1.0 / (5.0 * math.sqrt(math.pi))) < 1e-15

    def test_scaling_invariance(self):
        u = random_state(1, 12)
        v = random_state(2, 12)
        base = bilinear_ratio(u, v, 0.5, 0.5, 0.5)
        scaled = bilinear_ratio(3.7 * u, 0.2 * v, 0.5, 0.5, 0.5)
        assert abs(base - scaled) < 1e-12 * base

    def test_symmetry_under_argument_swap(self):
        u = random_state(3, 12)
        v = random_state(4, 12)
        lhs = bilinear_ratio(u, v, 0.5, 0.5, 0.45)
        rhs = bilinear_ratio(v, u, 0.5, 0.45, 0.5)
        assert abs(lhs - rhs) < 1e-12 * lhs

    def test_zero_rejected(self):
        u = random_state(5, 4)
        with pytest.raises(ValueError, match="nonzero"):
            bilinear_ratio(TrigState.zero(4), u, 0.0, 0.0, 0.0)

    def test_product_matches_convolution_oracle(self):
        u = random_state(6, 10)
        v = random_state(7, 10)
        fast = exact_product(u, v)
        ref = oracle_product(u, v)
        assert abs(fast.mean - ref.mean) < 1e-13
        assert np.max(np.abs(fast.a - ref.a)) < 1e-12
        assert np.max(np.abs(fast.b - ref.b)) < 1e-12

    @pytest.mark.parametrize("n_modes", [64, 128])
    def test_product_on_5_smooth_grid_matches_oracle(self, n_modes):
        # 2 n_out + 1 = 257 at N = 64 is prime; the product pads to 270.
        u = random_state(8, n_modes)
        v = random_state(9, n_modes)
        fast = exact_product(u, v)
        ref = oracle_product(u, v)
        assert abs(fast.mean - ref.mean) < 1e-12
        assert np.max(np.abs(fast.a - ref.a)) < 1e-12
        assert np.max(np.abs(fast.b - ref.b)) < 1e-12

    def test_multiplier_ratio_hand_case(self):
        # u = v = cos x, r = 1, s = 0: ||phi(D)(uv)||_{H^1} = sqrt(pi/5),
        # denominator sqrt(2 pi) sqrt(pi), so the ratio is 1/sqrt(10 pi).
        u = TrigState.single_mode(1, 1, a_k=1.0)
        got = multiplier_ratio(u, u, 0.0, 1.0)
        assert abs(got - 1.0 / math.sqrt(10.0 * math.pi)) < 1e-15


class TestExponentChecks:
    def test_admissible_triples_pass(self):
        check_exponents(0.0, 0.0, 0.0)
        check_exponents(0.5, 0.5, 0.5)
        check_exponents(0.5, 0.5, 0.45)
        check_exponents(0.0, 1.0, 0.0, mode="multiplier")

    def test_gap_violation_named(self):
        with pytest.raises(ValueError, match=r"2s - r - r' < 1/4"):
            check_exponents(0.5, 0.5, 0.2)

    def test_order_violations_named(self):
        with pytest.raises(ValueError, match="r <= s"):
            check_exponents(0.5, 0.7, 0.5)
        with pytest.raises(ValueError, match="0 <= r"):
            check_exponents(0.5, -0.1, 0.5)
        with pytest.raises(ValueError, match="r > 1/2"):
            check_exponents(0.0, 0.4, 0.0, mode="multiplier")


class TestEstimateConstant:
    def test_monotone_in_sample_count(self):
        small = estimate_constant(0.5, 0.5, 0.5, 40, n_sweep=(16,), seed=3)
        large = estimate_constant(0.5, 0.5, 0.5, 80, n_sweep=(16,), seed=3)
        assert large.max_ratio >= small.max_ratio

    def test_report_fields(self):
        rep = estimate_constant(0.5, 0.5, 0.5, 30, n_sweep=(16, 32), seed=1)
        assert set(rep.sweep) == {16, 32}
        assert rep.n_samples == 30
        assert 0 <= rep.argmax_seed < 30

    def test_multiplier_mode_bounded_by_symbol(self):
        # ||phi(D) f||_{H^{s+1}} <= ||f||_{H^s}, so the mode ratio is at most
        # the multiplier-inequality constant of the product bound.
        rep = estimate_constant(0.0, 1.0, 0.0, 50, n_sweep=(16, 32), mode="multiplier", seed=2)
        assert rep.max_ratio < 5.0

    def test_adversarial_sampler_runs(self):
        rep = estimate_constant(0.5, 0.5, 0.5, 40, n_sweep=(16, 32), sampler="adversarial")
        assert rep.max_ratio > 0.0

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            estimate_constant(0.5, 0.5, 0.2, 10)


class TestSmoothingRatio:
    def test_zero_horizon(self):
        u = random_state(1, 8)
        v = random_state(2, 8)
        assert smoothing_ratio(u, v, 0.0, 1.0 / 24.0, FlowConfig(N=8, dt=1e-2)) == 0.0

    def test_eps_range_enforced(self):
        u = random_state(1, 8)
        v = random_state(2, 8)
        cfg = FlowConfig(N=8, dt=1e-2)
        for bad in (0.0, 1.0 / 12.0, 0.5):
            with pytest.raises(ValueError, match="eps"):
                smoothing_ratio(u, v, 1.0, bad, cfg)

    def test_identical_states_rejected(self):
        u = random_state(1, 8)
        with pytest.raises(ValueError, match="distinct"):
            smoothing_ratio(u, u, 1.0, 1.0 / 24.0, FlowConfig(N=8, dt=1e-2))

    def test_linearized_regime_stable(self):
        v0 = sobolev_ball_state(substream(9, "pert"), 16, 0.5, 0.8)
        cfg = FlowConfig(N=16, dt=1e-2)
        r1 = smoothing_ratio(v0 + 1e-6 * unit_cos_mode(3, 16), v0, 1.0, 1.0 / 24.0, cfg)
        r2 = smoothing_ratio(v0 + 5e-7 * unit_cos_mode(3, 16), v0, 1.0, 1.0 / 24.0, cfg)
        assert math.isfinite(r1) and r1 > 0.0
        assert 0.5 < r1 / r2 < 2.0


class TestFlowJacobian:
    def test_identity_at_zero_horizon(self):
        u0 = random_state(1, 8, radius=0.4)
        jac = flow_jacobian(u0, 0.0, 4, 1e-4, FlowConfig(N=8, dt=1e-2), check_step=False)
        assert np.max(np.abs(jac - np.eye(8))) < 1e-9

    def test_linear_flow_rotation_blocks(self):
        cfg = FlowConfig(N=8, dt=1e-3)
        jac = flow_jacobian(TrigState.zero(8), 0.7, 4, 1e-4, cfg, check_step=False)
        th = 0.7 * dispersion_symbol(np.arange(1.0, 5.0))
        c, s = np.diag(np.cos(th)), np.diag(np.sin(th))
        expected = np.block([[c, -s], [s, c]])
        assert np.max(np.abs(jac - expected)) < 1e-9

    def test_linear_flow_defect_tiny(self):
        cfg = FlowConfig(N=6, dt=5e-3, integrator="implicit_midpoint", midpoint_tol=1e-13)
        jac = flow_jacobian(TrigState.zero(6), 1.0, 6, 1e-4, cfg, check_step=False)
        assert symplectic_defect(jac) < 1e-8

    def test_midpoint_defect_small_at_random_state(self):
        u0 = sobolev_ball_state(substream(7, "symp"), 6, 0.5, 0.5, decay=2.0)
        cfg = FlowConfig(N=6, dt=5e-3, integrator="implicit_midpoint", midpoint_tol=1e-13)
        jac = flow_jacobian(u0, 0.5, 6, 1e-4, cfg, check_step=False)
        assert symplectic_defect(jac) < 1e-5

    def test_step_bounds_enforced(self):
        u0 = random_state(2, 8)
        cfg = FlowConfig(N=8, dt=1e-2)
        with pytest.raises(ValueError, match="outside"):
            flow_jacobian(u0, 0.1, 2, 1e-7, cfg)
        with pytest.raises(ValueError, match="8"):
            flow_jacobian(random_state(3, 16), 0.1, 9, 1e-4, FlowConfig(N=16, dt=1e-2))

    def test_step_check_quiet_on_smooth_flow(self):
        u0 = random_state(4, 4, radius=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flow_jacobian(u0, 0.2, 2, 1e-4, FlowConfig(N=4, dt=1e-2), check_step=True)

    def test_canonical_form_matches_structure(self):
        omega = canonical_form_matrix(3)
        assert np.all(omega.T == -omega)
        # J in pair coordinates: (p, q) -> (q, -p); omega = <J ., .> gives [[0,-I],[I,0]].
        assert np.all(omega[:3, 3:] == -np.eye(3))


class TestRadialOrbit:
    def test_half_pi_period_two(self):
        period = radial_orbit(math.pi / 2.0, 1, 0.5)[0]
        assert abs(period - 2.0) < 1e-6

    def test_period_exceeds_one_near_boundary(self):
        period = radial_orbit(0.999 * math.pi, 1, 0.3)[0]
        assert period > 1.0
        assert abs(period * 0.999 * math.pi - math.pi) < 1e-5 * math.pi

    def test_shell_conservation(self):
        _, drift = radial_orbit(1.3, 3, 0.7)
        assert drift < 1e-9

    @pytest.mark.parametrize("fprime", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_period_times_fprime_is_pi(self, fprime):
        period = radial_orbit(fprime, 2, 0.5)[0]
        assert abs(period * fprime - math.pi) < 1e-5

    def test_range_guards(self):
        with pytest.raises(ValueError, match="fprime"):
            radial_orbit(3.5, 1, 0.5)
        with pytest.raises(ValueError, match="radius2"):
            radial_orbit(1.0, 1, 1.5)


class TestSamplerDeterminism:
    def test_same_path_same_draw(self):
        u1 = sobolev_ball_state(substream(5, "x", 3), 16, 0.5, 1.0)
        u2 = sobolev_ball_state(substream(5, "x", 3), 16, 0.5, 1.0)
        assert np.all(u1.a == u2.a) and np.all(u1.b == u2.b)

    def test_different_paths_differ(self):
        u1 = sobolev_ball_state(substream(5, "x", 3), 16, 0.5, 1.0)
        u2 = sobolev_ball_state(substream(5, "x", 4), 16, 0.5, 1.0)
        assert np.max(np.abs(u1.a - u2.a)) > 1e-6
