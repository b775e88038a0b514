import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab import estimates, sampling
from bbmlab.estimates import (
    _SWEEP_BATCH,
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
from bbmlab.sampling import sobolev_ball_rows, sobolev_ball_state, substream, sweep_normals
from bbmlab.spectral import MAX_MODES, TrigState, dispersion_symbol, unit_cos_mode

from conftest import random_state
from oracles import (oracle_product, reference_estimate, reference_flow_jacobian,
                     reference_smoothing_ratio)

# (sampler, mode, s, r, r') cases covering both samplers and both modes.
SWEEP_CASES = [
    ("gaussian", "bilinear", 0.5, 0.5, 0.5),
    ("gaussian", "bilinear", 0.5, 0.5, 0.45),
    ("gaussian", "multiplier", 0.0, 1.0, 0.0),
    ("adversarial", "bilinear", 0.0, 0.0, 0.0),
    ("adversarial", "multiplier", 0.0, 1.0, 0.0),
]


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

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sample_count_below_one_rejected(self, n_samples):
        # Used to run the sweep and fail writing the CSV of an empty report.
        with pytest.raises(ValueError, match=f"^n_samples must be >= 1, got {n_samples}$"):
            estimate_constant(0.5, 0.5, 0.5, n_samples, n_sweep=(16,))

    @pytest.mark.parametrize("n_modes", [0, -1, MAX_MODES + 1, 10_000_000_000_000])
    def test_truncation_outside_range_rejected(self, n_modes):
        with pytest.raises(ValueError, match=f"^N_list entry N = {n_modes} outside 1..{MAX_MODES}$"):
            estimate_constant(0.5, 0.5, 0.5, 10, n_sweep=(16, n_modes))

    def test_bad_sweep_settings_rejected(self):
        with pytest.raises(ValueError, match="N_list must name at least one truncation"):
            estimate_constant(0.5, 0.5, 0.5, 10, n_sweep=())
        with pytest.raises(ValueError, match="unknown sampler 'uniform'"):
            estimate_constant(0.5, 0.5, 0.5, 10, sampler="uniform")
        with pytest.raises(ValueError, match="adversarial sampler needs at least 2 modes"):
            estimate_constant(0.5, 0.5, 0.5, 10, n_sweep=(16, 1), sampler="adversarial")


class TestBatchedSweep:
    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(SWEEP_CASES),
        n_modes=st.integers(2, 64),
        n_samples=st.sampled_from(
            [1, _SWEEP_BATCH - 1, _SWEEP_BATCH, _SWEEP_BATCH + 1, 2 * _SWEEP_BATCH + 1]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_pair_by_pair_loop(self, case, n_modes, n_samples, seed):
        sampler, mode, s, r, rprime = case
        rep = estimate_constant(s, r, rprime, n_samples, n_sweep=(n_modes,), sampler=sampler,
                                mode=mode, seed=seed)
        got = rep.sweep[n_modes]
        want = reference_estimate(s, r, rprime, n_samples, n_modes, sampler, mode, seed)
        assert (got.seed, got.ratio, got.norm_u, got.norm_v) == want

    @pytest.mark.parametrize("mode, s, r, rprime", [
        ("bilinear", 0.5, 0.5, 0.5), ("multiplier", 0.0, 1.0, 0.0),
    ])
    def test_first_of_tied_samples_wins_across_chunks(self, mode, s, r, rprime):
        # The adversarial pairs repeat with period 2(N - 1) = 38, so every
        # ratio ties with the one 38 samples later, which lies in a later chunk.
        n_modes, period = 20, 38
        n_samples = 3 * period
        rep = estimate_constant(s, r, rprime, n_samples, n_sweep=(n_modes,),
                                sampler="adversarial", mode=mode)
        got = rep.sweep[n_modes]
        assert got.seed < period
        assert got.seed // _SWEEP_BATCH < (got.seed + period) // _SWEEP_BATCH
        assert (got.seed, got.ratio, got.norm_u, got.norm_v) == reference_estimate(
            s, r, rprime, n_samples, n_modes, "adversarial", mode, 0)

    @pytest.mark.parametrize("n_modes, reg, radius, decay", [
        (64, 0.5, 1.0, None), (17, 0.0, 0.3, 2.0), (1, 1.0, 2.5, None),
    ])
    def test_row_sampler_rows_equal_sobolev_ball_state(self, n_modes, reg, radius, decay):
        # Rows scaled from the sweep's batched draws equal states drawn from each substream.
        idx = range(_SWEEP_BATCH + 3)
        c = sobolev_ball_rows(sweep_normals(9, n_modes, idx)[:, 0], reg, radius, decay)
        for row, i in enumerate(idx):
            u = sobolev_ball_state(substream(9, n_modes, i, 0), n_modes, reg, radius, decay)
            assert np.array_equal(c[row], u.row)


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

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint", "picard"])
    @pytest.mark.parametrize("n_modes", [8, 16])
    @pytest.mark.parametrize("t_span", [1.0, -0.5, 0.0])
    def test_equals_segment_loop_reference(self, integrator, n_modes, t_span):
        # One interaction_samples pass against 32 integrate_batch segments, each endpoint
        # rotated back by free_evolution: the same number, not just a close one.
        u0 = sobolev_ball_state(substream(4, "smoothing", "u", n_modes), n_modes, 0.5, 0.9)
        v0 = sobolev_ball_state(substream(4, "smoothing", "v", n_modes), n_modes, 0.5, 0.6)
        cfg = FlowConfig(N=n_modes, dt=0.25 if integrator == "picard" else 0.05,
                         integrator=integrator)
        got = smoothing_ratio(u0, v0, t_span, 1.0 / 24.0, cfg)
        assert got == reference_smoothing_ratio(u0, v0, t_span, 1.0 / 24.0, cfg)
        assert (got == 0.0) == (t_span == 0.0)


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

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    def test_matches_trigstate_bump_loop(self, integrator):
        # Six modes padded to N = 8, so unbumped zero modes are flowed too.
        u0 = sobolev_ball_state(substream(7, "jac"), 6, 0.5, 0.5, decay=2.0)
        cfg = FlowConfig(N=8, dt=0.01, integrator=integrator, midpoint_tol=1e-13)
        jac = flow_jacobian(u0, 0.25, 4, 1e-4, cfg, check_step=False)
        want = reference_flow_jacobian(u0, 0.25, 4, 1e-4, cfg)
        assert np.array_equal(jac.view(np.uint64), want.view(np.uint64))

    def test_step_bounds_enforced(self):
        u0 = random_state(2, 8)
        cfg = FlowConfig(N=8, dt=1e-2)
        with pytest.raises(ValueError, match="outside"):
            flow_jacobian(u0, 0.1, 2, 1e-7, cfg)
        with pytest.raises(ValueError, match="8"):
            flow_jacobian(random_state(3, 16), 0.1, 9, 1e-4, FlowConfig(N=16, dt=1e-2))

    def test_active_mode_count_outside_range_named_before_any_flow(self, monkeypatch):
        # active_modes = 0 used to flow every bump and then fail in pair_coords with
        # "n_pairs = 0 outside 1..8".
        def no_flow(*args):
            raise AssertionError("flowed before checking active_modes")

        monkeypatch.setattr(estimates, "integrate_batch", no_flow)
        for active_modes, n_modes, top in ((0, 8, 8), (-2, 8, 8), (9, 16, 8), (5, 4, 4)):
            with pytest.raises(ValueError, match=re.escape(
                    f"active_modes = {active_modes} outside 1..{top}")):
                flow_jacobian(random_state(1, n_modes), 0.1, active_modes, 1e-4,
                              FlowConfig(N=n_modes, dt=1e-2))

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
        # n_pairs = 0 used to divide by zero and 10^13 to fail allocating (exit 1).
        for n_pairs in (0, MAX_MODES + 1, 10_000_000_000_000):
            with pytest.raises(ValueError, match=f"^n_pairs must lie in 1..{MAX_MODES}, got {n_pairs}$"):
                radial_orbit(1.0, n_pairs, 0.5)


class TestSamplerDeterminism:
    def test_same_path_same_draw(self):
        u1 = sobolev_ball_state(substream(5, "x", 3), 16, 0.5, 1.0)
        u2 = sobolev_ball_state(substream(5, "x", 3), 16, 0.5, 1.0)
        assert np.all(u1.a == u2.a) and np.all(u1.b == u2.b)

    def test_different_paths_differ(self):
        u1 = sobolev_ball_state(substream(5, "x", 3), 16, 0.5, 1.0)
        u2 = sobolev_ball_state(substream(5, "x", 4), 16, 0.5, 1.0)
        assert np.max(np.abs(u1.a - u2.a)) > 1e-6

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # Seeds used to be masked to 64 bits: 2^64 drew what 0 draws, -1 what 2^64 - 1 draws.
        for draw in (lambda: substream(seed, "x"), lambda: sweep_normals(seed, 8, range(2))):
            with pytest.raises(ValueError, match=rf"^seed must lie in 0..2\^64 - 1, got {seed}$"):
                draw()

    @pytest.mark.parametrize("part", [-1, 2 ** 64, 2 ** 64 + 5, np.int64(-1)])
    def test_integer_path_part_outside_64_bits_is_refused(self, part):
        # Integer path parts used to be masked to 64 bits: substream(0, "x", -1) drew what
        # 2^64 - 1 draws and substream(0, "x", 2^64) what 0 draws.
        with pytest.raises(ValueError, match=rf"^substream path part must lie in 0..2\^64 - 1, "
                                             rf"got {part}$"):
            substream(0, "x", part)

    def test_path_part_at_the_64_bit_edge_is_its_own_key(self):
        # 2^64 - 1 is the last part kept: its own SeedSequence key, apart from its neighbours.
        edge = substream(0, "x", 2 ** 64 - 1).standard_normal(8)
        want = np.random.default_rng(np.random.SeedSequence(
            0, spawn_key=(sampling._path_id("x"), 2 ** 64 - 1))).standard_normal(8)
        assert np.array_equal(edge, want)
        for other in (0, 2 ** 64 - 2, np.uint64(2 ** 64 - 2)):
            assert not np.array_equal(edge, substream(0, "x", other).standard_normal(8))
        assert np.array_equal(substream(0, "x", np.uint64(2 ** 64 - 1)).standard_normal(8), edge)


# The seed's uint32 word boundaries, where SeedSequence's entropy grows from one word to two.
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.sampled_from([2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]))


class TestSweepNormals:
    def test_sweep_keys_take_one_word_each(self):
        # sweep_normals hashes N and i as one uint32 word each, which the caps guarantee.
        assert MAX_MODES < 2 ** 32 and estimates.MAX_SAMPLES <= 2 ** 32

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(1, MAX_MODES),
           start=st.integers(0, estimates.MAX_SAMPLES - 1), length=st.integers(1, 3))
    def test_draws_equal_substream_draws(self, seed, n_modes, start, length):
        # Each key's (2, N) row equals two draws of N from its substream, a_k then b_k.
        idx = range(start, min(start + length, estimates.MAX_SAMPLES))
        got = sweep_normals(seed, n_modes, idx)
        assert got.shape == (len(idx), 2, 2, n_modes)
        for row, i in zip(got, idx):
            for j in (0, 1):
                rng = substream(seed, n_modes, i, j)
                assert np.array_equal(row[j], [rng.standard_normal(n_modes),
                                               rng.standard_normal(n_modes)])

    @pytest.mark.parametrize("n_modes, idx", [
        (0, range(1)), (2 ** 32, range(1)), (8, range(-1, 1)), (8, range(2 ** 32 - 1, 2 ** 32 + 1)),
    ])
    def test_keys_beyond_one_word_are_refused(self, n_modes, idx):
        with pytest.raises(ValueError, match="^sweep keys need 1 <= N < 2\\^32 and 0 <= i < 2\\^32"):
            sweep_normals(0, n_modes, idx)

    def test_stream_mismatch_names_numpy_version(self, monkeypatch):
        # The first call for a (seed, N) checks its key i = 0 against substream's own draws.
        monkeypatch.setattr(sampling, "substream", lambda seed, *path: np.random.default_rng(1))
        sampling._key_tables.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}'s"):
                sweep_normals(11, 5, range(3))
        finally:
            sampling._key_tables.cache_clear()

    @pytest.mark.parametrize("seed", [2 ** 40 + 3, 2 ** 64 - 1])
    @pytest.mark.parametrize("mode, s, r, rprime", [
        ("bilinear", 0.5, 0.5, 0.45), ("multiplier", 0.0, 1.0, 0.0),
    ])
    def test_sweep_across_a_chunk_boundary_matches_oracle(self, seed, mode, s, r, rprime):
        n_modes, n_samples = 12, _SWEEP_BATCH + 2
        rep = estimate_constant(s, r, rprime, n_samples, n_sweep=(n_modes,), mode=mode, seed=seed)
        got = rep.sweep[n_modes]
        assert (got.seed, got.ratio, got.norm_u, got.norm_v) == reference_estimate(
            s, r, rprime, n_samples, n_modes, "gaussian", mode, seed)
