import logging
import math
import re

import numpy as np
import pytest
from scipy import stats

from bbmlab import squeeze
from bbmlab.flow import FlowConfig, adjoint_batch, integrate_taped
from bbmlab.sampling import substream, z_sphere_row, z_sphere_state
from bbmlab.spectral import (
    TrigState,
    pair_coords,
    sobolev_norm,
    to_symplectic,
    unit_cos_mode,
    unit_sin_mode,
    z_norm,
)
from bbmlab.squeeze import (
    MAX_STARTS,
    MAX_TAPE_BYTES,
    SqueezeConfig,
    _center_state,
    _gradients,
    _image_points,
    cylinder_radius,
    maximize_image_radius,
)

import oracles
from conftest import random_state
from oracles import fd_gradients, reference_ball_image_scan, reference_maximize_image_radius


class TestSampleSphere:
    def test_norm_exact(self):
        for i in range(20):
            u = z_sphere_state(substream(1, i), 0.7, 16, 4)
            assert abs(z_norm(u) - 0.7) < 1e-12

    def test_single_pair_support(self):
        u = z_sphere_state(substream(2, 0), 1.0, 8, 1)
        p, q = np.split(to_symplectic(u), 2)
        assert np.max(np.abs(p[1:])) == 0.0
        assert np.max(np.abs(q[1:])) == 0.0
        assert abs(math.hypot(p[0], q[0]) - 1.0) < 1e-12

    def test_negative_radius_refused_zero_allowed(self):
        with pytest.raises(ValueError, match=r"^radius must be >= 0, got -2\.0$"):
            z_sphere_row(substream(2, 0), -2.0, 8, 8)
        assert np.all(z_sphere_row(substream(2, 0), 0.0, 8, 8) == 0.0)

    def test_direction_symmetry(self):
        draws = np.array(
            [to_symplectic(z_sphere_state(substream(3, i), 1.0, 8, 4))[0] for i in range(10000)]
        )
        assert abs(np.mean(draws)) < 3.0 * np.std(draws) / math.sqrt(len(draws))


class TestCylinderRadius:
    def test_pure_mode(self):
        u = 3.0 * unit_cos_mode(2, 4)
        assert abs(cylinder_radius(u, 2) - 3.0) < 1e-13

    def test_off_mode_support_is_zero(self):
        u = 2.0 * unit_sin_mode(5, 8)
        assert cylinder_radius(u, 3) == 0.0

    def test_truncation_guard(self):
        with pytest.raises(ValueError, match="exceeds truncation"):
            cylinder_radius(TrigState.zero(4), 5)

    def test_offset_center(self):
        u = 3.0 * unit_cos_mode(2, 4)
        assert abs(cylinder_radius(u, 2, (1.0, 0.0)) - 2.0) < 1e-13

    def test_invariant_under_off_mode_additions(self):
        u = random_state(1, 8)
        base = cylinder_radius(u, 3)
        shifted = u + 0.9 * unit_cos_mode(5, 8) + 0.4 * unit_sin_mode(1, 8)
        assert abs(cylinder_radius(shifted, 3) - base) < 1e-12

    def test_equals_math_hypot_of_pair_coordinates(self):
        # Bit for bit: np.hypot rounds differently from math.hypot in about 0.5% of cases.
        for i in range(400):
            u = random_state(i, 8)
            n0 = 1 + i % 8
            p, q = np.split(to_symplectic(u), 2)
            want = math.hypot(p[n0 - 1] - 0.1, q[n0 - 1] + 0.2)
            assert cylinder_radius(u, n0, (0.1, -0.2)) == want

    def test_fourier_size_identity(self):
        # radius = sqrt(a^2+b^2) sqrt(pi (n0^2+1)/n0); in H^{1/2} terms the
        # mode content is radius * sqrt(n0) / (n0^2+1)^{1/4}.
        for i in range(20):
            u = random_state(i, 8)
            n0 = 1 + i % 8
            pair_mod = math.hypot(u.a[n0 - 1], u.b[n0 - 1])
            radius = cylinder_radius(u, n0)
            assert abs(radius - pair_mod * math.sqrt(math.pi * (n0 * n0 + 1) / n0)) < 1e-12
            mode_state = TrigState.single_mode(n0, 8, a_k=u.a[n0 - 1], b_k=u.b[n0 - 1])
            h_half = sobolev_norm(mode_state, 0.5)
            assert abs(h_half - radius * math.sqrt(n0) / (n0 * n0 + 1) ** 0.25) < 1e-12
            assert radius / 2.0 ** 0.25 - 1e-12 <= h_half <= radius + 1e-12


def small_config(linear_only=False, **kw):
    base = dict(r=0.5, n0=1, T=0.5, flow=FlowConfig(N=16, dt=0.02, linear_only=linear_only),
                n_starts=4, max_ascent_iters=8, stall_tol=1e-5, seed=0)
    base.update(kw)
    return SqueezeConfig(**base)


class TestMaximize:
    def test_zero_horizon_gives_radius(self):
        rep = maximize_image_radius(small_config(T=0.0, max_ascent_iters=2))
        assert abs(rep.achieved_radius - 0.5) < 1e-12

    def test_linear_flow_calibration(self):
        for n0, t_span in ((1, 1.0), (2, 0.7)):
            rep = maximize_image_radius(
                small_config(n0=n0, T=t_span, linear_only=True, max_ascent_iters=4)
            )
            assert abs(rep.achieved_radius / rep.config.r - 1.0) < 1e-9

    def test_witness_on_sphere_and_monotone_ascent(self):
        rep = maximize_image_radius(small_config(max_ascent_iters=6))
        assert abs(z_norm(rep.best_witness) - 0.5) <= 0.5 * 1e-9
        for traj in rep.trajectories:
            radii = [v for _, v in traj]
            assert all(v2 >= v1 for v1, v2 in zip(radii, radii[1:]))
        finals = [traj[-1][1] for traj in rep.trajectories]
        assert rep.achieved_radius >= max(finals) - 1e-15

    def test_nonlinear_run_beats_threshold(self):
        rep = maximize_image_radius(small_config())
        assert rep.achieved_radius >= 0.9 * 0.5

    def test_seed_start_is_pure_mode(self):
        rep = maximize_image_radius(small_config(T=0.0, n0=2, max_ascent_iters=1))
        # With the identity flow, the seed start attains exactly r on mode n0.
        assert abs(cylinder_radius(rep.best_witness, 2) - 0.5) < 1e-9

    def test_seed_start_at_the_window_edge(self):
        rep = maximize_image_radius(small_config(T=0.0, n0=16, max_ascent_iters=1))
        assert abs(cylinder_radius(rep.best_witness, 16) - 0.5) < 1e-9

    def test_nonzero_centers_linear_flow(self):
        center = 0.3 * unit_cos_mode(1, 16)
        rep = maximize_image_radius(
            small_config(center=center, cyl_center=(0.1, -0.2), T=0.4,
                         linear_only=True, n_starts=6, max_ascent_iters=12)
        )
        assert abs(z_norm(rep.best_witness - center.padded(16)) - 0.5) <= 1e-9
        # Image of the sphere can always reach at least r from any axis point.
        assert rep.achieved_radius >= 0.5 - 1e-9

    # A nan cylinder axis used to abandon every start and raise FlowError
    # ("all starts abandoned"), an integration failure.
    @pytest.mark.parametrize("cyl_center", [(math.nan, 0.0), (0.0, math.inf), (0.1,),
                                            (0.0, 0.1, 0.2)])
    def test_cyl_center_must_be_two_finite_numbers(self, cyl_center):
        with pytest.raises(ValueError, match=r"^cyl_center must be two finite numbers, got "
                           + re.escape(repr(cyl_center)) + "$"):
            small_config(cyl_center=cyl_center)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n0"):
            SqueezeConfig(r=0.5, n0=9, T=1.0, flow=FlowConfig(N=8, dt=0.01))
        with pytest.raises(ValueError, match="radius"):
            SqueezeConfig(r=0.0, n0=1, T=1.0, flow=FlowConfig(N=8, dt=0.01))

    def test_center_checked_at_construction(self):
        # Both used to pass here and fail only once the search started.
        flow = FlowConfig(N=8, dt=0.01)
        with pytest.raises(ValueError, match="^center has 12 modes, more than flow.N = 8$"):
            SqueezeConfig(r=0.5, n0=1, T=1.0, flow=flow, center=TrigState.zero(12))
        with pytest.raises(ValueError, match="^center requires a mean-zero state"):
            SqueezeConfig(r=0.5, n0=1, T=1.0, flow=flow, center=TrigState(0.5, [0.1], [0.0]))
        cfg = SqueezeConfig(r=0.5, n0=1, T=1.0, flow=flow, center=unit_cos_mode(1, 4))
        center = _center_state(cfg)
        assert center.n_modes == 8 and np.array_equal(center.a, unit_cos_mode(1, 8).a)

    @pytest.mark.parametrize("field", ["r", "T", "stall_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, field, value):
        # T = inf used to reach the flow.
        kw = {"r": 0.5, "n0": 1, "T": 1.0, "flow": FlowConfig(N=8, dt=0.01), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SqueezeConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("max_ascent_iters", -3), ("stall_tol", -1e-6),
    ])
    def test_settings_that_disable_the_search_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be (positive|>= 0), got {value}"):
            small_config(**{field: value})

    @pytest.mark.parametrize("n0, n_modes", [(17, 32), (33, 40)])
    def test_mode_beyond_sixteen_pairs_runs(self, n0, n_modes):
        # These used to be rejected: the search then ran in at most 16 pairs,
        # which would have put the seed start on another mode (n0 = 17) or
        # outside the search space (n0 = 33).
        cfg = small_config(n0=n0, T=0.0, flow=FlowConfig(N=n_modes, dt=0.02), n_starts=2,
                           max_ascent_iters=1)
        rep = maximize_image_radius(cfg)
        assert rep.trajectories[0] == ((0, 0.5),)
        assert abs(cylinder_radius(rep.best_witness, n0) - 0.5) < 1e-9

    def test_picard_rejected(self):
        # Picard has no adjoint, so a search could take no gradient.
        with pytest.raises(ValueError, match="^integrator = 'picard' has no adjoint"):
            small_config(flow=FlowConfig(N=16, dt=0.02, integrator="picard"))

    @pytest.mark.parametrize("kw", [dict(n_starts=1000), dict(flow=FlowConfig(N=4096, dt=0.02)),
                                    dict(T=100.0)], ids=["n_starts", "N", "T"])
    def test_tapes_over_the_bound_rejected(self, kw):
        cfg = dict(r=0.5, n0=1, T=1.0, flow=FlowConfig(N=32, dt=0.02), n_starts=16)
        cfg.update(kw)
        with pytest.raises(ValueError, match=r"^the search's tapes need .* MiB at n_starts = \d+, "
                           r"N = \d+, T = .*, dt = .*, more than squeeze.MAX_TAPE_BYTES = "
                           r"256 MiB$"):
            SqueezeConfig(**cfg)
        # linear_only flows record nothing: the same search fits.
        SqueezeConfig(**{**cfg, "flow": FlowConfig(N=cfg["flow"].N, dt=0.02, linear_only=True)})

    def test_start_count_capped(self):
        flow = FlowConfig(N=8, dt=0.02, linear_only=True)
        SqueezeConfig(r=0.5, n0=1, T=1.0, flow=flow, n_starts=MAX_STARTS)
        with pytest.raises(ValueError, match=f"^n_starts must be <= {MAX_STARTS} "
                           rf"\(squeeze.MAX_STARTS\), got {MAX_STARTS + 1}$"):
            SqueezeConfig(r=0.5, n0=1, T=1.0, flow=flow, n_starts=MAX_STARTS + 1)

    def test_shipped_search_tapes_far_below_the_bound(self):
        cfg = SqueezeConfig(r=0.5, n0=1, T=1.0, flow=FlowConfig(N=32, dt=0.02), n_starts=16)
        per_row = 8 * 50 * 4 * 100
        assert (16 + 20) * per_row * 40 < MAX_TAPE_BYTES
        assert integrate_taped(np.zeros((1, 32), complex), cfg.T, cfg.flow)[1].nbytes == per_row

    def test_batched_gradient_matches_serial_loop(self):
        # The gradients of three starts, pulled back as one batch, each equal
        # to its own one-row reverse pass bit for bit, under rk4 and the
        # implicit midpoint; the flows of the batch equal one-row flows too.
        for integrator in ("rk4", "implicit_midpoint"):
            cfg = small_config(n0=2, flow=FlowConfig(N=16, dt=0.05, integrator=integrator),
                               cyl_center=(0.1, -0.2))
            n, center = cfg.flow.N, np.zeros(cfg.flow.N, dtype=complex)
            xs = [pair_coords(z_sphere_row(substream(cfg.seed, "start", i), cfg.r, n, n), n)
                  for i in range(1, 4)]
            vals, finals, tapes = _image_points(xs, cfg, center)
            grads = _gradients(vals, finals, np.array(tapes), cfg)
            assert grads.shape == (3, 2 * n) and np.isfinite(grads).all()
            for x, val, grad in zip(xs, vals, grads):
                one_val, one_final, (one_tape,) = _image_points([x], cfg, center)
                assert one_val == [val]
                assert np.array_equal(_gradients(one_val, one_final, one_tape[None], cfg)[0], grad)

    # r = 45: the flow from start 2 blows up at its seed.  r = 1: every flow
    # is tame, and start 2's seed tape is made to overflow its reverse pass.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("extra, stage", [({"r": 45.0}, "at the seed"),
                                              ({"r": 1.0, "overflow_start": 2}, "gradient")])
    def test_blown_up_start_abandoned_others_report(self, extra, stage, caplog, monkeypatch):
        cfg = blow_up_config(monkeypatch, **extra)
        with caplog.at_level(logging.WARNING, logger="bbmlab.squeeze"):
            rep = maximize_image_radius(cfg)
        assert "start 2 abandoned" in caplog.text and stage in caplog.text
        assert math.isfinite(rep.achieved_radius)
        others = rep.trajectories[:2] + rep.trajectories[3:]
        assert all(len(traj) > 1 for traj in others)
        assert len(rep.trajectories[2]) == 1
        best = max(traj[-1][1] for traj in others)
        assert rep.achieved_radius == best


def blow_up_config(monkeypatch, r, overflow_start=None):
    """The blow-up cases' search at ball radius r (N = 8, dt = 0.5, T = 4, four starts).

    Given overflow_start, the tape of that start's seed point is set to 1e300 where the search
    and its oracle flow it, so its first reverse pass overflows while its flow and image radius
    stay as computed: a gradient failure by construction, not at a radius tuned to the flow.
    """
    cfg = SqueezeConfig(n0=1, T=4.0, flow=FlowConfig(N=8, dt=0.5), n_starts=4,
                        max_ascent_iters=2, seed=0, r=r)
    if overflow_start is not None:
        n = cfg.flow.N
        seed_row = z_sphere_row(substream(cfg.seed, "start", overflow_start), r, n, n)

        def integrate_taped_overflowing(c, t_span, flow_cfg):
            finals, tape = integrate_taped(c, t_span, flow_cfg)
            tape[np.isclose(c, seed_row, rtol=0, atol=1e-12).all(axis=-1)] = 1e300
            return finals, tape

        for module in (squeeze, oracles):
            monkeypatch.setattr(module, "integrate_taped", integrate_taped_overflowing)
    return cfg


class TestAdjointGradient:
    """The search's gradient: one reverse pass over the tape of each point's flow."""

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("n0, cyl_center", [(1, (0.0, 0.0)), (2, (0.1, -0.05))])
    def test_matches_central_differences_to_second_order(self, integrator, n0, cyl_center):
        # The central difference of the reprojected radius approximates the
        # tangential part of the gradient with an O(h^2) error: halving h
        # divides the distance to the adjoint gradient by 4.  The points fill
        # the lowest 2 n0 pairs and are zero above them; the gradient and the
        # differences cover all 2N coordinates.  Points spread over all pairs
        # carry a larger O(h^2) term, 2e-5 to 8e-5 at h = 1e-3.
        cfg = small_config(n0=n0, T=1.0, flow=FlowConfig(N=16, dt=0.05, integrator=integrator),
                           r=0.7, cyl_center=cyl_center)
        n, low, center = cfg.flow.N, 2 * n0, np.zeros(cfg.flow.N, dtype=complex)
        xs = np.zeros((3, 2 * n))
        draws = np.random.default_rng(1).standard_normal((3, 2 * low))
        xs[:, :low], xs[:, n:n + low] = draws[:, :low], draws[:, low:]
        xs = [0.7 * x / np.linalg.norm(x) for x in xs]
        vals, finals, tapes = _image_points(xs, cfg, center)
        grads = _gradients(vals, finals, np.array(tapes), cfg)
        errors = []
        for h in (1e-3, 5e-4):
            errs = []
            for x, grad, fd in zip(xs, grads, fd_gradients(xs, cfg, center, h)):
                xhat = x / np.linalg.norm(x)
                errs.append(np.linalg.norm(grad - (grad @ xhat) * xhat - fd) / np.linalg.norm(fd))
            errors.append(np.array(errs))
        assert np.all(errors[0] < 1e-5)
        assert np.all(np.abs(errors[1] / errors[0] - 0.25) < 0.02)

    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_gradient_spans_the_whole_truncation(self, n0):
        # The search moves all N pairs: at a generic point the quadratic term
        # couples the mode-n0 radius to every pair, also to those above 2 n0.
        cfg = small_config(n0=n0, T=1.0)
        n = cfg.flow.N
        xs = [pair_coords(z_sphere_row(substream(cfg.seed, "start", i), cfg.r, n, n), n)
              for i in range(1, 4)]
        vals, finals, tapes = _image_points(xs, cfg, np.zeros(n, dtype=complex))
        grads = _gradients(vals, finals, np.array(tapes), cfg)
        assert grads.shape == (3, 2 * n)
        high = np.concatenate([grads[:, 2 * n0:n], grads[:, n + 2 * n0:]], axis=1)
        assert np.all(high != 0.0)
        assert np.all(np.max(np.abs(high), axis=1) > 1e-3 * np.max(np.abs(grads), axis=1))

    @pytest.mark.parametrize("n0", [1, 2, 3])
    def test_linear_seed_gradient_is_radial(self, n0):
        # The free rotation keeps the n0 pair on its circle, so at the pure
        # mode-n0 seed the radius grows only along the seed itself.
        cfg = small_config(n0=n0, T=1.0, linear_only=True)
        x = np.zeros(2 * cfg.flow.N)
        x[n0 - 1] = cfg.r
        vals, finals, tapes = _image_points([x], cfg, np.zeros(cfg.flow.N, dtype=complex))
        grad = _gradients(vals, finals, np.array(tapes), cfg)[0]
        tang = grad - (grad @ x) * x / cfg.r ** 2
        assert abs(grad[n0 - 1] - 1.0) < 1e-12
        assert np.linalg.norm(tang) <= 1e-15 * np.linalg.norm(grad)

    def test_one_reverse_pass_per_iteration_over_the_kept_tapes(self, monkeypatch):
        # Iteration 1 pulls back the tapes the seed batch recorded, one row
        # per start, and no flow is repeated for a gradient: every flowed row
        # is a seed or a line-search candidate.
        cfg = small_config(max_ascent_iters=3)
        pulled, flowed = [], []

        def pull(tape, lam, t_span, fcfg):
            pulled.append(tape.copy())
            return adjoint_batch(tape, lam, t_span, fcfg)

        def flow(rows, t_span, fcfg):
            flowed.append(len(rows))
            return integrate_taped(rows, t_span, fcfg)

        monkeypatch.setattr(squeeze, "adjoint_batch", pull)
        monkeypatch.setattr(squeeze, "integrate_taped", flow)
        rep = maximize_image_radius(cfg)
        iterations = max(traj[-1][0] for traj in rep.trajectories)
        assert len(pulled) == min(iterations + 1, cfg.max_ascent_iters)
        assert len(pulled[0]) == cfg.n_starts and flowed[0] == cfg.n_starts
        assert all(n <= cfg.n_starts for n in flowed[1:])
        seeds = _image_points([squeeze._reproject(np.eye(2 * cfg.flow.N)[0], cfg.r)], cfg,
                              np.zeros(cfg.flow.N, dtype=complex))[2]
        assert np.array_equal(pulled[0][0], seeds[0])


def bench_cell(r, n0, linear_only):
    """A witness_search benchmark cell: N = 32, T = 1, two starts."""
    if linear_only:
        return SqueezeConfig(r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=0.02, linear_only=True),
                             n_starts=2, max_ascent_iters=2, seed=0)
    return SqueezeConfig(r=r, n0=n0, T=1.0, flow=FlowConfig(N=32, dt=0.02), n_starts=2,
                         max_ascent_iters=3, stall_tol=1e-5, seed=0)


def assert_same_search(rep, ref):
    # repr, not ==: an abandoned start's trajectory holds nan.
    assert repr(rep.trajectories) == repr(ref.trajectories)
    assert rep.achieved_radius == ref.achieved_radius
    assert np.array_equal(rep.best_witness.a, ref.best_witness.a)
    assert np.array_equal(rep.best_witness.b, ref.best_witness.b)
    assert rep.best_witness.mean == ref.best_witness.mean


class TestLockStep:
    """The lock-step search against the start-by-start oracle, bit for bit."""

    @pytest.mark.parametrize("r, n0", [(0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3)])
    @pytest.mark.parametrize("linear_only", [False, True])
    def test_benchmark_cells(self, r, n0, linear_only):
        cfg = bench_cell(r, n0, linear_only)
        assert_same_search(maximize_image_radius(cfg), reference_maximize_image_radius(cfg))

    @pytest.mark.parametrize("kw", [
        # Criterion 6's widest cell: 16 starts at n0 = 3.
        dict(r=1.0, n0=3, T=1.0, flow=FlowConfig(N=32, dt=0.02), n_starts=16,
             max_ascent_iters=2, stall_tol=1e-5),
        dict(r=0.5, n0=2, T=0.7, flow=FlowConfig(N=16, dt=0.02), n_starts=5, max_ascent_iters=6,
             center=0.3 * unit_cos_mode(1, 16) + 0.2 * unit_sin_mode(3, 16),
             cyl_center=(0.1, -0.2), seed=3),
        dict(r=0.5, n0=2, T=0.5, flow=FlowConfig(N=16, dt=0.02), n_starts=1, max_ascent_iters=6),
        dict(r=0.5, n0=2, T=0.5, flow=FlowConfig(N=16, dt=0.02), n_starts=5, max_ascent_iters=0),
        dict(r=0.5, n0=1, T=0.5, flow=FlowConfig(N=16, dt=0.02), n_starts=4, max_ascent_iters=12,
             stall_tol=1e-2),
    ], ids=["criterion_6_n0_3", "centers", "one_start", "no_iterations", "stalls"])
    def test_configs(self, kw):
        cfg = SqueezeConfig(**kw)
        assert_same_search(maximize_image_radius(cfg), reference_maximize_image_radius(cfg))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("extra", [{"r": 45.0}, {"r": 1.0, "overflow_start": 2}])
    def test_blow_up_configs(self, extra, caplog, monkeypatch):
        # The failing batch is flowed again start by start: the same
        # abandoned start, the same messages and the same report.
        cfg = blow_up_config(monkeypatch, **extra)
        with caplog.at_level(logging.WARNING, logger="bbmlab.squeeze"):
            rep = maximize_image_radius(cfg)
            n_lock_step = len(caplog.messages)
            ref = reference_maximize_image_radius(cfg)
        assert n_lock_step > 0
        assert sorted(caplog.messages[:n_lock_step]) == sorted(caplog.messages[n_lock_step:])
        assert_same_search(rep, ref)

    def test_midpoint_to_solver_tolerance(self):
        cfg = small_config(flow=FlowConfig(N=16, dt=0.05, integrator="implicit_midpoint"),
                           max_ascent_iters=6)
        rep = maximize_image_radius(cfg)
        ref = reference_maximize_image_radius(cfg)
        for traj, ref_traj in zip(rep.trajectories, ref.trajectories, strict=True):
            assert [it for it, _ in traj] == [it for it, _ in ref_traj]
            assert np.allclose([v for _, v in traj], [v for _, v in ref_traj], rtol=0, atol=1e-10)
        assert abs(rep.achieved_radius - ref.achieved_radius) <= 1e-10
        assert np.allclose(rep.best_witness.row, ref.best_witness.row, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("chunk", [128, 16])
    def test_one_gradient_batch_per_iteration_and_chunk(self, chunk, monkeypatch):
        # chunk starts: every iteration takes all live starts' gradients in
        # one reverse pass, one row per start, and flows nothing for them;
        # the seed batch is flowed whole as one chunk of chunk rows, and so
        # is each line-search round.
        cfg = small_config(n_starts=chunk, max_ascent_iters=3)
        sizes, pulled = [], []

        def counting(rows, t_span, fcfg):
            sizes.append(len(rows))
            return integrate_taped(rows, t_span, fcfg)

        def pull(tape, lam, t_span, fcfg):
            pulled.append(len(lam))
            return adjoint_batch(tape, lam, t_span, fcfg)

        monkeypatch.setattr(squeeze, "integrate_taped", counting)
        monkeypatch.setattr(squeeze, "adjoint_batch", pull)
        rep = maximize_image_radius(cfg)
        assert sizes[0] == cfg.n_starts and all(n <= cfg.n_starts for n in sizes[1:])
        assert pulled[0] == cfg.n_starts and len(pulled) <= cfg.max_ascent_iters
        assert_same_search(rep, reference_maximize_image_radius(cfg))

    @pytest.mark.parametrize("r, n0", [(0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3)])
    def test_lone_start_backtracks_in_one_batch(self, r, n0, monkeypatch):
        # In a linear_only cell the seed start backtracks alone once the
        # other start has gained: its remaining halvings go in one call, so
        # an iteration flows at most one round for both starts and one batch
        # for the lone start (its gradient flows nothing).
        cfg = bench_cell(r, n0, linear_only=True)
        sizes = []

        def counting(rows, t_span, fcfg):
            sizes.append(len(rows))
            return integrate_taped(rows, t_span, fcfg)

        monkeypatch.setattr(squeeze, "integrate_taped", counting)
        rep = maximize_image_radius(cfg)
        assert len(sizes) <= 1 + 2 * cfg.max_ascent_iters
        assert_same_search(rep, reference_maximize_image_radius(cfg))


class TestBallImageScan:
    """Random points of the sphere, flowed without optimizing: a floor for the search."""

    def test_zero_horizon_bounded_by_radius(self):
        assert np.max(reference_ball_image_scan(small_config(T=0.0), 64)) <= 0.5 + 1e-12

    def test_scan_below_witness_search(self):
        cfg = small_config()
        rep = maximize_image_radius(cfg)
        assert np.max(reference_ball_image_scan(cfg, 32)) <= rep.achieved_radius + 1e-9

    def test_quantiles_stable_under_doubling(self):
        cfg = small_config(T=0.3)
        a = reference_ball_image_scan(cfg, 200)
        b = reference_ball_image_scan(SqueezeConfig(**{**cfg.__dict__, "seed": 99}), 400)
        assert stats.ks_2samp(a, b).statistic < 0.15
