import logging
import math

import numpy as np
import pytest
from scipy import stats

from bbmlab import squeeze
from bbmlab.flow import FlowConfig, integrate, integrate_batch
from bbmlab.sampling import substream, z_sphere_row
from bbmlab.spectral import (
    SymplecticCoords,
    TrigState,
    from_symplectic,
    sobolev_norm,
    to_symplectic,
    unit_cos_mode,
    unit_sin_mode,
    z_norm,
)
from bbmlab.squeeze import (
    _ROW_CHUNK,
    SqueezeConfig,
    _center_state,
    _fd_gradients,
    _flowed_radii,
    _radii,
    ball_image_scan,
    cylinder_radius,
    maximize_image_radius,
    sample_sphere,
)

from conftest import random_state
from oracles import reference_maximize_image_radius


class TestSampleSphere:
    def test_norm_exact(self):
        for i in range(20):
            u = sample_sphere(0.7, 16, 4, substream(1, i))
            assert abs(z_norm(u) - 0.7) < 1e-12

    def test_single_pair_support(self):
        u = sample_sphere(1.0, 8, 1, substream(2, 0))
        coords = to_symplectic(u)
        assert np.max(np.abs(coords.p[1:])) == 0.0
        assert np.max(np.abs(coords.q[1:])) == 0.0
        assert abs(math.hypot(coords.p[0], coords.q[0]) - 1.0) < 1e-12

    def test_direction_symmetry(self):
        draws = np.array(
            [to_symplectic(sample_sphere(1.0, 8, 4, substream(3, i))).p[0] for i in range(10000)]
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
            coords = to_symplectic(u)
            want = math.hypot(coords.p[n0 - 1] - 0.1, coords.q[n0 - 1] + 0.2)
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

    @pytest.mark.parametrize("field", ["r", "T", "fd_step", "ascent_step", "stall_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, field, value):
        # T = inf used to reach the flow; fd_step = nan gave a nan gradient.
        kw = {"r": 0.5, "n0": 1, "T": 1.0, "flow": FlowConfig(N=8, dt=0.01), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SqueezeConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("fd_step", 0.0), ("ascent_step", 0.0), ("ascent_step", -0.1), ("max_ascent_iters", -3),
        ("stall_tol", -1e-6),
    ])
    def test_settings_that_disable_the_search_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be (positive|>= 0), got {value}"):
            small_config(**{field: value})

    @pytest.mark.parametrize("n0, n_modes", [(17, 32), (33, 40)])
    def test_mode_outside_active_window_rejected(self, n0, n_modes):
        # The active window min(2 n0, 16, N) would leave n0 out: the seed
        # start used to land on another mode (n0 = 17) or index past the
        # window (n0 = 33).
        with pytest.raises(ValueError, match="at most 16 mode pairs"):
            SqueezeConfig(r=0.5, n0=n0, T=1.0, flow=FlowConfig(N=n_modes, dt=0.01))

    def test_batched_gradient_matches_serial_loop(self):
        # The gradients of three starts, flowed as one batch, each equal to
        # its own serial loop of one-state flows bit for bit.
        cfg = small_config(n0=2)
        na = cfg.n_active
        fcfg = cfg.flow
        xs = []
        for i in range(1, 4):
            coords = to_symplectic(sample_sphere(cfg.r, fcfg.N, na, substream(cfg.seed, "start", i)))
            xs.append(np.concatenate([coords.p[:na], coords.q[:na]]))

        def reproject(y):
            return (cfg.r / float(np.linalg.norm(y))) * y

        def objective(y):
            p = np.zeros(fcfg.N)
            q = np.zeros(fcfg.N)
            p[:na], q[:na] = y[:na], y[na:]
            final = integrate(from_symplectic(SymplecticCoords(p, q)), cfg.T, fcfg).final
            return cylinder_radius(final, cfg.n0, cfg.cyl_center)

        grads = _fd_gradients(xs, cfg, np.zeros(fcfg.N, dtype=complex))
        assert len(grads) == len(xs)
        for x, grad in zip(xs, grads):
            serial = np.zeros(2 * na)
            for i in range(2 * na):
                e = np.zeros(2 * na)
                e[i] = cfg.fd_step
                serial[i] = (objective(reproject(x + e)) - objective(reproject(x - e))) / (
                    2.0 * cfg.fd_step
                )
            assert np.array_equal(grad, serial)

    # r = 40: the flow from start 3 blows up at its seed; r = 37 with a wide
    # difference step: start 3's seed flows, one of its gradient points does not.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("extra, stage", [({"r": 40.0}, "at the seed"),
                                              ({"r": 37.0, "fd_step": 4.0}, "gradient")])
    def test_blown_up_start_abandoned_others_report(self, extra, stage, caplog):
        cfg = SqueezeConfig(n0=1, T=4.0, flow=FlowConfig(N=8, dt=0.5), n_starts=4,
                            max_ascent_iters=2, seed=0, **extra)
        with caplog.at_level(logging.WARNING, logger="bbmlab.squeeze"):
            rep = maximize_image_radius(cfg)
        assert "start 3 abandoned" in caplog.text and stage in caplog.text
        assert math.isfinite(rep.achieved_radius)
        assert all(len(traj) > 1 for traj in rep.trajectories[:3])
        assert len(rep.trajectories[3]) == 1
        best = max(traj[-1][1] for traj in rep.trajectories[:3])
        assert rep.achieved_radius == best


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
        # Criterion 6's widest cell: 16 starts x 24 gradient points, three row chunks.
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
    @pytest.mark.parametrize("extra", [{"r": 40.0}, {"r": 37.0, "fd_step": 4.0}])
    def test_blow_up_configs(self, extra, caplog):
        # The failing batch is flowed again start by start: the same
        # abandoned start, the same messages and the same report.
        cfg = SqueezeConfig(n0=1, T=4.0, flow=FlowConfig(N=8, dt=0.5), n_starts=4,
                            max_ascent_iters=2, seed=0, **extra)
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

    @pytest.mark.parametrize("chunk", [_ROW_CHUNK, 16])
    def test_one_gradient_batch_per_iteration_and_chunk(self, chunk, monkeypatch):
        # Four starts of 8 gradient points each (n_active = 2).  A seed or
        # line-search batch holds at most one row per start, so a call with
        # more rows than starts flows gradient points; with a chunk that is a
        # multiple of 8 every gradient chunk has more rows than starts.
        cfg = small_config(max_ascent_iters=3)
        sizes = []

        def counting(rows, t_span, fcfg):
            sizes.append(len(rows))
            return integrate_batch(rows, t_span, fcfg)

        monkeypatch.setattr(squeeze, "integrate_batch", counting)
        monkeypatch.setattr(squeeze, "_ROW_CHUNK", chunk)
        rep = maximize_image_radius(cfg)
        assert all(len(traj) > 1 for traj in rep.trajectories)
        assert all(n <= chunk for n in sizes)
        gradient_sizes = [n for n in sizes if n > cfg.n_starts]
        chunks_per_iteration = -(-8 * cfg.n_starts // chunk)
        # The first iteration flows all four starts' points, in as few chunks as hold them.
        assert sum(gradient_sizes[:chunks_per_iteration]) == 8 * cfg.n_starts
        assert len(gradient_sizes) <= cfg.max_ascent_iters * chunks_per_iteration

    @pytest.mark.parametrize("r, n0", [(0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3)])
    def test_lone_start_backtracks_in_one_batch(self, r, n0, monkeypatch):
        # In a linear_only cell the seed start backtracks alone once the
        # other start has gained: its remaining halvings go in one call, so
        # an iteration flows at most its gradient, one round for both
        # starts and one batch for the lone start.
        cfg = bench_cell(r, n0, linear_only=True)
        sizes = []

        def counting(rows, t_span, fcfg):
            sizes.append(len(rows))
            return integrate_batch(rows, t_span, fcfg)

        monkeypatch.setattr(squeeze, "integrate_batch", counting)
        rep = maximize_image_radius(cfg)
        assert len(sizes) <= 1 + 3 * cfg.max_ascent_iters
        assert_same_search(rep, reference_maximize_image_radius(cfg))


def test_chunked_flow_equals_whole_batch():
    # Criterion 6's gradient batch at n0 = 3: 16 starts x 24 points.
    cfg = SqueezeConfig(r=1.0, n0=3, T=1.0, flow=FlowConfig(N=32, dt=0.02))
    rows = np.array([z_sphere_row(substream(5, "chunk", i), 1.0, 32, cfg.n_active)
                     for i in range(384)])
    assert len(rows) > 2 * _ROW_CHUNK
    whole = integrate_batch(rows, cfg.T, cfg.flow)
    chunked = np.concatenate([integrate_batch(rows[lo:lo + _ROW_CHUNK], cfg.T, cfg.flow)
                              for lo in range(0, len(rows), _ROW_CHUNK)])
    assert np.array_equal(chunked, whole)
    assert np.array_equal(_flowed_radii(rows, cfg), _radii(whole, cfg.n0, cfg.cyl_center))


class TestBallImageScan:
    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sample_count_below_one_rejected(self, n_samples):
        # Used to fail inside numpy with a broadcast error that named nothing.
        with pytest.raises(ValueError, match=f"^n_samples must be >= 1, got {n_samples}$"):
            ball_image_scan(small_config(), n_samples)

    def test_zero_horizon_bounded_by_radius(self):
        scan = ball_image_scan(small_config(T=0.0), 64)
        assert np.max(scan.radii) <= 0.5 + 1e-12

    def test_scan_below_witness_search(self):
        cfg = small_config()
        scan = ball_image_scan(cfg, 32)
        rep = maximize_image_radius(cfg)
        assert np.max(scan.radii) <= rep.achieved_radius + 1e-9

    def test_quantiles_stable_under_doubling(self):
        cfg = small_config(T=0.3)
        a = ball_image_scan(cfg, 200).radii
        b = ball_image_scan(SqueezeConfig(**{**cfg.__dict__, "seed": 99}), 400).radii
        ks = stats.ks_2samp(a, b).statistic
        assert ks < 0.15
        assert set(ball_image_scan(cfg, 16).quantiles) == {round(0.1 * i, 1) for i in range(11)}
