import logging
import math

import numpy as np
import pytest
from scipy import stats

from bbmlab.flow import FlowConfig, integrate
from bbmlab.sampling import substream
from bbmlab.spectral import (
    TrigState,
    sobolev_norm,
    to_symplectic,
    unit_cos_mode,
    unit_sin_mode,
    z_norm,
)
from bbmlab.squeeze import (
    SqueezeConfig,
    _center_state,
    _embed,
    _fd_gradient,
    _sphere_coords,
    ball_image_scan,
    cylinder_radius,
    maximize_image_radius,
    sample_sphere,
)

from conftest import random_state


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
        cfg = small_config(n0=2)
        center = _center_state(cfg)
        na = cfg.n_active
        fcfg = cfg.flow
        draw = sample_sphere(cfg.r, fcfg.N, na, substream(cfg.seed, "start", 1))
        x = _sphere_coords(center + draw, center, na)

        def reproject(y):
            return (cfg.r / float(np.linalg.norm(y))) * y

        def objective(y):
            final = integrate(_embed(y, center, na, fcfg.N), cfg.T, fcfg).final
            return cylinder_radius(final, cfg.n0, cfg.cyl_center)

        serial = np.zeros(2 * na)
        for i in range(2 * na):
            e = np.zeros(2 * na)
            e[i] = cfg.fd_step
            serial[i] = (objective(reproject(x + e)) - objective(reproject(x - e))) / (
                2.0 * cfg.fd_step
            )
        assert np.array_equal(_fd_gradient(x, cfg, center), serial)

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


class TestBallImageScan:
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
