import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab import flow
from bbmlab.flow import (
    FlowConfig,
    FlowError,
    free_evolution,
    galerkin_defect,
    integrate,
    integrate_batch,
    invariants_of,
    nonlinear_part,
    rhs,
)
from bbmlab.sampling import smooth_profile, sobolev_ball_state, substream
from bbmlab.spectral import TrigState, sobolev_norm

from conftest import random_state, trig_states
from oracles import oracle_cubic_integral, oracle_rhs


def l2(u):
    return sobolev_norm(u, 0.0)


class TestRhs:
    def test_worked_example(self):
        u = TrigState.single_mode(1, 4, a_k=1.0)
        out = rhs(u, FlowConfig(N=4, dt=1e-3))
        assert abs(out.b[0] - 0.5) < 1e-14
        assert abs(out.b[1] - 0.1) < 1e-14
        others = np.concatenate([out.a, out.b[2:]])
        assert np.max(np.abs(others)) < 1e-14
        assert out.mean == 0.0

    def test_zero_state(self):
        out = rhs(TrigState.zero(8), FlowConfig(N=8, dt=1e-3))
        assert np.all(out.a == 0.0) and np.all(out.b == 0.0)

    def test_rejections(self):
        cfg = FlowConfig(N=4, dt=1e-3)
        with pytest.raises(ValueError, match="mean-zero"):
            rhs(TrigState(0.5, [1.0], [0.0]), cfg)
        with pytest.raises(ValueError, match="truncation"):
            rhs(TrigState.zero(8), cfg)

    def test_matches_convolution_oracle(self):
        cfg = FlowConfig(N=32, dt=1e-3)
        for seed in range(20):
            u = random_state(seed, 32)
            fast = rhs(u, cfg)
            ref = oracle_rhs(u, 32)
            assert np.max(np.abs(fast.a - ref.a)) < 1e-12
            assert np.max(np.abs(fast.b - ref.b)) < 1e-12

    def test_padded_grid_is_5_smooth(self):
        # 3N+1 is prime at both (97, 193); the grid rounds up to 100 and 200.
        assert flow._VecOps(32).m_pad == 100
        assert flow._VecOps(64).m_pad == 200

    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 80),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_oracle_on_any_padded_grid(self, n_modes, seed):
        u = sobolev_ball_state(substream(seed, "rhs"), n_modes, 0.5, 1.0)
        fast = rhs(u, FlowConfig(N=n_modes, dt=1e-3))
        ref = oracle_rhs(u, n_modes)
        assert np.max(np.abs(fast.a - ref.a)) < 1e-12
        assert np.max(np.abs(fast.b - ref.b)) < 1e-12


class TestFreeEvolution:
    def test_quarter_turn(self):
        u = TrigState.single_mode(1, 1, a_k=1.0)
        v = free_evolution(u, math.pi)  # theta = pi * phi(1) = pi/2
        assert abs(v.a[0]) < 1e-15 and abs(v.b[0] - 1.0) < 1e-15

    def test_identity_at_zero(self):
        u = random_state(0, 6)
        v = free_evolution(u, 0.0)
        assert np.all(v.a == u.a) and np.all(v.b == u.b)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_isometry(self, s):
        for seed in range(10):
            u = random_state(seed, 16)
            for t in (0.3, -1.7, 12.0):
                assert abs(sobolev_norm(free_evolution(u, t), s) - sobolev_norm(u, s)) < 1e-12

    def test_derivative_matches_linear_rhs(self):
        # The rotation direction is pinned by d/dt|_0 free evolution = linear rhs part.
        u = random_state(5, 8)
        lin = rhs(u, FlowConfig(N=8, dt=1e-3, linear_only=True))
        h = 1e-6
        fd = (1.0 / (2.0 * h)) * (free_evolution(u, h) - free_evolution(u, -h))
        assert np.max(np.abs(fd.a - lin.a)) < 1e-9
        assert np.max(np.abs(fd.b - lin.b)) < 1e-9

    def test_group_property(self):
        u = random_state(6, 8)
        v = free_evolution(free_evolution(u, 0.7), 0.5)
        w = free_evolution(u, 1.2)
        assert np.max(np.abs(v.a - w.a)) < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(trig_states())
    def test_isometry_property(self, u):
        for s in (0.0, 0.5):
            for t in (0.4, -2.3):
                assert abs(sobolev_norm(free_evolution(u, t), s) - sobolev_norm(u, s)) < 1e-12


class TestIntegrate:
    def test_zero_horizon_identity(self):
        u = random_state(1, 8)
        for integ in ("rk4", "implicit_midpoint", "picard"):
            res = integrate(u, 0.0, FlowConfig(N=8, dt=1e-2, integrator=integ))
            assert res.steps == 0
            assert np.all(res.final.a == u.a)

    def test_cross_method_agreement(self):
        u0 = TrigState.single_mode(1, 32, a_k=0.1) + TrigState.single_mode(2, 32, b_k=0.1)
        finals = [
            integrate(u0, 1.0, FlowConfig(N=32, dt=1e-3, integrator=integ)).final
            for integ in ("rk4", "implicit_midpoint", "picard")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert l2(finals[i] - finals[j]) < 1e-8

    def test_reversibility(self):
        u0 = random_state(2, 16, radius=0.5)
        cfg = FlowConfig(N=16, dt=1e-3)
        back = integrate(integrate(u0, 1.0, cfg).final, -1.0, cfg).final
        assert l2(back - u0) < 1e-7

    def test_semigroup(self):
        u0 = random_state(3, 16, radius=0.5)
        cfg = FlowConfig(N=16, dt=1e-3)
        one = integrate(u0, 0.9, cfg).final
        two = integrate(integrate(u0, 0.5, cfg).final, 0.4, cfg).final
        assert l2(one - two) < 1e-8

    def test_trace_shape(self):
        u0 = random_state(4, 8, radius=0.3)
        res = integrate(u0, 0.5, FlowConfig(N=8, dt=1e-2), trace_every=10)
        times = [row[0] for row in res.trace]
        assert times[0] == 0.0 and times[-1] == pytest.approx(0.5)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert res.steps * 1e-2 >= 0.5 - 1e-12

    def test_uniform_bound_shadow(self):
        # Image of a ball stays in a ball: record R'(R, T) over draws from B_R.
        cfg = FlowConfig(N=32, dt=0.02)
        radius, horizon = 1.0, 1.0
        worst = 0.0
        for i in range(200):
            rng = substream(17, "h2", i)
            u0 = sobolev_ball_state(rng, 32, 0.5, radius * float(rng.uniform(0.1, 1.0)))
            u = u0
            for _ in range(8):
                u = integrate(u, horizon / 8.0, cfg).final
                worst = max(worst, sobolev_norm(u, 0.5))
        assert math.isfinite(worst)
        assert worst < 10.0 * radius
        print(f"\nuniform bound shadow: R'({radius}, {horizon}) = {worst:.4f} over 200 draws")


class TestIntegrateBatch:
    @settings(max_examples=25, deadline=None)
    @given(
        n_modes=st.integers(1, 40),
        batch=st.integers(1, 8),
        dt=st.floats(0.02, 0.3),
        t_span=st.floats(-1.0, 1.0),
        linear_only=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_rows_match_integrate(self, n_modes, batch, dt, t_span, linear_only, seed):
        states = [
            sobolev_ball_state(substream(seed, "batch", i), n_modes, 0.5, 0.5) for i in range(batch)
        ]
        for integ in ("rk4", "implicit_midpoint"):
            cfg = FlowConfig(N=n_modes, dt=dt, integrator=integ, linear_only=linear_only)
            rows = integrate_batch(states, t_span, cfg)
            assert len(rows) == batch
            for u0, row in zip(states, rows):
                single = integrate(u0, t_span, cfg).final
                if integ == "rk4":
                    assert np.array_equal(row.a, single.a) and np.array_equal(row.b, single.b)
                else:
                    assert np.max(np.abs(row.a - single.a)) <= 1e-12
                    assert np.max(np.abs(row.b - single.b)) <= 1e-12

    def test_pads_and_validates(self):
        cfg = FlowConfig(N=8, dt=1e-2)
        rows = integrate_batch([random_state(1, 4), random_state(2, 8)], 0.1, cfg)
        assert [u.n_modes for u in rows] == [8, 8]
        assert integrate_batch([], 0.1, cfg) == ()
        with pytest.raises(ValueError, match="truncation"):
            integrate_batch([random_state(1, 16)], 0.1, cfg)
        with pytest.raises(ValueError, match="mean-zero"):
            integrate_batch([TrigState(0.5, [1.0], [0.0])], 0.1, cfg)

    def test_picard_states_flow_in_turn(self):
        cfg = FlowConfig(N=8, dt=0.5, integrator="picard")
        states = [random_state(i, 8, radius=0.3) for i in range(2)]
        rows = integrate_batch(states, 0.5, cfg)
        for u0, row in zip(states, rows):
            assert np.array_equal(row.a, integrate(u0, 0.5, cfg).final.a)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestBlowUp:
    # The blow-up reproduced from the CLI: N = 16, dt = 2, T = 50, cos x at amplitude 50.
    BIG = TrigState.single_mode(1, 16, a_k=50.0)
    CFG = FlowConfig(N=16, dt=2.0)

    def test_integrate_names_step_and_time(self):
        with pytest.raises(FlowError, match=r"non-finite at step \d+ of 25 \(t = [\d.]+\)"):
            integrate(self.BIG, 50.0, self.CFG)

    def test_batch_names_row(self):
        small = TrigState.single_mode(1, 16, a_k=0.1)
        with pytest.raises(FlowError, match=r"non-finite in row 1 at step \d+"):
            integrate_batch([small, self.BIG, small], 50.0, self.CFG)

    def test_midpoint_blow_up_is_a_flow_error(self):
        cfg = FlowConfig(N=16, dt=2.0, integrator="implicit_midpoint")
        with pytest.raises(FlowError, match="step"):
            integrate(self.BIG, 50.0, cfg)


def _serial_picard(ops, y0, h, tol, max_iter):
    """Per-node list-comprehension form of the Duhamel fixed point (the reference)."""
    n_panels = max(1, math.ceil(abs(h) / flow._PICARD_PANEL_MAX))
    ph = h / n_panels
    flat_tau = (ph * np.arange(n_panels)[:, None] + ph * flow._PNODES[None, :]).ravel()
    n_nodes = len(flat_tau)
    ys = np.array([ops.free(y0, t) for t in flat_tau])
    diffs = []

    def duhamel(values):
        v = np.array(
            [ops.free(ops.nonlinear(values[j]), -flat_tau[j]) for j in range(n_nodes)]
        ).reshape(n_panels, len(flow._PNODES), -1)
        panel_full = ph * np.einsum("j,pjd->pd", flow._PWEIGHTS, v)
        prefix = np.concatenate([np.zeros((1, v.shape[-1])), np.cumsum(panel_full, axis=0)])
        node_part = ph * np.einsum("ij,pjd->pid", flow._PINTEG, v)
        return (prefix[:-1, None, :] + node_part).reshape(n_nodes, -1), prefix[-1]

    for _ in range(max_iter):
        integrals, _ = duhamel(ys)
        ys_new = np.array([ops.free(y0 + integrals[j], flat_tau[j]) for j in range(n_nodes)])
        diff = max(math.sqrt(math.pi * float(np.dot(d, d))) for d in ys_new - ys)
        diffs.append(diff)
        ys = ys_new
        if diff < tol:
            break
    _, total = duhamel(ys)
    return ops.free(y0 + total, h), diffs


class TestPicard:
    # The bilinear constant C_hat that acceptance criterion 10 measures (seed 0).
    C_HAT = 0.0945

    def test_vectorised_nodes_match_serial_form(self):
        # The criterion-10 states and subinterval lengths 1 / (4 C_hat rho).
        for i in range(50):
            rho = float(substream(42, "c10", i).uniform(0.1, 2.0))
            u0 = sobolev_ball_state(substream(42, "c10u", i), 32, 0.5, rho)
            h = 1.0 / (4.0 * self.C_HAT * rho)
            cfg = FlowConfig(N=32, dt=h, integrator="picard", picard_max_iter=200)
            res = integrate(u0, h, cfg)
            ops = flow._VecOps.of(cfg)
            y_end, diffs = _serial_picard(ops, ops.pack(u0), h, cfg.picard_tol, 200)
            assert np.max(np.abs(ops.pack(res.final) - y_end)) <= 1e-12
            assert len(res.picard_diffs[0]) == len(diffs)
            assert np.max(np.abs(np.array(res.picard_diffs[0]) - diffs)) <= 1e-12

    def test_non_contraction_error_names_subinterval(self):
        u0 = 80.0 * random_state(7, 16)
        cfg = FlowConfig(N=16, dt=1.0, integrator="picard", picard_max_iter=30)
        with pytest.raises(FlowError, match=r"subinterval \[0, 1\]"):
            integrate(u0, 1.0, cfg)

    def test_diffs_recorded_and_contracting(self):
        u0 = random_state(8, 16, radius=0.5)
        res = integrate(u0, 0.8, FlowConfig(N=16, dt=0.8, integrator="picard"))
        diffs = res.picard_diffs[0]
        assert len(diffs) >= 3
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


class TestInvariants:
    def test_cos_example(self):
        u = TrigState.single_mode(1, 1, a_k=1.0)
        i1, i2, ham = invariants_of(u)
        assert i1 == 0.0
        assert abs(i2 - 2.0 * math.pi) < 1e-13
        assert abs(ham - math.pi / 2.0) < 1e-13

    def test_zero(self):
        assert invariants_of(TrigState.zero(4)) == (0.0, 0.0, 0.0)

    def test_cubic_matches_triple_sum_oracle(self):
        u = TrigState.single_mode(1, 3, a_k=0.3) + TrigState.single_mode(3, 3, b_k=0.2)
        _, _, ham = invariants_of(u)
        quad = 0.5 * math.pi * (0.3 ** 2 + 0.2 ** 2)
        expected = quad + oracle_cubic_integral(u) / 6.0
        assert abs(ham - expected) < 1e-12
        v = random_state(9, 12)
        _, _, ham_v = invariants_of(v)
        quad_v = 0.5 * (math.pi * float(np.sum(v.a ** 2 + v.b ** 2)))
        assert abs(ham_v - (quad_v + oracle_cubic_integral(v) / 6.0)) < 1e-12

    def test_mean_contributions(self):
        u = TrigState(0.5, [0.0], [0.0])
        i1, i2, ham = invariants_of(u)
        assert abs(i1 - math.pi) < 1e-14
        assert abs(i2 - 2.0 * math.pi * 0.25) < 1e-13

    def test_conservation_short_run(self):
        u0 = smooth_profile(32)
        res = integrate(u0, 1.0, FlowConfig(N=32, dt=1e-3), trace_every=500)
        first, last = res.trace[0], res.trace[-1]
        assert last[1] - first[1] == 0.0
        assert abs(last[2] - first[2]) / abs(first[2]) < 1e-10
        assert abs(last[3] - first[3]) / abs(first[3]) < 1e-10


class TestNonlinearPart:
    def test_zero_fixed_point(self):
        out = nonlinear_part(TrigState.zero(8), 1.0, FlowConfig(N=8, dt=1e-2))
        assert l2(out) == 0.0

    def test_zero_horizon(self):
        u0 = random_state(1, 8)
        out = nonlinear_part(u0, 0.0, FlowConfig(N=8, dt=1e-2))
        assert l2(out) == 0.0

    def test_smoothing_refinement_stability(self):
        u0 = sobolev_ball_state(substream(11, "nlp"), 16, 0.5, 0.8, decay=2.5)
        n32 = sobolev_norm(nonlinear_part(u0, 1.0, FlowConfig(N=32, dt=5e-3)), 1.5)
        n64 = sobolev_norm(nonlinear_part(u0, 1.0, FlowConfig(N=64, dt=5e-3)), 1.5)
        assert math.isfinite(n32) and n32 > 0.0
        assert abs(n64 - n32) / n32 < 1e-4


class TestGalerkinDefect:
    def test_same_truncation_is_zero(self):
        u0 = smooth_profile(32)
        cfg = FlowConfig(N=32, dt=5e-3)
        assert galerkin_defect(u0, 0.5, 32, cfg) < 1e-12

    def test_decreasing_in_truncation(self):
        u0 = smooth_profile(64)
        cfg = FlowConfig(N=64, dt=5e-3)
        d8 = galerkin_defect(u0, 0.5, 8, cfg)
        d16 = galerkin_defect(u0, 0.5, 16, cfg)
        assert d8 > d16 > 0.0

    def test_resolved_data_small_defect(self):
        u0 = TrigState.single_mode(2, 8, a_k=0.2)
        cfg = FlowConfig(N=64, dt=5e-3)
        assert galerkin_defect(u0, 0.1, 8, cfg) <= 1e-3

    def test_guards_truncation(self):
        cfg = FlowConfig(N=16, dt=1e-2)
        with pytest.raises(ValueError, match="exceeds"):
            galerkin_defect(smooth_profile(16), 1.0, 32, cfg)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(N=0, dt=1e-2)
        with pytest.raises(ValueError):
            FlowConfig(N=4, dt=0.0)
        with pytest.raises(ValueError):
            FlowConfig(N=4, dt=1e-2, integrator="euler")
        with pytest.raises(ValueError):
            FlowConfig(N=4, dt=1e-2, picard_tol=1e-3)
        with pytest.raises(ValueError):
            FlowConfig(N=4, dt=1e-2, midpoint_tol=0.0)

    @pytest.mark.parametrize("field", ["dt", "picard_tol", "midpoint_tol"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FlowConfig(**{"N": 4, "dt": 1e-2, field: value})
