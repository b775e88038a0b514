import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab import flow
from bbmlab.flow import (
    MAX_PICARD_PANELS,
    FlowConfig,
    FlowError,
    adjoint_batch,
    free_evolution,
    galerkin_defect,
    integrate,
    integrate_batch,
    integrate_taped,
    interaction_samples,
    invariants_of,
    nonlinear_part,
    rhs,
    tape_shape,
)
from bbmlab.sampling import smooth_profile, sobolev_ball_rows, sobolev_ball_state, substream
from bbmlab.spectral import MAX_MODES, TrigState, smooth_grid_size, sobolev_norm, synthesize_rows

from conftest import random_state, trig_states
from oracles import (
    PairRowFlow,
    oracle_cubic_integral,
    oracle_rhs,
    stagewise_rk4,
    stagewise_rk4_adjoint,
    tangent_linear,
)


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


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

    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 128),
        batch=st.sampled_from([1, 5]),
        log_radius=st.floats(-3.0, 2.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_padded_rows_match_oracle_relative(self, n_modes, batch, log_radius, seed):
        # The padded-row kernel on 1 and 5 rows, against the convolution oracle, to 1e-12 of
        # the oracle's largest coefficient.
        states = [sobolev_ball_state(substream(seed, "rhs", i), n_modes, 0.5, 10.0 ** log_radius)
                  for i in range(batch)]
        ops = flow._VecOps(n_modes)
        c = ops.pad(rows_of(states))
        rows = ops.bind(c.shape[:-1]).rhs(c, np.empty_like(c))
        for u, row in zip(states, rows):
            ref = oracle_rhs(u, n_modes).row
            got, want = rhs(u, FlowConfig(N=n_modes, dt=1e-3)), TrigState.from_row(row[ops.modes])
            assert _same_bits(got.a, want.a) and _same_bits(got.b, want.b)
            assert np.max(np.abs(row[ops.modes] - ref)) <= 1e-12 * np.max(np.abs(ref))


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
        rows = rows_of([u, random_state(2, 8)])
        for integ in ("rk4", "implicit_midpoint", "picard"):
            cfg = FlowConfig(N=8, dt=1e-2, integrator=integ)
            res = integrate(u, 0.0, cfg, trace_every=1)
            assert res.steps == 0
            assert _same_bits(res.final.a, u.a) and _same_bits(res.final.b, u.b)
            assert res.trace == ((0.0,) + invariants_of(u),)
            assert _same_bits(integrate_batch(rows, 0.0, cfg), rows)

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


def rows_of(states):
    return np.array([u.row for u in states])


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
            rows = integrate_batch(rows_of(states), t_span, cfg)
            assert rows.shape == (batch, n_modes)
            for u0, c in zip(states, rows):
                row = TrigState.from_row(c)
                single = integrate(u0, t_span, cfg).final
                assert _same_bits(row.a, single.a) and _same_bits(row.b, single.b)

    def test_row_shape_mismatch_names_both_shapes(self):
        cfg = FlowConfig(N=8, dt=1e-2)
        assert integrate_batch(np.zeros((0, 8), dtype=complex), 0.1, cfg).shape == (0, 8)
        for shape in [(1, 4), (2, 16), (8,), (1, 2, 8)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"integrate_batch needs rows of shape (batch, 8), got {shape}")):
                integrate_batch(np.zeros(shape, dtype=complex), 0.1, cfg)
            # integrate_taped used to report the same mismatch as integrate_batch's.
            with pytest.raises(ValueError, match=re.escape(
                    f"integrate_taped needs rows of shape (batch, 8), got {shape}")):
                integrate_taped(np.zeros(shape, dtype=complex), 0.1, cfg)

    def test_returned_rows_are_fresh(self):
        # rk4 steps its own copy in place: neither the input rows nor the
        # rows of an earlier call may change when the next call flows.
        cfg = FlowConfig(N=16, dt=0.05)
        c = rows_of([random_state(i, 16, radius=0.5) for i in range(3)])
        c_before = c.copy()
        first = integrate_batch(c, 0.5, cfg)
        first_before = first.copy()
        second = integrate_batch(first, 0.5, cfg)
        integrate_batch(2.0 * c, 0.5, cfg)
        assert _same_bits(c, c_before) and _same_bits(first, first_before)
        assert not np.shares_memory(first, second)

    def test_picard_states_flow_in_turn(self):
        cfg = FlowConfig(N=8, dt=0.5, integrator="picard")
        states = [random_state(i, 8, radius=0.3) for i in range(2)]
        rows = integrate_batch(rows_of(states), 0.5, cfg)
        for u0, row in zip(states, rows):
            assert np.array_equal(row.real, integrate(u0, 0.5, cfg).final.a)


def _same_bits(x, y):
    """Equal bit for bit, so 0.0 and -0.0 differ (the state CSVs print -0)."""
    return np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))


def _pairing(x, y):
    """Re sum conj(x_k) y_k per row: the pairing the adjoint transposes in."""
    return np.sum(x.real * y.real + x.imag * y.imag, axis=-1)


class TestAdjoint:
    """integrate_taped records a flow; adjoint_batch runs the transpose of its steps backwards."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 64),
        batch=st.integers(1, 3),
        dt=st.floats(0.05, 0.25),
        t_span=st.floats(-0.6, 0.6).filter(lambda t: abs(t) > 1e-3),
        integrator=st.sampled_from(["rk4", "implicit_midpoint"]),
        linear_only=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_dot_product_with_tangent_linear(self, n_modes, batch, dt, t_span, integrator,
                                             linear_only, seed):
        # <J d, lam> = <d, J^T lam> for the derivative J of the taped flow,
        # applied forward by an np.fft tangent-linear pass, to 1e-12 of
        # |J d| |lam|.
        cfg = FlowConfig(N=n_modes, dt=dt, integrator=integrator, linear_only=linear_only)
        c0, delta, lam = (sobolev_ball_rows(np.array(
            [substream(seed, "dot", name, i).standard_normal((2, n_modes)) for i in range(batch)]),
            0.5, 0.8) for name in ("c0", "delta", "lam"))
        _, tape = integrate_taped(c0, t_span, cfg)
        jd = tangent_linear(tape, delta, t_span, cfg)
        jt_lam = adjoint_batch(tape, lam, t_span, cfg)
        scale = np.linalg.norm(jd, axis=-1) * np.linalg.norm(lam, axis=-1)
        assert np.all(np.abs(_pairing(lam, jd) - _pairing(jt_lam, delta)) <= 1e-12 * scale)

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    def test_final_rows_are_integrate_batch_bits(self, integrator):
        cfg = FlowConfig(N=16, dt=0.05, integrator=integrator)
        c = rows_of([random_state(i, 16, radius=0.8) for i in range(5)])
        final, tape = integrate_taped(c, 0.5, cfg)
        assert _same_bits(final, integrate_batch(c, 0.5, cfg))
        assert tape.shape == (5,) + tape_shape(0.5, cfg) == (5, 10, 4 if integrator == "rk4" else 1,
                                                                smooth_grid_size(49))

    def test_tape_holds_the_grid_values_of_each_stage_input(self):
        # rk4's first stage input is the step's start; the midpoint's tape
        # holds the grid values of (y + z)/2 for the step from y to z.
        c = rows_of([random_state(i, 8, radius=0.8) for i in range(3)])
        m = smooth_grid_size(25)
        cfg = FlowConfig(N=8, dt=0.1)
        _, tape = integrate_taped(c, 0.2, cfg)
        mid_step = integrate_batch(c, 0.1, cfg)
        assert np.allclose(tape[:, 0, 0], synthesize_rows(0.0, c, m), rtol=0, atol=1e-15)
        assert np.allclose(tape[:, 1, 0], synthesize_rows(0.0, mid_step, m), rtol=0, atol=1e-15)
        cfg = FlowConfig(N=8, dt=0.1, integrator="implicit_midpoint")
        _, tape = integrate_taped(c, 0.1, cfg)
        z = integrate_batch(c, 0.1, cfg)
        assert np.allclose(tape[:, 0, 0], synthesize_rows(0.0, 0.5 * (c + z), m),
                           rtol=0, atol=1e-15)

    def test_empty_tapes(self):
        # A linear_only flow records nothing, a zero horizon takes no step, and no rows flow.
        c = rows_of([random_state(i, 8, radius=0.8) for i in range(2)])
        assert integrate_taped(c, 0.5, FlowConfig(N=8, dt=0.1, linear_only=True))[1].shape == (
            2, 5, 4, 0)
        final, tape = integrate_taped(c, 0.0, FlowConfig(N=8, dt=0.1))
        assert _same_bits(final, c) and tape.shape == (2, 0, 4, 25)
        lam = c[::-1].copy()
        assert _same_bits(adjoint_batch(tape, lam, 0.0, FlowConfig(N=8, dt=0.1)), lam)
        final, tape = integrate_taped(c[:0], 0.5, FlowConfig(N=8, dt=0.1))
        assert final.shape == (0, 8) and tape.shape == (0, 5, 4, 25)

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    def test_batched_rows_equal_one_row_passes(self, integrator):
        # Rows of very different sizes, so midpoint rows converge at different iterations.
        cfg = FlowConfig(N=12, dt=0.1, integrator=integrator)
        c = rows_of([random_state(i, 12, radius=10.0 ** (-3.0 + i)) for i in range(4)])
        lam = rows_of([random_state(i + 10, 12, radius=10.0 ** (2.0 - i)) for i in range(4)])
        _, tape = integrate_taped(c, 0.6, cfg)
        pulled = adjoint_batch(tape, lam, 0.6, cfg)
        for i in range(4):
            assert _same_bits(pulled[i], adjoint_batch(tape[i:i + 1], lam[i:i + 1], 0.6, cfg)[0])

    def test_reverse_rows_stopping_at_different_iterations_keep_their_bits(self, monkeypatch):
        # Cotangents on high and low modes converge after different numbers of iterations,
        # so the reverse solve runs on all rows first and then on gathered subsets.
        cfg = FlowConfig(N=12, dt=0.1, integrator="implicit_midpoint")
        c = rows_of([random_state(i, 12, radius=0.3) for i in range(6)])
        modes = (12, 1, 7, 2, 11, 4)
        lam = rows_of([TrigState.single_mode(k, 12, a_k=1.0, b_k=0.5) for k in modes])
        _, tape = integrate_taped(c, 0.4, cfg)
        sizes = []
        bind = flow._VecOps.bind

        def counting_bind(ops, lead=()):
            kernels = bind(ops, lead)
            rhs_adjoint = kernels.rhs_adjoint
            kernels.rhs_adjoint = lambda lam, u, out: (
                sizes.append(len(lam)), rhs_adjoint(lam, u, out))[1]
            return kernels

        monkeypatch.setattr(flow._VecOps, "bind", counting_bind)
        pulled = adjoint_batch(tape, lam, 0.4, cfg)
        assert len({size for size in sizes if size < 6}) > 1
        for i in range(6):
            assert _same_bits(pulled[i], adjoint_batch(tape[i:i + 1], lam[i:i + 1], 0.4, cfg)[0])

    def test_picard_has_no_tape(self):
        cfg = FlowConfig(N=8, dt=0.1, integrator="picard")
        with pytest.raises(ValueError, match="^integrator = 'picard' has no adjoint"):
            integrate_taped(np.zeros((1, 8), complex), 0.5, cfg)


def _padding(rows, n_modes):
    """Bin 0 and the bins above n_modes of the finite rows among rows (any leading shape)."""
    rows = np.asarray(rows).reshape(-1, np.shape(rows)[-1])
    rows = rows[np.isfinite(rows).all(axis=-1)]
    return np.concatenate([rows[:, :1], rows[:, n_modes + 1:]], axis=-1)


class TestPaddedLayout:
    """Flow rows live in the padded half spectrum, exactly 0 at bin 0 and above N."""

    @pytest.mark.parametrize("n_modes", [1, 8, 32, 128])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_bins_outside_the_modes_stay_zero(self, monkeypatch, n_modes, batch):
        # Every step's rows, every kernel's input and output, forward and reverse.  The kernels
        # are watched where _VecOps.bind hands them out.  rk4's P outputs (flux and its taped
        # form) and the reverse pass's products are exempt by design: rk4's L tables, 0 outside
        # 1..N, project them, and its stage inputs and steps are checked.
        bins = flow._VecOps(n_modes).m_pad // 2 + 1
        seen = {}

        def wrap(name, inner, rows_of_call):
            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                for rows in rows_of_call(args, result):
                    assert np.shape(rows)[-1] == bins, name
                    assert np.all(_padding(rows, n_modes) == 0.0), name
                    seen[name] = seen.get(name, 0) + np.size(rows) // bins
                return result
            return wrapped

        def watch(owner, name, rows_of_call):
            monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name), rows_of_call))

        bind = flow._VecOps.bind

        def watched_bind(ops, lead=()):
            kernels = bind(ops, lead)
            for name in ("rhs", "rhs_adjoint", "nonlinear"):
                setattr(kernels, name, wrap(name, getattr(kernels, name),
                                            lambda args, result: (args[0], result)))
            for name in ("znorm", "flux", "product"):
                setattr(kernels, name, wrap(name, getattr(kernels, name),
                                            lambda args, result: (args[0],)))
            taped = kernels.taped
            kernels.taped = lambda slots: wrap("taped_flux", taped(slots),
                                               lambda args, result: (args[0],))
            return kernels

        monkeypatch.setattr(flow._VecOps, "bind", watched_bind)
        watch(flow._VecOps, "free", lambda args, result: (args[1], result))
        watch(flow, "rk4_step", lambda args, result: (args[1],))
        watch(flow, "_midpoint_step", lambda args, result: (args[1],))
        watch(flow, "_picard_subinterval", lambda args, result: (args[1], result[0]))
        watch(flow, "_rk4_adjoint_step", lambda args, result: (args[2],))
        watch(flow, "_midpoint_adjoint_step", lambda args, result: (args[2],))

        states = [random_state(i, n_modes, radius=0.3) for i in range(batch)]
        c = rows_of(states)
        for integ in ("rk4", "implicit_midpoint"):
            for linear_only in (False, True):
                cfg = FlowConfig(N=n_modes, dt=0.05, integrator=integ, linear_only=linear_only)
                integrate(states[0], 0.2, cfg)
                integrate_batch(c, 0.2, cfg)
                _, tape = integrate_taped(c, 0.2, cfg)
                adjoint_batch(tape, c[::-1], 0.2, cfg)
        integrate_batch(c, 0.4, FlowConfig(N=n_modes, dt=0.2, integrator="picard"))
        assert set(seen) == {"rhs", "flux", "taped_flux", "product", "rhs_adjoint", "nonlinear",
                             "znorm", "free", "rk4_step", "_midpoint_step", "_picard_subinterval",
                             "_rk4_adjoint_step", "_midpoint_adjoint_step"}
        assert seen["rk4_step"] == 2 * 4 * (1 + 2 * batch)
        assert seen["_picard_subinterval"] == 4 * batch

    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint"])
    @pytest.mark.parametrize("n_modes", [8, 32])
    def test_adjoint_is_the_transpose_of_the_tangent_linear_oracle(self, integrator, n_modes):
        # Both maps on every real direction of one taped row: <e_i, J e_j> = <J^T e_i, e_j>.
        cfg = FlowConfig(N=n_modes, dt=0.05, integrator=integrator)
        c = rows_of([random_state(3, n_modes, radius=0.8)])
        _, tape = integrate_taped(c, 0.5, cfg)
        basis = np.concatenate([np.eye(n_modes), 1j * np.eye(n_modes)])
        taped = np.repeat(tape, len(basis), axis=0)
        jac = tangent_linear(taped, basis, 0.5, cfg)
        jac_t = adjoint_batch(taped, basis, 0.5, cfg)
        forward = _pairing(basis[:, None, :], jac[None, :, :])
        reverse = _pairing(jac_t[:, None, :], basis[None, :, :])
        assert np.max(np.abs(forward - reverse)) <= 1e-12 * np.max(np.abs(forward))


class TestPairRowReference:
    """The complex half-spectrum rows against the real [a, b] rows they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 64),
        data=st.data(),
        batch=st.integers(1, 8),
        dt=st.floats(0.02, 0.3),
        t_span=st.floats(-1.0, 1.0),
        linear_only=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_integrate_matches_bit_for_bit(self, n_modes, data, batch, dt, t_span, linear_only,
                                           seed):
        # Some states fill fewer modes than N, so zero modes (and their signs) are flowed too.
        states = [
            sobolev_ball_state(
                substream(seed, "pairs", i), data.draw(st.integers(1, n_modes)), 0.5, 0.5
            ).padded(n_modes)
            for i in range(batch)
        ]
        ref = PairRowFlow(n_modes, linear_only)
        for integ in ("rk4", "implicit_midpoint"):
            cfg = FlowConfig(N=n_modes, dt=dt, integrator=integ, linear_only=linear_only)
            rows = integrate_batch(rows_of(states), t_span, cfg)
            for u0, c in zip(states, rows):
                a, b = ref.integrate(u0, t_span, dt, integ, cfg.midpoint_tol)
                single = integrate(u0, t_span, cfg).final
                row = TrigState.from_row(c)
                assert _same_bits(single.a, a) and _same_bits(single.b, b)
                assert _same_bits(row.a, a) and _same_bits(row.b, b)

    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 64),
        t=st.floats(-20.0, 20.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_free_evolution_and_rhs_match_bit_for_bit(self, n_modes, t, seed):
        u = sobolev_ball_state(substream(seed, "pairs"), n_modes, 0.5, 1.0)
        ref = PairRowFlow(n_modes)
        y = np.concatenate([u.a, u.b])
        for got, want in (
            (free_evolution(u, t), ref.free(y, t)),
            (rhs(u, FlowConfig(N=n_modes, dt=1e-3)), ref.rhs(y)),
        ):
            assert _same_bits(got.a, want[:n_modes]) and _same_bits(got.b, want[n_modes:])

    def test_one_workspace_serves_every_shape(self):
        # One _VecOps flows a 128-row rk4 batch, one row, a midpoint batch
        # whose active rows shrink, then Picard nodes: its workspace follows
        # every shape change and each result keeps the bits of a fresh one.
        # shapes holds the row shape of every binding of the kernels.
        n, t_span = 12, 0.4
        ops = flow._VecOps(n)
        bins = ops.m_pad // 2 + 1
        shapes = []
        bind = ops.bind
        ops.bind = lambda lead=(): (shapes.append(lead + (bins,)), bind(lead))[1]
        states = [random_state(i, n, radius=10.0 ** (-4.0 + i / 32)) for i in range(128)]
        ref = PairRowFlow(n)
        for rows, integ in ((rows_of(states), "rk4"), (states[0].row, "rk4"),
                            (rows_of(states[::16]), "implicit_midpoint")):
            cfg = FlowConfig(N=n, dt=0.1, integrator=integ)
            got = flow._advance(ops, rows, t_span, cfg)[0]
            assert _same_bits(got, flow._advance(flow._VecOps(n), rows, t_span, cfg)[0])
            for c, u0 in zip(np.atleast_2d(got), map(TrigState.from_row, np.atleast_2d(rows))):
                a, b = ref.integrate(u0, t_span, cfg.dt, integ, cfg.midpoint_tol)
                assert _same_bits(TrigState.from_row(c).a, a)
                assert _same_bits(TrigState.from_row(c).b, b)
        # The 8-row midpoint batch shrinks as its rows converge, at different iterations.
        midpoint_batches = {shape[0] for shape in shapes if len(shape) == 2 and shape[0] < 8}
        assert len(midpoint_batches) > 1
        # On a fresh workspace the shrinking midpoint batch takes leading rows of the buffers
        # allocated for its first 8 rows: the same grid and tiled symbols at every active-set
        # size.
        fresh = flow._VecOps(n)
        seen = []
        fresh_bind = fresh.bind
        fresh.bind = lambda lead=(): (fresh_bind(lead),
                                      seen.append((lead, fresh._rows, fresh._tiled)))[0]
        cfg = FlowConfig(N=n, dt=0.1, integrator="implicit_midpoint")
        rows = rows_of(states[::16])
        got = flow._advance(fresh, rows, t_span, cfg)[0]
        assert len({shape for shape, _, _ in seen}) > 1 and len(seen[0][1]) == 8
        assert all(work is seen[0][1] and tiled is seen[0][2] for _, work, tiled in seen)
        for c, u0 in zip(got, map(TrigState.from_row, rows)):
            a, b = ref.integrate(u0, t_span, cfg.dt, "implicit_midpoint", cfg.midpoint_tol)
            assert _same_bits(TrigState.from_row(c).a, a) and _same_bits(TrigState.from_row(c).b, b)
        cfg = FlowConfig(N=n, dt=t_span, integrator="picard")
        got = flow._advance(ops, states[0].row, t_span, cfg)
        want = flow._advance(flow._VecOps(n), states[0].row, t_span, cfg)
        assert _same_bits(got[0], want[0]) and got[2] == want[2]
        nodes = ops.pad(rows_of(states[:8]))
        assert _same_bits(ops.bind(nodes.shape[:-1]).nonlinear(nodes, np.empty_like(nodes)),
                          [flow._VecOps(n).bind().nonlinear(c, np.empty_like(c)) for c in nodes])
        assert (8, bins) in shapes and (bins,) in shapes and (128, bins) in shapes


EPS = float(np.finfo(float).eps)


def _draws(seed, name, batch, n_modes):
    """batch H^1/2 rows of radius 0.8 from the substreams (seed, name, i)."""
    return sobolev_ball_rows(np.array([substream(seed, name, i).standard_normal((2, n_modes))
                                       for i in range(batch)]), 0.5, 0.8)


class TestFusedRk4:
    """rk4 with L in its step tables against the stagewise step and transpose it replaced.

    The two differ only in rounding: a step rounds a few times per entry either way, so after
    n steps of a map that barely amplifies on these small data they agree to 32 n eps of each
    row's largest entry.  That bound was fixed before the comparison was run.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        n_modes=st.integers(1, 64),
        batch=st.integers(1, 4),
        dt=st.floats(0.01, 0.3),
        t_span=st.floats(-1.0, 1.0),
        linear_only=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_forward_and_reverse_match_the_stagewise_steps(self, n_modes, batch, dt, t_span,
                                                           linear_only, seed):
        cfg = FlowConfig(N=n_modes, dt=dt, linear_only=linear_only)
        c0, lam = (_draws(seed, name, batch, n_modes) for name in ("c0", "lam"))
        final, tape = integrate_taped(c0, t_span, cfg)
        tol = 32 * tape.shape[1] * EPS
        for got, want in ((final, stagewise_rk4(c0, t_span, cfg)),
                          (adjoint_batch(tape, lam, t_span, cfg),
                           stagewise_rk4_adjoint(tape, lam, t_span, cfg))):
            scale = np.max(np.abs(want), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= tol * scale)

    @settings(max_examples=30, deadline=None)
    @given(
        n_modes=st.integers(1, 64),
        batch=st.integers(1, 4),
        dt=st.floats(0.01, 0.3),
        t_span=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_linear_only_reverse_pass_is_the_transpose(self, n_modes, batch, dt, t_span, seed):
        # <lam, Phi delta> = <Phi^T lam, delta>: Phi multiplies each mode by R(dt L)^n and
        # Phi^T by conj(R(dt L))^n, so the two pairings differ by rounding alone, at most
        # 32 (n + N) eps |lam| |delta| (the pairing's own sum adds N roundings).
        cfg = FlowConfig(N=n_modes, dt=dt, linear_only=True)
        delta, lam = (_draws(seed, name, batch, n_modes) for name in ("delta", "lam"))
        phi_delta, tape = integrate_taped(delta, t_span, cfg)
        phi_t_lam = adjoint_batch(tape, lam, t_span, cfg)
        scale = np.linalg.norm(delta, axis=-1) * np.linalg.norm(lam, axis=-1)
        tol = 32 * (tape.shape[1] + n_modes) * EPS
        assert np.all(np.abs(_pairing(lam, phi_delta) - _pairing(phi_t_lam, delta)) <= tol * scale)

    def test_linear_only_step_is_one_multiply_by_the_amplification_polynomial(self):
        cfg = FlowConfig(N=12, dt=0.1, linear_only=True)
        c = _draws(4, "amp", 3, 12)
        z = 0.1 * flow._VecOps(12).gen[1:13]
        r = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0))))
        assert _same_bits(integrate_batch(c, 0.1, cfg), r * c)
        assert _same_bits(adjoint_batch(np.empty((3, 1, 4, 0)), c, 0.1, cfg), np.conj(r) * c)


# sha256 of unchanged_outputs(), recorded before rk4 folded its linear symbol into the step
# tables: the implicit midpoint forward, taped and in reverse, with and without linear_only,
# its interaction samples, flow.rhs, and a Picard flow with its X^0 differences.
UNCHANGED_DIGEST = "ad869dfba48f1976a357b0a2c7a02fea293851ad5760c777000eb28847f96be7"


def unchanged_outputs():
    c, lam = (_draws(3, name, 4, 12) for name in ("digest", "digest-lam"))
    outs = []
    for linear_only in (False, True):
        cfg = FlowConfig(N=12, dt=0.1, integrator="implicit_midpoint", linear_only=linear_only)
        final, tape = integrate_taped(c, 0.45, cfg)
        outs += [integrate_batch(c, 0.45, cfg), final, tape, adjoint_batch(tape, lam, 0.45, cfg),
                 interaction_samples(c, -0.3, 3, cfg), rhs(TrigState.from_row(c[0]), cfg).row]
    u0 = sobolev_ball_state(substream(3, "digest-picard"), 16, 0.5, 1.0)
    res = integrate(u0, 1.5, FlowConfig(N=16, dt=0.75, integrator="picard"))
    return outs + [res.final.row, np.array([d for sub in res.picard_diffs for d in sub])]


def test_midpoint_picard_and_rhs_keep_their_bits():
    digest = hashlib.sha256()
    for out in unchanged_outputs():
        digest.update(np.ascontiguousarray(out).tobytes())
    assert digest.hexdigest() == UNCHANGED_DIGEST


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestRk4Coefficients:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("dt", [0.05, 1.0 / 3.0, 0.7, 2e-3])
    def test_follow_the_row_dtype_with_the_python_float_bits(self, dtype, dt):
        # A scalar L = 1 of the row dtype gives 0-d tables of that dtype, which take the place
        # of Python floats in rk4_step; a float meeting complex rows was cast to complex(s, 0),
        # the loop a complex 0-d array runs.  The step is y' = L p(y) in the fused stage order.
        coef = flow.rk4_coefficients(dt, np.ones((), dtype))
        assert [(a.shape, a.dtype) for a in coef] == [((), np.dtype(dtype))] * 4
        x = np.random.default_rng(7).standard_normal((2, 6))
        y = x[0] + 1j * x[1] if dtype is complex else x[0]

        def f(x, out=None):
            return np.subtract(np.multiply(x, x[::-1], out=out), x, out=out)

        p1 = f(y)
        p2 = f(y + 0.5 * dt * p1)
        p3 = f(y + 0.5 * dt * p2)
        p4 = f(y + dt * p3)
        want = y + (dt / 6.0 * (p1 + p4) + dt / 3.0 * (p2 + p3))
        flow.rk4_step(f, y, coef, np.empty((5,) + y.shape, dtype))
        assert _same_bits(y, want)


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
            integrate_batch(rows_of([small, self.BIG, small]), 50.0, self.CFG)

    def test_midpoint_blow_up_is_a_flow_error(self):
        cfg = FlowConfig(N=16, dt=2.0, integrator="implicit_midpoint")
        with pytest.raises(FlowError, match="step"):
            integrate(self.BIG, 50.0, cfg)

    def test_messages_name_the_first_non_finite_step_time_and_row(self):
        # The messages as recorded when every step tested each entry with np.isfinite.
        small = TrigState.single_mode(1, 16, a_k=0.1)
        midpoint = FlowConfig(N=16, dt=2.0, integrator="implicit_midpoint")
        for call, message in (
            (lambda: integrate(self.BIG, 50.0, self.CFG),
             "state became non-finite at step 3 of 25 (t = 6)"),
            (lambda: integrate_batch(rows_of([small, self.BIG, small]), 50.0, self.CFG),
             "state became non-finite in row 1 at step 3 of 25 (t = 6)"),
            (lambda: integrate(self.BIG, 50.0, midpoint),
             "state became non-finite at step 1 of 25 (t = 2)"),
        ):
            with pytest.raises(FlowError, match=f"^{re.escape(message)}$"):
                call()

    def test_finite_rows_whose_sums_overflow_flow_on(self):
        # Five bins at 4e307 sum past the largest double, five at 1e200 square past it, and
        # every entry of both rows stays finite through the linear flow.
        c = np.array([np.full(5, 4e307 + 0j), np.full(5, 1e200 - 1e200j)])
        cfg = FlowConfig(N=5, dt=0.1, linear_only=True)
        rows = integrate_batch(c, 1.0, cfg)
        assert np.isfinite(rows).all()
        for row, c0 in zip(rows, c):
            assert _same_bits(row, integrate(TrigState.from_row(c0), 1.0, cfg).final.row)


class TestMidpointStall:
    """The implicit-midpoint solver out of iterations, in the flow and in its transpose."""

    CFG = FlowConfig(N=12, dt=0.1, integrator="implicit_midpoint")

    def test_forward_stall_names_step_and_residual(self, monkeypatch):
        monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", 2)
        with pytest.raises(FlowError, match=r"^implicit midpoint solver stalled at step 1: "
                                            r"residual \S+ > tol 1\.000e-12$"):
            integrate(random_state(0, 12, radius=0.5), 0.3, self.CFG)

    def test_reverse_stall_turns_only_its_rows_nan(self, monkeypatch):
        # A cotangent on a high mode converges in fewer iterations than one on
        # a low mode, whose phase speed phi(k) is larger.
        c = rows_of([random_state(i, 12, radius=0.1) for i in range(4)])
        lam = rows_of([TrigState.single_mode(k, 12, a_k=1.0) for k in (12, 1, 11, 2)])
        _, tape = integrate_taped(c, 0.6, self.CFG)
        monkeypatch.setattr(flow, "_MIDPOINT_MAX_ITER", 5)
        pulled = adjoint_batch(tape, lam, 0.6, self.CFG)
        stalled = np.isnan(pulled).any(axis=1)
        assert stalled.tolist() == [False, True, False, True]
        assert np.isnan(pulled[stalled]).all()
        for i in range(4):
            alone = adjoint_batch(tape[i:i + 1], lam[i:i + 1], 0.6, self.CFG)[0]
            assert np.isnan(alone).all() if stalled[i] else _same_bits(pulled[i], alone)


class TestZNorm:
    @settings(max_examples=40, deadline=None)
    @given(
        n_modes=st.integers(1, 64),
        rows=st.integers(1, 64),
        log_scale=st.floats(-150.0, 150.0),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_bound_znorm_is_the_summed_formula_bit_for_bit(self, n_modes, rows, log_scale, seed):
        rng = np.random.default_rng(seed)
        ops = flow._VecOps(n_modes)
        c = ops.pad(10.0 ** log_scale * (rng.standard_normal((rows, n_modes))
                                         + 1j * rng.standard_normal((rows, n_modes))))
        want = np.sqrt(np.sum(ops.zw * (c.real ** 2 + c.imag ** 2), axis=-1))
        assert _same_bits(ops.bind((rows,)).znorm(c.copy()), want)


def _serial_picard(ops, y0, h, tol, max_iter):
    """Per-node list-comprehension form of the Duhamel fixed point (the reference)."""
    nodes, weights, integ = flow._gauss_collocation()
    n_panels = max(1, math.ceil(abs(h) / flow._PICARD_PANEL_MAX))
    ph = h / n_panels
    flat_tau = (ph * np.arange(n_panels)[:, None] + ph * nodes[None, :]).ravel()
    n_nodes = len(flat_tau)
    nonlinear = ops.bind().nonlinear
    ys = np.array([ops.free(y0, t) for t in flat_tau])
    diffs = []

    def duhamel(values):
        v = np.array(
            [ops.free(nonlinear(values[j], np.empty_like(values[j])), -flat_tau[j])
             for j in range(n_nodes)]
        ).reshape(n_panels, len(nodes), -1)
        panel_full = ph * np.einsum("j,pjd->pd", weights, v)
        prefix = np.concatenate(
            [np.zeros((1, v.shape[-1]), dtype=v.dtype), np.cumsum(panel_full, axis=0)]
        )
        node_part = ph * np.einsum("ij,pjd->pid", integ, v)
        return (prefix[:-1, None, :] + node_part).reshape(n_nodes, -1), prefix[-1]

    for _ in range(max_iter):
        integrals, _ = duhamel(ys)
        ys_new = np.array([ops.free(y0 + integrals[j], flat_tau[j]) for j in range(n_nodes)])
        diff = max(math.sqrt(math.pi * float(np.vdot(d, d).real)) for d in ys_new - ys)
        diffs.append(diff)
        ys = ys_new
        if diff < tol:
            break
    _, total = duhamel(ys)
    return ops.free(y0 + total, h), diffs


# test_pinned_bits's X^0 differences and final (a, b), as float.hex strings.
PICARD_PIN_DIFFS = [
    [
        "0x1.24ab6f6202618p-6", "0x1.29e0f1d3ce003p-11", "0x1.23694f4ac71a6p-16",
        "0x1.5abf1e4a3c1d1p-22", "0x1.8b0e62adf06f0p-28", "0x1.547f72af5a518p-34",
        "0x1.07ff0b5282beep-40",
    ],
    [
        "0x1.6068bbce84652p-6", "0x1.80de098c65b37p-11", "0x1.c172f160a1890p-16",
        "0x1.1e7776c64569ap-21", "0x1.93d31194591cap-27", "0x1.5ee2982a8ea4cp-33",
        "0x1.5fe2148181fc1p-39", "0x1.cceffb71f22b5p-46",
    ],
]
PICARD_PIN_A = [
    "-0x1.1629ca618cd7ep-3", "0x1.977c25392fd22p-4", "-0x1.77b9c668d75d3p-6",
    "-0x1.000dff6f331a8p-5", "0x1.8bdaf1bcb32e0p-5", "0x1.ed1d30281c9f7p-9",
    "-0x1.1422aadc0a492p-5", "0x1.35b0f899ce345p-6", "-0x1.4ebbf81027eeap-9",
    "-0x1.91a0faf534f9cp-7", "-0x1.a4bdd6f445e75p-8", "0x1.fb989a0090deap-6",
    "-0x1.769a604fd3d18p-7", "0x1.6bc304c01a270p-11", "-0x1.75925e12a7b0dp-8",
    "-0x1.b67f4a50e5c13p-7", "0x1.94ff5b5aedc58p-6", "0x1.bd646e85c6454p-7",
    "0x1.9c39e5370135ap-6", "-0x1.b6a8735912614p-8", "-0x1.e41bad5cc65e7p-12",
    "0x1.e1b618f6ba53ep-10", "-0x1.f78f6c8eccd18p-10", "-0x1.978bbd22081b4p-12",
    "-0x1.7e5672a784528p-7", "-0x1.fd8c5c25bf3aap-11", "-0x1.99ec515015e2ep-11",
    "-0x1.7c982f16eb70cp-7", "-0x1.fe5d51b123ba8p-10", "-0x1.532c83ad7146fp-8",
    "-0x1.4bfd9e238b882p-10", "-0x1.8f9ad5877e3d0p-12",
]
PICARD_PIN_B = [
    "-0x1.df0241a564d4ep-3", "-0x1.4314bec4ea49dp-4", "0x1.9baff7518be87p-5",
    "0x1.65f0aa7094a0fp-4", "-0x1.8ba1e22d947d6p-7", "0x1.8e68e36b732bep-6",
    "-0x1.a0460fc1afd90p-7", "0x1.2cc16dfb2e08bp-5", "-0x1.f00cbea6a16ffp-10",
    "0x1.77a443c7322e3p-6", "-0x1.6f08a42431541p-8", "0x1.6bee22e8343aep-9",
    "-0x1.17f9b40c9d915p-10", "-0x1.222426d2ca22ep-7", "-0x1.b622ec87d9833p-6",
    "-0x1.6185fa8fc0fdep-9", "0x1.555020f48f26ep-8", "-0x1.94c5838de2af1p-8",
    "-0x1.9058586d151bap-7", "0x1.042ecdd5effaap-6", "0x1.2704b0fe31d23p-7",
    "0x1.77be9156ed90dp-8", "0x1.cbd1943133821p-8", "-0x1.ef76d36fcdac3p-7",
    "-0x1.3fca51ec87baap-9", "0x1.77e860d6d0d23p-8", "-0x1.b9ac20dcf62c2p-7",
    "-0x1.d683fdca7f1c8p-12", "-0x1.cdd2488064d98p-8", "-0x1.19ebf77905b52p-7",
    "-0x1.6814ec7e80089p-12", "-0x1.737ee2f128c6ep-8",
]


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
            y_end, diffs = _serial_picard(ops, ops.pad(u0.row), h, flow._PICARD_TOL, 200)
            assert np.max(np.abs(res.final.row - y_end[ops.modes])) <= 1e-12
            assert len(res.picard_diffs[0]) == len(diffs)
            assert np.max(np.abs(np.array(res.picard_diffs[0]) - diffs)) <= 1e-12

    def test_non_contraction_error_names_subinterval(self):
        u0 = 80.0 * random_state(7, 16)
        cfg = FlowConfig(N=16, dt=1.0, integrator="picard", picard_max_iter=30)
        with pytest.raises(FlowError, match=r"subinterval \[0, 1\]"):
            integrate(u0, 1.0, cfg)

    def test_pinned_bits(self):
        # One N = 32 flow of two subintervals, its final row and X^0 differences recorded
        # with float.hex before the rotation tables were built once per subinterval.
        u0 = sobolev_ball_state(substream(5, "picard-pin"), 32, 0.5, 1.0)
        res = integrate(u0, 2.0, FlowConfig(N=32, dt=1.0, integrator="picard", picard_max_iter=200))
        assert [[d.hex() for d in sub] for sub in res.picard_diffs] == PICARD_PIN_DIFFS
        assert [float(x).hex() for x in res.final.a] == PICARD_PIN_A
        assert [float(x).hex() for x in res.final.b] == PICARD_PIN_B

    def test_collocation_tables_built_on_first_use(self):
        code = "import bbmlab.flow as f; print(f._gauss_collocation.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.split() == ["0"]
        nodes, weights, integ = flow._gauss_collocation()
        assert flow._gauss_collocation()[0] is nodes
        assert nodes.shape == weights.shape == (8,) and integ.shape == (8, 8)
        assert abs(float(np.sum(weights)) - 1.0) < 1e-15
        # integ[j] @ 1 integrates 1 from 0 to node j.
        assert np.max(np.abs(integ.sum(axis=1) - nodes)) < 1e-14

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


    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint", "picard"])
    def test_is_the_rotated_back_endpoint_of_integrate(self, integrator):
        # Fewer modes than N, so zero modes (and their signs) go through too.
        cfg = FlowConfig(N=16, dt=0.25 if integrator == "picard" else 0.05, integrator=integrator)
        u0 = random_state(6, 12, radius=0.8)
        for t_span in (0.7, -0.4, 0.0):
            got = nonlinear_part(u0, t_span, cfg)
            want = free_evolution(integrate(u0, t_span, cfg).final, -t_span) - u0.padded(16)
            assert _same_bits(got.a, want.a) and _same_bits(got.b, want.b)


class TestInteractionSamples:
    @pytest.mark.parametrize("integrator", ["rk4", "implicit_midpoint", "picard"])
    def test_samples_are_the_segment_loop_on_one_workspace(self, monkeypatch, integrator):
        cfg = FlowConfig(N=10, dt=0.25 if integrator == "picard" else 0.05, integrator=integrator)
        c = rows_of([random_state(i, 10, radius=10.0 ** (-2 + i)) for i in range(3)])
        built = []
        init = flow._VecOps.__init__
        monkeypatch.setattr(flow._VecOps, "__init__",
                            lambda ops, *args: (built.append(args), init(ops, *args))[1])
        samples = interaction_samples(c, -0.6, 4, cfg)
        monkeypatch.undo()
        assert len(built) == 1 and samples.shape == (4, 3, 10)
        seg, y = -0.6 / 4, c
        for i in range(1, 5):
            y = integrate_batch(y, seg, cfg)
            rotated = [free_evolution(TrigState.from_row(row), -i * seg).row for row in y]
            assert _same_bits(samples[i - 1], np.array(rotated) - c)

    def test_one_pass_binds_once(self, monkeypatch):
        # 32 segments of 4 rk4 steps: one set of kernels and one set of step tables for all 128.
        calls = []
        bind, coefficients = flow._VecOps.bind, flow.rk4_coefficients

        def watched_bind(ops, lead=()):
            calls.append("bind")
            return bind(ops, lead)

        def watched_coefficients(*args):
            calls.append("rk4_coefficients")
            return coefficients(*args)

        monkeypatch.setattr(flow._VecOps, "bind", watched_bind)
        monkeypatch.setattr(flow, "rk4_coefficients", watched_coefficients)
        c = rows_of([random_state(i, 16, radius=0.5) for i in range(2)])
        samples = interaction_samples(c, 1.0, 32, FlowConfig(N=16, dt=0.01))
        assert sorted(calls) == ["bind", "rk4_coefficients"]
        assert samples.shape == (32, 2, 16) and np.all(np.isfinite(samples))

    def test_zero_horizon_and_row_shapes(self):
        cfg = FlowConfig(N=8, dt=0.1)
        c = rows_of([random_state(i, 8) for i in range(2)])
        assert np.all(interaction_samples(c, 0.0, 3, cfg) == 0.0)
        assert interaction_samples(c[:0], 0.5, 3, cfg).shape == (3, 0, 8)
        with pytest.raises(ValueError, match=re.escape(
                "interaction_samples needs rows of shape (batch, 8), got (8,)")):
            interaction_samples(c[0], 0.5, 3, cfg)
        for n_times in (0, -1):
            with pytest.raises(ValueError, match=f"^interaction_samples needs n_times >= 1, "
                                                 f"got {n_times}$"):
                interaction_samples(c, 0.5, n_times, cfg)


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
            FlowConfig(N=4, dt=1e-2, midpoint_tol=0.0)

    @pytest.mark.parametrize("field", ["dt", "midpoint_tol"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FlowConfig(**{"N": 4, "dt": 1e-2, field: value})

    def test_picard_panel_count_capped(self):
        # A picard dt of 1e300 used to reach numpy's allocator and fail with its
        # bare "Maximum allowed size exceeded".
        assert FlowConfig(N=4, dt=float(MAX_PICARD_PANELS), integrator="picard").dt == 1000.0
        FlowConfig(N=4, dt=1e300)
        for dt in (1000.5, 1e300):
            with pytest.raises(ValueError, match=rf"^dt = {re.escape(repr(dt))} makes Picard "
                               r"subintervals of up to \S+ quadrature panels, more than "
                               r"flow.MAX_PICARD_PANELS = 1000$"):
                FlowConfig(N=4, dt=dt, integrator="picard")

    @pytest.mark.parametrize("t_span", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_named_before_any_step(self, monkeypatch, t_span):
        # A nan horizon used to be reported as needing "nan steps, more than flow.MAX_STEPS".
        def no_step(*args):
            raise AssertionError("stepped")

        for stepper in ("rk4_step", "_midpoint_step", "_picard_subinterval"):
            monkeypatch.setattr(flow, stepper, no_step)
        u0 = random_state(1, 8)
        c = rows_of([u0])
        for integrator in ("rk4", "implicit_midpoint", "picard"):
            cfg = FlowConfig(N=8, dt=0.1, integrator=integrator)
            calls = [lambda: integrate(u0, t_span, cfg), lambda: integrate_batch(c, t_span, cfg),
                     lambda: interaction_samples(c, t_span, 4, cfg),
                     lambda: nonlinear_part(u0, t_span, cfg), lambda: flow._step_count(t_span, 0.1)]
            if integrator != "picard":
                calls.append(lambda: integrate_taped(c, t_span, cfg))
            for call in calls:
                with pytest.raises(ValueError, match=f"^T must be finite, got {t_span!r}$"):
                    call()

    def test_mode_count_capped(self):
        # 10^13 modes used to pass and then fail allocating the first state.
        assert FlowConfig(N=MAX_MODES, dt=1e-2).N == MAX_MODES
        for n_modes in (MAX_MODES + 1, 10_000_000_000_000):
            with pytest.raises(ValueError, match=f"^N must be <= {MAX_MODES}"):
                FlowConfig(N=n_modes, dt=1e-2)
