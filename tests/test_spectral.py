import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbmlab.estimates import _product_rows, canonical_form_matrix, exact_product
from bbmlab.flow import _VecOps
from bbmlab.sampling import sobolev_ball_state, substream
from bbmlab.spectral import (
    IRFFT,
    RFFT,
    ResolutionError,
    TrigState,
    analyze,
    basis_scale,
    dispersion_multiplier,
    from_symplectic,
    pair_coords,
    pair_rows,
    smooth_grid_size,
    sobolev_norm,
    synthesize,
    to_symplectic,
    unit_cos_mode,
    unit_sin_mode,
    z_norm,
)

from conftest import random_state, trig_states
from oracles import oracle_analyze, oracle_apply_J, oracle_synthesize, oracle_z_inner

SQRT_PI = math.sqrt(math.pi)


class TestTrigState:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrigState(0.0, [], [])
        with pytest.raises(ValueError):
            TrigState(0.0, [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            TrigState(float("nan"), [1.0], [0.0])
        with pytest.raises(ValueError):
            TrigState(0.0, [float("inf")], [0.0])

    def test_immutable(self):
        u = TrigState.zero(4)
        with pytest.raises(ValueError):
            u.a[0] = 1.0

    def test_trailing_zeros_kept(self):
        u = TrigState(0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert u.n_modes == 3

    def test_arithmetic_pads(self):
        u = TrigState.single_mode(1, 2, a_k=1.0)
        v = TrigState.single_mode(3, 3, b_k=2.0)
        w = u + v
        assert w.n_modes == 3
        assert w.a[0] == 1.0 and w.b[2] == 2.0
        assert (2.0 * u).a[0] == 2.0


class TestSynthesizeAnalyze:
    def test_cos_mode_values(self):
        u = TrigState.single_mode(1, 1, a_k=1.0)
        vals = synthesize(u, 8)
        expected = np.cos(2.0 * np.pi * np.arange(8) / 8)
        assert np.max(np.abs(vals - expected)) < 1e-14

    def test_zero_state(self):
        assert np.all(synthesize(TrigState.zero(3), 16) == 0.0)

    def test_resolution_rejected(self):
        with pytest.raises(ResolutionError, match="resolution"):
            synthesize(TrigState.zero(4), 8)
        with pytest.raises(ResolutionError, match="aliasing"):
            analyze(np.zeros(8), 4)

    @pytest.mark.parametrize("values, message", [
        (np.zeros((2, 9)), "^coefficient list must be one-dimensional$"),
        (np.zeros(0), "^empty sample grid$"),
    ])
    def test_analyze_needs_one_nonempty_grid(self, values, message):
        with pytest.raises(ValueError, match=message):
            analyze(values, 4)

    def test_fft_matches_direct(self):
        u = random_state(3, 16)
        f = synthesize(u, 64)
        d = oracle_synthesize(u, 64)
        assert np.max(np.abs(f - d)) < 1e-12

    def test_analyze_cos3(self):
        x = 2.0 * np.pi * np.arange(16) / 16
        u = analyze(np.cos(3 * x), 4)
        assert abs(u.a[2] - 1.0) < 1e-12
        assert abs(u.mean) < 1e-12
        others = np.concatenate([u.a[:2], u.a[3:], u.b])
        assert np.max(np.abs(others)) < 1e-12

    def test_analyze_constant(self):
        u = analyze(np.full(9, 2.5), 4)
        assert abs(u.mean - 2.5) < 1e-14
        assert np.max(np.abs(u.a)) < 1e-14 and np.max(np.abs(u.b)) < 1e-14

    def test_analyze_matches_quadrature_oracle(self):
        x = 2.0 * np.pi * np.arange(8) / 8
        vals = np.sin(x) + 0.5 * np.sin(2 * x)
        u = analyze(vals, 2)
        ref = oracle_analyze(vals, 2)
        assert abs(u.b[0] - 1.0) < 1e-12 and abs(u.b[1] - 0.5) < 1e-12
        assert np.max(np.abs(u.a - ref.a)) < 1e-12
        assert np.max(np.abs(u.b - ref.b)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 256])
    def test_round_trip(self, n):
        u = random_state(n, n)
        for m in (2 * n + 1, 2 * n + 5):
            v = analyze(synthesize(u, m), n)
            assert np.max(np.abs(v.a - u.a)) < 1e-12
            assert np.max(np.abs(v.b - u.b)) < 1e-12
            assert abs(v.mean - u.mean) < 1e-12

    def test_zero_modes_read_b_plus_zero(self):
        # analyze and exact_product used to read b = -imag, so cos x gave b = [-0., 0., -0.].
        cos1, cos2 = TrigState.single_mode(1, 3, a_k=1.0), TrigState.single_mode(2, 3, a_k=1.0)
        for u in (analyze(synthesize(cos1, 7), 3), exact_product(cos1, cos2)):
            zeros = u.b[u.b == 0.0]
            assert zeros.size and not np.any(np.signbit(zeros))

    @settings(max_examples=40, deadline=None)
    @given(trig_states())
    def test_round_trip_property(self, u):
        v = analyze(synthesize(u, 2 * u.n_modes + 1), u.n_modes)
        assert np.max(np.abs(v.a - u.a)) < 1e-12
        assert np.max(np.abs(v.b - u.b)) < 1e-12


class TestNorms:
    def test_sobolev_cos_examples(self):
        u = TrigState.single_mode(1, 1, a_k=1.0)
        assert abs(sobolev_norm(u, 0.0) - SQRT_PI) < 1e-14
        assert abs(sobolev_norm(u, 1.0) - math.sqrt(2.0 * math.pi)) < 1e-14
        assert sobolev_norm(TrigState.zero(5), 0.5) == 0.0

    def test_sobolev_mean_contribution(self):
        u = TrigState(2.0, [0.0], [0.0])
        assert abs(sobolev_norm(u, 0.7) - math.sqrt(8.0 * math.pi)) < 1e-14

    def test_negative_order_allowed(self):
        u = random_state(1, 8)
        assert sobolev_norm(u, -0.5) > 0.0

    def test_z_norm_unit_modes(self):
        assert abs(z_norm(unit_cos_mode(5, 8)) - 1.0) < 1e-14
        assert abs(z_norm(3.0 * unit_sin_mode(2, 4)) - 3.0) < 1e-14

    def test_z_norm_cos(self):
        u = TrigState.single_mode(1, 1, a_k=1.0)
        assert abs(z_norm(u) - math.sqrt(2.0 * math.pi)) < 1e-14

    def test_z_norm_rejects_mean(self):
        with pytest.raises(ValueError, match="mean-zero"):
            z_norm(TrigState(1.0, [1.0], [0.0]))

    @settings(max_examples=40, deadline=None)
    @given(trig_states())
    def test_z_norm_equals_pq_norm(self, u):
        nrm = z_norm(u)
        assert abs(nrm - np.linalg.norm(to_symplectic(u))) <= 1e-12 * max(1.0, nrm)


class TestMultiplierAndProjector:
    def test_dispersion_examples(self):
        u = TrigState.single_mode(1, 2, a_k=1.0)
        assert abs(dispersion_multiplier(u).a[0] - 0.5) < 1e-15
        v = TrigState.single_mode(2, 2, a_k=1.0, b_k=1.0)
        out = dispersion_multiplier(v)
        assert abs(out.a[1] - 0.4) < 1e-15 and abs(out.b[1] - 0.4) < 1e-15

    def test_dispersion_kills_mean(self):
        out = dispersion_multiplier(TrigState(7.0, [0.0], [0.0]))
        assert out.mean == 0.0 and np.all(out.a == 0.0) and np.all(out.b == 0.0)

    def test_symbol_bound_smoothing(self):
        for seed in range(10):
            u = random_state(seed, 24)
            for s in (0.0, 0.5, 1.0):
                assert sobolev_norm(dispersion_multiplier(u), s + 1.0) <= sobolev_norm(u, s) + 1e-13


class TestComplexStructure:
    """The symplectic form omega(xi, eta) = <J xi, eta>_Z in pair coordinates, as
    canonical_form_matrix holds it, against the complex structure J and the Z inner product of
    tests/oracles.py."""

    def test_unit_mode_mapping(self):
        u = oracle_apply_J(unit_cos_mode(3, 4))
        expect = -1.0 * unit_sin_mode(3, 4)
        assert np.max(np.abs(u.a - expect.a)) < 1e-15
        assert np.max(np.abs(u.b - expect.b)) < 1e-15
        # omega(cos_3, sin_3) = -1: the (p_3, q_3) entry of the canonical form.
        assert abs(oracle_z_inner(u, unit_sin_mode(3, 4)) + 1.0) < 1e-15
        assert canonical_form_matrix(4)[2, 6] == -1.0

    def test_j_squared_is_minus_identity(self):
        for seed in range(10):
            u = random_state(seed, 8)
            w = oracle_apply_J(oracle_apply_J(u))
            assert np.max(np.abs(w.a + u.a)) < 1e-14
            assert np.max(np.abs(w.b + u.b)) < 1e-14
        omega = canonical_form_matrix(8)
        assert np.array_equal(omega @ omega, -np.eye(16))

    def test_skew_symmetry(self):
        omega = canonical_form_matrix(8)
        assert np.array_equal(omega.T, -omega)
        for seed in range(10):
            u = random_state(seed, 8)
            v = random_state(seed + 100, 8)
            ju = oracle_apply_J(u)
            assert abs(oracle_z_inner(ju, u)) < 1e-12 * z_norm(u) ** 2
            assert abs(oracle_z_inner(ju, v) + oracle_z_inner(u, oracle_apply_J(v))) < 1e-12
            form = pair_coords(u.row, 8) @ omega @ pair_coords(v.row, 8)
            assert abs(form - oracle_z_inner(ju, v)) < 1e-12

    def test_rejects_mean(self):
        # J acts on the mean-zero phase space, which has pair coordinates.
        with pytest.raises(ValueError, match="mean-zero"):
            to_symplectic(TrigState(0.5, [1.0], [0.0]))


class TestSymplecticCoords:
    def test_basis_vector(self):
        x = to_symplectic(unit_cos_mode(1, 2))
        assert x.shape == (4,)
        assert abs(x[0] - 1.0) < 1e-14 and abs(x[2]) < 1e-14

    def test_two_mode_exact(self):
        u = 2.0 * unit_cos_mode(4, 4) + 3.0 * unit_sin_mode(4, 4)
        x = to_symplectic(u)
        assert abs(x[3] - 2.0) < 1e-13 and abs(x[7] - 3.0) < 1e-13
        assert abs(z_norm(u) - math.sqrt(13.0)) < 1e-13

    def test_round_trip(self):
        for seed in range(100):
            u = random_state(seed, 10)
            v = from_symplectic(to_symplectic(u))
            assert np.max(np.abs(v.a - u.a)) < 1e-12
            assert np.max(np.abs(v.b - u.b)) < 1e-12

    def test_rejects_mean(self):
        with pytest.raises(ValueError, match="mean-zero"):
            to_symplectic(TrigState(0.1, [1.0], [0.0]))

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="pair coordinates, got 3$"):
            from_symplectic(np.ones(3))

    def test_explicit_scaling(self):
        u = TrigState.single_mode(2, 2, a_k=1.0)
        x = to_symplectic(u)
        assert abs(x[1] - math.sqrt(math.pi * 5.0 / 2.0)) < 1e-13


class TestPairMaps:
    @settings(max_examples=60, deadline=None)
    @given(n_modes=st.integers(1, 64), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_match_symplectic_coords(self, n_modes, data, seed):
        # Some states fill fewer modes than N, so zero modes are mapped too.
        n_pairs = data.draw(st.integers(1, n_modes))
        n_filled = data.draw(st.integers(1, n_modes))
        u = sobolev_ball_state(substream(seed, "pairs"), n_filled, 0.5, 1.0).padded(n_modes)
        p, q = np.split(to_symplectic(u), 2)
        x = pair_coords(u.row, n_pairs)
        # == compares nonzero entries bit for bit and lets +0 equal -0.
        assert np.array_equal(x, np.concatenate([p[:n_pairs], q[:n_pairs]]))
        scale = basis_scale(n_pairs)
        assert np.array_equal(x, np.concatenate([u.a[:n_pairs] / scale, u.b[:n_pairs] / scale]))
        p, q = np.zeros(n_modes), np.zeros(n_modes)
        p[:n_pairs], q[:n_pairs] = x[:n_pairs], x[n_pairs:]
        v = from_symplectic(np.concatenate([p, q]))
        w = TrigState.from_row(pair_rows(x, n_modes))
        assert np.array_equal(w.a, v.a) and np.array_equal(w.b, v.b)
        assert np.array_equal(w.a[:n_pairs], x[:n_pairs] * scale)
        assert np.array_equal(w.b[:n_pairs], x[n_pairs:] * scale)

    def test_batch_rows_and_range_checks(self):
        x = np.array([[1.0, 2.0], [3.0, -4.0]])
        c = pair_rows(x, 3)
        assert c.shape == (2, 3) and np.all(c[:, 1:] == 0.0)
        assert np.array_equal(pair_coords(c, 1), x)
        assert not np.signbit(pair_rows(np.array([1.0, 0.0]), 1).imag[0])
        with pytest.raises(ValueError, match="n_pairs = 4 outside 1..3"):
            pair_coords(c, 4)
        for length in (4, 3):
            with pytest.raises(ValueError, match=f"need 2n <= 2 pair coordinates, got {length}"):
                pair_rows(np.zeros(length), 1)


class TestSmoothGridSize:
    def test_smallest_5_smooth_at_least_minimum(self):
        # Brute force: every 2^a 3^b 5^c up to 4000, then the first one >= m_min.
        smooth = sorted(
            2 ** a * 3 ** b * 5 ** c
            for a in range(12) for b in range(8) for c in range(6)
            if 2 ** a * 3 ** b * 5 ** c <= 4000
        )
        for m_min in range(1, 2001):
            assert smooth_grid_size(m_min) == next(m for m in smooth if m >= m_min), m_min

    def test_padded_grid_lengths(self):
        # 3N+1 for N = 8, 16, 32, 64, 128 (25 is already 5-smooth).
        assert [smooth_grid_size(3 * n + 1) for n in (8, 16, 32, 64, 128)] == [25, 50, 100, 200, 400]


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# Every padded-grid length the product kernels use at N = 1..128: the flow's square_half pads to
# 3N+1, the exact product of n_u + n_v <= 256 output modes to 2 n_out + 1.
FLOW_LENGTHS = {n: smooth_grid_size(3 * n + 1) for n in range(1, 129)}
PRODUCT_LENGTHS = {n_out: smooth_grid_size(2 * n_out + 1) for n_out in range(2, 257)}
ALL_LENGTHS = sorted(set(FLOW_LENGTHS.values()) | set(PRODUCT_LENGTHS.values()))


def _random_rows(rng, lead, n):
    return rng.standard_normal(lead + (n,)) - 1j * rng.standard_normal(lead + (n,))


def _np_fft_modes(spec, n_modes, m):
    """The modes of spectral.analyze_rows: 2 spec_k / m on the float view, k = 1..n_modes."""
    return (2.0 * spec[..., 1:n_modes + 1].view(float) / m).view(complex)


class TestPocketfftUfuncs:
    """The product kernels call numpy's private pocketfft ufuncs; np.fft is the reference."""

    def test_private_module_has_the_ufuncs(self):
        # A numpy release that moves or reshapes this module fails here, by name, and not in
        # every flow.
        import numpy.fft._pocketfft_umath as pocketfft

        for name in ("fft", "ifft", "rfft_n_even", "rfft_n_odd", "irfft"):
            ufunc = getattr(pocketfft, name)
            assert isinstance(ufunc, np.ufunc) and ufunc.nin == 2, name

    def test_lengths_include_odd_ones(self):
        assert {25, 45, 75, 81} <= set(ALL_LENGTHS)

    @pytest.mark.parametrize("m", ALL_LENGTHS)
    def test_ufuncs_match_np_fft_bit_for_bit(self, m):
        # In the kernels' call form, without axes: the default core axes transform each row
        # along its last axis, as np.fft does.
        rng = np.random.default_rng(m)
        for shape in ((m,), (5, m)):
            x = rng.standard_normal(shape)
            spec = np.empty(shape[:-1] + (m // 2 + 1,), complex)
            assert _same_bits(RFFT[m % 2](x, 1.0, out=spec), np.fft.rfft(x))
            spec = spec + rng.standard_normal(spec.shape)
            assert _same_bits(IRFFT(spec, 1.0 / m, out=np.empty(shape)),
                              np.fft.irfft(spec, m))

    def test_square_half_matches_np_fft_bit_for_bit(self):
        # The flow rows hold c_k itself in the padded half spectrum: the inverse transform at
        # scale 0.5 gives the grid values, the forward one at 1/m the spectrum of v^2/2, all bins.
        for n, m in FLOW_LENGTHS.items():
            ops = _VecOps(n)
            for lead in ((), (3,)):
                c = ops.pad(_random_rows(np.random.default_rng([n, len(lead)]), lead, n))
                vals = 0.5 * np.fft.irfft(c, m, norm="forward")
                want = np.fft.rfft(vals * vals, norm="forward")
                got = ops.bind(lead).square_half(c, np.empty_like(c))
                assert _same_bits(got, want), (n, lead)

    def test_adjoint_product_matches_np_fft_bit_for_bit(self):
        # product(c, u, out) takes the forward transform at scale 2/m, which pocketfft applies
        # as a final multiply: the bits of 2 rfft(u v) at norm="forward", all bins.  rhs_adjoint
        # is mu + mask * product(mu, u), mu = dual * lam.
        for n, m in FLOW_LENGTHS.items():
            ops = _VecOps(n)
            for lead in ((), (3,)):
                rng = np.random.default_rng([n, len(lead), 1])
                for scale in (1.0, 1e-150, 1e3):
                    c = ops.pad(scale * _random_rows(rng, lead, n))
                    u = scale * rng.standard_normal(lead + (m,))
                    vals = 0.5 * np.fft.irfft(c, m, norm="forward")
                    want = 2.0 * np.fft.rfft(u * vals, norm="forward")
                    kernels = ops.bind(lead)
                    got = kernels.product(c, u, np.empty_like(c))
                    assert _same_bits(got, want), (n, lead, scale)
                    mu = ops.dual * c
                    adjoint = mu + ops.mask * kernels.product(mu, u, np.empty_like(c))
                    got = kernels.rhs_adjoint(c, u, np.empty_like(c))
                    assert _same_bits(got, adjoint), (n, lead, scale)

    def test_exact_product_matches_np_fft_bit_for_bit(self):
        for n_out, m in PRODUCT_LENGTHS.items():
            n_u = n_out // 2
            for lead in ((), (3,)):
                rng = np.random.default_rng([n_out, len(lead)])
                u = (rng.standard_normal(lead), _random_rows(rng, lead, n_u))
                v = (rng.standard_normal(lead), _random_rows(rng, lead, n_out - n_u))
                grids = []
                for mean, c in (u, v):
                    spec = np.zeros(lead + (m // 2 + 1,), complex)
                    spec[..., 0] = m * mean
                    spec[..., 1:c.shape[-1] + 1] = 0.5 * m * c
                    grids.append(np.fft.irfft(spec, m))
                spec = np.fft.rfft(grids[0] * grids[1])
                mean, c = _product_rows(u, v)
                assert _same_bits(mean, spec[..., 0].real / m), (n_out, lead)
                assert _same_bits(c, _np_fft_modes(spec, n_out, m)), (n_out, lead)
