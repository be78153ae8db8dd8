"""Forward/inverse transform contracts: round trips, symmetry, Parseval."""

import warnings

import numpy as np
import pytest

from spheresig import spectral
from spheresig.grid import make_grid
from spheresig.harmonics import build_table
from spheresig.sft import (
    _GEMM_MAX_B,
    SpectralCoeffs,
    SphericalSignal,
    _analysis_direct,
    _analysis_half,
    _grid_major,
    _prefactor,
    _synthesis_adjoint,
    _synthesis_half,
    _synthesis_real,
    bandlimit,
    coeff_index,
    conj_mirror,
    evaluate_coeffs_at,
    half_slots,
    isft,
    order_weights,
    random_coeffs,
    sft_direct,
    sft_sepvar,
    to_half,
    to_packed,
)
from test_spectral import wap_vjp


def table_for(b):
    return build_table(make_grid(b))


def _synthesis_complex(coeffs, table):
    """Reference synthesis: the full complex harmonic sum over all orders."""
    b = table.bandwidth
    n = 2 * b
    h = np.zeros(coeffs.shape[:-1] + (n, n), dtype=np.complex128)
    for m in range(b):
        ls = np.arange(m, b)
        h[..., :, m] = coeffs[..., ls * ls + ls + m] @ table.legendre[m:, m, :]
        if m > 0:
            h[..., :, n - m] = ((-1) ** m * coeffs[..., ls * ls + ls - m]) @ table.legendre[
                m:, m, :
            ]
    return np.fft.ifft(h * n, axis=-1)


def loop_random_coeffs(b, channels, rng, scale=1.0):
    """Reference: one draw per (l, m), negative orders conjugated in the loop."""
    c = np.zeros((channels, b * b), dtype=np.complex128)
    for l in range(b):
        base = l * l + l
        c[:, base] = scale * rng.standard_normal(channels)
        for m in range(1, l + 1):
            z = scale * (
                rng.standard_normal(channels) + 1j * rng.standard_normal(channels)
            ) / np.sqrt(2.0)
            c[:, base + m] = z
            c[:, base - m] = (-1) ** m * np.conj(z)
    return c


def loop_analysis(values, table, direct):
    """Reference: the separated (per-order Legendre) and direct analyses, with
    the conjugate fill inside the m loop."""
    b = table.bandwidth
    w = table.grid.quad_weights
    g = np.fft.rfft(values, axis=-1)[..., :b] * w[:, None]
    out = np.zeros(values.shape[:-2] + (b * b,), dtype=np.complex128)
    for m in range(b):
        if direct:
            ybar = table.legendre[m:, m, :, None] * table.fourier_phases[m, None, None, :]
            block = _prefactor(b) * np.tensordot(
                values * w[:, None], ybar, axes=([-2, -1], [1, 2])
            )
        else:
            block = _prefactor(b) * (g[..., :, m] @ table.legendre[m:, m, :].T)
        ls = np.arange(m, b)
        out[..., ls * ls + ls + m] = block
        if m > 0:
            out[..., ls * ls + ls - m] = (-1) ** m * np.conj(block)
    return out


def nonsymmetric(b, channels, seed):
    rng = np.random.default_rng(seed)
    shape = (channels, b * b)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestForward:
    def test_constant_signal(self):
        table = table_for(8)
        sig = SphericalSignal(table.grid, np.full((1, 16, 16), 2.5))
        c = sft_sepvar(sig, table)
        np.testing.assert_allclose(c.at(0, 0, 0), 2.5 * np.sqrt(4 * np.pi), rtol=1e-12)
        rest = c.coeffs.copy()
        rest[0, coeff_index(0, 0)] = 0
        assert np.abs(rest).max() < 1e-9

    def test_zero_signal(self):
        table = table_for(4)
        sig = SphericalSignal(table.grid, np.zeros((2, 8, 8)))
        assert np.all(sft_direct(sig, table).coeffs == 0)

    def test_single_harmonic_recovery(self):
        """A real combination of degree-1 order-1 harmonics comes back alone."""
        table = table_for(8)
        z = 0.7 - 0.4j
        c = np.zeros((1, 64), dtype=np.complex128)
        c[0, coeff_index(1, 1)] = z
        c[0, coeff_index(1, -1)] = -np.conj(z)
        sig = isft(SpectralCoeffs(8, c), table)
        got = sft_sepvar(sig, table)
        np.testing.assert_allclose(got.at(0, 1, 1), z, atol=1e-12)
        np.testing.assert_allclose(got.at(0, 1, -1), -np.conj(z), atol=1e-12)
        mask = np.ones(64, bool)
        mask[[coeff_index(1, 1), coeff_index(1, -1)]] = False
        assert np.abs(got.coeffs[0, mask]).max() < 1e-9

    def test_direct_equals_sepvar(self):
        rng = np.random.default_rng(0)
        table = table_for(8)
        sig = SphericalSignal(table.grid, rng.standard_normal((3, 16, 16)))
        d = sft_direct(sig, table).coeffs
        s = sft_sepvar(sig, table).coeffs
        assert np.abs(d - s).max() < 1e-9

    def test_bandwidth_mismatch(self):
        sig = SphericalSignal(make_grid(4), np.zeros((1, 8, 8)))
        with pytest.raises(ValueError):
            sft_sepvar(sig, table_for(8))

    def test_real_symmetry_is_exact(self):
        """Negative orders are stored as exact conjugates, entry for entry."""
        rng = np.random.default_rng(1)
        table = table_for(8)
        sig = SphericalSignal(table.grid, rng.standard_normal((1, 16, 16)))
        c = sft_sepvar(sig, table)
        for l in range(8):
            for m in range(1, l + 1):
                lhs = c.at(0, l, -m)
                rhs = (-1) ** m * np.conj(c.at(0, l, m))
                assert lhs == rhs  # bitwise, not approximate


class TestInverse:
    def test_constant_coefficient(self):
        table = table_for(8)
        c = np.zeros((1, 64), dtype=np.complex128)
        c[0, 0] = np.sqrt(4 * np.pi)
        sig = isft(SpectralCoeffs(8, c), table)
        np.testing.assert_allclose(sig.values, 1.0, atol=1e-12)

    def test_zero_coeffs(self):
        table = table_for(4)
        sig = isft(SpectralCoeffs(4, np.zeros((1, 16), complex)), table)
        assert np.all(sig.values == 0)

    def test_roundtrip_many_bandwidths(self):
        for b in (2, 4, 8, 16, 32):
            table = table_for(b)
            c = random_coeffs(b, channels=2, rng=np.random.default_rng(b))
            back = sft_sepvar(isft(c, table), table)
            assert np.abs(back.coeffs - c.coeffs).max() < 1e-9

    def test_imaginary_residue_of_complex_path(self):
        table = table_for(8)
        c = random_coeffs(8, 1, np.random.default_rng(2))
        full = _synthesis_complex(c.coeffs, table)
        assert np.abs(full.imag).max() < 1e-9

    def test_complex_and_real_paths_agree(self):
        table = table_for(8)
        c = random_coeffs(8, 1, np.random.default_rng(3))
        real_path = isft(c, table).values
        complex_path = _synthesis_complex(c.coeffs, table).real
        np.testing.assert_allclose(real_path, complex_path, atol=1e-12)

    def test_nonsymmetric_is_real_part_of_harmonic_sum(self):
        """Negative orders count: isft is Re of the full sum for any coefficients."""
        for b in (2, 5, 8):
            table = table_for(b)
            c = nonsymmetric(b, 2, b)
            want = _synthesis_complex(c, table).real
            np.testing.assert_allclose(isft(SpectralCoeffs(b, c), table).values, want, atol=1e-12)

    def test_output_dtype(self):
        table = table_for(4)
        c = random_coeffs(4, 1, np.random.default_rng(0))
        vals = isft(c, table).values
        assert vals.dtype == np.float64
        assert vals.astype(np.float32).dtype == np.float32


class TestParseval:
    def test_energy_identity(self):
        b = 16
        table = table_for(b)
        c = random_coeffs(b, 1, np.random.default_rng(4))
        sig = isft(c, table)
        mu = (np.sqrt(2 * np.pi) / (2 * b)) * table.grid.quad_weights
        energy = float((mu[:, None] * sig.values[0] ** 2).sum())
        spectral = float((np.abs(c.coeffs) ** 2).sum())
        np.testing.assert_allclose(energy, spectral, rtol=1e-8)


class TestBandlimit:
    def test_projection_identity_on_bandlimited(self):
        table = table_for(8)
        sig = isft(random_coeffs(8, 1, np.random.default_rng(5)), table)
        out = bandlimit(sig, table)
        np.testing.assert_allclose(out.values, sig.values, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        table = table_for(8)
        sig = SphericalSignal(table.grid, rng.standard_normal((1, 16, 16)))
        once = bandlimit(sig, table)
        twice = bandlimit(once, table)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-9)

    def test_step_signal_loses_energy(self):
        table = table_for(8)
        v = np.zeros((1, 16, 16))
        v[0, :, :3] = 1.0  # sharp longitudinal step
        sig = SphericalSignal(table.grid, v)
        out = bandlimit(sig, table)
        assert np.abs(out.values - v).max() > 1e-3
        mu = (np.sqrt(2 * np.pi) / 16) * table.grid.quad_weights
        assert (mu[:, None] * out.values[0] ** 2).sum() < (mu[:, None] * v[0] ** 2).sum()


class TestPointwiseSynthesis:
    def test_matches_grid_synthesis(self):
        table = table_for(6)
        c = random_coeffs(6, 2, np.random.default_rng(7))
        sig = isft(c, table)
        tt, pp = np.meshgrid(table.grid.thetas, table.grid.phis, indexing="ij")
        np.testing.assert_allclose(evaluate_coeffs_at(c, tt, pp), sig.values, atol=1e-12)


    def test_nonsymmetric_matches_grid_synthesis(self):
        table = table_for(6)
        c = SpectralCoeffs(6, nonsymmetric(6, 2, 8))
        tt, pp = np.meshgrid(table.grid.thetas, table.grid.phis, indexing="ij")
        got = evaluate_coeffs_at(c, tt, pp)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, isft(c, table).values, atol=1e-12)


class TestConjugationRule:
    def test_half_slots_are_lexicographic_nonnegative_orders(self):
        for b in (1, 2, 7):
            want = [l * l + l + m for l in range(b) for m in range(l + 1)]
            np.testing.assert_array_equal(half_slots(b)[2], want)

    def test_mirror_is_an_exact_involution(self):
        c = nonsymmetric(6, 3, 9)
        np.testing.assert_array_equal(conj_mirror(conj_mirror(c)), c)
        for l in range(6):
            for m in range(-l, l + 1):
                want = (-1) ** m * np.conj(c[:, coeff_index(l, -m)])
                np.testing.assert_array_equal(conj_mirror(c)[:, coeff_index(l, m)], want)

    def test_to_packed_keeps_nonnegative_orders(self):
        c = nonsymmetric(5, 2, 10)
        got = to_packed(to_half(c))
        keep = half_slots(5)[2]
        np.testing.assert_array_equal(got[:, keep], c[:, keep])
        neg = np.setdiff1d(np.arange(25), keep)
        np.testing.assert_array_equal(got[:, neg], conj_mirror(got)[:, neg])


class TestParity:
    """Vectorized paths against their per-(l, m) loop references, bit for bit."""

    def test_random_coeffs_matches_loop(self):
        for b in (2, 3, 8, 16, 33):
            for channels in (1, 3):
                for seed in (0, 1):
                    for scale in (1.0, 0.37):
                        got = random_coeffs(b, channels, np.random.default_rng(seed), scale)
                        want = loop_random_coeffs(b, channels, np.random.default_rng(seed), scale)
                        np.testing.assert_array_equal(got.coeffs, want)

    def test_analysis_kernels_match_loop(self):
        for b in (2, 5, 8, 16):
            table = table_for(b)
            x = np.random.default_rng(b).standard_normal((2, 3, 2 * b, 2 * b))
            np.testing.assert_array_equal(
                to_packed(_analysis_direct(x, table)), loop_analysis(x, table, direct=True)
            )


class TestHalfLayout:
    """The m-major half-spectrum kernels against the packed references, at the
    direct/separated tolerance."""

    BANDWIDTHS = (2, 5, 8, 16, 64)
    LEADS = ((1, 1), (2, 3), (8, 16))

    def test_analysis_matches_sepvar(self):
        for b in self.BANDWIDTHS:
            table = table_for(b)
            for lead in self.LEADS:
                x = np.random.default_rng(b).standard_normal(lead + (2 * b, 2 * b))
                got = _analysis_half(x, table)
                assert got.shape == (b, b) + lead
                want = loop_analysis(x, table, direct=False)
                assert np.abs(to_packed(got) - want).max() < 1e-9, (b, lead)
                m, l = np.meshgrid(np.arange(b), np.arange(b), indexing="ij")
                assert np.all(got[l < m] == 0)

    def test_synthesis_matches_complex_sum(self):
        for b in self.BANDWIDTHS:
            table = table_for(b)
            for lead in self.LEADS:
                rng = np.random.default_rng(b + 1)
                c = random_coeffs(b, int(np.prod(lead)), rng).coeffs.reshape(lead + (b * b,))
                got = _synthesis_half(to_half(c), table)
                assert got.shape == lead + (2 * b, 2 * b)
                want = _synthesis_complex(c, table).real
                assert np.abs(got - want).max() < 1e-9, (b, lead)
                np.testing.assert_array_equal(_synthesis_real(c, table), got)

    def test_packed_round_trip_is_exact_for_real_signals(self):
        for b in (1, 2, 7, 16):
            c = random_coeffs(b, 3, np.random.default_rng(b)).coeffs.reshape(3, 1, b * b)
            half = to_half(c)
            assert half.shape == (b, b, 3, 1)
            np.testing.assert_array_equal(to_packed(half), c)
            for l in range(b):
                for m in range(l + 1):
                    assert half[m, l, 0, 0] == c[0, 0, coeff_index(l, m)]

    def test_synthesis_ignores_what_a_real_signal_lacks(self):
        """Entries with l < m and imaginary parts at m = 0 do not exist in the
        spectrum of a real signal; the synthesis reads neither."""
        b = 6
        table = table_for(b)
        half = to_half(random_coeffs(b, 2, np.random.default_rng(3)).coeffs)
        noisy = half + np.tril(np.ones((b, b)), -1)[..., None] * (1 + 2j)  # l < m
        noisy[0] += 5j
        np.testing.assert_array_equal(
            _synthesis_half(noisy, table), _synthesis_half(half, table)
        )


def longitude_major(values):
    """A copy of (..., 2b, 2b) values stored as (k, j, ...), C-contiguous."""
    grid_first = np.ascontiguousarray(np.moveaxis(values, (-1, -2), (0, 1)))
    return np.moveaxis(grid_first, (0, 1), (-1, -2))


def is_longitude_major(values):
    return np.moveaxis(values, (-1, -2), (0, 1)).flags.c_contiguous


class TestLongitudeMajor:
    """Both sides of the switch from the GEMM longitude DFT to the FFT."""

    BANDWIDTHS = (2, 3, 16, 32, 33, 64)

    def test_switch_sits_inside_the_tested_bandwidths(self):
        assert 16 <= _GEMM_MAX_B < 33

    def test_analysis_same_bits_on_either_layout(self):
        for b in self.BANDWIDTHS:
            table = table_for(b)
            for maps in (1, 5):
                x = np.random.default_rng(b + maps).standard_normal((maps, 2 * b, 2 * b))
                xl = longitude_major(x)
                assert not is_longitude_major(x) and is_longitude_major(xl)
                got = _analysis_half(x, table)
                np.testing.assert_array_equal(_analysis_half(xl, table), got)
                assert np.abs(got - _analysis_direct(x, table)).max() < 1e-9, (b, maps)

    def test_float32_values_analyse_as_their_float64_copy(self):
        """All accumulation is float64 on both sides of the switch."""
        for b in (16, 33, 64):
            x = np.random.default_rng(b).standard_normal((2, 2 * b, 2 * b)).astype(np.float32)
            np.testing.assert_array_equal(
                _analysis_half(x, table_for(b)), _analysis_half(x.astype(np.float64), table_for(b))
            )

    def test_longitude_major_input_is_read_in_place(self):
        xl = longitude_major(np.random.default_rng(0).standard_normal((2, 3, 8, 8)))
        assert np.shares_memory(_grid_major(xl), xl)
        assert not np.shares_memory(_grid_major(xl.copy()), xl)

    def test_synthesis_output_is_longitude_major(self):
        for b in self.BANDWIDTHS:
            table = table_for(b)
            for maps in (1, 5):
                c = random_coeffs(b, maps, np.random.default_rng(b)).coeffs
                got = _synthesis_half(to_half(c), table)
                assert got.shape == (maps, 2 * b, 2 * b) and is_longitude_major(got), (b, maps)


class TestPooledKernels:
    """The pooled synthesis and its adjoint against the grid-domain
    area-weighted pooling, on both sides of the GEMM/FFT switch."""

    BANDWIDTHS = (4, 16, 32, 64)  # both sides of _GEMM_MAX_B (see TestLongitudeMajor)

    @pytest.mark.parametrize("b", BANDWIDTHS)
    @pytest.mark.parametrize("maps", [1, 5])
    def test_synthesis_is_wap_of_the_synthesis(self, b, maps):
        table = table_for(b)
        half = to_half(random_coeffs(b, maps, np.random.default_rng(b + maps)).coeffs)
        got = _synthesis_half(half, table, pool=True)
        want = spectral.wap_fwd(_synthesis_half(half, table), table.grid)
        assert got.shape == (maps, b, b) and is_longitude_major(got)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("b", BANDWIDTHS)
    @pytest.mark.parametrize("maps", [1, 5])
    def test_adjoint_passes_the_dot_product_test(self, b, maps):
        """<S c, u> = <c, S* u>, the orders m > 0 of the half spectra twice."""
        rng = np.random.default_rng(2 * b + maps)
        table = table_for(b)
        c = to_half(random_coeffs(b, maps, rng).coeffs)
        u = rng.standard_normal((maps, b, b))
        v = _synthesis_adjoint(u, table, pool=True)
        assert v.shape == (b, b, maps)
        lhs = np.sum(_synthesis_half(c, table, pool=True) * u)
        rhs = np.sum(order_weights(b)[:, None, None] * (c.real * v.real + c.imag * v.imag))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("b", BANDWIDTHS)
    def test_adjoint_is_the_adjoint_of_wap_then_synthesis(self, b):
        rng = np.random.default_rng(b)
        table = table_for(b)
        u = longitude_major(rng.standard_normal((3, b, b)))
        got = _synthesis_adjoint(u, table, pool=True)
        want = _synthesis_adjoint(wap_vjp(u, table.grid), table)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestIsftSymmetricPart:
    def test_bit_identical_on_symmetric_spectra(self):
        table = table_for(8)
        for scale in (1.0, 1e-310, 1e300):  # 1e-310: subnormal coefficients
            c = random_coeffs(8, 2, np.random.default_rng(4), scale=scale)
            np.testing.assert_array_equal(
                isft(c, table).values, _synthesis_real(c.coeffs, table)
            )

    def test_overflowing_synthesis_is_a_value_error(self):
        """At 1e308, c + mirror(c) would overflow before the synthesis does;
        neither may warn, the non-finite signal is the error."""
        c = random_coeffs(4, 1, np.random.default_rng(5), scale=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                isft(c, table_for(4))


class TestSignalValidation:
    def test_rejects_nonfinite(self):
        v = np.zeros((1, 8, 8))
        v[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            SphericalSignal(make_grid(4), v)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SphericalSignal(make_grid(4), np.zeros((1, 8, 10)))
