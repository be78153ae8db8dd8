"""Spectral layer operations: filters, convolution, pooling, descriptors."""

import numpy as np
import pytest

from spheresig import spectral
from spheresig.grid import make_grid
from spheresig.harmonics import build_table, shared_table
from spheresig.rotation import random_rotations, rotate_signal, rotate_spectrum
from spheresig.sft import (
    SpectralCoeffs,
    SphericalSignal,
    _analysis_adjoint,
    _analysis_half,
    _synthesis_adjoint,
    _synthesis_half,
    coeff_index,
    conj_mirror,
    isft,
    order_weights,
    random_coeffs,
    to_half,
)
from spheresig.spectral import (
    ZonalFilterSpec,
    anchor_layout,
    conv_spectral,
    magl,
    max_pool,
    pointwise_nonlinearity,
    realize_filter,
    spectral_pool,
    weighted_avg_pool,
    wgap,
)


def filter_to_signal(spec, table=None):
    """Spatial realization of a zonal filter (order-zero synthesis)."""
    b = spec.bandwidth
    table = shared_table(b) if table is None else table
    half = np.zeros((b, b, 1), dtype=np.complex128)
    half[0, :, 0] = realize_filter(spec)
    return SphericalSignal(table.grid, _synthesis_half(half, table))


def wap_vjp(dy, grid):
    """Adjoint of ``spectral.wap_fwd``: each pooled value times its row
    weight, spread over its 2x2 block."""
    w = grid.wap_rows[:, None]
    dx = np.empty_like(dy, shape=dy.shape[:-2] + (grid.n, grid.n))
    for r in (0, 1):
        rows = dy * w[r::2]
        dx[..., r::2, 0::2] = rows
        dx[..., r::2, 1::2] = rows
    return dx


class TestRealizeFilter:
    def test_flat_anchors(self):
        spec = ZonalFilterSpec("anchored", 16, anchor_degrees=[0, 15], anchor_values=[1, 1])
        np.testing.assert_array_equal(realize_filter(spec), np.ones(16))

    def test_collinear_anchors(self):
        spec = ZonalFilterSpec(
            "anchored", 16, anchor_degrees=[0, 5, 10, 15], anchor_values=[0, 5, 10, 15]
        )
        np.testing.assert_allclose(realize_filter(spec), np.arange(16), atol=1e-12)

    def test_segment_midpoint(self):
        spec = ZonalFilterSpec("anchored", 16, anchor_degrees=[0, 4, 15], anchor_values=[0, 8, 8])
        assert realize_filter(spec)[2] == 4.0

    def test_full_mode_passthrough(self):
        vals = np.arange(8.0)
        spec = ZonalFilterSpec("full", 8, full_coeffs=vals)
        np.testing.assert_array_equal(realize_filter(spec), vals)

    def test_malformed_anchors(self):
        with pytest.raises(ValueError):
            ZonalFilterSpec("anchored", 8, anchor_degrees=[0, 3], anchor_values=[1, 2, 3])
        with pytest.raises(ValueError):
            ZonalFilterSpec("anchored", 8, anchor_degrees=[1, 7], anchor_values=[1, 2])
        with pytest.raises(ValueError):
            ZonalFilterSpec("anchored", 8, anchor_degrees=[0, 5], anchor_values=[1, 2])
        with pytest.raises(ValueError):
            ZonalFilterSpec("anchored", 8, anchor_degrees=[0, 3, 3, 7], anchor_values=[1, 2, 2, 3])

    def test_anchor_layout_endpoints(self):
        lay = anchor_layout(16, 4)
        assert lay[0] == 0 and lay[-1] == 15 and np.all(np.diff(lay) > 0)


class TestConvSpectral:
    def test_zero_filter(self):
        c = random_coeffs(8, 2, np.random.default_rng(0))
        h = ZonalFilterSpec("full", 8, full_coeffs=np.zeros(8))
        assert np.all(conv_spectral(c, h).coeffs == 0)

    def test_degree_zero_constant(self):
        c = SpectralCoeffs(4, np.zeros((1, 16), complex))
        c.coeffs[0, coeff_index(0, 0)] = 1.0
        h = ZonalFilterSpec("full", 4, full_coeffs=[1, 0, 0, 0])
        out = conv_spectral(c, h)
        np.testing.assert_allclose(out.at(0, 0, 0), 2 * np.pi * np.sqrt(4 * np.pi), rtol=1e-14)

    def test_commutes_with_rotation(self):
        """Filtering then rotating equals rotating then filtering."""
        rng = np.random.default_rng(1)
        c = random_coeffs(8, 2, rng)
        h = ZonalFilterSpec(
            "anchored", 8, anchor_degrees=anchor_layout(8, 4), anchor_values=rng.standard_normal(4)
        )
        for r in random_rotations(10, seed=2):
            lhs = conv_spectral(rotate_spectrum(c, r), h).coeffs
            rhs = rotate_spectrum(conv_spectral(c, h), r).coeffs
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_bandwidth_mismatch(self):
        c = random_coeffs(8, 1, np.random.default_rng(3))
        h = ZonalFilterSpec("full", 4, full_coeffs=np.ones(4))
        with pytest.raises(ValueError):
            conv_spectral(c, h)


class TestZonality:
    def test_realized_filters_are_constant_per_latitude(self):
        rng = np.random.default_rng(4)
        specs = [
            ZonalFilterSpec("full", 16, full_coeffs=rng.standard_normal(16)),
            ZonalFilterSpec(
                "anchored",
                16,
                anchor_degrees=anchor_layout(16, 4),
                anchor_values=rng.standard_normal(4),
            ),
        ]
        for spec in specs:
            sig = filter_to_signal(spec)
            assert sig.values[0].var(axis=1).max() < 1e-12


class TestSpectralPool:
    def test_keeps_low_degrees_verbatim(self):
        c = random_coeffs(16, 2, np.random.default_rng(5))
        out = spectral_pool(c)
        assert out.bandwidth == 8
        np.testing.assert_array_equal(out.coeffs, c.coeffs[:, :64])

    def test_twice_reaches_quarter_bandwidth(self):
        c = random_coeffs(16, 1, np.random.default_rng(6))
        assert spectral_pool(spectral_pool(c)).bandwidth == 4

    def test_low_bandwidth_content_resamples_exactly(self):
        c = random_coeffs(16, 1, np.random.default_rng(7))
        c.coeffs[:, 64:] = 0  # nothing above the pooled band
        fine = isft(c, build_table(make_grid(16)))
        coarse = isft(spectral_pool(c), build_table(make_grid(8)))
        np.testing.assert_allclose(coarse.values, fine.values[:, ::2, ::2], atol=1e-9)

    def test_odd_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            spectral_pool(random_coeffs(5, 1, np.random.default_rng(8)))

    def test_commutes_with_rotation_exactly(self):
        """Degree truncation acts per block, so it commutes with rotation;
        the spatial poolings only commute approximately."""
        c = random_coeffs(16, 1, np.random.default_rng(20))
        table16 = build_table(make_grid(16))
        table8 = build_table(make_grid(8))
        for r in random_rotations(5, seed=21):
            lhs = spectral_pool(rotate_spectrum(c, r)).coeffs
            rhs = rotate_spectrum(spectral_pool(c), r).coeffs
            assert np.abs(lhs - rhs).max() < 1e-9
        sig = isft(c, table16)
        r = random_rotations(1, seed=22)[0]
        wap_lhs = weighted_avg_pool(rotate_signal(sig, r, table16))
        wap_rhs = rotate_signal(weighted_avg_pool(sig), r, table8)
        rel = np.linalg.norm(wap_lhs.values - wap_rhs.values) / np.linalg.norm(
            wap_rhs.values
        )
        assert np.isfinite(rel) and rel > 1e-6  # approximate only, unlike truncation


class TestSpatialPooling:
    def test_wap_preserves_constants(self):
        grid = make_grid(4)
        sig = SphericalSignal(grid, np.full((1, 8, 8), 2.5))
        out = weighted_avg_pool(sig)
        assert out.bandwidth == 2
        np.testing.assert_allclose(out.values, 2.5, atol=1e-12)

    def test_wap_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        grid = make_grid(4)
        v = rng.standard_normal((2, 8, 8))
        out = weighted_avg_pool(SphericalSignal(grid, v))
        w = grid.area_weights
        for c in range(2):
            for j in range(4):
                for k in range(4):
                    blk = v[c, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
                    ww = np.array([[w[2 * j]] * 2, [w[2 * j + 1]] * 2])
                    np.testing.assert_allclose(
                        out.values[c, j, k], (blk * ww).sum() / ww.sum(), atol=1e-12
                    )

    def test_wap_pole_row_contributes_nothing(self):
        grid = make_grid(4)
        v = np.zeros((1, 8, 8))
        v[0, 0, :] = 100.0  # zero-weight pole row
        v[0, 1, :] = 1.0
        out = weighted_avg_pool(SphericalSignal(grid, v))
        np.testing.assert_allclose(out.values[0, 0], 1.0, atol=1e-12)

    def test_max_pool_constant_and_ramp(self):
        grid = make_grid(4)
        sig = SphericalSignal(grid, np.full((1, 8, 8), 1.5))
        np.testing.assert_array_equal(max_pool(sig).values, 1.5)
        ramp = np.broadcast_to(np.arange(8.0)[:, None], (8, 8)).copy()
        out = max_pool(SphericalSignal(grid, ramp[None]))
        np.testing.assert_array_equal(out.values[0, :, 0], [1, 3, 5, 7])

    def test_max_pool_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((1, 8, 8))
        out = max_pool(SphericalSignal(make_grid(4), v))
        for j in range(4):
            for k in range(4):
                assert out.values[0, j, k] == v[0, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2].max()

    def test_max_first_maximum_wins_on_longitude_major_input(self):
        """A 2x2 block of equal values sends the forward value and the vjp to
        its first cell in row-major order, whatever the memory order."""

        def longitude_major(a):  # a copy stored as (k, j, ...), C-contiguous
            grid_first = np.ascontiguousarray(np.moveaxis(a, (-1, -2), (0, 1)))
            return np.moveaxis(grid_first, (0, 1), (-1, -2))

        v = np.random.default_rng(12).uniform(-1.0, 0.0, (2, 3, 8, 8))
        v[..., 2:4, 4:6] = 0.5
        y, idx = spectral.max_fwd(longitude_major(v))
        np.testing.assert_array_equal(y, spectral.max_fwd(v)[0])
        assert np.all(y[..., 1, 2] == 0.5) and np.all(idx[..., 1, 2] == 0)
        dy = np.random.default_rng(13).standard_normal(y.shape)
        dx = spectral.max_vjp(longitude_major(dy), idx)
        np.testing.assert_array_equal(dx[..., 2, 4], dy[..., 1, 2])
        assert not dx[..., 2:4, 4:6].reshape(2, 3, 4)[..., 1:].any()
        np.testing.assert_array_equal(dx, spectral.max_vjp(dy, spectral.max_fwd(v)[1]))


class TestDescriptors:
    def test_wgap_constant(self):
        sig = SphericalSignal(make_grid(4), np.full((2, 8, 8), 1.5))
        np.testing.assert_allclose(wgap(sig).values, [1.5, 1.5], atol=1e-14)

    def test_wgap_sine_closed_form(self):
        grid = make_grid(4)
        st = np.broadcast_to(np.sin(grid.thetas)[:, None], (8, 8))
        got = wgap(SphericalSignal(grid, st[None])).values[0]
        want = (st * st).sum() / st.sum()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_wgap_channels_independent(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((2, 8, 8))
        grid = make_grid(4)
        both = wgap(SphericalSignal(grid, v)).values
        one = wgap(SphericalSignal(grid, v[:1])).values
        np.testing.assert_array_equal(both[:1], one)

    def test_wgap_exact_under_column_roll(self):
        rng = np.random.default_rng(13)
        grid = make_grid(8)
        v = rng.standard_normal((1, 16, 16))
        base = wgap(SphericalSignal(grid, v)).values
        for shift in (1, 5, 11):
            rolled = wgap(SphericalSignal(grid, np.roll(v, shift, axis=-1))).values
            np.testing.assert_allclose(rolled, base, rtol=1e-12)

    def test_wgap_near_invariant_under_rotation(self):
        """Sine-weighted averaging is not an exact quadrature, so arbitrary
        rotations of bandlimited signals move the value slightly; the
        deviation stays well under the 2% descriptor contract."""
        b = 16
        table = build_table(make_grid(b))
        c = random_coeffs(b, 1, np.random.default_rng(14))
        c.coeffs[0, 0] += 4.0  # keep the mean well away from zero
        sig = isft(c, table)
        base = wgap(sig).values[0]
        for r in random_rotations(20, seed=15):
            rotated = wgap(rotate_signal(sig, r, table)).values[0]
            assert abs(rotated - base) / abs(base) < 0.02

    def test_magl_zero(self):
        c = SpectralCoeffs(4, np.zeros((1, 16), complex))
        assert np.all(magl(c).values == 0)

    def test_magl_single_coefficient_modulus(self):
        c = SpectralCoeffs(4, np.zeros((1, 16), complex))
        c.coeffs[0, coeff_index(3, 0)] = 3 + 4j
        np.testing.assert_allclose(magl(c).values[0], [0, 0, 0, 5])

    def test_magl_rotation_invariant(self):
        c = random_coeffs(8, 2, np.random.default_rng(16))
        base = magl(c).values
        for r in random_rotations(10, seed=17):
            rotated = magl(rotate_spectrum(c, r)).values
            assert np.abs(rotated - base).max() < 1e-9


class TestPackedAdapter:
    """The ``SpectralCoeffs`` front ends run the half-spectrum forwards on the
    parts of their packed input; checked here against the packed formulas
    (per-degree scale, degree prefix, per-degree sums)."""

    FRONT_ENDS = {
        "conv": conv_spectral,
        "sp": lambda c, spec: spectral_pool(c),
    }

    @staticmethod
    def packed(name, c, spec):
        """The packed-layout result of front end ``name`` on (C, b*b) ``c``."""
        b = spec.bandwidth
        if name == "conv":
            degrees = np.repeat(np.arange(b), 2 * np.arange(b) + 1)
            return c * (spectral.conv_scale(b) * realize_filter(spec))[degrees]
        return c[:, : (b // 2) ** 2]

    @staticmethod
    def reduceat_norms(c):
        b = int(np.sqrt(c.shape[-1]))
        return np.sqrt(np.add.reduceat(c.real**2 + c.imag**2, np.arange(b) ** 2, axis=-1))

    @staticmethod
    def cases(rng, symmetric):
        """(b, three-channel packed coefficients, full filter) for b in 2, 8,
        33 and the even 34; pooling skips the odd bandwidth."""
        for b in (2, 8, 33, 34):
            if symmetric:
                c = random_coeffs(b, 3, rng).coeffs
            else:
                c = rng.standard_normal((3, b * b)) + 1j * rng.standard_normal((3, b * b))
            yield b, c, ZonalFilterSpec("full", b, full_coeffs=rng.standard_normal(b))

    @pytest.mark.parametrize("name", sorted(FRONT_ENDS))
    def test_symmetric_linear_front_ends_match_packed_formulas_bitwise(self, name):
        for b, c, spec in self.cases(np.random.default_rng(30), symmetric=True):
            if name != "conv" and b % 2:
                continue
            got = self.FRONT_ENDS[name](SpectralCoeffs(b, c), spec).coeffs
            np.testing.assert_array_equal(got, self.packed(name, c, spec))

    @pytest.mark.parametrize("name", sorted(FRONT_ENDS))
    def test_non_symmetric_linear_front_ends_act_on_each_part(self, name):
        """op(c) = op(c1) + i op(c2) for the conjugate-symmetric parts of c."""
        for b, c, spec in self.cases(np.random.default_rng(31), symmetric=False):
            if name != "conv" and b % 2:
                continue
            cm = conj_mirror(c)
            op = self.FRONT_ENDS[name]
            parts = (0.5 * (c + cm), -0.5j * (c - cm))
            c1, c2 = (op(SpectralCoeffs(b, p), spec).coeffs for p in parts)
            got = op(SpectralCoeffs(b, c), spec).coeffs
            for want in (c1 + 1j * c2, self.packed(name, c, spec)):
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (name, b)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non-symmetric"])
    def test_magl_matches_per_degree_sums(self, symmetric):
        for b, c, _ in self.cases(np.random.default_rng(32), symmetric):
            np.testing.assert_allclose(
                magl(SpectralCoeffs(b, c)).values, self.reduceat_norms(c), rtol=1e-15, atol=0
            )

    def test_huge_non_symmetric_coefficient_pools_finite(self):
        c = np.zeros((1, 16), dtype=np.complex128)
        c[0, 0] = 1e308 * (1 + 1j)
        out = spectral_pool(SpectralCoeffs(4, c)).coeffs
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, c[:, :4])


class TestNonlinearity:
    def test_relu_identity_on_nonnegative(self):
        v = np.abs(np.random.default_rng(18).standard_normal((1, 8, 8)))
        sig = SphericalSignal(make_grid(4), v)
        np.testing.assert_array_equal(pointwise_nonlinearity(sig).values, v)

    def test_relu_zeroes_negative(self):
        sig = SphericalSignal(make_grid(4), -np.ones((1, 8, 8)))
        assert np.all(pointwise_nonlinearity(sig).values == 0)

    def test_unknown_kind(self):
        sig = SphericalSignal(make_grid(4), np.zeros((1, 8, 8)))
        with pytest.raises(ValueError):
            pointwise_nonlinearity(sig, kind="tanh")


def _adjoint_case(name: str, rng: np.random.Generator):
    """(x, J x, y, J^T y) for one forward/vjp pair at bandwidth 8.  Spectral
    arrays are half spectra (m, l, channel, batch): x from random real-signal
    spectra, cotangents y random over every entry."""
    b = 8
    grid = make_grid(b)
    vals = rng.standard_normal((2, 3, 2 * b, 2 * b))
    pooled = rng.standard_normal((2, 3, b, b))
    coeffs = to_half(random_coeffs(b, 6, rng).coeffs.reshape(2, 3, b * b))

    def cotangent(bw, *lead):
        shape = (bw, bw) + lead
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if name == "analysis":
        v = cotangent(b, 2, 3)
        table = shared_table(b)
        return vals, _analysis_half(vals, table), v, _analysis_adjoint(v, table)
    if name == "synthesis":
        table = shared_table(b)
        return coeffs, _synthesis_half(coeffs, table), vals, _synthesis_adjoint(vals, table)
    if name == "realize":
        anchors = spectral.anchor_layout(b, 4)
        x, y = rng.standard_normal((4, 3, 4)), rng.standard_normal((4, 3, b))
        return x, spectral.realize_fwd(x, b, anchors), y, spectral.realize_vjp(y, b, anchors)
    if name in ("conv_coeffs", "conv_spectra"):
        coeffs = coeffs.swapaxes(2, 3)  # 3 input channels, batch 2
        spectra = rng.standard_normal((4, 3, b))
        v = cotangent(b, 4, 2)
        dcoeffs, dspectra = spectral.conv_vjp(v, coeffs, spectra)
        out = spectral.conv_fwd(coeffs, spectra)  # bilinear: J x = out for either x
        if name == "conv_coeffs":
            return coeffs, out, v, dcoeffs
        return spectra, out, v, dspectra
    if name == "sp":
        v = cotangent(b // 2, 2, 3)
        return coeffs, spectral.sp_fwd(coeffs, b // 2), v, spectral.sp_vjp(v, b)
    if name == "wap":
        return vals, spectral.wap_fwd(vals, grid), pooled, wap_vjp(pooled, grid)
    if name == "max":
        # Piecewise linear and positively homogeneous, so J x equals the output.
        y, idx = spectral.max_fwd(vals)
        return vals, y, pooled, spectral.max_vjp(pooled, idx)
    if name == "relu":
        y, mask = spectral.relu_fwd(vals)
        dy = rng.standard_normal(vals.shape)
        return vals, y, dy, spectral.relu_vjp(dy, mask)
    if name == "wgap":
        d = rng.standard_normal((2, 3))
        return vals, spectral.wgap_fwd(vals, grid), d, spectral.wgap_vjp(d, grid)
    if name == "magl":
        # Per-degree norms are positively homogeneous: the Jacobian at c maps c
        # to the norms themselves.
        norms = spectral.magl_fwd(coeffs)
        d = rng.standard_normal(norms.shape)
        return coeffs, norms, d, spectral.magl_vjp(d, coeffs, norms)
    raise KeyError(name)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re(sum conj(a) b); complex arrays are half spectra, whose orders m > 0
    stand for their mirrored twins too and count twice."""
    if np.iscomplexobj(a):
        a = order_weights(len(a)).reshape((-1,) + (1,) * (a.ndim - 1)) * a
    return np.vdot(a, b).real


@pytest.mark.parametrize(
    "name",
    ["analysis", "synthesis", "realize", "conv_coeffs", "conv_spectra", "sp", "wap",
     "max", "relu", "wgap", "magl"],
)
def test_vjp_is_adjoint_of_forward(name):
    """<J x, y> = <x, J^T y> under the real inner product Re(sum conj(a) b),
    orders m > 0 of half spectra counted twice."""
    x, jx, y, jty = _adjoint_case(name, np.random.default_rng(30))
    assert jx.shape == y.shape and jty.shape == x.shape
    lhs = _inner(jx, y)
    rhs = _inner(x, jty)
    scale = np.linalg.norm(jx) * np.linalg.norm(y)
    assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs)
