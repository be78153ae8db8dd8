"""Rotation blocks: convention lock, unitarity, group structure, sampling."""

from math import factorial

import numpy as np
import pytest

from spheresig.grid import make_grid
from spheresig.harmonics import build_table
from spheresig.rotation import (
    RotationZYZ,
    _small_d,
    _small_d_many,
    geodesic_distance,
    random_rotations,
    rotate_packed,
    rotate_signal,
    rotate_spectrum,
    rotation_from_matrix,
    rotation_grid,
    wigner_d,
)
from spheresig.sft import (
    SphericalSignal,
    _synthesis_real,
    evaluate_coeffs_at,
    isft,
    random_coeffs,
    sft_sepvar,
)


def small_d_reference(l: int, mp: int, m: int, beta: float) -> float:
    """Factorial-sum formula for the real rotation matrix elements."""
    total = 0.0
    for k in range(max(0, m - mp), min(l - mp, l + m) + 1):
        num = (-1.0) ** (k + mp - m) * np.sqrt(
            factorial(l + m) * factorial(l - m) * factorial(l + mp) * factorial(l - mp)
        )
        den = factorial(l + m - k) * factorial(k) * factorial(mp - m + k) * factorial(l - mp - k)
        total += (
            num
            / den
            * np.cos(beta / 2) ** (2 * l + m - mp - 2 * k)
            * np.sin(beta / 2) ** (mp - m + 2 * k)
        )
    return total


class TestWignerBlocks:
    def test_identity_rotation_is_exact_identity(self):
        for l in (0, 1, 4):
            block = wigner_d(l, RotationZYZ(0, 0, 0))
            np.testing.assert_array_equal(block, np.eye(2 * l + 1))

    def test_z_rotation_is_diagonal_phase(self):
        g = 0.9
        block = wigner_d(3, RotationZYZ(0, 0, g))
        m = np.arange(-3, 4)
        np.testing.assert_allclose(np.diag(block), np.exp(-1j * m * g), atol=1e-15)
        np.testing.assert_allclose(block - np.diag(np.diag(block)), 0, atol=1e-15)

    def test_unitarity(self):
        r = RotationZYZ(0.4, 1.2, 2.7)
        for l in (1, 3, 10, 40):
            d = wigner_d(l, r)
            np.testing.assert_allclose(d @ d.conj().T, np.eye(2 * l + 1), atol=1e-10)

    def test_matches_factorial_formula(self):
        rng = np.random.default_rng(8)
        for l in range(6):
            beta = rng.uniform(0.05, np.pi - 0.05)
            d = wigner_d(l, RotationZYZ(0.0, beta, 0.0)).real
            for i, mp in enumerate(range(-l, l + 1)):
                for j, m in enumerate(range(-l, l + 1)):
                    np.testing.assert_allclose(
                        d[i, j], small_d_reference(l, mp, m, beta), atol=1e-12
                    )


    def test_batched_small_d_matches_per_beta(self):
        betas = np.concatenate([[0.0, np.pi], np.pi * np.arange(1, 16) / 16, [0.83, 2.9]])
        for l in (0, 1, 2, 7, 16, 31):
            stack = _small_d_many(l, betas)
            for beta, d in zip(betas, stack):
                np.testing.assert_allclose(d, _small_d(l, float(beta)), rtol=0, atol=1e-14)


class TestRotateSpectrum:
    def test_identity(self):
        c = random_coeffs(6, 2, np.random.default_rng(0))
        out = rotate_spectrum(c, RotationZYZ(0, 0, 0))
        np.testing.assert_array_equal(out.coeffs, c.coeffs)

    def test_composition(self):
        c = random_coeffs(6, 1, np.random.default_rng(1))
        r1, r2 = random_rotations(2, seed=2)
        lhs = rotate_spectrum(rotate_spectrum(c, r1), r2)
        rhs = rotate_spectrum(c, r2.compose(r1))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-9

    def test_per_degree_norm_preserved(self):
        c = random_coeffs(8, 2, np.random.default_rng(3))
        r = random_rotations(1, seed=4)[0]
        out = rotate_spectrum(c, r)
        for l in range(8):
            np.testing.assert_allclose(
                np.linalg.norm(out.degree(l), axis=1),
                np.linalg.norm(c.degree(l), axis=1),
                rtol=1e-12,
            )

    def test_packed_mixed_bandwidths_match_per_spectrum(self):
        rng = np.random.default_rng(5)
        specs = [random_coeffs(b, ch, rng) for b, ch in ((4, 1), (16, 3), (8, 2))]
        for r in random_rotations(2, seed=6) + [RotationZYZ(0.7, 0.0, 1.1)]:
            out = rotate_packed([c.coeffs for c in specs], r)
            assert len(out) == len(specs)
            for got, c in zip(out, specs):
                np.testing.assert_array_equal(got, rotate_spectrum(c, r).coeffs)

    def test_packed_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            rotate_packed([np.zeros((1, 5), dtype=np.complex128)], RotationZYZ(0, 0, 0))


class TestRotateSignal:
    def test_identity_on_bandlimited(self):
        table = build_table(make_grid(8))
        sig = isft(random_coeffs(8, 1, np.random.default_rng(5)), table)
        out = rotate_signal(sig, RotationZYZ(0, 0, 0), table)
        np.testing.assert_allclose(out.values, sig.values, atol=1e-9)

    def test_azimuthal_grid_step_is_column_roll(self):
        b = 8
        table = build_table(make_grid(b))
        sig = isft(random_coeffs(b, 1, np.random.default_rng(6)), table)
        out = rotate_signal(sig, RotationZYZ(np.pi / b, 0, 0), table)
        np.testing.assert_allclose(out.values, np.roll(sig.values, 1, axis=-1), atol=1e-9)

    def test_inverse_restores(self):
        table = build_table(make_grid(8))
        sig = isft(random_coeffs(8, 2, np.random.default_rng(7)), table)
        r = random_rotations(1, seed=8)[0]
        back = rotate_signal(rotate_signal(sig, r, table), r.inverse(), table)
        np.testing.assert_allclose(back.values, sig.values, atol=1e-9)

    def test_synthesizes_nonnegative_orders_of_rotated_spectrum(self):
        """Bit for bit the m >= 0 synthesis of the rotated spectrum, in the
        input's dtype; ``isft`` of that spectrum differs only by rounding."""
        b = 8
        table = build_table(make_grid(b))
        x = np.random.default_rng(12).standard_normal((2, 2 * b, 2 * b))
        r = RotationZYZ(0.3, 1.1, -0.7)
        for dtype in (np.float64, np.float32):
            sig = SphericalSignal(table.grid, x.astype(dtype))
            spec = rotate_spectrum(sft_sepvar(sig, table), r)
            got = rotate_signal(sig, r, table).values
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, _synthesis_real(spec.coeffs, table).astype(dtype))
            np.testing.assert_allclose(got, isft(spec, table, dtype).values, atol=1e-6)

    def test_convention_lock_against_resampling(self):
        """Spectral rotation must equal sampling at inverse-mapped directions.

        This property pins every sign and phase convention in the stack:
        the harmonic normalization, the rotation matrix parameterization,
        and the coefficient transformation law.
        """
        b = 8
        table = build_table(make_grid(b))
        dirs = table.grid.directions()
        rng = np.random.default_rng(9)
        worst = 0.0
        for r in random_rotations(50, seed=10):
            c = random_coeffs(b, 1, rng)
            rotated = rotate_signal(isft(c, table), r, table)
            v = dirs @ r.matrix()  # row-vector form of R^{-1} u
            theta = np.arccos(np.clip(v[..., 2], -1, 1))
            phi = np.arctan2(v[..., 1], v[..., 0])
            reference = evaluate_coeffs_at(c, theta, phi)
            worst = max(worst, float(np.abs(rotated.values - reference).max()))
        assert worst < 1e-9


class TestParameterization:
    def test_canonicalization(self):
        r = RotationZYZ(-0.5, -1.0, 7.0)
        assert 0 <= r.alpha < 2 * np.pi
        assert 0 <= r.beta <= np.pi
        assert 0 <= r.gamma < 2 * np.pi

    def test_negative_beta_folds_to_same_rotation(self):
        a, bb, g = 0.7, 1.1, 2.3
        r1 = RotationZYZ(a, bb, g)
        r2 = RotationZYZ(a + np.pi, -bb, g + np.pi)
        np.testing.assert_allclose(r1.matrix(), r2.matrix(), atol=1e-12)

    def test_matrix_roundtrip(self):
        rotations = random_rotations(50, seed=11) + [
            RotationZYZ(1.0, 0.0, 0.0),
            RotationZYZ(0.5, np.pi, 1.2),
        ]
        for r in rotations:
            r2 = rotation_from_matrix(r.matrix())
            np.testing.assert_allclose(r2.matrix(), r.matrix(), atol=1e-9)

    def test_geodesic_distance(self):
        r = RotationZYZ(0, 1.0, 0)
        assert abs(geodesic_distance(RotationZYZ(0, 0, 0), r) - 1.0) < 1e-12
        assert abs(geodesic_distance(RotationZYZ(0, 0, 0), r, degrees=True) - np.degrees(1.0)) < 1e-9

    def test_rejects_nonfinite_angles(self):
        with pytest.raises(ValueError):
            RotationZYZ(np.nan, 0, 0)


class TestSampling:
    def test_grid_singleton_is_identity(self):
        rots = rotation_grid(1, 1, 1)
        assert len(rots) == 1 and rots[0].is_identity()

    def test_grid_enumeration_size_and_order(self):
        rots = rotation_grid(2, 3, 2)
        assert len(rots) == 12
        keys = [(r.alpha, r.beta, r.gamma) for r in rots]
        assert keys == sorted(keys)

    def test_random_rotations_reproducible(self):
        a = random_rotations(5, seed=12)
        c = random_rotations(5, seed=12)
        for r1, r2 in zip(a, c):
            assert (r1.alpha, r1.beta, r1.gamma) == (r2.alpha, r2.beta, r2.gamma)

    def test_haar_mean_of_degree_one_blocks(self):
        acc = np.zeros((3, 3), dtype=np.complex128)
        rots = random_rotations(10_000, seed=13)
        for r in rots:
            acc += wigner_d(1, r)
        assert np.abs(acc / len(rots)).max() < 0.05
