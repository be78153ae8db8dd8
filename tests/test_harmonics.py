"""Legendre recurrences and spherical harmonics against independent oracles."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import sph_harm_y

from spheresig.grid import make_grid
from spheresig.harmonics import (
    assoc_legendre,
    build_table,
    normalized_legendre,
    shared_table,
    sph_harmonic,
)


def rodrigues_assoc_legendre(l: int, m: int, x):
    """P_m^l via m-fold differentiation of the Legendre polynomial.

    Independent of the recurrence path: P_l comes from the numpy polynomial
    basis and the order is raised by explicit derivatives,
    P_m^l = (-1)^m (1-x^2)^{m/2} d^m/dx^m P_l(x).
    """
    x = np.asarray(x, dtype=np.float64)
    pl = np.polynomial.legendre.Legendre.basis(l)
    for _ in range(m):
        pl = pl.deriv()
    return (-1.0) ** m * (1.0 - x * x) ** (m / 2.0) * pl(x)


class TestAssocLegendre:
    def test_constant(self):
        assert assoc_legendre(0, 0, 0.3) == 1.0

    def test_linear(self):
        assert assoc_legendre(1, 0, 0.5) == 0.5

    def test_l4_m2_matches_rodrigues(self):
        got = assoc_legendre(4, 2, 0.7)
        want = rodrigues_assoc_legendre(4, 2, 0.7)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_recurrence_vs_rodrigues_low_degrees(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1, 1, size=100)
        for l in range(11):
            for m in range(l + 1):
                want = rodrigues_assoc_legendre(l, m, xs)
                got = np.array([assoc_legendre(l, m, x) for x in xs])
                np.testing.assert_allclose(
                    got, want, rtol=1e-10, atol=1e-12, err_msg=f"l={l} m={m}"
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre(2, 3, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(2, 1, 1.5)


class TestNormalizedRecurrence:
    def test_full_table_matches_scaled_raw(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=5)
        table = normalized_legendre(6, x)
        from math import factorial

        for l in range(7):
            for m in range(l + 1):
                q = np.sqrt((2 * l + 1) / (4 * np.pi) * factorial(l - m) / factorial(l + m))
                for xi, ti in zip(x, table[l, m]):
                    np.testing.assert_allclose(
                        ti, q * rodrigues_assoc_legendre(l, m, xi), rtol=1e-10, atol=1e-13
                    )

    def test_high_degree_stays_finite(self):
        """The joint recurrence must not overflow or produce NaN at degree 511."""
        x = np.cos(np.linspace(0.0, np.pi, 9))
        table = normalized_legendre(511, x)
        assert np.isfinite(table).all()
        assert np.abs(table).max() < 1e4  # normalized values stay O(sqrt(l))

    @staticmethod
    def per_order_loop(l_max, x):
        """The recurrence one (m, l) entry at a time, as the tables were built
        before the loop over degrees ran every order at once."""
        x = np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0)
        s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        out = np.zeros((l_max + 1, l_max + 1) + x.shape)
        out[0, 0] = 0.5 / np.sqrt(np.pi)
        for m in range(1, l_max + 1):
            out[m, m] = -np.sqrt((2 * m + 1.0) / (2 * m)) * s * out[m - 1, m - 1]
        for m in range(l_max):
            out[m + 1, m] = np.sqrt(2 * m + 3.0) * x * out[m, m]
        for m in range(l_max - 1):
            for l in range(m + 2, l_max + 1):
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                c = np.sqrt(
                    ((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
                    / ((2.0 * l - 3.0) * (l - m) * (l + m))
                )
                out[l, m] = a * x * out[l - 1, m] - c * out[l - 2, m]
        return out

    @pytest.mark.parametrize(
        "b, shape",
        [(16, None), (64, None), (256, None), (10, ()), (10, (3, 4))],
        ids=["grid-16", "grid-64", "grid-256", "scalar", "3x4"],
    )
    def test_matches_the_per_order_loop(self, b, shape):
        """Bit for bit, on the colatitudes of the grids the harmonic tables
        use and on arguments of any shape."""
        if shape is None:
            x = np.cos(make_grid(b).thetas)
        else:
            x = np.random.default_rng(5).uniform(-1, 1, size=shape)
        table = normalized_legendre(b - 1, x)
        assert table.shape == (b, b) + x.shape
        assert np.array_equal(table, self.per_order_loop(b - 1, x))


class TestSphHarmonic:
    def test_constant_harmonic(self):
        for theta, phi in [(0.1, 0.2), (2.0, 5.0)]:
            np.testing.assert_allclose(
                sph_harmonic(0, 0, theta, phi), 1 / np.sqrt(4 * np.pi), rtol=1e-14
            )
        np.testing.assert_allclose(abs(sph_harmonic(0, 0, 1.0, 1.0)), 0.2820948, rtol=1e-6)

    def test_degree_one_pole(self):
        np.testing.assert_allclose(
            sph_harmonic(1, 0, 0.0, 0.0), np.sqrt(3 / (4 * np.pi)), rtol=1e-14
        )
        np.testing.assert_allclose(abs(sph_harmonic(1, 0, 0.0, 0.0)), 0.4886025, rtol=1e-6)

    def test_conjugation_symmetry(self):
        got = sph_harmonic(2, -1, 1.0, 2.0)
        want = (-1) * np.conj(sph_harmonic(2, 1, 1.0, 2.0))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            l = int(rng.integers(0, 12))
            m = int(rng.integers(-l, l + 1)) if l else 0
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            np.testing.assert_allclose(
                sph_harmonic(l, m, theta, phi),
                complex(sph_harm_y(l, m, theta, phi)),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            sph_harmonic(1, 2, 0.5, 0.5)


class TestHarmonicTable:
    def test_b2_entry_structure(self):
        table = build_table(make_grid(2))
        assert table.legendre.shape == (2, 2, 4)
        assert np.all(table.legendre[0, 1] == 0)  # m > l region empty
        for l, m in [(0, 0), (1, 0), (1, 1)]:
            assert np.isfinite(table.legendre[l, m]).all()

    def test_orthogonality_defect(self):
        """Column orthogonality under the quadrature weights, per order."""
        table = build_table(make_grid(8))
        w = table.grid.quad_weights
        expected_diag = 1.0 / np.sqrt(2 * np.pi)
        worst = 0.0
        for m in range(8):
            block = table.legendre[m:, m, :]  # (L, 2b)
            gram = (block * w) @ block.T
            target = np.eye(8 - m) * expected_diag
            worst = max(worst, np.abs(gram - target).max())
        assert worst < 1e-9

    def test_zero_order_phases_are_one(self):
        table = build_table(make_grid(16))
        np.testing.assert_array_equal(table.fourier_phases[0], np.ones(32))

    def test_shared_table_key_is_the_int(self):
        """A numpy integer bandwidth finds the table of the equal int."""
        assert shared_table(np.int64(8)) is shared_table(8)

    def test_table_size_limit(self):
        """A hand-built grid can carry any bandwidth; the table still refuses 513."""
        g = make_grid(2)
        with pytest.raises(ValueError, match="exceeds table maximum 512"):
            build_table(replace(g, bandwidth=513))
