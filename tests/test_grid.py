"""Grid construction: sample placement, weight properties, weight validation."""

import numpy as np
import pytest

from spheresig.grid import make_grid
from spheresig.harmonics import build_table
from spheresig.sft import isft, random_coeffs, sft_sepvar


class TestSamplePlacement:
    def test_b2_thetas_and_phis(self):
        g = make_grid(2)
        np.testing.assert_allclose(g.thetas, [0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
        np.testing.assert_allclose(g.phis, [0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_grid_dimensions(self):
        for b in (2, 5, 16):
            g = make_grid(b)
            assert g.n == 2 * b
            assert len(g.thetas) == len(g.phis) == 2 * b

    def test_directions_are_unit(self):
        d = make_grid(4).directions()
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-14)


class TestWeights:
    def test_pole_weight_is_zero(self):
        assert make_grid(2).quad_weights[0] == 0.0

    def test_nonnegative(self):
        for b in (2, 8, 33, 64):
            assert np.all(make_grid(b).quad_weights >= 0)

    def test_area_weights_match_sine(self):
        g = make_grid(8)
        np.testing.assert_allclose(g.area_weights, np.sin(g.thetas), atol=1e-15)

    def test_area_weights_rise_then_fall(self):
        w = make_grid(16).area_weights
        peak = int(np.argmax(w))
        assert np.all(np.diff(w[: peak + 1]) >= 0)
        assert np.all(np.diff(w[peak:]) <= 0)
        assert np.all(w >= 0)

    def test_roundtrip_validates_weights_b16(self):
        """Normative check of the weight formula: analysis inverts synthesis."""
        table = build_table(make_grid(16))
        c = random_coeffs(16, channels=2, rng=np.random.default_rng(7))
        back = sft_sepvar(isft(c, table), table)
        assert np.abs(back.coeffs - c.coeffs).max() < 1e-10


class TestValidation:
    def test_rejects_small_bandwidth(self):
        with pytest.raises(ValueError):
            make_grid(1)

    def test_rejects_over_maximum(self):
        with pytest.raises(ValueError):
            make_grid(513)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            make_grid(8.0)

    def test_grid_is_immutable(self):
        g = make_grid(4)
        with pytest.raises(ValueError):
            g.thetas[0] = 1.0
