"""Measurement harness: exact rows, nonzero rows, exclusions, report forms."""

import json
import warnings

import numpy as np
import pytest

from spheresig.equivariance import _weighted_norm, measure
from spheresig.grid import make_grid
from spheresig.network import _forward_batch, init_parameters, shared_table, stack_config
from spheresig.rotation import random_rotations, rotate_signal
from spheresig.sft import SphericalSignal, random_bandlimited_signal
from spheresig.synth import make_blob_dataset


def bandlimited_signals(b, count, seed):
    rng = np.random.default_rng(seed)
    return [random_bandlimited_signal(b, 1, rng) for _ in range(count)]


class TestExactRows:
    def test_linear_spectral_pool_bandlimited_is_zero(self):
        """Linear layers + spectral pooling + bandlimited input: every layer exact."""
        cfg = stack_config(
            16, [4, 4, 8], in_channels=1, num_classes=3, pool="sp", pool_layers=[2],
            nonlinearity="none",
        )
        params = init_parameters(cfg, seed=0)
        rep = measure(cfg, params, bandlimited_signals(16, 3, 1), rotations=1, seed=2)
        assert rep.per_layer_error.max() < 1e-6

    def test_input_layer_zero_for_bandlimited(self):
        cfg = stack_config(
            16, [4, 4], in_channels=1, num_classes=3, pool="wap", pool_layers=[1],
        )
        params = init_parameters(cfg, seed=3)
        rep = measure(cfg, params, bandlimited_signals(16, 2, 4), rotations=1, seed=5)
        assert rep.layer_names[0] == "input"
        assert rep.per_layer_error[0] < 1e-6


class TestNonzeroRows:
    def test_untrained_nonlinear_network_has_errors_by_design(self):
        """Random (untrained) weights already show the nonlinearity's error."""
        cfg = stack_config(
            16, [4, 4], in_channels=1, num_classes=3, pool="wap", pool_layers=[1],
        )
        params = init_parameters(cfg, seed=6)
        signals = []
        rng = np.random.default_rng(7)
        for s in bandlimited_signals(16, 3, 8):
            signals.append(SphericalSignal(s.grid, s.values - s.values.mean()))
        rep = measure(cfg, params, signals, rotations=2, seed=9)
        assert rep.per_layer_error[1:].max() > 1e-4
        assert np.isfinite(rep.per_layer_error).all()


class TestEdgeCases:
    def test_zero_norm_sample_excluded_with_warning(self):
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=10)
        zero = SphericalSignal(make_grid(8), np.zeros((1, 16, 16)))
        good = bandlimited_signals(8, 1, 11)[0]
        with pytest.warns(UserWarning, match="zero-norm"):
            rep = measure(cfg, params, [zero, good], rotations=1, seed=12)
        assert np.isfinite(rep.per_layer_error).all()

    def test_empty_dataset_rejected(self):
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        with pytest.raises(ValueError):
            measure(cfg, init_parameters(cfg), [], rotations=1)


class TestReportOutput:
    def test_json_and_table_forms(self):
        cfg = stack_config(8, [3, 4], in_channels=1, num_classes=3, pool="sp", pool_layers=[1])
        params = init_parameters(cfg, seed=13)
        rep = measure(cfg, params, bandlimited_signals(8, 2, 14), rotations=1, seed=15)
        doc = json.loads(rep.to_json())
        assert doc["layers"] == ["input", "conv1", "conv2"]
        assert len(doc["per_layer_error"]) == 3
        table = rep.table()
        assert "conv1" in table and "input" in table

    def test_reproducible_under_seed(self):
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=16)
        sigs = bandlimited_signals(8, 2, 17)
        a = measure(cfg, params, sigs, rotations=2, seed=18)
        c = measure(cfg, params, sigs, rotations=2, seed=18)
        np.testing.assert_array_equal(a.per_layer_error, c.per_layer_error)


def reference_errors(config, params, signals, rotations, seed):
    """The per-rotation loop ``measure`` replaced: every rotation rotates the
    input twice and re-analyses every reference tap through ``rotate_signal``."""
    b_in = config.input_bandwidth
    table = shared_table(b_in)
    bws = config.layer_bandwidths()
    branch0 = [f"conv{i + 1}" for i in range(len(config.layers))]
    sums = np.zeros(len(branch0) + 1)
    counts = np.zeros(len(branch0) + 1, dtype=int)
    rng = np.random.default_rng(seed)
    rots = random_rotations(rotations * len(signals), seed=int(rng.integers(2**32)))
    for si, sig in enumerate(signals):
        x = np.asarray(sig.values, dtype=np.float64)
        _, taps_ref, _ = _forward_batch(config, params, x[None])
        for r in rots[si * rotations : (si + 1) * rotations]:
            x_rot = rotate_signal(sig, r, table)
            _, taps_rot, _ = _forward_batch(config, params, x_rot.values[None])
            pairs = [(x_rot.values[None], x[None], b_in)]
            for i, name in enumerate(branch0):
                pairs.append((taps_rot[name], taps_ref[name], bws[i]))
            for li, (a_vals, ref_vals, b_layer) in enumerate(pairs):
                ref_norm = _weighted_norm(ref_vals[0], b_layer)
                if ref_norm == 0.0:
                    continue
                ref_sig = SphericalSignal(shared_table(b_layer).grid, ref_vals[0])
                rotated_ref = rotate_signal(ref_sig, r, shared_table(b_layer))
                err = _weighted_norm(a_vals[0] - rotated_ref.values, b_layer) / ref_norm
                sums[li] += err
                counts[li] += 1
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def table4_config(b, pool, linear):
    return stack_config(
        b, [4, 4, 8, 8, 16, 16], in_channels=1, num_classes=3, pool=pool,
        pool_layers=[2, 4], nonlinearity="none" if linear else "relu", anchors=4,
    )


def centred_blobs(b, count):
    ds = make_blob_dataset(b, 1, seed=21, canonical_pose=False)
    return [SphericalSignal(s.grid, s.values - s.values.mean()) for s in ds.signals[:count]]


class TestParityWithPerRotationLoop:
    """``measure`` shares analyses and Wigner blocks across layers and
    rotations; its report must equal the per-rotation loop's bit for bit."""

    B = 16

    @pytest.mark.parametrize(
        "pool, linear", [("sp", True), ("sp", False), ("wap", False), ("max", False)]
    )
    def test_table4_rows(self, pool, linear):
        cfg = table4_config(self.B, pool, linear)
        params = init_parameters(cfg, seed=22)
        sigs = bandlimited_signals(self.B, 2, 23) if linear else centred_blobs(self.B, 2)
        rep = measure(cfg, params, sigs, rotations=2, seed=24)
        assert np.isfinite(rep.per_layer_error).all()
        np.testing.assert_array_equal(
            rep.per_layer_error, reference_errors(cfg, params, sigs, 2, 24)
        )
        if linear:
            assert rep.per_layer_error.max() < 1e-6

    def test_float32_signal(self):
        cfg = table4_config(self.B, "sp", False)
        params = init_parameters(cfg, seed=25)
        sigs = [
            SphericalSignal(s.grid, s.values.astype(np.float32))
            for s in centred_blobs(self.B, 2)
        ]
        rep = measure(cfg, params, sigs, rotations=2, seed=26)
        assert rep.per_layer_error[0] > 0  # the float32 cast of the rotated input
        np.testing.assert_array_equal(
            rep.per_layer_error, reference_errors(cfg, params, sigs, 2, 26)
        )

    def test_zero_norm_sample(self):
        cfg = table4_config(self.B, "wap", False)
        params = init_parameters(cfg, seed=27)
        zero = SphericalSignal(make_grid(self.B), np.zeros((1, 2 * self.B, 2 * self.B)))
        sigs = [zero, centred_blobs(self.B, 1)[0]]
        with pytest.warns(UserWarning, match="zero-norm"):
            rep = measure(cfg, params, sigs, rotations=2, seed=28)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = reference_errors(cfg, params, sigs, 2, 28)
        np.testing.assert_array_equal(rep.per_layer_error, ref)
