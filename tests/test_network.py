"""Network contracts: forward semantics, gradients, training, augmentation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spheresig import equivariance, network
from spheresig.errors import DivergenceError
from spheresig.grid import make_grid
from spheresig.harmonics import build_table
from spheresig.mesh import bounding_sphere, project_mesh
from spheresig.network import (
    LayerConfig,
    NetworkConfig,
    TrainSchedule,
    augment,
    backward,
    count_parameters,
    forward,
    init_parameters,
    learning_rate_at,
    predict,
    shared_table,
    stack_config,
    train,
    two_branch_config,
)
from spheresig.rotation import random_rotations, rotate_signal
from spheresig.sft import (
    SpectralCoeffs,
    SphericalSignal,
    isft,
    random_coeffs,
    sft_sepvar,
    to_half,
    to_packed,
)
from spheresig.spectral import (
    ZonalFilterSpec,
    anchor_layout,
    conv_fwd,
    conv_scale,
    max_pool,
    pointwise_nonlinearity,
    realize_filter,
    spectral_pool,
    weighted_avg_pool,
)
from spheresig.synth import icosphere, make_blob_dataset


def fd_gradients(config, params, x, y, eps):
    loss, grads = backward(config, params, x, y)
    fd = {}
    for name in grads:
        flat = params.tensors[name].ravel()
        out = np.zeros(flat.size)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            lp, _ = backward(config, params, x, y)
            flat[idx] = old - eps
            lm, _ = backward(config, params, x, y)
            flat[idx] = old
            out[idx] = (lp - lm) / (2 * eps)
        fd[name] = out.reshape(grads[name].shape)
    return grads, fd


class TestForward:
    def test_zero_parameters_give_equal_logits(self):
        cfg = stack_config(8, [4], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=0)
        for name in params.tensors:
            params.tensors[name][:] = 0.0
        sig = SphericalSignal(make_grid(8), np.random.default_rng(0).standard_normal((1, 16, 16)))
        logits, _ = forward(cfg, params, sig)
        np.testing.assert_allclose(logits, logits[0], atol=1e-15)

    def test_identity_filter_reproduces_input(self):
        """A full-spectrum filter canceling the convolution constant is a no-op."""
        cfg = NetworkConfig(
            input_bandwidth=8,
            layers=(LayerConfig(1, "full", pool="none", nonlinearity="none"),),
            num_classes=2,
        )
        params = init_parameters(cfg, seed=0)
        params.tensors["conv1/filters"][0, 0] = 1.0 / conv_scale(8)
        params.tensors["conv1/bias"][:] = 0.0
        table = build_table(make_grid(8))
        sig = isft(random_coeffs(8, 1, np.random.default_rng(1)), table)
        _, taps = forward(cfg, params, sig)
        np.testing.assert_allclose(taps["conv1"].values, sig.values, atol=1e-6)

    def test_rotated_input_rotates_taps_linear_sp(self):
        """Bandlimited input + linear layers + spectral pooling: exact equivariance."""
        cfg = stack_config(
            16, [3, 4], in_channels=1, num_classes=3, pool="sp", pool_layers=[1],
            nonlinearity="none",
        )
        params = init_parameters(cfg, seed=2)
        table = build_table(make_grid(16))
        sig = isft(random_coeffs(16, 1, np.random.default_rng(3)), table)
        r = random_rotations(1, seed=4)[0]
        _, taps_ref = forward(cfg, params, sig)
        _, taps_rot = forward(cfg, params, rotate_signal(sig, r, table))
        for name, tap in taps_ref.items():
            expected = rotate_signal(tap, r, shared_table(tap.bandwidth))
            err = np.linalg.norm(taps_rot[name].values - expected.values)
            assert err / np.linalg.norm(expected.values) < 1e-6

    def test_shape_validation(self):
        cfg = stack_config(8, [4], in_channels=1, num_classes=3)
        params = init_parameters(cfg)
        with pytest.raises(ValueError):
            forward(cfg, params, SphericalSignal(make_grid(4), np.zeros((1, 8, 8))))
        with pytest.raises(ValueError):
            forward(cfg, params, SphericalSignal(make_grid(8), np.zeros((2, 16, 16))))


@pytest.mark.parametrize("pool", ["sp", "wap", "max"])
def test_pooled_tap_matches_public_chain(pool):
    """A pooled ReLU layer's tap equals sft_sepvar -> per-degree mix ->
    the public pooling function -> pointwise_nonlinearity."""
    b = 8
    cfg = stack_config(b, [3], in_channels=2, num_classes=3, pool=pool, pool_layers=[0])
    params = init_parameters(cfg, seed=40)
    rng = np.random.default_rng(41)
    params.tensors["conv1/bias"][:] = 0.1 * rng.standard_normal(3)
    sig = SphericalSignal(make_grid(b), rng.standard_normal((2, 16, 16)))
    _, taps = forward(cfg, params, sig)

    filt, bias = params.tensors["conv1/filters"], params.tensors["conv1/bias"]
    anchors = anchor_layout(b, 4)
    spectra = np.array([
        [realize_filter(ZonalFilterSpec("anchored", b, anchor_degrees=anchors, anchor_values=f))
         for f in row]
        for row in filt
    ])
    half = to_half(sft_sepvar(sig, shared_table(b)).coeffs)
    mixed = SpectralCoeffs(b, to_packed(conv_fwd(half, spectra)))
    if pool == "sp":
        mixed = spectral_pool(mixed)
    y = isft(mixed, shared_table(mixed.bandwidth))
    y = SphericalSignal(y.grid, y.values + bias[:, None, None])
    if pool != "sp":
        y = weighted_avg_pool(y) if pool == "wap" else max_pool(y)
    want = pointwise_nonlinearity(y).values
    np.testing.assert_allclose(taps["conv1"].values, want, rtol=0, atol=1e-12)


class TestGradients:
    def test_finite_differences_all_op_types(self):
        """Anchored filters, full filters, biases, and the projection all pass
        at eps = 1e-3 with a smooth (linear, area-pooled) two-layer stack."""
        layers = (
            LayerConfig(3, "anchored", 4, "wap", "none"),
            LayerConfig(4, "full", 4, "none", "none"),
        )
        cfg = NetworkConfig(input_bandwidth=8, layers=layers, num_classes=3, in_channels=2)
        params = init_parameters(cfg, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 16, 16))
        y = rng.integers(0, 3, size=3)
        grads, fd = fd_gradients(cfg, params, x, y, eps=1e-3)
        for name in grads:
            rel = np.linalg.norm(fd[name] - grads[name]) / max(
                np.linalg.norm(fd[name]), 1e-12
            )
            assert rel < 1e-4, (name, rel)

    def test_relu_and_pool_paths_at_small_eps(self):
        """Max pooling, relu masks, and the norm-descriptor head verified with
        a small step to keep kink crossings out of the differences."""
        for pool, head in (("max", "wgap"), ("sp", "magl")):
            cfg = stack_config(
                8, [3, 4], in_channels=2, num_classes=3, pool=pool, pool_layers=[1],
                anchors=3, head=head,
            )
            params = init_parameters(cfg, seed=3)
            rng = np.random.default_rng(4)
            x = rng.standard_normal((2, 2, 16, 16))
            y = rng.integers(0, 3, size=2)
            grads, fd = fd_gradients(cfg, params, x, y, eps=1e-6)
            for name in grads:
                rel = np.linalg.norm(fd[name] - grads[name]) / max(
                    np.linalg.norm(fd[name]), 1e-12
                )
                assert rel < 1e-3, (pool, head, name, rel)

    def test_two_branch_concat_gradients(self):
        cfg = stack_config(
            8, [3, 4, 5], in_channels=1, num_classes=3, pool="sp", pool_layers=[1],
            anchors=3, nonlinearity="none",
        )
        cfg = replace(cfg, branches=2, concat_layers=(1,))
        params = init_parameters(cfg, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 2, 16, 16))
        y = rng.integers(0, 3, size=2)
        grads, fd = fd_gradients(cfg, params, x, y, eps=1e-3)
        for name in grads:
            rel = np.linalg.norm(fd[name] - grads[name]) / max(np.linalg.norm(fd[name]), 1e-12)
            assert rel < 1e-4, (name, rel)

    def test_zero_projection_blocks_upstream_gradients(self):
        cfg = stack_config(8, [3, 4], in_channels=1, num_classes=3, pool="sp", pool_layers=[1])
        params = init_parameters(cfg, seed=7)
        params.tensors["head/weight"][:] = 0.0
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 1, 16, 16))
        _, grads = backward(cfg, params, x, np.array([0, 1]))
        for name, g in grads.items():
            if name.startswith("conv") or name.startswith("branch"):
                assert np.all(g == 0), name
        assert np.abs(grads["head/bias"]).max() > 0

    def test_duplicated_sample_doubles_contribution(self):
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=9)
        x = np.random.default_rng(10).standard_normal((1, 1, 16, 16))
        l1, g1 = backward(cfg, params, x, np.array([2]))
        l2, g2 = backward(cfg, params, np.concatenate([x, x]), np.array([2, 2]))
        np.testing.assert_allclose(l2, 2 * l1, rtol=1e-14)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2 * g1[name], rtol=1e-12, atol=1e-15)

    def test_divergence_raises(self):
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=11)
        params.tensors["head/weight"][:] = np.inf
        x = np.random.default_rng(12).standard_normal((1, 1, 16, 16))
        with pytest.raises(DivergenceError):
            backward(cfg, params, x, np.array([0]))

    @pytest.mark.parametrize("label", [3, -1])
    def test_label_out_of_range_raises(self, label):
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=11)
        x = np.random.default_rng(12).standard_normal((2, 1, 16, 16))
        with pytest.raises(ValueError, match=f"label {label} out of range for 3 classes"):
            backward(cfg, params, x, np.array([0, label]))

    @pytest.mark.parametrize("label", [0.5, 1.0, True], ids=["half", "whole-float", "bool"])
    def test_non_integer_labels_raise(self, label):
        """A label array without an integer dtype is refused by name, not
        left to fail as an index."""
        cfg = stack_config(8, [3], in_channels=1, num_classes=3)
        params = init_parameters(cfg, seed=11)
        x = np.random.default_rng(12).standard_normal((1, 1, 16, 16))
        labels = np.array([label])
        with pytest.raises(ValueError, match=f"integer dtype, got {labels.dtype}"):
            backward(cfg, params, x, labels)


def is_longitude_major(values):
    return np.moveaxis(values, (-1, -2), (0, 1)).flags.c_contiguous


class TestLongitudeMajorMaps:
    def test_transforms_receive_longitude_major_maps(self, monkeypatch):
        """Past the network input, every map the analyses and the synthesis
        adjoints get is already longitude-major, so none is copied."""
        cfg = stack_config(8, [2, 4, 4], in_channels=1, num_classes=3, pool="wap", anchors=3)
        cfg = replace(cfg, branches=2, concat_layers=(1,))
        params = init_parameters(cfg, seed=21)
        x = np.random.default_rng(22).standard_normal((3, 2, 16, 16))
        seen = []

        def spy(kernel):
            def wrapped(values, *args, **kwargs):
                if not np.shares_memory(values, x):
                    seen.append((kernel.__name__, values.shape, is_longitude_major(values)))
                return kernel(values, *args, **kwargs)

            return wrapped

        for name in ("_analysis_half", "_synthesis_adjoint"):
            monkeypatch.setattr(network, name, spy(getattr(network, name)))
        backward(cfg, params, x, np.array([0, 1, 2]))
        assert len(seen) == 10  # 4 analyses past the input, 6 synthesis adjoints
        assert all(ok for _, _, ok in seen), seen

    @pytest.mark.parametrize("pool", ["none", "sp"])
    def test_folded_bias_adds_the_bias(self, pool):
        lay = LayerConfig(4, pool=pool, nonlinearity="none")
        rng = np.random.default_rng(23)
        coeffs = network._analysis_half(rng.standard_normal((3, 2, 16, 16)), shared_table(8))
        filters, bias = rng.standard_normal((4, 3, 4)), rng.standard_normal(4)
        with_bias, _ = network._block(lay, 8, coeffs, filters, bias)
        without, _ = network._block(lay, 8, coeffs, filters, np.zeros(4))
        np.testing.assert_allclose(
            with_bias, without + bias[:, None, None, None], rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("pool", ["none", "sp"])
    def test_bias_gradient_sums_the_cotangent(self, pool):
        lay = LayerConfig(4, pool=pool, nonlinearity="none")
        rng = np.random.default_rng(24)
        coeffs = network._analysis_half(rng.standard_normal((3, 2, 16, 16)), shared_table(8))
        y, vjp = network._block(
            lay, 8, coeffs, rng.standard_normal((4, 3, 4)), rng.standard_normal(4)
        )
        dy = rng.standard_normal(y.shape)
        np.testing.assert_allclose(vjp(dy)[2], dy.sum(axis=(1, 2, 3)), rtol=0, atol=1e-12)


class TestSchedule:
    def test_default_drop_points(self):
        s = TrainSchedule()
        assert learning_rate_at(s, 1) == 1e-3
        assert learning_rate_at(s, 32) == 1e-3
        assert learning_rate_at(s, 33) == pytest.approx(2e-4)
        assert learning_rate_at(s, 40) == pytest.approx(2e-4)
        assert learning_rate_at(s, 41) == pytest.approx(4e-5)
        assert learning_rate_at(s, 48) == pytest.approx(4e-5)

    def test_training_is_reproducible(self):
        ds = make_blob_dataset(8, 4, seed=0)
        x = np.stack([s.values for s in ds.signals])
        cfg = stack_config(8, [4], in_channels=1, num_classes=3)
        sched = TrainSchedule(epochs=3, seed=5, augment_rotate="z")
        _, h1 = train(cfg, x, ds.labels, sched)
        _, h2 = train(cfg, x, ds.labels, sched)
        assert h1 == h2

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(augment_rotate="Z"), "augment_rotate must be None or 'z', got 'Z'"),
            (dict(batch_size=0), "batch_size must be at least 1, got 0"),
        ],
    )
    def test_invalid_schedule_rejected(self, kwargs, message):
        """``augment_rotate="Z"`` once trained without augmentation and
        ``batch_size=0`` died inside ``range``; both now fail at construction."""
        with pytest.raises(ValueError, match=message):
            TrainSchedule(**kwargs)

    def test_input_checked_before_parameters(self, monkeypatch):
        """``train`` rejects values of the wrong width before it makes any
        parameter, with the message the forward pass would give."""
        made = []
        monkeypatch.setattr(network, "init_parameters", lambda *a, **k: made.append(a))
        cfg = stack_config(8, [4], in_channels=2, num_classes=3)
        x = np.zeros((3, 1, 16, 16))
        with pytest.raises(ValueError, match=r"input has shape \(3, 1, 16, 16\); "
                           r"the config expects \(batch, 2, 16, 16\)"):
            train(cfg, x, np.zeros(3, dtype=int), TrainSchedule(epochs=1))
        assert made == []

    def test_training_reduces_loss(self):
        ds = make_blob_dataset(8, 10, seed=1)
        x = np.stack([s.values for s in ds.signals])
        cfg = stack_config(8, [6, 8], in_channels=1, num_classes=3, pool="sp", pool_layers=[1])
        params, hist = train(cfg, x, ds.labels, TrainSchedule(epochs=30, seed=0, batch_size=8))
        assert hist[-1] < 0.85 * hist[0]
        assert (predict(cfg, params, x) == ds.labels).mean() > 0.6


class TestTrainedDescriptorInvariance:
    def test_trained_wgap_descriptors_nearly_rotation_invariant(self):
        """A trained classifier's descriptor moves < 2% under arbitrary
        rotations of bandlimited inputs; the residue is the nonlinearity's
        equivariance error, which shrinks with resolution."""
        from spheresig.network import descriptors
        from spheresig.sft import bandlimit

        b = 16
        ds = make_blob_dataset(b, 30, seed=1)
        x = np.stack([s.values for s in ds.signals])
        cfg = stack_config(
            b, [8, 16], in_channels=1, num_classes=3, pool="sp", pool_layers=[1],
            anchors=4, head="wgap",
        )
        params, _ = train(
            cfg, x, ds.labels,
            TrainSchedule(epochs=30, batch_size=16, seed=0, augment_rotate="z"),
        )
        table = shared_table(b)
        worst = 0.0
        for sig in make_blob_dataset(b, 4, seed=5).signals:
            blim = bandlimit(sig, table)
            base = descriptors(cfg, params, blim.values[None])[0]
            for r in random_rotations(10, seed=123):
                rot = rotate_signal(blim, r, table)
                dev = np.linalg.norm(
                    descriptors(cfg, params, rot.values[None])[0] - base
                )
                worst = max(worst, float(dev / np.linalg.norm(base)))
        assert worst < 0.02


class TestParameterCounts:
    def test_reference_two_branch_budget(self):
        n = count_parameters(two_branch_config())
        assert abs(n - 500_000) / 500_000 < 0.10

    def test_count_matches_init(self):
        cfg = two_branch_config(anchors=4)
        assert count_parameters(cfg) == init_parameters(cfg).count()


ONE_LAYER = (LayerConfig(2),)


class TestConfigRules:
    """Each config rule is checked once, where the config is built: the
    Python types reject what the CLI's JSON parser rejects, with the same
    message naming the field."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LayerConfig(2.5), "out_channels must be an integer, got 2.5"),
            (lambda: NetworkConfig(8, ONE_LAYER, 3, in_channels=True),
             "in_channels must be an integer, got True"),
            (lambda: LayerConfig(2, anchors="4"), "anchors must be an integer, got '4'"),
            (lambda: NetworkConfig(8.0, ONE_LAYER, 3), "input_bandwidth must be an integer"),
            (lambda: NetworkConfig(8, ONE_LAYER, 3, branches=True), "branches must be an integer"),
            (
                lambda: NetworkConfig(
                    8, (LayerConfig(2), LayerConfig(2)), 3, branches=2, concat_layers=(1.0,)
                ),
                "each concat_layers entry must be an integer, got 1.0",
            ),
            (
                lambda: ZonalFilterSpec("full", 8.9, full_coeffs=np.ones(8)),
                "bandwidth must be an integer, got 8.9",
            ),
        ],
        ids=[
            "out-channels-fraction", "in-channels-bool", "anchors-string", "bandwidth-float",
            "branches-bool", "concat-entry-fraction", "filter-bandwidth-fraction",
        ],
    )
    def test_integer_fields(self, build, message):
        with pytest.raises(TypeError, match=message):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LayerConfig(2, "anchored", 1), "anchors >= 2, got 1"),
            (lambda: LayerConfig(2, "anchored", 0), "anchors >= 2, got 0"),
            (lambda: NetworkConfig(1, ONE_LAYER, 3), r"input_bandwidth must be in \[2, 512\]"),
            (lambda: NetworkConfig(513, ONE_LAYER, 3), "input_bandwidth must be in"),
            (
                lambda: NetworkConfig(8, ONE_LAYER, 3, branches=2, in_channels=2),
                "two branches need in_channels 1, got 2",
            ),
            (
                lambda: NetworkConfig(5, (LayerConfig(2, pool="sp"),), 3),
                "layer 0: pool 'sp' needs an even bandwidth >= 4, got 5",
            ),
            (
                lambda: NetworkConfig(2, (LayerConfig(2, pool="wap"),), 3),
                "layer 0: pool 'wap' needs an even bandwidth >= 4, got 2",
            ),
        ],
        ids=[
            "anchors-1", "anchors-0", "bandwidth-1", "bandwidth-513", "two-branch-in-channels",
            "pool-odd-bandwidth", "pool-bandwidth-2",
        ],
    )
    def test_construction_rules(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_numpy_integers_and_unused_anchors_run(self):
        """numpy integers are integers; a full layer ignores ``anchors``."""
        i = np.int64
        layers = (LayerConfig(i(2), "anchored", i(3)), LayerConfig(2, "full", 0))
        cfg = NetworkConfig(
            i(8), layers, i(3), branches=i(2), concat_layers=(i(1),), in_channels=i(1)
        )
        x = np.random.default_rng(0).standard_normal((2, 2, 16, 16))
        loss, grads = backward(cfg, init_parameters(cfg), x, np.array([0, 2]))
        assert np.isfinite(loss)
        assert {k: v.shape for k, v in grads.items()} == dict(network.parameter_shapes(cfg))


class TestBlockWalk:
    """``NetworkConfig.blocks`` is the one record of the network's shape; the
    parameter list, the forward's taps and the input check all read it."""

    CONFIG = NetworkConfig(
        input_bandwidth=8,
        layers=(LayerConfig(2, "full"), LayerConfig(3, "anchored", 3, "wap")),
        num_classes=4,
        branches=2,
        concat_layers=(1,),
    )

    def test_parameter_shapes_keep_checkpoint_order(self):
        """Branch-major, as CKPT1 writes and ``init_parameters`` draws them;
        the concat block counts branch 1's two maps after its own two."""
        assert network.parameter_shapes(self.CONFIG) == [
            ("conv1/filters", (2, 1, 8)),
            ("conv1/bias", (2,)),
            ("conv2/filters", (3, 4, 3)),
            ("conv2/bias", (3,)),
            ("branch1/conv1/filters", (2, 1, 8)),
            ("branch1/conv1/bias", (2,)),
            ("branch1/conv2/filters", (3, 2, 3)),
            ("branch1/conv2/bias", (3,)),
            ("head/weight", (4, 6)),
            ("head/bias", (4,)),
        ]

    def test_blocks_run_in_tap_order(self):
        assert self.CONFIG.blocks() == [
            ("conv1", 0, 0, 8, 1),
            ("branch1/conv1", 0, 1, 8, 1),
            ("conv2", 1, 0, 8, 4),
            ("branch1/conv2", 1, 1, 8, 2),
        ]
        x = np.random.default_rng(0).standard_normal((1, 2, 16, 16))
        _, taps, _ = network._forward_batch(self.CONFIG, init_parameters(self.CONFIG), x)
        assert [blk.name for blk in self.CONFIG.blocks()] == list(taps)

    def test_input_channels(self):
        assert self.CONFIG.input_channels == 2
        assert stack_config(8, [2, 3], in_channels=3).input_channels == 3
        assert two_branch_config(16, 3).input_channels == 2


class TestOneFilterPath:
    def test_full_filter_is_anchored_at_every_degree(self):
        """A full filter realizes through the anchored path with every degree
        an anchor, where interpolation is the identity: same tensors, and the
        same logits, taps and gradients, bit for bit, as ``anchors=b``."""

        def config(mode):
            layers = (
                LayerConfig(3, mode, 8, "sp", "none"),
                LayerConfig(2, mode, 8, "max"),
                LayerConfig(4, mode, 8),
            )
            return NetworkConfig(8, layers, 3, head="magl", branches=2, concat_layers=(2,))

        full, anchored = config("full"), config("anchored")
        assert network.parameter_shapes(full) == network.parameter_shapes(anchored)
        params = init_parameters(full, seed=1)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 2, 16, 16)), np.array([0, 2])
        logits_f, taps_f, _ = network._forward_batch(full, params, x)
        logits_a, taps_a, _ = network._forward_batch(anchored, params, x)
        np.testing.assert_array_equal(logits_f, logits_a)
        assert list(taps_f) == list(taps_a)
        for name in taps_f:
            np.testing.assert_array_equal(taps_f[name], taps_a[name])
        (loss_f, grads_f), (loss_a, grads_a) = (backward(c, params, x, y) for c in (full, anchored))
        assert loss_f == loss_a and list(grads_f) == list(grads_a)
        for name in grads_f:
            np.testing.assert_array_equal(grads_f[name], grads_a[name])

    @pytest.mark.parametrize("b", [0, 1])
    def test_full_filter_below_two_degrees(self, b):
        """With fewer than two anchors there is nothing to interpolate; a full
        filter still realizes its coefficients."""
        coeffs = np.full(b, 2.5)
        spec = ZonalFilterSpec("full", b, full_coeffs=coeffs)
        np.testing.assert_array_equal(realize_filter(spec), coeffs)


def replay_backward(config, params, x, y):
    """Reference reverse pass: the taps-keeping forward with its tape, then
    every tape entry replayed in reverse while the whole tape stays alive.
    Each block below the last layer synthesizes the summed coefficient
    cotangent of its output, and the network input's is never synthesized."""
    logits, _, (desc, head_vjp, blocks) = network._forward_batch(config, params, x, tape=True)
    loss, dlogits = network.softmax_cross_entropy(logits, y)
    grads = {"head/weight": dlogits.T @ desc, "head/bias": dlogits.sum(axis=0)}
    dmaps = np.split(head_vjp(dlogits @ params.tensors["head/weight"]), config.branches, axis=0)
    dcoeffs, bws = [None] * config.branches, config.layer_bandwidths()
    for blk, width, vjp in reversed(blocks):
        if blk.layer < len(config.layers) - 1:
            dmaps[blk.branch] = network._analysis_adjoint(
                dcoeffs[blk.branch], shared_table(bws[blk.layer])
            )
        dc, grads[f"{blk.name}/filters"], grads[f"{blk.name}/bias"] = vjp(dmaps[blk.branch])
        if dc.shape[2] > width:
            dcoeffs[1] = dcoeffs[1] + dc[:, :, width:]
            dc = dc[:, :, :width]
        dcoeffs[blk.branch] = dc
    return loss, grads


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocates at its peak beyond what is live when it starts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestLeanReversePass:
    """``backward``, ``predict`` and ``descriptors`` run the forward without
    taps; ``backward`` frees the tape as it replays it, and ``predict`` and
    ``descriptors`` keep none.  The arithmetic is that of the taps-keeping
    forward and a plain replay of its tape."""

    CONFIGS = {
        "two_branch": two_branch_config(16, 5),
        "sp_max": NetworkConfig(
            16,
            (LayerConfig(4, pool="sp"), LayerConfig(6, pool="max"), LayerConfig(8)),
            5,
            head="magl",
        ),
    }

    @pytest.fixture(params=list(CONFIGS))
    def case(self, request):
        cfg = self.CONFIGS[request.param]
        rng = np.random.default_rng(31)
        x = rng.standard_normal((3, cfg.input_channels, 32, 32))
        return cfg, init_parameters(cfg, seed=4), x, np.array([0, 3, 4])

    def test_backward_matches_a_replay_of_the_default_tape(self, case):
        cfg, params, x, y = case
        loss, grads = backward(cfg, params, x, y)
        ref_loss, ref_grads = replay_backward(cfg, params, x, y)
        assert loss == ref_loss and list(grads) == list(ref_grads)
        for name in grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name])

    def test_forward_without_taps(self, case):
        cfg, params, x, _ = case
        logits, taps, (desc, _, _) = network._forward_batch(cfg, params, x)
        lean_logits, lean_taps, _ = network._forward_batch(cfg, params, x, taps=False)
        assert len(taps) == len(cfg.blocks()) and lean_taps == {}
        np.testing.assert_array_equal(lean_logits, logits)
        np.testing.assert_array_equal(predict(cfg, params, x), logits.argmax(axis=1))
        np.testing.assert_array_equal(network.descriptors(cfg, params, x), desc)

    def test_tape_only_when_asked(self, case):
        """The default forward records no block of the tape; ``tape=True``
        records one entry per block of ``config.blocks()``, in that order."""
        cfg, params, x, _ = case
        *_, (_, _, blocks) = network._forward_batch(cfg, params, x)
        assert blocks == []
        *_, (_, _, blocks) = network._forward_batch(cfg, params, x, tape=True)
        assert [blk for blk, _, _ in blocks] == cfg.blocks()

    def test_forward_and_measure_record_no_tape(self, monkeypatch):
        """``forward`` and ``equivariance.measure`` replay nothing, so every
        forward they run returns an empty tape."""
        tapes, forward_batch = [], network._forward_batch

        def spy(*args, **kwargs):
            out = forward_batch(*args, **kwargs)
            tapes.append(out[2][2])
            return out

        monkeypatch.setattr(network, "_forward_batch", spy)
        monkeypatch.setattr(equivariance, "_forward_batch", spy)
        cfg = stack_config(8, [2, 3], num_classes=3)
        params = init_parameters(cfg, seed=3)
        signal = isft(random_coeffs(8, 1, np.random.default_rng(7)), build_table(make_grid(8)))
        forward(cfg, params, signal)
        equivariance.measure(cfg, params, [signal], rotations=1)
        assert len(tapes) == 3 and all(blocks == [] for blocks in tapes)

    def test_backward_peaks_below_a_taps_keeping_forward(self):
        """At the reference width the taps and the tape outweigh what the
        reverse pass holds at any time.  (At b = 16 the margin is a few percent.)"""
        cfg = two_branch_config(32, 5)
        params = init_parameters(cfg, seed=1)
        x = np.random.default_rng(5).standard_normal((4, 2, 64, 64))
        y = np.array([0, 1, 2, 3])
        backward(cfg, params, x, y)  # warm-up: the harmonic tables
        peak_backward = traced_peak(lambda: backward(cfg, params, x, y))
        peak_forward = traced_peak(lambda: network._forward_batch(cfg, params, x, tape=True))
        assert peak_backward < peak_forward, (peak_backward, peak_forward)

    def test_inference_holds_no_tape(self):
        """``predict`` and ``descriptors`` drop each block's closure as it
        returns, so at the reference width they peak well below a forward
        that keeps the tape, though both keep no taps."""
        cfg = two_branch_config(32, 5)
        params = init_parameters(cfg, seed=1)
        x = np.random.default_rng(5).standard_normal((4, 2, 64, 64))
        predict(cfg, params, x)  # warm-up: the harmonic tables
        taped = traced_peak(
            lambda: network._forward_batch(cfg, params, x, taps=False, tape=True)
        )
        for fn in (predict, network.descriptors):
            peak = traced_peak(lambda: fn(cfg, params, x))
            assert peak < 0.7 * taped, (fn.__name__, peak, taped)

    def test_each_map_analysed_and_each_cotangent_synthesized_once(self, monkeypatch):
        """One ``backward`` analyses every branch's layer input once (a concat
        block reads branch 1's spectra, not its maps again) and synthesizes
        one summed cotangent per map a block produced and a later block read;
        the network input's cotangent is never synthesized."""
        cfg = two_branch_config(16, 5)
        params = init_parameters(cfg, seed=2)
        x = np.random.default_rng(6).standard_normal((3, 2, 32, 32))
        analysed, adjoints = [], []

        def spy(kernel, shapes):
            def wrapped(values, *args, **kwargs):
                shapes.append(values.shape)
                return kernel(values, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(network, "_analysis_half", spy(network._analysis_half, analysed))
        monkeypatch.setattr(network, "_analysis_adjoint", spy(network._analysis_adjoint, adjoints))
        backward(cfg, params, x, np.array([0, 1, 2]))
        widths = [cfg.in_channels] + [lay.out_channels for lay in cfg.layers[:-1]]
        columns = sum(np.prod(shape[:-2]) for shape in analysed)
        assert columns == cfg.branches * sum(widths) * len(x)
        assert len(adjoints) == sum(blk.layer > 0 for blk in cfg.blocks()) == 14


class TestAugment:
    def test_noop(self):
        sig = SphericalSignal(make_grid(8), np.zeros((1, 16, 16)))
        assert augment(sig) is sig

    def test_signal_rotation_reproducible(self):
        table = build_table(make_grid(8))
        sig = isft(random_coeffs(8, 1, np.random.default_rng(0)), table)
        a = augment(sig, rotate=True, rng=np.random.default_rng(42))
        c = augment(sig, rotate=True, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.values, c.values)

    def test_signal_jitter_rejected(self):
        sig = SphericalSignal(make_grid(8), np.zeros((1, 16, 16)))
        with pytest.raises(ValueError):
            augment(sig, center_jitter=0.1)

    def test_jittered_sphere_loses_constant_distance(self):
        mesh = icosphere(2)
        assert project_mesh(mesh, 8).signal.values[0].std() < 0.01
        jittered = augment(mesh, center_jitter=0.3, rng=np.random.default_rng(1))
        rep = project_mesh(jittered, 8)  # honors the recorded offset
        assert rep.signal.values[0].std() > 0.02

    def test_jitter_records_offset_on_a_copy(self):
        mesh = icosphere(1)
        jittered = augment(mesh, center_jitter=0.3, rng=np.random.default_rng(1))
        assert mesh.projection_offset is None and jittered.projection_offset.shape == (3,)
        np.testing.assert_array_equal(jittered.vertices, mesh.vertices)

    def test_mesh_rotation_keeps_vertex_count(self):
        mesh = icosphere(1)
        rotated = augment(mesh, rotate=True, rng=np.random.default_rng(2))
        assert rotated.vertices.shape == mesh.vertices.shape
        assert not np.allclose(rotated.vertices, mesh.vertices)

    def test_mesh_rotation_turns_the_recorded_offset(self):
        """Rotating a jittered mesh keeps its offset, turned with the mesh, so
        the projection center is the rotated jittered center."""
        mesh = icosphere(1)
        jittered = augment(mesh, center_jitter=0.3, rng=np.random.default_rng(1))
        rotated = augment(jittered, rotate=True, rng=np.random.default_rng(2))
        seed = int(np.random.default_rng(2).integers(2**32))
        r = random_rotations(1, seed=seed)[0].matrix()
        np.testing.assert_allclose(rotated.projection_offset, r @ jittered.projection_offset)
        center, _ = bounding_sphere(jittered)
        np.testing.assert_allclose(
            project_mesh(rotated, 8).center,
            center + r @ jittered.projection_offset,
            atol=1e-12,
        )
