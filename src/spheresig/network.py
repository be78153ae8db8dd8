"""Trainable classifier built from spherical-convolution blocks.

A block is one harmonic-domain convolutional layer (a zonal filter per
output/input channel pair plus a per-output bias), optional pooling, and an
optional pointwise nonlinearity.  The running representation stays in the
spatial domain between blocks, so each block costs one analysis/synthesis
pair.  The head is a rotation-invariant descriptor (area-weighted global
average or per-degree coefficient norms) followed by a linear projection.

The network owns no layer arithmetic: the forward pass composes the ``sft``
transforms with the ``spectral`` forward of each operation (filter
realization, per-degree channel mixing, pooling, ReLU, head); the backward
pass applies their vector-Jacobian products and the ``sft`` transform
adjoints in reverse, checked against central finite differences in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .errors import DivergenceError
from .grid import make_grid
from .harmonics import HarmonicTable, shared_table
from .mesh import TriangleMesh, bounding_sphere
from .rotation import random_rotations, rotate_signal
from .sft import (
    SphericalSignal,
    _analysis_adjoint,
    _analysis_sepvar_real,
    _synthesis_adjoint,
    _synthesis_real,
)


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerConfig:
    in_channels: int
    out_channels: int
    filter_mode: str = "anchored"  # "anchored" | "full"
    anchors: int = 4
    pool: str = "none"  # "none" | "sp" | "wap" | "max"
    nonlinearity: str = "relu"  # "relu" | "none"

    def __post_init__(self) -> None:
        if min(self.in_channels, self.out_channels) < 1:
            raise ValueError(
                f"channel counts must be at least 1, got {self.in_channels} -> "
                f"{self.out_channels}"
            )
        if self.filter_mode not in ("anchored", "full"):
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")
        if self.pool not in ("none", "sp", "wap", "max"):
            raise ValueError(f"unknown pool {self.pool!r}")
        if self.nonlinearity not in ("relu", "none"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")


@dataclass(frozen=True)
class NetworkConfig:
    input_bandwidth: int
    layers: tuple[LayerConfig, ...]
    num_classes: int
    head: str = "wgap"  # "wgap" | "magl"
    branches: int = 1
    concat_layers: tuple[int, ...] = ()  # branch-0 layers receiving branch-1 features

    def __post_init__(self) -> None:
        if self.head not in ("wgap", "magl"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.branches not in (1, 2):
            raise ValueError("branches must be 1 or 2")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be at least 1, got {self.num_classes}")
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        prev = None
        for i, lay in enumerate(layers):
            if prev is not None and lay.in_channels != prev:
                raise ValueError(
                    f"layer {i}: in_channels {lay.in_channels} != previous out {prev}"
                )
            prev = lay.out_channels
        if any(i < 1 or i >= len(layers) for i in self.concat_layers):
            raise ValueError("concat layers must reference layers after the first")
        b = self.input_bandwidth
        for i, lay in enumerate(layers):
            if lay.pool != "none":
                if b % 2 != 0 or b // 2 < 2:
                    raise ValueError(f"layer {i}: cannot pool below bandwidth 2 (b={b})")
                b //= 2
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "concat_layers", tuple(self.concat_layers))

    def layer_bandwidths(self) -> list[int]:
        """Output bandwidth of each layer."""
        b, out = self.input_bandwidth, []
        for lay in self.layers:
            if lay.pool != "none":
                b //= 2
            out.append(b)
        return out

    def layer_in_channels(self, branch: int, i: int) -> int:
        base = self.layers[i].in_channels
        if self.branches == 2 and branch == 0 and i in self.concat_layers:
            base += self.layers[i - 1].out_channels
        return base

    def feature_dim(self) -> int:
        last = self.layers[-1].out_channels * self.branches
        if self.head == "magl":
            return last * self.layer_bandwidths()[-1]
        return last


def stack_config(
    input_bandwidth: int,
    channels: list[int],
    in_channels: int = 1,
    num_classes: int = 3,
    pool: str = "wap",
    pool_layers: list[int] | None = None,
    filter_mode: str = "anchored",
    anchors: int = 4,
    nonlinearity: str = "relu",
    head: str = "wgap",
) -> NetworkConfig:
    """Single-branch stack; pooling defaults to the layers where width grows."""
    if pool_layers is None:
        pool_layers = [
            i for i in range(len(channels)) if i > 0 and channels[i] > channels[i - 1]
        ]
    layers = []
    prev = in_channels
    for i, ch in enumerate(channels):
        layers.append(
            LayerConfig(
                in_channels=prev,
                out_channels=ch,
                filter_mode=filter_mode,
                anchors=anchors,
                pool=pool if i in pool_layers else "none",
                nonlinearity=nonlinearity,
            )
        )
        prev = ch
    return NetworkConfig(
        input_bandwidth=input_bandwidth,
        layers=tuple(layers),
        num_classes=num_classes,
        head=head,
    )


def two_branch_config(
    input_bandwidth: int = 32,
    num_classes: int = 40,
    pool: str = "wap",
    filter_mode: str = "anchored",
    anchors: int = 8,
    head: str = "wgap",
) -> NetworkConfig:
    """Reference two-branch architecture: 8 layers, 16..128 channels per branch,
    pooling and cross-branch concatenation wherever the width doubles.

    One input channel feeds each branch (distances and normals).  The default
    anchor count reproduces the published parameter budget of roughly half a
    million trainable weights.
    """
    channels = [16, 16, 32, 32, 64, 64, 128, 128]
    cfg = stack_config(
        input_bandwidth,
        channels,
        in_channels=1,
        num_classes=num_classes,
        pool=pool,
        filter_mode=filter_mode,
        anchors=anchors,
        head=head,
    )
    concat = tuple(i for i in range(1, len(channels)) if channels[i] > channels[i - 1])
    return replace(cfg, branches=2, concat_layers=concat)


# ---------------------------------------------------------------------------
# Parameters.
# ---------------------------------------------------------------------------


@dataclass
class ParameterStore:
    """Named float64 tensors plus optimizer moments."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    adam_step: int = 0

    def zeros_like_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def count(self) -> int:
        return int(sum(v.size for v in self.tensors.values()))


def _anchors(cfg: LayerConfig, b: int) -> np.ndarray | None:
    """Anchor degrees of an anchored filter at bandwidth b; None for full filters."""
    if cfg.filter_mode == "full":
        return None
    return spectral.anchor_layout(b, min(cfg.anchors, b))


def parameter_shapes(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    out: list[tuple[str, tuple[int, ...]]] = []
    bws = [config.input_bandwidth] + config.layer_bandwidths()[:-1]
    for br in range(config.branches):
        prefix = "" if br == 0 else "branch1/"
        for i, lay in enumerate(config.layers):
            anchors = _anchors(lay, bws[i])
            nf = bws[i] if anchors is None else len(anchors)
            n_in = config.layer_in_channels(br, i)
            out.append((f"{prefix}conv{i + 1}/filters", (lay.out_channels, n_in, nf)))
            out.append((f"{prefix}conv{i + 1}/bias", (lay.out_channels,)))
    out.append(("head/weight", (config.num_classes, config.feature_dim())))
    out.append(("head/bias", (config.num_classes,)))
    return out


def count_parameters(config: NetworkConfig) -> int:
    return int(sum(int(np.prod(s)) for _, s in parameter_shapes(config)))


def init_parameters(config: NetworkConfig, seed: int = 0) -> ParameterStore:
    """Random filters scaled so layer outputs keep the input's magnitude."""
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    gain = 1.0 / (2.0 * np.pi * np.sqrt(4.0 * np.pi))
    for name, shape in parameter_shapes(config):
        if name.endswith("/bias"):
            store.tensors[name] = np.zeros(shape)
        elif name == "head/weight":
            store.tensors[name] = rng.standard_normal(shape) / np.sqrt(shape[1])
        else:
            store.tensors[name] = gain / np.sqrt(shape[1]) * rng.standard_normal(shape)
    return store


# ---------------------------------------------------------------------------
# Forward / backward.
# ---------------------------------------------------------------------------


def _forward_batch(
    config: NetworkConfig,
    params: ParameterStore,
    x: np.ndarray,
    want_cache: bool = False,
):
    """Run the network on (B, C, n, n) values; returns logits, taps, cache."""
    bws = [config.input_bandwidth] + config.layer_bandwidths()[:-1]
    outs = np.split(x, config.branches, axis=1)
    taps: dict[str, np.ndarray] = {}
    cache: dict = {"layers": []}
    for i, lay in enumerate(config.layers):
        b = bws[i]
        table = shared_table(b)
        anchors = _anchors(lay, b)
        new_outs: dict[int, np.ndarray] = {}
        # Branch 1 is cached first so that the reversed backward pass visits
        # branch 0 of a layer (which stashes the concat cotangent) before
        # branch 1 of the same layer consumes it.
        for br in reversed(range(config.branches)):
            xin = outs[br]
            if config.branches == 2 and br == 0 and i in config.concat_layers:
                xin = np.concatenate([xin, outs[1]], axis=1)
            prefix = "" if br == 0 else "branch1/"
            filt = params.tensors[f"{prefix}conv{i + 1}/filters"]
            bias = params.tensors[f"{prefix}conv{i + 1}/bias"]
            spectra = spectral.realize_fwd(filt, b, anchors)  # (out, in, b)
            coeffs = _analysis_sepvar_real(xin, table)  # (B, in, b*b)
            yhat = spectral.conv_fwd(coeffs, spectra)
            if lay.pool == "sp":
                y = _synthesis_real(spectral.sp_fwd(yhat, b // 2), shared_table(b // 2))
            else:
                y = _synthesis_real(yhat, table)
            y = y + bias[:, None, None]
            argmax = None
            if lay.pool == "wap":
                y = spectral.wap_fwd(y, table.grid)
            elif lay.pool == "max":
                y, argmax = spectral.max_fwd(y)
            mask = None
            if lay.nonlinearity == "relu":
                y, mask = spectral.relu_fwd(y)
            new_outs[br] = y
            if want_cache:
                cache["layers"].append(
                    dict(
                        layer=i,
                        branch=br,
                        b=b,
                        anchors=anchors,
                        coeffs=coeffs,
                        spectra=spectra,
                        argmax=argmax,
                        mask=mask,
                    )
                )
            taps[f"{prefix}conv{i + 1}"] = y
        outs = [new_outs[br] for br in range(config.branches)]
    feat = np.concatenate(outs, axis=1)
    b_last = config.layer_bandwidths()[-1]
    table = shared_table(b_last)
    if config.head == "wgap":
        desc = spectral.wgap_fwd(feat, table.grid)
        head_cache = None
    else:
        coeffs = _analysis_sepvar_real(feat, table)
        norms = spectral.magl_fwd(coeffs)
        desc = norms.reshape(feat.shape[0], -1)
        head_cache = (coeffs, norms)
    w = params.tensors["head/weight"]
    logits = desc @ w.T + params.tensors["head/bias"]
    cache.update(desc=desc, head=head_cache, b_last=b_last)
    return logits, taps, cache


def forward(
    config: NetworkConfig, params: ParameterStore, signal: SphericalSignal
) -> tuple[np.ndarray, dict[str, SphericalSignal]]:
    """Deterministic inference for one signal; returns logits and per-layer taps."""
    if signal.bandwidth != config.input_bandwidth:
        raise ValueError(
            f"signal bandwidth {signal.bandwidth} != config {config.input_bandwidth}"
        )
    expected = 2 if config.branches == 2 else config.layers[0].in_channels
    if signal.channels != expected:
        raise ValueError(f"signal has {signal.channels} channels, expected {expected}")
    logits, taps, _ = _forward_batch(
        config, params, np.asarray(signal.values, dtype=np.float64)[None]
    )
    named = {k: SphericalSignal(make_grid(v.shape[-1] // 2), v[0]) for k, v in taps.items()}
    return logits[0], named


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Summed cross entropy over the batch and its gradient in the logits.

    Divergent logits flow through as non-finite loss values; callers check
    finiteness, so the arithmetic here deliberately does not warn.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        n = len(labels)
        loss = -float(logp[np.arange(n), labels].sum())
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
    return loss, grad


def descriptors(
    config: NetworkConfig, params: ParameterStore, signals: np.ndarray
) -> np.ndarray:
    """Invariant descriptor vectors (the head input) for a batch of signals."""
    _, _, cache = _forward_batch(config, params, np.asarray(signals, dtype=np.float64))
    return cache["desc"]


def backward(
    config: NetworkConfig,
    params: ParameterStore,
    signals: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-summed loss and parameter gradients for (B, C, n, n) inputs.

    Gradients add over the batch, so a duplicated sample contributes exactly
    twice.  Raises DivergenceError on a non-finite loss.
    """
    x = np.asarray(signals, dtype=np.float64)
    logits, _, cache = _forward_batch(config, params, x, want_cache=True)
    loss, dlogits = softmax_cross_entropy(logits, np.asarray(labels))
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    grads = params.zeros_like_grads()

    desc = cache["desc"]
    grads["head/weight"] = dlogits.T @ desc
    grads["head/bias"] = dlogits.sum(axis=0)
    ddesc = dlogits @ params.tensors["head/weight"]

    table = shared_table(cache["b_last"])
    if config.head == "wgap":
        dfeat = spectral.wgap_vjp(ddesc, table.grid)
    else:
        coeffs, norms = cache["head"]
        vc = spectral.magl_vjp(ddesc.reshape(norms.shape), coeffs, norms)
        dfeat = _analysis_adjoint(vc, table)

    dbranch = np.split(dfeat, config.branches, axis=1)

    # Reversed cache order visits branch 0 of a layer before branch 1, so a
    # concat contribution (a cotangent on branch 1's previous-layer output)
    # is stashed by branch 0 and added once branch 1's backward pass for the
    # same layer has produced its own previous-layer cotangent.
    pending_concat: np.ndarray | None = None
    for entry in reversed(cache["layers"]):
        i, br = entry["layer"], entry["branch"]
        lay = config.layers[i]
        b = entry["b"]
        table = shared_table(b)
        prefix = "" if br == 0 else "branch1/"
        dy = dbranch[br]
        if entry["mask"] is not None:
            dy = spectral.relu_vjp(dy, entry["mask"])
        if lay.pool == "wap":
            dy = spectral.wap_vjp(dy, table.grid)
        elif lay.pool == "max":
            dy = spectral.max_vjp(dy, entry["argmax"])
        grads[f"{prefix}conv{i + 1}/bias"] += dy.sum(axis=(0, -2, -1))
        if lay.pool == "sp":
            vhat = spectral.sp_vjp(_synthesis_adjoint(dy, shared_table(b // 2)), b)
        else:
            vhat = _synthesis_adjoint(dy, table)
        dcoeffs, dspectra = spectral.conv_vjp(vhat, entry["coeffs"], entry["spectra"])
        dfilt = spectral.realize_vjp(dspectra, b, entry["anchors"])
        grads[f"{prefix}conv{i + 1}/filters"] += dfilt
        dx = _analysis_adjoint(dcoeffs, table)
        if br == 1 and pending_concat is not None:
            dx = dx + pending_concat
            pending_concat = None
        if config.branches == 2 and br == 0 and i in config.concat_layers:
            own = lay.in_channels
            pending_concat = dx[:, own:]
            dx = dx[:, :own]
        dbranch[br] = dx
    return loss, grads


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


@dataclass
class TrainSchedule:
    """ADAM schedule: fixed epoch count with stepwise learning-rate drops.

    Defaults: 48 epochs at 1e-3, divided by 5 after epochs 32 and 40, so
    epoch 33 runs at 2e-4 and epoch 41 at 4e-5.
    """

    epochs: int = 48
    learning_rate: float = 1e-3
    drop_epochs: tuple[int, ...] = (32, 40)
    drop_factor: float = 5.0
    batch_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    augment_rotate: str | None = None  # None | "z" (exact column rolls)
    log: bool = False


def learning_rate_at(schedule: TrainSchedule, epoch: int) -> float:
    """Learning rate for a 1-based epoch index."""
    drops = sum(1 for d in schedule.drop_epochs if epoch > d)
    return schedule.learning_rate / schedule.drop_factor**drops


def adam_update(
    store: ParameterStore,
    grads: dict[str, np.ndarray],
    lr: float,
    schedule: TrainSchedule,
) -> None:
    store.adam_step += 1
    t = store.adam_step
    for name, g in grads.items():
        m = store.adam_m.setdefault(name, np.zeros_like(g))
        v = store.adam_v.setdefault(name, np.zeros_like(g))
        m += (1 - schedule.beta1) * (g - m)
        v += (1 - schedule.beta2) * (g * g - v)
        mhat = m / (1 - schedule.beta1**t)
        vhat = v / (1 - schedule.beta2**t)
        store.tensors[name] -= lr * mhat / (np.sqrt(vhat) + schedule.eps)


def train(
    config: NetworkConfig,
    signals: np.ndarray,
    labels: np.ndarray,
    schedule: TrainSchedule | None = None,
    params: ParameterStore | None = None,
) -> tuple[ParameterStore, list[float]]:
    """Train on (N, C, n, n) values; returns parameters and per-epoch mean loss."""
    schedule = TrainSchedule() if schedule is None else schedule
    rng = np.random.default_rng(schedule.seed)
    params = init_parameters(config, seed=schedule.seed) if params is None else params
    x = np.asarray(signals, dtype=np.float64)
    y = np.asarray(labels)
    n = len(x)
    history: list[float] = []
    for epoch in range(1, schedule.epochs + 1):
        lr = learning_rate_at(schedule, epoch)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            xb = x[idx]
            if schedule.augment_rotate == "z":
                rolls = rng.integers(0, xb.shape[-1], size=len(idx))
                xb = np.stack([np.roll(s, int(r), axis=-1) for s, r in zip(xb, rolls)])
            loss, grads = backward(config, params, xb, y[idx])
            adam_update(params, grads, lr, schedule)
            total += loss
        history.append(total / n)
        if schedule.log:
            print(f"epoch {epoch:3d}  lr {lr:.2e}  loss {history[-1]:.4f}")
    return params, history


def predict(
    config: NetworkConfig, params: ParameterStore, signals: np.ndarray
) -> np.ndarray:
    logits, _, _ = _forward_batch(config, params, np.asarray(signals, dtype=np.float64))
    return logits.argmax(axis=1)


# ---------------------------------------------------------------------------
# Augmentation.
# ---------------------------------------------------------------------------


def augment(
    item,
    rotate: bool = False,
    center_jitter: float = 0.0,
    rng: np.random.Generator | None = None,
    table: HarmonicTable | None = None,
):
    """Random rotation and (for meshes) projection-center jitter.

    Meshes rotate about their bounding center; a nonzero ``center_jitter``
    records an offset (a fraction of the bounding radius, uniform in the
    ball) that ``project_mesh`` applies to the projection center.  Signals
    rotate through the harmonic domain; center jitter is undefined for them.
    """
    rng = np.random.default_rng() if rng is None else rng
    if isinstance(item, TriangleMesh):
        mesh = item
        if rotate:
            center, _ = bounding_sphere(mesh)
            r = random_rotations(1, seed=int(rng.integers(2**32)))[0]
            mesh = TriangleMesh(
                (mesh.vertices - center) @ r.matrix().T + center, mesh.faces
            )
        if center_jitter:
            _, radius = bounding_sphere(mesh)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            delta = center_jitter * radius * rng.uniform() ** (1.0 / 3.0) * direction
            if mesh is item:
                mesh = TriangleMesh(mesh.vertices.copy(), mesh.faces)
            mesh.projection_offset = delta
        return mesh
    if isinstance(item, SphericalSignal):
        if center_jitter:
            raise ValueError("center_jitter applies to meshes, not sampled signals")
        if not rotate:
            return item
        table = shared_table(item.bandwidth) if table is None else table
        r = random_rotations(1, seed=int(rng.integers(2**32)))[0]
        return rotate_signal(item, r, table)
    raise TypeError(f"cannot augment {type(item).__name__}")
