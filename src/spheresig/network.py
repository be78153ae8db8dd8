"""Trainable classifier built from spherical-convolution blocks.

A block is one harmonic-domain convolutional layer (a zonal filter per
output/input channel pair plus a per-output bias), optional pooling, and an
optional pointwise nonlinearity.  The running representation stays in the
spatial domain between blocks, so each block costs one analysis/synthesis
pair.  The head is a rotation-invariant descriptor (area-weighted global
average or per-degree coefficient norms) followed by a linear projection.

The network owns no layer arithmetic, and reverse mode runs on a tape.
``_block`` runs one branch of one layer through the ``sft`` transforms and
the ``spectral`` forward of each operation (filter realization, per-degree
channel mixing, pooling, ReLU) and returns, beside its output, a closure
that applies the matching ``spectral`` vector-Jacobian products and ``sft``
transform adjoints in reverse; ``_head`` does the same for the descriptor.
A ``wap`` layer pools inside its synthesis: ``_synthesis_half`` with
``pool=True`` synthesizes straight onto the pooled grid, and its adjoint is
``_synthesis_adjoint`` with ``pool=True``, so no full-resolution map of a
pooled layer is made in either direction.  ``spectral.wap_fwd`` is the
grid-domain form of that pooling and is not called here.
``_forward_batch`` walks ``NetworkConfig.blocks`` and records these
closures in that order; ``backward`` replays them backwards, routing only
the cotangents of the concatenated cross-branch inputs.  Gradients are
checked against central finite differences in tests.

The tape holds what the adjoints read and nothing else: per block the input
coefficients, the filter spectra and the pooling and ReLU masks; for the
head its descriptors (and, for MAG-L, the coefficients and norms).  A feature
map lives until the next block of its branch has analysed it, unless the
caller asks for taps; ``backward``, ``predict`` and ``descriptors`` do not.
``backward`` pops each tape entry before replaying it, so an entry is freed
once replayed, and a cotangent once its block has read it.

Feature maps on this path have the logical shape (channel, batch, 2b, 2b)
and are stored longitude-major, as ``sft._synthesis_half`` returns them:
(k, j, channel, batch) is C-contiguous, so the next analysis reads them in
place.  Pooling, ReLU, concatenation and their adjoints keep that order.
Spectra are half spectra (m, l, channel, batch), so channel mixing is one
batched matmul and ``sp`` pooling a slice.  No packed spectrum and no
conjugate mirror appears; the orders m > 0 count twice in the filter
gradient and the MAG-L norms.  A layer's bias is folded into the Y_0^0
coefficient before synthesis (a constant c is sqrt(4 pi) c Y_0^0), and its
gradient is read back from that coefficient of the synthesis adjoint; a
per-pixel add over longitude-major maps would run inner loops only a batch
long.  Inputs arrive and taps leave as (batch, channel, 2b, 2b) views.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .errors import DivergenceError
from .grid import check_bandwidth, make_grid, require_int
from .harmonics import shared_table
from .mesh import TriangleMesh, bounding_sphere
from .rotation import random_rotations, rotate_signal
from .sft import (
    SphericalSignal,
    _analysis_adjoint,
    _analysis_half,
    _synthesis_adjoint,
    _synthesis_half,
)


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerConfig:
    out_channels: int
    filter_mode: str = "anchored"  # "anchored" | "full"
    anchors: int = 4
    pool: str = "none"  # "none" | "sp" | "wap" | "max"
    nonlinearity: str = "relu"  # "relu" | "none"

    def __post_init__(self) -> None:
        for name in ("out_channels", "anchors"):
            require_int(getattr(self, name), name)
        if self.out_channels < 1:
            raise ValueError(
                f"channel counts must be at least 1, got out_channels {self.out_channels}"
            )
        if self.filter_mode not in ("anchored", "full"):
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")
        if self.filter_mode == "anchored" and self.anchors < 2:  # full filters ignore it
            raise ValueError(f"an anchored filter needs anchors >= 2, got {self.anchors}")
        if self.pool not in ("none", "sp", "wap", "max"):
            raise ValueError(f"unknown pool {self.pool!r}")
        if self.nonlinearity not in ("relu", "none"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")


# One branch of one layer: name (tap name and parameter prefix, "conv3" or
# "branch1/conv3"), layer index, branch, input bandwidth and input channels.
Block = namedtuple("Block", "name layer branch bandwidth in_channels")


@dataclass(frozen=True)
class NetworkConfig:
    input_bandwidth: int
    layers: tuple[LayerConfig, ...]
    num_classes: int
    head: str = "wgap"  # "wgap" | "magl"
    branches: int = 1
    concat_layers: tuple[int, ...] = ()  # branch-0 layers receiving branch-1 features
    in_channels: int = 1  # channels each branch's first layer reads

    def __post_init__(self) -> None:
        check_bandwidth(self.input_bandwidth, "input_bandwidth")
        for name in ("num_classes", "branches", "in_channels"):
            require_int(getattr(self, name), name)
        concat = [require_int(i, "each concat_layers entry") for i in self.concat_layers]
        object.__setattr__(self, "concat_layers", tuple(concat))
        if self.head not in ("wgap", "magl"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.branches not in (1, 2):
            raise ValueError("branches must be 1 or 2")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be at least 1, got {self.num_classes}")
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        if self.in_channels < 1:
            raise ValueError(
                f"channel counts must be at least 1, got in_channels {self.in_channels}"
            )
        if self.branches == 2 and self.in_channels != 1:
            raise ValueError(f"two branches need in_channels 1, got {self.in_channels}")
        if self.concat_layers and self.branches != 2:
            raise ValueError(f"concat_layers need branches 2, got branches {self.branches}")
        if any(i < 1 or i >= len(layers) for i in self.concat_layers):
            raise ValueError("concat_layers must reference layers after the first")
        for i, (lay, b) in enumerate(zip(layers, [self.input_bandwidth] + self.layer_bandwidths())):
            if lay.pool != "none" and (b % 2 != 0 or b < 4):
                raise ValueError(
                    f"layer {i}: pool {lay.pool!r} needs an even bandwidth >= 4, got {b}"
                )

    def layer_bandwidths(self) -> list[int]:
        """Output bandwidth of each layer."""
        b, out = self.input_bandwidth, []
        for lay in self.layers:
            if lay.pool != "none":
                b //= 2
            out.append(b)
        return out

    @property
    def input_channels(self) -> int:
        """Channels of the network input: ``in_channels`` per branch."""
        return self.branches * self.in_channels

    def blocks(self) -> list[Block]:
        """Every ``Block`` in the order the forward pass runs them: by layer,
        branch 0 first.  The only place input widths are worked out: a block
        reads ``in_channels`` at layer 0, else the previous layer's output; a
        concat layer's branch-0 block then reads branch 1's as well."""
        bws, out = [self.input_bandwidth] + self.layer_bandwidths(), []
        for i in range(len(self.layers)):
            width = self.layers[i - 1].out_channels if i else self.in_channels
            extra = width if i in self.concat_layers else 0
            out.append(Block(f"conv{i + 1}", i, 0, bws[i], width + extra))
            if self.branches == 2:
                out.append(Block(f"branch1/conv{i + 1}", i, 1, bws[i], width))
        return out

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
    layers = tuple(
        LayerConfig(ch, filter_mode, anchors, pool if i in pool_layers else "none", nonlinearity)
        for i, ch in enumerate(channels)
    )
    return NetworkConfig(
        input_bandwidth=input_bandwidth,
        layers=layers,
        num_classes=num_classes,
        head=head,
        in_channels=in_channels,
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

    def count(self) -> int:
        return int(sum(v.size for v in self.tensors.values()))


def _anchors(cfg: LayerConfig, b: int) -> np.ndarray:
    """Anchor degrees of a layer's filters at bandwidth b (full: every degree)."""
    return spectral.anchor_layout(b, b if cfg.filter_mode == "full" else min(cfg.anchors, b))


def parameter_shapes(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Tensor names and shapes, branch-major, as CKPT1 and ``init_parameters`` order them."""
    out: list[tuple[str, tuple[int, ...]]] = []
    for blk in sorted(config.blocks(), key=lambda blk: blk.branch):
        lay = config.layers[blk.layer]
        nf = len(_anchors(lay, blk.bandwidth))
        out.append((f"{blk.name}/filters", (lay.out_channels, blk.in_channels, nf)))
        out.append((f"{blk.name}/bias", (lay.out_channels,)))
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

_SQRT_4PI = np.sqrt(4.0 * np.pi)  # a constant c is the coefficient sqrt(4 pi) c of Y_0^0


def _block(lay: LayerConfig, b: int, x: np.ndarray, filters: np.ndarray, bias: np.ndarray):
    """One branch of one layer on (C, B, 2b, 2b) maps: its output and the
    closure ``vjp(dy) -> (dx, dfilters, dbias)``, which replays the adjoints
    of the steps taken here in reverse.

    The closure keeps the input coefficients, the filter spectra and the
    pooling and ReLU masks, never a feature map.  The block drops its own
    references to ``x`` once analysed and to each intermediate once read, so
    a caller that hands over its only reference to ``x`` (or to ``dy``) has
    it freed before the next large array is made."""
    table = shared_table(b)
    anchors = _anchors(lay, b)
    spectra = spectral.realize_fwd(filters, b, anchors)  # (out, in, b)
    coeffs = _analysis_half(x, table)  # (b, b, in, B)
    del x
    out_table = shared_table(b // 2) if lay.pool == "sp" else table
    pool = lay.pool == "wap"  # synthesized straight onto the pooled grid
    yhat = spectral.sp_fwd(spectral.conv_fwd(coeffs, spectra), out_table.bandwidth)
    yhat[0, 0] += _SQRT_4PI * bias[:, None]  # the bias is its Y_0^0 coefficient
    y = _synthesis_half(yhat, out_table, pool=pool)
    del yhat
    steps = []  # adjoints of the pointwise steps after the bias, in forward order
    if lay.pool == "max":
        y, argmax = spectral.max_fwd(y)
        steps.append(lambda d: spectral.max_vjp(d, argmax))
    if lay.nonlinearity == "relu":
        y, mask = spectral.relu_fwd(y)
        steps.append(lambda d: spectral.relu_vjp(d, mask))

    def vjp(dy):
        for step in reversed(steps):
            dy = step(dy)
        vhat = _synthesis_adjoint(dy, out_table, pool=pool)
        del dy
        dbias = _SQRT_4PI * vhat[0, 0].real.sum(axis=-1)
        if out_table is not table:
            vhat = spectral.sp_vjp(vhat, b)
        dcoeffs, dspectra = spectral.conv_vjp(vhat, coeffs, spectra)
        del vhat
        dfilters = spectral.realize_vjp(dspectra, b, anchors)
        return _analysis_adjoint(dcoeffs, table), dfilters, dbias

    return y, vjp


def _head(kind: str, feat: np.ndarray, b: int):
    """Invariant descriptors (B, D) of (C, B, 2b, 2b) features and the
    closure ``vjp(ddesc) -> dfeat``."""
    table = shared_table(b)
    if kind == "wgap":
        desc = spectral.wgap_fwd(feat, table.grid).T
        return desc, lambda ddesc: spectral.wgap_vjp(ddesc.T, table.grid)
    coeffs = _analysis_half(feat, table)
    norms = spectral.magl_fwd(coeffs)  # (C, B, b)

    def vjp(ddesc):
        dnorms = ddesc.reshape(norms.shape[1], norms.shape[0], -1).swapaxes(0, 1)
        return _analysis_adjoint(spectral.magl_vjp(dnorms, coeffs, norms), table)

    return norms.swapaxes(0, 1).reshape(feat.shape[1], -1), vjp


def _check_input(config: NetworkConfig, x: np.ndarray) -> None:
    """Reject values that are not (batch, in_channels, 2b, 2b) for ``config``."""
    c, n = config.input_channels, 2 * config.input_bandwidth
    if x.ndim != 4 or x.shape[1:] != (c, n, n):
        raise ValueError(f"input has shape {x.shape}; the config expects (batch, {c}, {n}, {n})")


def _forward_batch(
    config: NetworkConfig, params: ParameterStore, x: np.ndarray, *, taps: bool = True
):
    """Run the network on (B, C, n, n) values; returns the logits, the taps
    (``{}`` when ``taps`` is false) and the tape ``(desc, head_vjp, blocks)``,
    with ``blocks`` the ``(block, own-branch input width, vjp)`` of every
    block in the order they ran.

    The tape holds only what the adjoints read (see ``_block``).  Each block
    output is kept until the next block of its branch has analysed it, and
    no longer unless ``taps`` keeps it; callers that read no taps pass
    ``taps=False``, so that no feature map outlives its consumer."""
    _check_input(config, x)
    outs = dict(enumerate(np.split(x.swapaxes(0, 1), config.branches, axis=0)))
    kept: dict[str, np.ndarray] = {}
    blocks = []
    for blk in config.blocks():
        lay, width = config.layers[blk.layer], len(outs[blk.branch])
        if blk.in_channels > width:  # branch 1's maps of the layer before
            outs[blk.branch] = np.concatenate([outs[blk.branch], outs[1]], axis=0)
        filters, bias = (params.tensors[f"{blk.name}/{k}"] for k in ("filters", "bias"))
        y, vjp = _block(lay, blk.bandwidth, outs.pop(blk.branch), filters, bias)
        blocks.append((blk, width, vjp))
        outs[blk.branch] = y
        if taps:
            kept[blk.name] = y.swapaxes(0, 1)
    feat = np.concatenate([outs[i] for i in range(config.branches)], axis=0)
    desc, head_vjp = _head(config.head, feat, config.layer_bandwidths()[-1])
    logits = desc @ params.tensors["head/weight"].T + params.tensors["head/bias"]
    return logits, kept, (desc, head_vjp, blocks)


def forward(
    config: NetworkConfig, params: ParameterStore, signal: SphericalSignal
) -> tuple[np.ndarray, dict[str, SphericalSignal]]:
    """Deterministic inference for one signal; returns logits and per-layer taps."""
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
    x = np.asarray(signals, dtype=np.float64)
    _, _, (desc, _, _) = _forward_batch(config, params, x, taps=False)
    return desc


def backward(
    config: NetworkConfig,
    params: ParameterStore,
    signals: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-summed loss and parameter gradients for (B, C, n, n) inputs.

    Gradients add over the batch, so a duplicated sample contributes exactly
    twice.  Raises ValueError on a label outside [0, num_classes) and
    DivergenceError on a non-finite loss.

    The forward keeps no taps.  The reverse pass pops each tape entry before
    replaying it and hands the block its cotangent as the only reference, so
    at any time it holds the entries still ahead of it, the cotangent of
    each branch and the gradients.
    """
    x, y = np.asarray(signals, dtype=np.float64), np.asarray(labels)
    outside = y[(y < 0) | (y >= config.num_classes)]
    if outside.size:
        raise ValueError(f"label {outside[0]} out of range for {config.num_classes} classes")
    logits, _, (desc, head_vjp, blocks) = _forward_batch(config, params, x, taps=False)
    loss, dlogits = softmax_cross_entropy(logits, y)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    grads = {"head/weight": dlogits.T @ desc, "head/bias": dlogits.sum(axis=0)}
    dfeat = head_vjp(dlogits @ params.tensors["head/weight"])
    dbranch = dict(enumerate(np.split(dfeat, config.branches, axis=0)))
    while blocks:
        blk, width, vjp = blocks.pop()
        dx, grads[f"{blk.name}/filters"], grads[f"{blk.name}/bias"] = vjp(dbranch.pop(blk.branch))
        if len(dx) > width:  # hand branch 1 its share of the input
            dbranch[1] = dbranch[1] + dx[width:]
        dbranch[blk.branch] = dx[:width]
        del dx
    return loss, grads


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

DROP_EPOCHS = (32, 40)  # the learning rate drops after each of these epochs,
DROP_FACTOR = 5.0  # each time by this factor


@dataclass
class TrainSchedule:
    """ADAM schedule: fixed epoch count with stepwise learning-rate drops.

    Defaults: 48 epochs at 1e-3, divided by ``DROP_FACTOR`` after each of
    ``DROP_EPOCHS``, so epoch 33 runs at 2e-4 and epoch 41 at 4e-5.
    """

    epochs: int = 48
    learning_rate: float = 1e-3
    batch_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    augment_rotate: str | None = None  # None | "z" (exact column rolls)
    log: bool = False

    def __post_init__(self) -> None:
        if self.augment_rotate not in (None, "z"):
            raise ValueError(f"augment_rotate must be None or 'z', got {self.augment_rotate!r}")
        if require_int(self.batch_size, "batch_size") < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


def learning_rate_at(schedule: TrainSchedule, epoch: int) -> float:
    """Learning rate for a 1-based epoch index."""
    drops = sum(1 for d in DROP_EPOCHS if epoch > d)
    return schedule.learning_rate / DROP_FACTOR**drops


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
) -> tuple[ParameterStore, list[float]]:
    """Train on (N, C, n, n) values; returns parameters and per-epoch mean loss.

    The values are checked against the config before any parameter is made."""
    schedule = TrainSchedule() if schedule is None else schedule
    rng = np.random.default_rng(schedule.seed)
    x = np.asarray(signals, dtype=np.float64)
    _check_input(config, x)
    params = init_parameters(config, seed=schedule.seed)
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
            print(f"epoch {epoch:3d}  lr {lr:.2e}  loss {history[-1]:.4f}", file=sys.stderr)
    return params, history


def predict(
    config: NetworkConfig, params: ParameterStore, signals: np.ndarray
) -> np.ndarray:
    x = np.asarray(signals, dtype=np.float64)
    logits, _, _ = _forward_batch(config, params, x, taps=False)
    return logits.argmax(axis=1)


# ---------------------------------------------------------------------------
# Augmentation.
# ---------------------------------------------------------------------------


def augment(
    item,
    rotate: bool = False,
    center_jitter: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Random rotation and (for meshes) projection-center jitter.

    Meshes rotate about their bounding center, and a recorded offset turns
    with them; a nonzero ``center_jitter`` records an offset (a fraction of
    the bounding radius, uniform in the ball) that ``project_mesh`` applies to
    the projection center.  Signals rotate through the harmonic domain; center
    jitter is undefined for them.
    """
    rng = np.random.default_rng() if rng is None else rng
    if isinstance(item, TriangleMesh):
        mesh = item
        if rotate:
            center, _ = bounding_sphere(mesh)
            r = random_rotations(1, seed=int(rng.integers(2**32)))[0].matrix()
            offset = mesh.projection_offset
            mesh = TriangleMesh(
                (mesh.vertices - center) @ r.T + center,
                mesh.faces,
                projection_offset=None if offset is None else r @ offset,
            )
        if center_jitter:
            _, radius = bounding_sphere(mesh)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            delta = center_jitter * radius * rng.uniform() ** (1.0 / 3.0) * direction
            mesh = replace(mesh, projection_offset=delta)
        return mesh
    if isinstance(item, SphericalSignal):
        if center_jitter:
            raise ValueError("center_jitter applies to meshes, not sampled signals")
        if not rotate:
            return item
        r = random_rotations(1, seed=int(rng.integers(2**32)))[0]
        return rotate_signal(item, r, shared_table(item.bandwidth))
    raise TypeError(f"cannot augment {type(item).__name__}")
