"""Equivariance-error measurement: rotate the input, rotate the feature maps,
and report the average relative discrepancy per layer.

For every sample and rotation the input is rotated through the harmonic
domain (exact at the grid bandwidth), the network is run on both versions,
and each layer's feature maps of the unrotated pass are rotated at that
layer's bandwidth.  The error is the quadrature-weighted relative L2 norm

    || taps_L(rotate(x)) - rotate(taps_L(x)) || / || taps_L(x) ||,

averaged over (sample, rotation) pairs.  Layer zero reports the input
itself; because the stimulus rotation is realized spectrally, it is exact
for bandlimited inputs by construction.  Samples whose feature norm
vanishes at some layer are excluded from that layer's mean with a warning.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import shared_table
from .network import NetworkConfig, ParameterStore, _forward_batch
from .rotation import random_rotations, rotate_signal
from .sft import SphericalSignal


@dataclass
class EquivarianceReport:
    config: dict
    layer_names: list[str]
    per_layer_error: np.ndarray = field(repr=False)
    rotations_used: int = 0
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            dict(
                config=self.config,
                layers=self.layer_names,
                per_layer_error=[float(e) for e in self.per_layer_error],
                rotations_used=self.rotations_used,
                seed=self.seed,
                norm="quadrature-weighted L2",
                input_rotation="spectral (exact at grid bandwidth)",
            ),
            sort_keys=True,
        )

    def table(self) -> str:
        """Aligned text table: one row of per-layer errors."""
        header = "  ".join(f"{n:>8s}" for n in self.layer_names)
        row = "  ".join(f"{e:8.4f}" for e in self.per_layer_error)
        desc = " ".join(f"{k}={v}" for k, v in self.config.items())
        return f"{desc}\n{header}\n{row}"


def _weighted_norm(values: np.ndarray, b: int) -> float:
    grid = shared_table(b).grid
    mu = (np.sqrt(2 * np.pi) / (2 * b)) * grid.quad_weights
    return float(np.sqrt((mu[:, None] * values**2).sum()))


def measure(
    config: NetworkConfig,
    params: ParameterStore,
    signals: list[SphericalSignal],
    rotations: int = 1,
    seed: int = 0,
    descriptor: dict | None = None,
) -> EquivarianceReport:
    """Per-layer equivariance errors of ``config`` on a signal dataset."""
    if not signals:
        raise ValueError("need at least one signal")
    b_in = config.input_bandwidth
    table = shared_table(b_in)
    bws = config.layer_bandwidths()
    branch0 = [f"conv{i + 1}" for i in range(len(config.layers))]
    names = ["input"] + branch0
    sums = np.zeros(len(names))
    counts = np.zeros(len(names), dtype=int)
    rng = np.random.default_rng(seed)
    rots = random_rotations(rotations * len(signals), seed=int(rng.integers(2**32)))
    for si, sig in enumerate(signals):
        x = np.asarray(sig.values, dtype=np.float64)
        _, taps_ref, _ = _forward_batch(config, params, x[None])
        for r in rots[si * rotations : (si + 1) * rotations]:
            x_rot = rotate_signal(sig, r, table)
            _, taps_rot, _ = _forward_batch(config, params, x_rot.values[None])
            pairs = [("input", x_rot.values[None], x[None], b_in)]
            for i, name in enumerate(branch0):
                pairs.append((name, taps_rot[name], taps_ref[name], bws[i]))
            for li, (name, a_vals, ref_vals, b_layer) in enumerate(pairs):
                ref_norm = _weighted_norm(ref_vals[0], b_layer)
                if ref_norm == 0.0:
                    warnings.warn(
                        f"zero-norm feature map at {name}; sample excluded", stacklevel=2
                    )
                    continue
                ref_sig = SphericalSignal(shared_table(b_layer).grid, ref_vals[0])
                rotated_ref = rotate_signal(ref_sig, r, shared_table(b_layer))
                err = _weighted_norm(a_vals[0] - rotated_ref.values, b_layer) / ref_norm
                sums[li] += err
                counts[li] += 1
    errors = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    desc = dict(descriptor or {})
    desc.setdefault("resolution", f"{2 * b_in}x{2 * b_in}")
    desc.setdefault("pools", [lay.pool for lay in config.layers])
    desc.setdefault("linear", all(lay.nonlinearity == "none" for lay in config.layers))
    return EquivarianceReport(
        config=desc,
        layer_names=names,
        per_layer_error=errors,
        rotations_used=rotations * len(signals),
        seed=seed,
    )
