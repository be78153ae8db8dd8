"""Equivariance-error measurement: rotate the input, rotate the feature maps,
and report the average relative discrepancy per layer.

For every sample and rotation the input is rotated through the harmonic
domain (exact at the grid bandwidth), the network is run on the rotated
input, and each layer's feature maps of the unrotated pass are rotated at
that layer's bandwidth.  The error is the quadrature-weighted relative L2
norm

    || taps_L(rotate(x)) - rotate(taps_L(x)) || / || taps_L(x) ||,

averaged over (sample, rotation) pairs.  Layer zero reports the input
itself; because the stimulus rotation is realized spectrally, it is exact
for bandlimited inputs by construction.  Samples whose feature norm
vanishes at some layer are excluded from that layer's mean with a warning.

Work is shared where the result allows it.  Once per sample: the reference
forward, the half-spectrum analysis of the input and of every tap, and their
norms.  Once per rotation: ``rotation._rotate_half`` on each of those half
spectra in turn, one synthesis of the rotated input and one per rotated tap,
and one forward on the rotated input.  No spectrum passes through the packed
layout, and arrays are never stacked, so every rotated tap is the same bits
as ``rotate_signal`` gives it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import shared_table
from .network import NetworkConfig, ParameterStore, _forward_batch
from .rotation import _rotate_half, random_rotations
from .sft import SphericalSignal, _analysis_half, _synthesis_half


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
    """Per-layer equivariance errors of ``config`` on a signal dataset.

    Once per sample: one reference forward, then the half spectra of the
    input and of each branch-0 tap (at that tap's bandwidth) and their
    weighted norms.  A layer whose reference norm is zero is excluded for
    that sample with a warning.  Once per rotation: each of those half
    spectra is rotated on its own by ``_rotate_half``; the rotated input is
    synthesized once in float64 (``y64``) by ``_synthesis_half`` and cast to
    the signal's dtype to give the network input ``x_rot``; one forward runs
    on ``x_rot``; each rotated reference tap is synthesized and compared with
    the matching tap of that forward.  The input layer scores
    ``||x_rot - y64|| / ||x||``.
    """
    if not signals:
        raise ValueError("need at least one signal")
    b_in = config.input_bandwidth
    bws = [b_in] + config.layer_bandwidths()
    names = ["input"] + [blk.name for blk in config.blocks() if blk.branch == 0]
    sums = np.zeros(len(names))
    counts = np.zeros(len(names), dtype=int)
    rng = np.random.default_rng(seed)
    rots = random_rotations(rotations * len(signals), seed=int(rng.integers(2**32)))
    for si, sig in enumerate(signals):
        x = np.asarray(sig.values, dtype=np.float64)
        _, taps_ref, _ = _forward_batch(config, params, x[None])
        refs = [x] + [taps_ref[name][0] for name in names[1:]]
        # live: (layer, reference norm) of every layer this sample scores;
        # specs: the input's half spectrum (it also makes x_rot), then the live taps'.
        live, specs = [], []
        for li, (ref, b_layer) in enumerate(zip(refs, bws)):
            ref_norm = _weighted_norm(ref, b_layer)
            if ref_norm == 0.0:
                warnings.warn(
                    f"zero-norm feature map at {names[li]}; sample excluded", stacklevel=2
                )
            else:
                live.append((li, ref_norm))
            if ref_norm != 0.0 or li == 0:
                specs.append(_analysis_half(ref, shared_table(b_layer)))
        for r in rots[si * rotations : (si + 1) * rotations]:
            rotated = [_rotate_half(spec, r) for spec in specs]
            y64 = _synthesis_half(rotated[0], shared_table(b_in))
            x_rot = y64.astype(sig.values.dtype, copy=False)
            _, taps_rot, _ = _forward_batch(config, params, x_rot[None])
            rotated_taps = iter(rotated[1:])
            for li, ref_norm in live:
                if li == 0:
                    diff = x_rot - y64
                else:
                    y = _synthesis_half(next(rotated_taps), shared_table(bws[li]))
                    diff = taps_rot[names[li]][0] - y
                sums[li] += _weighted_norm(diff, bws[li]) / ref_norm
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
