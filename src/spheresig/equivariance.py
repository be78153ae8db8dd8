"""Equivariance-error measurement: rotate the input, rotate the feature maps,
and report the average relative discrepancy per layer.

For every sample and rotation the input is rotated through the harmonic
domain (exact at the grid bandwidth), the network is run on the rotated
input, and each layer's feature maps of the unrotated pass are rotated at
that layer's bandwidth.  The error is the quadrature-weighted relative L2
norm

    || taps_L(rotate(x)) - rotate(taps_L(x)) || / || taps_L(x) ||,

averaged over (sample, rotation) pairs.  Each forward pass gives one list of
rows, [input, tap_1 ... tap_L] of branch 0, and one loop scores them.  Row 0
is the input; its rotation is spectral, so exact for bandlimited inputs.  A
row whose reference norm is zero for a sample is excluded, with a warning.

Work is shared where the result allows it.  Once per sample: the reference
pass, the half-spectrum analysis of each of its rows, and their norms.  Once
per rotation: ``rotation._rotate_half`` on each half spectrum, one synthesis
of the rotated input (which also feeds the rotated pass) and of each other
scored row, and one forward.  No spectrum passes through the packed layout,
and arrays are never stacked, so every rotated row is the same bits as
``rotate_signal`` gives it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import shared_table
from .network import NetworkConfig, ParameterStore, _forward_batch
from .rotation import _rotate_half, random_rotations
from .sft import SphericalSignal, _analysis_half, _prefactor, _synthesis_half


@dataclass
class EquivarianceReport:
    config: dict
    layer_names: list[str]
    per_layer_error: np.ndarray = field(repr=False)
    rotations_used: int = 0
    seed: int = 0

    def to_json(self) -> str:
        """The report as JSON; a layer that no sample scored (NaN) is ``null``."""
        return json.dumps(
            dict(
                config=self.config,
                layers=self.layer_names,
                per_layer_error=[None if np.isnan(e) else float(e) for e in self.per_layer_error],
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
    mu = _prefactor(b) * grid.quad_weights
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

    Every forward pass gives one list of row maps: the input, then each
    branch-0 tap.  Once per sample: the reference pass's rows, their
    weighted norms (a zero norm excludes that row for the sample, with a
    warning) and their half spectra.  Once per rotation: each half spectrum
    is rotated on its own by ``_rotate_half``; the rotated input is
    synthesized in float64 (``y64``), which is row 0's reference and, cast
    to the signal's dtype, the input of the rotated pass; then one loop
    scores each row of non-zero reference norm as ``||rotated pass row -
    synthesized rotated reference row|| / ||reference row||``.
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

    def rows(x: np.ndarray) -> list[np.ndarray]:
        _, taps, _ = _forward_batch(config, params, x[None])
        return [x] + [taps[name][0] for name in names[1:]]

    for si, sig in enumerate(signals):
        refs = rows(np.asarray(sig.values, dtype=np.float64))
        norms = [_weighted_norm(ref, b) for ref, b in zip(refs, bws)]
        for name, norm in zip(names, norms):
            if norm == 0.0:
                warnings.warn(f"zero-norm feature map at {name}; sample excluded", stacklevel=2)
        specs = [_analysis_half(ref, shared_table(b)) for ref, b in zip(refs, bws)]
        for r in rots[si * rotations : (si + 1) * rotations]:
            rotated = [_rotate_half(spec, r) for spec in specs]
            y64 = _synthesis_half(rotated[0], shared_table(b_in))
            got = rows(y64.astype(sig.values.dtype, copy=False))
            for li, norm in enumerate(norms):
                if norm != 0.0:
                    y = _synthesis_half(rotated[li], shared_table(bws[li])) if li else y64
                    sums[li] += _weighted_norm(got[li] - y, bws[li]) / norm
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
