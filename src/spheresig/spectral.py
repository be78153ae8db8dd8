"""Layer vocabulary: harmonic-domain convolution, filters, pooling, descriptors.

Convolution with a zonal (latitude-constant) filter is a per-degree scaling
of the signal's coefficients:

    y_m^l = 2 pi sqrt(4 pi / (2l+1)) * f_m^l * h_0^l,

where h_0^l is the filter's order-zero spectrum.  Filters are parameterized
by a few anchor degrees with linear interpolation in between, which
enforces spectral smoothness and hence spatial locality; a full filter is
the case where every degree is an anchor.

Each layer operation exists once, as an array-level forward ``*_fwd`` and
its vector-Jacobian product ``*_vjp``; a forward whose adjoint needs a
residual (max pooling's winning index, ReLU's mask) returns it beside its
output.  Area-weighted pooling (``wap_fwd``) is the exception: the network
pools inside the synthesis, whose pooled adjoint is in ``sft``.  The network
composes these pairs, and the ``SphericalSignal`` functions are typed front
ends over the same forwards.  Values arrays are (..., 2b, 2b); the spectral
forwards take half spectra, m-major (b, b, channel, ...) with orders m >= 0
(see ``sft``), whose orders m > 0 count twice wherever they are contracted
(``order_weights``).  The
``SpectralCoeffs`` front ends run the same forwards on the half-spectrum
parts of their packed input (``sft._real_parts``), so they hold for any
spectrum, not only those of real signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import SphericalGrid, make_grid, require_int
from .sft import SpectralCoeffs, SphericalSignal, _from_parts, _real_parts
from .sft import order_weights


@dataclass(frozen=True)
class ZonalFilterSpec:
    """Zonal filter: order-zero spectrum values at anchor degrees (every degree if full)."""

    mode: str  # "full" | "anchored"
    bandwidth: int
    full_coeffs: np.ndarray | None = None
    anchor_degrees: np.ndarray | None = None
    anchor_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        b = require_int(self.bandwidth, "bandwidth")
        if self.mode == "full":
            fc = np.asarray(self.full_coeffs, dtype=np.float64)
            if fc.shape != (b,):
                raise ValueError(f"full spectrum must have length {b}, got {fc.shape}")
            if not np.isfinite(fc).all():
                raise ValueError("full spectrum holds non-finite values")
            object.__setattr__(self, "full_coeffs", fc)
            deg, val = np.arange(b), fc
        elif self.mode == "anchored":
            raw = np.asarray(self.anchor_degrees, dtype=np.float64)
            val = np.asarray(self.anchor_values, dtype=np.float64)
            if raw.ndim != 1 or raw.shape != val.shape:
                raise ValueError("anchor degrees and values must be 1-d and matched")
            if not np.isfinite(val).all():
                raise ValueError("anchor values hold non-finite values")
            if np.any(raw != np.round(raw)):  # NaN fails this too
                raise ValueError(f"anchor degrees must be integers, got {raw.tolist()}")
            deg = raw.astype(np.int64)
            if len(deg) < 2 or np.any(np.diff(deg) <= 0):
                raise ValueError("anchor degrees must be strictly increasing")
            if deg[0] != 0 or deg[-1] != b - 1:
                raise ValueError(f"anchors must span degrees 0 .. {b - 1}")
        else:
            raise ValueError(f"unknown filter mode {self.mode!r}")
        object.__setattr__(self, "anchor_degrees", deg)
        object.__setattr__(self, "anchor_values", val)


def anchor_layout(b: int, n: int) -> np.ndarray:
    """Default anchor placement: n uniformly spaced degrees including endpoints."""
    if n < 2 or n > b:
        raise ValueError(f"anchor count must be in [2, {b}], got {n}")
    return np.unique(np.round(np.linspace(0, b - 1, n)).astype(np.int64))


def conv_scale(b: int) -> np.ndarray:
    """Degree-wise constant 2 pi sqrt(4 pi / (2l+1)) of the convolution theorem."""
    ls = np.arange(b)
    return 2.0 * np.pi * np.sqrt(4.0 * np.pi / (2.0 * ls + 1.0))


def interp_matrix(b: int, anchors: np.ndarray) -> np.ndarray:
    """Linear-interpolation matrix W, (b, len(anchors)): spectrum = values @ W.T."""
    if len(anchors) < 2:  # a full filter at b < 2: no interval to interpolate over
        return np.ones((b, len(anchors)))
    ls = np.arange(b)
    j = np.minimum(np.searchsorted(anchors, ls, side="right") - 1, len(anchors) - 2)
    span = anchors[j + 1] - anchors[j]
    w = np.zeros((b, len(anchors)))
    w[ls, j] = (anchors[j + 1] - ls) / span
    w[ls, j + 1] = (ls - anchors[j]) / span
    return w


def realize_fwd(values: np.ndarray, b: int, anchors: np.ndarray) -> np.ndarray:
    """Spectra (..., b) from anchor values (..., len(anchors)); a full filter
    anchors every degree, so its identity interpolation is exact."""
    return values @ interp_matrix(b, anchors).T


def realize_vjp(dspectra: np.ndarray, b: int, anchors: np.ndarray) -> np.ndarray:
    return dspectra @ interp_matrix(b, anchors)


def realize_filter(spec: ZonalFilterSpec) -> np.ndarray:
    """Length-b order-zero spectrum of the filter."""
    return realize_fwd(spec.anchor_values, spec.bandwidth, spec.anchor_degrees)


def _real_rows(half: np.ndarray) -> np.ndarray:
    """Float view (b, b, C, 2X) of half spectra (b, b, C, ...)."""
    return np.ascontiguousarray(half).reshape(half.shape[:3] + (-1,)).view(np.float64)


def conv_fwd(coeffs: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Convolve half spectra (b, b, in, ...) with zonal filters of spectra
    (out, in, b) and sum over inputs: one real (out, in) @ (in, 2X) product
    per (m, l), all in one batched matmul."""
    b = spectra.shape[-1]
    s = np.ascontiguousarray((conv_scale(b) * spectra).transpose(2, 0, 1))  # (l, out, in)
    out = (s @ _real_rows(coeffs)).view(np.complex128)  # (m, l, out, X)
    return out.reshape((b, b, s.shape[1]) + coeffs.shape[3:])


def conv_vjp(
    v: np.ndarray, coeffs: np.ndarray, spectra: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents in the coefficients (the transposed mix) and the spectra
    (Re(conj(v) f) summed over the trailing axes and the orders, m > 0
    twice) for output cotangent ``v``.  The spectra's cotangent is summed
    order by order over the degrees l >= m, where half spectra hold their
    coefficients, so each step makes one (b - m, out, in) product."""
    b = spectra.shape[-1]
    rv, rc, w = _real_rows(v), _real_rows(coeffs), order_weights(b)
    dspectra = np.zeros((b,) + spectra.shape[:2])  # (l, out, in)
    for m in range(b):
        dspectra[m:] += w[m] * (rv[m, m:] @ rc[m, m:].swapaxes(-1, -2))
    dspectra *= conv_scale(b)[:, None, None]
    return conv_fwd(v, spectra.transpose(1, 0, 2)), dspectra.transpose(1, 2, 0)


def conv_spectral(f: SpectralCoeffs, h: ZonalFilterSpec) -> SpectralCoeffs:
    """Convolve every channel of ``f`` with the zonal filter ``h`` (``conv_fwd``)."""
    if h.bandwidth != f.bandwidth:
        raise ValueError(
            f"bandwidth mismatch: coeffs b={f.bandwidth}, filter b={h.bandwidth}"
        )
    parts = _real_parts(f.coeffs)[0]  # (b, b, P, C)
    out = conv_fwd(parts[:, :, None], realize_filter(h)[None, None])
    return SpectralCoeffs(f.bandwidth, _from_parts(out[:, :, 0]))


# ---------------------------------------------------------------------------
# Pooling.
# ---------------------------------------------------------------------------


def _halved(b: int) -> int:
    if b % 2 != 0:
        raise ValueError(f"pooling requires even bandwidth, got {b}")
    return b // 2


def sp_fwd(coeffs: np.ndarray, b_out: int) -> np.ndarray:
    """Spectral pooling of a half spectrum: keep degrees (and so orders)
    below ``b_out``."""
    return coeffs[:b_out, :b_out]


def sp_vjp(dcoeffs: np.ndarray, b: int) -> np.ndarray:
    """Zero-pad a pooled cotangent back to bandwidth ``b``."""
    out = np.zeros((b, b) + dcoeffs.shape[2:], dtype=np.complex128)
    h = dcoeffs.shape[0]
    out[:h, :h] = dcoeffs
    return out


def spectral_pool(f: SpectralCoeffs) -> SpectralCoeffs:
    """Halve the bandwidth by dropping all degrees >= b/2 (``sp_fwd``)."""
    half = _halved(f.bandwidth)
    return SpectralCoeffs(half, _from_parts(sp_fwd(_real_parts(f.coeffs)[0], half)))


def _blocks(values: np.ndarray) -> np.ndarray:
    """(..., 2h, 2h) viewed as 2x2 blocks (..., h, h, 2, 2); writable if contiguous."""
    h = values.shape[-1] // 2
    return np.moveaxis(values.reshape(values.shape[:-2] + (h, 2, h, 2)), -3, -2)


def wap_fwd(values: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Area-weighted 2x2 average; the zero-weight pole row contributes nothing.
    The network runs it as ``sft._synthesis_half``'s pooled form."""
    w = grid.wap_rows[:, None]
    rows = values[..., 0::2, :] * w[0::2] + values[..., 1::2, :] * w[1::2]
    return rows[..., 0::2] + rows[..., 1::2]


def max_fwd(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 block maximum and the winning index (row-major, first maximum wins)."""
    flat = _blocks(values).reshape(values.shape[:-2] + (values.shape[-1] // 2,) * 2 + (4,))
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def max_vjp(dy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Route each block's cotangent to its winning cell."""
    n = 2 * dy.shape[-1]
    dx = np.empty_like(dy, shape=dy.shape[:-2] + (n, n))
    onehot = np.arange(4) == idx[..., None]
    _blocks(dx)[...] = (onehot * dy[..., None]).reshape(dy.shape + (2, 2))
    return dx


def weighted_avg_pool(signal: SphericalSignal) -> SphericalSignal:
    """2x2 downsampling averaging with cell-area (sin theta) weights."""
    grid = make_grid(_halved(signal.bandwidth))
    return SphericalSignal(grid, wap_fwd(signal.values, signal.grid))


def max_pool(signal: SphericalSignal) -> SphericalSignal:
    """Plain 2x2 block maximum; kept for ablation parity with area-weighted pooling."""
    return SphericalSignal(make_grid(_halved(signal.bandwidth)), max_fwd(signal.values)[0])


# ---------------------------------------------------------------------------
# Invariant descriptors and nonlinearity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantDescriptor:
    """Rotation-invariant summary: one value per channel (WGAP) or per
    (channel, degree) pair (MAG-L)."""

    kind: str  # "wgap" | "magl"
    values: np.ndarray = field(repr=False)


def _wgap_weights(grid: SphericalGrid) -> np.ndarray:
    aw = grid.area_weights
    return aw / (aw.sum() * grid.n)


def wgap_fwd(values: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """sin(theta)-weighted mean over the grid: (..., 2b, 2b) -> (...)."""
    return (values * _wgap_weights(grid)[:, None]).sum(axis=(-2, -1))


def wgap_vjp(ddesc: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Cotangent maps, longitude-major like the synthesis output."""
    w = np.broadcast_to(_wgap_weights(grid), (grid.n,) * 2)  # [k, j] = weight of row j
    return np.moveaxis(np.multiply.outer(w, ddesc), (0, 1), (-1, -2))


def magl_fwd(coeffs: np.ndarray) -> np.ndarray:
    """Per-degree norms of half spectra, orders m > 0 twice: (b, b, ...) -> (..., b)."""
    power = coeffs.real**2 + coeffs.imag**2
    return np.sqrt(np.moveaxis(np.tensordot(order_weights(len(coeffs)), power, axes=(0, 0)), 0, -1))


def magl_vjp(dnorms: np.ndarray, coeffs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cotangent in the half spectra; a zero norm passes no gradient."""
    safe = norms > 0
    scale = np.where(safe, dnorms / np.where(safe, norms, 1.0), 0.0)
    return np.moveaxis(scale, -1, 0) * coeffs


def wgap(signal: SphericalSignal) -> InvariantDescriptor:
    """Weighted global average pooling; cell weight is the sine of colatitude."""
    return InvariantDescriptor(kind="wgap", values=wgap_fwd(signal.values, signal.grid))


def magl(coeffs: SpectralCoeffs) -> InvariantDescriptor:
    """Per-degree coefficient norms over all orders, invariant to rotation by
    unitarity: ``magl_fwd`` of the parts.  Two parts combine by ``np.hypot``,
    since the cross terms of two conjugate-symmetric parts cancel."""
    norms = magl_fwd(_real_parts(coeffs.coeffs)[0])  # (P, C, b)
    values = norms[0] if len(norms) == 1 else np.hypot(*norms)
    return InvariantDescriptor(kind="magl", values=values)


def relu_fwd(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU and its mask of positive inputs."""
    mask = values > 0
    return np.where(mask, values, 0.0), mask


def relu_vjp(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, dy, 0.0)


def pointwise_nonlinearity(signal: SphericalSignal, kind: str = "relu") -> SphericalSignal:
    """Elementwise nonlinearity in the spatial domain."""
    if kind == "relu":
        return SphericalSignal(signal.grid, relu_fwd(signal.values)[0])
    if kind == "none":
        return signal
    raise ValueError(f"unknown nonlinearity {kind!r}")
