"""Layer vocabulary: harmonic-domain convolution, filters, pooling, descriptors.

Convolution with a zonal (latitude-constant) filter is a per-degree scaling
of the signal's coefficients:

    y_m^l = 2 pi sqrt(4 pi / (2l+1)) * f_m^l * h_0^l,

where h_0^l is the filter's order-zero spectrum.  Filters are parameterized
either by the full length-b spectrum or by a few anchor degrees with linear
interpolation in between, which enforces spectral smoothness and hence
spatial locality.

Each layer operation exists once, as an array-level forward ``*_fwd`` and
its vector-Jacobian product ``*_vjp``; a forward whose adjoint needs a
residual (max pooling's winning index, ReLU's mask) returns it beside its
output.  The network composes these pairs, and the ``SphericalSignal`` /
``SpectralCoeffs`` functions are typed front ends over the same forwards.
Arrays follow the sft layout: values (..., 2b, 2b), coefficients (..., b*b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SphericalGrid, make_grid
from .harmonics import HarmonicTable, shared_table
from .sft import SpectralCoeffs, SphericalSignal, isft, packed_orders


@dataclass(frozen=True)
class ZonalFilterSpec:
    """Zonal filter as an order-zero spectrum, full or anchor-interpolated."""

    mode: str  # "full" | "anchored"
    bandwidth: int
    full_coeffs: np.ndarray | None = None
    anchor_degrees: np.ndarray | None = None
    anchor_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        b = self.bandwidth
        if self.mode == "full":
            fc = np.asarray(self.full_coeffs, dtype=np.float64)
            if fc.shape != (b,):
                raise ValueError(f"full spectrum must have length {b}, got {fc.shape}")
            if not np.isfinite(fc).all():
                raise ValueError("full spectrum holds non-finite values")
            object.__setattr__(self, "full_coeffs", fc)
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
            object.__setattr__(self, "anchor_degrees", deg)
            object.__setattr__(self, "anchor_values", val)
        else:
            raise ValueError(f"unknown filter mode {self.mode!r}")


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
    ls = np.arange(b)
    j = np.minimum(np.searchsorted(anchors, ls, side="right") - 1, len(anchors) - 2)
    span = anchors[j + 1] - anchors[j]
    w = np.zeros((b, len(anchors)))
    w[ls, j] = (anchors[j + 1] - ls) / span
    w[ls, j + 1] = (ls - anchors[j]) / span
    return w


def realize_fwd(values: np.ndarray, b: int, anchors: np.ndarray | None) -> np.ndarray:
    """Spectra (..., b) from anchor values (..., len(anchors)); full spectra
    (``anchors`` None) pass through."""
    return values if anchors is None else values @ interp_matrix(b, anchors).T


def realize_vjp(dspectra: np.ndarray, b: int, anchors: np.ndarray | None) -> np.ndarray:
    return dspectra if anchors is None else dspectra @ interp_matrix(b, anchors)


def realize_filter(spec: ZonalFilterSpec) -> np.ndarray:
    """Length-b order-zero spectrum of the filter."""
    if spec.mode == "full":
        return np.array(spec.full_coeffs, dtype=np.float64)
    return realize_fwd(spec.anchor_values, spec.bandwidth, spec.anchor_degrees)


def _as_real(coeffs: np.ndarray) -> np.ndarray:
    """Float view (..., 2*b*b) of packed coefficients; degree l spans [2l^2, 2(l+1)^2)."""
    return np.ascontiguousarray(coeffs, dtype=np.complex128).view(np.float64)


def conv_fwd(coeffs: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Convolve (..., in, b*b) coefficients with zonal filters of spectra
    (out, in, b) and sum over inputs: one (out, in) product per degree."""
    b = spectra.shape[-1]
    s = conv_scale(b) * spectra
    c = _as_real(coeffs)
    out = np.empty(c.shape[:-2] + (s.shape[0], c.shape[-1]))
    for l in range(b):
        seg = slice(2 * l * l, 2 * (l + 1) * (l + 1))
        out[..., seg] = s[:, :, l] @ c[..., seg]
    return out.view(np.complex128)


def conv_vjp(
    v: np.ndarray, coeffs: np.ndarray, spectra: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cotangents in the coefficients (the transposed mix) and the spectra
    (Re(conj(v) f) summed over batch and orders) for output cotangent ``v``."""
    b = spectra.shape[-1]
    vr = _as_real(v).reshape(-1, v.shape[-2], 2 * b * b)
    c = _as_real(coeffs).reshape(-1, coeffs.shape[-2], 2 * b * b)
    dspectra = np.empty(spectra.shape)
    for l in range(b):
        seg = slice(2 * l * l, 2 * (l + 1) * (l + 1))
        dspectra[:, :, l] = np.tensordot(vr[..., seg], c[..., seg], axes=([0, 2], [0, 2]))
    return conv_fwd(v, spectra.transpose(1, 0, 2)), conv_scale(b) * dspectra


def conv_spectral(f: SpectralCoeffs, h: ZonalFilterSpec) -> SpectralCoeffs:
    """Convolve every channel of ``f`` with the zonal filter ``h``."""
    if h.bandwidth != f.bandwidth:
        raise ValueError(
            f"bandwidth mismatch: coeffs b={f.bandwidth}, filter b={h.bandwidth}"
        )
    out = conv_fwd(f.coeffs[:, None], realize_filter(h)[None, None])[:, 0]
    return SpectralCoeffs(f.bandwidth, out)


def filter_to_signal(spec: ZonalFilterSpec, table: HarmonicTable | None = None) -> SphericalSignal:
    """Spatial realization of a zonal filter (order-zero synthesis)."""
    b = spec.bandwidth
    table = shared_table(b) if table is None else table
    c = np.zeros((1, b * b), dtype=np.complex128)
    ls = np.arange(b)
    c[0, ls * ls + ls] = realize_filter(spec)
    return isft(SpectralCoeffs(b, c), table)


# ---------------------------------------------------------------------------
# Pooling.
# ---------------------------------------------------------------------------


def _halved(b: int) -> int:
    if b % 2 != 0:
        raise ValueError(f"pooling requires even bandwidth, got {b}")
    return b // 2


def sp_fwd(coeffs: np.ndarray, b_out: int) -> np.ndarray:
    """Spectral pooling: keep degrees below ``b_out``."""
    return coeffs[..., : b_out * b_out]


def sp_vjp(dcoeffs: np.ndarray, b: int) -> np.ndarray:
    """Zero-pad a pooled cotangent back to bandwidth ``b``."""
    out = np.zeros(dcoeffs.shape[:-1] + (b * b,), dtype=np.complex128)
    out[..., : dcoeffs.shape[-1]] = dcoeffs
    return out


def spectral_pool(f: SpectralCoeffs, presmooth: bool = False) -> SpectralCoeffs:
    """Halve the bandwidth by dropping all degrees >= b/2.

    With ``presmooth`` a raised-cosine taper is applied over the retained
    degrees first, trading ringing for attenuation (off by default).
    """
    half = _halved(f.bandwidth)
    out = np.array(sp_fwd(f.coeffs, half))
    if presmooth:
        ls = packed_orders(half)[0]
        out *= np.cos(0.5 * np.pi * ls / half) ** 2
    return SpectralCoeffs(half, out)


def _blocks(values: np.ndarray) -> np.ndarray:
    """(..., 2h, 2h) viewed as 2x2 blocks (..., h, h, 2, 2); writable if contiguous."""
    h = values.shape[-1] // 2
    return np.moveaxis(values.reshape(values.shape[:-2] + (h, 2, h, 2)), -3, -2)


def _wap_rows(grid: SphericalGrid) -> np.ndarray:
    """Each row's sin(theta) over its 2x2 block's total (two columns)."""
    rw = grid.area_weights.reshape(-1, 2)
    return (rw / (2.0 * rw.sum(axis=1, keepdims=True))).reshape(-1)


def wap_fwd(values: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    """Area-weighted 2x2 average; the zero-weight pole row contributes nothing."""
    return _blocks(values * _wap_rows(grid)[:, None]).sum(axis=(-2, -1))


def wap_vjp(dy: np.ndarray, grid: SphericalGrid) -> np.ndarray:
    dx = np.empty(dy.shape[:-2] + (grid.n, grid.n))
    _blocks(dx)[...] = dy[..., None, None]
    return dx * _wap_rows(grid)[:, None]


def max_fwd(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 block maximum and the winning index (row-major, first maximum wins)."""
    flat = _blocks(values).reshape(values.shape[:-2] + (values.shape[-1] // 2,) * 2 + (4,))
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def max_vjp(dy: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Route each block's cotangent to its winning cell."""
    n = 2 * dy.shape[-1]
    dx = np.empty(dy.shape[:-2] + (n, n))
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
    return ddesc[..., None, None] * np.broadcast_to(_wgap_weights(grid)[:, None], (grid.n,) * 2)


def magl_fwd(coeffs: np.ndarray) -> np.ndarray:
    """Per-degree norms of packed coefficients: (..., b*b) -> (..., b)."""
    starts = np.arange(math.isqrt(coeffs.shape[-1])) ** 2
    return np.sqrt(np.add.reduceat(coeffs.real**2 + coeffs.imag**2, starts, axis=-1))


def magl_vjp(dnorms: np.ndarray, coeffs: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cotangent in the coefficients; a zero norm passes no gradient."""
    safe = norms > 0
    scale = np.where(safe, dnorms / np.where(safe, norms, 1.0), 0.0)
    return scale[..., packed_orders(norms.shape[-1])[0]] * coeffs


def wgap(signal: SphericalSignal) -> InvariantDescriptor:
    """Weighted global average pooling; cell weight is the sine of colatitude."""
    return InvariantDescriptor(kind="wgap", values=wgap_fwd(signal.values, signal.grid))


def magl(coeffs: SpectralCoeffs) -> InvariantDescriptor:
    """Per-degree coefficient norms, invariant to rotation by unitarity."""
    return InvariantDescriptor(kind="magl", values=magl_fwd(coeffs.coeffs))


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
    if kind in ("none", "identity"):
        return signal
    raise ValueError(f"unknown nonlinearity {kind!r}")
