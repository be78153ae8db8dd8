"""Forward and inverse spherical Fourier transforms on equiangular grids.

Analysis follows the sampled quadrature form

    c_m^l = sqrt(2 pi)/(2b) * sum_{j,k} w_j f(theta_j, phi_k)
            conj(Y_m^l)(theta_j, phi_k),

with ``w_j`` the grid's quadrature weights; synthesis is the plain harmonic
sum.  Kernels: ``_analysis_sepvar_real`` (row-wise FFT over longitude, then
a dense associated Legendre transform per order, O(b^3); wins from b = 32
up), ``_analysis_direct`` (full-grid contraction per order, O(b^4); the
reference, agreeing to ~1e-12), ``_synthesis_real`` (real arithmetic over
orders m >= 0 of conjugate-symmetric coefficients) and ``_synthesis_complex``
(any complex coefficients).  The adjoints backpropagation needs reuse them
(Driscoll & Healy 1994): the adjoint of analysis is synthesis times the
quadrature measure, that of synthesis is analysis with unit weights.

Coefficients are stored packed per channel: degree l occupies the slice
[l*l, (l+1)*(l+1)) with orders running -l .. l, so a channel holds exactly
b*b complex entries.

All accumulation is float64/complex128 regardless of the signal dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SphericalGrid
from .harmonics import HarmonicTable, shared_table


@dataclass
class SphericalSignal:
    """Real multi-channel function sampled on a grid; values (C, 2b, 2b)."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim == 2:
            v = v[None]
        n = self.grid.n
        if v.ndim != 3 or v.shape[1:] != (n, n):
            raise ValueError(f"values must have shape (C, {n}, {n}), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("signal contains non-finite values")
        self.values = v

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def bandwidth(self) -> int:
        return self.grid.bandwidth


@dataclass
class SpectralCoeffs:
    """Packed harmonic coefficients, (C, b*b) complex128.

    real_origin marks coefficients obtained from a real signal, for which
    c_{-m}^l = (-1)^m conj(c_m^l) holds entry-exactly by construction.
    """

    bandwidth: int
    coeffs: np.ndarray
    real_origin: bool = True

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim == 1:
            c = c[None]
        b = self.bandwidth
        if c.ndim != 2 or c.shape[1] != b * b:
            raise ValueError(f"coeffs must have shape (C, {b * b}), got {c.shape}")
        self.coeffs = c

    @property
    def channels(self) -> int:
        return self.coeffs.shape[0]

    def degree(self, l: int) -> np.ndarray:
        """View of the degree-l block, shape (C, 2l+1), orders -l .. l."""
        return self.coeffs[:, l * l : (l + 1) * (l + 1)]

    def at(self, channel: int, l: int, m: int) -> complex:
        return complex(self.coeffs[channel, coeff_index(l, m)])


def coeff_index(l: int, m: int) -> int:
    """Flat index of (l, m) in the packed layout."""
    if abs(m) > l:
        raise ValueError(f"|m| must not exceed l, got l={l}, m={m}")
    return l * l + l + m


# ---------------------------------------------------------------------------
# Kernels.  values arrays carry shape (..., 2b, 2b); packed coefficient
# arrays carry shape (..., b*b).  The real-input analysis fills negative
# orders through the conjugation symmetry so the identity holds
# entry-exactly; the real synthesis reads only orders m >= 0.
# ---------------------------------------------------------------------------


def _prefactor(b: int) -> float:
    return np.sqrt(2.0 * np.pi) / (2.0 * b)


def _analysis_sepvar_real(
    values: np.ndarray,
    table: HarmonicTable,
    weights: np.ndarray | None = None,
    prefactor: float | None = None,
) -> np.ndarray:
    b = table.bandwidth
    w = table.grid.quad_weights if weights is None else weights
    pref = _prefactor(b) if prefactor is None else prefactor
    g = np.fft.rfft(values, axis=-1)[..., :b]  # (..., 2b, b), bin m = sum_k f e^{-im phi_k}
    gw = g * w[:, None]
    out = np.zeros(values.shape[:-2] + (b * b,), dtype=np.complex128)
    for m in range(b):
        block = pref * (gw[..., :, m] @ table.legendre[m:, m, :].T)  # (..., b-m)
        ls = np.arange(m, b)
        out[..., ls * ls + ls + m] = block
        if m > 0:
            out[..., ls * ls + ls - m] = (-1) ** m * np.conj(block)
    return out


def _analysis_direct(values: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Full-grid contraction per order: no factorization over longitude."""
    b = table.bandwidth
    w = table.grid.quad_weights
    pref = _prefactor(b)
    wf = values * w[:, None]
    out = np.zeros(values.shape[:-2] + (b * b,), dtype=np.complex128)
    for m in range(b):
        # conj(Y_m^l) sampled over the whole grid, one (l, j, k) block.
        ybar = table.legendre[m:, m, :, None] * table.fourier_phases[m, None, None, :]
        block = pref * np.tensordot(wf, ybar, axes=([-2, -1], [1, 2]))
        ls = np.arange(m, b)
        out[..., ls * ls + ls + m] = block
        if m > 0:
            out[..., ls * ls + ls - m] = (-1) ** m * np.conj(block)
    return out


def _synthesis_real(coeffs: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Real-arithmetic synthesis using only orders m >= 0 of symmetric coeffs."""
    b = table.bandwidth
    n = 2 * b
    h = np.zeros(coeffs.shape[:-1] + (n, b + 1), dtype=np.complex128)
    for m in range(b):
        ls = np.arange(m, b)
        h[..., :, m] = coeffs[..., ls * ls + ls + m] @ table.legendre[m:, m, :]
    return np.fft.irfft(h * n, n=n, axis=-1)


def _synthesis_complex(coeffs: np.ndarray, table: HarmonicTable) -> np.ndarray:
    b = table.bandwidth
    n = 2 * b
    h = np.zeros(coeffs.shape[:-1] + (n, n), dtype=np.complex128)
    for m in range(b):
        ls = np.arange(m, b)
        h[..., :, m] = coeffs[..., ls * ls + ls + m] @ table.legendre[m:, m, :]
        if m > 0:
            h[..., :, n - m] = ((-1) ** m * coeffs[..., ls * ls + ls - m]) @ table.legendre[
                m:, m, :
            ]
    return np.fft.ifft(h * n, axis=-1)


def _synthesis_adjoint(u: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Adjoint of synthesis on real grid values: v_lm = sum_jk u_jk conj(Y_lm)(j, k),
    i.e. analysis with unit weights and unit prefactor."""
    return _analysis_sepvar_real(u, table, weights=np.ones(table.grid.n), prefactor=1.0)


def _analysis_adjoint(v: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Adjoint of analysis for conjugate-symmetric ``v``: synthesis followed by
    the quadrature measure sqrt(2 pi)/(2b) * w_j."""
    w = table.grid.quad_weights
    return _prefactor(table.bandwidth) * w[:, None] * _synthesis_real(v, table)


def _check_match(obj_b: int, table: HarmonicTable) -> None:
    if obj_b != table.bandwidth:
        raise ValueError(
            f"bandwidth mismatch: data has b={obj_b}, table has b={table.bandwidth}"
        )


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def sft_direct(signal: SphericalSignal, table: HarmonicTable) -> SpectralCoeffs:
    """Forward transform by direct quadrature over the full grid."""
    _check_match(signal.bandwidth, table)
    vals = np.asarray(signal.values, dtype=np.float64)
    return SpectralCoeffs(table.bandwidth, _analysis_direct(vals, table), real_origin=True)


def sft_sepvar(signal: SphericalSignal, table: HarmonicTable) -> SpectralCoeffs:
    """Forward transform via row-wise FFT + dense Legendre transform per order."""
    _check_match(signal.bandwidth, table)
    vals = np.asarray(signal.values, dtype=np.float64)
    return SpectralCoeffs(table.bandwidth, _analysis_sepvar_real(vals, table), real_origin=True)


def isft(
    coeffs: SpectralCoeffs, table: HarmonicTable, dtype: np.dtype | type = np.float64
) -> SphericalSignal:
    """Inverse transform.

    For real-origin coefficients the real-arithmetic expansion over m >= 0 is
    used.  Other coefficients go through the complex path; the imaginary
    residue is dropped (it is < 1e-9 whenever the conjugation symmetry holds).
    """
    _check_match(coeffs.bandwidth, table)
    if coeffs.real_origin:
        vals = _synthesis_real(coeffs.coeffs, table)
    else:
        vals = _synthesis_complex(coeffs.coeffs, table).real
    return SphericalSignal(table.grid, vals.astype(dtype, copy=False))


def bandlimit(signal: SphericalSignal, table: HarmonicTable) -> SphericalSignal:
    """Project onto the grid's resolvable harmonic content (one SFT+ISFT)."""
    out = isft(sft_sepvar(signal, table), table)
    return SphericalSignal(signal.grid, out.values.astype(signal.values.dtype, copy=False))


def random_coeffs(
    b: int, channels: int = 1, rng: np.random.Generator | None = None, scale: float = 1.0
) -> SpectralCoeffs:
    """Random coefficients satisfying the real-signal conjugation symmetry."""
    rng = np.random.default_rng() if rng is None else rng
    c = np.zeros((channels, b * b), dtype=np.complex128)
    for l in range(b):
        base = l * l + l
        c[:, base] = scale * rng.standard_normal(channels)
        for m in range(1, l + 1):
            z = scale * (
                rng.standard_normal(channels) + 1j * rng.standard_normal(channels)
            ) / np.sqrt(2.0)
            c[:, base + m] = z
            c[:, base - m] = (-1) ** m * np.conj(z)
    return SpectralCoeffs(b, c, real_origin=True)


def random_bandlimited_signal(
    b: int,
    channels: int = 1,
    rng: np.random.Generator | None = None,
    table: HarmonicTable | None = None,
) -> SphericalSignal:
    """Convenience: synthesize a random strictly bandlimited real signal."""
    table = shared_table(b) if table is None else table
    return isft(random_coeffs(b, channels, rng), table)


def evaluate_coeffs_at(
    coeffs: SpectralCoeffs, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Pointwise harmonic synthesis at arbitrary directions.

    Exact (up to rounding) for any direction set, independent of the grid;
    used for resampling under rotation and as a reference in tests.
    Returns an array of shape (channels,) + thetas.shape.
    """
    from .harmonics import normalized_legendre

    b = coeffs.bandwidth
    thetas = np.asarray(thetas, dtype=np.float64)
    phis = np.asarray(phis, dtype=np.float64)
    leg = normalized_legendre(b - 1, np.cos(thetas).ravel())  # (b, b, P)
    phase = np.exp(1j * np.arange(b)[:, None] * phis.ravel()[None, :])  # (b, P)
    out = np.zeros((coeffs.channels, thetas.size), dtype=np.complex128)
    for m in range(b):
        ls = np.arange(m, b)
        pos = coeffs.coeffs[:, ls * ls + ls + m] @ leg[m:, m, :]  # (C, P)
        if m == 0:
            out += pos * phase[0]
        else:
            neg = ((-1) ** m * coeffs.coeffs[:, ls * ls + ls - m]) @ leg[m:, m, :]
            out += pos * phase[m] + neg * np.conj(phase[m])
    if coeffs.real_origin:
        return out.real.reshape((coeffs.channels,) + thetas.shape)
    return out.reshape((coeffs.channels,) + thetas.shape)
