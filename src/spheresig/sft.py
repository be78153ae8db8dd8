"""Forward and inverse spherical Fourier transforms on equiangular grids.

Analysis follows the sampled quadrature form

    c_m^l = sqrt(2 pi)/(2b) * sum_{j,k} w_j f(theta_j, phi_k)
            conj(Y_m^l)(theta_j, phi_k),

with ``w_j`` the grid's quadrature weights; synthesis is the plain harmonic
sum.

Two coefficient layouts exist.  The public one (``SpectralCoeffs``, SPEC1,
the public ``rotation`` functions) is packed per channel: degree l occupies
the slice [l*l, (l+1)*(l+1)) with orders running -l .. l, so a channel holds
exactly b*b complex entries.  The network, the rotation kernel and
``equivariance`` use the half spectrum: the orders m >= 0 only, stored
m-major as (m, l, ...) complex with zeros where l < m, so both transforms are
one batched real matmul against views of the one (l, m, j) Legendre table.
``to_half`` and ``to_packed`` convert between the two at the public
boundaries.

Kernels.  Grid values keep their logical shape (..., 2b, 2b), but inside the
library they are stored longitude-major: ``np.moveaxis(v, (-1, -2), (0, 1))``,
that is (k, j, ...), is C-contiguous.  ``_synthesis_half`` returns such views
and ``_analysis_half`` reads float64 ones in place (any other input is copied
once), so each step of a transform is one BLAS call or one FFT over a
contiguous operand and no map is ever transposed between them:

* ``_analysis_half``: for b <= 32, one real GEMM of the (2b, 2b) longitude DFT
  (``HarmonicTable.longitude_dft``, Re over Im of the orders m < b) against the
  (k, j X) view, then ``legendre[:, m, :] @ G_m`` batched over (Re/Im, m) with
  the quadrature measure folded into the Legendre side, then one interleave into
  the complex (m, l, ...) output.  Above b = 32 numpy's rfft along the leading k
  axis replaces the GEMM, which loses there (1.2x slower at b = 64 with 16
  maps, 1.6x at b = 256 with one); its spectra are the same bits as those of
  an rfft over rows of the map-major layout.  The only production analysis: the network and
  ``equivariance.measure`` call it directly, ``sft_sepvar`` through
  ``to_packed``.
* ``_synthesis_half`` mirrors it: ``legendre[:, m, :].T @ C_m`` on a strided
  (Re/Im, m, l, X) view of the complex input, then one GEMM with
  ``longitude_idft`` (orders m > 0 doubled, Im of m = 0 dropped); above b = 32
  an irfft along k.  The only synthesis; ``_synthesis_real`` is its packed
  entry point (a gather, then the kernel).
* ``_analysis_direct`` (full-grid contraction per order, O(b^4), behind
  ``sft_direct``) is the reference; it returns a half spectrum too, and the
  two analyses agree to ~1e-12.

The map-major layout made each transform an FFT over rows plus a transpose
into (m, j, ...) and back; at b = 32 with 256 maps the transposes cost more
than the Legendre matmuls and as much as the FFTs.

The adjoints backpropagation needs reuse them (Driscoll & Healy 1994): the
adjoint of analysis is synthesis times the quadrature measure, that of
synthesis is analysis with unit weights.  A half spectrum stands for the
conjugate-symmetric full spectrum, so its inner product counts each order
m > 0 twice (``order_weights``); under that inner product the two adjoints
need no extra factor, and whoever contracts half spectra (a filter gradient,
a per-degree norm) applies the weights.

The spectrum of a real function obeys c_{-m}^l = (-1)^m conj(c_m^l).
Every producer of a real spectrum (the analyses, random spectra, the SPEC1
reader) builds its half spectrum, and ``to_packed`` is the one place that
fills the negative orders by that rule; ``conj_mirror`` applies it to a
whole packed spectrum.  ``isft`` returns the real part of the full
harmonic sum of any coefficients: it synthesizes their conjugate-symmetric
part, which equals the coefficients bit for bit when they came from a real
signal.

All accumulation is float64/complex128 regardless of the signal dtype.
"""

from __future__ import annotations

import math
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

    Coefficients obtained from a real signal satisfy the conjugation rule
    entry-exactly by construction (see ``conj_mirror``).
    """

    bandwidth: int
    coeffs: np.ndarray

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


def packed_orders(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree l and order m of each slot of the packed layout, length b*b each."""
    l = np.repeat(np.arange(b), 2 * np.arange(b) + 1)
    return l, np.arange(b * b) - l * l - l


def conj_mirror(coeffs: np.ndarray) -> np.ndarray:
    """(-1)^m conj(c_{-m}^l) at every packed slot (l, m) of (..., b*b)
    coefficients.

    The spectrum of a real function equals its mirror (Driscoll & Healy 1994);
    the mirror is an involution, exact in floating point.
    """
    m = packed_orders(math.isqrt(coeffs.shape[-1]))[1]
    out = np.conj(coeffs[..., np.arange(m.size) - 2 * m])
    np.negative(out, out=out, where=m % 2 == 1)
    return out


def order_weights(b: int) -> np.ndarray:
    """Weight of each order m of a half spectrum in its inner product: 1 for
    m = 0, 2 for m > 0 (each stands for itself and its mirror)."""
    w = np.full(b, 2.0)
    w[0] = 1.0
    return w


def half_slots(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order m, degree l and packed slot of every (l, m) with 0 <= m <= l < b,
    in (l, m) lexicographic order (SPEC1's half storage)."""
    l, m = packed_orders(b)
    slots = np.flatnonzero(m >= 0)
    return m[slots], l[slots], slots


def to_half(coeffs: np.ndarray) -> np.ndarray:
    """Packed (..., b*b) coefficients as a half spectrum (b, b, ...): their
    orders m >= 0, m-major, zero where l < m."""
    b = math.isqrt(coeffs.shape[-1])
    m, l, slots = half_slots(b)
    out = np.zeros((b, b) + coeffs.shape[:-1], dtype=np.complex128)
    out[m, l] = np.moveaxis(coeffs[..., slots], -1, 0)
    return out


def to_packed(half: np.ndarray) -> np.ndarray:
    """The packed (..., b*b) conjugate-symmetric spectrum of a half spectrum
    (b, b, ...); the inverse of ``to_half`` on spectra of real signals.  The
    negative orders are c_{-m}^l = (-1)^m conj(c_m^l)."""
    b = half.shape[0]
    m, l, slots = half_slots(b)
    out = np.empty(half.shape[2:] + (b * b,), dtype=np.complex128)
    out[..., slots] = np.moveaxis(half[m, l], 0, -1)
    m, slots = m[m > 0], slots[m > 0]
    mirror = np.conj(out[..., slots])
    np.negative(mirror, out=mirror, where=m % 2 == 1)
    out[..., slots - 2 * m] = mirror
    return out


# ---------------------------------------------------------------------------
# Kernels.  values arrays carry shape (..., 2b, 2b); packed coefficient
# arrays (..., b*b); half spectra (b, b, ...), m-major.  Analysis computes the
# orders m >= 0 only; the packed layout gets the rest from the mirror in
# ``to_packed``, so the conjugation rule holds entry-exactly.  Synthesis reads
# only orders m >= 0 (and the real part of m = 0).
# ---------------------------------------------------------------------------


_GEMM_MAX_B = 32  # above it numpy's FFT beats the dense longitude DFT


def _prefactor(b: int) -> float:
    return np.sqrt(2.0 * np.pi) / (2.0 * b)


def _grid_major(values: np.ndarray) -> np.ndarray:
    """The float64 (k, j, X) storage of real (..., 2b, 2b) values: a view of
    longitude-major float64 values, one copy of any others."""
    d = values.ndim
    s = values.transpose((d - 1, d - 2) + tuple(range(d - 2)))  # (k, j, ...)
    return np.ascontiguousarray(s, dtype=np.float64).reshape(s.shape[:2] + (-1,))


def _analysis_half(
    values: np.ndarray, table: HarmonicTable, row_scale: np.ndarray | None = None
) -> np.ndarray:
    """Half spectrum (b, b, ...) of real (..., 2b, 2b) values; ``row_scale``
    replaces the quadrature measure sqrt(2 pi)/(2b) * w_j."""
    b = table.bandwidth
    n = 2 * b
    lead = values.shape[:-2]
    if row_scale is None:
        row_scale = _prefactor(b) * table.grid.quad_weights
    s = _grid_major(values)  # (k, j, X)
    leg = table.legendre.transpose(1, 0, 2)  # (m, l, j)
    if b > _GEMM_MAX_B:
        f = np.fft.rfft(s, axis=0)  # (b+1, j, X), bin m = sum_k f e^{-im phi_k}
        g = f[:b] * row_scale[:, None]  # (m, j, X)
        del f  # lets the matmul output reuse its memory: a lower peak
        out = (leg @ g.view(np.float64)).view(np.complex128)  # (m, l, X)
    else:
        g = (table.longitude_dft @ s.reshape(n, -1)).reshape(2, b, n, -1)  # (Re|Im, m, j, X)
        if 2 * g.shape[-1] < b:  # the measure goes on the smaller operand
            g *= row_scale[:, None]
        else:
            leg = leg * row_scale
        re, im = leg @ g  # (m, l, X) each
        out = np.empty(re.shape, dtype=np.complex128)
        out.real, out.imag = re, im
    return out.reshape((b, b) + lead)


def _analysis_direct(values: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Half spectrum (b, b, ...) of real (..., 2b, 2b) values by full-grid
    contraction per order: no factorization over longitude."""
    b = table.bandwidth
    w = table.grid.quad_weights
    pref = _prefactor(b)
    wf = values * w[:, None]
    out = np.zeros((b, b) + values.shape[:-2], dtype=np.complex128)
    for m in range(b):
        # conj(Y_m^l) sampled over the whole grid, one (l, j, k) block.
        ybar = table.legendre[m:, m, :, None] * table.fourier_phases[m, None, None, :]
        block = pref * np.tensordot(wf, ybar, axes=([-2, -1], [1, 2]))
        out[m, m:] = np.moveaxis(block, -1, 0)
    return out


def _synthesis_half(
    half: np.ndarray, table: HarmonicTable, row_scale: np.ndarray | None = None
) -> np.ndarray:
    """Real longitude-major (..., 2b, 2b) values of a half spectrum (b, b, ...):
    the harmonic sum of its conjugate-symmetric extension, row j times
    ``row_scale[j]``."""
    b = table.bandwidth
    n = 2 * b
    c = np.ascontiguousarray(half, dtype=np.complex128).reshape(b, b, -1)  # (m, l, X)
    leg = table.legendre.transpose(1, 2, 0)  # (m, j, l)
    if b > _GEMM_MAX_B:
        scale = n if row_scale is None else n * row_scale[:, None]  # irfft divides by n
        t = leg @ c.view(np.float64)  # (m, j, 2X)
        h = np.zeros((b + 1, n, c.shape[-1]), dtype=np.complex128)  # (m, j, X), Nyquist bin 0
        np.multiply(t.view(np.complex128), scale, out=h[:b])
        del t  # lets the irfft output reuse its memory: a lower peak
        s = np.fft.irfft(h, n=n, axis=0)  # (k, j, X)
    else:
        if row_scale is not None:
            leg = leg * row_scale[:, None]
        parts = c.view(np.float64).reshape(b, b, -1, 2).transpose(3, 0, 1, 2)  # (Re|Im, m, l, X)
        t = np.matmul(leg, parts, out=np.empty((2, b, n, c.shape[-1])))  # (Re|Im, m, j, X)
        s = table.longitude_idft @ t.reshape(n, -1)  # (k, j X)
    s = s.reshape((n, n) + half.shape[2:])
    return s.transpose(tuple(range(2, s.ndim)) + (1, 0))


def _synthesis_real(coeffs: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Synthesis of packed (..., b*b) coefficients from their orders m >= 0."""
    return _synthesis_half(to_half(coeffs), table)


def _synthesis_adjoint(u: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Adjoint of ``_synthesis_half`` on real grid values: the half spectrum
    v_lm = sum_jk u_jk conj(Y_lm)(j, k), i.e. analysis with unit weights and
    unit prefactor."""
    return _analysis_half(u, table, row_scale=np.ones(table.grid.n))


def _analysis_adjoint(v: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """Adjoint of ``_analysis_half`` for a half spectrum ``v``: synthesis
    followed by the quadrature measure sqrt(2 pi)/(2b) * w_j."""
    row_scale = _prefactor(table.bandwidth) * table.grid.quad_weights
    return _synthesis_half(v, table, row_scale)


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
    return SpectralCoeffs(table.bandwidth, to_packed(_analysis_direct(vals, table)))


def sft_sepvar(signal: SphericalSignal, table: HarmonicTable) -> SpectralCoeffs:
    """Forward transform via row-wise FFT + one batched Legendre transform
    over all orders (separation of variables)."""
    _check_match(signal.bandwidth, table)
    vals = np.asarray(signal.values, dtype=np.float64)
    return SpectralCoeffs(table.bandwidth, to_packed(_analysis_half(vals, table)))


def isft(
    coeffs: SpectralCoeffs, table: HarmonicTable, dtype: np.dtype | type = np.float64
) -> SphericalSignal:
    """Inverse transform: the real part of the full harmonic sum.

    That is the synthesis of the conjugate-symmetric part (c + conj_mirror(c)) / 2
    of the coefficients.  It is formed as c where c equals its mirror, so it
    is ``c`` itself, bit for bit, for coefficients of a real signal, and as
    c/2 + mirror/2 elsewhere, which cannot overflow.  Coefficients so large
    that their synthesis overflows raise ValueError (a non-finite signal).
    """
    _check_match(coeffs.bandwidth, table)
    c = coeffs.coeffs
    mirror = conj_mirror(c)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _synthesis_real(np.where(c == mirror, c, 0.5 * c + 0.5 * mirror), table)
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
    # Draw k of degree l (row l*l + k): k = 0 is the order 0, then the real
    # and imaginary parts of the orders 1 .. l in turn.
    z = rng.standard_normal((b * b, channels))
    half = np.zeros((b, b, channels), dtype=np.complex128)
    ls = np.arange(b)
    half[0, ls] = scale * z[ls * ls]
    m, l, _ = half_slots(b)
    m, l = m[m > 0], l[m > 0]
    re = l * l + 2 * m - 1
    half[m, l] = scale * (z[re] + 1j * z[re + 1]) / np.sqrt(2.0)
    return SpectralCoeffs(b, to_packed(half))


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
    Returns the real part, like ``isft``, of shape (channels,) + thetas.shape.
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
    return out.real.reshape((coeffs.channels,) + thetas.shape)
