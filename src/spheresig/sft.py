"""Forward and inverse spherical Fourier transforms on equiangular grids.

Analysis follows the sampled quadrature form

    c_m^l = sqrt(2 pi)/(2b) * sum_{j,k} w_j f(theta_j, phi_k)
            conj(Y_m^l)(theta_j, phi_k),

with ``w_j`` the grid's quadrature weights; synthesis is the plain harmonic
sum.

Two coefficient layouts exist.  The packed one is a boundary format
(``SpectralCoeffs``, SPEC1): per channel, degree l occupies the slice
[l*l, (l+1)*(l+1)) with orders -l .. l, b*b complex entries in all.  Every
operation runs on the half spectrum: the orders m >= 0 only, m-major as
(m, l, ...) complex with zeros where l < m, so both transforms are one batched
real matmul against views of the one (l, m, j) Legendre table.  One adapter
crosses the boundary: ``_real_parts`` turns packed arrays into half-spectrum
parts, ``_from_parts`` turns them back.

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
  entry point (``_real_parts``, then the kernel).
* Pooled forms.  ``_synthesis_half(..., pool=True)`` returns the
  area-weighted 2x2 pooling (``spectral.wap_fwd``) of the synthesis, computed
  on the pooled (b, b) grid: the pooling is linear and separable, so its row
  weights (``SphericalGrid.wap_rows``) combine Legendre rows 2j' and 2j'+1
  and its column pair-sum combines longitude-IDFT rows 2k' and 2k'+1.
  ``_synthesis_adjoint(..., pool=True)`` is its adjoint: ``_analysis_half``
  of the pooling's adjoint (each pooled value spread over its 2x2 block,
  times the row weight) applied to the pooled map, with the same folds on
  the DFT columns and the Legendre rows.  For b <= 32 the rows fold into the
  Legendre operand, built per call from the table; above it they fold after
  the Legendre step and the columns are summed after the irfft (in the
  adjoint: repeated before the rfft, and the rows spread after it), so no
  per-call copy of the table is made and no temporary outgrows the unpooled
  kernel's.
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
reader) builds its half spectrum, and ``conj_mirror`` is the one place that
writes that rule; ``to_packed`` fills the negative orders through it.
``isft`` returns the real part of the full harmonic sum of any coefficients:
it synthesizes their conjugate-symmetric part, which is the coefficients
themselves, bit for bit, when they came from a real signal.

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
    negative orders come from ``conj_mirror``."""
    l, m = packed_orders(half.shape[0])
    out = np.moveaxis(np.asarray(half, dtype=np.complex128)[np.abs(m), l], 0, -1)
    return np.where(m < 0, conj_mirror(out), out)


def _real_parts(*arrays: np.ndarray) -> list[np.ndarray]:
    """Half spectra (b, b, P, ...) of packed arrays (..., b*b): each array itself
    (P = 1) when all equal their mirrors, else its conjugate-symmetric parts c1,
    c2 with c = c1 + i c2 (P = 2), formed from halves so that finite c cannot
    overflow.  A linear map of real spectra maps the parts to its image's."""
    mirrors = [conj_mirror(c) for c in arrays]
    if all(map(np.array_equal, arrays, mirrors)):
        return [to_half(c[None]) for c in arrays]
    parts = [np.stack([0.5 * c + 0.5 * cm, -0.5j * c + 0.5j * cm]) for c, cm in zip(arrays, mirrors)]
    return [to_half(p) for p in parts]


def _from_parts(parts: np.ndarray) -> np.ndarray:
    """Packed (..., b*b) coefficients of half-spectrum parts (b, b, P, ...)."""
    s = to_packed(parts)
    return s[0] if len(s) == 1 else s[0] + 1j * s[1]


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
    values: np.ndarray,
    table: HarmonicTable,
    row_scale: np.ndarray | None = None,
    pool: bool = False,
) -> np.ndarray:
    """Half spectrum (b, b, ...) of real (..., 2b, 2b) values; ``row_scale``
    replaces the quadrature measure sqrt(2 pi)/(2b) * w_j.  With ``pool`` the
    values are (..., b, b) on the pooled grid and the analysed map is the
    adjoint of ``spectral.wap_fwd`` applied to them: each row's area-pooling
    weight and each column pair are folded into the Legendre and longitude
    operands."""
    b = table.bandwidth
    n = 2 * b
    lead = values.shape[:-2]
    if row_scale is None:
        row_scale = _prefactor(b) * table.grid.quad_weights
    if pool:
        row_scale = row_scale * table.grid.wap_rows
    s = _grid_major(values)  # (k, j, X); (k', j', X) when pooled
    leg = table.legendre.transpose(1, 0, 2)  # (m, l, j)
    if b > _GEMM_MAX_B:
        if pool:  # each column twice, each row twice after the DFT
            s = np.repeat(s, 2, axis=0)
        f = np.fft.rfft(s, axis=0)  # (b+1, j, X), bin m = sum_k f e^{-im phi_k}
        del s  # a temporary when pooled or copied
        if pool:
            g = np.empty((b, n, f.shape[-1]), dtype=np.complex128)
            np.multiply(f[:b], row_scale[0::2, None], out=g[:, 0::2])
            np.multiply(f[:b], row_scale[1::2, None], out=g[:, 1::2])
        else:
            g = f[:b] * row_scale[:, None]  # (m, j, X)
        del f  # lets the matmul output reuse its memory: a lower peak
        out = (leg @ g.view(np.float64)).view(np.complex128)  # (m, l, X)
    else:
        dft = table.longitude_dft
        if pool:
            dft = dft[:, 0::2] + dft[:, 1::2]
        rows = dft.shape[1]
        g = (dft @ s.reshape(rows, -1)).reshape(2, b, rows, -1)  # (Re|Im, m, j, X)
        if pool:
            leg = leg[..., 0::2] * row_scale[0::2] + leg[..., 1::2] * row_scale[1::2]
        elif 2 * g.shape[-1] < b:  # the measure goes on the smaller operand
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
    half: np.ndarray,
    table: HarmonicTable,
    row_scale: np.ndarray | None = None,
    pool: bool = False,
) -> np.ndarray:
    """Real longitude-major (..., 2b, 2b) values of a half spectrum (b, b, ...):
    the harmonic sum of its conjugate-symmetric extension, row j times
    ``row_scale[j]``.  With ``pool`` the values are (..., b, b), the
    ``spectral.wap_fwd`` of that map, synthesized on the pooled grid."""
    b = table.bandwidth
    n = 2 * b
    rows = b if pool else n  # grid rows and columns of the output
    c = np.ascontiguousarray(half, dtype=np.complex128).reshape(b, b, -1)  # (m, l, X)
    leg = table.legendre.transpose(1, 2, 0)  # (m, j, l)
    if pool:
        w = table.grid.wap_rows
        row_scale = w if row_scale is None else row_scale * w
    if b > _GEMM_MAX_B:
        scale = n if row_scale is None else n * row_scale[:, None]  # irfft divides by n
        t = leg @ c.view(np.float64)  # (m, j, 2X)
        tc = t.view(np.complex128)
        h = np.zeros((b + 1, rows, c.shape[-1]), dtype=np.complex128)  # (m, j, X), Nyquist bin 0
        if pool:  # rows 2j' and 2j'+1 weighted into row j'
            np.multiply(tc[:, 0::2], scale[0::2], out=h[:b])
            h[:b] += tc[:, 1::2] * scale[1::2]
        else:
            np.multiply(tc, scale, out=h[:b])
        del t, tc  # lets the irfft output reuse its memory: a lower peak
        s = np.fft.irfft(h, n=n, axis=0)  # (k, j, X)
        if pool:
            s = s[0::2] + s[1::2]
    else:
        if pool:
            leg = leg[:, 0::2] * row_scale[0::2, None] + leg[:, 1::2] * row_scale[1::2, None]
        elif row_scale is not None:
            leg = leg * row_scale[:, None]
        parts = c.view(np.float64).reshape(b, b, -1, 2).transpose(3, 0, 1, 2)  # (Re|Im, m, l, X)
        t = np.matmul(leg, parts, out=np.empty((2, b, rows, c.shape[-1])))  # (Re|Im, m, j, X)
        idft = table.longitude_idft
        if pool:
            idft = idft[0::2] + idft[1::2]
        s = idft @ t.reshape(n, -1)  # (k, j X)
    s = s.reshape((rows, rows) + half.shape[2:])
    return s.transpose(tuple(range(2, s.ndim)) + (1, 0))


def _synthesis_real(coeffs: np.ndarray, table: HarmonicTable) -> np.ndarray:
    """The real part of the harmonic sum of packed (..., b*b) coefficients: the
    synthesis of their conjugate-symmetric part."""
    return _synthesis_half(_real_parts(coeffs)[0][:, :, 0], table)


def _synthesis_adjoint(u: np.ndarray, table: HarmonicTable, pool: bool = False) -> np.ndarray:
    """Adjoint of ``_synthesis_half`` (of its pooled form with ``pool``) on
    real grid values: the half spectrum v_lm = sum_jk u_jk conj(Y_lm)(j, k),
    i.e. analysis with unit weights and unit prefactor."""
    return _analysis_half(u, table, row_scale=np.ones(table.grid.n), pool=pool)


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
    """Forward transform by separation of variables (``_analysis_half``): a
    longitude DFT of every latitude row (one matmul at b <= 32, an rfft along
    the longitude axis above), then one batched Legendre transform."""
    _check_match(signal.bandwidth, table)
    vals = np.asarray(signal.values, dtype=np.float64)
    return SpectralCoeffs(table.bandwidth, to_packed(_analysis_half(vals, table)))


def isft(coeffs: SpectralCoeffs, table: HarmonicTable) -> SphericalSignal:
    """Inverse transform: the real part of the full harmonic sum
    (``_synthesis_real``).  Coefficients so large that their synthesis
    overflows raise ValueError (a non-finite signal).
    """
    _check_match(coeffs.bandwidth, table)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _synthesis_real(coeffs.coeffs, table)
    return SphericalSignal(table.grid, vals)


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
    b: int, channels: int = 1, rng: np.random.Generator | None = None
) -> SphericalSignal:
    """Convenience: synthesize a random strictly bandlimited real signal."""
    return isft(random_coeffs(b, channels, rng), shared_table(b))


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
