"""Associated Legendre functions, spherical harmonics, and precomputed tables.

Convention: orthonormal harmonics with the Condon-Shortley phase folded into
the Legendre functions,

    Y_m^l(theta, phi) = q_m^l * P_m^l(cos theta) * exp(i m phi),
    q_m^l = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!),

so that conj(Y_{-m}^l) = (-1)^m Y_m^l.  Tables store the normalized product
q_m^l * P_m^l directly; the joint recurrence keeps every entry O(1) and is
stable to degree 511 and beyond, whereas raw P_m^l overflows float64 near
degree 150.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import DEFAULT_MAX_BANDWIDTH, SphericalGrid, make_grid, require_int

_INV_SQRT_4PI = 0.5 / np.sqrt(np.pi)


def normalized_legendre(l_max: int, x: np.ndarray) -> np.ndarray:
    """All q_m^l * P_m^l(x) for 0 <= m <= l <= l_max.

    Parameters
    ----------
    l_max : highest degree to compute.
    x : array of abscissas in [-1, 1] (typically cos(theta)).

    Returns
    -------
    array of shape (l_max+1, l_max+1) + x.shape; entry [l, m] holds the
    normalized function, zero where m > l.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    out = np.zeros((l_max + 1, l_max + 1) + x.shape, dtype=np.float64)
    out[0, 0] = _INV_SQRT_4PI
    orders = (slice(None),) + (None,) * x.ndim  # a per-order factor against x
    for l in range(1, l_max + 1):
        # Diagonal: the minus sign carries the Condon-Shortley phase.
        out[l, l] = -np.sqrt((2 * l + 1.0) / (2 * l)) * s * out[l - 1, l - 1]
        out[l, l - 1] = np.sqrt(2 * l + 1.0) * x * out[l - 1, l - 1]
        m = np.arange(l - 1)  # the three-term recurrence in l, every order at once
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        c = np.sqrt(
            ((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
            / ((2.0 * l - 3.0) * (l - m) * (l + m))
        )
        out[l, : l - 1] = a[orders] * x * out[l - 1, : l - 1] - c[orders] * out[l - 2, : l - 1]
    return out


def assoc_legendre(l: int, m: int, x: float) -> float:
    """Unnormalized associated Legendre function P_m^l(x), Condon-Shortley phase.

    Computed by the stable three-term recurrence in l.  Values overflow
    float64 for large l with large m; use ``normalized_legendre`` for
    high-degree work.
    """
    if m < 0 or m > l:
        raise ValueError(f"order must satisfy 0 <= m <= l, got l={l}, m={m}")
    if abs(x) > 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {x}")
    s = np.sqrt(max(0.0, 1.0 - x * x))
    # P_m^m = (-1)^m (2m-1)!! s^m
    pmm = 1.0
    for i in range(1, m + 1):
        pmm *= -(2 * i - 1) * s
    if l == m:
        return float(pmm)
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return float(pm1)
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, (x * (2 * ll - 1) * pm1 - (ll + m - 1) * pmm) / (ll - m)
    return float(pm1)


def sph_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_m^l(theta, phi)."""
    if abs(m) > l:
        raise ValueError(f"order must satisfy |m| <= l, got l={l}, m={m}")
    am = abs(m)
    nlm = normalized_legendre(l, np.float64(np.cos(theta)))[l, am]
    if m >= 0:
        return complex(nlm * np.exp(1j * m * phi))
    return complex((-1) ** am * nlm * np.exp(1j * m * phi))


@dataclass(frozen=True)
class HarmonicTable:
    """Precomputed harmonic samples on a grid; immutable and shareable.

    legendre[l, m, j] = q_m^l P_m^l(cos theta_j) for m <= l < b, zero above
    the diagonal.  fourier_phases[m, k] = exp(-i m phi_k) for 0 <= m < b;
    negative orders follow by conjugation.  The real (2b, 2b) longitude DFTs
    stack Re over Im by orders: longitude_dft rows are cos(m phi_k), then
    -sin(m phi_k); longitude_idft is its transpose with the orders m > 0
    doubled and the Im column of m = 0 zero.
    """

    grid: SphericalGrid
    legendre: np.ndarray = field(repr=False)
    fourier_phases: np.ndarray = field(repr=False)
    longitude_dft: np.ndarray = field(repr=False)
    longitude_idft: np.ndarray = field(repr=False)

    @property
    def bandwidth(self) -> int:
        return self.grid.bandwidth


def build_table(grid: SphericalGrid) -> HarmonicTable:
    """Tabulate normalized Legendre samples and Fourier phases for ``grid``.

    Memory grows as b^3 for the Legendre block (float64) and b^2 for the
    phases (complex128).
    """
    b = grid.bandwidth
    if b > DEFAULT_MAX_BANDWIDTH:
        raise ValueError(f"bandwidth {b} exceeds table maximum {DEFAULT_MAX_BANDWIDTH}")
    leg = normalized_legendre(b - 1, np.cos(grid.thetas))
    m = np.arange(b)
    phases = np.exp(-1j * m[:, None] * grid.phis[None, :])
    angle = (np.pi / b) * (np.outer(m, np.arange(2 * b)) % (2 * b))  # m phi_k reduced exactly
    dft = np.concatenate([np.cos(angle), -np.sin(angle)])
    dft[b] = 0.0
    idft = dft.T * np.concatenate([[1.0], np.full(2 * b - 1, 2.0)])
    for arr in (leg, phases, dft, idft):
        arr.setflags(write=False)
    return HarmonicTable(grid, leg, phases, dft, idft)


def shared_table(b: int) -> HarmonicTable:
    """Process-wide cache of ``build_table(make_grid(b))``; entries are immutable.
    It is keyed by ``int(b)``, so a numpy integer finds the entry of its int."""
    return _table(int(require_int(b, "bandwidth")))


@functools.cache
def _table(b: int) -> HarmonicTable:
    return build_table(make_grid(b))
