"""Equiangular sampling grids on the sphere with quadrature weights.

A grid of bandwidth ``b`` samples colatitude and longitude on a 2b x 2b
lattice::

    theta_j = pi * j / (2b),   phi_k = pi * k / b,   j, k = 0 .. 2b-1

The quadrature weights make the discrete analysis of bandlimited signals
exact: any signal synthesized from harmonic degrees below ``b`` is recovered
to machine precision by the forward transform (see ``spheresig.sft``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAX_BANDWIDTH = 512


@dataclass(frozen=True)
class SphericalGrid:
    """Immutable 2b x 2b equiangular grid. Safe to share across threads.

    quad_weights are the latitude quadrature weights used by the discrete
    analysis formula; area_weights are plain sin(theta) cell-area factors
    used by spatial pooling and averaging.
    """

    bandwidth: int
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)
    area_weights: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        """Number of samples per axis (= 2b)."""
        return 2 * self.bandwidth

    @property
    def wap_rows(self) -> np.ndarray:
        """Area-weighted 2x2 pooling's weight of each row: its sin(theta) over
        its 2x2 block's total (two columns)."""
        rw = self.area_weights.reshape(-1, 2)
        return (rw / (2.0 * rw.sum(axis=1, keepdims=True))).reshape(-1)

    def directions(self) -> np.ndarray:
        """Unit vectors of every grid point, shape (2b, 2b, 3)."""
        st = np.sin(self.thetas)[:, None]
        ct = np.cos(self.thetas)[:, None]
        cp = np.cos(self.phis)[None, :]
        sp = np.sin(self.phis)[None, :]
        return np.stack(
            [st * cp, st * sp, np.broadcast_to(ct, (self.n, self.n))], axis=-1
        )


def _latitude_weights(b: int, thetas: np.ndarray) -> np.ndarray:
    # Exact for integrands that are polynomials of degree < 2b in cos(theta),
    # at the plain scale sum_j w_j * g(theta_j) = int_0^pi g sin(theta) dtheta.
    k = np.arange(b)
    s = np.sin((2 * k[None, :] + 1) * thetas[:, None]) / (2 * k[None, :] + 1)
    return (2.0 / b) * np.sin(thetas) * s.sum(axis=1)


def require_int(value, name: str):
    """``value`` if it is a Python or numpy integer: not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def check_bandwidth(b, name: str = "bandwidth") -> None:
    """The one bandwidth rule of grids and configs: an integer in [2, 512]."""
    if not 2 <= require_int(b, name) <= DEFAULT_MAX_BANDWIDTH:
        raise ValueError(f"{name} must be in [2, {DEFAULT_MAX_BANDWIDTH}], got {b}")


def make_grid(b: int) -> SphericalGrid:
    """Build the bandwidth-``b`` grid with quadrature and area weights.

    The stored quad_weights carry a global sqrt(2*pi) factor so that the
    forward transform's sqrt(2*pi)/(2b) prefactor yields an exact inverse
    pair under the orthonormal harmonic convention.
    """
    check_bandwidth(b)
    n = 2 * b
    thetas = np.pi * np.arange(n) / n
    phis = np.pi * np.arange(n) / b
    quad = np.sqrt(2.0 * np.pi) * _latitude_weights(b, thetas)
    # The pole row has zero weight analytically; clamp noise from the sine sum.
    quad[0] = 0.0
    area = np.sin(thetas)
    for arr in (thetas, phis, quad, area):
        arr.setflags(write=False)
    return SphericalGrid(
        bandwidth=int(b), thetas=thetas, phis=phis, quad_weights=quad, area_weights=area
    )
