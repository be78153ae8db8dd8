"""Rotation of spherical spectra and signals via per-degree unitary blocks.

Rotations use ZYZ Euler angles: R = Rz(alpha) @ Ry(beta) @ Rz(gamma).  The
degree-l coefficient block transforms by the unitary matrix

    D^l(alpha, beta, gamma) = exp(-i alpha Jz) exp(-i beta Jy) exp(-i gamma Jz)

acting on column vectors indexed m = -l .. l, which realizes the signal map
f -> f o R^{-1} under this package's harmonic convention.  With the
eigendecomposition Jy = V diag(w) V^H (stable at any degree; the eigenvalues
are the integers -l .. l) the block factors into two diagonal phases around
V diag(exp(-i beta w)) V^H, and ``rotate_packed`` applies those factors to
coefficient rows in turn, at (2l+1)^2 work per row, without forming the
block.  It is the one rotation map: ``wigner_d`` is that map applied to the
identity, and ``rotate_spectrum``, ``rotate_signal`` and the equivariance
harness all go through it.  At beta = 0 the map is one exact phase.

Eigendecompositions are cached per degree; cached entries are immutable and
safe for concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RotationZYZ:
    """ZYZ Euler angles, canonicalized to alpha, gamma in [0, 2pi), beta in [0, pi]."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(g)):
            raise ValueError("rotation angles must be finite")
        if not (0.0 <= b <= np.pi):
            # Fold beta into [0, pi]; Ry(-beta) = Rz(pi) Ry(beta) Rz(pi).
            b = b % _TWO_PI
            if b > np.pi:
                b = _TWO_PI - b
                a += np.pi
                g += np.pi
        object.__setattr__(self, "alpha", a % _TWO_PI)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g % _TWO_PI)

    def matrix(self) -> np.ndarray:
        """3x3 rotation matrix Rz(alpha) Ry(beta) Rz(gamma)."""
        return _rz(self.alpha) @ _ry(self.beta) @ _rz(self.gamma)

    def inverse(self) -> "RotationZYZ":
        return RotationZYZ(-self.gamma, -self.beta, -self.alpha)

    def compose(self, other: "RotationZYZ") -> "RotationZYZ":
        """Rotation equal to applying ``other`` first, then ``self``."""
        return rotation_from_matrix(self.matrix() @ other.matrix())

    def is_identity(self, tol: float = 0.0) -> bool:
        return (
            min(self.alpha, _TWO_PI - self.alpha) <= tol
            and self.beta <= tol
            and min(self.gamma, _TWO_PI - self.gamma) <= tol
        )


def _rz(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_from_matrix(r: np.ndarray) -> RotationZYZ:
    """ZYZ angles of a rotation matrix (beta in [0, pi]; gamma = 0 when degenerate)."""
    r = np.asarray(r, dtype=np.float64)
    cb = float(np.clip(r[2, 2], -1.0, 1.0))
    beta = float(np.arccos(cb))
    if min(beta, np.pi - beta) < 1e-12:
        # Pure z-rotation (or z-rotation composed with Ry(pi)); alpha absorbs it.
        if beta < 1e-12:
            return RotationZYZ(float(np.arctan2(r[1, 0], r[0, 0])), 0.0, 0.0)
        return RotationZYZ(float(np.arctan2(-r[1, 0], -r[0, 0])), np.pi, 0.0)
    alpha = float(np.arctan2(r[1, 2], r[0, 2]))
    gamma = float(np.arctan2(r[2, 1], -r[2, 0]))
    return RotationZYZ(alpha, beta, gamma)


def geodesic_distance(r1: RotationZYZ, r2: RotationZYZ, degrees: bool = False) -> float:
    """Angle of the relative rotation between two elements of SO(3)."""
    m = r1.matrix().T @ r2.matrix()
    ang = float(np.arccos(np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0)))
    return float(np.degrees(ang)) if degrees else ang


# ---------------------------------------------------------------------------
# Wigner blocks.
# ---------------------------------------------------------------------------

_JY_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _jy_eig(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (snapped to the exact integers -l..l) and eigenvectors of Jy."""
    cached = _JY_CACHE.get(l)
    if cached is not None:
        return cached
    m = np.arange(-l, l + 1, dtype=np.float64)
    cp = np.sqrt(l * (l + 1.0) - m[:-1] * (m[:-1] + 1.0))  # raising coefficients
    jy = np.zeros((2 * l + 1, 2 * l + 1), dtype=np.complex128)
    idx = np.arange(2 * l)
    jy[idx + 1, idx] = -0.5j * cp
    jy[idx, idx + 1] = 0.5j * cp
    w, v = np.linalg.eigh(jy)
    w = np.round(w)
    w.setflags(write=False)
    v.setflags(write=False)
    _JY_CACHE[l] = (w, v)
    return w, v


def _small_d_many(l: int, betas: np.ndarray) -> np.ndarray:
    """Stack of small-d matrices for several beta values, shape (B, 2l+1, 2l+1)."""
    w, v = _jy_eig(l)
    phase = np.exp(-1j * np.asarray(betas)[:, None] * w[None, :])
    return ((v * phase[:, None, :]) @ v.conj().T).real


def _degree_factors(l: int, r: RotationZYZ) -> list[np.ndarray]:
    """Factors of x -> x @ D^l(r).T on rows x of degree-l coefficients, in
    order: 1-D ones are diagonals, 2-D ones right matrix products."""
    m = np.arange(-l, l + 1)
    if r.beta == 0.0:
        return [np.exp(-1j * m * (r.alpha + r.gamma))]
    w, v = _jy_eig(l)
    ea, eg = np.exp(-1j * m * r.alpha), np.exp(-1j * m * r.gamma)
    return [eg, v.conj(), np.exp(-1j * r.beta * w), v.T, ea]


def _apply_factors(x: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    for f in factors:
        x = x * f if f.ndim == 1 else x @ f
    return x


def wigner_d(l: int, r: RotationZYZ) -> np.ndarray:
    """Unitary (2l+1, 2l+1) representation matrix of ``r`` on degree-l coefficients."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    return _apply_factors(np.eye(2 * l + 1, dtype=np.complex128), _degree_factors(l, r)).T


def rotate_packed(arrays: list[np.ndarray], r: RotationZYZ) -> list[np.ndarray]:
    """Apply ``r`` to packed coefficient arrays (..., b*b) of any bandwidths.

    Degree by degree, the factors of the block are built once and applied to
    every array whose bandwidth exceeds that degree at (2l+1)^2 work per row;
    no block is formed.  Arrays are never stacked, so each result is the same
    bits whatever else is rotated with it.  Exact for bandlimited content.
    """
    bws = []
    for a in arrays:
        b = math.isqrt(a.shape[-1])
        if b * b != a.shape[-1]:
            raise ValueError(f"packed length {a.shape[-1]} is not a square")
        bws.append(b)
    outs = [np.empty_like(a) for a in arrays]
    for l in range(max(bws, default=0)):
        factors = _degree_factors(l, r)
        seg = slice(l * l, (l + 1) * (l + 1))
        for a, out, b in zip(arrays, outs, bws):
            if b > l:
                out[..., seg] = _apply_factors(a[..., seg], factors)
    return outs


def rotate_spectrum(coeffs, r: RotationZYZ):
    """Apply ``r`` per degree block; exact for bandlimited content."""
    from .sft import SpectralCoeffs

    (out,) = rotate_packed([coeffs.coeffs], r)
    return SpectralCoeffs(coeffs.bandwidth, out)


def rotate_signal(signal, r: RotationZYZ, table):
    """Rotate a sampled signal: SFT, per-degree block action, ISFT.

    Exact for bandlimited signals; signals with unresolved content are
    implicitly bandlimited by the analysis step.  The rotated spectrum is
    synthesized from its orders m >= 0, as the rotation of a real signal.
    """
    from .sft import SphericalSignal, _synthesis_real, sft_sepvar

    spec = rotate_spectrum(sft_sepvar(signal, table), r)
    vals = _synthesis_real(spec.coeffs, table)
    return SphericalSignal(table.grid, vals.astype(signal.values.dtype, copy=False))


# ---------------------------------------------------------------------------
# Rotation sampling.
# ---------------------------------------------------------------------------


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rotations(count: int, seed: int | None = None) -> list[RotationZYZ]:
    """Haar-uniform rotations via normalized 4D Gaussian quaternions."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        out.append(rotation_from_matrix(quaternion_to_matrix(q)))
    return out


def rotation_grid(n_alpha: int, n_beta: int, n_gamma: int) -> list[RotationZYZ]:
    """ZYZ lattice: alpha, gamma uniform over [0, 2pi), beta uniform over [0, pi).

    Enumeration is lexicographic in (alpha, beta, gamma); (1, 1, 1) yields
    the identity alone.
    """
    if min(n_alpha, n_beta, n_gamma) < 1:
        raise ValueError("grid counts must be positive")
    alphas = _TWO_PI * np.arange(n_alpha) / n_alpha
    betas = np.pi * np.arange(n_beta) / n_beta
    gammas = _TWO_PI * np.arange(n_gamma) / n_gamma
    return [
        RotationZYZ(a, b, g) for a in alphas for b in betas for g in gammas
    ]
