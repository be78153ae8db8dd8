"""Rotation of spherical spectra and signals, in real arithmetic on half spectra.

Rotations use ZYZ Euler angles, R = Rz(alpha) Ry(beta) Rz(gamma).  Degree l's
coefficients c_m (m = -l .. l) transform by exp(-i alpha Jz) exp(-i beta Jy)
exp(-i gamma Jz), realizing f -> f o R^{-1}.  A real signal's degree l is 2l+1
real slots, Re and Im of s_m = i^m sqrt(2) c_m for m = 0 .. l (s_0 = c_0, real).
There the block is Z(alpha) K^T Z(beta) K Z(gamma) (Pinchon & Hoggan, "Rotation
matrices for real spherical harmonics", J. Phys. A 40, 2007): Z(t) multiplies
s_m by exp(-i m t), and K^l, the block of the rotation (-pi/2, pi/2, pi/2), is
real orthogonal and maps Re slots to Re slots, Im to Im.  ``_apply_k`` applies
K, _BAND degrees at a time in one batched real matmul; ``_rotate_half`` rotates
a half spectrum with it (at beta = 0 one exact phase), and ``align`` scores its
rotation lattices with it.  ``rotate_packed`` is the packed entry (input that is
not conjugate-symmetric goes as its parts c1 + i c2, ``_real_parts``).
``wigner_d`` forms one degree's block in the coefficient basis from
``_small_d_many``, the eigendecomposition of Jy: the reference that the K path
is tested against.  Each array is rotated on its own, so its result does not
depend on what else is rotated.  Caches are immutable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sft import SpectralCoeffs, SphericalSignal, _analysis_half, _check_match, _synthesis_half
from .sft import conj_mirror, to_half, to_packed

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
        a, g = min(self.alpha, _TWO_PI - self.alpha), min(self.gamma, _TWO_PI - self.gamma)
        return max(a, self.beta, g) <= tol


def _rz(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_from_matrix(r: np.ndarray) -> RotationZYZ:
    """ZYZ angles of a rotation matrix (beta in [0, pi]; gamma = 0 when degenerate)."""
    r = np.asarray(r, dtype=np.float64)
    beta = float(np.arccos(np.clip(r[2, 2], -1.0, 1.0)))
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


@functools.cache
def _jy_eig(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (snapped to the exact integers -l..l) and eigenvectors of Jy."""
    m = np.arange(-l, l + 1, dtype=np.float64)
    cp = np.sqrt(l * (l + 1.0) - m[:-1] * (m[:-1] + 1.0))  # raising coefficients
    w, v = np.linalg.eigh(np.diag(-0.5j * cp, -1) + np.diag(0.5j * cp, 1))
    w = np.round(w)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _small_d_many(l: int, betas: np.ndarray) -> np.ndarray:
    """Stack of small-d matrices for several beta values, shape (B, 2l+1, 2l+1)."""
    w, v = _jy_eig(l)
    phase = np.exp(-1j * np.asarray(betas)[:, None] * w[None, :])
    return ((v * phase[:, None, :]) @ v.conj().T).real


_BAND = 8  # degrees per batched product with K
_I_POW = np.array([1, 1j, -1, -1j])  # i^m, indexed by m % 4


def _real_k(l: int) -> np.ndarray:
    """K^l on degree l's real slots, ordered Re m = 0 .. l, then Im m = 1 .. l."""
    w, v = _jy_eig(l)
    m = np.arange(l + 1)
    p, q = (-1.0) ** m[:, None] * v[l + m], v[l - m]
    a = np.concatenate([p + q, -1j * (p[1:] - q[1:])]) / np.sqrt(2.0)  # U diag(i^m) V
    a[0] = v[l]
    return ((a * np.exp(-0.5j * np.pi * w)) @ a.conj().T).real


@functools.cache
def _k_band(j: int) -> np.ndarray:
    """Re and Im blocks of K^l for the l of band j, zero-padded: (_BAND, 2, n, n)."""
    n = (j + 1) * _BAND
    kb = np.zeros((_BAND, 2, n, n))
    for l in range(j * _BAND, n):
        k = _real_k(l)
        kb[l % _BAND, 0, : l + 1, : l + 1] = k[: l + 1, : l + 1]
        kb[l % _BAND, 1, 1 : l + 1, 1 : l + 1] = k[l + 1 :, l + 1 :]
    kb.setflags(write=False)
    return kb


def _slot_factor(b: int) -> np.ndarray:
    """i^m sqrt(2) for the orders m = 1 .. b-1 and 1 at m = 0, shape (b, 1, 1): the
    factor that takes a half spectrum's c_m to the slot s_m."""
    m = np.arange(b)
    return (_I_POW[m % 4] * np.where(m > 0, np.sqrt(2.0), 1.0))[:, None, None]


def _apply_k(s: np.ndarray, transpose: bool = False) -> np.ndarray:
    """K^l, or its transpose, applied to every degree l of slots s (b, b, X),
    complex s_m stored m-major like a half spectrum: one batched real matmul per
    band of _BAND degrees, on the Re and Im blocks at once."""
    b, nx = s.shape[0], s.shape[2]
    nb = -(-b // _BAND) * _BAND  # b rounded up to whole bands of degrees
    x = np.zeros((nb // _BAND, _BAND, 2, nb, nx))  # [band, l, Re or Im, m, X]
    y = np.zeros_like(x)
    out = np.empty_like(s)
    s_in, s_out = (v.view(np.float64).reshape(b, b, nx, 2).transpose(1, 3, 0, 2) for v in (s, out))
    x.reshape(nb, 2, nb, nx)[:b, :, :b] = s_in
    for j, n in enumerate(range(_BAND, nb + 1, _BAND)):
        k = _k_band(j)
        np.matmul(k.transpose(0, 1, 3, 2) if transpose else k, x[j, :, :, :n], out=y[j, :, :, :n])
    s_out[:] = y.reshape(nb, 2, nb, nx)[:b, :, :b]
    return out


def _rotate_half(half: np.ndarray, r: RotationZYZ) -> np.ndarray:
    """Apply ``r`` to a half spectrum (b, b, ...) of real signals."""
    b = half.shape[0]
    h, m = half.reshape(b, b, -1), np.arange(b)[:, None, None]
    if r.beta == 0.0:
        return (h * np.exp(-1j * m * (r.alpha + r.gamma))).reshape(half.shape)
    to_slots = _slot_factor(b)
    s = _apply_k(h * (to_slots * np.exp(-1j * m * r.gamma)))
    t = m * r.beta  # Z(beta): s e^{-i m beta}, each part rounded as a real plane rotation
    s = _apply_k(s * np.cos(t) - 1j * s * np.sin(t), transpose=True)
    s *= np.exp(-1j * m * r.alpha) / to_slots
    return s.reshape(half.shape)


def wigner_d(l: int, r: RotationZYZ) -> np.ndarray:
    """Unitary (2l+1, 2l+1) representation matrix of ``r`` on degree-l coefficients:
    P(alpha) d^l(beta) P(gamma), P(t) = diag(exp(-i m t)), d^l from ``_small_d_many``."""
    if l < 0:
        raise ValueError("degree must be nonnegative")
    m = np.arange(-l, l + 1)
    if r.beta == 0.0:
        return np.diag(np.exp(-1j * m * (r.alpha + r.gamma)))
    pa, pg = (np.exp(-1j * m * t) for t in (r.alpha, r.gamma))
    return pa[:, None] * _small_d_many(l, [r.beta])[0] * pg


def _real_parts(*arrays: np.ndarray) -> list[np.ndarray]:
    """Half spectra (b, b, P, ...) of packed arrays (..., b*b): each array itself
    (P = 1) when all equal their mirrors, else its conjugate-symmetric parts c1
    and c2 with c = c1 + i c2 (P = 2), which rotation maps to the rotated parts."""
    mirrors = [conj_mirror(c) for c in arrays]
    if all(map(np.array_equal, arrays, mirrors)):
        return [to_half(c[None]) for c in arrays]
    return [to_half(np.stack([0.5 * (c + cm), -0.5j * (c - cm)])) for c, cm in zip(arrays, mirrors)]


def rotate_packed(arrays: list[np.ndarray], r: RotationZYZ) -> list[np.ndarray]:
    """Apply ``r`` to packed coefficient arrays (..., b*b) of any bandwidths, exactly for
    bandlimited content; one not conjugate-symmetric goes as its parts c1 + i c2."""
    outs = []
    for a in arrays:
        if math.isqrt(a.shape[-1]) ** 2 != a.shape[-1]:
            raise ValueError(f"packed length {a.shape[-1]} is not a square")
        s = to_packed(_rotate_half(_real_parts(a)[0], r))
        outs.append(s[0] if len(s) == 1 else s[0] + 1j * s[1])
    return outs


def rotate_spectrum(coeffs, r: RotationZYZ):
    """Apply ``r`` per degree block; exact for bandlimited content."""
    return SpectralCoeffs(coeffs.bandwidth, rotate_packed([coeffs.coeffs], r)[0])


def rotate_signal(signal, r: RotationZYZ, table):
    """Rotate a sampled signal: analysis, ``_rotate_half``, synthesis of the orders
    m >= 0; exact for bandlimited signals, which analysis makes of any."""
    _check_match(signal.bandwidth, table)
    vals = _synthesis_half(_rotate_half(_analysis_half(signal.values, table), r), table)
    return SphericalSignal(table.grid, vals.astype(signal.values.dtype, copy=False))


# ---------------------------------------------------------------------------
# Rotation sampling.
# ---------------------------------------------------------------------------


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_rotations(count: int, seed: int | None = None) -> list[RotationZYZ]:
    """Haar-uniform rotations via normalized 4D Gaussian quaternions."""
    qs = np.random.default_rng(seed).standard_normal((count, 4))
    return [rotation_from_matrix(quaternion_to_matrix(q / np.linalg.norm(q))) for q in qs]


def rotation_grid(n_alpha: int, n_beta: int, n_gamma: int) -> list[RotationZYZ]:
    """ZYZ lattice: alpha, gamma uniform over [0, 2pi), beta over [0, pi), in
    lexicographic (alpha, beta, gamma) order; (1, 1, 1) is the identity alone."""
    if min(n_alpha, n_beta, n_gamma) < 1:
        raise ValueError("grid counts must be positive")
    alphas = _TWO_PI * np.arange(n_alpha) / n_alpha
    betas = np.pi * np.arange(n_beta) / n_beta
    gammas = _TWO_PI * np.arange(n_gamma) / n_gamma
    return [RotationZYZ(a, b, g) for a in alphas for b in betas for g in gammas]
