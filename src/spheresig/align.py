"""Shape alignment by correlation of spherical feature maps over rotations.

The correlation score of two coefficient sets at a rotation r is the real
part of the Hermitian inner product between the rotated first set and the
second, summed over channels and feature maps; by Parseval this equals the
spatial quadrature inner product.  On real slots r is Z(alpha) K^T Z(beta) K
Z(gamma) (see ``rotation``); Z(alpha)^T = Z(-alpha) and K is orthogonal, so the
score is <Z(beta) K Z(gamma) a, K Z(-alpha) b>.  A lattice search turns a
once with every gamma and b once with every -alpha (``rotation._turn``), forms
W[m] = V[m]^H U[m] per order m, and sums Re exp(-i m beta) W[m] for each beta.
``so3_correlate(a, b)`` takes one coefficient set per side; several feature
maps of one bandwidth are more channels.

The returned rotation maximizes the score over a coarse lattice, then over a
three-times-finer lattice spanning one coarse cell around the best point, its
alpha and gamma axes reduced mod 2pi and sorted.  Ties, scores within 1e-12
(relative) of the maximum, break toward the first index, which on sorted axes
is the lexicographically smallest (alpha, beta, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import shared_table
from .mesh import TriangleMesh, project_mesh
from .rotation import RotationZYZ, _turn, geodesic_distance
from .sft import SpectralCoeffs, _real_parts, sft_sepvar

DEGENERATE_SPREAD = 1e-3


@dataclass
class AlignmentResult:
    rotation: RotationZYZ
    score: float
    degenerate: bool = False
    angular_error_deg: float | None = None


def _score_lattice(
    a: np.ndarray, b: np.ndarray, alphas: np.ndarray, betas: np.ndarray, gammas: np.ndarray
) -> np.ndarray:
    """Scores <R a, b> on the outer-product rotation lattice (A, B, G), for half
    spectra a and b (bw, bw, X) of real signals."""
    bw, x = a.shape[0], a.shape[2]
    kb, ka = (_turn(h, t).reshape(bw, bw * x, -1) for h, t in ((b, -alphas), (a, gammas)))
    w = kb.conj().transpose(0, 2, 1) @ ka  # (M, A, G)
    scores = (np.exp(-1j * np.outer(betas, np.arange(bw))) @ w.reshape(bw, -1)).real  # Z(beta)
    return scores.reshape(len(betas), len(alphas), len(gammas)).transpose(1, 0, 2)


def _first_max(scores: np.ndarray) -> tuple[int, ...]:
    """Index of the lexicographically first score within roundoff of the maximum.

    At beta = 0 every (alpha, gamma) with the same alpha + gamma is one
    rotation, so exact ties are structural; the tolerance keeps the choice
    independent of the order in which a kernel sums.
    """
    top = scores.max()
    first = np.flatnonzero(scores.ravel() >= top - 1e-12 * max(abs(top), 1.0))[0]
    return tuple(int(x) for x in np.unravel_index(first, scores.shape))


def so3_correlate(
    a: SpectralCoeffs, b: SpectralCoeffs, grid_size: tuple[int, int, int] = (16, 16, 16)
) -> AlignmentResult:
    """Rotation maximizing the summed feature-map correlation of ``a`` against ``b``."""
    bw = a.bandwidth
    if b.bandwidth != bw or a.channels != b.channels:
        raise ValueError("coefficient sets need one bandwidth and equal channels")
    ha, hb = (h.reshape(bw, bw, -1) for h in _real_parts(a.coeffs, b.coeffs))
    na, nb, ng = grid_size
    alphas = 2 * np.pi * np.arange(na) / na
    betas = np.pi * np.arange(nb) / nb
    gammas = 2 * np.pi * np.arange(ng) / ng
    scores = _score_lattice(ha, hb, alphas, betas, gammas)
    i, j, k = _first_max(scores)
    best_rot = RotationZYZ(alphas[i], betas[j], gammas[k])
    best_score = float(scores[i, j, k])
    spread = float(scores.max() - scores.min())
    median = float(np.median(scores))
    degenerate = bool(spread <= 0 or (scores.max() - median) / spread < DEGENERATE_SPREAD)
    if not degenerate:
        offs = np.arange(-3, 4) / 3.0
        fine_a = np.sort((alphas[i] + offs * (2 * np.pi / na)) % (2 * np.pi))
        fine_b = np.clip(betas[j] + offs * (np.pi / nb), 0.0, np.pi)
        fine_g = np.sort((gammas[k] + offs * (2 * np.pi / ng)) % (2 * np.pi))
        fine = _score_lattice(ha, hb, fine_a, fine_b, fine_g)
        fi, fj, fk = _first_max(fine)
        best_rot = RotationZYZ(fine_a[fi], fine_b[fj], fine_g[fk])
        best_score = max(best_score, float(fine[fi, fj, fk]))
    return AlignmentResult(rotation=best_rot, score=best_score, degenerate=degenerate)


def align_shapes(
    mesh_a: TriangleMesh,
    mesh_b: TriangleMesh,
    b: int = 32,
    net=None,
    params=None,
    layer: str = "input",
    grid_size: tuple[int, int, int] = (16, 16, 16),
    truth: RotationZYZ | None = None,
) -> AlignmentResult:
    """End-to-end alignment: project both meshes, collect features, correlate.

    With a network, features come from the named tap; otherwise the raw
    two-channel input representation is correlated.  The estimated rotation
    maps shape A onto shape B.  When ``truth`` is given, the geodesic error
    in degrees is reported alongside.
    """
    from .network import forward

    feats = []
    for mesh in (mesh_a, mesh_b):
        rep = project_mesh(mesh, b)
        if net is None or layer == "input":
            sig = rep.signal
        else:
            _, taps = forward(net, params, rep.signal)
            if layer not in taps:
                raise ValueError(f"unknown tap {layer!r}; have {sorted(taps)}")
            sig = taps[layer]
        feats.append(sft_sepvar(sig, shared_table(sig.bandwidth)))
    result = so3_correlate(feats[0], feats[1], grid_size=grid_size)
    if truth is not None:
        result.angular_error_deg = geodesic_distance(result.rotation, truth, degrees=True)
    return result
