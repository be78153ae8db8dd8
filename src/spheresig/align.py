"""Shape alignment by correlation of spherical feature maps over rotations.

The correlation score of two coefficient sets at a rotation r is the real
part of the Hermitian inner product between the rotated first set and the
second, summed over channels and feature maps; by Parseval this equals the
spatial quadrature inner product.  For a ZYZ lattice the score factorizes:
with T[m', m] = sum_l d^l_{m'm}(beta) a^l_m conj(b^l_{m'}), the score at
(alpha, beta, gamma) is sum_{m'm} exp(-i(m' alpha + m gamma)) T[m', m],
a two-dimensional Fourier sum per beta row, which this module evaluates
directly for arbitrary angle lists.

The returned rotation maximizes the score over a coarse lattice followed by
one local refinement pass on a three-times-finer lattice around the best
cell.  Ties, scores within 1e-12 (relative) of the maximum, break toward the
lexicographically smallest (alpha, beta, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .harmonics import shared_table
from .mesh import TriangleMesh, project_mesh
from .rotation import RotationZYZ, _small_d_many, geodesic_distance
from .sft import SpectralCoeffs, sft_sepvar

DEGENERATE_SPREAD = 1e-3


@dataclass
class AlignmentResult:
    rotation: RotationZYZ
    score: float
    degenerate: bool = False
    angular_error_deg: float | None = None
    per_rotation_scores: np.ndarray | None = field(default=None, repr=False)


def _score_lattice(
    a_list: list[SpectralCoeffs],
    b_list: list[SpectralCoeffs],
    alphas: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
) -> np.ndarray:
    """Correlation scores on the outer-product rotation lattice (A, B, G)."""
    bw = a_list[0].bandwidth
    ms = np.arange(-(bw - 1), bw)
    # T[beta, m', m] accumulated over degrees, channels, and list entries.
    t = np.zeros((len(betas), 2 * bw - 1, 2 * bw - 1), dtype=np.complex128)
    for l in range(bw):
        d = _small_d_many(l, betas)  # (B, 2l+1, 2l+1)
        sl = slice(bw - 1 - l, bw + l)
        outer = np.zeros((2 * l + 1, 2 * l + 1), dtype=np.complex128)
        for a_c, b_c in zip(a_list, b_list):
            if a_c.bandwidth != bw or b_c.bandwidth != bw:
                raise ValueError("all coefficient sets must share one bandwidth")
            if a_c.channels != b_c.channels:
                raise ValueError("channel count mismatch between the two sides")
            seg_a = a_c.coeffs[:, l * l : (l + 1) * (l + 1)]
            seg_b = b_c.coeffs[:, l * l : (l + 1) * (l + 1)]
            outer += np.einsum("cm,cp->pm", seg_a, np.conj(seg_b))
        t[:, sl, sl] += d * outer
    ea = np.exp(-1j * np.outer(alphas, ms))  # (A, M')
    eg = np.exp(-1j * np.outer(gammas, ms))  # (G, M)
    scores = (ea @ t) @ eg.T  # (B, A, G)
    return scores.real.transpose(1, 0, 2)


def _first_max(scores: np.ndarray) -> tuple[int, ...]:
    """Index of the lexicographically first score within roundoff of the maximum.

    At beta = 0 every (alpha, gamma) with the same alpha + gamma is one
    rotation, so exact ties are structural; the tolerance keeps the choice
    independent of the order in which a kernel sums.
    """
    top = scores.max()
    first = np.flatnonzero(scores.ravel() >= top - 1e-12 * max(abs(top), 1.0))[0]
    return tuple(int(x) for x in np.unravel_index(first, scores.shape))


def _refine(
    a_list, b_list, best: tuple[float, float, float], steps: tuple[float, float, float]
) -> tuple[RotationZYZ, float]:
    """One pass on a 3x finer local lattice spanning one coarse cell around the best."""
    a0, b0, g0 = best
    da, db, dg = steps
    offs = np.arange(-3, 4) / 3.0
    alphas = a0 + offs * da
    betas = np.clip(b0 + offs * db, 0.0, np.pi)
    gammas = g0 + offs * dg
    scores = _score_lattice(a_list, b_list, alphas, betas, gammas)
    i, j, k = _first_max(scores)
    return RotationZYZ(alphas[i], betas[j], gammas[k]), float(scores[i, j, k])


def so3_correlate(
    a: list[SpectralCoeffs] | SpectralCoeffs,
    b: list[SpectralCoeffs] | SpectralCoeffs,
    grid_size: tuple[int, int, int] = (16, 16, 16),
    refine: bool = True,
    keep_scores: bool = False,
) -> AlignmentResult:
    """Rotation maximizing the summed feature-map correlation of ``a`` against ``b``."""
    a_list = [a] if isinstance(a, SpectralCoeffs) else list(a)
    b_list = [b] if isinstance(b, SpectralCoeffs) else list(b)
    if len(a_list) != len(b_list):
        raise ValueError("feature lists must have equal length")
    na, nb, ng = grid_size
    alphas = 2 * np.pi * np.arange(na) / na
    betas = np.pi * np.arange(nb) / nb
    gammas = 2 * np.pi * np.arange(ng) / ng
    scores = _score_lattice(a_list, b_list, alphas, betas, gammas)
    i, j, k = _first_max(scores)
    best_rot = RotationZYZ(alphas[i], betas[j], gammas[k])
    best_score = float(scores[i, j, k])
    spread = float(scores.max() - scores.min())
    median = float(np.median(scores))
    degenerate = bool(spread <= 0 or (scores.max() - median) / spread < DEGENERATE_SPREAD)
    if refine and not degenerate:
        best_rot, refined = _refine(
            a_list,
            b_list,
            (alphas[i], betas[j], gammas[k]),
            (2 * np.pi / na, np.pi / nb, 2 * np.pi / ng),
        )
        best_score = max(best_score, refined)
    return AlignmentResult(
        rotation=best_rot,
        score=best_score,
        degenerate=degenerate,
        per_rotation_scores=scores.ravel() if keep_scores else None,
    )


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
    result = so3_correlate([feats[0]], [feats[1]], grid_size=grid_size)
    if truth is not None:
        result.angular_error_deg = geodesic_distance(result.rotation, truth, degrees=True)
    return result
