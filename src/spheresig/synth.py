"""Synthetic meshes and labeled spherical-signal datasets for tests and demos."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .harmonics import shared_table
from .mesh import TriangleMesh
from .sft import SphericalSignal, SpectralCoeffs, isft, random_coeffs


# ---------------------------------------------------------------------------
# Meshes.
# ---------------------------------------------------------------------------


def icosphere(subdivisions: int = 3) -> TriangleMesh:
    """Unit icosahedron subdivided ``subdivisions`` times, vertices on the sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))


def cube_mesh(half_edge: float = 1.0) -> TriangleMesh:
    s = half_edge
    verts = np.array(
        [[x, y, z] for x in (-s, s) for y in (-s, s) for z in (-s, s)], dtype=np.float64
    )
    quads = [
        (0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3),
    ]
    faces = []
    for a, b, c, d in quads:
        faces += [(a, b, c), (a, c, d)]
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def _uv_sphere_topology(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and faces of a UV sphere with pole caps; radii applied later."""
    thetas = np.pi * np.arange(1, n_theta) / n_theta
    dirs = [np.array([0.0, 0.0, 1.0])]
    for th in thetas:
        for k in range(n_phi):
            ph = 2 * np.pi * k / n_phi
            dirs.append(
                np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            )
    dirs.append(np.array([0.0, 0.0, -1.0]))
    south = len(dirs) - 1

    def ring(i: int, k: int) -> int:
        return 1 + i * n_phi + (k % n_phi)

    faces = []
    for k in range(n_phi):
        faces.append((0, ring(0, k), ring(0, k + 1)))
    for i in range(n_theta - 2):
        for k in range(n_phi):
            a, bb = ring(i, k), ring(i, k + 1)
            c, d = ring(i + 1, k), ring(i + 1, k + 1)
            faces += [(a, c, d), (a, d, bb)]
    for k in range(n_phi):
        faces.append((south, ring(n_theta - 2, k + 1), ring(n_theta - 2, k)))
    return np.array(dirs), np.array(faces, dtype=np.int64)


def star_mesh(
    seed: int,
    n_theta: int = 24,
    n_phi: int = 48,
    amplitude: float = 0.35,
    sharpness: tuple[float, float] = (6.0, 12.0),
) -> TriangleMesh:
    """Random star-shaped mesh: radial bump field over a UV sphere.

    Star-shapedness holds by construction (the radius field is positive), and
    the random placement of its 5 bumps leaves no rotational symmetry.
    ``sharpness`` sets the bump concentration range; lower values give
    smoother shapes whose projections resolve better at a given grid bandwidth.
    """
    rng = np.random.default_rng(seed)
    dirs, faces = _uv_sphere_topology(n_theta, n_phi)
    centers = rng.standard_normal((5, 3))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    amp = rng.uniform(0.4 * amplitude, amplitude, size=len(centers))
    kappa = rng.uniform(*sharpness, size=len(centers))
    r = 1.0 + (amp[None, :] * np.exp(kappa[None, :] * (dirs @ centers.T - 1.0))).sum(axis=1)
    return TriangleMesh(r[:, None] * dirs, faces)


# ---------------------------------------------------------------------------
# Labeled spherical-signal datasets.
# ---------------------------------------------------------------------------


@dataclass
class SignalDataset:
    bandwidth: int
    classes: list[str]
    signals: list[SphericalSignal] = field(repr=False)
    labels: np.ndarray = field(repr=False)


BLOB_CLASSES = [  # (number of bumps, sharpness): distinct invariant signatures
    (2, 3.0),
    (5, 8.0),
    (9, 18.0),
]


def _blob_signal(rng: np.random.Generator, n_bumps: int, kappa: float,
                 canonical: np.ndarray | None, table) -> SphericalSignal:
    grid = table.grid
    dirs = grid.directions()
    if canonical is None:
        centers = rng.standard_normal((n_bumps, 3))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    else:
        # jitter the canonical constellation slightly
        centers = canonical + 0.06 * rng.standard_normal(canonical.shape)
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    amp = rng.uniform(0.8, 1.2, size=n_bumps)
    vals = (amp[None, None, :] * np.exp(kappa * (dirs @ centers.T - 1.0))).sum(axis=-1)
    return SphericalSignal(grid, vals[None])


def make_blob_dataset(
    b: int,
    count_per_class: int,
    seed: int,
    classes: list[tuple[int, float]] | None = None,
    canonical_pose: bool = True,
) -> SignalDataset:
    """Bump-mixture classes distinguished by bump count and sharpness.

    With ``canonical_pose`` every sample keeps the class's fixed constellation
    (plus jitter), so orientation diversity must come from augmentation;
    without it, constellations are drawn fresh per sample.
    """
    classes = BLOB_CLASSES if classes is None else classes
    table = shared_table(b)
    rng = np.random.default_rng(seed)
    canon = []
    for n_bumps, _ in classes:
        c = rng.standard_normal((n_bumps, 3))
        canon.append(c / np.linalg.norm(c, axis=1, keepdims=True))
    signals, labels = [], []
    for ci, (n_bumps, kappa) in enumerate(classes):
        for _ in range(count_per_class):
            sig = _blob_signal(rng, n_bumps, kappa, canon[ci] if canonical_pose else None, table)
            signals.append(sig)
            labels.append(ci)
    names = [f"blobs{n}k{kappa:g}" for n, kappa in classes]
    return SignalDataset(b, names, signals, np.array(labels))


HARMONIC_DEGREE_SETS = [[1, 2], [3, 4], [5, 6], [7, 8], [2, 5]]


def check_degree_sets(degree_sets: list[list[int]], b: int) -> None:
    """ValueError unless every degree of ``degree_sets`` is below the bandwidth ``b``."""
    top = max((l for degs in degree_sets for l in degs), default=0)
    if top >= b:
        raise ValueError(f"degree {top} needs a bandwidth of at least {top + 1}, got {b}")


def make_harmonic_dataset(
    b: int, count_per_class: int, seed: int, degree_sets: list[list[int]] | None = None
) -> SignalDataset:
    """Classes with energy confined to distinct harmonic degree sets; every
    degree must be below the bandwidth ``b``."""
    if degree_sets is None:
        degree_sets = HARMONIC_DEGREE_SETS[:3]
    check_degree_sets(degree_sets, b)
    table = shared_table(b)
    rng = np.random.default_rng(seed)
    signals, labels = [], []
    for ci, degs in enumerate(degree_sets):
        for _ in range(count_per_class):
            c = random_coeffs(b, 1, rng)
            mask = np.zeros(b * b)
            for l in degs:
                mask[l * l : (l + 1) * (l + 1)] = 1.0
            c = SpectralCoeffs(b, c.coeffs * mask)
            signals.append(isft(c, table))
            labels.append(ci)
    names = ["deg" + "_".join(map(str, d)) for d in degree_sets]
    return SignalDataset(b, names, signals, np.array(labels))
