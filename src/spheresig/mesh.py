"""Triangle meshes and their conversion to two-channel spherical functions.

Rays are cast from the bounding-sphere center along every grid direction.
Each direction records the distance to the farthest intersection (normalized
by the bounding radius, so values lie in [0, 1]) and the sine of the ray's
incidence angle at that face, measured from the tangent plane, i.e.
|cos(ray, normal)|.  Directions that miss the mesh store zeros in both
channels; the representation is faithful for star-shaped objects viewed from
the center and remains defined (if lossy) otherwise.

The hit test is Moller-Trumbore's, run as three dot products of the ray with
per-face rows divided by the face's |e1 x e2| (``_hit_table``), so its
determinant is a cosine and its distance floor scales with the face: no
threshold has a unit, and a mesh projects the same at any size.  Hits within
a relative 1e-12 of the farthest are one tie, and the tie goes to the lowest
face index.  So a ray through a shared edge or vertex records the same face,
hence the same incidence, in every pose that maps the grid onto itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .grid import make_grid
from .sft import SphericalSignal

_EPS = 1e-12


@dataclass
class TriangleMesh:
    """Vertex/face soup with finite vertices; degenerate (zero-area) faces are
    dropped on build."""

    vertices: np.ndarray
    faces: np.ndarray
    dropped_faces: int = 0
    projection_offset: np.ndarray | None = None  # shift of the projection center (augment's jitter)

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=np.float64)
        f = np.asarray(self.faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (N, 3), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        if f.size == 0:
            f = f.reshape(0, 3)
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"faces must be (M, 3), got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face index out of range")
        if f.size:
            # Each face is judged by its own size: twice its area against its
            # longest edge squared, so the rule holds under any translation
            # and scale.
            e1, e2 = v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]
            area2 = np.linalg.norm(np.cross(e1, e2), axis=1)
            edge2 = np.stack([e1, e2, e2 - e1]) ** 2
            keep = area2 > _EPS * edge2.sum(axis=-1).max(axis=0)
            dropped = int((~keep).sum())
            if dropped:
                warnings.warn(f"dropped {dropped} degenerate faces", stacklevel=2)
                f = f[keep]
            self.dropped_faces = dropped
        self.vertices = v
        self.faces = f

    def transformed(self, r: np.ndarray) -> "TriangleMesh":
        """Mesh with vertices mapped through the 3x3 matrix ``r``; a recorded
        ``projection_offset`` is mapped with them."""
        r = np.asarray(r)
        offset = self.projection_offset
        return TriangleMesh(
            self.vertices @ r.T,
            self.faces,
            projection_offset=None if offset is None else r @ offset,
        )


@dataclass
class SphericalRepresentation:
    """Projected mesh: channel 0 = normalized farthest-hit distance,
    channel 1 = sine of the incidence angle from the tangent plane."""

    signal: SphericalSignal
    center: np.ndarray = field(repr=False)
    radius: float = 0.0


# ---------------------------------------------------------------------------
# File loading: ASCII OFF, and the v/f subset of OBJ.  Polygons with more
# than three sides are fan-triangulated.
# ---------------------------------------------------------------------------


def load_off(path: str) -> TriangleMesh:
    tokens: list[str] = []
    lines: list[int] = []  # source line of each token
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                words = line.split()
                tokens.extend(words)
                lines.extend([lineno] * len(words))

    def number(kind, i: int):
        try:
            return kind(tokens[i])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            msg = f"{path}: line {lines[i]}: expected {what}, got {tokens[i]!r}"
            raise ValueError(msg) from None

    if not tokens or tokens[0] != "OFF":
        raise ValueError(f"{path}: missing OFF header")
    if len(tokens) < 4:
        raise ValueError(f"{path}: OFF header needs vertex, face and edge counts")
    nv, nf = number(int, 1), number(int, 2)
    if nv < 0 or nf < 0:
        raise ValueError(f"{path}: negative vertex or face count")
    pos = 4
    if len(tokens) < pos + 3 * nv:
        raise ValueError(f"{path}: file ends before its {nv} vertices")
    verts = np.array([number(float, i) for i in range(pos, pos + 3 * nv)]).reshape(nv, 3)
    pos += 3 * nv
    faces: list[tuple[int, int, int]] = []
    for fi in range(nf):
        if pos >= len(tokens):
            raise ValueError(f"{path}: file ends after {fi} of its {nf} faces")
        k = number(int, pos)
        if k < 0:
            raise ValueError(f"{path}: line {lines[pos]}: face {fi} declares {k} indices")
        end = pos + 1 + k
        if end > len(tokens) or lines[end - 1] != lines[pos]:
            raise ValueError(
                f"{path}: line {lines[pos]}: face {fi} has fewer than the {k} indices it declares"
            )
        idx = [number(int, i) for i in range(pos + 1, end)]
        if any(i < 0 or i >= nv for i in idx):
            raise ValueError(
                f"{path}: line {lines[pos]}: face index out of range for {nv} vertices"
            )
        pos = end
        while pos < len(tokens) and lines[pos] == lines[end - 1]:
            pos += 1  # optional per-face colour values
        for i in range(1, k - 1):
            faces.append((idx[0], idx[i], idx[i + 1]))
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def load_obj(path: str) -> TriangleMesh:
    verts: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    face_lines: list[int] = []  # source line of each triangle
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0] not in ("v", "f"):
                continue
            try:
                if parts[0] == "v":
                    if len(parts) < 4:
                        raise ValueError(f"vertex needs 3 coordinates, got {len(parts) - 1}")
                    verts.append([float(x) for x in parts[1:4]])
                    continue
                idx = [int(p.split("/", 1)[0]) for p in parts[1:]]
                if 0 in idx:
                    raise ValueError("face index 0 (OBJ indices start at 1)")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            idx = [i - 1 if i > 0 else len(verts) + i for i in idx]
            for i in range(1, len(idx) - 1):
                faces.append((idx[0], idx[i], idx[i + 1]))
                face_lines.append(lineno)
    if not verts:
        raise ValueError(f"{path}: no vertices found")
    # checked on the Python ints: an index past int64 must be an error, not
    # an OverflowError from the array conversion
    for face, lineno in zip(faces, face_lines):
        if not all(0 <= i < len(verts) for i in face):
            raise ValueError(
                f"{path}: line {lineno}: face index out of range for {len(verts)} vertices"
            )
    return TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64).reshape(-1, 3))


def load_mesh(path: str) -> TriangleMesh:
    if path.endswith(".off"):
        return load_off(path)
    if path.endswith(".obj"):
        return load_obj(path)
    raise ValueError(f"unsupported mesh format: {path}")


# ---------------------------------------------------------------------------
# Minimum enclosing sphere, computed by support-set pivoting: repeatedly
# solve the exact smallest sphere of the current support (at most 4 points)
# plus the point farthest outside it (Welzl 1991; Gartner 1999).  Exact up to
# roundoff, unlike Ritter-style constructions.  The small problems run on
# Python float triples, where a closed-form circumcenter costs less than one
# numpy call, and every containment test is relative to the radius, so the
# sphere does not depend on the mesh's position or size.
# ---------------------------------------------------------------------------


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _circumsphere(pts):
    """Smallest sphere with all of ``pts`` (1..4 float triples) on its
    boundary, as (center, radius); None when the points are affinely
    dependent (coincident, collinear or coplanar), where no such sphere is
    unique.  The minimum sphere's support is always independent, so the
    callers lose nothing by skipping those subsets.

    The center is solved relative to ``p0 = pts[0]``, so no absolute
    coordinate cancels: with d_i = q_i - p0 it is p0 + x, where x is d_1 / 2
    for two points, (|a|^2 (b x n) + |b|^2 (n x a)) / (2 |n|^2) with n = a x b
    for three, and (|a|^2 (b x c) + |b|^2 (c x a) + |c|^2 (a x b)) /
    (2 a . (b x c)) for four.  The radius is |x|.
    """
    p0 = pts[0]
    d = [(q[0] - p0[0], q[1] - p0[1], q[2] - p0[2]) for q in pts[1:]]
    if len(d) < 2:
        x = tuple(0.5 * v for v in d[0]) if d else (0.0, 0.0, 0.0)
    else:
        if len(d) == 2:
            a, b = d
            n = _cross(a, b)
            terms = ((_dot(a, a), _cross(b, n)), (_dot(b, b), _cross(n, a)))
            den = 2.0 * _dot(n, n)
        else:
            a, b, c = d
            bc = _cross(b, c)
            terms = ((_dot(a, a), bc), (_dot(b, b), _cross(c, a)), (_dot(c, c), _cross(a, b)))
            den = 2.0 * _dot(a, bc)
        if den == 0.0:
            return None
        x = tuple(sum(w * v[i] for w, v in terms) / den for i in range(3))
    return (p0[0] + x[0], p0[1] + x[1], p0[2] + x[2]), math.sqrt(_dot(x, x))


def _min_sphere_small(pts):
    """Exact minimum sphere of at most 5 points (float triples) whose last
    point lies on its boundary, by trying the subsets that hold that point.

    ``bounding_sphere`` passes the support plus the point outside it, and a
    point outside the minimum sphere of the others lies on the boundary of
    the minimum sphere of all (Welzl 1991).  The candidate spheres, in the
    order ``[*sub, last]`` over subsets of growing size, are stable-sorted by
    radius, and the first that holds every point within a relative 1e-10 of
    its radius wins: the smallest such sphere, the earliest among equals.
    """
    *rest, last = pts
    spheres = [
        _circumsphere([*sub, last])
        for k in range(min(len(pts), 4))
        for sub in combinations(rest, k)
    ]
    spheres = sorted((s for s in spheres if s is not None), key=lambda s: s[1])
    for c, r in spheres:
        if all(math.dist(q, c) <= r * (1 + 1e-10) for q in pts):
            return c, r
    raise AssertionError("no candidate sphere holds every point")


def bounding_sphere(mesh: TriangleMesh) -> tuple[np.ndarray, float]:
    """Center and radius of the minimum sphere enclosing all vertices.

    Each pivot adds the vertex farthest outside the sphere to the support
    and solves ``_min_sphere_small``; the support keeps the (at most 4)
    points within a relative 1e-9 of the new boundary.  Every test is
    relative to the radius, so the sphere scales and moves with the mesh.
    Duplicate vertices need no pruning: a copy of a support point is never
    outside the sphere, so it never pivots, and ``argmax`` takes the first
    of equal distances.
    """
    pts = mesh.vertices
    if len(pts) == 0:
        raise ValueError("mesh has no vertices")
    center, radius = pts[0].tolist(), 0.0
    support = [center]
    for _ in range(16 * len(pts) + 16):
        d = np.linalg.norm(pts - center, axis=1)
        far = int(np.argmax(d))
        if d[far] <= radius * (1 + 1e-10):
            break
        cand = [*support, pts[far].tolist()]
        center, radius = _min_sphere_small(cand)
        support = [q for q in cand if math.dist(q, center) >= radius * (1 - 1e-9)][-4:]
    return np.array(center), float(radius)


# ---------------------------------------------------------------------------
# Ray casting.
# ---------------------------------------------------------------------------


_CONE_MARGIN = 1e-6  # radians added to every face cone, and again to its reach
_CONE_WIDE = 0.1  # faces whose cone has cos(half-angle) <= this reach every ray
_PAIRS_PER_BLOCK = 1 << 21  # bounds the (ray, face) pairs held in memory
_TIE = 1e-12  # hits within this relative distance of the farthest are one tie


def _face_cones(
    origin: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unit axis and cos(half-angle) of a cone from ``origin`` around each face.

    The cone holds the three vertex directions, hence (being convex) every
    ray that meets the face.  Its half-angle is the widest vertex angle plus
    ``_CONE_MARGIN``, which covers the barycentric tolerance of the hit test
    and the roundoff of the vertex offsets.  Wide cones, and faces with a
    vertex at the origin (closer than 1e-6 of the face's extent, where its
    direction is unreliable), get cos = -inf so that every ray stays a
    candidate.
    """
    a0 = v0 - origin
    corners = np.stack([a0, a0 + e1, a0 + e2], axis=1)  # (F, 3 vertices, 3)
    dist = np.linalg.norm(corners, axis=2)
    scale = np.linalg.norm(a0, axis=1) + np.linalg.norm(e1, axis=1) + np.linalg.norm(e2, axis=1)
    at_origin = dist.min(axis=1) <= 1e-6 * scale
    unit = corners / np.where(dist > 0, dist, 1.0)[:, :, None]
    axis = unit.sum(axis=1)
    norm = np.linalg.norm(axis, axis=1)
    axis /= np.where(norm > 0, norm, 1.0)[:, None]
    sin = np.linalg.norm(np.cross(unit, axis[:, None, :]), axis=2)
    cos = np.einsum("fkj,fj->fk", unit, axis)
    half = np.arctan2(sin, cos).max(axis=1) + _CONE_MARGIN
    cos_half = np.cos(np.minimum(half, np.pi))
    cos_half[at_origin | (norm == 0) | (cos_half <= _CONE_WIDE)] = -np.inf
    return axis, cos_half


def _pieces(counts: np.ndarray, size: int):
    """Walk the concatenated ranges ``range(counts[i])`` in pieces of at most
    ``size`` items; each piece is (i, offset within range i) per item."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for k0 in range(0, total, size):
        k = np.arange(k0, min(k0 + size, total))
        i = np.searchsorted(ends, k, side="right")
        yield i, k - (ends[i] - counts[i])


def _hit_table(
    origin: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """(11, F) columns of the Moller-Trumbore test, one per face.

    With s = origin - v0 and n = |e1 x e2|, rows 0-8 hold the three row
    vectors (e2 x e1) / n, (e2 x s) / n and (s x e1) / n component-major: the
    x components of the three, then the y, then the z.  A unit ray's dot
    products with them are det, u det and v det, where det is the cosine
    between the ray and the face normal.  Row 9 is t det = e2 . (s x e1) / n
    and row 10 the least t that counts as a hit, 1e-12 times the face's scale
    |s| + |e1| + |e2|.
    """
    s = origin[None, :] - v0  # (F, 3)
    rows = np.stack([np.cross(e2, e1), np.cross(e2, s), np.cross(s, e1)], axis=2)  # (F, xyz, row)
    area = np.linalg.norm(rows[:, :, 0], axis=1)
    scale = np.linalg.norm(s, axis=1) + np.linalg.norm(e1, axis=1) + np.linalg.norm(e2, axis=1)
    return np.vstack([
        (rows / area[:, None, None]).reshape(-1, 9).T,
        np.einsum("fj,fj->f", e2, rows[:, :, 2]) / area,
        _EPS * scale,
    ])


def _cast_rows(
    dirs: np.ndarray, origin: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-hit distance and hit-face index for a batch of unit rays.

    Only the (ray, face) pairs inside a face's bounding cone are listed.  Rays
    of equal z form a row at colatitude theta.  A cone of half-angle h around
    an axis at colatitude theta_a, longitude phi_a reaches that row only if
    |theta - theta_a| <= h, and there only the longitudes phi_a +- arccos((cos h
    - cos theta cos theta_a) / (sin theta sin theta_a)).  With the rays sorted by
    (row, longitude), each such interval is one index range, split where it
    wraps past +-pi.  h gets ``_CONE_MARGIN`` more, and the interval the same
    again, so roundoff only adds pairs; wide cones, and rows where sin theta
    sin theta_a vanishes (the poles), take the whole row.  The (face, row)
    pairs are walked row by row and by longitude within a row, so the range
    ends arrive at ``searchsorted`` nearly sorted.

    Moller-Trumbore runs on the listed pairs, at most ``_PAIRS_PER_BLOCK`` at
    a time, as three dot products of the ray with its face's column of
    ``_hit_table``.  A pair hits where |det| > 1e-12, u >= -1e-9, v >= -1e-9,
    u + v <= 1 + 1e-9 and t is above the face's least t.  det is a cosine and
    the least t scales with the face, so no threshold has a unit.  Per ray,
    the distance is the farthest hit's t, and the face (hence the incidence
    channel) is the lowest index among the hits within a relative ``_TIE`` of
    that t; both are order-free reductions over the hits, so neither depends
    on the walk or on roundoff at a shared edge or vertex.  Returns (t, face)
    with t = -inf and face = 0 where the ray misses everything.
    """
    axis, cos_half = _face_cones(origin, v0, e1, e2)
    table = _hit_table(origin, v0, e1, e2)
    tol = 1e-9
    # One sort key per ray: its row's slot [8 row, 8 row + 8) plus 4 + longitude.
    row_z, row = np.unique(dirs[:, 2], return_inverse=True)
    row_sin = np.sqrt((1.0 - row_z) * (1.0 + row_z))
    key = 8.0 * row + 4.0 + np.arctan2(dirs[:, 1], dirs[:, 0])
    ray_order = np.argsort(key)
    key = key[ray_order]
    ray_dirs = np.ascontiguousarray(dirs[ray_order].T)  # (3 xyz, rays) in key order
    reach = np.arccos(np.maximum(cos_half, -1.0)) + _CONE_MARGIN  # > pi for wide cones
    cos_reach = np.cos(reach)
    axis_sin = np.hypot(axis[:, 0], axis[:, 1])
    axis_theta = np.arctan2(axis_sin, axis[:, 2])
    axis_phi = np.arctan2(axis[:, 1], axis[:, 0])
    # rows with |theta - theta_a| <= reach are a z range of the sorted rows
    first_row = np.searchsorted(row_z, np.cos(np.minimum(axis_theta + reach, np.pi)))
    end_row = np.searchsorted(row_z, np.cos(np.maximum(axis_theta - reach, 0.0)), "right")
    hit_ray, hit_face, hit_t = [], [], []
    by_phi = np.argsort(axis_phi)
    for fr, off in _pieces((end_row - first_row)[by_phi], _PAIRS_PER_BLOCK):
        fr = by_phi[fr]
        rw = first_row[fr] + off  # (face fr, row rw) pairs
        # row-major, by longitude within a row (a radix sort up to 65,536 rows)
        by_row = np.argsort(rw.astype(np.min_scalar_type(len(row_z))), kind="stable")
        fr, rw = fr[by_row], rw[by_row]
        den = row_sin[rw] * axis_sin[fr]
        whole = (reach[fr] >= np.pi) | (den <= 1e-12)
        num = cos_reach[fr] - row_z[rw] * axis[fr, 2]
        half = np.arccos(np.clip(num / np.where(whole, 1.0, den), -1.0, 1.0)) + _CONE_MARGIN
        whole |= half >= np.pi
        lo = np.where(whole, -4.0, axis_phi[fr] - half)
        hi = np.where(whole, 4.0, axis_phi[fr] + half)
        # an interval past -pi or +pi goes on at the row's other end: one more
        # (face, row) range, shifted by 2 pi
        past = ~whole & ((lo < -np.pi) | (hi > np.pi))
        shift = np.where(lo[past] < -np.pi, 2 * np.pi, -2 * np.pi)
        fr, rw = np.concatenate([fr, fr[past]]), np.concatenate([rw, rw[past]])
        lo = np.concatenate([lo, lo[past] + shift])
        hi = np.concatenate([hi, hi[past] + shift])
        start, stop = np.searchsorted(key, np.clip([lo, hi], -4.0, 4.0) + (8.0 * rw + 4.0))
        for k, at in _pieces(stop - start, _PAIRS_PER_BLOCK):
            i = start[k] + at  # rays in key order
            f = fr[k]
            # in place, to hold no more than the gathered columns: rows 0-2
            # become det, u and v, and row 9 becomes t
            col = np.take(table, f, axis=1)
            d = np.take(ray_dirs, i, axis=1)
            w = col[0:3]
            w *= d[0]
            w += d[1] * col[3:6]
            w += d[2] * col[6:9]  # det, u det, v det
            ok = np.abs(w[0]) > _EPS
            inv = 1.0 / np.where(ok, w[0], np.inf)
            w[1:] *= inv
            _, u, v = w
            t = col[9]
            t *= inv
            hit = ok & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > col[10])
            hit = np.flatnonzero(hit)
            hit_ray.append(ray_order[i[hit]])
            hit_face.append(f[hit])
            hit_t.append(t[hit])
    t_out = np.full(len(dirs), -np.inf)
    face_out = np.full(len(dirs), len(v0))
    if hit_ray:
        r, f, t = np.concatenate(hit_ray), np.concatenate(hit_face), np.concatenate(hit_t)
        np.maximum.at(t_out, r, t)
        tied = t_out[r] - t <= _TIE * t_out[r]
        np.minimum.at(face_out, r[tied], f[tied])
    face_out[face_out == len(v0)] = 0
    return t_out, face_out


def project_mesh(
    mesh: TriangleMesh, b: int, center: np.ndarray | None = None
) -> SphericalRepresentation:
    """Project a mesh onto the bandwidth-``b`` grid by ray casting from a center.

    The center is the bounding-sphere center unless an explicit ``center``
    is given, or a ``projection_offset`` recorded on the mesh (by
    augmentation) displaces it; an explicit ``center`` wins.
    """
    if len(mesh.faces) == 0:
        raise ValueError("mesh has no faces to intersect")
    c0, radius = bounding_sphere(mesh)
    if center is not None:
        origin = np.asarray(center, dtype=np.float64)
    elif mesh.projection_offset is not None:
        origin = c0 + np.asarray(mesh.projection_offset, dtype=np.float64)
    else:
        origin = c0
    if origin is not c0:
        # keep normalization covering all vertices from the shifted origin
        radius = float(np.linalg.norm(mesh.vertices - origin, axis=1).max())
    grid = make_grid(b)
    dirs = grid.directions().reshape(-1, 3)
    v = mesh.vertices
    f = mesh.faces
    v0 = v[f[:, 0]]
    e1 = v[f[:, 1]] - v0
    e2 = v[f[:, 2]] - v0
    normals = np.cross(e1, e2)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    t, face = _cast_rows(dirs, origin, v0, e1, e2)
    hit = np.isfinite(t)
    dist = np.where(hit, t, 0.0) / radius
    cosang = np.abs(np.einsum("rj,rj->r", dirs, normals[face]))
    sina = np.where(hit, np.clip(cosang, 0.0, 1.0), 0.0)
    n = grid.n
    values = np.stack([dist.reshape(n, n), sina.reshape(n, n)])
    signal = SphericalSignal(grid, values)
    return SphericalRepresentation(signal=signal, center=origin, radius=radius)
