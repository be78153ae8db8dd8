"""Triangle meshes and their conversion to two-channel spherical functions.

Rays are cast from the bounding-sphere center along every grid direction.
Each direction records the distance to the farthest intersection (normalized
by the bounding radius, so values lie in [0, 1]) and the sine of the ray's
incidence angle at that face, measured from the tangent plane, i.e.
|cos(ray, normal)|.  Directions that miss the mesh store zeros in both
channels; the representation is faithful for star-shaped objects viewed from
the center and remains defined (if lossy) otherwise.

Each face is tested only against the rays in its box (``_face_boxes``): the
latitude rows between its least and greatest colatitude and, where the box
clears both poles, only the longitudes between its corners' (``_cast_rows``).

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


def _exponent(v: np.ndarray) -> int:
    """Binary exponent of the largest |coordinate| of ``v`` (0 if empty).

    ``np.ldexp(v, -_exponent(v))`` brings every coordinate into [-1, 1).  A
    power of two scales floats exactly, so the face rule, the bounding
    sphere and the projection work on the prescaled mesh and scale their
    lengths back exactly: at any size where nothing over- or underflows
    they give the same bits as on the mesh itself, and at any other size
    their products (up to fourth powers of a coordinate in the sphere's
    closed forms) stay finite and normal.
    """
    return int(np.frexp(np.abs(v).max())[1]) if v.size else 0


@dataclass
class TriangleMesh:
    """Vertex/face soup with finite vertices; degenerate (zero-area) faces are
    dropped on build, and counted in ``dropped_faces``."""

    vertices: np.ndarray
    faces: np.ndarray
    dropped_faces: int = field(default=0, init=False)
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
            # and scale (on the prescaled vertices, so no product over- or
            # underflows).
            u = np.ldexp(v, -_exponent(v))
            e1, e2 = u[f[:, 1]] - u[f[:, 0]], u[f[:, 2]] - u[f[:, 0]]
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
        if k < 3:
            raise ValueError(
                f"{path}: line {lines[pos]}: face {fi} declares {k} indices, fewer than 3"
            )
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
                if len(idx) < 3:
                    raise ValueError(f"face needs at least 3 indices, got {len(idx)}")
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
    relative to the radius, so the sphere scales and moves with the mesh,
    and it runs on the vertices prescaled by ``_exponent``, so its closed
    forms stay finite at any size.
    Duplicate vertices need no pruning: a copy of a support point is never
    outside the sphere, so it never pivots, and ``argmax`` takes the first
    of equal distances.
    """
    if len(mesh.vertices) == 0:
        raise ValueError("mesh has no vertices")
    scale = _exponent(mesh.vertices)
    pts = np.ldexp(mesh.vertices, -scale)
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
    return np.ldexp(center, scale), math.ldexp(radius, scale)


# ---------------------------------------------------------------------------
# Ray casting.
# ---------------------------------------------------------------------------


_POLE_GAP = 1e-3  # radians a box must clear both poles by for the corner bound
_PAIRS_PER_BLOCK = 1 << 21  # bounds the (ray, face) pairs held in memory
_TIE = 1e-12  # hits within this relative distance of the farthest are one tie

# The per-face arithmetic runs on (3, F) component rows, through the same
# ``_cross`` and ``_dot`` as the sphere's float triples.  They give the bits
# of np.cross and np.linalg.norm on (F, 3) rows, and at a few thousand faces
# cost a fraction of those calls.


def _norm(a):
    return np.sqrt(_dot(a, a))


def _face_boxes(
    origin: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Colatitudes [lo, hi] and longitudes phi_a + [phi_lo, phi_hi] that hold
    every ray from ``origin`` that meets each face.

    Those rays form the spherical triangle of the corner directions p0, p1,
    p2.  Colatitude has no critical point on the sphere but the poles, so
    over the triangle it is least and greatest at a pole inside it, at a
    corner, or at the top or bottom of an edge's great circle.  With n = p x
    q for edge (p, q), the circle tops out at colatitude arctan2(|n_z|,
    hypot(n_x, n_y)); that point is on the edge where p_y n_x - p_x n_y and
    q_x n_y - q_y n_x are both >= 0, and the bottom, pi minus that, where
    both are <= 0.  The triangle holds the north pole where n_z det(p0, p1,
    p2) > 0 on all three edges and the south pole where all three are < 0.

    The box is padded by 1e-8 (|v0| + |origin| + |e1| + |e2|) / h radians,
    h being the origin's distance from the face's plane.  A hit lies at
    least h from the origin and at most 2e-9 (|e1| + |e2|) off the face (the
    hit test's barycentric tolerance), so its ray is within pi 1e-9 (|e1| +
    |e2|) / h of the triangle.  The rest covers the roundoff of the corner
    directions, and as h <= |v0| + |origin| the pad is at least 1e-8, far
    above the roundoff of the angles.  A face seen from its plane (h = 0)
    reaches every ray.

    Where the box clears both poles by gap = min(lo, pi - hi) > ``_POLE_GAP``,
    longitude is strictly monotonic along every edge (a great-circle arc that
    misses the poles projects onto an ellipse centred on the z axis), so the
    triangle spans exactly its corners' longitudes.  They are measured from
    the longitude phi_a of p0 + p1 + p2, which the triangle holds, with the
    pad over sin(gap); a pole-free triangle spans less than pi of longitude,
    so the interval never wraps.  Elsewhere phi_lo, phi_hi = -inf, inf: the
    face takes whole rows.
    """
    a0 = (v0 - origin).T
    corners = (a0, a0 + e1.T, a0 + e2.T)
    dist = [_norm(c) for c in corners]
    p = [c / np.where(d > 0, d, 1.0) for c, d in zip(corners, dist)]
    colat = [np.arctan2(np.hypot(u[0], u[1]), u[2]) for u in p]
    lo, hi = np.minimum.reduce(colat), np.maximum.reduce(colat)
    det = _dot(p[0], _cross(p[1], p[2]))
    north = south = True
    for u, w in ((p[0], p[1]), (p[1], p[2]), (p[2], p[0])):
        n = _cross(u, w)
        top = np.arctan2(np.abs(n[2]), np.hypot(n[0], n[1]))
        after_u, before_w = u[1] * n[0] - u[0] * n[1], w[0] * n[1] - w[1] * n[0]
        lo = np.where((after_u >= 0) & (before_w >= 0), np.minimum(lo, top), lo)
        hi = np.where((after_u <= 0) & (before_w <= 0), np.maximum(hi, np.pi - top), hi)
        north = north & (n[2] * det > 0)
        south = south & (n[2] * det < 0)
    normal = _cross(e1.T, e2.T)
    h = np.abs(_dot(a0, normal)) / _norm(normal)
    spread = 1e-8 * (_norm(v0.T) + _norm(origin) + _norm(e1.T) + _norm(e2.T))
    margin = np.divide(spread, h, out=np.full_like(h, np.inf), where=h > 0)
    lo = np.where(north, 0.0, lo) - margin
    hi = np.where(south, np.pi, hi) + margin
    gap = np.minimum(lo, np.pi - hi)
    clear = gap > _POLE_GAP
    sx, sy = p[0][:2] + p[1][:2] + p[2][:2]
    phis = [np.arctan2(sx * u[1] - sy * u[0], sx * u[0] + sy * u[1]) for u in p]
    pad = margin / np.sin(np.where(clear, gap, 1.0))
    phi_lo = np.where(clear, np.minimum.reduce(phis) - pad, -np.inf)
    phi_hi = np.where(clear, np.maximum.reduce(phis) + pad, np.inf)
    return lo, hi, np.arctan2(sy, sx), phi_lo, phi_hi


def _pieces(counts: np.ndarray, size: int):
    """Walk the concatenated ranges ``range(counts[i])`` in pieces of at most
    ``size`` items; each piece is (i, offset within range i) per item."""
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for k0 in range(0, total, size):
        k1 = min(k0 + size, total)
        # the ranges that hold items k0 .. k1 - 1, each cut to the piece
        first, last = np.searchsorted(ends, [k0, k1 - 1], side="right")
        span = slice(first, last + 1)
        i = np.repeat(np.arange(first, last + 1),
                      np.minimum(ends[span], k1) - np.maximum(starts[span], k0))
        yield i, np.arange(k0, k1) - starts[i]


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
    s, e1, e2 = (origin - v0).T, e1.T, e2.T
    rows = (_cross(e2, e1), _cross(e2, s), _cross(s, e1))
    area = _norm(rows[0])
    table = np.empty((11, len(area)))
    table[:9] = [c for xyz in zip(*rows) for c in xyz]
    table[9] = _dot(e2, rows[2])
    table[:10] /= area
    table[10] = _EPS * (_norm(s) + _norm(e1) + _norm(e2))
    return table


def _cast_rows(
    dirs: np.ndarray, origin: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-hit distance and hit-face index for a batch of unit rays.

    Only the (ray, face) pairs inside a face's box (``_face_boxes``) are
    listed.  Rays of equal z form a row, so the rows of colatitude in [lo, hi]
    are one range of the rows sorted by z.  With the rays sorted by (row,
    longitude), a face's rays in a row are then one index range: its corner
    longitudes, or the whole row where its box does not clear both poles.
    A longitude interval that wraps past +-pi goes on at the row's other
    end, as a second interval shifted by 2 pi.  The (interval, row) pairs
    are walked row by row and by longitude within a row, so the range ends
    arrive at ``searchsorted`` nearly sorted.

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
    lo, hi, phi_a, phi_lo, phi_hi = _face_boxes(origin, v0, e1, e2)
    table = _hit_table(origin, v0, e1, e2)
    tol = 1e-9
    # One sort key per ray: its row's slot [8 row, 8 row + 8) plus 4 + longitude.
    row_z, row = np.unique(dirs[:, 2], return_inverse=True)
    key = 8.0 * row + 4.0 + np.arctan2(dirs[:, 1], dirs[:, 0])
    ray_order = np.argsort(key)
    key = key[ray_order]
    ray_dirs = np.ascontiguousarray(dirs[ray_order].T)  # (3 xyz, rays) in key order
    first_row = np.searchsorted(row_z, np.cos(np.minimum(hi, np.pi)))
    end_row = np.searchsorted(row_z, np.cos(np.maximum(lo, 0.0)), "right")
    # one longitude interval per face, [-4, 4] for a whole row, and a second
    # for each that wraps
    phi_lo, phi_hi = phi_a + phi_lo, phi_a + phi_hi
    past = np.flatnonzero(np.isfinite(phi_lo) & ((phi_lo < -np.pi) | (phi_hi > np.pi)))
    shift = np.where(phi_lo[past] < -np.pi, 2 * np.pi, -2 * np.pi)
    face = np.concatenate([np.arange(len(lo)), past])
    bounds = np.clip([np.concatenate([phi_lo, phi_lo[past] + shift]),
                      np.concatenate([phi_hi, phi_hi[past] + shift])], -4.0, 4.0)
    by_phi = np.argsort(bounds[0])
    face, bounds = face[by_phi], bounds[:, by_phi]
    hit_ray, hit_face, hit_t = [], [], []
    for iv, off in _pieces((end_row - first_row)[face], _PAIRS_PER_BLOCK):
        rw = first_row[face[iv]] + off  # (interval iv, row rw) pairs
        # row-major, by longitude within a row (a radix sort up to 65,536 rows)
        by_row = np.argsort(rw.astype(np.min_scalar_type(len(row_z))), kind="stable")
        iv, rw = iv[by_row], rw[by_row]
        start, stop = np.searchsorted(key, bounds[:, iv] + (8.0 * rw + 4.0))
        fr = face[iv]
        for k, at in _pieces(stop - start, _PAIRS_PER_BLOCK):
            i = start[k] + at  # rays in key order
            f = fr[k]
            # One array holds the gathered columns (rows 0-10) and rays (rows
            # 11-13), and the arithmetic runs in place in it: rows 0-2 become
            # det, u and v, row 9 t and row 11 1 / det.  With a separate
            # array per temporary, a block's frees can pass glibc's trim
            # threshold (twice the largest array), and every cast then
            # faults fresh heap pages in.  ``mode="clip"`` gathers straight
            # into the array (the indices are in range); the default mode
            # would gather into a buffer and copy.
            col = np.empty((14, len(f)))
            np.take(table, f, axis=1, out=col[:11], mode="clip")
            np.take(ray_dirs, i, axis=1, out=col[11:], mode="clip")
            w, d = col[0:3], col[11:]
            w *= d[0]
            col[3:6] *= d[1]
            w += col[3:6]
            col[6:9] *= d[2]
            w += col[6:9]  # det, u det, v det
            ok = np.abs(w[0]) > _EPS
            inv = np.divide(1.0, np.where(ok, w[0], np.inf), out=d[0])
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
    augmentation) displaces it; an explicit ``center`` wins.  The rays are
    cast on the mesh and center prescaled by ``_exponent``, so a mesh of any
    size projects as it does at unit size.
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
    scale = _exponent(mesh.vertices)
    v, scaled_origin = np.ldexp(mesh.vertices, -scale), np.ldexp(origin, -scale)
    if origin is not c0:
        # keep normalization covering all vertices from the shifted origin
        radius = math.ldexp(float(np.linalg.norm(v - scaled_origin, axis=1).max()), scale)
    grid = make_grid(b)
    dirs = grid.directions().reshape(-1, 3)
    f = mesh.faces
    v0 = v[f[:, 0]]
    e1 = v[f[:, 1]] - v0
    e2 = v[f[:, 2]] - v0
    normals = np.cross(e1, e2)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    t, face = _cast_rows(dirs, scaled_origin, v0, e1, e2)
    hit = np.isfinite(t)
    dist = np.where(hit, t, 0.0) / math.ldexp(radius, -scale)
    cosang = np.abs(np.einsum("rj,rj->r", dirs, normals[face]))
    sina = np.where(hit, np.clip(cosang, 0.0, 1.0), 0.0)
    n = grid.n
    values = np.stack([dist.reshape(n, n), sina.reshape(n, n)])
    signal = SphericalSignal(grid, values)
    return SphericalRepresentation(signal=signal, center=origin, radius=radius)
