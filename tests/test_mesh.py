"""Mesh ingestion: file formats, bounding spheres, ray-cast projection."""

import itertools
import math
import warnings

import numpy as np
import pytest

from spheresig import mesh as mesh_module
from spheresig.grid import make_grid
from spheresig.harmonics import build_table
from spheresig.mesh import (
    TriangleMesh,
    bounding_sphere,
    load_obj,
    load_off,
    project_mesh,
)
from spheresig.network import descriptors, init_parameters, two_branch_config
from spheresig.rotation import random_rotations, rotate_signal
from spheresig.synth import cube_mesh, icosphere, star_mesh

TETRA_VERTS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float) / np.sqrt(3)
TETRA_FACES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


class TestLoading:
    def test_off_roundtrip(self, tmp_path):
        path = tmp_path / "tetra.off"
        lines = ["OFF", "4 4 0"]
        lines += [" ".join(map(str, v)) for v in TETRA_VERTS]
        lines += ["3 " + " ".join(map(str, f)) for f in TETRA_FACES]
        path.write_text("\n".join(lines) + "\n")
        mesh = load_off(str(path))
        np.testing.assert_allclose(mesh.vertices, TETRA_VERTS)
        assert len(mesh.faces) == 4

    def test_off_quad_fan_split(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        mesh = load_off(str(path))
        assert len(mesh.faces) == 2

    def test_off_face_colours_ignored(self, tmp_path):
        path = tmp_path / "colour.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2 255 0 0\n3 0 2 3 0 9 0\n")
        mesh = load_off(str(path))
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_obj_subset(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1/2/3 2//1 3\nf 1 3 4\n")
        mesh = load_obj(str(path))
        assert len(mesh.vertices) == 4
        assert len(mesh.faces) == 2
        np.testing.assert_array_equal(mesh.faces[0], [0, 1, 2])

    def test_bad_off_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("NOPE\n")
        with pytest.raises(ValueError):
            load_off(str(path))

    def test_degenerate_faces_dropped_with_warning(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.warns(UserWarning, match="degenerate"):
            mesh = TriangleMesh(verts, [[0, 1, 2], [0, 1, 1]])
        assert len(mesh.faces) == 1
        assert mesh.dropped_faces == 1

    def test_face_index_out_of_range(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), [[0, 1, 5]])


class TestBoundingSphere:
    def test_regular_tetrahedron_circumsphere(self):
        mesh = TriangleMesh(TETRA_VERTS, TETRA_FACES)
        center, radius = bounding_sphere(mesh)
        assert 1.0 <= radius <= 1.01
        np.testing.assert_allclose(center, 0, atol=1e-9)

    def test_single_triangle_contained(self):
        verts = np.array([[0, 0, 0], [3, 0, 0], [0, 4, 0]], float)
        mesh = TriangleMesh(verts, [[0, 1, 2]])
        center, radius = bounding_sphere(mesh)
        assert np.linalg.norm(verts - center, axis=1).max() <= radius + 1e-9

    def test_random_cloud_contained(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((400, 3)) * [2.0, 1.0, 0.25] + [4, -1, 2]
        mesh = TriangleMesh(pts, [[0, 1, 2]])
        center, radius = bounding_sphere(mesh)
        d = np.linalg.norm(pts - center, axis=1)
        assert d.max() <= radius + 1e-9
        # minimality: some point must sit on the boundary
        assert d.max() >= radius - 1e-6

    def test_empty_mesh(self):
        with pytest.raises(ValueError):
            bounding_sphere(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), int)))


class TestAbsoluteCoordinates:
    """Spheres and the degenerate-face rule depend on a mesh's shape, not on
    where it sits or how large it is."""

    SHIFTS = (1e3, 1e5, 1e6, -1e6)

    @staticmethod
    def star():
        return star_mesh(seed=1, n_theta=8, n_phi=16)

    @pytest.mark.parametrize("t", SHIFTS)
    def test_sphere_of_a_shifted_mesh_is_the_shifted_sphere(self, t):
        mesh = self.star()
        shift = t * np.array([1.0, -0.7, 0.3])
        center, radius = bounding_sphere(mesh)
        moved_center, moved_radius = bounding_sphere(
            TriangleMesh(mesh.vertices + shift, mesh.faces)
        )
        np.testing.assert_allclose(moved_center - shift, center, rtol=0, atol=1e-9)
        assert abs(moved_radius - radius) <= 1e-9

    @pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e12])
    def test_sphere_of_a_scaled_mesh_is_the_scaled_sphere(self, scale):
        """Every containment test is relative to the radius, so a tiny mesh
        gets the scaled sphere, not one bent by an absolute slack."""
        mesh = self.star()
        center, radius = bounding_sphere(mesh)
        scaled_center, scaled_radius = bounding_sphere(
            TriangleMesh(mesh.vertices * scale, mesh.faces)
        )
        np.testing.assert_allclose(scaled_center / scale, center, rtol=0, atol=1e-12 * radius)
        assert abs(scaled_radius / scale - radius) <= 1e-12 * radius

    def test_three_point_sphere_lies_in_their_plane(self):
        """Three points far from the origin: the center is their circumcenter,
        not the point of the equidistant line nearest the origin."""
        pts = np.array([[0, 0, 5], [2, 0, 5], [1, np.sqrt(3.0), 5]])  # equilateral
        center, radius = bounding_sphere(TriangleMesh(pts, [[0, 1, 2]]))
        np.testing.assert_allclose(center, [1, 1 / np.sqrt(3.0), 5], rtol=0, atol=1e-12)
        assert radius == pytest.approx(2 / np.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("t, s", [(1e6, 1.0), (0.0, 1e-6), (0.0, 1e6), (-1e6, 1e3)])
    def test_faces_survive_any_translation_and_scale(self, t, s):
        mesh = self.star()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moved = TriangleMesh(mesh.vertices * s + t, mesh.faces)
        assert moved.dropped_faces == 0 and len(moved.faces) == len(mesh.faces) == 224

    @pytest.mark.parametrize("t, s", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6), (0.0, 1e6)])
    def test_degenerate_face_dropped_at_any_translation_and_scale(self, t, s):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]]) * s + t
        with pytest.warns(UserWarning, match="degenerate"):
            mesh = TriangleMesh(verts, [[0, 1, 2], [0, 1, 3]])
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


class TestProjection:
    def test_icosphere_is_unit_distance_and_face_on(self):
        rep = project_mesh(icosphere(3), 16)
        d, sina = rep.signal.values
        assert d.min() > 0.994  # facet chord error stays under 0.6%
        assert d.max() <= 1.0 + 1e-12
        assert sina.min() > 0.99

    def test_cube_axis_distance(self):
        rep = project_mesh(cube_mesh(1.0), 8)
        np.testing.assert_allclose(rep.radius, np.sqrt(3), rtol=1e-12)
        # +x axis is theta = pi/2 (row 8), phi = 0 (column 0)
        np.testing.assert_allclose(rep.signal.values[0, 8, 0], 1 / np.sqrt(3), rtol=1e-12)

    def test_misses_store_zeros(self):
        # Two tiny far-apart triangles: most rays from the midpoint miss.
        verts = np.array(
            [
                [1, -0.01, -0.01], [1, 0.01, 0], [1, 0, 0.01],
                [-1, -0.01, -0.01], [-1, 0.01, 0], [-1, 0, 0.01],
            ]
        )
        mesh = TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])
        rep = project_mesh(mesh, 4)
        d, sina = rep.signal.values
        miss = d == 0
        assert miss.sum() > d.size // 2
        assert np.all(sina[miss] == 0)

    def test_scaling_invariance(self):
        mesh = star_mesh(seed=5, n_theta=10, n_phi=20)
        a = project_mesh(mesh, 8).signal.values
        scaled = TriangleMesh(mesh.vertices * 7.3, mesh.faces)
        c = project_mesh(scaled, 8).signal.values
        np.testing.assert_allclose(a, c, atol=1e-9)

    def test_deterministic(self):
        mesh = star_mesh(seed=6, n_theta=10, n_phi=20)
        a = project_mesh(mesh, 8).signal.values
        c = project_mesh(mesh, 8).signal.values
        np.testing.assert_array_equal(a, c)

    def test_rotation_equivariance_within_sampling_tolerance(self):
        """Projecting a rotated mesh matches rotating the projection to ~2%.

        The representation resolves the shape only approximately, so the
        tolerance presumes a mesh whose features are smooth at this grid
        bandwidth; sharp bumps push the discrepancy toward the several-percent
        regime seen with real scanned shapes.
        """
        b = 32
        table = build_table(make_grid(b))
        mesh = star_mesh(seed=7, n_theta=32, n_phi=64, amplitude=0.25, sharpness=(3, 6))
        r = random_rotations(1, seed=8)[0]
        rotated_first = project_mesh(mesh.transformed(r.matrix()), b).signal
        projected_first = rotate_signal(project_mesh(mesh, b).signal, r, table)
        num = np.linalg.norm(rotated_first.values - projected_first.values)
        den = np.linalg.norm(projected_first.values)
        assert num / den < 0.02

    def test_explicit_center_shifts_distances(self):
        rep0 = project_mesh(icosphere(2), 8)
        rep1 = project_mesh(icosphere(2), 8, center=np.array([0.2, 0.0, 0.0]))
        assert np.abs(rep0.signal.values[0] - 1).max() < 0.02
        assert rep1.signal.values[0].std() > 0.05

    def test_transform_turns_the_recorded_offset(self):
        ico = icosphere(1)
        offset = np.array([0.2, -0.1, 0.05])
        mesh = TriangleMesh(ico.vertices, ico.faces, projection_offset=offset)
        np.testing.assert_array_equal(mesh.transformed(np.eye(3)).projection_offset, offset)
        r = random_rotations(1, seed=3)[0].matrix()
        turned = mesh.transformed(r)
        np.testing.assert_allclose(turned.projection_offset, r @ offset, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            project_mesh(turned, 8).center, r @ project_mesh(mesh, 8).center, atol=1e-12
        )

    def test_empty_faces_rejected(self):
        with pytest.raises(ValueError):
            project_mesh(TriangleMesh(np.eye(3), np.zeros((0, 3), int)), 4)


class TestProjectionPose:
    """A projection depends on the shape alone: a turn that maps the grid onto
    itself rolls it, in both channels, and a scale leaves it as it is."""

    @staticmethod
    def star():
        return star_mesh(seed=1, n_theta=8, n_phi=16)

    @pytest.mark.parametrize("b", [8, 16, 32])
    def test_quarter_turn_rolls_the_projection(self, b):
        """90 degrees about z is b/2 of the 2b grid columns.  Rays through a
        shared edge or vertex hit two faces at distances equal up to
        roundoff; both poses record the lower face, hence its incidence."""
        mesh = self.star()
        turned = mesh.transformed([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rolled = np.roll(project_mesh(mesh, b).signal.values, b // 2, axis=2)
        np.testing.assert_allclose(
            project_mesh(turned, b).signal.values, rolled, rtol=0, atol=1e-12
        )

    def test_quarter_turn_keeps_the_descriptor(self):
        """Every stage after the projection is exact on this turn, so the
        network's invariant descriptor is too."""
        b = 32
        cfg = two_branch_config(b, 5)
        params = init_parameters(cfg, seed=0)
        mesh = self.star()
        turned = mesh.transformed([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        a, c = (descriptors(cfg, params, project_mesh(m, b).signal.values[None])[0]
                for m in (mesh, turned))
        assert np.linalg.norm(c - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e-6, 1e-3, 1e3, 1e6])
    def test_scaled_mesh_projects_the_same(self, scale):
        mesh = self.star()
        values = project_mesh(mesh, 8).signal.values
        scaled = TriangleMesh(mesh.vertices * scale, mesh.faces)
        np.testing.assert_allclose(
            project_mesh(scaled, 8).signal.values, values, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("b", [8, 32])
    def test_shifted_mesh_projects_the_same(self, b):
        """The projection center follows the mesh.  At 1e3 both channels
        hold to 1e-12.  At 1e6 the vertex coordinates themselves round by
        ~1e-10, so channel 0 holds to 1e-9, and channel 1 is not compared:
        3 samples at rays through a shared edge flip, because the rounding
        opens a gap in t between the two faces wider than the 1e-12 tie
        window."""
        mesh = self.star()
        values = project_mesh(mesh, b).signal.values
        for t, channels, atol in ((1e3, slice(None), 1e-12), (1e6, 0, 1e-9)):
            shifted = TriangleMesh(mesh.vertices + t * np.array([1.0, -0.7, 0.3]), mesh.faces)
            np.testing.assert_allclose(
                project_mesh(shifted, b).signal.values[channels], values[channels],
                rtol=0, atol=atol,
            )

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_hit_thresholds_have_no_unit(self, scale):
        """The hit test's rows are unit-free and its t and least t scale with
        the mesh, so a mesh of any size meets the same thresholds."""
        mesh = self.star()
        center, _ = bounding_sphere(mesh)
        table = mesh_module._hit_table(*cast_args(mesh, center))
        moved = TriangleMesh(mesh.vertices * scale, mesh.faces)
        scaled = mesh_module._hit_table(*cast_args(moved, center * scale))
        np.testing.assert_allclose(scaled[:9], table[:9], rtol=0, atol=1e-14)
        np.testing.assert_allclose(scaled[9:] / scale, table[9:], rtol=1e-14, atol=0)


def all_pairs_cast(dirs, origin, v0, e1, e2):
    """Reference caster: the hit test of ``_cast_rows`` on every (ray, face)
    pair, from the same ``_hit_table`` columns and thresholds.

    Rays go in blocks only to bound memory; each pair's arithmetic is the
    same whatever the block.  Per ray the distance is the farthest hit, and
    the face the lowest index (``argmax`` of the tie mask) among the hits
    within a relative 1e-12 of it.
    """
    tol = 1e-9
    table = mesh_module._hit_table(origin, v0, e1, e2)[:, None, :]  # (11, 1, F)
    ts, faces = [], []
    step = max(1, 200_000 // len(v0))
    for start in range(0, len(dirs), step):
        d = dirs[start : start + step].T[:, :, None]  # (3, R, 1)
        w = d[0] * table[0:3] + d[1] * table[3:6] + d[2] * table[6:9]  # (3, R, F)
        ok = np.abs(w[0]) > 1e-12
        inv = 1.0 / np.where(ok, w[0], np.inf)
        u, v = w[1:] * inv
        t = table[9] * inv
        hit = ok & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > table[10])
        far = np.where(hit, t, -np.inf).max(axis=1, keepdims=True)
        ts.append(far[:, 0])
        faces.append(np.argmax(hit & (far - t <= 1e-12 * far), axis=1))
    return np.concatenate(ts), np.concatenate(faces)


def textbook_cast(dirs, origin, v0, e1, e2):
    """Farthest hit by Moller & Trumbore's own formulas (JGT 2(1), 1997):
    P = D x E2, det = E1 . P, u = T . P / det, Q = T x E1, v = D . Q / det,
    t = E2 . Q / det, with T = origin - v0, on every (ray, face) pair.  The
    thresholds are ``_cast_rows``' in this arithmetic: |det| > 1e-12 |E1 x
    E2| and t > 1e-12 (|T| + |E1| + |E2|)."""
    tol = 1e-9
    tvec = origin - v0
    q = np.cross(tvec, e1)
    area = np.linalg.norm(np.cross(e1, e2), axis=1)
    floor = 1e-12 * (np.linalg.norm(tvec, axis=1) + np.linalg.norm(e1, axis=1)
                     + np.linalg.norm(e2, axis=1))
    p = np.cross(dirs[:, None, :], e2[None, :, :])  # (R, F, 3)
    det = np.einsum("fj,rfj->rf", e1, p)
    ok = np.abs(det) > 1e-12 * area
    det = np.where(ok, det, 1.0)
    u = np.einsum("fj,rfj->rf", tvec, p) / det
    v = np.einsum("rj,fj->rf", dirs, q) / det
    t = np.einsum("fj,fj->f", e2, q) / det
    hit = ok & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t > floor)
    return np.where(hit, t, -np.inf).max(axis=1)


def two_far_triangles():
    verts = np.array(
        [
            [1, -0.01, -0.01], [1, 0.01, 0], [1, 0, 0.01],
            [-1, -0.01, -0.01], [-1, 0.01, 0], [-1, 0, 0.01],
        ]
    )
    return TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])


class TestCulledCastingParity:
    """The cone-culled caster reproduces the all-pairs caster bit for bit."""

    def assert_matches_all_pairs(self, monkeypatch, mesh, b, center=None):
        fast = project_mesh(mesh, b, center=center).signal.values
        with monkeypatch.context() as m:
            m.setattr(mesh_module, "_cast_rows", all_pairs_cast)
            ref = project_mesh(mesh, b, center=center).signal.values
        np.testing.assert_array_equal(fast, ref)

    @pytest.mark.parametrize("seed", [800, 801, 802, 803])
    def test_star_meshes(self, monkeypatch, seed):
        mesh = star_mesh(seed=seed, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9))
        self.assert_matches_all_pairs(monkeypatch, mesh, 32)

    def test_fine_icosphere(self, monkeypatch):
        self.assert_matches_all_pairs(monkeypatch, icosphere(4), 32)

    @pytest.mark.parametrize("b", [8, 16])
    def test_cube_edge_ties(self, monkeypatch, b):
        self.assert_matches_all_pairs(monkeypatch, cube_mesh(1.0), b)

    def test_misses(self, monkeypatch):
        self.assert_matches_all_pairs(monkeypatch, two_far_triangles(), 16)

    @pytest.mark.parametrize("where", ["face", "edge", "vertex"])
    def test_center_on_the_surface(self, monkeypatch, where):
        mesh = icosphere(2)
        corners = mesh.vertices[mesh.faces[0]]
        center = {"face": corners.mean(axis=0), "edge": corners[:2].mean(axis=0),
                  "vertex": corners[0]}[where]
        v0 = mesh.vertices[mesh.faces[:, 0]]
        e1 = mesh.vertices[mesh.faces[:, 1]] - v0
        e2 = mesh.vertices[mesh.faces[:, 2]] - v0
        _, cos_half = mesh_module._face_cones(center, v0, e1, e2)
        assert np.isneginf(cos_half[0])  # face 0 is never culled
        self.assert_matches_all_pairs(monkeypatch, mesh, 16, center=center)

    def test_cube_corner_center(self, monkeypatch):
        mesh = cube_mesh(1.0)
        self.assert_matches_all_pairs(monkeypatch, mesh, 16, center=mesh.vertices[0])


def cast_args(mesh, origin):
    v0 = mesh.vertices[mesh.faces[:, 0]]
    return origin, v0, mesh.vertices[mesh.faces[:, 1]] - v0, mesh.vertices[mesh.faces[:, 2]] - v0


def unit_rays(n, seed):
    d = np.random.default_rng(seed).standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def straddling_triangles(phis, size=0.05):
    """One small triangle around each (colatitude, longitude) in ``phis``."""
    verts = []
    for theta, phi in phis:
        for dt, dp in ((-size, -size), (-size, size), (size, 0.0)):
            t, p = theta + dt, phi + dp
            verts.append([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
    return TriangleMesh(np.array(verts), np.arange(len(verts)).reshape(-1, 3))


class TestCasterParity:
    """``_cast_rows`` on directions that are not a grid, at the poles, across
    the longitude seam and in small blocks, against the all-pairs caster."""

    def assert_matches(self, dirs, mesh, origin):
        args = (dirs, *cast_args(mesh, np.asarray(origin, dtype=np.float64)))
        t, face = mesh_module._cast_rows(*args)
        t_ref, face_ref = all_pairs_cast(*args)
        assert np.isfinite(t).any()
        np.testing.assert_array_equal(t, t_ref)
        np.testing.assert_array_equal(face, face_ref)

    @pytest.mark.parametrize("seed", [800, 801])
    def test_random_directions(self, seed):
        mesh = star_mesh(seed=seed, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9))
        center, _ = bounding_sphere(mesh)
        dirs = unit_rays(1500, seed)
        self.assert_matches(dirs, mesh, center)
        self.assert_matches(dirs, mesh, center + [0.2, -0.1, 0.3])

    @pytest.mark.parametrize("name", ["cube", "icosphere", "z-cap"])
    def test_exact_pole_rays(self, name):
        """+-z rays form rows with sin(theta) = 0; the z-cap triangle's cone
        axis is the z axis up to roundoff, so sin(theta_a) vanishes too."""
        ring = [[np.cos(a), np.sin(a), 1.0] for a in 2 * np.pi * np.arange(3) / 3]
        mesh = {
            "cube": cube_mesh(1.0),  # the +z ray meets the diagonal of the top face
            "icosphere": icosphere(2),
            "z-cap": TriangleMesh(np.array(ring), [[0, 1, 2]]),
        }[name]
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]] * 3)
        grid = make_grid(8).directions().reshape(-1, 3)
        self.assert_matches(np.vstack([poles, grid, unit_rays(200, 3)]), mesh, np.zeros(3))

    def test_faces_straddling_the_seam(self):
        """Triangles around longitude 0 and +-pi, whose longitude intervals
        wrap; rotating about z moves the seam through a star mesh's faces."""
        spots = [(t, p) for t in (0.3, 1.2, 2.0, 2.9) for p in (0.0, np.pi, -np.pi + 1e-3, 1e-9)]
        dirs = np.vstack([make_grid(16).directions().reshape(-1, 3), unit_rays(500, 4)])
        self.assert_matches(dirs, straddling_triangles(spots), np.zeros(3))
        mesh = star_mesh(seed=802, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9))
        for angle in (1e-3, np.pi / 32, np.pi):
            c, s = np.cos(angle), np.sin(angle)
            turned = mesh.transformed([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            self.assert_matches(dirs, turned, bounding_sphere(turned)[0])

    @pytest.mark.parametrize("name", ["cube-corner", "star"])
    def test_small_blocks(self, monkeypatch, name):
        """With 64 pairs per block every walk crosses block boundaries; from a
        cube corner, the faces at that corner have wide cones that reach
        every ray."""
        mesh = cube_mesh(1.0) if name == "cube-corner" else star_mesh(seed=803, n_theta=8, n_phi=16)
        origin = mesh.vertices[0] if name == "cube-corner" else bounding_sphere(mesh)[0]
        if name == "cube-corner":
            _, cos_half = mesh_module._face_cones(*cast_args(mesh, origin))
            assert np.isneginf(cos_half).sum() == 6
        pieces = []
        walk = mesh_module._pieces

        def spy(counts, size):
            for piece in walk(counts, size):
                pieces.append(len(piece[0]))
                yield piece

        monkeypatch.setattr(mesh_module, "_PAIRS_PER_BLOCK", 64)
        monkeypatch.setattr(mesh_module, "_pieces", spy)
        dirs = np.vstack([make_grid(8).directions().reshape(-1, 3), unit_rays(100, 5)])
        self.assert_matches(dirs, mesh, origin)
        assert max(pieces) == 64 and len(pieces) > 10


class TestTextbookArithmetic:
    """``_cast_rows``' per-face rows against Moller-Trumbore's own formulas:
    the same rays hit, at the same distance to 1e-13."""

    def assert_matches_textbook(self, dirs, mesh, origin):
        args = (dirs, *cast_args(mesh, np.asarray(origin, dtype=np.float64)))
        t, _ = mesh_module._cast_rows(*args)
        t_ref = textbook_cast(*args)
        hit = np.isfinite(t)
        assert hit.any()
        np.testing.assert_array_equal(hit, np.isfinite(t_ref))
        np.testing.assert_allclose(t[hit], t_ref[hit], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["star800", "star801", "cube", "icosphere"])
    def test_grid_and_random_rays(self, name):
        mesh = {
            "star800": star_mesh(seed=800, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9)),
            "star801": star_mesh(seed=801, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9)),
            "cube": cube_mesh(1.0),
            "icosphere": icosphere(3),
        }[name]
        center, _ = bounding_sphere(mesh)
        dirs = np.vstack([make_grid(8).directions().reshape(-1, 3), unit_rays(600, 6)])
        self.assert_matches_textbook(dirs, mesh, center)
        self.assert_matches_textbook(dirs, mesh, center + [0.1, -0.2, 0.05])


def all_subset_sphere(pts):
    """The minimum sphere of at most 5 points over every subset, not only
    those that hold the last point, with ``_min_sphere_small``'s relative
    containment rule; dependent subsets have no circumsphere."""
    best = None
    for k in range(1, min(len(pts), 4) + 1):
        for sub in itertools.combinations(pts, k):
            sphere = mesh_module._circumsphere(sub)
            if sphere is None:
                continue
            c, r = sphere
            if all(math.dist(q, c) <= r * (1 + 1e-10) for q in pts):
                if best is None or r < best[1]:
                    best = (c, r)
    return best


def sphere_meshes():
    stars = {
        f"star{seed}": star_mesh(seed=seed, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9))
        for seed in (800, 801, 802, 803)
    }
    cloud = np.random.default_rng(0).standard_normal((400, 3)) * [2.0, 1.0, 0.25] + [4, -1, 2]
    return {
        **stars,
        "cloud": TriangleMesh(cloud, [[0, 1, 2]]),
        "cube": cube_mesh(1.0),
        "coplanar": TriangleMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], [[0, 1, 2]]),
        "tetra": TriangleMesh(TETRA_VERTS, TETRA_FACES),
    }


class TestBoundingSphereSubsets:
    """Pivoting on the point outside the sphere gives the same bits as trying
    every subset of the support plus that point."""

    @pytest.mark.parametrize("name", sphere_meshes())
    def test_same_bits_as_all_subsets(self, monkeypatch, name):
        mesh = sphere_meshes()[name]
        center, radius = bounding_sphere(mesh)
        with monkeypatch.context() as m:
            m.setattr(mesh_module, "_min_sphere_small", all_subset_sphere)
            ref_center, ref_radius = bounding_sphere(mesh)
        np.testing.assert_array_equal(center, ref_center)
        assert radius == ref_radius

    @pytest.mark.parametrize("name", ["star800", "cloud", "cube"])
    def test_duplicate_vertices_change_no_bit(self, name):
        """A copy of a support point is never outside the sphere, so it never
        pivots: the vertices stacked with a reversed copy give the same bits."""
        mesh = sphere_meshes()[name]
        doubled = TriangleMesh(np.vstack([mesh.vertices, mesh.vertices[::-1]]), mesh.faces)
        center, radius = bounding_sphere(mesh)
        doubled_center, doubled_radius = bounding_sphere(doubled)
        np.testing.assert_array_equal(doubled_center, center)
        assert doubled_radius == radius

    def test_dependent_subsets_have_no_circumsphere(self):
        line = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
        plane = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        assert mesh_module._circumsphere(line) is None
        assert mesh_module._circumsphere(plane) is None
        assert mesh_module._circumsphere(line[:2] + line[:1]) is None

    def test_collinear_vertices_in_every_order(self, monkeypatch):
        """Four points on a line: the pivots meet collinear triples, which
        have no circumsphere, and the sphere is the one on the end points."""
        circumsphere, dependent = mesh_module._circumsphere, []

        def spy(pts):
            sphere = circumsphere(pts)
            dependent.append(sphere is None)
            return sphere

        monkeypatch.setattr(mesh_module, "_circumsphere", spy)
        line = np.array([[0, 0, 0], [1, 0, 0], [3, 0, 0], [2, 0, 0]], float)
        for order in itertools.permutations(range(4)):
            with pytest.warns(UserWarning, match="degenerate"):
                mesh = TriangleMesh(line[list(order)], [[0, 1, 2]])
            center, radius = bounding_sphere(mesh)
            np.testing.assert_array_equal(center, [1.5, 0.0, 0.0])
            assert radius == 1.5
        assert any(dependent)
