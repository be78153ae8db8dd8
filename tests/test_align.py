"""Correlation alignment: planted rotations, score identities, degeneracy."""

import numpy as np
import pytest

from spheresig import align
from spheresig.align import _first_max, _score_lattice, align_shapes, so3_correlate
from spheresig.rotation import (
    RotationZYZ,
    geodesic_distance,
    random_rotations,
    rotate_spectrum,
    wigner_d,
)
from spheresig.sft import SpectralCoeffs, _real_parts, random_coeffs, to_half
from spheresig.synth import star_mesh


def lattice_rotation(i, j, k, n=8):
    return RotationZYZ(2 * np.pi * i / n, np.pi * j / n, 2 * np.pi * k / n)


def coarse_scores(a, b, grid_size):
    """The coarse lattice ``so3_correlate`` scores before it refines, with its angles."""
    bw = a.bandwidth
    ha, hb = (h.reshape(bw, bw, -1) for h in _real_parts(a.coeffs, b.coeffs))
    na, nb, ng = grid_size
    angles = (2 * np.pi * np.arange(na) / na, np.pi * np.arange(nb) / nb,
              2 * np.pi * np.arange(ng) / ng)
    return _score_lattice(ha, hb, *angles), angles


class TestCorrelation:
    def test_identical_features_return_identity(self):
        a = random_coeffs(8, 2, np.random.default_rng(0))
        res = so3_correlate(a, a, grid_size=(8, 8, 8))
        # the fine axes are sorted in [0, 2 pi), so the tie rule names (0, 0, 0)
        assert res.rotation == RotationZYZ(0.0, 0.0, 0.0)
        assert not res.degenerate

    def test_planted_lattice_rotation_recovered_exactly(self):
        a = random_coeffs(8, 2, np.random.default_rng(1))
        r0 = lattice_rotation(3, 2, 5)
        planted = rotate_spectrum(a, r0)
        res = so3_correlate(a, planted, grid_size=(8, 8, 8))
        assert geodesic_distance(res.rotation, r0) < 1e-9

    def test_score_at_planted_equals_energy(self):
        a = random_coeffs(8, 2, np.random.default_rng(2))
        r0 = lattice_rotation(1, 3, 6)
        planted = rotate_spectrum(a, r0)
        res = so3_correlate(a, planted, grid_size=(8, 8, 8))
        np.testing.assert_allclose(res.score, (np.abs(a.coeffs) ** 2).sum(), rtol=1e-6)

    def test_score_symmetry_under_swap_and_inverse(self):
        rng = np.random.default_rng(3)
        a = random_coeffs(6, 1, rng)
        b = random_coeffs(6, 1, rng)
        r = random_rotations(1, seed=4)[0]

        def score(x, y, rot):
            return float((rotate_spectrum(x, rot).coeffs * np.conj(y.coeffs)).sum().real)

        assert abs(score(a, b, r) - score(b, a, r.inverse())) < 1e-9

    def test_argmax_equivariance(self):
        """Pre-rotating the first shape shifts the estimate by the same amount."""
        a = random_coeffs(8, 1, np.random.default_rng(5))
        r0 = lattice_rotation(2, 1, 3)
        q = lattice_rotation(1, 0, 2)
        planted = rotate_spectrum(a, r0)
        est1 = so3_correlate(a, planted, grid_size=(8, 8, 8)).rotation
        est2 = so3_correlate(rotate_spectrum(a, q), planted, grid_size=(8, 8, 8)).rotation
        np.testing.assert_allclose(
            est2.compose(q).matrix(), est1.matrix(), atol=1e-9
        )

    def test_rotationally_symmetric_input_is_degenerate(self):
        c = np.zeros((1, 64), dtype=np.complex128)
        c[0, 0] = 2.0  # constant function: every rotation scores alike
        sym = SpectralCoeffs(8, c)
        res = so3_correlate(sym, sym, grid_size=(8, 8, 8))
        assert res.degenerate

    def test_refinement_beats_lattice_for_off_grid_rotation(self):
        a = random_coeffs(8, 1, np.random.default_rng(6))
        r0 = RotationZYZ(0.83, 1.21, 4.1)
        planted = rotate_spectrum(a, r0)
        scores, angles = coarse_scores(a, planted, (8, 8, 8))
        coarse = RotationZYZ(*(t[i] for t, i in zip(angles, _first_max(scores))))
        refined = so3_correlate(a, planted, grid_size=(8, 8, 8))
        assert geodesic_distance(refined.rotation, r0) <= geodesic_distance(coarse, r0)
        assert geodesic_distance(refined.rotation, r0, degrees=True) < 12.0

    def test_keep_scores(self):
        """The coarse lattice scores every (alpha, beta, gamma) of the grid, and
        the search returns its best point's score or a better refined one."""
        a = random_coeffs(4, 1, np.random.default_rng(7))
        scores, _ = coarse_scores(a, a, (4, 4, 4))
        assert scores.shape == (4, 4, 4)
        assert so3_correlate(a, a, grid_size=(4, 4, 4)).score >= scores.max()


class TestInputChecks:
    @pytest.mark.parametrize(
        "a, b",
        [
            (random_coeffs(4, 1, np.random.default_rng(0)),
             random_coeffs(8, 1, np.random.default_rng(1))),
            (random_coeffs(4, 2, np.random.default_rng(0)),
             random_coeffs(4, 1, np.random.default_rng(1))),
        ],
        ids=["bandwidth-mismatch", "channel-mismatch"],
    )
    def test_rejected_before_scoring(self, monkeypatch, a, b):
        def no_scoring(*args):
            raise AssertionError("scored before the inputs were checked")

        monkeypatch.setattr(align, "_score_lattice", no_scoring)
        with pytest.raises(ValueError):
            so3_correlate(a, b, grid_size=(4, 4, 4))


class TestLatticeKernel:
    def test_scores_match_rotated_inner_products(self):
        rng = np.random.default_rng(12)
        a = random_coeffs(8, 2, rng)
        b = random_coeffs(8, 2, rng)
        alphas = 2 * np.pi * np.arange(6) / 6
        betas = np.pi * np.arange(5) / 5
        gammas = 2 * np.pi * np.arange(7) / 7
        scores = _score_lattice(to_half(a.coeffs), to_half(b.coeffs), alphas, betas, gammas)
        assert scores.shape == (6, 5, 7)
        scale = np.linalg.norm(a.coeffs) * np.linalg.norm(b.coeffs)  # bounds |score|
        for i, j, k in [(0, 0, 0), (0, 0, 3), (1, 2, 5), (5, 4, 6), (3, 1, 0), (2, 3, 4)]:
            r = RotationZYZ(alphas[i], betas[j], gammas[k])
            want = (rotate_spectrum(a, r).coeffs * np.conj(b.coeffs)).sum().real
            assert abs(scores[i, j, k] - want) < 1e-12 * scale

    @pytest.mark.parametrize(
        "shapes",
        [
            [(4, 2, "complex", "complex")],
            [(4, 1, "real", "complex")],
            [(6, 1, "real", "real"), (6, 3, "real", "real")],
            [(1, 2, "real", "real")],
            [(2, 1, "real", "complex")],
        ],
        ids=["complex", "real-against-complex", "channels-1-and-3", "bw-1", "bw-2"],
    )
    def test_scores_match_wigner_blocks(self, shapes):
        """Scores against Re sum_l (D^l(r) a_l) . conj(b_l) with D^l from
        ``wigner_d``, which does not go through the K blocks the scorer uses.
        Several sets of one bandwidth are scored as one set of their channels."""
        rng = np.random.default_rng(19)

        def draw(bw, ch, kind):
            if kind == "real":
                return random_coeffs(bw, ch, rng)
            return SpectralCoeffs(bw, rng.standard_normal((ch, bw * bw))
                                  + 1j * rng.standard_normal((ch, bw * bw)))

        pairs = [(draw(bw, ch, ka), draw(bw, ch, kb)) for bw, ch, ka, kb in shapes]
        a_all, b_all = (SpectralCoeffs(shapes[0][0], np.concatenate([c.coeffs for c in side]))
                        for side in zip(*pairs))
        scores, _ = coarse_scores(a_all, b_all, (4, 3, 5))
        scale = np.linalg.norm(a_all.coeffs) * np.linalg.norm(b_all.coeffs)
        want = []
        for al in 2 * np.pi * np.arange(4) / 4:
            for be in np.pi * np.arange(3) / 3:
                for ga in 2 * np.pi * np.arange(5) / 5:
                    r = RotationZYZ(al, be, ga)
                    want.append(sum(
                        (a.degree(l) @ wigner_d(l, r).T * np.conj(b.degree(l))).sum().real
                        for a, b in pairs
                        for l in range(a.bandwidth)
                    ))
        assert np.abs(scores.ravel() - want).max() < 1e-12 * scale

    def test_first_max_takes_the_lexicographically_first_tie(self):
        scores = np.zeros((3, 2, 4))
        scores[2, 0, 1] = 5.0
        scores[1, 1, 3] = 5.0 * (1 - 1e-13)  # within roundoff of the maximum
        scores[0, 1, 0] = 5.0 * (1 - 1e-9)  # a real gap
        assert _first_max(scores) == (1, 1, 3)
        assert _first_max(-np.ones((2, 2, 2))) == (0, 0, 0)

    def test_equal_rotations_at_beta_zero_resolve_to_identity(self):
        a = random_coeffs(8, 2, np.random.default_rng(0))
        scores, _ = coarse_scores(a, a, (8, 8, 8))
        # (alpha, 0, gamma) with alpha + gamma = 0 mod 2 pi is the identity too
        np.testing.assert_allclose(scores[5, 0, 3], scores[0, 0, 0], rtol=1e-12)
        assert _first_max(scores) == (0, 0, 0)


class TestAlignShapes:
    def test_same_mesh_identity(self):
        mesh = star_mesh(seed=9, n_theta=12, n_phi=24)
        res = align_shapes(mesh, mesh, b=16, grid_size=(8, 8, 8), truth=RotationZYZ(0, 0, 0))
        assert res.angular_error_deg < 1e-6

    def test_planted_rotation_small_bandwidth(self):
        mesh = star_mesh(seed=10, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 8))
        r_true = random_rotations(1, seed=11)[0]
        res = align_shapes(
            mesh, mesh.transformed(r_true.matrix()), b=16, grid_size=(12, 12, 12), truth=r_true
        )
        assert res.angular_error_deg < 15.0  # one coarse cell at this lattice
