"""Seeded fuzz of the SPH1/SPEC1/CKPT1 readers and the OBJ/OFF mesh readers
through the CLI, and of the mesh ray caster.

Each reader example mutates a valid file (truncated at an offset, one bit
flipped, one header u32 field set to an extreme value, or, in a mesh file,
one number token replaced by an extreme one) and runs the CLI command that
reads it in-process.  The contract: exit code 0 or 2, and no exception
escapes ``main``.  Each caster example casts rays at a random triangle soup
from an origin on or near its surface; the contract: the same bits as the
all-pairs caster.
"""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_mesh import all_pairs_cast, cast_args

from spheresig import mesh as mesh_module
from spheresig.cli import main
from spheresig.formats import write_ckpt1, write_spec1, write_sph1
from spheresig.grid import make_grid
from spheresig.harmonics import shared_table
from spheresig.mesh import TriangleMesh
from spheresig.network import LayerConfig, NetworkConfig, init_parameters
from spheresig.rotation import random_rotations
from spheresig.sft import isft, random_coeffs
from spheresig.synth import star_mesh

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
EXTREMES = (0, 1, 2, 3, 513, 2**31 - 1, 2**31, 2**32 - 1)
B = 4


def mutations(size: int, u32_offsets: list[int]):
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1)),
        st.tuples(st.just("flip"), st.integers(0, 8 * size - 1)),
        st.tuples(st.just("u32"), st.sampled_from(u32_offsets), st.sampled_from(EXTREMES)),
    )


def mutate(data: bytes, mutation) -> bytes:
    kind, where = mutation[:2]
    if kind == "truncate":
        return data[:where]
    if kind == "token":
        start, stop = where
        return data[:start] + mutation[2] + data[stop:]
    out = bytearray(data)
    if kind == "flip":
        out[where // 8] ^= 1 << (where % 8)
    else:
        out[where : where + 4] = struct.pack("<I", mutation[2])
    return bytes(out)


def ckpt_u32_offsets(data: bytes) -> list[int]:
    """The tensor count and every dimension field of a CKPT1 file."""
    offsets, pos = [5], 9
    for _ in range(struct.unpack_from("<I", data, 5)[0]):
        (nlen,) = struct.unpack_from("<H", data, pos)
        rank = data[pos + 2 + nlen]
        dims = pos + 3 + nlen
        offsets += [dims + 4 * i for i in range(rank)]
        shape = struct.unpack_from(f"<{rank}I", data, dims)
        pos = dims + 4 * rank + 4 * int(np.prod(shape))
    return offsets


def run_cli(argv) -> None:
    assert main(argv) in (0, 2)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    coeffs = random_coeffs(B, 1, np.random.default_rng(0))
    write_sph1(str(d / "sig.sph"), isft(coeffs, shared_table(B)))
    write_spec1(str(d / "sig.spec"), coeffs)
    config = NetworkConfig(B, (LayerConfig(2, "anchored", 2),), 2)
    write_ckpt1(str(d / "net.ckpt"), init_parameters(config, seed=0).tensors)
    (d / "net.json").write_text(
        json.dumps(dict(input_bandwidth=B, num_classes=2, layers=[dict(out_channels=2, anchors=2)]))
    )
    star = star_mesh(seed=1, n_theta=4, n_phi=8)
    vertices = [" ".join(map(repr, v)) for v in star.vertices.tolist()]
    (d / "star.obj").write_text(
        "".join(f"v {v}\n" for v in vertices)
        + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in star.faces)
    )
    (d / "star.off").write_text(
        f"OFF\n{len(star.vertices)} {len(star.faces)} 0\n" + "".join(f"{v}\n" for v in vertices)
        + "".join(f"3 {a} {b} {c}\n" for a, b, c in star.faces)
    )
    return {p.name: p for p in d.iterdir()}


def test_valid_files_pass(valid, tmp_path, capsys):
    for mesh in ("star.obj", "star.off"):
        out = str(tmp_path / "o.sph")
        assert main(["mesh2sphere", str(valid[mesh]), "-b", str(B), "-o", out]) == 0
    assert main(["sft", str(valid["sig.sph"]), "-o", str(tmp_path / "o.spec")]) == 0
    assert main(["isft", str(valid["sig.spec"]), "-o", str(tmp_path / "o.sph")]) == 0
    assert main(["infer", "--config", str(valid["net.json"]), "--ckpt", str(valid["net.ckpt"]),
                 "--input", str(valid["sig.sph"]), "-o", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()


@FUZZ
@given(data=st.data())
def test_sph1(valid, tmp_path, data):
    raw = valid["sig.sph"].read_bytes()
    bad = tmp_path / "bad.sph"
    bad.write_bytes(mutate(raw, data.draw(mutations(len(raw), [4, 8]))))
    run_cli(["sft", str(bad), "-o", str(tmp_path / "out.spec")])


@FUZZ
@given(data=st.data())
def test_spec1(valid, tmp_path, data):
    raw = valid["sig.spec"].read_bytes()
    bad = tmp_path / "bad.spec"
    bad.write_bytes(mutate(raw, data.draw(mutations(len(raw), [4, 8]))))
    run_cli(["isft", str(bad), "-o", str(tmp_path / "out.sph")])


@FUZZ
@given(data=st.data())
def test_ckpt1(valid, tmp_path, data):
    raw = valid["net.ckpt"].read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mutate(raw, data.draw(mutations(len(raw), ckpt_u32_offsets(raw)))))
    run_cli(["infer", "--config", str(valid["net.json"]), "--ckpt", str(bad),
             "--input", str(valid["sig.sph"]), "-o", str(tmp_path / "out.json")])


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
EXTREME_TOKENS = (b"nan", b"inf", b"-1", b"1e309", b"99999999999999999999")


def text_mutations(data: bytes):
    """Truncation, one flipped bit, or one number token replaced by an extreme."""
    spans = [m.span() for m in NUMBER.finditer(data)]
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, len(data) - 1)),
        st.tuples(st.just("flip"), st.integers(0, 8 * len(data) - 1)),
        st.tuples(st.just("token"), st.sampled_from(spans), st.sampled_from(EXTREME_TOKENS)),
    )


@FUZZ
@pytest.mark.filterwarnings("ignore:dropped .* degenerate faces")
@given(data=st.data(), name=st.sampled_from(["star.obj", "star.off"]))
def test_mesh_files(valid, tmp_path, data, name):
    raw = valid[name].read_bytes()
    bad = tmp_path / name
    bad.write_bytes(mutate(raw, data.draw(text_mutations(raw))))
    run_cli(["mesh2sphere", str(bad), "-b", str(B), "-o", str(tmp_path / "out.sph")])


def test_spec1_unknown_storage_code(valid, tmp_path, capsys):
    """Storage byte 7 was once read as half storage; only 0 and 1 exist."""
    data = bytearray(valid["sig.spec"].read_bytes())
    assert data[12] == 1
    data[12] = 7
    bad = tmp_path / "bad.spec"
    bad.write_bytes(bytes(data))
    assert main(["isft", str(bad), "-o", str(tmp_path / "out.sph")]) == 2
    assert "unknown storage code 7" in capsys.readouterr().err


@st.composite
def casts(draw):
    """A triangle soup under a random rotation, an origin and unit rays.

    The soup's corners are scattered around the center, clustered at a
    pole, or spread over the whole sphere (faces that span wide angles).
    The origin is the center, a point off it, or a vertex, an edge's
    midpoint or a face's centroid, maybe moved 1e-13 to 1e-8 off it.  The
    rays are +-z, a grid, random rays and the rays toward every vertex.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    spread = draw(st.sampled_from(["soup", "pole", "large"]))
    if spread == "soup":
        corners = rng.standard_normal((n, 1, 3)) + 0.3 * rng.standard_normal((n, 3, 3))
    elif spread == "pole":
        pole = [0.0, 0.0, draw(st.sampled_from([1.0, -1.0]))]
        corners = pole + 0.05 * rng.standard_normal((n, 3, 3))
    else:
        corners = rng.standard_normal((n, 3, 3))
        corners /= np.linalg.norm(corners, axis=-1, keepdims=True)
    turn = random_rotations(1, seed=int(rng.integers(2**32)))[0].matrix()
    mesh = TriangleMesh(corners.reshape(-1, 3) @ turn.T, np.arange(3 * n).reshape(-1, 3))
    face = mesh.vertices[mesh.faces[rng.integers(len(mesh.faces))]]
    origin = {
        "center": np.zeros(3),
        "off": 0.3 * rng.standard_normal(3),
        "vertex": face[0],
        "edge": face[:2].mean(axis=0),
        "face": face.mean(axis=0),
    }[draw(st.sampled_from(["center", "off", "vertex", "edge", "face"]))]
    if draw(st.booleans()):
        step = rng.standard_normal(3)
        origin = origin + 10.0 ** rng.uniform(-13, -8) * step / np.linalg.norm(step)
    toward = mesh.vertices - origin
    toward = toward[np.linalg.norm(toward, axis=1) > 0]
    rays = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                      make_grid(draw(st.sampled_from([2, 4, 8]))).directions().reshape(-1, 3),
                      rng.standard_normal((100, 3)), toward])
    return rays / np.linalg.norm(rays, axis=1, keepdims=True), mesh, origin


@settings(FUZZ, max_examples=300)
@given(case=casts())
def test_cast_rows_matches_all_pairs(case):
    dirs, mesh, origin = case
    args = (dirs, *cast_args(mesh, origin))
    t, face = mesh_module._cast_rows(*args)
    t_ref, face_ref = all_pairs_cast(*args)
    np.testing.assert_array_equal(t, t_ref)
    np.testing.assert_array_equal(face, face_ref)
