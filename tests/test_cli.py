"""Command-line pipelines: exit codes, reproducibility, end-to-end flows."""

import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spheresig.cli import _network_from_json, main
from spheresig.equivariance import measure
from spheresig.formats import read_spec1, read_sph1, write_ckpt1, write_spec1, write_sph1
from spheresig.grid import make_grid
from spheresig.harmonics import build_table, shared_table
from spheresig.network import LayerConfig, NetworkConfig, init_parameters
from spheresig.sft import (
    SphericalSignal,
    isft,
    random_bandlimited_signal,
    random_coeffs,
    sft_direct,
    sft_sepvar,
)
from spheresig.synth import make_blob_dataset, star_mesh


@pytest.fixture()
def star_off(tmp_path):
    mesh = star_mesh(seed=1, n_theta=10, n_phi=20)
    path = tmp_path / "star.off"
    lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
    lines += [" ".join(f"{x:.17g}" for x in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(map(str, f)) for f in mesh.faces]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def bandlimited_sph(tmp_path):
    table = build_table(make_grid(8))
    sig = isft(random_coeffs(8, 1, np.random.default_rng(0)), table)
    path = str(tmp_path / "sig.sph")
    write_sph1(path, sig)
    return path, sig


def test_sft_isft_roundtrip(tmp_path, bandlimited_sph):
    path, sig = bandlimited_sph
    spec = str(tmp_path / "sig.spec")
    back = str(tmp_path / "back.sph")
    assert main(["sft", path, "-o", spec]) == 0
    assert main(["isft", spec, "-o", back]) == 0
    recovered = read_sph1(back)
    assert np.abs(recovered.values - sig.values).max() < 1e-9


def test_sft_methods_agree(tmp_path, bandlimited_sph):
    path, _ = bandlimited_sph
    a = str(tmp_path / "a.spec")
    d = str(tmp_path / "d.spec")
    assert main(["sft", path, "-o", a, "--method", "sepvar"]) == 0
    assert main(["sft", path, "-o", d, "--method", "direct"]) == 0
    assert np.abs(read_spec1(a).coeffs - read_spec1(d).coeffs).max() < 1e-9


@pytest.mark.parametrize("method, analysis", [("sepvar", sft_sepvar), ("direct", sft_direct)])
def test_sft_writes_half_storage(tmp_path, star_off, capsys, method, analysis):
    """A projected mesh's spectrum is conjugate-symmetric entry for entry, so
    SPEC1 stores its orders m >= 0 only (storage byte 1) and reads back the
    analysis's coefficients bit for bit."""
    sph = str(tmp_path / "m.sph")
    spec = tmp_path / "m.spec"
    assert main(["mesh2sphere", star_off, "-b", "8", "-o", sph]) == 0
    assert main(["sft", sph, "-o", str(spec), "--method", method]) == 0
    capsys.readouterr()
    assert spec.read_bytes()[12] == 1
    sig = read_sph1(sph)
    np.testing.assert_array_equal(
        read_spec1(str(spec)).coeffs, analysis(sig, shared_table(8)).coeffs
    )


def test_mesh2sphere_and_align(tmp_path, star_off, capsys):
    sph = str(tmp_path / "m.sph")
    assert main(["mesh2sphere", star_off, "-b", "8", "-o", sph]) == 0
    sig = read_sph1(sph)
    assert sig.channels == 2
    assert main(["align", star_off, star_off, "-b", "8", "--grid", "8,8,8",
                 "--truth", "0,0,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["angular_error_deg"] < 1e-6
    assert not doc["degenerate"]


def test_mesh2sphere_of_a_far_mesh(tmp_path):
    """A mesh a million units from the origin projects like the same mesh at
    the origin: same distances, no face dropped, no all-zero signal."""
    mesh = star_mesh(seed=1, n_theta=8, n_phi=16)
    outs = []
    for t in (0.0, 1e6):
        path = tmp_path / f"star{t:g}.off"
        lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
        lines += [" ".join(f"{x + t:.17g}" for x in v) for v in mesh.vertices]
        lines += ["3 " + " ".join(map(str, f)) for f in mesh.faces]
        path.write_text("\n".join(lines) + "\n")
        sph = tmp_path / f"star{t:g}.sph"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mesh2sphere", str(path), "-b", "8", "-o", str(sph)]) == 0
        outs.append(read_sph1(str(sph)).values[0])
    assert outs[0].min() > 0.5
    np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-9)


def test_mesh2sphere_of_a_tiny_mesh(tmp_path):
    """A mesh a millionth of a unit across projects like the same mesh at
    unit size: no ray is lost to a threshold with a unit."""
    mesh = star_mesh(seed=1, n_theta=8, n_phi=16)
    outs = []
    for s in (1.0, 1e-6):
        path = tmp_path / f"star{s:g}.off"
        lines = ["OFF", f"{len(mesh.vertices)} {len(mesh.faces)} 0"]
        lines += [" ".join(f"{x * s:.17g}" for x in v) for v in mesh.vertices]
        lines += ["3 " + " ".join(map(str, f)) for f in mesh.faces]
        path.write_text("\n".join(lines) + "\n")
        sph = tmp_path / f"star{s:g}.sph"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mesh2sphere", str(path), "-b", "8", "-o", str(sph)]) == 0
        outs.append(read_sph1(str(sph)).values)
    assert outs[1][0].min() > 0.5 and outs[1][1].max() > 0.5
    np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-9)


def test_mesh2sphere_reproducible(tmp_path, star_off):
    a = tmp_path / "a.sph"
    d = tmp_path / "b.sph"
    for out in (a, d):
        assert main([
            "mesh2sphere", star_off, "-b", "8", "-o", str(out),
            "--rotate", "3", "--jitter", "0.1",
        ]) == 0
    assert a.read_bytes() == d.read_bytes()


def test_conv_and_pool(tmp_path, bandlimited_sph):
    path, _ = bandlimited_sph
    spec = str(tmp_path / "x.spec")
    main(["sft", path, "-o", spec])
    filt = tmp_path / "filt.json"
    filt.write_text(json.dumps(dict(mode="full", bandwidth=8, coeffs=[0.0] * 8)))
    out = str(tmp_path / "conv.spec")
    assert main(["conv", spec, "--filter", str(filt), "-o", out]) == 0
    assert np.abs(read_spec1(out).coeffs).max() == 0
    pooled = str(tmp_path / "p.spec")
    assert main(["pool", spec, "--kind", "sp", "-o", pooled]) == 0
    assert read_spec1(pooled).bandwidth == 4
    pooled_sph = str(tmp_path / "p.sph")
    assert main(["pool", path, "--kind", "wap", "-o", pooled_sph]) == 0
    assert read_sph1(pooled_sph).bandwidth == 4


def test_synth_train_infer(tmp_path, capsys):
    data = str(tmp_path / "ds")
    assert main(["synth", "--kind", "blobs", "--classes", "3", "--count", "4",
                 "--seed", "0", "-b", "8", "-o", data]) == 0
    meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
    assert len(meta["samples"]) == 12
    cfgfile = tmp_path / "net.json"
    cfgfile.write_text(json.dumps(dict(
        input_bandwidth=8, num_classes=3, in_channels=1, head="wgap",
        layers=[dict(out_channels=6, pool="sp"), dict(out_channels=8)],
    )))
    ckpt = str(tmp_path / "m.ckpt")
    report = str(tmp_path / "train.json")
    assert main(["train", "--config", str(cfgfile), "--data", data, "--seed", "0",
                 "--epochs", "4", "-o", ckpt, "--report", report]) == 0
    doc = json.loads((tmp_path / "train.json").read_text())
    assert len(doc["loss_per_epoch"]) == 4
    capsys.readouterr()
    assert main(["infer", "--config", str(cfgfile), "--ckpt", ckpt,
                 "--input", f"{data}/c0_0000.sph"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["logits"]) == 3 and 0 <= out["prediction"] < 3


def test_train_verbose_keeps_stdout_json(tmp_path, capsys):
    data = str(tmp_path / "ds")
    assert main(["synth", "--count", "2", "-b", "8", "-o", data]) == 0
    cfgfile = tmp_path / "net.json"
    cfgfile.write_text(json.dumps(dict(
        input_bandwidth=8, num_classes=3, in_channels=1, layers=[dict(out_channels=2)],
    )))
    capsys.readouterr()
    assert main(["train", "--config", str(cfgfile), "--data", data, "--epochs", "3",
                 "-o", str(tmp_path / "m.ckpt"), "-v"]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)["loss_per_epoch"]) == 3
    lines = captured.err.splitlines()
    assert len(lines) == 3 and all(line.startswith("epoch") for line in lines)


def test_synth_reproducible(tmp_path):
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (da, db):
        assert main(["synth", "--kind", "harmonics", "--count", "2", "--seed", "7",
                     "-b", "8", "-o", d]) == 0
    fa = sorted((tmp_path / "a").iterdir())
    fb = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in fa] == [f.name for f in fb]
    for x, y in zip(fa, fb):
        assert x.read_bytes() == y.read_bytes()


def test_equiv_report_zero_row(tmp_path, capsys):
    cfgfile = tmp_path / "net.json"
    cfgfile.write_text(json.dumps(dict(
        input_bandwidth=8, num_classes=3, in_channels=1,
        layers=[dict(out_channels=4, pool="sp", nonlinearity="none"),
                dict(out_channels=4, nonlinearity="none")],
    )))
    assert main(["equiv-report", "--config", str(cfgfile), "--seed", "1",
                 "--count", "2", "--bandlimited"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert max(doc["per_layer_error"]) < 1e-6


@pytest.mark.parametrize("count", [1, 4, 7])
def test_equiv_report_count(tmp_path, capsys, count):
    """``--count N`` measures exactly N blob signals, not 3 * (N // 3)."""
    cfgfile = tmp_path / "net.json"
    cfgfile.write_text(json.dumps(dict(
        input_bandwidth=8, num_classes=3, layers=[dict(out_channels=2)],
    )))
    assert main(["equiv-report", "--config", str(cfgfile), "--count", str(count)]) == 0
    assert json.loads(capsys.readouterr().out)["rotations_used"] == count


ONE_CHANNEL = dict(input_bandwidth=8, num_classes=3, layers=[dict(out_channels=2)])


@pytest.mark.parametrize(
    "doc, bandlimited",
    [
        (ONE_CHANNEL, False),
        (ONE_CHANNEL, True),
        (dict(preset="two_branch", input_bandwidth=16, num_classes=3), False),
        (dict(ONE_CHANNEL, in_channels=2), True),
    ],
    ids=["one-channel-blobs", "one-channel-bandlimited", "two-branch", "in-channels-2"],
)
def test_equiv_report_config_channels(tmp_path, doc, bandlimited):
    """Stimuli carry the channel count the network takes: 2 for two branches,
    else the first layer's ``in_channels``.  Channel k of a blob stimulus comes
    from the blob set seeded seed + k, centred on its own mean; with one
    channel that is the single blob set the report has always drawn."""
    cfg = tmp_path / "net.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    argv = ["equiv-report", "--config", str(cfg), "--count", "2", "--seed", "3", "-o", str(out)]
    assert main(argv + ["--bandlimited"] * bandlimited) == 0
    config = _network_from_json(doc)
    b, channels = config.input_bandwidth, doc.get("in_channels", 2 if "preset" in doc else 1)
    if bandlimited:
        rng = np.random.default_rng(3)
        signals = [random_bandlimited_signal(b, channels, rng) for _ in range(2)]
    else:  # --count 2: the first blob of classes 0 and 1
        sets = [make_blob_dataset(b, 1, seed=3 + k, canonical_pose=False) for k in range(channels)]
        signals = [
            SphericalSignal(
                sets[0].signals[i].grid,
                np.concatenate([s.signals[i].values - s.signals[i].values.mean() for s in sets]),
            )
            for i in (0, 1)
        ]
    kind = "bandlimited" if bandlimited else "blobs-centered"
    report = measure(
        config, init_parameters(config, seed=3), signals, rotations=1, seed=3,
        descriptor=dict(stimulus=kind, bandlimited=bandlimited),
    )
    assert signals[0].values.shape == (channels, 2 * b, 2 * b)
    assert out.read_text() == report.to_json() + "\n"


def test_bench_output_shape(capsys):
    assert main(["bench-sft", "--bandwidths", "8", "--reps", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["8"]) >= {"direct_median_s", "sepvar_median_s", "sepvar_faster"}


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["sft", str(tmp_path / "nope.sph"), "-o", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_bad_magic(self, tmp_path, capsys):
        bad = tmp_path / "bad.sph"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["sft", str(bad), "-o", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_pool_kind_mismatch(self, tmp_path, bandlimited_sph, capsys):
        path, _ = bandlimited_sph
        assert main(["pool", path, "--kind", "sp", "-o", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_pool_refuses_to_write_bandwidth_1(self, tmp_path, capsys):
        """Pooling a b = 2 spectrum gives b = 1, which no reader accepts: the
        writer refuses it before the output file is opened."""
        spec, out = tmp_path / "b2.spec", tmp_path / "out.spec"
        write_spec1(str(spec), random_coeffs(2, 1, np.random.default_rng(0)))
        assert main(["pool", str(spec), "--kind", "sp", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{out}: bandwidth 1 outside [2, 512]" in err and "Traceback" not in err
        assert not out.exists()

    def test_spec1_zero_bandwidth(self, tmp_path, capsys):
        bad = tmp_path / "b0.spec"
        bad.write_bytes(b"SPEC" + struct.pack("<IIB", 0, 1, 1))
        assert main(["isft", str(bad), "-o", str(tmp_path / "o")]) == 2
        assert "bandwidth 0" in capsys.readouterr().err

    def test_sph1_huge_bandwidth(self, tmp_path, capsys):
        bad = tmp_path / "huge.sph"
        bad.write_bytes(b"SPH1" + struct.pack("<IIB", 2**31 - 1, 1, 1))
        assert main(["sft", str(bad), "-o", str(tmp_path / "o")]) == 2
        assert "bandwidth 2147483647" in capsys.readouterr().err

    def test_zero_channel_headers(self, tmp_path, capsys):
        sph = tmp_path / "c0.sph"
        sph.write_bytes(b"SPH1" + struct.pack("<IIB", 8, 0, 1))
        assert sph.stat().st_size == 13
        assert main(["sft", str(sph), "-o", str(tmp_path / "o.spec")]) == 2
        assert main(["pool", str(sph), "--kind", "wap", "-o", str(tmp_path / "o.sph")]) == 2
        spec = tmp_path / "c0.spec"
        spec.write_bytes(b"SPEC" + struct.pack("<IIB", 8, 0, 1))
        assert main(["isft", str(spec), "-o", str(tmp_path / "o2.sph")]) == 2
        assert "0 channels" in capsys.readouterr().err
        assert not any(tmp_path.glob("o*"))

    @pytest.mark.parametrize("face_lines", [[], ["3 0 1"], ["3 0 1", "3 0 1 2"]])
    def test_off_with_missing_face_indices(self, tmp_path, capsys, face_lines):
        off = tmp_path / "short.off"
        off.write_text("\n".join(["OFF", "3 1 0", "0 0 0", "1 0 0", "0 1 0"] + face_lines) + "\n")
        assert main(["mesh2sphere", str(off), "-b", "8", "-o", str(tmp_path / "m.sph")]) == 2
        err = capsys.readouterr().err
        assert "short.off" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["v 0 0 0", "v 1 0", "v 0 1 0", "f 1 2 3"], "line 2: vertex needs 3 coordinates, got 2"),
            (["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 0 1 2"], "line 4: face index 0"),
            (["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 4"], "line 4: face index out of range"),
            (["v 0 0 0", "v 1 x 0", "v 0 1 0", "f 1 2 3"], "line 2: could not convert"),
            (["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 99999999999999999999"],
             "line 4: face index out of range"),
        ],
    )
    def test_malformed_obj(self, tmp_path, capsys, lines, message):
        obj = tmp_path / "bad.obj"
        obj.write_text("\n".join(lines) + "\n")
        assert main(["mesh2sphere", str(obj), "-b", "8", "-o", str(tmp_path / "m.sph")]) == 2
        err = capsys.readouterr().err
        assert f"{obj}: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["OFF", "3 x 0"], "line 2: expected an integer, got 'x'"),
            (["OFF", "3 1 0", "0 0 0", "1 x 0", "0 1 0"], "line 4: expected a number, got 'x'"),
            (["OFF", "3 1 0", "0 0 0 1 0 0 0 1 0", "t 0 1 2"], "line 4: expected an integer"),
            (["OFF", "3 1 0", "0 0 0 1 0 0 0 1 0", "3 0 1 2.5"], "line 4: expected an integer"),
            (["OFF", "3 1 0", "0 0 0 1 0 0 0 1 0", "3 0 1 3"], "line 4: face index out of range"),
            (["OFF", "3 2 0", "0 0 0 1 0 0 0 1 0", "3 0 1 2", "3 0 -1 2"], "line 5: face index"),
        ],
    )
    def test_malformed_off(self, tmp_path, capsys, lines, message):
        off = tmp_path / "bad.off"
        off.write_text("\n".join(lines) + "\n")
        assert main(["mesh2sphere", str(off), "-b", "8", "-o", str(tmp_path / "m.sph")]) == 2
        err = capsys.readouterr().err
        assert f"{off}: {message}" in err and "Traceback" not in err

    def test_nonfinite_vertex(self, tmp_path, star_off, capsys):
        tet = ["0 0 0", "1 0 0", "0 1 0", "0 0 1"]
        faces = ["3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]
        nan = tmp_path / "nan.off"
        nan.write_text("\n".join(["OFF", "4 4 0", "nan 0 0"] + tet[1:] + faces) + "\n")
        assert main(["align", str(nan), star_off, "-b", "8"]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err


class TestFlagChecks:
    """Numeric flags out of range are usage errors, caught before any work."""

    @pytest.fixture()
    def inputs(self, tmp_path, star_off, capsys):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(dict(
            input_bandwidth=8, num_classes=3, in_channels=1, layers=[dict(out_channels=2)],
        )))
        data = str(tmp_path / "ds")
        assert main(["synth", "--count", "1", "-b", "8", "-o", data]) == 0
        capsys.readouterr()
        return dict(cfg=str(cfg), data=data, mesh=star_off)

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv-report", "--config", "{cfg}", "--rotations", "0"],
            ["equiv-report", "--config", "{cfg}", "--rotations", "-2"],
            ["equiv-report", "--config", "{cfg}", "--count", "0"],
            ["bench-sft", "--bandwidths", "8", "--reps", "0"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--batch-size", "-1"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--batch-size", "0"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--epochs", "-1"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--lr", "nan"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--lr", "inf"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--lr", "0"],
            ["align", "{mesh}", "{mesh}", "-b", "8", "--grid", "0,4,4"],
            ["align", "{mesh}", "{mesh}", "-b", "8", "--grid", "4,4"],
            ["align", "{mesh}", "{mesh}", "-b", "8", "--truth", "1,2"],
            ["align", "{mesh}", "{mesh}", "-b", "8", "--truth", "0,nan,0"],
            ["synth", "--count", "0", "-b", "8"],
            ["synth", "--classes", "9", "--count", "1", "-b", "8"],
            ["synth", "--classes", "0", "--count", "1", "-b", "8"],
            ["synth", "--kind", "harmonics", "--classes", "6", "--count", "1", "-b", "8"],
            ["synth", "--kind", "harmonics", "--classes", "5", "--count", "1", "-b", "8"],
            ["synth", "--kind", "harmonics", "--classes", "3", "--count", "1", "-b", "4"],
            ["synth", "--count", "1", "-b", "0"],
            ["synth", "--count", "1", "-b", "1"],
            ["synth", "--count", "1", "-b", "513"],
            ["mesh2sphere", "{mesh}", "-b", "0"],
            ["mesh2sphere", "{mesh}", "-b", "1"],
            ["mesh2sphere", "{mesh}", "-b", "513"],
            ["align", "{mesh}", "{mesh}", "-b", "0"],
            ["align", "{mesh}", "{mesh}", "-b", "1"],
            ["align", "{mesh}", "{mesh}", "-b", "513"],
            ["bench-sft", "--bandwidths", "0", "--reps", "1"],
            ["bench-sft", "--bandwidths", "8,x", "--reps", "1"],
            ["bench-sft", "--bandwidths", "1024", "--reps", "1"],
            ["mesh2sphere", "{mesh}", "-b", "8", "--seed", "-1"],
            ["mesh2sphere", "{mesh}", "-b", "8", "--rotate", "-1"],
            ["synth", "--count", "1", "-b", "8", "--seed", "-1"],
            ["train", "--config", "{cfg}", "--data", "{data}", "--seed", "-1"],
            ["equiv-report", "--config", "{cfg}", "--seed", "-1"],
            ["bench-sft", "--bandwidths", "8", "--reps", "1", "--seed", "-1"],
            ["--threads", "0", "synth", "--count", "1", "-b", "8"],
            ["--threads", "-2", "synth", "--count", "1", "-b", "8"],
            ["mesh2sphere", "{mesh}", "-b", "8", "--jitter", "inf"],
            ["mesh2sphere", "{mesh}", "-b", "8", "--jitter", "1e300"],
            ["mesh2sphere", "{mesh}", "-b", "8", "--jitter", "nan"],
            ["mesh2sphere", "{mesh}", "-b", "8", "--jitter", "-5"],
            ["align", "{mesh}", "{mesh}", "-b", "8", "--layer", "conv1"],
            ["align", "{mesh}", "{mesh}", "-b", "8", "--config", "{cfg}"],
        ],
        ids=lambda argv: " ".join(a.strip("{}") for a in argv),
    )
    def test_out_of_range(self, tmp_path, inputs, capsys, argv):
        out = tmp_path / "out"
        argv = [a.format(**inputs) for a in argv] + ["-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err
        assert not out.exists()

    def test_synth_seed_names_the_seed(self, tmp_path, capsys):
        assert main(["synth", "--count", "1", "--seed", "-1", "-o", str(tmp_path / "d")]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_classes_in_range(self, tmp_path, capsys):
        data = tmp_path / "ds"
        assert main(["synth", "--kind", "harmonics", "--classes", "5", "--count", "1",
                     "-b", "9", "-o", str(data)]) == 0
        meta = json.loads((data / "meta.json").read_text())
        assert sorted(s["label"] for s in meta["samples"]) == [0, 1, 2, 3, 4]
        capsys.readouterr()


def test_max_bandwidth_matches_grid():
    """The parser's bandwidth bound is a literal, since importing ``grid``
    would load numpy before ``--threads`` is applied."""
    from spheresig import cli, grid

    assert cli._MAX_BANDWIDTH == grid.DEFAULT_MAX_BANDWIDTH


def test_cli_import_leaves_numpy_unloaded():
    """``--threads`` sets the BLAS/OpenMP variables in ``main``; that only
    works if importing the CLI has not loaded numpy already."""
    src = str(Path(__import__("spheresig").__path__[0]).parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spheresig.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestCheckpointAgainstConfig:
    CONFIG = dict(input_bandwidth=8, num_classes=3, in_channels=1,
                  layers=[dict(out_channels=4)])

    @pytest.fixture()
    def files(self, tmp_path, bandlimited_sph):
        cfg = NetworkConfig(
            input_bandwidth=8, layers=(LayerConfig(1, 4, "anchored", 4, "none", "relu"),),
            num_classes=3,
        )
        cfgfile = tmp_path / "net.json"
        cfgfile.write_text(json.dumps(self.CONFIG))
        return str(cfgfile), init_parameters(cfg, seed=0).tensors, bandlimited_sph[0]

    def infer(self, tmp_path, files, tensors):
        cfgfile, _, sig = files
        ckpt = str(tmp_path / "m.ckpt")
        write_ckpt1(ckpt, tensors)
        return main(["infer", "--config", cfgfile, "--ckpt", ckpt, "--input", sig])

    def test_matching_checkpoint_loads(self, tmp_path, files, capsys):
        assert self.infer(tmp_path, files, files[1]) == 0
        capsys.readouterr()

    def test_missing_tensor(self, tmp_path, files, capsys):
        tensors = dict(files[1])
        del tensors["conv1/bias"]
        assert self.infer(tmp_path, files, tensors) == 2
        err = capsys.readouterr().err
        assert "missing tensor 'conv1/bias'" in err

    def test_wrong_anchor_count(self, tmp_path, files, capsys):
        tensors = dict(files[1])
        tensors["conv1/filters"] = np.zeros((4, 1, 5))
        assert self.infer(tmp_path, files, tensors) == 2
        err = capsys.readouterr().err
        assert "'conv1/filters' has shape (4, 1, 5)" in err and "(4, 1, 4)" in err

    def test_unknown_tensor(self, tmp_path, files, capsys):
        tensors = dict(files[1], **{"branch1/conv1/bias": np.zeros(4)})
        assert self.infer(tmp_path, files, tensors) == 2
        assert "'branch1/conv1/bias'" in capsys.readouterr().err

    def test_align_net_checks_too(self, tmp_path, files, star_off, capsys):
        cfgfile, tensors, _ = files
        ckpt = str(tmp_path / "m.ckpt")
        write_ckpt1(ckpt, {k: v for k, v in tensors.items() if k != "head/weight"})
        assert main(["align", star_off, star_off, "-b", "8", "--net", ckpt,
                     "--config", cfgfile, "--layer", "conv1"]) == 2
        assert "missing tensor 'head/weight'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("head/weight", np.nan), ("conv1/filters", np.inf)])
    def test_nonfinite_tensor(self, tmp_path, files, capsys, name, value):
        tensors = dict(files[1])
        tensors[name] = np.full_like(tensors[name], value)
        assert self.infer(tmp_path, files, tensors) == 2
        err = capsys.readouterr().err
        assert f"{name!r} holds non-finite values" in err and "Traceback" not in err

    def test_repeated_tensor(self, tmp_path, files, capsys):
        """A second ``conv1/bias`` must not silently replace the first."""
        cfgfile, tensors, sig = files
        ckpt, extra = tmp_path / "m.ckpt", tmp_path / "bias.ckpt"
        write_ckpt1(str(ckpt), tensors)
        write_ckpt1(str(extra), {"conv1/bias": np.zeros_like(tensors["conv1/bias"])})
        body = ckpt.read_bytes()[9:] + extra.read_bytes()[9:]
        ckpt.write_bytes(b"CKPT1" + struct.pack("<I", len(tensors) + 1) + body)
        assert main(["infer", "--config", cfgfile, "--ckpt", str(ckpt), "--input", sig]) == 2
        assert "'conv1/bias' appears twice" in capsys.readouterr().err


def test_infer_that_overflows(tmp_path, capsys):
    """Finite input whose MAG-L norms overflow float64 exits 2 naming the
    input; no NaN logits are printed or written, and numpy does not warn."""
    doc = dict(input_bandwidth=8, num_classes=3, head="magl",
               layers=[dict(out_channels=2, nonlinearity="none")])
    cfgfile, ckpt, sig = tmp_path / "net.json", tmp_path / "m.ckpt", tmp_path / "big.sph"
    cfgfile.write_text(json.dumps(doc))
    write_ckpt1(str(ckpt), init_parameters(_network_from_json(doc), seed=0).tensors)
    write_sph1(str(sig), SphericalSignal(make_grid(8), np.full((1, 16, 16), 1e200)))
    out = tmp_path / "logits.json"
    argv = ["infer", "--config", str(cfgfile), "--ckpt", str(ckpt), "--input", str(sig)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
        assert main(argv + ["-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert str(sig) in captured.err and "overflow" in captured.err
    assert "Traceback" not in captured.err


class TestInputShape:
    """Signals that do not fit the config's (channels, 2b, 2b) exit 2 with
    both shapes named, a message and no traceback, and nothing is written."""

    TWO_BRANCH = dict(preset="two_branch", input_bandwidth=16, num_classes=3)
    ONE_LAYER = dict(num_classes=3, layers=[dict(out_channels=2)])

    @pytest.mark.parametrize(
        "doc, expected",
        [
            (TWO_BRANCH, "(batch, 2, 32, 32)"),
            (dict(ONE_LAYER, input_bandwidth=16), "(batch, 1, 32, 32)"),
        ],
        ids=["two-branch", "bandwidth-16"],
    )
    def test_train(self, tmp_path, capsys, doc, expected):
        data = str(tmp_path / "ds")
        assert main(["synth", "--count", "1", "-b", "8", "-o", data]) == 0
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(doc))
        ckpt, report = tmp_path / "m.ckpt", tmp_path / "train.json"
        capsys.readouterr()
        argv = ["train", "--config", str(cfg), "--data", data, "--epochs", "1",
                "-o", str(ckpt), "--report", str(report)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "(3, 1, 16, 16)" in err and expected in err and "Traceback" not in err
        assert not ckpt.exists() and not report.exists()


class TestJsonEdges:
    """Config and filter JSON of the wrong shape exit 2 with a message, never a traceback."""

    NET = dict(input_bandwidth=8, num_classes=3, layers=[dict(out_channels=2)])

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([NET], "expected a JSON object"),
            (dict(NET, layers="ab"), "net.json: string indices must be integers"),
            (dict(NET, layers=[]), "at least one layer"),
            (dict(NET, layers=[dict(out_channels=0)]), "channel counts must be at least 1"),
            (dict(NET, concat_layers=[1]), "concat_layers need branches 2, got branches 1"),
            (dict(NET, num_classes=3.7), "num_classes must be an integer, got 3.7"),
            (dict(NET, input_bandwidth="8"), "input_bandwidth must be an integer, got '8'"),
            (dict(NET, in_channels=True), "in_channels must be an integer, got True"),
            (dict(NET, branches=2.0), "branches must be an integer, got 2.0"),
            (dict(NET, layers=[dict(out_channels=2.5)]), "out_channels must be an integer"),
            (dict(NET, layers=[dict(out_channels=2, anchors="4")]), "anchors must be an integer"),
            (
                dict(NET, branches=2, concat_layers=[1.0]),
                "each concat_layers entry must be an integer, got 1.0",
            ),
            (
                dict(preset="two_branch", input_bandwidth=16, num_classes=3.7),
                "num_classes must be an integer, got 3.7",
            ),
            (
                dict(NET, layers=[dict(out_channels=2, filter_mode="full")]),
                "unknown key 'filter_mode' in layer 0",
            ),
            (dict(NET, filter_mode="full"), "unknown key 'filter_mode' in the network config"),
            (dict(NET, preset="two-branch"), "unknown preset 'two-branch'"),
            (
                dict(preset="two_branch", input_bandwidth=16, num_classes=3, filter="full"),
                "unknown key 'filter' in the preset config",
            ),
            (dict(NET, preset="two_branch"), "unknown key 'layers' in the preset config"),
            (
                dict(NET, layers=[dict(out_channels=2, anchors=1)]),
                "an anchored filter needs anchors >= 2, got 1",
            ),
            (dict(NET, input_bandwidth=1), "input_bandwidth must be in [2, 512], got 1"),
            (dict(NET, input_bandwidth=513), "input_bandwidth must be in [2, 512], got 513"),
            (dict(NET, in_channels=2, branches=2), "two branches need in_channels 1, got 2"),
        ],
        ids=[
            "top-level-list", "layers-string", "layers-empty", "out-channels-0",
            "concat-one-branch", "num-classes-fraction", "bandwidth-string",
            "in-channels-bool", "branches-fraction", "out-channels-fraction",
            "anchors-string", "concat-entry-fraction", "preset-num-classes-fraction",
            "layer-filter-mode", "network-filter-mode", "preset-misspelled",
            "preset-filter", "preset-layers", "anchors-1", "bandwidth-1", "bandwidth-513",
            "two-branch-in-channels-2",
        ],
    )
    def test_network_config(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["equiv-report", "--config", str(cfg), "--count", "1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_full_layer_ignores_anchors(self, tmp_path, capsys):
        """A full filter anchors every degree, so a full layer's ``anchors``
        is unused and 0 runs."""
        cfg = tmp_path / "net.json"
        layer = dict(out_channels=2, filter="full", anchors=0)
        cfg.write_text(json.dumps(dict(self.NET, layers=[layer])))
        out = tmp_path / "report.json"
        assert main(["equiv-report", "--config", str(cfg), "--count", "1", "-o", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["layers"] == ["input", "conv1"]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([dict(mode="full", bandwidth=8, coeffs=[1.0] * 8)], "expected a JSON object"),
            (dict(mode="full", bandwidth=8, coeffs=[None] + [1.0] * 7), "non-finite"),
            (
                dict(mode="anchored", bandwidth=8, degrees=[0, 1.5, 7], values=[1, 2, 3]),
                "anchor degrees must be integers",
            ),
            (
                dict(mode="anchored", bandwidth=8.9, degrees=[0, 3, 7], values=[1, 2, 3]),
                "bandwidth must be an integer, got 8.9",
            ),
            (
                dict(mode="full", bandwidth=True, coeffs=[1.0]),
                "bandwidth must be an integer, got True",
            ),
            (
                dict(mode="Full", bandwidth=8, degrees=[0, 7], values=[1, 0], coeffs=[1.0] * 8),
                "unknown filter mode 'Full'",
            ),
            (
                dict(mode="full", bandwidth=8, coeffs=[1.0] * 8, degrees=[0, 7]),
                "unknown key 'degrees' in the full filter",
            ),
            (
                dict(mode="anchored", bandwidth=8, degrees=[0, 7], values=[1, 0], coeffs=[1.0]),
                "unknown key 'coeffs' in the anchored filter",
            ),
        ],
        ids=[
            "top-level-list", "null-coefficient", "fractional-degree", "bandwidth-fraction",
            "bandwidth-bool", "mode-capitalized", "full-with-degrees", "anchored-with-coeffs",
        ],
    )
    def test_filter(self, tmp_path, bandlimited_sph, capsys, doc, message):
        spec = tmp_path / "x.spec"
        assert main(["sft", bandlimited_sph[0], "-o", str(spec)]) == 0
        filt = tmp_path / "f.json"
        filt.write_text(json.dumps(doc))
        out = tmp_path / "y.spec"
        assert main(["conv", str(spec), "--filter", str(filt), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_filter_that_overflows(self, tmp_path, bandlimited_sph, capsys):
        """A finite but huge filter overflows the convolution: exit 2, no
        all-inf spectrum written, no numpy warning."""
        spec = tmp_path / "x.spec"
        assert main(["sft", bandlimited_sph[0], "-o", str(spec)]) == 0
        filt = tmp_path / "f.json"
        filt.write_text(json.dumps(dict(mode="full", bandwidth=8, coeffs=[1e308] * 8)))
        out = tmp_path / "y.spec"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["conv", str(spec), "--filter", str(filt), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "meta, message",
        [
            (dict(samples=5), "'samples' must be a list"),
            (dict(samples=[dict(file="a.sph", label=None)]), "integer 'label'"),
            (dict(samples=[dict(file=3, label=0)]), "string 'file'"),
            (dict(samples=["a.sph"]), "sample 0 is not an object"),
        ],
        ids=["samples-int", "label-null", "file-int", "sample-string"],
    )
    def test_dataset_meta(self, tmp_path, capsys, meta, message):
        data = tmp_path / "ds"
        data.mkdir()
        (data / "meta.json").write_text(json.dumps(meta))
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(self.NET))
        ckpt = tmp_path / "m.ckpt"
        argv = ["train", "--config", str(cfg), "--data", str(data), "-o", str(ckpt)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "meta.json" in err and message in err and "Traceback" not in err
        assert not ckpt.exists()
