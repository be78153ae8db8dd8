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

from spheresig.cli import main
from spheresig.formats import read_spec1, read_sph1, write_ckpt1, write_sph1
from spheresig.grid import make_grid
from spheresig.harmonics import build_table, shared_table
from spheresig.network import LayerConfig, NetworkConfig, init_parameters
from spheresig.sft import isft, random_coeffs, sft_direct, sft_sepvar
from spheresig.synth import star_mesh


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

    def test_classes_in_range(self, tmp_path, capsys):
        data = tmp_path / "ds"
        assert main(["synth", "--kind", "harmonics", "--classes", "5", "--count", "1",
                     "-b", "8", "-o", str(data)]) == 0
        meta = json.loads((data / "meta.json").read_text())
        assert sorted(s["label"] for s in meta["samples"]) == [0, 1, 2, 3, 4]
        capsys.readouterr()


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
        ],
        ids=["top-level-list", "layers-string", "layers-empty", "out-channels-0"],
    )
    def test_network_config(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "net.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["equiv-report", "--config", str(cfg), "--count", "1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([dict(mode="full", bandwidth=8, coeffs=[1.0] * 8)], "expected a JSON object"),
            (dict(mode="full", bandwidth=8, coeffs=[None] + [1.0] * 7), "non-finite"),
            (
                dict(mode="anchored", bandwidth=8, degrees=[0, 1.5, 7], values=[1, 2, 3]),
                "anchor degrees must be integers",
            ),
        ],
        ids=["top-level-list", "null-coefficient", "fractional-degree"],
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
