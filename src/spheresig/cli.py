"""Command-line interface tying the toolkit into reproducible pipelines.

Subcommands: mesh2sphere, sft, isft, conv, pool, train, infer, align,
equiv-report, bench-sft, synth.  Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical failure.  Diagnostics go to stderr;
machine-readable output goes to files or stdout as JSON.  Given identical
seeds and flags every pipeline is reproducible byte for byte (timing
fields excepted).

Heavy imports happen inside the handlers so that ``--threads`` can cap the
BLAS/OpenMP pools before the numerical stack loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import FormatError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _checked(parse, ok, rule: str):
    """argparse type: ``parse(text)``, a usage error unless ``ok`` accepts it."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return check


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "must be an integer of at least 1")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "must be finite and greater than 0")
_GRID = _checked(
    lambda t: tuple(int(x) for x in t.split(",")),
    lambda v: len(v) == 3 and min(v) >= 1,
    "must be three positive integers, comma-separated",
)
_ANGLES = _checked(
    lambda t: tuple(float(x) for x in t.split(",")),
    lambda v: len(v) == 3 and all(map(math.isfinite, v)),
    "must be three finite numbers, comma-separated",
)


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str, parse=None):
    """A JSON object from ``path``, passed through ``parse`` if given.  A field
    of the wrong JSON type (a string for a list, null for a number) surfaces
    as TypeError/AttributeError while parsing: a data error."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return doc if parse is None else parse(doc)
    except (TypeError, AttributeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------


def _network_from_json(doc: dict):
    from .network import LayerConfig, NetworkConfig, two_branch_config

    if doc.get("preset") == "two_branch":
        return two_branch_config(
            input_bandwidth=int(doc.get("input_bandwidth", 32)),
            num_classes=int(doc.get("num_classes", 40)),
            pool=doc.get("pool", "wap"),
            filter_mode=doc.get("filter_mode", "anchored"),
            anchors=int(doc.get("anchors", 8)),
            head=doc.get("head", "wgap"),
        )
    layers = []
    prev = int(doc.get("in_channels", 1))
    for spec in doc["layers"]:
        layers.append(
            LayerConfig(
                in_channels=prev,
                out_channels=int(spec["out_channels"]),
                filter_mode=spec.get("filter", "anchored"),
                anchors=int(spec.get("anchors", 4)),
                pool=spec.get("pool", "none"),
                nonlinearity=spec.get("nonlinearity", "relu"),
            )
        )
        prev = int(spec["out_channels"])
    return NetworkConfig(
        input_bandwidth=int(doc["input_bandwidth"]),
        layers=tuple(layers),
        num_classes=int(doc["num_classes"]),
        head=doc.get("head", "wgap"),
        branches=int(doc.get("branches", 1)),
        concat_layers=tuple(doc.get("concat_layers", ())),
    )


def _filter_from_json(doc: dict):
    from .spectral import ZonalFilterSpec

    if doc["mode"] == "full":
        return ZonalFilterSpec("full", int(doc["bandwidth"]), full_coeffs=doc["coeffs"])
    return ZonalFilterSpec(
        "anchored",
        int(doc["bandwidth"]),
        anchor_degrees=doc["degrees"],
        anchor_values=doc["values"],
    )


def _load_checkpoint(path: str, config):
    """Checkpoint tensors, checked by name, then shape, then finiteness against ``config``."""
    import numpy as np

    from .formats import read_ckpt1
    from .network import ParameterStore, parameter_shapes

    tensors = read_ckpt1(path)
    expected = dict(parameter_shapes(config))
    for name in expected:
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r} required by the config")
    for name in tensors:
        if name not in expected:
            raise FormatError(f"{path}: tensor {name!r} is not a parameter of the config")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"the config needs {shape}"
            )
        if not np.isfinite(tensors[name]).all():
            raise FormatError(f"{path}: tensor {name!r} holds non-finite values")
    return ParameterStore(tensors=tensors)


def _load_dataset_dir(path: str):
    """``meta.json`` of a dataset directory: a ``samples`` list of objects, each
    naming an SPH1 ``file`` (a string) and an integer ``label``."""
    import numpy as np

    from .formats import read_sph1

    meta_path = os.path.join(path, "meta.json")
    meta = _load_json(meta_path)
    samples = meta.get("samples")
    if not isinstance(samples, list):
        raise FormatError(f"{meta_path}: 'samples' must be a list of objects")
    signals, labels = [], []
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            raise FormatError(f"{meta_path}: sample {i} is not an object")
        file, label = sample.get("file"), sample.get("label")
        if not isinstance(file, str):
            raise FormatError(f"{meta_path}: sample {i} needs a string 'file'")
        if not isinstance(label, int) or isinstance(label, bool):
            raise FormatError(f"{meta_path}: sample {i} needs an integer 'label'")
        signals.append(read_sph1(os.path.join(path, file)))
        labels.append(label)
    return meta, signals, np.array(labels)


# ---------------------------------------------------------------------------
# Handlers.
# ---------------------------------------------------------------------------


def _cmd_mesh2sphere(args) -> int:
    import numpy as np

    from .formats import write_sph1
    from .mesh import load_mesh, project_mesh
    from .network import augment

    mesh = load_mesh(args.mesh)
    rng = np.random.default_rng(args.rotate if args.rotate is not None else args.seed)
    if args.rotate is not None:
        mesh = augment(mesh, rotate=True, rng=rng)
    if args.jitter:
        mesh = augment(mesh, center_jitter=args.jitter, rng=rng)
    rep = project_mesh(mesh, args.bandwidth)
    write_sph1(args.output, rep.signal, dtype=args.dtype)
    print(f"wrote {args.output} (b={args.bandwidth}, radius={rep.radius:.6g})", file=sys.stderr)
    return 0


def _cmd_sft(args) -> int:
    from .formats import read_sph1, write_spec1
    from .harmonics import shared_table
    from .sft import sft_direct, sft_sepvar

    sig = read_sph1(args.input)
    table = shared_table(sig.bandwidth)
    fn = sft_direct if args.method == "direct" else sft_sepvar
    write_spec1(args.output, fn(sig, table))
    return 0


def _cmd_isft(args) -> int:
    from .formats import read_spec1, write_sph1
    from .harmonics import shared_table
    from .sft import isft

    coeffs = read_spec1(args.input)
    sig = isft(coeffs, shared_table(coeffs.bandwidth))
    write_sph1(args.output, sig, dtype=args.dtype)
    return 0


def _cmd_conv(args) -> int:
    import numpy as np

    from .formats import read_spec1, write_spec1
    from .spectral import conv_spectral

    coeffs = read_spec1(args.input)
    h = _load_json(args.filter, _filter_from_json)
    with np.errstate(over="ignore", invalid="ignore"):
        out = conv_spectral(coeffs, h)
    if not np.isfinite(out.coeffs).all():
        raise FormatError(f"{args.filter}: convolving {args.input} overflows float64")
    write_spec1(args.output, out)
    return 0


def _cmd_pool(args) -> int:
    from .formats import read_spec1, read_sph1, write_spec1, write_sph1
    from .spectral import max_pool, spectral_pool, weighted_avg_pool

    if args.kind == "sp":
        write_spec1(args.output, spectral_pool(read_spec1(args.input)))
    else:
        sig = read_sph1(args.input)
        pooled = weighted_avg_pool(sig) if args.kind == "wap" else max_pool(sig)
        write_sph1(args.output, pooled, dtype=args.dtype)
    return 0


def _cmd_synth(args) -> int:
    from .formats import write_sph1
    from .synth import (
        BLOB_CLASSES,
        HARMONIC_DEGREE_SETS,
        make_blob_dataset,
        make_harmonic_dataset,
    )

    if args.kind == "blobs":
        make, kinds = make_blob_dataset, BLOB_CLASSES
    else:
        make, kinds = make_harmonic_dataset, HARMONIC_DEGREE_SETS
    if not 1 <= args.classes <= len(kinds):
        raise UsageError(
            f"--classes must be between 1 and {len(kinds)} for {args.kind}, got {args.classes}"
        )
    ds = make(args.bandwidth, args.count, args.seed, kinds[: args.classes])
    os.makedirs(args.output, exist_ok=True)
    samples = []
    for i, (sig, label) in enumerate(zip(ds.signals, ds.labels)):
        name = f"c{label}_{i:04d}.sph"
        write_sph1(os.path.join(args.output, name), sig)
        samples.append(dict(file=name, label=int(label)))
    meta = dict(
        kind=args.kind,
        bandwidth=ds.bandwidth,
        classes=ds.classes,
        seed=args.seed,
        samples=samples,
    )
    _emit(meta, os.path.join(args.output, "meta.json"))
    print(f"wrote {len(samples)} samples to {args.output}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    import numpy as np

    from .formats import write_ckpt1
    from .network import TrainSchedule, predict, train

    config = _load_json(args.config, _network_from_json)
    meta, signals, labels = _load_dataset_dir(args.data)
    x = np.stack([s.values for s in signals])
    schedule = TrainSchedule(
        epochs=args.epochs,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        augment_rotate="z" if args.augment_z else None,
        log=args.verbose,
    )
    params, history = train(config, x, labels, schedule)
    write_ckpt1(args.output, params.tensors)
    acc = float((predict(config, params, x) == labels).mean())
    _emit(
        dict(
            epochs=schedule.epochs,
            loss_per_epoch=[round(f, 10) for f in history],
            train_accuracy=acc,
            checkpoint=args.output,
            seed=args.seed,
        ),
        args.report,
    )
    return 0


def _cmd_infer(args) -> int:
    from .formats import read_sph1
    from .network import forward

    config = _load_json(args.config, _network_from_json)
    params = _load_checkpoint(args.ckpt, config)
    sig = read_sph1(args.input)
    logits, _ = forward(config, params, sig)
    _emit(
        dict(logits=[float(v) for v in logits], prediction=int(logits.argmax())),
        args.output,
    )
    return 0


def _cmd_align(args) -> int:
    from .align import align_shapes
    from .mesh import load_mesh
    from .rotation import RotationZYZ

    net = params = None
    if args.net:
        if not args.config:
            raise UsageError("--net requires --config")
        net = _load_json(args.config, _network_from_json)
        params = _load_checkpoint(args.net, net)
    truth = None if args.truth is None else RotationZYZ(*args.truth)
    result = align_shapes(
        load_mesh(args.mesh_a),
        load_mesh(args.mesh_b),
        b=args.bandwidth,
        net=net,
        params=params,
        layer=args.layer,
        grid_size=args.grid,
        truth=truth,
    )
    doc = dict(
        rotation_zyz=[result.rotation.alpha, result.rotation.beta, result.rotation.gamma],
        score=result.score,
        degenerate=result.degenerate,
    )
    if result.angular_error_deg is not None:
        doc["angular_error_deg"] = result.angular_error_deg
    _emit(doc, args.output)
    return 0


def _cmd_equiv_report(args) -> int:
    import numpy as np

    from .equivariance import measure
    from .harmonics import shared_table
    from .network import init_parameters
    from .sft import SphericalSignal, random_bandlimited_signal
    from .synth import make_blob_dataset

    config = _load_json(args.config, _network_from_json)
    b = config.input_bandwidth
    if args.bandlimited:
        rng = np.random.default_rng(args.seed)
        signals = [
            random_bandlimited_signal(b, 1, rng, shared_table(b))
            for _ in range(args.count)
        ]
        kind = "bandlimited"
    else:
        per = max(1, args.count // 3)
        ds = make_blob_dataset(b, per, seed=args.seed, canonical_pose=False)
        signals = [
            SphericalSignal(s.grid, s.values - s.values.mean()) for s in ds.signals
        ]
        kind = "blobs-centered"
    params = init_parameters(config, seed=args.seed)
    report = measure(
        config,
        params,
        signals,
        rotations=args.rotations,
        seed=args.seed,
        descriptor=dict(stimulus=kind, bandlimited=args.bandlimited),
    )
    text = report.to_json() + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(report.table(), file=sys.stderr)
    return 0


def _cmd_bench_sft(args) -> int:
    from .bench import benchmark_sft

    bandwidths = [int(b) for b in args.bandwidths.split(",")]
    results = benchmark_sft(bandwidths, reps=args.reps, seed=args.seed)
    doc = {
        str(b): dict(r, sepvar_faster=r["sepvar_median_s"] < r["direct_median_s"])
        for b, r in results.items()
    }
    _emit(doc, args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="spheresig", description=__doc__)
    p.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP threads")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mesh2sphere", help="project a mesh to a 2-channel signal")
    s.add_argument("mesh")
    s.add_argument("-b", "--bandwidth", type=int, required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--jitter", type=float, default=0.0)
    s.add_argument("--rotate", type=int, default=None, metavar="SEED")
    s.add_argument("--seed", type=int, default=0, help="rng seed when --rotate is absent")
    s.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    s.set_defaults(fn=_cmd_mesh2sphere)

    s = sub.add_parser("sft", help="forward transform of an SPH1 file")
    s.add_argument("input")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--method", choices=("direct", "sepvar"), default="sepvar")
    s.set_defaults(fn=_cmd_sft)

    s = sub.add_parser("isft", help="inverse transform of a SPEC1 file")
    s.add_argument("input")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    s.set_defaults(fn=_cmd_isft)

    s = sub.add_parser("conv", help="convolve a SPEC1 file with a zonal filter")
    s.add_argument("input")
    s.add_argument("--filter", required=True, metavar="JSON")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=_cmd_conv)

    s = sub.add_parser("pool", help="downsample a signal or spectrum")
    s.add_argument("input")
    s.add_argument("--kind", choices=("sp", "wap", "max"), required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    s.set_defaults(fn=_cmd_pool)

    s = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    s.add_argument("--kind", choices=("blobs", "harmonics"), default="blobs")
    s.add_argument("--classes", type=int, default=3, help="blobs: 1-3, harmonics: 1-5")
    s.add_argument("--count", type=_AT_LEAST_1, required=True, help="samples per class")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-b", "--bandwidth", type=int, default=8)
    s.add_argument("-o", "--output", required=True, metavar="DIR")
    s.set_defaults(fn=_cmd_synth)

    s = sub.add_parser("train", help="train a classifier on a dataset directory")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--epochs", type=_AT_LEAST_1, default=48)
    s.add_argument("--lr", type=_POSITIVE, default=1e-3)
    s.add_argument("--batch-size", type=_AT_LEAST_1, default=16)
    s.add_argument("--augment-z", action="store_true")
    s.add_argument("-o", "--output", required=True, metavar="CKPT")
    s.add_argument("--report", default=None, metavar="JSON")
    s.add_argument("-v", "--verbose", action="store_true")
    s.set_defaults(fn=_cmd_train)

    s = sub.add_parser("infer", help="classify one SPH1 signal")
    s.add_argument("--config", required=True)
    s.add_argument("--ckpt", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=_cmd_infer)

    s = sub.add_parser("align", help="estimate the rotation aligning two meshes")
    s.add_argument("mesh_a")
    s.add_argument("mesh_b")
    s.add_argument("-b", "--bandwidth", type=int, default=32)
    s.add_argument("--layer", default="input")
    s.add_argument("--net", default=None, metavar="CKPT")
    s.add_argument("--config", default=None, metavar="JSON")
    s.add_argument("--grid", type=_GRID, default="16,16,16")
    s.add_argument("--truth", type=_ANGLES, default=None, metavar="A,B,G")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=_cmd_align)

    s = sub.add_parser("equiv-report", help="per-layer equivariance error report")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=_AT_LEAST_1, default=6)
    s.add_argument("--rotations", type=_AT_LEAST_1, default=1)
    s.add_argument("--bandlimited", action="store_true")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=_cmd_equiv_report)

    s = sub.add_parser("bench-sft", help="time direct vs separated transforms")
    s.add_argument("--bandwidths", default="8,16,32,64")
    s.add_argument("--reps", type=_AT_LEAST_1, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=_cmd_bench_sft)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None:
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            ):
                os.environ[var] = str(args.threads)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, KeyError, ValueError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
