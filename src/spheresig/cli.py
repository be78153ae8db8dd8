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


_MAX_BANDWIDTH = 512  # grid.DEFAULT_MAX_BANDWIDTH; importing grid here would load numpy
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "must be an integer of at least 1")
_SEED = _checked(int, lambda v: v >= 0, "must be an integer of at least 0")
_FRACTION = _checked(float, lambda v: 0 <= v <= 1, "must be a number in [0, 1]")
_BANDWIDTH = _checked(
    int, lambda v: 2 <= v <= _MAX_BANDWIDTH, f"must be an integer in [2, {_MAX_BANDWIDTH}]"
)
_BANDWIDTHS = _checked(
    lambda t: [int(x) for x in t.split(",")],
    lambda v: all(2 <= x <= _MAX_BANDWIDTH for x in v),
    f"must be integers in [2, {_MAX_BANDWIDTH}], comma-separated",
)
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


def _emit(doc: dict | str, path: str | None) -> None:
    """Write ``doc`` (a JSON string, or an object to indent) to ``path`` or stdout."""
    text = (doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True, indent=2)) + "\n"
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


def _known_keys(doc, keys: str, where: str) -> None:
    """A key the parser does not read is a data error, not a silent default."""
    extra = sorted(set(doc) - set(keys.split())) if isinstance(doc, dict) else []
    if extra:
        raise ValueError(f"unknown key {extra[0]!r} in {where}; allowed: {keys}")


# The keys each config object may hold: exactly those its parser reads.
_PRESET_ARGS = "input_bandwidth num_classes pool filter_mode anchors head"
_NETWORK_KEYS = "input_bandwidth num_classes in_channels layers head branches concat_layers"
_LAYER_KEYS = "out_channels filter anchors pool nonlinearity"
_FILTER_KEYS = dict(full="mode bandwidth coeffs", anchored="mode bandwidth degrees values")


def _given(doc: dict, keys: str) -> dict:
    """Keyword arguments from the entries of ``doc`` under ``keys`` that it holds."""
    return {("filter_mode" if k == "filter" else k): doc[k] for k in keys.split() if k in doc}


def _network_from_json(doc: dict):
    """A ``NetworkConfig`` from a config JSON object.  An omitted key takes the
    default of the config type it feeds."""
    from .network import LayerConfig, NetworkConfig, two_branch_config

    if "preset" in doc:
        if doc["preset"] != "two_branch":
            raise ValueError(f"unknown preset {doc['preset']!r}; the only preset is 'two_branch'")
        _known_keys(doc, "preset " + _PRESET_ARGS, "the preset config")
        return two_branch_config(**_given(doc, _PRESET_ARGS))
    _known_keys(doc, _NETWORK_KEYS, "the network config")
    layers = []
    for i, spec in enumerate(doc["layers"]):
        _known_keys(spec, _LAYER_KEYS, f"layer {i}")
        opts = _given(spec, "filter anchors pool nonlinearity")
        layers.append(LayerConfig(spec["out_channels"], **opts))
    return NetworkConfig(
        doc["input_bandwidth"],
        tuple(layers),
        doc["num_classes"],
        **_given(doc, "head branches concat_layers in_channels"),
    )


def _filter_from_json(doc: dict):
    from .spectral import ZonalFilterSpec

    if doc["mode"] not in _FILTER_KEYS:
        raise ValueError(f"unknown filter mode {doc['mode']!r}; use 'full' or 'anchored'")
    _known_keys(doc, _FILTER_KEYS[doc["mode"]], f"the {doc['mode']} filter")
    if doc["mode"] == "full":
        return ZonalFilterSpec("full", doc["bandwidth"], full_coeffs=doc["coeffs"])
    return ZonalFilterSpec(
        "anchored", doc["bandwidth"], anchor_degrees=doc["degrees"], anchor_values=doc["values"]
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
    """``meta.json`` of a dataset directory: a non-empty ``samples`` list of objects,
    each naming an SPH1 ``file`` (a string; all of one shape) and an integer ``label``."""
    import numpy as np

    from .formats import read_sph1

    meta_path = os.path.join(path, "meta.json")
    meta = _load_json(meta_path)
    samples = meta.get("samples")
    if not isinstance(samples, list):
        raise FormatError(f"{meta_path}: 'samples' must be a list of objects")
    if not samples:
        raise FormatError(f"{meta_path}: 'samples' is empty")
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
        if signals[i].values.shape != signals[0].values.shape:
            shapes = f"{signals[i].values.shape}, sample 0 has {signals[0].values.shape}"
            raise FormatError(f"{meta_path}: sample {i} ({file}) has shape {shapes}")
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
        check_degree_sets,
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
    if args.kind == "harmonics":
        try:
            check_degree_sets(kinds[: args.classes], args.bandwidth)
        except ValueError as exc:
            raise UsageError(f"-b/--bandwidth: {exc}") from None
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
    import numpy as np

    from .formats import read_sph1
    from .network import forward

    config = _load_json(args.config, _network_from_json)
    params = _load_checkpoint(args.ckpt, config)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = forward(config, params, read_sph1(args.input))
    if not np.isfinite(logits).all():
        raise FormatError(f"{args.input}: the network's logits overflow float64")
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
    if not args.net and (args.config or args.layer != "input"):
        raise UsageError("--config and --layer (other than input) require --net")
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
    from .network import init_parameters
    from .sft import SphericalSignal, random_bandlimited_signal
    from .synth import make_blob_dataset

    config = _load_json(args.config, _network_from_json)
    b, channels = config.input_bandwidth, config.input_channels
    if args.bandlimited:
        rng = np.random.default_rng(args.seed)
        signals = [random_bandlimited_signal(b, channels, rng) for _ in range(args.count)]
        kind = "bandlimited"
    else:
        q, r = divmod(args.count, 3)  # each class keeps q signals, the first r one more
        per = q + (r > 0)
        seeds = range(args.seed, args.seed + channels)  # channel k: blob set seed + k
        sets = [make_blob_dataset(b, per, s, canonical_pose=False) for s in seeds]
        signals = []
        for i in (c * per + k for c in range(3) for k in range(q + (c < r))):
            values = np.concatenate([v - v.mean() for v in (s.signals[i].values for s in sets)])
            signals.append(SphericalSignal(sets[0].signals[i].grid, values))
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
    _emit(report.to_json(), args.output)
    print(report.table(), file=sys.stderr)
    return 0


def _cmd_bench_sft(args) -> int:
    from .bench import benchmark_sft

    results = benchmark_sft(args.bandwidths, reps=args.reps, seed=args.seed)
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
    p.add_argument("--threads", type=_AT_LEAST_1, default=None, help="cap BLAS/OpenMP threads")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mesh2sphere", help="project a mesh to a 2-channel signal")
    s.add_argument("mesh")
    s.add_argument("-b", "--bandwidth", type=_BANDWIDTH, required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--jitter", type=_FRACTION, default=0.0, help="fraction of the radius")
    s.add_argument("--rotate", type=_SEED, default=None, metavar="SEED")
    s.add_argument("--seed", type=_SEED, default=0, help="rng seed when --rotate is absent")
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
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("-b", "--bandwidth", type=_BANDWIDTH, default=8)
    s.add_argument("-o", "--output", required=True, metavar="DIR")
    s.set_defaults(fn=_cmd_synth)

    s = sub.add_parser("train", help="train a classifier on a dataset directory")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--seed", type=_SEED, default=0)
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
    s.add_argument("-b", "--bandwidth", type=_BANDWIDTH, default=32)
    s.add_argument("--layer", default="input")
    s.add_argument("--net", default=None, metavar="CKPT")
    s.add_argument("--config", default=None, metavar="JSON")
    s.add_argument("--grid", type=_GRID, default="16,16,16")
    s.add_argument("--truth", type=_ANGLES, default=None, metavar="A,B,G")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=_cmd_align)

    s = sub.add_parser("equiv-report", help="per-layer equivariance error report")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--count", type=_AT_LEAST_1, default=6)
    s.add_argument("--rotations", type=_AT_LEAST_1, default=1)
    s.add_argument("--bandlimited", action="store_true")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(fn=_cmd_equiv_report)

    s = sub.add_parser("bench-sft", help="time direct vs separated transforms")
    s.add_argument("--bandwidths", type=_BANDWIDTHS, default="8,16,32,64")
    s.add_argument("--reps", type=_AT_LEAST_1, default=10)
    s.add_argument("--seed", type=_SEED, default=0)
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
