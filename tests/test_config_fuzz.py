"""Seeded fuzz of network configs: every config that constructs also runs.

Each example draws a small config document (b <= 8, 1-3 layers, one or two
branches, concat layers, ``in_channels`` 1-3, every pool, filter mode and
head, anchors 0-9).  It builds the config from Python through
``LayerConfig``/``NetworkConfig`` and runs the same document through
``spheresig equiv-report`` in-process.  The contract: either construction
raises ValueError or TypeError naming a field and the CLI exits 2 with that
message, or ``init_parameters``, ``backward`` on a batch of 2 and ``measure``
give finite outputs of the declared shapes and the CLI exits 0.  Only
``measure``'s zero-norm warning may be raised, and only its layers may
report NaN, which the CLI's report writes as ``null``: the report parses as
strict JSON.  A config whose layers are all linear, pooled by ``none`` or
``sp``, scores every row below 1e-6 on its bandlimited input.  A second fuzz
checks ``backward`` against central differences on the same configs.
"""

import json
import re
import warnings
from dataclasses import fields

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spheresig.cli import main
from spheresig.equivariance import measure
from spheresig.network import (
    LayerConfig,
    NetworkConfig,
    ParameterStore,
    backward,
    init_parameters,
    parameter_shapes,
)
from spheresig.sft import random_bandlimited_signal
from test_cli import loads_strict

FIELDS = {f.name for cls in (LayerConfig, NetworkConfig) for f in fields(cls)}
NAMES_A_FIELD = re.compile(r"\b(" + "|".join(sorted(FIELDS)) + r")\b")


def favour(valid, anything):
    """A strategy drawing from ``valid`` about half the time, else from ``anything``."""
    return st.one_of(valid, anything)


@st.composite
def config_docs(draw):
    """Invalid values stay possible for every field, but valid ones are
    favoured, so that two-branch, concat and pooled configs also construct."""
    n = draw(st.integers(1, 3))
    layers = [
        dict(
            out_channels=draw(st.integers(1, 3)),
            filter=draw(st.sampled_from(["anchored", "full"])),
            anchors=draw(favour(st.integers(2, 9), st.integers(0, 9))),
            pool=draw(favour(st.just("none"), st.sampled_from(["none", "sp", "wap", "max"]))),
            nonlinearity=draw(st.sampled_from(["relu", "none"])),
        )
        for _ in range(n)
    ]
    branches = draw(st.integers(1, 2))
    concat = st.lists(st.integers(0, n), max_size=2, unique=True)
    if branches == 2 and n > 1:
        concat = favour(st.lists(st.integers(1, n - 1), min_size=1, max_size=2, unique=True), concat)
    return dict(
        input_bandwidth=draw(favour(st.sampled_from([4, 8]), st.integers(1, 8))),
        num_classes=draw(st.integers(1, 3)),
        in_channels=draw(favour(st.just(1), st.integers(1, 3))),
        layers=layers,
        head=draw(st.sampled_from(["wgap", "magl"])),
        branches=branches,
        concat_layers=draw(favour(st.just([]), concat) if branches == 1 else concat),
    )


def build(doc: dict) -> NetworkConfig:
    layers = []
    for spec in doc["layers"]:
        kwargs = {k: v for k, v in spec.items() if k not in ("out_channels", "filter")}
        layers.append(LayerConfig(spec["out_channels"], spec["filter"], **kwargs))
    return NetworkConfig(
        doc["input_bandwidth"],
        tuple(layers),
        doc["num_classes"],
        head=doc["head"],
        branches=doc["branches"],
        concat_layers=tuple(doc["concat_layers"]),
        in_channels=doc["in_channels"],
    )


def zero_norm_layers(caught) -> set[str]:
    """Layers named by ``measure``'s zero-norm warnings; any other warning fails."""
    out = set()
    for w in caught:
        match = re.fullmatch(r"zero-norm feature map at (\S+); sample excluded", str(w.message))
        assert w.category is UserWarning and match, str(w.message)
        out.add(match.group(1))
    return out


def check_runs(config: NetworkConfig) -> None:
    shapes = dict(parameter_shapes(config))
    params = init_parameters(config, seed=0)
    assert {k: v.shape for k, v in params.tensors.items()} == shapes
    b, c = config.input_bandwidth, config.input_channels
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, c, 2 * b, 2 * b))
    loss, grads = backward(config, params, x, np.arange(2) % config.num_classes)
    assert np.isfinite(loss)
    assert {k: v.shape for k, v in grads.items()} == shapes
    assert all(np.isfinite(g).all() for g in grads.values())
    assert shapes["head/weight"] == (config.num_classes, config.feature_dim())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = measure(config, params, [random_bandlimited_signal(b, c, rng)], rotations=1)
    zero = zero_norm_layers(caught)
    assert report.layer_names == ["input"] + [f"conv{i + 1}" for i in range(len(config.layers))]
    for name, err in zip(report.layer_names, report.per_layer_error):
        assert np.isfinite(err) or name in zero, name
    if all(lay.nonlinearity == "none" and lay.pool in ("none", "sp") for lay in config.layers):
        assert (report.per_layer_error < 1e-6).all(), report.per_layer_error


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=config_docs())
def test_every_config_that_constructs_runs(tmp_path, capsys, doc):
    try:
        config = build(doc)
    except (ValueError, TypeError) as exc:
        config, message = None, str(exc)
        assert NAMES_A_FIELD.search(message), message
    else:
        check_runs(config)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    argv = ["equiv-report", "--config", str(path), "--count", "1", "--bandlimited"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["-o", str(tmp_path / "report.json")])
    zero_norm_layers(caught)
    err = capsys.readouterr().err
    if config is None:
        assert code == 2 and message in err and "Traceback" not in err, err
    else:
        assert code == 0, err
        loads_strict((tmp_path / "report.json").read_text())


EPS, BOUND, MAX_KINK_SHARE = 1e-6, 1e-4, 0.05  # BOUND is acceptance 09's


def loss_along(config, params, x, y, direction, t):
    """The loss at ``params`` moved by ``t`` along ``direction``."""
    moved = {name: v + t * direction[name] for name, v in params.tensors.items()}
    return backward(config, ParameterStore(tensors=moved), x, y)[0]


def test_gradients_match_central_differences():
    """For each drawn config that constructs with two or more classes (one
    class has a constant loss), batch 2: every tensor is first moved off its
    initial point (biases start at 0, and a ReLU then puts exact kinks in the
    loss).  ``backward``'s derivative along one random unit direction in all
    tensors matches the central difference to BOUND, relative.  A draw whose
    two one-sided differences disagree by more than BOUND sits on a kink; it
    is counted instead, and at most MAX_KINK_SHARE of draws may."""
    draws, kinks = [], []

    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(doc=config_docs())
    def check(doc):
        try:
            config = build(doc)
        except (ValueError, TypeError):
            return
        if config.num_classes < 2:
            return
        rng = np.random.default_rng(0)
        params = init_parameters(config, seed=0)
        for t in params.tensors.values():
            t += 0.1 * rng.standard_normal(t.shape)
        b, c = config.input_bandwidth, config.input_channels
        x = rng.standard_normal((2, c, 2 * b, 2 * b))
        y = np.arange(2) % config.num_classes
        loss, grads = backward(config, params, x, y)
        direction = {name: rng.standard_normal(g.shape) for name, g in grads.items()}
        norm = np.sqrt(sum((d * d).sum() for d in direction.values()))
        direction = {name: d / norm for name, d in direction.items()}
        slope = sum(float((grads[name] * d).sum()) for name, d in direction.items())
        up, down = (loss_along(config, params, x, y, direction, t) for t in (EPS, -EPS))
        central = (up - down) / (2 * EPS)
        scale = max(abs(central), 1e-12)
        draws.append(doc)
        if abs((up - loss) - (loss - down)) / EPS > BOUND * scale:
            kinks.append(doc)
        else:
            assert abs(central - slope) < BOUND * scale, (doc, central, slope)

    check()
    assert len(kinks) <= MAX_KINK_SHARE * len(draws), kinks
