"""The benchmark's tracer and workloads reach into ``spheresig`` by name; a
rename must fail here rather than silently zero a per-layer row or fail
benchmark ops."""

import ast
import importlib
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spheresig import cli, mesh, network
from spheresig.harmonics import shared_table
from spheresig.network import LayerConfig, NetworkConfig, two_branch_config
from spheresig.synth import star_mesh

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
PACKAGE = TRACING.parents[1] / "src" / "spheresig"

# Retargeted to the half-spectrum analysis by a later benchmark change; this
# test neither requires it nor asserts that it is gone.
RETARGET = {("spheresig.sft", "_analysis_sepvar_real")}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_tracing().TARGETS


@pytest.mark.parametrize(
    "mod_name, attr",
    [t[:2] for t in load_targets() if t[:2] not in RETARGET],
    ids=lambda v: v,
)
def test_trace_target_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr))


def workload_reads():
    """(module, attribute) of every ``module.attr`` that ``workloads.py`` reads
    from a module it imports with ``from spheresig import ...``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {
        alias.asname or alias.name: f"spheresig.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "spheresig"
        for alias in node.names
    }
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


def test_workload_reads_found():
    assert ("spheresig.network", "_forward_batch") in workload_reads()


@pytest.mark.parametrize("mod_name, attr", workload_reads(), ids=lambda v: v)
def test_workload_read_resolves(mod_name, attr):
    assert hasattr(importlib.import_module(mod_name), attr)


def test_table_counter_fields_exist():
    table = shared_table(2)
    assert table.legendre.nbytes > 0 and table.fourier_phases.nbytes > 0


def test_cast_counter_reads_cast_rows(monkeypatch):
    """perfbench's ray counter reads ``_cast_rows``' positional arguments (the
    rays ``args[0]``, the faces ``args[2]``) and its distances ``out[0]``."""
    calls, cast = [], mesh._cast_rows

    def spy(*args, **kwargs):
        calls.append((args, kwargs, cast(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(mesh, "_cast_rows", spy)
    b, shape = 8, star_mesh(seed=1, n_theta=8, n_phi=16)
    mesh.project_mesh(shape, b)
    [(args, kwargs, out)] = calls
    counts = load_tracing()._cast_counts(args, kwargs, out)
    assert kwargs == {} and counts["rays"] == 4 * b * b
    assert counts["pairs"] == 4 * b * b * len(shape.faces)
    assert counts["hits"] == np.isfinite(out[0]).sum() > 0


def test_train_op_forwards_through_the_module(monkeypatch):
    """perfbench's ``network.forward`` row wraps ``network._forward_batch``
    by its module attribute: a ``train`` op enters it from ``backward`` and
    from ``predict``, and the op's check still unpacks its 3-tuple."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    callers, forward_batch = [], network._forward_batch

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return forward_batch(*args, **kwargs)

    monkeypatch.setattr(network, "_forward_batch", spy)
    wl = workloads.Train(1, tiny=True)
    wl.start()
    out = wl.op(0)
    assert callers == ["backward", "predict"]
    assert wl.check(0, out)
    assert callers.count("_loss") == 4  # two central differences


def test_every_export_resolves():
    """The package resolves its exports lazily, so a broken entry in
    ``__all__`` would otherwise surface only at its first use."""
    import spheresig

    for name in spheresig.__all__:
        assert getattr(spheresig, name) is not None, name


PACKED_HELPERS = {"to_half", "to_packed", "conj_mirror", "half_slots", "packed_orders"}


def test_packed_layout_stays_in_sft():
    """The packed layout is a boundary format: outside ``sft`` (which owns it)
    and ``formats`` (SPEC1's half storage), modules cross it through
    ``sft._real_parts`` and ``sft._from_parts`` only."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("sft.py", "formats.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names if name in PACKED_HELPERS]
    assert found == []


def test_block_names_stay_in_network():
    """``NetworkConfig.blocks`` names every block ("conv3", "branch1/conv3":
    the tap name and the parameter prefix); no other module builds one.  A
    name is an f-string with a literal part ending in ``conv`` (the layer
    number follows) or holding ``branch1/``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "network.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                parts = [v.value for v in node.values if isinstance(v, ast.Constant)]
                if any(p.endswith("conv") or "branch1/" in p for p in parts):
                    found.append((path.name, node.lineno))
    assert found == []


def test_cli_json_keys_match_config_types():
    """Config JSON keys are the config types' fields (a layer's ``filter`` is
    ``filter_mode``; ``in_channels`` is JSON only), so a field added to a type
    without its JSON key fails here."""
    layer = {f.name for f in fields(LayerConfig)} - {"in_channels", "filter_mode"} | {"filter"}
    network = {f.name for f in fields(NetworkConfig)} | {"in_channels"}
    assert set(cli._LAYER_KEYS.split()) == layer
    assert set(cli._NETWORK_KEYS.split()) == network
    assert cli._PRESET_ARGS.split() == list(inspect.signature(two_branch_config).parameters)


def _is_cache(decorator):
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(f, "attr", getattr(f, "id", None)) in ("cache", "lru_cache")


def test_caches_are_the_kernel_tables():
    """The process-lifetime caches are the tables the kernels read: the
    harmonic tables (behind ``harmonics.shared_table``) and the K bands of
    rotation.  No other function is cached, by decorator or by storing into
    a module-level name."""
    cached, stores = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_names = {
            t.id
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if any(_is_cache(d) for d in fn.decorator_list):
                cached.add((path.name, fn.name))
            stores += [
                (path.name, fn.name, node.lineno)
                for node in ast.walk(fn)
                if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_names
            ]
    assert cached == {("harmonics.py", "_table"), ("rotation.py", "_k_band")}
    assert stores == []


def test_network_pools_in_the_synthesis():
    """A ``wap`` layer runs as the pooled synthesis and its adjoint; the
    network never calls the grid-domain pooling, so it has one WAP path."""
    tree = ast.parse((PACKAGE / "network.py").read_text())
    called = {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert "_synthesis_half" in called
    assert called.isdisjoint({"wap_fwd", "wap_vjp"})


# Data generators that tests and the benchmark call; nothing in src/ needs them.
MESH_MAKERS = {("synth", name) for name in ("icosphere", "cube_mesh", "star_mesh")}


def _reader(tree, module):
    """A function giving the (module, name) of every definition a node reads.

    In ``module``, ``from .m import x as y`` binds ``y`` to (m, x), ``from .
    import m as y`` makes ``y.x`` read (m, x), and any other plain name is
    the module's own (module, name), wherever in the file the import sits.
    Imports and strings (docstrings included) are not reads.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module:
                    names[bound] = (node.module, alias.name)
                else:
                    modules[bound] = alias.name

    def reads(node):
        found = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.add(names.get(n.id, (module, n.id)))
            elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in modules:
                found.add((modules[n.value.id], n.attr))
        return found

    return reads


def unreached(sources, roots):
    """The (module, name) of each top-level function and class in
    ``sources`` (module name -> source text) that no root reaches, through
    the bodies of other definitions.  Statements that run on import are
    roots too."""
    defs, roots = {}, set(roots)
    for module, text in sources.items():
        tree = ast.parse(text)
        reads = _reader(tree, module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = reads(node) - {(module, node.name)}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= reads(node)
    reached, live = set(), [key for key in roots if key in defs]
    while live:
        key = live.pop()
        if key not in reached:
            reached.add(key)
            live += [k for k in defs[key] if k in defs]
    return sorted(set(defs) - reached)


def test_unreached_keys_definitions_by_module():
    """A dead ``a.helper`` is found though ``b.helper`` is live, and the three
    import forms resolve: ``from .m import x``, ``from . import m`` with
    ``m.x``, and an import inside a function."""
    sources = {
        "a": "def helper():\n    pass\n\ndef shared():\n    pass\n",
        "b": "from .a import shared\n\ndef helper():\n    return shared()\n",
        "c": "from . import a\n\ndef main():\n"
             "    from .b import helper\n    return a.shared, helper\n",
    }
    assert unreached(sources, {("c", "main")}) == [("a", "helper")]
    assert unreached(sources, {("b", "helper")}) == [("a", "helper"), ("c", "main")]


def test_every_definition_has_a_caller():
    """Every top-level function and class in ``src/spheresig`` is reached from
    an export of ``__init__``, from the CLI's ``main``, or from a statement
    that runs on import, through the bodies of other definitions in ``src/``
    (``unreached``: by module and name, so a dead definition cannot hide
    behind a live one of the same name).  Only ``synth``'s mesh makers and
    ``__init__.__getattr__`` are exempt."""
    import spheresig

    exports = {(module, name) for name, module in spheresig._MODULE_OF.items()}
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = unreached(sources, exports | {("cli", "main")} | MESH_MAKERS)
    assert [key for key in found if key != ("__init__", "__getattr__")] == []
