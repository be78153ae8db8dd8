"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json names, with their units, and passes its own checks.
2. In the traced runs the per-layer self times plus the unattributed
   remainder add up to the traced op time.
3. Each output check fires: a planted wrong rotation, a non-finite gradient,
   a wrong but finite gradient, a perturbed rotated tap and a wrong label
   each make ``failed`` > 0.
4. A traced function that has disappeared is reported, not fatal.
5. Without the library sources the benchmark exits non-zero and prints no
   result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import numpy as np  # noqa: E402

import tracing  # noqa: E402
from spheresig import align, equivariance, network, rotation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--size", "tiny"]


def _result(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    return res


def check_metrics() -> None:
    for wl in SPEC_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--trace", str(trace)]
            out = subprocess.run(cmd + TINY, capture_output=True, text=True, timeout=170,
                                 check=True, cwd=ROOT)
            res = _result(out.stdout)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (wl, trace, set(got) ^ set(want))
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (wl, res)
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                parts = sum(v for k, v in m.items() if k.endswith(".self_s"))
                total = parts + m["trace.unattributed_s"]
                assert abs(total - m["trace.op_s"]) <= 1e-6 * m["trace.op_s"], (wl, total, m)
            print(f"ok  {wl} trace={trace}: {len(got)} metrics, checks pass")


@contextlib.contextmanager
def planted(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _wrong_rotation(fn):
    def wrapped(*args, **kwargs):
        res = fn(*args, **kwargs)
        r = res.rotation
        res.rotation = rotation.RotationZYZ(r.alpha + 0.6, r.beta, r.gamma)
        return res
    return wrapped


def _bad_gradient(value):
    def make(fn):
        def wrapped(config, *args, **kwargs):
            loss, grads = fn(config, *args, **kwargs)
            g = grads[f"conv{len(config.layers)}/filters"]
            g.flat[np.abs(g).argmax()] *= value
            return loss, grads
        return wrapped
    return make


def _perturbed_tap(fn):
    def wrapped(signal, r, table):
        out = fn(signal, r, table)
        out.values = out.values.copy()
        mid = out.values.shape[-1] // 2  # row 0 is the pole, which has zero weight
        out.values[..., mid, mid] += 1e-4 * np.abs(out.values).max()
        return out
    return wrapped


def _wrong_label(fn):
    def wrapped(config, params, signals):
        return (fn(config, params, signals) + 1) % config.num_classes
    return wrapped


PLANTS = [
    ("align", "wrong rotation", align, "align_shapes", _wrong_rotation),
    ("train", "non-finite gradient", network, "backward", _bad_gradient(np.nan)),
    ("train", "wrong finite gradient", network, "backward", _bad_gradient(1.01)),
    ("equiv", "perturbed rotated tap", equivariance, "rotate_signal", _perturbed_tap),
    ("train", "wrong label", network, "predict", _wrong_label),
]


def check_plants() -> None:
    for wl, what, module, name, make in PLANTS:
        buf = io.StringIO()
        with planted(module, name, make), contextlib.redirect_stdout(buf):
            code = run.main(["--workload", wl, "--trace", "1", *TINY])
        res = _result(buf.getvalue())
        assert code == 0 and res["failed"] > 0 and not res["correct"], (wl, what, res)
        print(f"ok  {wl}: planted {what} -> failed {res['failed']}/{res['attempted']}")


def check_missing_target() -> None:
    tracer = tracing.Tracer()
    extra = ("spheresig.mesh", "_no_such_function", "mesh.cast_rows", None)
    tracing.TARGETS.append(extra)
    try:
        tracer.install()
    finally:
        tracing.TARGETS.remove(extra)
        tracer.uninstall()
    assert tracer.missing == ["spheresig.mesh._no_such_function"], tracer.missing
    assert tracer.metrics(1)["mesh.cast_rows.calls"]["value"] == 0.0
    print("ok  a vanished traced function is reported as missing")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", SPEC_WORKLOADS[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print(f"ok  without sources: exit {out.returncode}, no result")


if __name__ == "__main__":
    check_metrics()
    check_plants()
    check_missing_target()
    check_bare_directory()
    print("selftest passed")
