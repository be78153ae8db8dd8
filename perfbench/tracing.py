"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces module attributes of ``spheresig`` with timing
wrappers, so the library source stays untouched.  A wrapped function is
replaced under every name that binds it in a loaded ``spheresig`` module,
which covers ``from .x import f`` imports as well.  Spans are kept in memory
and turned into per-layer metrics (and optionally a JSON-lines file) once
the run ends.

A span's self time is its duration minus the time covered by its direct
child spans.  Every timed op is itself a root span named ``op``; its self
time is the op time no wrapped function accounts for, reported as
``trace.unattributed_s``.  The self times of all spans inside an op sum to
the op's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PER_OP = "s/op"
COUNT_PER_OP = "count/op"


def _cast_counts(args, kwargs, out):
    dirs, v0 = args[0], args[2]
    t = out[0]
    return {"pairs": len(dirs) * len(v0), "rays": len(dirs), "hits": int(np.isfinite(t).sum())}


def _lattice_counts(args, kwargs, out):
    return {"points": int(np.asarray(out).size)}


def _table_counts(args, kwargs, out):
    return {"bytes": int(out.legendre.nbytes + out.fourier_phases.nbytes)}


# (module, attribute, span name, counter).  The sft "analysis"/"synthesis"
# spans wrap the real-input kernels; the complex kernels run only inside the
# two network adjoints, whose spans therefore include them.
TARGETS = [
    ("spheresig.mesh", "project_mesh", "mesh.project_mesh", None),
    ("spheresig.mesh", "bounding_sphere", "mesh.bounding_sphere", None),
    ("spheresig.mesh", "_cast_rows", "mesh.cast_rows", _cast_counts),
    ("spheresig.align", "so3_correlate", "align.so3_correlate", None),
    ("spheresig.align", "_score_lattice", "align.score_lattice", _lattice_counts),
    ("spheresig.rotation", "_small_d_many", "rotation.small_d_many", None),
    ("spheresig.rotation", "wigner_d", "rotation.wigner_d", None),
    ("spheresig.rotation", "rotate_spectrum", "rotation.rotate_spectrum", None),
    ("spheresig.rotation", "rotate_signal", "rotation.rotate_signal", None),
    ("spheresig.sft", "_analysis_sepvar_real", "sft.analysis", None),
    ("spheresig.sft", "_synthesis_real", "sft.synthesis", None),
    ("spheresig.network", "_analysis_adjoint", "sft.adjoint", None),
    ("spheresig.network", "_synthesis_adjoint", "sft.adjoint", None),
    ("spheresig.network", "_forward_batch", "network.forward", None),
    ("spheresig.network", "backward", "network.backward", None),
    ("spheresig.network", "adam_update", "network.adam", None),
    ("spheresig.network", "predict", "network.predict", None),
    ("spheresig.harmonics", "build_table", "harmonics.build_table", _table_counts),
    ("spheresig.equivariance", "measure", "equivariance.measure", None),
]

# (metric, unit, kind, span name, counter key).  Kinds: "self"/"total"/"calls"
# are per timed op; "count" is a counter summed per timed op; "run_total",
# "run_calls" and "run_count" cover the whole run, set-up included, for work
# that normally happens once.
PER_LAYER = [
    ("mesh.project_mesh.self_s", PER_OP, "self", "mesh.project_mesh", None),
    ("mesh.bounding_sphere.self_s", PER_OP, "self", "mesh.bounding_sphere", None),
    ("mesh.cast_rows.self_s", PER_OP, "self", "mesh.cast_rows", None),
    ("mesh.cast_rows.calls", COUNT_PER_OP, "calls", "mesh.cast_rows", None),
    ("mesh.pairs_tested", COUNT_PER_OP, "count", "mesh.cast_rows", "pairs"),
    ("mesh.hit_ratio", "ratio", "ratio", "mesh.cast_rows", ("hits", "rays")),
    ("align.so3_correlate.total_s", PER_OP, "total", "align.so3_correlate", None),
    ("align.so3_correlate.self_s", PER_OP, "self", "align.so3_correlate", None),
    ("align.score_lattice.self_s", PER_OP, "self", "align.score_lattice", None),
    ("align.score_lattice.calls", COUNT_PER_OP, "calls", "align.score_lattice", None),
    ("align.lattice_points", COUNT_PER_OP, "count", "align.score_lattice", "points"),
    ("rotation.small_d_many.self_s", PER_OP, "self", "rotation.small_d_many", None),
    ("rotation.wigner_d.self_s", PER_OP, "self", "rotation.wigner_d", None),
    ("rotation.wigner_d.calls", COUNT_PER_OP, "calls", "rotation.wigner_d", None),
    ("rotation.rotate_spectrum.self_s", PER_OP, "self", "rotation.rotate_spectrum", None),
    ("rotation.rotate_signal.total_s", PER_OP, "total", "rotation.rotate_signal", None),
    ("rotation.rotate_signal.self_s", PER_OP, "self", "rotation.rotate_signal", None),
    ("sft.analysis.self_s", PER_OP, "self", "sft.analysis", None),
    ("sft.analysis.calls", COUNT_PER_OP, "calls", "sft.analysis", None),
    ("sft.synthesis.self_s", PER_OP, "self", "sft.synthesis", None),
    ("sft.synthesis.calls", COUNT_PER_OP, "calls", "sft.synthesis", None),
    ("sft.adjoint.self_s", PER_OP, "self", "sft.adjoint", None),
    ("sft.adjoint.calls", COUNT_PER_OP, "calls", "sft.adjoint", None),
    ("network.forward.self_s", PER_OP, "self", "network.forward", None),
    ("network.forward.calls", COUNT_PER_OP, "calls", "network.forward", None),
    ("network.backward.self_s", PER_OP, "self", "network.backward", None),
    ("network.adam.self_s", PER_OP, "self", "network.adam", None),
    ("network.predict.total_s", PER_OP, "total", "network.predict", None),
    ("network.predict.self_s", PER_OP, "self", "network.predict", None),
    ("harmonics.build_table.self_s", PER_OP, "self", "harmonics.build_table", None),
    ("harmonics.build_table.total_s", "s", "run_total", "harmonics.build_table", None),
    ("harmonics.build_table.calls", "count", "run_calls", "harmonics.build_table", None),
    ("harmonics.table_bytes", "bytes", "run_count", "harmonics.build_table", "bytes"),
    ("equivariance.measure.self_s", PER_OP, "self", "equivariance.measure", None),
    ("trace.op_s", PER_OP, "total", "op", None),
    ("trace.unattributed_s", PER_OP, "self", "op", None),
]


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self) -> None:
        # [name, op id or phase, parent index, start, end, counts]; spans outside
        # timed ops carry the phase "setup" (before the first op) or "check".
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | str = "setup"
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._op, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                self.spans[idx][5] = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one timed op; spans inside it belong to that op."""
        self._op = op_id
        idx = self._enter("op")
        try:
            yield
        finally:
            self._exit(idx)
            self._op = "check"

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n.startswith("spheresig") and m]
        for mod_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            traced = self.wrap(name, original, counter)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def metrics(self, n_ops: int) -> dict[str, dict]:
        """Per-layer metrics; spans inside timed ops are averaged per op."""
        n = len(self.spans)
        child = np.zeros(n)
        dur = np.array([s[4] - s[3] for s in self.spans]) if n else np.zeros(0)
        for k, s in enumerate(self.spans):
            if s[2] >= 0:
                child[s[2]] += dur[k]
        acc = defaultdict(float)
        for k, (name, op, _, _, _, counts) in enumerate(self.spans):
            phase = "ops" if isinstance(op, int) else op
            for key, value in (
                ("self", dur[k] - child[k]),
                ("total", dur[k]),
                ("calls", 1),
                *((f"count:{c}", v) for c, v in (counts or {}).items()),
            ):
                acc[(phase, name, key)] += value
        out = {}
        per_op = max(n_ops, 1)
        for metric, unit, kind, name, key in PER_LAYER:
            if kind in ("self", "total", "calls"):
                value = acc[("ops", name, kind)] / per_op
            elif kind == "count":
                value = acc[("ops", name, f"count:{key}")] / per_op
            elif kind == "ratio":
                num, den = (acc[("ops", name, f"count:{k}")] for k in key)
                value = num / den if den else 0.0
            else:  # whole run
                base = {"run_total": "total", "run_calls": "calls"}.get(kind, f"count:{key}")
                value = acc[("setup", name, base)] + acc[("ops", name, base)]
            out[metric] = {"value": float(value), "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, op, parent, start, end, counts in self.spans:
                rec = dict(name=name, op=op, parent=parent, start=start, end=end)
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")
