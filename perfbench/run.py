"""Closed-loop spheresig benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload align --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workload's inputs are built from ``--seed``; set-up (imports, inputs, one
untimed warm-up op) is followed by timed ops, each issued after the previous
one finished, until ``--seconds`` of op time have accumulated.  Every op's
output is checked outside the timed window.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
holds the run's metadata (versions, threads, CPU, seed, commit, samples).
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pin the BLAS/OpenMP pools to the CPUs this process may use, before numpy loads.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

SETUP_SAMPLES = 3  # this process plus two fresh set-up-only processes
CHILD_TIMEOUT_S = 120


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input; used by selftest.py")
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spheresig").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(np, args) -> dict:
    blas = "unknown"
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (KeyError, TypeError):
        pass
    return dict(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        size=args.size,
        trace=args.trace,
        blas_threads=THREADS,
        nproc=os.cpu_count(),
        cpu_model=_cpu_model(),
        python=platform.python_version(),
        numpy=np.__version__,
        blas=blas,
        commit=_commit(),
        src_sha256=_src_digest(),
    )


def _setup_samples(args, first: float) -> list[float]:
    """Set-up times of this process and of fresh set-up-only processes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                             check=True, cwd=ROOT)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spheresig" / "__init__.py").is_file():
        print(f"error: no spheresig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        for name in tracer.missing:
            print(f"warning: {name} not found; its per-layer metrics read 0", file=sys.stderr)
    wl = WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    wl.op(0)  # untimed warm-up: fills lazy tables and caches
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if hasattr(wl, "start"):
        wl.start()
    latencies, completed, failed = [], 0, 0
    while sum(latencies) < args.seconds or not latencies:
        i = len(latencies)
        t = time.perf_counter()
        try:
            if tracer:
                with tracer.op(i):
                    out = wl.op(i)
            else:
                out = wl.op(i)
        except Exception:  # an op that raises counts as failed; keep measuring
            latencies.append(time.perf_counter() - t)
            failed += 1
            traceback.print_exc(limit=3)
            continue
        latencies.append(time.perf_counter() - t)
        completed += 1
        try:
            ok = wl.check(i, out)
        except Exception:
            traceback.print_exc(limit=3)
            ok = False
        if not ok:
            failed += 1
            print(f"check failed on op {i}", file=sys.stderr)

    attempted = len(latencies)
    ops_per_s = completed / sum(latencies)
    hit_ratio = wl.hit_ratio() if hasattr(wl, "hit_ratio") else 0.0
    meta = _metadata(np, args)
    meta.update(ops=attempted, latencies_ms=[round(x * 1e3, 3) for x in latencies],
                align_hit_ratio=hit_ratio)
    if getattr(wl, "infer_s", None):
        meta["infer_p50_ms"] = statistics.median(wl.infer_s) * 1e3
        meta["infer_samples"] = len(wl.infer_s)
    if tracer:
        metrics = tracer.metrics(attempted)
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
        metrics["align.hit_ratio"] = {"value": hit_ratio, "unit": "ratio"}
        meta["trace_missing"] = tracer.missing
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl")
    else:
        setups = _setup_samples(args, setup_s)
        meta["setup_samples_s"] = setups
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps({"meta": meta}))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
