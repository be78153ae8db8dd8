"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0,1 --out perfbench/results/sweep.json

For every workload (default: all of BENCHMARK.json) and seed, runs
``run.py`` once per trace setting, seed-major so slow drifts of the machine
spread over all workloads.  For each metric it reports the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median; with both trace settings it also reports the tracing
overhead, 1 - median(trace.ops_per_s) / median(ops_per_s).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return dict(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0, values=values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0", help="comma list of trace settings")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    traces = [int(t) for t in args.trace.split(",")]
    runs = []
    for seed in _seeds(args.seeds):
        for wl in workloads:
            for trace in traces:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed",
                       str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                out = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                                     check=True, cwd=ROOT)
                lines = out.stdout.strip().splitlines()
                meta, res = json.loads(lines[-2])["meta"], json.loads(lines[-1])
                runs.append(dict(workload=wl, seed=seed, trace=trace, meta=meta, result=res))
                print(f"{wl} seed={seed} trace={trace} failed={res['failed']}/"
                      f"{res['attempted']}", file=sys.stderr, flush=True)
    summary = {}
    for wl in workloads:
        per = {}
        for r in runs:
            if r["workload"] == wl:
                for name, m in r["result"]["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
        stats = {name: summarize(v) for name, v in per.items()}
        mine = [r for r in runs if r["workload"] == wl]
        entry = dict(metrics=stats, failed=sum(r["result"]["failed"] for r in mine),
                     attempted=sum(r["result"]["attempted"] for r in mine))
        if "ops_per_s" in stats and "trace.ops_per_s" in stats:
            entry["tracing_overhead"] = (
                1 - stats["trace.ops_per_s"]["median"] / stats["ops_per_s"]["median"]
            )
        summary[wl] = entry
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        for name, s in stats.items():
            if name in bounds:
                print(f"{wl:6s} {name:12s} median {s['median']:10.4f}  spread "
                      f"{s['spread']:.4f}  bound {bounds[name]}")
        if "tracing_overhead" in entry:
            print(f"{wl:6s} tracing overhead {entry['tracing_overhead']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(dict(summary=summary, runs=runs), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
