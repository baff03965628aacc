"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline_seed.json

Runs `run.py` once per seed and workload (workloads default to those in
BENCHMARK.json), one run at a time.  For every metric it records the ten
values, their median and quartiles (`statistics.quantiles(n=4)`) and the
spread: the distance between the quartiles as a share of the median.
With --trace-seed it also records one traced run per workload.  The
output notes the machine and the versions the numbers were taken with;
an existing --out file keeps the workloads this call does not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def summarize(values):
    if None in values:  # infinite latencies: over half the operations failed
        return {"median": None, "q1": None, "q3": None, "spread": None, "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def environment():
    import numpy
    import networkx

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"workloads": {}}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text())  # add to an earlier record
    doc.update(environment=environment(), run_seconds=args.seconds)
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            result, _ = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        entry = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            bound = bounds.get(name)
            if s["median"] is None:
                print(f"{workload:8s} {name:16s} no finite median")
                continue
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"{workload:8s} {name:16s} median {s['median']:12.4f} {s['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")
        if args.trace_seed is not None:
            result, stderr = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, **result}
            entry["traced_log"] = stderr.strip().splitlines()
        doc["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
