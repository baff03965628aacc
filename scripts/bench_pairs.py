"""Run the benchmark in alternating pairs of a parent commit and the working tree.

    python scripts/bench_pairs.py --parent HEAD --seeds 61-70 --out BENCH_pairs.json

Both sides are fresh checkouts in a new temporary directory: the parent
is extracted with `git archive`, and the working tree's files (tracked
ones and untracked ones that git does not ignore) are copied, so each
side starts without bytecode and writes its own.  For every seed and
workload, `perfbench/run.py --trace 0` runs once on each side with the
same --seconds and --seed, through each side's own
`perfbench/record.py`; the side that runs first alternates from one
pair to the next, the parent first on the first seed.  Then one
`--trace 1` pass per workload runs on each side, at the first seed.
One run goes at a time.

The output JSON holds ``about``, ``environment``, ``workloads`` (per
workload one entry per seed: the seed, the side run first and both
result lines) and ``trace`` (per workload the seed and both result
lines).  It prints, per end-to-end metric and workload, each side's
median, the change's median as a percentage of the parent's, the
parent's quartiles and the pairs the change won (ties count for
neither), and marks a gain as resolved when the change won at least
nine tenths of the pairs and the medians differ by more than the
parent's interquartile range.  It also marks a metric whose change
median is worse than the parent's by more than the metric's bound in
BENCHMARK.json (a share of the parent's median), and one left
unresolved because the parent's interquartile range alone exceeds that
bound.  Then come the traced metrics of both sides.
"""
import argparse
import importlib.util
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def checkouts(parent, work):
    """``{"parent": dir, "change": dir}``: the parent commit's files and
    a copy of the working tree's, each under ``work``."""
    dirs = {"parent": work / "parent", "change": work / "change"}
    archive = subprocess.run(
        ["git", "archive", "--format=tar", parent], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dirs["parent"], filter="data")
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            dst = dirs["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return dirs


def _record_module(checkout, name):
    """The checkout's own `perfbench/record.py`, whose `run_once` runs its `run.py`."""
    spec = importlib.util.spec_from_file_location(name, checkout / "perfbench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _value(result, metric, better):
    # run.py writes a non-finite latency as null: the worst value
    v = result["metrics"][metric]["value"]
    if v is None:
        return math.inf if better == "lower" else -math.inf
    return v


def summary(workloads, end_to_end):
    """One row per workload and end-to-end metric of ``end_to_end`` (the
    entries of BENCHMARK.json, each with its name, "better" direction and
    bound) found in the results, as a dict: the medians, the change's
    median in percent of the parent's, the parent's quartiles, the pairs
    the change won, the pair count, whether the gain is resolved, whether
    the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median), and whether the
    parent's interquartile range alone exceeds that bound, which leaves
    a regression of that size unresolved."""
    rows = []
    for workload, pairs in workloads.items():
        for m in end_to_end:
            metric, direction = m["name"], m["better"]
            if metric not in pairs[0]["parent"]["metrics"]:
                continue
            par = [_value(p["parent"], metric, direction) for p in pairs]
            chg = [_value(p["change"], metric, direction) for p in pairs]
            sign = 1 if direction == "lower" else -1
            won = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            q1, _, q3 = statistics.quantiles(par, n=4)
            m_par, m_chg = statistics.median(par), statistics.median(chg)
            allowed = m["bound"] * abs(m_par)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "parent": m_par,
                    "parent_q1": q1,
                    "parent_q3": q3,
                    "change": m_chg,
                    "percent": 100 * m_chg / m_par if m_par else math.nan,
                    "won": won,
                    "pairs": len(pairs),
                    "resolved_gain": 10 * won >= 9 * len(pairs)
                    and sign * (m_par - m_chg) > q3 - q1,
                    "beyond_bound": sign * (m_chg - m_par) > allowed,
                    "unresolved": q3 - q1 > allowed,
                }
            )
    return rows


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    ap.add_argument("--seeds", default="51-60", help="seed range, one pair per seed")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seeds = seeds_of(args.seeds)
    sha = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)  # both sides write their bytecode

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        dirs = checkouts(args.parent, work)
        record = {side: _record_module(d, f"record_{side}") for side, d in dirs.items()}
        doc = {
            "about": (
                f"perfbench/run.py --seconds {args.seconds:g} --trace 0, seeds {args.seeds}, "
                f"parent ({sha}) and change run alternately, the side run first swapping every "
                "pair; fresh checkouts (git archive of the parent, a copy of the change's "
                f"files), bytecode written on both sides. 'trace' holds one --trace 1 pass per "
                f"workload, seed {seeds[0]}, of each side"
            ),
            "environment": record["change"].environment(),
            "workloads": {w: [] for w in args.workloads},
            "trace": {},
        }
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], _ = record[side].run_once(workload, seed, args.seconds, 0)
                    print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
                doc["workloads"][workload].append(pair)
                args.out.write_text(json.dumps(doc, indent=2) + "\n")  # kept if a run fails
        for workload in args.workloads:
            doc["trace"][workload] = {"seed": seeds[0]}
            for side in ("parent", "change"):
                doc["trace"][workload][side], _ = record[side].run_once(
                    workload, seeds[0], args.seconds, 1
                )
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in summary(doc["workloads"], spec["end_to_end"]):
        marks = [
            text for key, text in (
                ("resolved_gain", "gain resolved"),
                ("beyond_bound", "WORSE BEYOND BOUND"),
                ("unresolved", "unresolved: parent IQR exceeds bound"),
            ) if r[key]
        ]
        print(
            f"{r['workload']:8s} {r['metric']:16s} parent {r['parent']:10.4f} "
            f"[{r['parent_q1']:.4f}, {r['parent_q3']:.4f}]  change {r['change']:10.4f} "
            f"({r['percent']:6.1f} %)  won {r['won']}/{r['pairs']}"
            + "".join(f"  {text}" for text in marks)
        )
    for workload, traced in doc["trace"].items():
        for metric, v in traced["parent"]["metrics"].items():
            print(f"trace {workload:8s} {metric:32s} {v['value']!s:>22} -> "
                  f"{traced['change']['metrics'][metric]['value']!s:>22}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
