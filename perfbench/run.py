"""diskdiagram benchmark: input file to verdict and input file to SVG.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

Every operation calls `diskdiagram.cli.main` in this process on a JSON
file written during set-up, one at a time (a closed loop with a single
client), with the default search budget:

  verdict   `diskdiagram check FILE`: parse, build_graph, the condition
            battery; the exit code and the failing condition are checked
            against the expected verdict.
  svg       `diskdiagram realize FILE --out OUT` with the default levels,
            resolution and height mode.  The SVG is checked against the
            witness the library builds for the same graph (vertex labels
            and heights, tree segments, level curves inside the canvas),
            that witness passes the invariant audit of
            `scripts/run_corpus.py`, and repeated renders of one input
            must be byte-identical.  These checks run outside the timing.

Workloads (inputs are made from --seed):

  census    a seeded sample of the 93 944 partially ordered multigraphs
            with at most 4 vertices for verdicts, and the 14 accepted ones
            for svg.  Gates: every verdict equals `census_outcomes.txt`,
            and in the traced run one untimed `enumerate --max 4 --mode
            graphs` reproduces the exact tally (it takes about 25 s, which
            the untraced runs leave out to fit the benchmark's time).
  corpus    the 420 instances of `families.corpus_instances()`, in a
            seeded order stratified by file size, for both operations.
  ladder    star4[nest(d), EXT, nest(d), EXT] for d = 1..4, both order
            modes, for svg only.  Six of the eight shapes exceed the
            default search budget today; they count as failed, which is
            why BENCHMARK.json does not list this workload yet.
  fixtures  the package's named fixtures, for the self-tests.

An untraced run (--trace 0) alternates one-second slices of verdicts
and of svgs (the ladder runs svgs only) for --seconds.  The host's
speed drifts by a fifth and more within seconds and minutes and moves
every timing with it, so a fixed calibration kernel (`speed_reading`)
runs between slices and between set-up samples, and every time is
reported at the reference speed: divided by the mean of the readings
just before and just after it.  Raw values go to stderr.  It prints:

  setup_s          median over fresh interpreters of starting Python and
                   importing diskdiagram.cli until its parser is built
  verdict_p50_ms   median verdict latency, a failed operation counting
                   as infinitely slow
  verdict_tail_ms  90th percentile verdict latency (75th for svgs, see
                   TAIL_PERCENTILE); the sample count goes to stderr
  verdicts_per_s   correct verdicts per wall-clock second spent on them
  svg_p50_ms, svg_tail_ms, svgs_per_s   the same for svg operations

A traced run (--trace 1) runs one fixed pass of the workload in chunks
of TRACE_CHUNK operations, each chunk first untraced and then with
`spans.Tracer` wrapped around the layer functions, and prints raw self
times and counts per layer.

Failed operations and gate results go to stderr; `failed` in the result
line counts operations that raised or gave a wrong output, and `correct`
is false when any output was wrong or a gate failed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (the benchmark's own directory is on sys.path)
from spans import SPANS, Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "verdicts_per_s": "1/s",
    "svg_p50_ms": "ms",
    "svg_tail_ms": "ms",
    "svgs_per_s": "1/s",
}
PER_LAYER = {name: "s" for name, _, _ in SPANS}
PER_LAYER.update(
    {
        "formats.input_bytes": "bytes",
        "orders.closure_pairs": "count",
        "conditions.a1_cycles": "count",
        "conditions.a1_useful_ratio": "ratio",
        "conditions.budget_exceeded": "count",
        **{f"conditions.rejected.{c}": "count" for c in ("A1", "A2", "S2", "S3", "A3")},
        "planarity.faces": "count",
        "realization.coords_check_pairs": "count",
        "realization.triangles": "count",
        "realization.grid_points": "count",
        "svg.polylines": "count",
        "svg.bytes": "bytes",
        "process.peak_rss_mib": "MiB",
        "trace.overhead_share": "ratio",
        "trace.unattributed_s": "s",
        "trace.missing_layers": "count",
    }
)
SETUP_RUNS = 9
# Seconds one kind of operation runs before the other kind takes over.
SLICE_S = 1.0
# Seconds of one speed reading, and the mean calibration kernel time that
# defines the reference speed.
GAUGE_S = 0.04
REFERENCE_KERNEL_S = 1.2e-3
# Operations per traced chunk; each chunk runs untraced, then traced.
TRACE_CHUNK = 50
# Tail percentile per operation, fixed so that it means the same on every
# commit.  A 36-second corpus run on the seed makes about 700 verdicts and
# 70 svgs, so each keeps well over ten samples beyond it.  The verdict p95
# falls where corpus latencies climb steeply and spread 18 % between runs;
# the p90 spreads 5 %.
TAIL_PERCENTILE = {"verdict": 90.0, "svg": 75.0}
# Fixed pass of the traced run: census verdicts, corpus svgs.
TRACE_CENSUS_VERDICTS = 3000
TRACE_CORPUS_SVGS = 40
SVG_NS = "{http://www.w3.org/2000/svg}"
SVG_SIZE = 600.0


def log(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up


def _kernel():
    """Fixed pure-Python work: dict adjacency, a set-guarded search, float
    arithmetic over tuples and a sorted dict; about a millisecond."""
    adj = {i: ((i * 7 + 3) % 97, (i * 13 + 5) % 97, (i * 31 + 11) % 97) for i in range(97)}
    total = 0
    for start in range(0, 97, 4):
        seen = {start}
        stack = [(start, 0)]
        while stack:
            v, depth = stack.pop()
            total += depth
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, depth + 1))
    pts = [(i * 0.37 % 1.0, i * 0.91 % 1.0) for i in range(300)]
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        acc += (x0 * y1 - x1 * y0) / (1.0 + x0 * x0 + y1 * y1)
    table = {(a, b): a ^ b for a in range(24) for b in range(24)}
    return total + int(acc) + len(sorted(table.values()))


def speed_reading():
    """Host speed now: the calibration kernel's mean time over GAUGE_S,
    relative to REFERENCE_KERNEL_S.  The kernel is benchmark code that no
    change to the package touches, so its time follows only the host."""
    times = []
    t0 = perf_counter()
    while perf_counter() - t0 < GAUGE_S:
        t = perf_counter()
        _kernel()
        times.append(perf_counter() - t)
    return statistics.mean(times) / REFERENCE_KERNEL_S


def measure_setup(runs=SETUP_RUNS):
    """Median seconds from a fresh interpreter to a ready diskdiagram.cli,
    raw and at the reference speed."""
    cmd = [sys.executable, "-c", "import diskdiagram.cli as c; c.make_parser()"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, check=True)  # compiles the bytecode once
    raw, scaled = [], []
    before = speed_reading()
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        raw.append(perf_counter() - t0)
        after = speed_reading()
        scaled.append(raw[-1] / ((before + after) / 2))
        before = after
    return statistics.median(raw), statistics.median(scaled)


@dataclass
class Plan:
    verdict: list  # Cases for the verdict operation
    svg: list  # Cases for the svg operation
    census_gate: bool = False


def make_plan(workload, seed):
    if workload == "census":
        verdict, svg = workloads.census_cases(seed)
        return Plan(verdict, svg, census_gate=True)
    if workload == "corpus":
        return Plan(*workloads.corpus_cases(seed))
    if workload == "ladder":
        return Plan([], workloads.ladder_cases())
    if workload == "fixtures":
        cases = workloads.fixture_cases()
        return Plan(cases, [c for c in cases if c.expected == "delta"])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    kind: str  # "verdict" | "svg"
    case: workloads.Case
    seconds: float
    outcome: str  # "delta", a failing condition, "budget" or "error"
    digest: str | None = None  # sha256 of the SVG bytes
    svg: bytes | None = None
    problem: str | None = None  # why the operation failed

    @property
    def raised(self):
        return self.outcome in ("budget", "error")


@dataclass
class Slice:
    ops: list
    wall: float  # seconds
    speed: float  # mean of the speed readings before and after the slice


def _untraced(kind, fn, argv):
    t0 = perf_counter()
    code = fn(argv)
    return perf_counter() - t0, code


class Runner:
    """Writes the input files and runs operations through the CLI."""

    def __init__(self, work, cli):
        self.work = work
        self.cli = cli
        self.paths = {}
        self.invoke = _untraced

    def write(self, cases):
        for c in cases:
            if c.name not in self.paths:
                path = self.work / f"{c.name}.json"
                path.write_text(c.text, encoding="utf-8")
                self.paths[c.name] = path

    def _call(self, kind, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                seconds, code = self.invoke(kind, self.cli.main, argv)
        except Exception as exc:  # a crash fails this operation, not the run
            seconds, code = perf_counter() - t0, None
            err.write(f"{type(exc).__name__}: {exc}")
        return seconds, code, out.getvalue(), err.getvalue()

    def run(self, kind, case):
        if kind == "verdict":
            return self.verdict(case)
        return self.svg(case)

    def verdict(self, case):
        seconds, code, out, err = self._call("verdict", ["check", str(self.paths[case.name])])
        if code == 0:
            outcome = "delta"
        elif code == 1:
            marks = [line.strip().partition(": ") for line in out.splitlines()]
            outcome = next((n for n, _, m in marks if m == "FAIL"), "unreadable")
        else:
            outcome = _error_kind(err)
        return _judge(Op("verdict", case, seconds, outcome), err)

    def svg(self, case):
        target = self.work / "out.svg"
        target.unlink(missing_ok=True)
        argv = ["realize", str(self.paths[case.name]), "--out", str(target)]
        seconds, code, _, err = self._call("svg", argv)
        op = Op("svg", case, seconds, "error")
        if code == 0:
            op.outcome = "delta"
            op.svg = target.read_bytes()
            op.digest = hashlib.sha256(op.svg).hexdigest()
        elif code == 1:
            op.outcome = err.partition("fails ")[2].split("\n")[0].strip() or "unreadable"
        else:
            op.outcome = _error_kind(err)
        return _judge(op, err)

    def alternate(self, plan, seconds):
        """Run each kind of operation in turn for SLICE_S at a time, cycling
        through its cases, until `seconds` pass, with a speed reading
        between slices.  Slicing spreads every metric over the whole run.
        Returns {kind: [Slice, ...]}."""
        todo = [(k, c) for k, c in (("verdict", plan.verdict), ("svg", plan.svg)) if c]
        done = {kind: [] for kind, _ in todo}
        before = speed_reading()
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            for kind, cases in todo:
                ops = []
                n = sum(len(sl.ops) for sl in done[kind])
                s0 = perf_counter()
                while True:
                    ops.append(self.run(kind, cases[(n + len(ops)) % len(cases)]))
                    if perf_counter() - s0 >= SLICE_S:
                        break
                wall = perf_counter() - s0
                after = speed_reading()
                done[kind].append(Slice(ops, wall, (before + after) / 2))
                before = after
        return done


def _error_kind(err):
    return "budget" if "step budget" in err else "error"


def _judge(op, err):
    if op.raised:
        op.problem = f"raised: {err.strip().splitlines()[-1] if err.strip() else '?'}"
    elif op.outcome != op.case.expected:
        op.problem = f"verdict {op.outcome}, expected {op.case.expected}"
    return op


# ---------------------------------------------------------------------------
# output checks, outside the timing


def _load_check_instance():
    path = ROOT / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_instance


def svg_problems(data, g, f):
    """Ways the SVG disagrees with the witness f of graph g."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if root.tag != SVG_NS + "svg":
        return [f"root element is {root.tag}"]
    try:
        labels = {}
        for t in root.iter(SVG_NS + "text"):
            name, _, value = (t.text or "").rpartition("=")
            labels[name] = float(value)
        points = [
            tuple(float(v) for v in p.split(","))
            for line in root.iter(SVG_NS + "polyline")
            for p in line.get("points", "").split()
        ]
    except ValueError as exc:
        return [f"unreadable label or point: {exc}"]
    problems = []
    if set(labels) != set(g.vertices):
        problems.append("vertex labels do not match the graph")
    elif any(abs(labels[v] - f.heights.value[v]) > 1e-4 for v in labels):
        problems.append("labelled heights differ from the witness")
    kinds = Counter(el.get("class") for el in root.iter())
    tree_edges = sum(len(t.edges) for t in f.decomposition.trees)
    if kinds["vertex"] != len(g.vertices):
        problems.append(f"{kinds['vertex']} vertex marks for {len(g.vertices)} vertices")
    if kinds["tree"] != tree_edges:
        problems.append(f"{kinds['tree']} tree segments for {tree_edges} tree edges")
    if kinds["level"] == 0:
        problems.append("no level curves")
    if any(len(p) != 2 or not all(0.0 <= v <= SVG_SIZE for v in p) for p in points):
        problems.append("level point outside the canvas")
    return problems


def check_svgs(ops):
    """Byte stability per input, then one audit per input; marks bad ops."""
    from diskdiagram.errors import DiskDiagramError
    from diskdiagram.formats import parse
    from diskdiagram.realization import realize

    check_instance = _load_check_instance()
    by_case = {}
    for op in ops:
        if op.kind == "svg" and op.problem is None:
            by_case.setdefault(op.case.name, []).append(op)
    for group in by_case.values():
        problems = []
        if len({op.digest for op in group}) > 1:
            problems.append("svg bytes differ between renders")
        g = parse(group[0].case.text)
        try:
            f = realize(g)
        except DiskDiagramError as exc:
            problems.append(f"the library cannot realize it: {exc}")
        else:
            problems += check_instance(g, f) + svg_problems(group[0].svg, g, f)
        if problems:
            for op in group:
                op.problem = "; ".join(problems)
    for op in ops:
        op.svg = None


def census_gate(cli):
    """Untimed `enumerate --max 4 --mode graphs`; problems with its tally."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["enumerate", "--max", str(workloads.CENSUS_MAX), "--mode", "graphs"])
    log(f"gate: census enumerate took {perf_counter() - t0:.1f} s")
    tally = {}
    for line in out.getvalue().splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 2 and parts[1].isdigit():
            tally[parts[0]] = int(parts[1])
    if code != 0 or tally != workloads.CENSUS_TALLY:
        return [f"census tally {tally} (exit {code}), expected {workloads.CENSUS_TALLY}"]
    return []


# ---------------------------------------------------------------------------
# metrics


def latency_ms(ms, p):
    """(median, p-th percentile) of latencies in ms."""
    ms = sorted(ms)
    return statistics.median(ms), ms[max(0, math.ceil(p / 100 * len(ms)) - 1)]


def phase_metrics(kind, plural, slices, speed=True):
    """p50, tail and goodput of one kind's slices; failed operations count
    as infinitely slow.  With `speed`, at the reference speed."""
    p = TAIL_PERCENTILE[kind]
    ms, good, wall = [], 0, 0.0
    for sl in slices:
        f = sl.speed if speed else 1.0
        ms += [op.seconds * 1e3 / f if op.problem is None else math.inf for op in sl.ops]
        good += sum(op.problem is None for op in sl.ops)
        wall += sl.wall / f
    p50, tail = latency_ms(ms, p)
    return {
        f"{kind}_p50_ms": p50,
        f"{kind}_tail_ms": tail,
        f"{plural}_per_s": good / wall,
    }


def log_phase(kind, slices):
    n = sum(len(sl.ops) for sl in slices)
    good = sum(op.problem is None for sl in slices for op in sl.ops)
    wall = sum(sl.wall for sl in slices)
    p = TAIL_PERCENTILE[kind]
    beyond = n - math.ceil(p / 100 * n)
    log(f"{kind}: {n} ops in {wall:.2f} s, {n - good} failed, {beyond} beyond p{p:g}")
    if beyond < 10:
        log(f"{kind}: fewer than ten samples beyond p{p:g}")


def report(ops, gate_problems):
    failed = [op for op in ops if op.problem is not None]
    wrong = [op for op in failed if not op.raised]
    kinds = Counter(op.problem for op in failed)
    for problem, n in sorted(kinds.items()):
        log(f"failed x{n}: {problem}")
    for problem in gate_problems:
        log(f"gate failed: {problem}")
    share = len(failed) / len(ops) if ops else 0.0
    log(f"failed_share {share:.4f} ({len(failed)} of {len(ops)})")
    return not wrong and not gate_problems, len(ops), len(failed)


def result_line(correct, attempted, failed, metrics, units):
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": metrics[name] if math.isfinite(metrics[name]) else None,
                "unit": units[name],
            }
            for name in units
            if name in metrics
        },
    }
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# runs


def untraced_run(runner, plan, seconds, setup):
    for kind, cases in (("verdict", plan.verdict), ("svg", plan.svg)):
        if cases:
            runner.run(kind, cases[0])  # warm-up, not counted
    done = runner.alternate(plan, seconds)
    ops = [op for slices in done.values() for sl in slices for op in sl.ops]
    check_svgs(ops)
    raw, scaled = {"setup_s": setup[0]}, {"setup_s": setup[1]}
    for kind, plural in (("verdict", "verdicts"), ("svg", "svgs")):
        if kind in done:
            log_phase(kind, done[kind])
            raw.update(phase_metrics(kind, plural, done[kind], speed=False))
            scaled.update(phase_metrics(kind, plural, done[kind]))
    speeds = [sl.speed for slices in done.values() for sl in slices]
    log(f"host speed: mean {statistics.mean(speeds):.4f}, "
        f"range {min(speeds):.4f} to {max(speeds):.4f} of the reference")
    for name, value in raw.items():
        log(f"{name}: {scaled[name]:.6g} at reference speed, {value:.6g} raw {END_TO_END[name]}")
    return report(ops, []), scaled


def trace_pass(workload, plan):
    if workload == "census":
        verdict = plan.verdict[:TRACE_CENSUS_VERDICTS]
    else:
        verdict = plan.verdict
    svg = plan.svg[:TRACE_CORPUS_SVGS] if workload == "corpus" else plan.svg
    return [("verdict", c) for c in verdict] + [("svg", c) for c in svg]


def traced_run(runner, workload, plan):
    todo = trace_pass(workload, plan)
    runner.run(*todo[0])  # warm-up, not counted
    tracer = Tracer()
    plain, traced = [], []
    for i in range(0, len(todo), TRACE_CHUNK):
        chunk = todo[i : i + TRACE_CHUNK]
        plain += [runner.run(kind, case) for kind, case in chunk]
        runner.invoke = lambda kind, fn, argv: tracer.run(f"op.{kind}", fn, argv)
        with tracer:
            traced += [runner.run(kind, case) for kind, case in chunk]
        runner.invoke = _untraced
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = plain + traced
    check_svgs(ops)
    gate = census_gate(runner.cli) if plan.census_gate else []
    outcome = report(ops, gate)

    counts = tracer.counts
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    unattributed = sum(v for k, v in tracer.self_s.items() if k.startswith("op."))
    attributed = sum(tracer.self_s.values())
    log(
        f"trace: {len(todo)} ops, {traced_s:.3f} s traced vs {plain_s:.3f} s untraced; "
        f"self times sum to {attributed:.6f} s, {unattributed:.6f} s unattributed"
    )
    if tracer.missing:
        log(f"trace: layers not found: {', '.join(tracer.missing)}")
    metrics = {name: tracer.self_s.get(name, 0.0) for name, _, _ in SPANS}
    metrics.update({k: v for k, v in counts.items() if k in PER_LAYER})
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            metrics.setdefault(name, 0)
    cycles = counts.get("conditions.a1_cycles", 0)
    metrics.update(
        {
            "conditions.a1_useful_ratio": (
                counts.get("conditions.a1_qualifying", 0) / cycles if cycles else 0.0
            ),
            "conditions.budget_exceeded": sum(op.outcome == "budget" for op in traced),
            "process.peak_rss_mib": peak,
            "trace.overhead_share": (traced_s - plain_s) / plain_s,
            "trace.unattributed_s": unattributed,
            "trace.missing_layers": len(tracer.missing),
        }
    )
    return outcome, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("census", "corpus", "ladder", "fixtures"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "diskdiagram" / "__init__.py").is_file():
        log(f"error: the package sources are missing ({SRC / 'diskdiagram'})")
        return 2
    sys.path.insert(0, str(SRC))
    import diskdiagram.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "diskdiagram":
        log(f"error: imported diskdiagram from {cli.__file__}, not from {SRC}")
        return 2
    if "DELTA_BUDGET" in os.environ:
        log("error: unset DELTA_BUDGET; the benchmark runs with the default budget")
        return 2

    setup = measure_setup() if not args.trace else None
    plan = make_plan(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, cli)
        runner.write(plan.verdict + plan.svg)
        if args.trace:
            (correct, attempted, failed), metrics = traced_run(runner, args.workload, plan)
            units = PER_LAYER
        else:
            (correct, attempted, failed), metrics = untraced_run(
                runner, plan, args.seconds, setup
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
