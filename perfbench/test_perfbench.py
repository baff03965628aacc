"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import diskdiagram.cli as cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, cli)


@pytest.fixture
def fixtures():
    return {c.name: c for c in workloads.fixture_cases()}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_fixtures_pass_both_operations(runner):
    plan = run.make_plan("fixtures", 0)
    runner.write(plan.verdict)
    ops = [runner.verdict(c) for c in plan.verdict] + [runner.svg(c) for c in plan.svg]
    run.check_svgs(ops)
    assert [(op.case.name, op.problem) for op in ops if op.problem] == []
    assert {op.outcome for op in ops} == {"delta", "A1", "S2", "S3"}


def test_budget_exceeded_counts_as_failed(runner, fixtures, monkeypatch):
    monkeypatch.setenv("DELTA_BUDGET", "2")
    runner.write([fixtures["G3"]])
    ops = [runner.verdict(fixtures["G3"]), runner.svg(fixtures["G3"])]
    assert [op.outcome for op in ops] == ["budget", "budget"]
    assert run.report(ops, []) == (True, 2, 2)
    metrics = run.phase_metrics("svg", "svgs", [run.Slice(ops, 1.0, 1.0)])
    assert metrics == {"svg_p50_ms": float("inf"), "svg_tail_ms": float("inf"), "svgs_per_s": 0}


def test_wrong_verdict_is_not_correct(runner, fixtures):
    case = replace(fixtures["G1"], expected="A1")
    runner.write([case])
    op = runner.verdict(case)
    assert op.problem == "verdict delta, expected A1"
    assert run.report([op], []) == (False, 1, 1)


def test_damaged_svg_is_detected(runner, fixtures):
    from diskdiagram.formats import parse
    from diskdiagram.realization import realize

    case = fixtures["G1"]
    runner.write([case])
    op = runner.svg(case)
    g = parse(case.text)
    f = realize(g)
    assert run.svg_problems(op.svg, g, f) == []
    label = f"{sorted(g.vertices)[0]}=".encode()
    damaged = op.svg.replace(label, label + b"9")
    assert run.svg_problems(damaged, g, f) == ["labelled heights differ from the witness"]
    assert run.svg_problems(op.svg.replace(b'class="tree"', b'class="x"'), g, f)


def test_unstable_svg_bytes_are_detected(runner, fixtures):
    case = fixtures["G1"]
    runner.write([case])
    ops = [runner.svg(case), runner.svg(case)]
    ops[1].digest = "0" * 64
    run.check_svgs(ops)
    assert all(op.problem == "svg bytes differ between renders" for op in ops)


def test_perturbed_census_outcomes_are_detected(tmp_path):
    assert len(workloads.read_outcomes()) == sum(workloads.CENSUS_TALLY.values())
    text = workloads.CENSUS_OUTCOMES.read_text()
    i = text.index("s")
    bad = tmp_path / "outcomes.txt"
    bad.write_text(text[:i] + "b" + text[i + 1 :])
    with pytest.raises(ValueError, match="tally"):
        workloads.read_outcomes(bad)


def test_census_gate_detects_a_wrong_tally(monkeypatch):
    monkeypatch.setattr(workloads, "CENSUS_MAX", 3)
    assert run.census_gate(cli)


def test_census_sample_gets_expected_verdicts(runner):
    verdict, svg = workloads.census_cases(7)
    assert len(verdict) == workloads.CENSUS_FILES and len(svg) == 14
    assert verdict[:5] == workloads.census_cases(7)[0][:5]
    sample = verdict[:150]
    runner.write(sample)
    assert [op.problem for op in map(runner.verdict, sample) if op.problem] == []


def test_stratified_prefix_covers_every_stratum():
    cases = [workloads.Case(f"c{i:03d}", "x" * i, "delta") for i in range(420)]
    order = workloads.stratified(cases, random.Random(3))
    assert sorted(c.name for c in order) == sorted(c.name for c in cases)
    blocks = [len(c.text) // 21 for c in order[:40]]
    assert sorted(blocks) == sorted(list(range(20)) * 2)


def test_metrics_at_the_reference_speed():
    ops = [run.Op("verdict", None, i / 1e3, "delta") for i in range(1, 101)]
    slices = [run.Slice(ops[:50], 2.0, 0.5), run.Slice(ops[50:], 2.0, 2.0)]
    raw = run.phase_metrics("verdict", "verdicts", slices, speed=False)
    assert raw == {"verdict_p50_ms": 50.5, "verdict_tail_ms": 90.0, "verdicts_per_s": 25.0}
    assert run.phase_metrics("verdict", "verdicts", slices)["verdicts_per_s"] == 20.0
    slow = [run.Slice(ops[:50], 2.0, 2.0), run.Slice(ops[50:], 2.0, 2.0)]
    scaled = run.phase_metrics("verdict", "verdicts", slow)
    assert scaled == {"verdict_p50_ms": 25.25, "verdict_tail_ms": 45.0, "verdicts_per_s": 50.0}


def test_trace_self_times_add_up_and_missing_layers_are_reported(runner, monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + (("x.nowhere_s", "no_such_layer", None),))
    plan = run.make_plan("fixtures", 0)
    runner.write(plan.verdict)
    tracer = spans.Tracer()
    runner.invoke = lambda kind, fn, argv: tracer.run(f"op.{kind}", fn, argv)
    with tracer:
        ops = [runner.verdict(c) for c in plan.verdict] + [runner.svg(c) for c in plan.svg]
    assert cli.is_delta_graph.__module__ == "diskdiagram.conditions"
    assert tracer.missing == ["x.nowhere_s"]
    assert all(op.problem is None for op in ops)
    total = sum(op.seconds for op in ops)
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-3)
    assert tracer.self_s["conditions.a1_s"] > 0 and tracer.self_s["svg.render_svg_s"] > 0
    assert tracer.counts["conditions.rejected.S3"] == 2


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    untraced = _bench("--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0")
    traced = _bench("--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "1")
    for proc, names in ((untraced, run.END_TO_END), (traced, run.PER_LAYER)):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(names)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
