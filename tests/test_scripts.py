"""Each script under scripts/ runs its main on a small input and exits 0."""
import itertools
import json
import re

import pytest

from diskdiagram.errors import DegenerateDrawing


def test_render_examples(load_script, tmp_path):
    assert load_script("render_examples").main(["--out", str(tmp_path)]) == 0
    assert list(tmp_path.glob("*.svg"))


def test_run_corpus(load_script):
    assert load_script("run_corpus").main(["--limit", "3"]) == 0


def test_run_corpus_strict(load_script, capsys):
    """Strict height mode recovers the input order exactly when it is congruent."""
    assert load_script("run_corpus").main(["--limit", "3", "--strict"]) == 0
    tally = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(
        r"strict mode: (\d+) congruent orders, (\d+) exact recoveries, "
        r"(\d+) mismatch\(es\)",
        tally,
    )
    assert match, tally
    congruent, exact, mismatched = map(int, match.groups())
    assert mismatched == 0
    assert congruent == exact > 0


def test_output_hashes(load_script, capsys, monkeypatch):
    """One sha256 per input and per CLI output, one per usage argv and one
    per census command, the same on a second run."""
    module = load_script("output_hashes")
    inputs, census_inputs = module.inputs, module.census_inputs
    monkeypatch.setattr(module, "inputs", lambda: itertools.islice(inputs(), 2))
    monkeypatch.setattr(module, "census_inputs", lambda n: itertools.islice(census_inputs(n), 3))
    listings = []
    for _ in range(2):
        assert module.main() == 0
        listings.append(capsys.readouterr().out)
    lines = listings[0].splitlines()
    usage = len(module.USAGE)
    assert len(lines) == usage + 2 * (1 + len(module.COMMANDS)) + len(module.CENSUS_COMMANDS)
    assert [line.split("  ", 1)[1] for line in lines[-2:]] == [
        "census4  check",
        "census4  check --json",
    ]
    for line in lines[:usage]:
        assert re.fullmatch(r"[0-9a-f]{64}  usage  \S.*", line), line
    for line in lines[usage:]:
        assert re.fullmatch(r"[0-9a-f]{64}  \S+  (input|check|embed|realize)( .+)?", line), line
    assert listings[1] == listings[0]


def test_ladder_record(load_script, monkeypatch):
    """Every stage of ladder d <= 3 is timed; a stage that raises gives its
    exception's name, and the stages after it give null."""
    module = load_script("ladder_record")
    assert module.SHAPES[0] == (4, "minimal") and module.SHAPES[-1] == (6, "saturated")
    stages = ["build_s", "decide_s", "place_s", "extend_s", "svg_s"]
    for d in (1, 2, 3):
        for mode in ("minimal", "saturated"):
            row = json.loads(json.dumps(module.shape(d, mode)))
            assert list(row) == ["shape", "V", "E", *stages, "peak_rss_mib"]
            assert row["shape"] == f"ladder{d}/{mode}"
            assert row["V"] > 0 and row["E"] > row["V"]
            assert all(isinstance(row[k], float) for k in stages + ["peak_rss_mib"]), row

    def fail(verdict):
        raise DegenerateDrawing("tree placement produced a degenerate drawing")

    monkeypatch.setattr(module, "place", fail)
    row = module.shape(1, "minimal")
    assert row["place_s"] == "DegenerateDrawing"
    assert row["extend_s"] is row["svg_s"] is None


def test_bench_pairs_summary(load_script):
    """Medians, the change's in percent of the parent's, the parent's
    quartiles and the pairs won, from fixed result lines: a null latency
    loses its pair, a tie counts for neither side, and a metric no line
    holds gets no row."""
    module = load_script("bench_pairs")

    def line(p50, per_s, setup):
        metrics = {"verdict_p50_ms": p50, "verdicts_per_s": per_s, "setup_s": setup}
        return {"metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}

    parent = [(1.0, 100.0, 0.5), (1.1, 100.0, 0.6), (1.2, 100.0, 0.7), (1.3, 100.0, 0.8)]
    change = [(0.9, 110.0, 0.1), (1.0, 120.0, 0.1), (1.2, 90.0, 0.1), (None, 130.0, 0.1)]
    pairs = [
        {"seed": s, "first": "parent", "parent": line(*p), "change": line(*c)}
        for s, p, c in zip(range(4), parent, change)
    ]
    better = {
        "verdict_p50_ms": "lower", "verdicts_per_s": "higher", "setup_s": "lower",
        "svg_p50_ms": "lower",
    }
    end_to_end = [{"name": k, "better": v, "bound": 0.25} for k, v in better.items()]
    rows = {r["metric"]: r for r in module.summary({"corpus": pairs}, end_to_end)}
    assert list(rows) == ["verdict_p50_ms", "verdicts_per_s", "setup_s"]
    p50, per_s, setup = rows.values()
    assert p50["workload"] == "corpus" and p50["pairs"] == 4
    assert (p50["parent"], p50["change"], p50["won"]) == (pytest.approx(1.15), 1.1, 2)
    assert p50["percent"] == pytest.approx(100 * 1.1 / 1.15)
    assert (p50["parent_q1"], p50["parent_q3"]) == (pytest.approx(1.025), pytest.approx(1.275))
    assert not p50["resolved_gain"]
    assert (per_s["parent"], per_s["change"], per_s["won"]) == (100.0, 115.0, 3)
    assert per_s["percent"] == pytest.approx(115.0)
    assert not per_s["resolved_gain"]  # 3 of 4 pairs is under nine tenths
    assert not any(r["beyond_bound"] for r in rows.values())
    # the parent's quartiles (0.525, 0.775) span 38 % of its median, 0.65
    assert setup["unresolved"] and not p50["unresolved"] and not per_s["unresolved"]
    assert setup["won"] == 4 and setup["resolved_gain"]


def test_bench_pairs_marks_regressions_and_unresolved_metrics(load_script):
    """A change median worse than the parent's by more than the metric's
    bound, a share of the parent's median, is marked; so is a metric whose
    parent runs alone spread wider than that bound, whatever the change
    reads."""
    module = load_script("bench_pairs")

    def line(p50, per_s, svg):
        metrics = {"verdict_p50_ms": p50, "verdicts_per_s": per_s, "svg_p50_ms": svg}
        return {"metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}

    # p50 26 % worse on a tight parent; per_s 20 % worse, inside its bound,
    # but the parent's quartiles (70, 130) span 60 % of its median;
    # svg 24 % worse on a tight parent: inside the bound
    parent = [(1.0, 100.0, 2.0), (1.0, 60.0, 2.0), (1.0, 140.0, 2.0), (1.0, 100.0, 2.0)]
    change = [(1.26, 80.0, 2.48)] * 4
    pairs = [
        {"seed": s, "first": "change", "parent": line(*p), "change": line(*c)}
        for s, p, c in zip(range(4), parent, change)
    ]
    end_to_end = [
        {"name": "verdict_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
        {"name": "svg_p50_ms", "better": "lower", "bound": 0.25},
    ]
    rows = {r["metric"]: r for r in module.summary({"census": pairs}, end_to_end)}
    p50, per_s, svg = rows.values()
    assert p50["beyond_bound"] and not p50["unresolved"]
    assert not per_s["beyond_bound"] and per_s["unresolved"]
    assert (per_s["parent_q1"], per_s["parent_q3"]) == (70.0, 130.0)
    assert not svg["beyond_bound"] and not svg["unresolved"]
    assert not any(r["resolved_gain"] for r in rows.values())
