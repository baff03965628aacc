"""Inputs of the benchmark workloads, made from the seed.

Every input is a JSON graph file in the package's input format.  A
`Case` carries the file text and the verdict the program must give:
"delta" for an accepted graph, otherwise the first failing condition.

Run as a script to regenerate `census_outcomes.txt`, the expected
verdict of every census instance in enumeration order:

    PYTHONPATH=src python3 perfbench/workloads.py
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
CENSUS_OUTCOMES = HERE / "census_outcomes.txt"
# Exact verdict tally of all partially ordered multigraphs with 2..4 vertices.
CENSUS_TALLY = {"A1": 66870, "A2": 26898, "S2": 6, "A3": 156, "delta": 14}
CENSUS_MAX = 4
# Census files written per run; the verdict loop cycles through them.
CENSUS_FILES = 6000
# Cost strata of the corpus order: every prefix of k * STRATA cases holds
# k cases of each stratum, so a run that stops early still sees all sizes.
STRATA = 20
LADDER_DEPTHS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    expected: str  # "delta" or the first failing condition


# ---------------------------------------------------------------------------
# census


def _posets(names):
    """Every strict partial order on `names`, as sorted pair tuples."""
    pairs = [(a, b) for a in names for b in names if a != b]
    out = []
    for bits in product((False, True), repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, bits) if keep}
        if any((b, a) in rel for a, b in rel):
            continue
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(tuple(sorted(rel)))
    return out


def _multigraphs(names):
    """Connected multigraphs of minimum degree two, edge multiplicity <= 2."""
    slots = list(combinations(names, 2))
    out = []
    for mults in product(range(3), repeat=len(slots)):
        edges = [s for s, m in zip(slots, mults) for _ in range(m)]
        if len(edges) < len(names):
            continue
        if any(sum(v in e for e in edges) < 2 for v in names):
            continue
        seen = {names[0]}
        grown = True
        while grown:
            grown = False
            for a, b in edges:
                if (a in seen) != (b in seen):
                    seen |= {a, b}
                    grown = True
        if len(seen) == len(names):
            out.append(tuple(edges))
    return out


def census_graphs(max_vertices=CENSUS_MAX):
    """(vertices, edges, order) of every census instance, in a fixed order."""
    out = []
    for size in range(2, max_vertices + 1):
        names = [f"v{i}" for i in range(size)]
        posets = _posets(names)
        for edges in _multigraphs(names):
            out.extend((names, edges, order) for order in posets)
    return out


def graph_text(vertices, edges, order):
    doc = {
        "vertices": list(vertices),
        "edges": [list(e) for e in edges],
        "order": [list(p) for p in order],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


# One letter per census instance, in enumeration order.
CODES = {"delta": "d", "A1": "a", "A2": "b", "S2": "s", "S3": "t", "A3": "c"}


def read_outcomes(path=CENSUS_OUTCOMES):
    """Expected census verdicts from the outcome file; checks the tally."""
    verdict = {code: outcome for outcome, code in CODES.items()}
    out = [verdict[ch] for ch in "".join(path.read_text().split())]
    tally = {}
    for o in out:
        tally[o] = tally.get(o, 0) + 1
    if tally != CENSUS_TALLY:
        raise ValueError(f"{path.name}: tally {tally} is not {CENSUS_TALLY}")
    return out


def write_outcomes(outcomes, path=CENSUS_OUTCOMES):
    text = "".join(CODES[o] for o in outcomes)
    lines = [text[i : i + 100] for i in range(0, len(text), 100)]
    path.write_text("\n".join(lines) + "\n")


def census_cases(seed):
    """Seeded verdict sample of the census, and its accepted graphs for svg."""
    graphs = census_graphs()
    outcomes = read_outcomes()
    if len(outcomes) != len(graphs):
        raise ValueError("census enumeration and expected outcomes disagree")
    rng = random.Random(seed)
    picks = rng.sample(range(len(graphs)), CENSUS_FILES)
    verdict = [
        Case(f"census{i:05d}", graph_text(*graphs[i]), outcomes[i]) for i in picks
    ]
    accepted = [i for i, o in enumerate(outcomes) if o == "delta"]
    rng.shuffle(accepted)
    svg = [Case(f"census{i:05d}", graph_text(*graphs[i]), "delta") for i in accepted]
    return verdict, svg


# ---------------------------------------------------------------------------
# corpus and ladder


def stratified(cases, rng, strata=STRATA):
    """Cases reordered so that every prefix samples all size strata evenly.

    Cases are ranked by file size and cut into `strata` blocks; each round
    takes one case of every block, blocks and members in seeded order.
    """
    ranked = sorted(cases, key=lambda c: (len(c.text), c.name))
    size = -(-len(ranked) // strata)
    blocks = [ranked[i : i + size] for i in range(0, len(ranked), size)]
    for b in blocks:
        rng.shuffle(b)
    out = []
    for r in range(size):
        rng.shuffle(blocks)
        out.extend(b[r] for b in blocks if r < len(b))
    return out


def corpus_cases(seed):
    """All corpus instances for verdicts, in a seeded stratified order."""
    from diskdiagram.families import corpus_instances
    from diskdiagram.formats import serialize

    cases = [
        Case(f"corpus{i:03d}", serialize(g), "delta")
        for i, (_, _, g) in enumerate(corpus_instances())
    ]
    rng = random.Random(seed)
    return stratified(cases, rng), stratified(cases, rng)


def nest(depth):
    """nest(0) = EXT, nest(d) = star4 of three copies of nest(d - 1)."""
    from diskdiagram.families import EXT, star4

    if depth == 0:
        return EXT
    inner = nest(depth - 1)
    return star4(inner, inner, inner)


def ladder_cases():
    """star4[nest(d), EXT, nest(d), EXT] for each depth, both order modes."""
    from diskdiagram.families import EXT, FamilySpec, build_instance
    from diskdiagram.formats import serialize

    cases = []
    for d in LADDER_DEPTHS:
        spec = FamilySpec(f"ladder{d}", "star", 4, (nest(d), EXT, nest(d), EXT))
        for mode in ("minimal", "saturated"):
            text = serialize(build_instance(spec, mode))
            cases.append(Case(f"ladder{d}-{mode}", text, "delta"))
    return cases


def fixture_cases():
    """The package's named fixtures with their documented verdicts."""
    from diskdiagram.fixtures import EXPECTED, FIXTURES

    cases = []
    for name in sorted(FIXTURES):
        delta, condition = EXPECTED[name]
        text = graph_text(*FIXTURES[name]())
        cases.append(Case(name, text, "delta" if delta else condition))
    return cases


if __name__ == "__main__":
    from diskdiagram.conditions import is_delta_graph
    from diskdiagram.graph import build_graph

    verdicts = []
    for vertices, edges, order in census_graphs():
        v = is_delta_graph(build_graph(vertices, edges, order))
        verdicts.append("delta" if v.delta else v.failed_condition())
    write_outcomes(verdicts)
    read_outcomes()
    sys.stdout.write(f"wrote {len(verdicts)} outcomes to {CENSUS_OUTCOMES}\n")
