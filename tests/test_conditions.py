import random
import time
from itertools import combinations, islice

import pytest

from diskdiagram.census import census_inputs, graphs_census
from diskdiagram.conditions import (
    check_A1,
    check_A2,
    check_A3,
    check_S3,
    find_cr_cycles,
    is_delta_graph,
)
from diskdiagram.families import build_instance, corpus_specs, ladder_spec
from diskdiagram.fixtures import EXPECTED, FIXTURES, build, raw
from diskdiagram.graph import Cycle, build_graph, decompose, enumerate_simple_cycles
from diskdiagram.orders import StrictPartialOrder
from diskdiagram.planarity import separation_ok
import references
from references import BoundaryPair, boundary_pairs
from references import check_A2 as reference_A2
from references import reach_sets, transitive_closure

CONDITION_SEQUENCE = ("A1", "A2", "S2", "S3", "A3")
# every 13th census instance: A1, A2, S2 and A3 rejections, ~7 200 graphs
CENSUS_STEP = 13


@pytest.fixture(scope="module")
def census_slice():
    return [build_graph(*raw) for raw in islice(census_inputs(4), 0, None, CENSUS_STEP)]


def ring_cycle(g, names):
    edges = []
    for i, u in enumerate(names):
        v = names[(i + 1) % len(names)]
        edges.append(next(e for e in g.edges if e.touches(u) and e.other(u) == v))
    return Cycle(tuple(names), tuple(edges))


class TestVerdicts:
    def test_fixture_outcomes(self, graphs, verdicts):
        for name, (want_delta, want_fail) in EXPECTED.items():
            v = verdicts[name]
            assert bool(v) is want_delta, name
            assert v.failed_condition() == want_fail, name

    def test_reports_run_in_sequence_and_stop(self, verdicts):
        for name, v in verdicts.items():
            names = tuple(r.condition for r in v.reports)
            assert names == CONDITION_SEQUENCE[: len(names)], name
            for r in v.reports[:-1]:
                assert r.passed, name
            if not v.delta:
                assert not v.reports[-1].passed, name

    def test_witnesses_exactly_on_failure(self, verdicts):
        for name, v in verdicts.items():
            for r in v.reports:
                assert bool(r.witnesses) == (not r.passed), (name, r.condition)

    def test_delta_verdict_carries_decomposition(self, verdicts):
        for name, v in verdicts.items():
            if v.delta:
                assert v.gamma is not None
                assert v.decomposition is not None


def complete_chain(n):
    """K_n with its vertices in a chain order: every cycle qualifies."""
    names = [f"v{i:03d}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    return build_graph(names, edges, list(zip(names, names[1:])))


def diamond_trap(k):
    """A triangle a-y-z, a bridge from a to b00, and k diamonds from b00
    to b{k} closed by the edge b{k}-b00, in a chain order.  From a, an
    unpruned search walks all 2^k paths through the diamonds, and none
    of them returns to a."""
    b = [f"b{i:02d}" for i in range(k + 1)]
    edges = [("a", "y"), ("y", "z"), ("z", "a"), ("a", b[0]), (b[k], b[0])]
    for i in range(k):
        for side in (f"c{i:02d}", f"d{i:02d}"):
            edges += [(b[i], side), (side, b[i + 1])]
    names = sorted({v for e in edges for v in e})
    return build_graph(names, edges, list(zip(names, names[1:])))


def many_cycles():
    """Graphs with more than 100 qualifying cycles, each cheap to decide."""
    yield from ((f"K{n}", complete_chain(n)) for n in (9, 60, 300))
    yield from ((f"trap {k}", diamond_trap(k)) for k in (14, 20, 40))


class TestA1:
    def test_g1_unique_cr_cycle(self):
        g = build("G1")
        crs = find_cr_cycles(g)
        assert len(crs) == 1
        assert set(crs[0].vertices) == {"m", "a", "M", "b"}

    def test_g3_unique_cr_cycle(self):
        g = build("G3")
        crs = find_cr_cycles(g)
        assert len(crs) == 1
        assert set(crs[0].vertices) == {"w1", "M1", "w2", "m1", "w3", "M2", "w4", "m2"}

    def test_missing_pair_leaves_no_cr_cycle(self):
        g = build("g1_missing")
        assert find_cr_cycles(g) == []
        report, gamma = check_A1(g)
        assert not report.passed
        assert gamma is None
        assert "no cycle" in report.witnesses[0]

    def test_multiple_cr_cycles_listed(self):
        g = build_graph(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")],
            [("a", "b"), ("b", "c")],
        )
        report, gamma = check_A1(g)
        assert not report.passed
        assert gamma is None
        assert "qualifying cycles" in report.witnesses[0]
        assert len(report.witnesses) > 1

    def test_matches_filtered_full_enumeration(self, graphs, census_slice):
        """Reference: list every simple cycle, keep the all-comparable ones."""

        def reference(g):
            return [
                c
                for c in enumerate_simple_cycles(g.vertices, g.edges)
                if all(
                    g.order.comparable(c.vertices[i], c.vertices[(i + 1) % len(c)])
                    for i in range(len(c))
                )
            ]

        def exact(cycles):
            return [(c.vertices, c.edges) for c in cycles]

        several = 0
        for g in list(graphs.values()) + census_slice:
            want = reference(g)
            assert exact(find_cr_cycles(g)) == exact(want), sorted(g.vertices)
            several += len(want) >= 2
        assert several > 1000

    def test_cycle_longer_than_recursion_limit(self):
        # a 1 200-vertex ring whose names zigzag around it (position 2i is
        # v{i}, position 2i+1 is v{1199-i}), ordered as a chain along the
        # ring: the one qualifying cycle is longer than Python's default
        # recursion limit
        n = 1200
        ring = [None] * n
        for i in range(n // 2):
            ring[2 * i] = f"v{i:04d}"
            ring[2 * i + 1] = f"v{n - 1 - i:04d}"
        edges = [(ring[k], ring[(k + 1) % n]) for k in range(n)]
        order = [(ring[k], ring[k + 1]) for k in range(n - 1)]
        v = is_delta_graph(build_graph(ring, edges, order))
        assert v.reports[0].passed
        assert v.failed_condition() == "A3"

    def test_ring_named_in_ring_order_decides(self):
        # a 1 200-vertex ring named v0000…v1199 in ring order, ordered as a
        # chain along it: from every start the ring runs on through larger
        # names only, so it decides at once only because the search drops
        # each searched start and what it strands
        n = 1200
        ring = [f"v{k:04d}" for k in range(n)]
        edges = [(ring[k], ring[(k + 1) % n]) for k in range(n)]
        order = [(ring[k], ring[k + 1]) for k in range(n - 1)]
        v = is_delta_graph(build_graph(ring, edges, order))
        assert v.reports[0].passed
        assert v.failed_condition() == "A3"

    def test_count_reported_up_to_100(self):
        # bundles of parallel edges along the chain a < b < c < d: a
        # bundle of k edges holds k(k-1)/2 2-cycles, so 91 + 6 + 3 and
        # 91 + 10 qualifying cycles
        for bundles, count in (((14, 4, 3), "100"), ((14, 5), "more than 100")):
            edges = [pair for pair, k in zip(("ab", "bc", "cd"), bundles) for _ in range(k)]
            names = sorted({v for e in edges for v in e})
            g = build_graph(names, edges, list(zip(names, names[1:])))
            report, gamma = check_A1(g)
            assert report.witnesses[0] == f"{count} qualifying cycles"
            assert (report, gamma) == references.check_A1(g)

    def test_report_matches_reference_on_bundles(self):
        def exact(result):
            report, gamma = result
            return report, gamma and (gamma.vertices, gamma.edges)

        # a-b-c, a-b-c-d and their copies over the second a-b edge: the
        # copies follow the whole search below b, not each cycle at once
        g = build_graph("abcd", ["ab", "ab", "bc", "ca", "cd", "da"], ["ab", "bc", "cd"])
        report, _ = check_A1(g)
        assert report.witnesses == (
            "6 qualifying cycles", "cycle a-b", "cycle a-b-c", "cycle a-b-c-d", "cycle a-b-c"
        )
        # seeded multigraphs on 3-7 vertices under random orders: each
        # vertex pair a bundle of 0-3 copies, at least one along a ring
        # through every vertex, so that every draw is a valid graph
        rng = random.Random(37)
        outcomes = {}
        for _ in range(1200):
            n = rng.randint(3, 7)
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            ring = {frozenset((names[i - 1], names[i])) for i in range(n)}
            dense = rng.random() ** 2
            edges = []
            for pair in combinations(names, 2):
                if frozenset(pair) in ring:
                    copies = 1 if rng.random() < 0.7 else rng.randint(2, 3)
                else:
                    copies = rng.randint(1, 3) if rng.random() < dense else 0
                edges += [pair] * copies
            rank = rng.sample(names, n)
            p = rng.random()
            order = [(rank[i], rank[j]) for i, j in combinations(range(n), 2) if rng.random() < p]
            g = build_graph(names, edges, order)
            got = exact(check_A1(g))
            assert got == exact(references.check_A1(g)), (names, edges, order)
            kind = "pass" if got[0].passed else got[0].witnesses[0].split()[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert outcomes["pass"] >= 100 and outcomes["more"] >= 100, outcomes

    def test_many_qualifying_cycles_decide_at_once(self):
        for label, g in many_cycles():
            t0 = time.perf_counter()
            v = is_delta_graph(g)
            assert time.perf_counter() - t0 < 0.5, label
            assert v.failed_condition() == "A1", label
            assert v.reports[0].witnesses[0] == "more than 100 qualifying cycles", label
            assert len(v.reports[0].witnesses) == 5, label

    def test_cyclic_complement_reported_as_a2(self):
        names = [f"v{i}" for i in range(1, 7)]
        ring = [(names[i], names[(i + 1) % 6]) for i in range(6)]
        chords = [("v1", "v3"), ("v3", "v5"), ("v5", "v1")]
        order = [("v1", "v2"), ("v3", "v2"), ("v3", "v4"), ("v5", "v4"), ("v5", "v6"), ("v1", "v6")]
        g = build_graph(names, ring + chords, order)
        v = is_delta_graph(g)
        assert not v.delta
        assert v.failed_condition() == "A2"
        assert "not a tree" in v.reports[-1].witnesses[0]


class TestA2:
    def _g3_dec(self, drop_edge=None):
        from diskdiagram.fixtures import raw

        vs, es, order = raw("G3")
        if drop_edge:
            es = [e for e in es if e != drop_edge]
        g = build_graph(vs, es, order)
        _, gamma = check_A1(g)
        return decompose(g, gamma)

    def test_g3_passes(self):
        report = check_A2(self._g3_dec())
        assert report.passed
        assert report.witnesses == ()

    def test_odd_interior_degree_rejected(self):
        report = check_A2(self._g3_dec(drop_edge=("c", "w4")))
        assert not report.passed
        assert any("c" in w and "3" in w for w in report.witnesses)

    def test_uneven_comparison_rejected(self):
        g = build_graph(
            ["m", "a", "b", "M"],
            [("m", "a"), ("m", "b"), ("a", "M"), ("b", "M"), ("a", "b")],
            [("m", "a"), ("a", "M"), ("b", "M")],
        )
        report = check_A2(decompose(g, ring_cycle(g, ["m", "a", "M", "b"])))
        assert not report.passed
        assert any("unevenly" in w for w in report.witnesses)

    def test_comparable_tree_vertices_rejected(self):
        g = build_graph(
            ["m", "a", "b", "M"],
            [("m", "a"), ("m", "b"), ("a", "M"), ("b", "M"), ("a", "b")],
            [("m", "a"), ("m", "b"), ("a", "M"), ("b", "M"), ("a", "b")],
        )
        report = check_A2(decompose(g, ring_cycle(g, ["m", "a", "M", "b"])))
        assert not report.passed
        assert any("comparable" in w for w in report.witnesses)

    def test_vacuous_without_trees(self):
        g = build_graph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        _, gamma = check_A1(g)
        report = check_A2(decompose(g, gamma))
        assert report.passed


class TestA3:
    def test_odd_degree_needs_monotone_passage(self):
        g = build_graph(
            ["m", "a", "b", "M"],
            [("m", "a"), ("m", "b"), ("a", "M"), ("b", "M"), ("a", "b")],
            [("m", "a"), ("m", "b"), ("M", "a"), ("M", "b")],
        )
        v = is_delta_graph(g)
        assert not v.delta
        assert v.failed_condition() == "A3"
        assert any("monotonically" in w for w in v.reports[-1].witnesses)

    def test_degree_two_needs_branching_neighbors(self):
        g = build_graph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            [("a", "b"), ("b", "c"), ("c", "d")],
        )
        v = is_delta_graph(g)
        assert not v.delta
        assert v.failed_condition() == "A3"
        assert any("degree-2" in w for w in v.reports[-1].witnesses)

    def test_even_degree_extremal_passes(self, verdicts):
        assert verdicts["even_attach"].delta

    def test_g1_vacuous_tables(self, verdicts):
        report = verdicts["G1"].reports[-1]
        assert report.condition == "A3"
        assert report.passed

    def test_split_tree_neighbors_rejected(self):
        vertices, edges, _ = raw("G4")
        bad_order = [
            ("m", "a1"), ("m", "b1"), ("a1", "a2"), ("a1", "b2"),
            ("b1", "a2"), ("b1", "b2"), ("M", "a2"), ("M", "b2"),
        ]
        v = is_delta_graph(build_graph(vertices, edges, bad_order))
        assert v.failed_condition() == "A3"
        witnesses = v.reports[-1].witnesses
        assert any("a2" in w for w in witnesses)
        assert any("b2" in w for w in witnesses)


def all_pairs_boundary_pairs(dec, tree_index):
    """Reference: every attachment pair of the tree, both arcs each."""
    tree = dec.trees[tree_index]
    vstar = tree.attach
    all_attach = frozenset().union(*(t.attach for t in dec.trees))
    gamma = dec.gamma
    n = len(gamma.vertices)
    out = []
    order_on_gamma = {v: i for i, v in enumerate(gamma.vertices)}
    pairs_done = set()
    vs = sorted(vstar)
    for i, v1 in enumerate(vs):
        for v2 in vs[i + 1 :]:
            i1, i2 = order_on_gamma[v1], order_on_gamma[v2]
            for a, b in ((i1, i2), (i2, i1)):
                arc = [gamma.vertices[(a + k) % n] for k in range(1, (b - a) % n)]
                if any(x in vstar for x in arc):
                    continue
                if not any(x in all_attach for x in arc):
                    continue
                va, vb = gamma.vertices[a], gamma.vertices[b]
                tilde = {va: arc[0], vb: arc[-1]}
                key = (min(va, vb), max(va, vb), tuple(arc) if va < vb else tuple(reversed(arc)))
                if key in pairs_done:
                    continue
                pairs_done.add(key)
                out.append(
                    BoundaryPair(
                        tree_index,
                        (v1, v2),
                        tuple(arc) if va == v1 else tuple(reversed(arc)),
                        (tilde[v1], tilde[v2]),
                    )
                )
    out.sort(key=lambda bp: (bp.pair, bp.alpha))
    return out


class TestBoundaryPairs:
    """`references.boundary_pairs`, on which `references.check_S3` is built,
    against fixed cases and an oracle over every pair of attachments."""

    def _g4_dec(self):
        g = build("G4")
        _, gamma = check_A1(g)
        return decompose(g, gamma)

    def test_outer_chord_sees_inner(self):
        dec = self._g4_dec()
        outer = next(t for t in dec.trees if t.vertices == frozenset({"a1", "b1"}))
        bps = boundary_pairs(dec, outer.index)
        assert len(bps) == 1
        bp = bps[0]
        assert bp.pair == ("a1", "b1")
        assert bp.alpha == ("a2", "M", "b2")
        assert bp.tilde == ("a2", "b2")

    def test_inner_chord_sees_outer(self):
        dec = self._g4_dec()
        inner = next(t for t in dec.trees if t.vertices == frozenset({"a2", "b2"}))
        bps = boundary_pairs(dec, inner.index)
        assert len(bps) == 1
        bp = bps[0]
        assert bp.pair == ("a2", "b2")
        assert bp.alpha == ("a1", "m", "b1")
        assert bp.tilde == ("a1", "b1")

    def test_single_tree_has_none(self):
        g = build("G1")
        _, gamma = check_A1(g)
        dec = decompose(g, gamma)
        assert boundary_pairs(dec, 0) == []

    def test_two_attachment_root_faces_both_arcs(self):
        spec = next(s for s in corpus_specs() if s.name == "chord2[c2(e),c2(e)]")
        dec = is_delta_graph(build_instance(spec, "minimal")).decomposition
        root = dec.tree_at.get("t0a0")
        assert root.attach == {"t0a0", "t0a1"}
        bps = boundary_pairs(dec, root.index)
        assert [(bp.pair, bp.alpha) for bp in bps] == [
            (("t0a0", "t0a1"), ("t1a0", "x0", "t1a1")),
            (("t0a0", "t0a1"), ("t2a1", "x1", "t2a0")),
        ]
        assert bps == all_pairs_boundary_pairs(dec, root.index)

    def test_equals_all_pairs_reference(self, graphs, corpus, ladder, census_slice):
        cases = list(graphs.values()) + [g for _, _, g in corpus]
        cases += list(ladder.values())
        cases += [build_instance(ladder_spec(4), m) for m in ("minimal", "saturated")]
        cases += census_slice
        trees = 0
        for g in cases:
            dec = is_delta_graph(g).decomposition
            if dec is None:
                continue
            for t in dec.trees:
                want = all_pairs_boundary_pairs(dec, t.index)
                assert boundary_pairs(dec, t.index) == want
                trees += 1
        assert trees > 0

    def test_alpha_avoids_own_attachments(self, verdicts):
        for name in ("G4", "hybrid"):
            dec = verdicts[name].decomposition
            for t in dec.trees:
                for bp in boundary_pairs(dec, t.index):
                    assert not (set(bp.alpha) & t.attach)
                    assert set(bp.tilde) <= set(bp.alpha)


class TestS3:
    def test_g4_passes(self):
        g = build("G4")
        _, gamma = check_A1(g)
        report = check_S3(decompose(g, gamma))
        assert report.passed

    def test_three_chord_names_both_trees(self, verdicts):
        v = verdicts["three_chord"]
        assert v.failed_condition() == "S3"
        assert any("different trees" in w for w in v.reports[-1].witnesses)

    def test_vacuous_on_single_tree(self):
        g = build("G1")
        _, gamma = check_A1(g)
        report = check_S3(decompose(g, gamma))
        assert report.passed
        assert report.witnesses == ()


def renamed(g, rng):
    """g with its vertices renamed by a random permutation of their names."""
    names = sorted(g.vertices)
    perm = names[:]
    rng.shuffle(perm)
    to = dict(zip(names, perm))
    at = [to[v] for v in g.order.elements]
    return build_graph(
        perm,
        [(to[e.a], to[e.b]) for e in g.edges],
        [(at[i], at[j]) for i, ws in enumerate(g.order.succ) for j in ws],
    )


def exchanged(g, dec, p, q):
    """g with attachments ``p`` and ``q`` exchanged in every edge off the
    boundary cycle of ``dec`` and in every generating order pair: each
    takes the other's place on the boundary, with its tree and order."""
    to = {p: q, q: p}
    cycle = set(dec.gamma.edges)
    edges = [
        (e.a, e.b) if e in cycle else (to.get(e.a, e.a), to.get(e.b, e.b)) for e in g.edges
    ]
    at = [to.get(v, v) for v in g.order.elements]
    pairs = [(at[i], at[j]) for i, ws in enumerate(g.order.succ) for j in ws]
    return build_graph(g.vertices, edges, pairs)


def flipped(g):
    """g with every generating order pair reversed (heights f -> -f)."""
    at = g.order.elements
    return build_graph(
        g.vertices,
        [(e.a, e.b) for e in g.edges],
        [(at[j], at[i]) for i, ws in enumerate(g.order.succ) for j in ws],
    )


class TestMetamorphic:
    """Verdicts ignore vertex names and turning the order upside down."""

    def _assert_invariant(self, cases):
        rng = random.Random(20091003)
        for label, g in cases:
            v = is_delta_graph(g)
            for variant in (renamed(g, rng), flipped(g)):
                w = is_delta_graph(variant)
                assert (w.delta, w.failed_condition()) == (
                    v.delta,
                    v.failed_condition(),
                ), label

    def test_fixtures(self, graphs):
        self._assert_invariant(sorted(graphs.items()))

    def test_corpus(self, corpus):
        self._assert_invariant((f"{s.name} [{m}]", g) for s, m, g in corpus)

    def test_ladder(self, ladder):
        self._assert_invariant(sorted(ladder.items()))

    def test_census_slice(self, census_slice):
        self._assert_invariant(enumerate(census_slice))

    def test_many_qualifying_cycles(self):
        self._assert_invariant(many_cycles())


class TestAgainstReferences:
    """The bitset closure and A2 equal the frozenset versions they replaced
    on the fixtures, the corpus, ladder d <= 4 and the census slice."""

    @pytest.fixture(scope="class")
    def cases(self, corpus, ladder):
        """(label, vertices, order pairs, graph) for every compared input."""
        rng = random.Random(13)
        out = []
        for name in sorted(FIXTURES):
            vs, es, order = raw(name)
            out.append((name, vs, order, build_graph(vs, es, order)))
        graphs = [(f"{s.name} [{m}]", g) for s, m, g in corpus]
        graphs += [(f"ladder {key}", g) for key, g in sorted(ladder.items())]
        graphs += [
            (f"ladder (4, {m!r})", build_instance(ladder_spec(4), m))
            for m in ("minimal", "saturated")
        ]
        for label, g in graphs:
            pairs = sorted(g.order.pairs)
            half = [p for p in pairs if rng.random() < 0.5]
            out.append((label, g.vertices, pairs, g))
            out.append((f"{label} half", g.vertices, half, None))
        for i, (vs, es, order) in enumerate(islice(census_inputs(4), 0, None, CENSUS_STEP)):
            out.append((f"census {i * CENSUS_STEP}", vs, order, build_graph(vs, es, order)))
        return out

    def test_reach_sets(self, cases):
        for label, vs, pairs, _ in cases:
            want = {v: frozenset() for v in vs}
            want.update(transitive_closure(pairs))
            assert reach_sets(StrictPartialOrder.from_pairs(vs, pairs)) == want, label

    def test_A2_reports(self, cases):
        decided = rejected = 0
        for label, _, _, g in cases:
            dec = None if g is None else is_delta_graph(g).decomposition
            if dec is None:
                continue
            report = check_A2(dec)
            assert report == reference_A2(dec), label
            decided += 1
            rejected += not report.passed
        assert decided > 500 and rejected > 100


class TestA2OnMemberIndices:
    """A2 reading each tree's members from the index map gives the witness
    tuples of A2 on full-width tree masks."""

    def test_census_rejects(self):
        # every A2 reject of the census that has a decomposition
        compared = 0
        for raw in census_inputs(4):
            verdict = is_delta_graph(build_graph(*raw))
            if verdict.failed_condition() != "A2" or verdict.decomposition is None:
                continue
            assert verdict.reports[-1] == references.check_A2_masks(verdict.decomposition), raw
            compared += 1
        assert compared == 1578

    def test_ladder_attachment_swaps(self):
        """Ladder d = 5 minimal with the attachment edges of two trees
        swapped: each tree's edge to its first attachment is bent over to
        the other tree's attachment."""
        g = build_instance(ladder_spec(5), "minimal")
        dec = is_delta_graph(g).decomposition
        edges = [e[:2] for e in g.edges]

        def attachment_edge(t):
            a = min(t.attach)
            u, v = min(e[:2] for e in t.edges if a in e[:2])
            return (u, v), (v if u == a else u), a

        rng = random.Random(5)
        for _ in range(8):
            (e1, u1, a1), (e2, u2, a2) = map(attachment_edge, rng.sample(dec.trees, 2))
            swapped = list(edges)
            swapped.remove(e1)
            swapped.remove(e2)
            verdict = is_delta_graph(
                build_graph(g.vertices, swapped + [(u1, a2), (u2, a1)], g.order.pairs)
            )
            assert verdict.failed_condition() == "A2"
            assert verdict.decomposition is not None
            report = verdict.reports[-1]
            assert report == references.check_A2_masks(verdict.decomposition), (e1, e2)
            assert any("compares unevenly" in w for w in report.witnesses)


def assert_separation(dec, label=None):
    """`separation_ok`'s verdict is the pairwise scan's, and a reject's
    witness puts two attachments of tree n in two gaps of tree m."""
    sep = separation_ok(dec)
    assert sep[0] == references.separation_ok(dec)[0], label
    assert sep[0] == (sep[1] is None), label
    assert sep[0] or references.spans_two_gaps(dec, *sep[1]), (label, sep)
    return sep


class TestS2AtSize:
    """Ladder shapes with attachments ``p`` and ``q`` of two different
    trees exchanged.  Most exchanges break a boundary comparison and
    fail A1; the rest reach S2, where the separation verdict is the
    pairwise scan's, its witness is valid, and the failed condition
    stays S2 under renaming and order reversal."""

    # (depth, order mode, exchanges drawn)
    SLICE = ((2, "minimal", 120), (2, "saturated", 40), (3, "minimal", 150),
             (3, "saturated", 12), (4, "minimal", 60), (4, "saturated", 6))

    def test_exchanged_attachments(self):
        rng = random.Random(22)
        reached = {}
        for d, mode, draws in self.SLICE:
            g = build_instance(ladder_spec(d), mode)
            dec = is_delta_graph(g).decomposition
            pairs = [
                (p, q)
                for s, t in combinations(dec.trees, 2)
                for p in sorted(s.attach)
                for q in sorted(t.attach)
            ]
            for p, q in rng.sample(pairs, draws):
                m = exchanged(g, dec, p, q)
                verdict = is_delta_graph(m)
                if verdict.failed_condition() != "S2":
                    continue
                label = (d, mode, p, q)
                ok, _ = assert_separation(verdict.decomposition, label)
                reached[d, mode] = reached.get((d, mode), 0) + (not ok)
                for variant in (renamed(m, rng), flipped(m)):
                    assert is_delta_graph(variant).failed_condition() == "S2", label
        assert len(reached) == len(self.SLICE) and min(reached.values()) > 0, reached


def ring_with_trees(ring, trees, start=0):
    """A decomposition: ``ring`` as the boundary cycle read from
    ``ring[start]``, and per tree its list of attachments, joined by one
    chord when there are two of them and by a star around an interior
    vertex otherwise."""
    edges = [(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))]
    centres = []
    for i, attach in enumerate(trees):
        if len(attach) == 2:
            edges.append(tuple(attach))
        else:
            centres.append(f"c{i}")
            edges += [(f"c{i}", v) for v in attach]
    g = build_graph(list(ring) + centres, edges, [])
    return decompose(g, ring_cycle(g, list(ring[start:]) + list(ring[:start])))


class TestLinearScans:
    """A1 from the 2-core, S2's bracket walk, S3's prefix counts and the
    grouped `below` give what the scans they replaced give, on the
    fixtures, the corpus, ladder d <= 5 in both order modes and a seeded
    slice of 3 000 census instances."""

    @pytest.fixture(scope="class")
    def cases(self, graphs, corpus, ladder):
        out = [(name, g) for name, g in sorted(graphs.items())]
        out += [(f"{s.name} [{m}]", g) for s, m, g in corpus]
        out += [(f"ladder {key}", g) for key, g in sorted(ladder.items())]
        out += [
            (f"ladder ({d}, {m!r})", build_instance(ladder_spec(d), m))
            for d in (4, 5)
            for m in ("minimal", "saturated")
        ]
        picks = set(random.Random(16).sample(range(93944), 3000))
        out += [
            (f"census {i}", build_graph(*raw))
            for i, raw in enumerate(census_inputs(4))
            if i in picks
        ]
        return [(label, g, is_delta_graph(g).decomposition) for label, g in out]

    def test_A1(self, cases):
        def exact(c):
            return None if c is None else (c.vertices, c.edges)

        several = 0
        for label, g, _ in cases:
            report, gamma = check_A1(g)
            want, want_gamma = references.check_A1(g)
            assert (report, exact(gamma)) == (want, exact(want_gamma)), label
            several += "qualifying cycles" in "".join(report.witnesses)
        assert several > 500

    def test_separation_and_S3(self, cases):
        decided = 0
        for label, _, dec in cases:
            if dec is None:
                continue
            assert_separation(dec, label)
            assert check_S3(dec) == references.check_S3(dec), label
            decided += 1
        assert decided > 450

    def test_below(self, cases):
        for label, g, _ in cases:
            assert g.order.below == references.below(g.order), label

    def test_random_trees_on_a_ring(self):
        # chords and stars with attachments in random places around a ring
        # of shuffled names, read from a random start
        rng = random.Random(7)
        seen = {"S2": 0, "no tree": 0, "different": 0, "pass": 0}
        for _ in range(800):
            n = rng.randrange(4, 13)
            ring = [f"p{i:02d}" for i in range(n)]
            rng.shuffle(ring)
            free = list(range(n))
            rng.shuffle(free)
            trees = []
            while len(free) >= 2 and len(trees) < 4:
                k = rng.randrange(2, min(4, len(free)) + 1)
                trees.append([ring[i] for i in free[:k]])
                free = free[k:]
            dec = ring_with_trees(ring, trees, rng.randrange(n))
            sep = assert_separation(dec)
            report = check_S3(dec)
            assert report == references.check_S3(dec)
            text = "".join(report.witnesses)
            seen["S2"] += not sep[0]
            seen["no tree"] += "attaches no tree" in text
            seen["different"] += "different trees" in text
            seen["pass"] += sep[0] and report.passed
        assert min(seen.values()) > 50, seen

    def test_S3_unattached_neighbour(self):
        # the gap of chord p0-p4 holds p1, p2 (chord p2-p3) and p3, and
        # the gap of p2-p3 runs from p4 round to p1: p1 ends both
        dec = ring_with_trees([f"p{i}" for i in range(8)], [["p0", "p4"], ["p2", "p3"]])
        report = check_S3(dec)
        assert report == references.check_S3(dec)
        assert report.witnesses == (
            "pair ('p0', 'p4') of tree 0: neighbor p1 attaches no tree",
            "pair ('p2', 'p3') of tree 1: neighbor p1 attaches no tree",
        )

    def test_S3_neighbours_on_different_trees(self):
        # the gap of chord p0-p5 ends at p1 (chord p1-p2) and p4 (chord p3-p4)
        dec = ring_with_trees(
            [f"p{i}" for i in range(8)], [["p0", "p5"], ["p1", "p2"], ["p3", "p4"]], start=6
        )
        report = check_S3(dec)
        assert report == references.check_S3(dec)
        assert report.witnesses[0] == (
            "pair ('p0', 'p5') of tree 0: neighbors ('p1', 'p4') attach different trees 1 and 2"
        )


class TestGraphsCensus:
    def test_exact_tally_up_to_four_vertices(self):
        """Every poset multigraph with at most 4 vertices, verdict by verdict."""
        res = graphs_census(4)
        assert res.instances == 93944
        assert res.by_outcome == {
            "A1": 66870,
            "A2": 26898,
            "S2": 6,
            "A3": 156,
            "delta": 14,
        }
