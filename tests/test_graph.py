import copy
import pickle
import random
import sys
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdiagram.census import census_inputs
from diskdiagram.conditions import is_delta_graph
from diskdiagram.errors import (
    DegreeBelowTwo,
    DisconnectedGraph,
    NotAForest,
    OrderCycle,
    SelfLoop,
    UnknownId,
)
from diskdiagram.fixtures import build
from diskdiagram.graph import (
    Cycle,
    Decomposition,
    Edge,
    adjacency,
    build_graph,
    decompose,
    enumerate_simple_cycles,
    make_edges,
)
from diskdiagram.realization import extend_to_faces, place
from diskdiagram.svg import render_svg

import references


def ring_cycle(g, names):
    """Build the Cycle through ``names`` using the graph's own edges."""
    edges = []
    for i, u in enumerate(names):
        v = names[(i + 1) % len(names)]
        edges.append(next(e for e in g.edges if e.touches(u) and e.other(u) == v))
    return Cycle(tuple(names), tuple(edges))


class TestBuildGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(["a", "b"], [("a", "a"), ("a", "b"), ("a", "b")], [])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph) as info:
            build_graph(
                ["a", "b", "c", "d"],
                [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")],
                [],
            )
        # the component of the smallest vertex, and the smallest vertex outside it
        assert info.value.component == {"a", "b"}
        assert str(info.value) == "graph is not connected; a component of 2 vertices leaves out 'c'"

    def test_degree_below_two_rejected(self):
        with pytest.raises(DegreeBelowTwo):
            build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")], [])

    def test_order_cycle_rejected(self):
        with pytest.raises(OrderCycle):
            build_graph(
                ["a", "b", "c"],
                [("a", "b"), ("b", "c"), ("c", "a")],
                [("a", "b"), ("b", "a")],
            )

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(UnknownId):
            build_graph(["a", "b"], [("a", "b"), ("a", "zz")], [])

    def test_closure_is_taken(self):
        g = build("G1")
        assert g.order.lt("m", "M")

    def test_parallel_edges_keyed(self):
        g = build("bare2")
        assert sorted(e.key for e in g.edges) == [0, 1]
        assert all((e.a, e.b) == ("x", "y") for e in g.edges)

    def test_edge_is_its_sorted_tuple(self):
        e = Edge("b", "a", 1)
        assert (e.a, e.b, e.key) == ("a", "b", 1)
        assert e == ("a", "b", 1) and hash(e) == hash(("a", "b", 1))
        assert repr(e) == "a-b#1" and repr(Edge("x", "y")) == "x-y"
        assert sorted([Edge("a", "c"), e, Edge("a", "b")]) == [("a", "b", 0), e, ("a", "c", 0)]
        assert e.other("a") == "b" and e.touches("b") and not e.touches("c")
        for again in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert again == e and type(again) is Edge
        with pytest.raises(SelfLoop):
            Edge("a", "a")

    def test_degree_sum_counts_edge_ends(self, graphs):
        for g in graphs.values():
            assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


class TestMakeEdges:
    def test_endpoints_normalised(self):
        (e,) = make_edges([("y", "x")])
        assert (e.a, e.b, e.key) == ("x", "y", 0)

    def test_parallel_numbering(self):
        es = make_edges([("x", "y"), ("y", "x"), ("x", "y")])
        assert [e.key for e in es] == [0, 1, 2]


class TestCycleType:
    def test_rotation_reflection_equal(self):
        g = build("G1")
        c1 = ring_cycle(g, ["m", "a", "M", "b"])
        c2 = ring_cycle(g, ["a", "M", "b", "m"])
        c3 = ring_cycle(g, ["b", "M", "a", "m"])
        assert c1 == c2 == c3
        assert len({c1, c2, c3}) == 1

    def test_edges_must_join_consecutive_vertices(self):
        ab, bc, ca = Edge("a", "b"), Edge("b", "c"), Edge("c", "a")
        assert len(Cycle(("a", "b", "c"), (ab, bc, ca))) == 3
        with pytest.raises(ValueError, match=r"edge b-c does not join 'c' and 'a'"):
            Cycle(("a", "b", "c"), (ab, bc, bc))
        with pytest.raises(ValueError, match="matching vertex and edge sequences"):
            Cycle(("a", "b", "c"), (ab, bc))
        # a cycle is simple: no vertex twice, and a 2-cycle takes two copies
        assert len(Cycle(("a", "b"), (ab, Edge("a", "b", 1)))) == 2
        with pytest.raises(ValueError, match="2-cycle takes edge a-b twice"):
            Cycle(("a", "b"), (ab, ab))
        with pytest.raises(ValueError, match="cycle repeats a vertex"):
            Cycle(("a", "b", "a", "c"), (ab, ab, ca, ca))

    @given(st.integers(3, 8), st.integers(0, 7), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_canonical_invariant(self, n, shift, flip):
        names = [f"v{i}" for i in range(n)]
        g = build_graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)], [])
        base = ring_cycle(g, names)
        rotated = names[shift % n :] + names[: shift % n]
        if flip:
            rotated = list(reversed(rotated))
        assert ring_cycle(g, rotated) == base


def unpruned_cycles(vertices, edges):
    """Reference search: from each start, every simple path over larger names."""
    verts = sorted(set(vertices))
    incident = {v: () for v in verts} | adjacency(edges)
    out = []
    groups = {}
    for e in edges:
        groups.setdefault((e.a, e.b), []).append(e)
    for ends, group in sorted(groups.items()):
        group.sort()
        out += [Cycle(ends, (x, y)) for i, x in enumerate(group) for y in group[i + 1 :]]

    def walk(s, path_v, path_e):
        for e in incident[path_v[-1]]:
            if e in path_e:
                continue
            w = e.other(path_v[-1])
            if w == s:
                if len(path_v) >= 3 and path_v[1] < path_v[-1]:
                    out.append(Cycle(tuple(path_v), tuple(path_e) + (e,)))
            elif w > s and w not in path_v:
                walk(s, path_v + [w], path_e + [e])

    for s in verts:
        walk(s, [s], [])
    return out


class TestSimpleCycles:
    def test_g1_exactly_three(self):
        g = build("G1")
        found = enumerate_simple_cycles(g.vertices, g.edges)
        assert len(found) == 3
        expected = {
            ring_cycle(g, ["m", "a", "M", "b"]),
            ring_cycle(g, ["m", "a", "b"]),
            ring_cycle(g, ["a", "M", "b"]),
        }
        assert set(found) == expected

    def test_bare2_single_two_cycle(self):
        g = build("bare2")
        found = enumerate_simple_cycles(g.vertices, g.edges)
        assert len(found) == 1
        assert len(found[0]) == 2
        assert found[0].edge_set() == frozenset(g.edges)

    def test_acyclic_input_empty(self):
        es = make_edges([("a", "b"), ("b", "c")])
        assert enumerate_simple_cycles({"a", "b", "c"}, es) == []

    def test_no_duplicates_up_to_symmetry(self, graphs):
        for g in graphs.values():
            found = enumerate_simple_cycles(g.vertices, g.edges)
            assert len(set(found)) == len(found)

    def test_same_cycles_as_unpruned_search(self):
        def exact(cycles):
            return [(c.vertices, c.edges) for c in cycles]

        rng = random.Random(3)
        for _ in range(400):
            n = rng.randrange(2, 10)
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randrange(1, 2 * n))]
            es = make_edges(pairs)
            assert exact(enumerate_simple_cycles(names, es)) == exact(
                unpruned_cycles(names, es)
            )

    def test_edge_end_outside_vertices_rejected(self):
        es = make_edges([("a", "b"), ("a", "x"), ("b", "x")])
        with pytest.raises(UnknownId) as info:
            enumerate_simple_cycles(["a", "b"], es)
        assert (info.value.ident, info.value.where) == ("x", "edge list")

    def test_long_ring_searched_once(self):
        # each start searches only the 2-core of the vertices not yet
        # searched; after the first start of a ring nothing is left, so the
        # time grows linearly, not quadratically, with the ring's length
        n = 1200
        names = [f"v{k:04d}" for k in range(n)]
        es = make_edges((names[k], names[(k + 1) % n]) for k in range(n))
        t0 = time.perf_counter()
        found = enumerate_simple_cycles(names, es)
        assert time.perf_counter() - t0 < 0.5
        assert [c.vertices for c in found] == [tuple(names)]


class TestLimit:
    """The first ``limit`` cycles are the first ``limit`` of the full,
    unpruned listing of `references.enumerate_simple_cycles`."""

    @staticmethod
    def check(names, es, rng):
        want = [(c.vertices, c.edges) for c in references.enumerate_simple_cycles(names, es)]
        limits = {0, 1, 2, len(want) - 1, len(want), len(want) + 1, rng.randrange(len(want) + 2)}
        for m in sorted(limits - {-1}):
            found = enumerate_simple_cycles(names, es, limit=m)
            assert [(c.vertices, c.edges) for c in found] == want[:m], m
        return len(want)

    def test_fixtures_and_census(self, graphs):
        rng = random.Random(33)
        gs = list(graphs.values())
        gs += [build_graph(*raw) for raw in islice(census_inputs(4), 0, None, 97)]
        several = sum(self.check(g.vertices, g.edges, rng) >= 3 for g in gs)
        assert several > 500

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simple_cycles(["a", "b"], make_edges([("a", "b")] * 2), limit=-1)

    def test_random_multigraphs(self):
        rng = random.Random(34)
        several = 0
        for _ in range(400):
            n = rng.randrange(2, 10)
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randrange(1, 3 * n))]
            several += self.check(names, make_edges(pairs), rng) >= 3
        assert several > 100


def rebuilt(cycles):
    """Each cycle as (vertices, edges), made again through `Cycle(...)`,
    whose check the search skips."""
    return [(c.vertices, c.edges) for c in (Cycle(c.vertices, c.edges) for c in cycles)]


class TestSearchBuildsValidCycles:
    """Every cycle the search lists passes `Cycle`'s check unchanged."""

    def test_fixtures_corpus_and_census(self, graphs, corpus):
        # every seventh corpus graph: the corpus holds 148 510 cycles in all
        gs = list(graphs.values()) + [g for _, _, g in corpus[::7]]
        gs += [build_graph(*raw) for raw in islice(census_inputs(4), 0, None, 47)]
        total = 0
        for g in gs:
            found = enumerate_simple_cycles(g.vertices, g.edges)
            assert [(c.vertices, c.edges) for c in found] == rebuilt(found)
            assert all(type(c) is Cycle for c in found)
            total += len(found)
        assert total > 10_000


class TestTwoCoreWalk:
    """A core of degree-2 vertices is walked once; any other core is
    searched.  Every case must list what the full search lists."""

    @staticmethod
    def exact(cycles):
        return [(c.vertices, c.edges) for c in cycles]

    def check(self, names, pairs):
        es = make_edges(pairs)
        found = enumerate_simple_cycles(names, es)
        assert self.exact(found) == self.exact(references.enumerate_simple_cycles(names, es))
        assert self.exact(found) == rebuilt(found)
        return found

    def test_both_walk_directions(self):
        # the ring a-b-c-d-e, listed forwards and backwards, with a
        # pendant path hanging off c; the walk leaves a for b either way
        for ring in ("abcde", "aedcb"):
            pairs = [(ring[k], ring[(k + 1) % 5]) for k in range(5)]
            pairs += [("c", "x"), ("x", "y")]
            found = self.check(list(ring) + ["x", "y"], pairs)
            assert [c.vertices for c in found] == [tuple("abcde")]

    def test_core_with_a_degree_three_vertex(self):
        # the theta graph a=b: three paths a-x-b, a-y-b, a-z-b
        pairs = [("a", w) for w in "xyz"] + [(w, "b") for w in "xyz"]
        found = self.check(["a", "b", "x", "y", "z"], pairs)
        assert len(found) == 3

    def test_core_of_two_disjoint_cycles(self):
        pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")]
        found = self.check(list("abcdef"), pairs)
        assert [c.vertices for c in found] == [tuple("abc"), tuple("def")]

    def test_two_cycle_core(self):
        # two parallel edges with a path hanging off them
        found = self.check(["a", "b", "c", "d"], [("b", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        assert self.exact(found) == [(("a", "b"), (Edge("a", "b", 0), Edge("a", "b", 1)))]

    def test_two_cycle_core_beside_another_parallel_pair(self):
        found = self.check(["a", "b", "c", "d"], [("a", "b"), ("a", "b"), ("c", "d"), ("d", "c")])
        assert [c.vertices for c in found] == [("a", "b"), ("c", "d")]

    def test_third_parallel_edge(self):
        found = self.check(["a", "b"], [("a", "b")] * 3)
        assert [tuple(e.key for e in c.edges) for c in found] == [(0, 1), (0, 2), (1, 2)]

    def test_random_multigraphs(self):
        rng = random.Random(16)
        walked = 0
        for _ in range(600):
            n = rng.randrange(2, 9)
            names = [f"v{i}" for i in range(n)]
            rng.shuffle(names)
            if rng.random() < 0.5:
                # a ring, with pendant edges and sometimes a second ring
                k = rng.randrange(2, n + 1)
                pairs = [(names[i], names[(i + 1) % k]) for i in range(k)]
                pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randrange(0, 3))]
            else:
                pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randrange(1, 2 * n))]
            found = self.check(names, pairs)
            walked += len(found) == 1
        assert walked > 100


class TestDecompose:
    def test_g1_chord_tree(self):
        g = build("G1")
        dec = decompose(g, ring_cycle(g, ["m", "a", "M", "b"]))
        assert len(dec.trees) == 1
        t = dec.trees[0]
        assert t.vertices == frozenset({"a", "b"})
        assert len(t.edges) == 1
        assert t.attach == frozenset({"a", "b"})
        assert dec.interior_vertices() == frozenset()

    def test_g3_star_tree(self):
        g = build("G3")
        ring = ["w1", "M1", "w2", "m1", "w3", "M2", "w4", "m2"]
        dec = decompose(g, ring_cycle(g, ring))
        assert len(dec.trees) == 1
        t = dec.trees[0]
        assert t.vertices == frozenset({"c", "w1", "w2", "w3", "w4"})
        assert t.attach == frozenset({"w1", "w2", "w3", "w4"})
        assert dec.interior_vertices() == frozenset({"c"})
        assert dec.tree_at["c"] is t
        assert "m1" not in dec.tree_at
        assert dec.rings[t.index] == ("w1", "w2", "w3", "w4")
        assert [dec.position[v] for v in ring] == list(range(8))

    def test_g1_alternate_cycle_puts_peak_inside(self):
        g = build("G1")
        dec = decompose(g, ring_cycle(g, ["m", "a", "b"]))
        assert len(dec.trees) == 1
        t = dec.trees[0]
        assert t.vertices == frozenset({"a", "M", "b"})
        assert dec.interior_vertices() == frozenset({"M"})

    def test_g4_two_trees_indexed_by_smallest_vertex(self):
        g = build("G4")
        dec = decompose(g, ring_cycle(g, ["m", "a1", "a2", "M", "b2", "b1"]))
        assert [t.index for t in dec.trees] == [0, 1]
        assert dec.trees[0].vertices == frozenset({"a1", "b1"})
        assert dec.trees[1].vertices == frozenset({"a2", "b2"})

    def test_edge_partition(self, graphs):
        g = build("G3")
        ring = ["w1", "M1", "w2", "m1", "w3", "M2", "w4", "m2"]
        gamma = ring_cycle(g, ring)
        dec = decompose(g, gamma)
        parts = [set(gamma.edges)] + [set(t.edges) for t in dec.trees]
        union = set()
        for p in parts:
            assert not (union & p)
            union |= p
        assert union == set(g.edges)

    def test_cyclic_leftover_rejected(self):
        names = ["a", "b", "c", "d", "e"]
        ring = [(names[i], names[(i + 1) % 5]) for i in range(5)]
        g = build_graph(names, ring + [("a", "c"), ("c", "e"), ("e", "a")], [])
        with pytest.raises(NotAForest):
            decompose(g, ring_cycle(g, names))

    def test_bogus_gamma_rejected(self):
        """A cycle edge that is not an edge of the graph is named, also
        when the cycle's vertices are the graph's."""
        g = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], [])
        crossed = make_edges([("a", "c"), ("c", "b"), ("b", "d"), ("d", "a")])
        with pytest.raises(ValueError, match=r"^cycle edge a-c is not an edge of the graph$"):
            decompose(g, Cycle(("a", "c", "b", "d"), crossed))
        g = build("G1")
        gamma = ring_cycle(g, ["m", "a", "M", "b"])
        edges = tuple(Edge("M", "a", 7) if e[:2] == ("M", "a") else e for e in gamma.edges)
        with pytest.raises(ValueError, match=r"^cycle edge M-a#7 is not an edge of the graph$"):
            decompose(g, Cycle(gamma.vertices, edges))

    def test_tables_match_reference(self, verdicts, realized_corpus, census_accepted, ladder):
        """Each tree's adjacency (the graph's incidence less the cycle
        edges) and the decomposition's tables equal the ones built
        afresh, for `decompose`'s decompositions of the fixtures, the
        corpus, the census's accepted graphs and ladder d <= 3, and for
        hand-built ones with their trees in reverse.  The trees are
        vertex-disjoint, their edges and the cycle's partition the
        graph's, and every tree leaf lies on the cycle."""
        found = [(name, v.decomposition) for name, v in sorted(verdicts.items())]
        found += [(f"{s.name} [{m}]", f.decomposition) for s, m, _, f in realized_corpus]
        found += [(label, is_delta_graph(g).decomposition) for label, g in census_accepted]
        found += [(f"ladder {k}", is_delta_graph(g).decomposition) for k, g in ladder.items()]
        found = [(label, dec) for label, dec in found if dec is not None]
        assert len(found) > 440
        by_hand = [
            (f"{label} by hand", Decomposition(dec.graph, dec.gamma, dec.trees[::-1]))
            for label, dec in found
        ]
        for label, dec in found + by_hand:
            adj, position, tree_at, rings = references.decomposition_tables(dec)
            for t in dec.trees:
                assert {v: t.adj.get(v, ()) for v in t.vertices} == adj[t.index], label
                assert all(v in dec.gamma for v, es in adj[t.index].items() if len(es) == 1), label
            assert sum(len(t.vertices) for t in dec.trees) == len(dec.tree_at), label
            edges = [*dec.gamma.edges, *(e for t in dec.trees for e in t.edges)]
            assert sorted(edges) == sorted(dec.graph.edges), label
            assert dec.position == position, label
            assert dec.tree_at.keys() == tree_at.keys(), label
            assert all(dec.tree_at[v] is t for v, t in tree_at.items()), label
            assert dec.rings == rings, label

    def test_pipeline_builds_no_adjacency(self, monkeypatch, corpus):
        """Deciding, placing and drawing read the graph's incidence and
        the trees' adjacency from `decompose`; only raw tree input calls
        `graph.adjacency`."""

        def refuse(*args, **kwargs):
            raise AssertionError("graph.adjacency called")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("diskdiagram") and (
                getattr(module, "adjacency", None) is adjacency
            ):
                monkeypatch.setattr(module, "adjacency", refuse)
        for g in (build("G3"), corpus[0][2]):
            verdict = is_delta_graph(g)
            assert verdict.delta
            assert render_svg(extend_to_faces(*place(verdict))).endswith("</svg>\n")

