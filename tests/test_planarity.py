import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdiagram import planarity
from diskdiagram.conditions import is_delta_graph
from diskdiagram.errors import (
    NotInTree,
    NotPlanar,
    TerminalNotInVstar,
)
from diskdiagram.graph import make_edges
from diskdiagram.planarity import (
    brute_force_tree_embedding,
    build_embedding,
    face_arcs,
    separation_ok,
    trace_faces,
    tree_is_disk_planar,
)

import references

STAR = [("c", "w1"), ("c", "w2"), ("c", "w3"), ("c", "w4")]
# two cherries joined through the middle edge c1--c2
DOUBLE_Y = [("c1", "a"), ("c1", "b"), ("c1", "c2"), ("c2", "c"), ("c2", "d")]


def edges(pairs):
    return make_edges(pairs)


class TestTreeCriterion:
    def test_star_embeds_any_order(self):
        for perm in (("w1", "w2", "w3", "w4"), ("w1", "w3", "w2", "w4")):
            ok, counts = tree_is_disk_planar(edges(STAR), perm)
            assert ok
            assert set(counts.values()) == {2}

    def test_double_y_separating_order(self):
        ok, counts = tree_is_disk_planar(edges(DOUBLE_Y), ("a", "b", "c", "d"))
        assert ok

    def test_double_y_interleaving_order(self):
        ok, counts = tree_is_disk_planar(edges(DOUBLE_Y), ("a", "c", "b", "d"))
        assert not ok
        bridge = next(e for e in counts if e.touches("c1") and e.touches("c2"))
        assert counts[bridge] == 4

    def test_two_boundary_vertices_always_embed(self):
        ok, counts = tree_is_disk_planar(edges([("a", "b")]), ("a", "b"))
        assert ok
        assert brute_force_tree_embedding(edges([("a", "b")]), ("b", "a"))

    def test_leaf_outside_boundary_rejected(self):
        with pytest.raises(TerminalNotInVstar):
            tree_is_disk_planar(edges(STAR), ("w1", "w2", "w3"))

    def test_boundary_vertex_outside_tree_rejected(self):
        with pytest.raises(NotInTree):
            tree_is_disk_planar(edges(STAR), ("w1", "w2", "w3", "w4", "zz"))

    def test_forest_rejected(self):
        """Ring vertices in two components: the first one the walk from
        the ring's start cannot reach is named."""
        with pytest.raises(NotInTree) as exc:
            tree_is_disk_planar(edges([("a", "b"), ("c", "d")]), ("a", "b", "c", "d"))
        assert exc.value.vertex == "c"

    def test_repeated_ring_vertex_rejected(self):
        for check in (tree_is_disk_planar, brute_force_tree_embedding):
            with pytest.raises(ValueError):
                check(edges(STAR), ("w1", "w2", "w3", "w4", "w1"))

    def test_same_answer_for_every_rotation(self):
        for ring in (("a", "b", "c", "d"), ("a", "c", "b", "d")):
            verdicts = set()
            for k in range(len(ring)):
                rotated = ring[k:] + ring[:k]
                ok, counts = tree_is_disk_planar(edges(DOUBLE_Y), rotated)
                brute = brute_force_tree_embedding(edges(DOUBLE_Y), rotated)
                verdicts.add((ok, brute, tuple(sorted(counts.items()))))
            assert len(verdicts) == 1, ring


class TestOracle:
    def test_matches_criterion_on_double_y(self):
        for perm, want in (
            (("a", "b", "c", "d"), True),
            (("a", "c", "b", "d"), False),
            (("a", "b", "d", "c"), True),
        ):
            ok, _ = tree_is_disk_planar(edges(DOUBLE_Y), perm)
            brute = brute_force_tree_embedding(edges(DOUBLE_Y), perm)
            assert ok == brute == want, perm

    def test_budget_guard(self):
        # the centre of a star with 11 leaves has 10! > 10**6 rotations
        star = [("c", f"w{i:02d}") for i in range(11)]
        names = [f"w{i:02d}" for i in range(11)]
        with pytest.raises(ValueError, match="rotation systems"):
            brute_force_tree_embedding(edges(star), tuple(names))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_criterion_equals_oracle_random_trees(self, data):
        n = data.draw(st.integers(3, 7), label="n")
        if n == 3:
            prufer = [1]  # the path, the only tree on three vertices
        else:
            prufer = data.draw(
                st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2),
                label="prufer",
            )
        pairs = [(f"v{a}", f"v{b}") for a, b in references.prufer_tree(prufer)]
        es = edges(pairs)
        ends = [v for pair in pairs for v in pair]
        leaves = {v for v in ends if ends.count(v) == 1}
        internal = sorted(set(ends) - leaves)
        extra = data.draw(
            st.sets(st.sampled_from(internal), max_size=len(internal))
            if internal
            else st.just(set()),
            label="extra",
        )
        ring = tuple(data.draw(st.permutations(sorted(leaves | extra)), label="ring"))
        ok, counts = tree_is_disk_planar(es, ring)
        assert (ok, counts) == references.tree_is_disk_planar(es, ring)
        assert ok == brute_force_tree_embedding(es, ring)
        if len(ring) < 3:
            assert ok


class TestSeparation:
    def test_nested_families_ok(self, verdicts):
        dec = verdicts["G4"].decomposition
        ok, wit = separation_ok(dec)
        assert ok and wit is None

    def test_interleaved_families_rejected(self, graphs):
        from diskdiagram.conditions import check_A1
        from diskdiagram.graph import decompose

        g = graphs["interleaved"]
        _, gamma = check_A1(g)
        dec = decompose(g, gamma)
        ok, wit = separation_ok(dec)
        assert not ok
        m, n_, b1, b2 = wit
        assert m != n_
        assert b1 != b2

    def test_interleaving_across_the_start_of_gamma(self):
        # chords p0-p4 and p2-p6 interleave on the ring p0..p7, which gamma
        # reads from p3, so each chord's ring wraps past gamma's start;
        # chord p5-p7 interleaves p2-p6 too, and the pair first in tree
        # order is named
        from diskdiagram.graph import Cycle, build_graph, decompose

        ring = [f"p{i}" for i in range(8)]
        g = build_graph(
            ring,
            [(ring[k], ring[(k + 1) % 8]) for k in range(8)]
            + [("p0", "p4"), ("p2", "p6"), ("p5", "p7")],
            [],
        )
        names = ring[3:] + ring[:3]
        gamma = Cycle(
            tuple(names),
            tuple(
                next(e for e in g.edges if {e.a, e.b} == {u, names[(i + 1) % 8]})
                for i, u in enumerate(names)
            ),
        )
        dec = decompose(g, gamma)
        assert [sorted(t.attach) for t in dec.trees] == [["p0", "p4"], ["p2", "p6"], ["p5", "p7"]]
        assert separation_ok(dec) == (False, (0, 1, "p2", "p6"))
        assert separation_ok(dec) == references.separation_ok(dec)

    def test_s2_report_carries_separation_witness(self, verdicts):
        report = verdicts["interleaved"].reports[-1]
        assert report.condition == "S2"
        assert any("both sides" in w for w in report.witnesses)


class TestEmbedding:
    def _embed(self, verdicts, name):
        return build_embedding(verdicts[name].decomposition)

    def test_euler_relation(self, verdicts, delta_names):
        for name in delta_names:
            emb = self._embed(verdicts, name)
            g = emb.decomposition.graph
            assert len(g.vertices) - len(g.edges) + len(emb.faces) == 2

    def test_outer_face_is_boundary_cycle(self, verdicts, delta_names):
        for name in delta_names:
            emb = self._embed(verdicts, name)
            gamma = emb.decomposition.gamma
            assert emb.outer.is_outer
            assert sorted(u for u, _ in emb.outer.darts) == sorted(gamma.vertices)
            assert {e for _, e in emb.outer.darts} == set(gamma.edges)

    def test_every_dart_in_exactly_one_face(self, verdicts, delta_names):
        for name in delta_names:
            emb = self._embed(verdicts, name)
            g = emb.decomposition.graph
            darts = {(u, e) for e in g.edges for u in (e.a, e.b)}
            assert set(emb.dart_face) == darts
            by_face = [0] * len(emb.faces)
            for d, idx in emb.dart_face.items():
                by_face[idx] += 1
            assert [len(f.darts) for f in emb.faces] == by_face

    def test_face_arc_counts(self, verdicts):
        expected = {
            "G1": [1, 1],
            "G3": [1, 1, 1, 1],
            "G4": [1, 1, 2],
            "bare2": [2],
            "even_attach": [1, 1, 1],
            "hybrid": [1, 1, 1, 1, 2],
        }
        for name, want in expected.items():
            emb = self._embed(verdicts, name)
            assert sorted(face_arcs(emb)) == want, name

    def test_inner_faces_touch_boundary(self, verdicts, delta_names):
        for name in delta_names:
            emb = self._embed(verdicts, name)
            assert min(face_arcs(emb)) >= 1

    def test_rotation_covers_incidences(self, verdicts, delta_names):
        for name in delta_names:
            emb = self._embed(verdicts, name)
            g = emb.decomposition.graph
            for v in g.vertices:
                assert sorted(emb.rotation[v]) == sorted(g.incident[v])

    def test_interleaved_decomposition_not_embeddable(self, graphs):
        from diskdiagram.conditions import check_A1
        from diskdiagram.graph import decompose

        g = graphs["interleaved"]
        _, gamma = check_A1(g)
        with pytest.raises(NotPlanar, match="Euler relation fails: V=4 E=6 F=2"):
            build_embedding(decompose(g, gamma))

    def test_boundary_not_bounding_a_face_is_refused(self, verdicts, monkeypatch):
        """One reversed boundary dart moved into the inner face beside it
        keeps the face count, so only the outer-face check refuses."""
        dec = verdicts["G4"].decomposition
        gamma = dec.gamma
        dart = (gamma.vertices[1], gamma.edges[0])
        traced = planarity.trace_faces

        def moved(rotation, edges):
            walks, dart_face = traced(rotation, edges)
            walks = list(walks)
            outer, inner = dart_face[dart], dart_face[(gamma.vertices[0], gamma.edges[0])]
            walks[outer] = tuple(d for d in walks[outer] if d != dart)
            walks[inner] += (dart,)
            return walks, {**dart_face, dart: inner}

        monkeypatch.setattr(planarity, "trace_faces", moved)
        with pytest.raises(NotPlanar, match="the boundary cycle does not bound a face"):
            build_embedding(dec)

    def test_trace_faces_orbits_partition(self):
        es = edges([("a", "b"), ("b", "c"), ("c", "a")])
        rotation = {
            "a": tuple(sorted(e for e in es if e.touches("a"))),
            "b": tuple(sorted(e for e in es if e.touches("b"))),
            "c": tuple(sorted(e for e in es if e.touches("c"))),
        }
        walks, dart_face = trace_faces(rotation, es)
        assert sum(len(w) for w in walks) == 6
        assert len(dart_face) == 6


def transposed(ring):
    """The ring with each pair of neighbours swapped in turn."""
    return [ring[:i] + (ring[i + 1], ring[i]) + ring[i + 2 :] for i in range(len(ring) - 1)]


class TestAgainstReferences:
    """The ring-mask criterion and rotations equal the path-count criterion
    and the subtree-walk rotations they replaced."""

    @pytest.fixture(scope="class")
    def decompositions(self, verdicts, realized_corpus, ladder):
        """(label, decomposition, accepted) for fixtures, corpus, ladder d <= 3."""
        out = [(name, v.decomposition, v.delta) for name, v in sorted(verdicts.items())]
        out += [(f"{s.name} [{m}]", f.decomposition, True) for s, m, _, f in realized_corpus]
        for key, g in sorted(ladder.items()):
            v = is_delta_graph(g)
            out.append((f"ladder {key}", v.decomposition, v.delta))
        return [case for case in out if case[1] is not None]

    def test_tree_criterion(self, decompositions):
        checked = rejected = 0
        for label, dec, _ in decompositions:
            for t in dec.trees:
                ring = dec.rings[t.index]
                for r in [ring, *transposed(ring)]:
                    got = tree_is_disk_planar(t.edges, r)
                    assert got == references.tree_is_disk_planar(t.edges, r), (label, r)
                    checked += 1
                    rejected += not got[0]
        assert checked > 5000 and rejected > 100

    def test_rotations(self, decompositions):
        accepted = 0
        for label, dec, delta in decompositions:
            if delta:
                got = build_embedding(dec).rotation
                assert list(got.items()) == list(references.rotation(dec).items()), label
                accepted += 1
        assert accepted > 420
