import math
import re
from dataclasses import replace

import numpy as np
import pytest

import references
from diskdiagram import realization
from diskdiagram.conditions import is_delta_graph
from diskdiagram.errors import (
    DegenerateDrawing,
    EqualLevels,
    InvariantViolation,
    NotDeltaGraph,
    OutsideDisk,
)
from diskdiagram.families import build_instance, ladder_spec
from diskdiagram.fixtures import build
from diskdiagram.orders import (
    HeightAssignment,
    StrictPartialOrder,
    assign_heights,
    bits,
    induced_order,
)
from diskdiagram.planarity import build_embedding
from diskdiagram.realization import (
    SAMPLES_PER_BOUNDARY_EDGE,
    SNAP,
    _certify_drawing,
    _convex_fans,
    _fan_faults,
    assign_coords,
    extend_to_faces,
    level_set,
    level_sets,
    place,
    realize,
    sign_census,
)


def heights_for(verdicts, name, mode="default", seed=None):
    v = verdicts[name]
    return assign_heights(v.decomposition.graph, v.decomposition, mode=mode, seed=seed)


class TestHeights:
    def test_g1_default_values(self, verdicts):
        h = heights_for(verdicts, "G1")
        assert h.value == {"m": 0.0, "a": 1.0, "b": 1.0, "M": 2.0}

    def test_g3_strict_three_levels(self, verdicts):
        h = heights_for(verdicts, "G3", mode="strict")
        assert h.value["m1"] == h.value["m2"] == 0.0
        assert {h.value[v] for v in ("w1", "w2", "w3", "w4", "c")} == {1.0}
        assert h.value["M1"] == h.value["M2"] == 2.0

    def test_g3_default_splits_extremes(self, verdicts):
        h = heights_for(verdicts, "G3")
        assert len({h.value[v] for v in ("m1", "m2", "M1", "M2")}) == 4
        assert {h.value[v] for v in ("w1", "w2", "w3", "w4", "c")} == {
            h.value["c"]
        }

    def test_values_are_block_indices(self, verdicts, delta_names):
        for name in delta_names:
            h = heights_for(verdicts, name)
            assert sorted(set(h.value.values())) == [
                float(i) for i in range(len(h.blocks))
            ]

    def test_blocks_partition_vertices(self, verdicts, delta_names):
        for name in delta_names:
            h = heights_for(verdicts, name)
            seen = set()
            for i, b in enumerate(h.blocks):
                assert not (seen & b)
                seen |= b
                for v in b:
                    assert h.value[v] == i
            assert seen == set(verdicts[name].decomposition.graph.vertices)

    def test_monotone_on_input_order(self, verdicts, delta_names):
        for name in delta_names:
            g = verdicts[name].decomposition.graph
            for mode in ("default", "strict"):
                h = heights_for(verdicts, name, mode=mode)
                for u, v in g.order.pairs:
                    assert h.value[u] < h.value[v]

    def test_random_mode_deterministic_per_seed(self, verdicts):
        a = heights_for(verdicts, "G3", mode="random", seed=7)
        b = heights_for(verdicts, "G3", mode="random", seed=7)
        assert a.value == b.value

    def test_random_mode_varies_with_seed(self, verdicts):
        values = {
            tuple(sorted(heights_for(verdicts, "G3", mode="random", seed=s).value.items()))
            for s in range(8)
        }
        assert len(values) > 1

    def test_unknown_mode_rejected(self, verdicts):
        with pytest.raises(ValueError):
            heights_for(verdicts, "G1", mode="fancy")

    def test_strict_falls_back_when_congruence_fails(self, verdicts):
        from diskdiagram.orders import check_A4

        g = verdicts["hybrid"].decomposition.graph
        assert not check_A4(g.order).passed
        default = heights_for(verdicts, "hybrid")
        strict = heights_for(verdicts, "hybrid", mode="strict")
        assert strict.value == default.value

    def test_strict_merges_congruent_classes(self, verdicts):
        from diskdiagram.orders import check_A4

        g = verdicts["G3"].decomposition.graph
        assert check_A4(g.order).passed
        strict = heights_for(verdicts, "G3", mode="strict")
        assert len(strict.blocks) == 3


HEIGHT_MODES = (("default", None), ("strict", None), ("random", 7))


def assert_heights_match_peel(g, dec, label):
    """Heights from the generating pairs equal the closure peel's in every mode."""
    for mode, seed in HEIGHT_MODES:
        h = assign_heights(g, dec, mode=mode, seed=seed)
        ref = references.assign_heights(g, dec, mode=mode, seed=seed)
        assert (h.value, h.blocks) == (ref.value, ref.blocks), (label, mode)


def cover_pairs(order):
    """The pairs u < w with nothing strictly between them."""
    elements, above = order.elements, order.above
    out = []
    for v in elements:
        beyond = 0
        for i in bits(above[v]):
            beyond |= above[elements[i]]
        out += [(v, elements[i]) for i in bits(above[v] & ~beyond)]
    return out


class TestHeightsMatchClosurePeel:
    """`assign_heights` walks the generating pairs; `references.assign_heights`
    peels every (block, block above) pair of the closure."""

    def test_fixtures(self, verdicts, delta_names):
        for name in delta_names:
            dec = verdicts[name].decomposition
            assert_heights_match_peel(dec.graph, dec, name)

    def test_corpus_both_order_modes(self, realized_corpus):
        for spec, mode, g, f in realized_corpus:
            assert_heights_match_peel(g, f.decomposition, (spec.name, mode))

    def test_ladder_up_to_five(self, ladder):
        graphs = dict(ladder)
        for d in (4, 5):
            for mode in ("minimal", "saturated"):
                graphs[d, mode] = build_instance(ladder_spec(d), mode)
        for label, g in graphs.items():
            assert_heights_match_peel(g, is_delta_graph(g).decomposition, label)

    def test_census_accepted(self, census_accepted):
        for label, g in census_accepted:
            assert_heights_match_peel(g, is_delta_graph(g).decomposition, label)

    def test_cover_pairs_and_closure_pairs_agree(self, verdicts, delta_names, corpus, ladder):
        """One graph, its order generated once by its covers and once by
        every closure pair: the same heights and the same masks below."""
        graphs = [verdicts[name].decomposition.graph for name in delta_names]
        graphs += [g for _, _, g in corpus[::7]] + list(ladder.values())
        fewer = 0
        for g in graphs:
            dec = is_delta_graph(g).decomposition
            covers = StrictPartialOrder.from_pairs(g.vertices, cover_pairs(g.order))
            closure = StrictPartialOrder.from_pairs(g.vertices, sorted(g.order.pairs))
            assert covers == closure == g.order
            fewer += sum(map(len, covers.succ)) < sum(map(len, closure.succ))
            by_covers = replace(g, order=covers)
            by_closure = replace(g, order=closure)
            for mode, seed in HEIGHT_MODES:
                a = assign_heights(by_covers, dec, mode=mode, seed=seed)
                b = assign_heights(by_closure, dec, mode=mode, seed=seed)
                assert (a.value, a.blocks) == (b.value, b.blocks), mode
            assert covers.below == closure.below == references.below(g.order)
        assert fewer > len(graphs) // 2

    def test_generating_pair_inside_a_block(self, verdicts):
        dec = verdicts["G3"].decomposition
        order = StrictPartialOrder.from_pairs(dec.graph.vertices, [("w1", "w2")])
        message = "comparable vertices w1 < w2 fell into one level block$"
        with pytest.raises(InvariantViolation, match=message):
            assign_heights(replace(dec.graph, order=order), dec)

    def test_cycle_of_blocks(self, verdicts):
        """w1 < M1 < w2 is no cycle of the order, but one of G3's tree block
        and the singleton {M1}: both stay unplaced, and M1 is the smaller."""
        dec = verdicts["G3"].decomposition
        order = StrictPartialOrder.from_pairs(dec.graph.vertices, [("w1", "M1"), ("M1", "w2")])
        message = "level blocks form a cycle; vertex M1 is left unplaced$"
        with pytest.raises(InvariantViolation, match=message):
            assign_heights(replace(dec.graph, order=order), dec)

    def test_pairs_that_do_not_generate_the_order(self, verdicts):
        """The monotonicity check reads the closure: an order whose pairs
        leave out its relation gets heights by representative alone."""
        dec = verdicts["G3"].decomposition
        o = dec.graph.order
        order = StrictPartialOrder(o.elements, o.above, [[] for _ in o.elements])
        with pytest.raises(InvariantViolation, match="heights are not monotone on m2 < M1$"):
            assign_heights(replace(dec.graph, order=order), dec)


def pair_induced_order(heights):
    """Reference: every pair of vertices with increasing values, closed again."""
    vs = sorted(heights.value)
    pairs = {
        (u, v) for u in vs for v in vs if heights.value[u] < heights.value[v]
    }
    return StrictPartialOrder.from_pairs(frozenset(vs), frozenset(pairs))


class TestInducedOrder:
    def test_matches_pair_reference(self, verdicts, delta_names, realized_corpus):
        decs = [verdicts[name].decomposition for name in delta_names]
        decs += [f.decomposition for _, _, _, f in realized_corpus]
        for dec in decs:
            for mode in ("default", "strict"):
                h = assign_heights(dec.graph, dec, mode=mode)
                ind, ref = induced_order(h), pair_induced_order(h)
                assert ind == ref, (sorted(dec.graph.vertices)[:3], mode)
                assert hash(ind) == hash(ref)
                assert ind.pairs == ref.pairs


    def test_extends_input(self, verdicts, delta_names):
        for name in delta_names:
            g = verdicts[name].decomposition.graph
            for mode in ("default", "strict"):
                ind = induced_order(heights_for(verdicts, name, mode=mode))
                assert ind.extends(g.order), (name, mode)

    def test_strict_equality_matches_congruence(self, verdicts, delta_names):
        from diskdiagram.orders import check_A4

        for name in delta_names:
            g = verdicts[name].decomposition.graph
            ind = induced_order(heights_for(verdicts, name, mode="strict"))
            equal = ind.pairs == g.order.pairs
            assert equal == check_A4(g.order).passed, name


class TestCoords:
    def test_every_vertex_placed(self, realized):
        for name, f in realized.items():
            g = f.decomposition.graph
            coords = f.embedding.coords
            assert set(coords) == set(g.vertices)

    def test_boundary_on_circle_interior_inside(self, realized):
        for name, f in realized.items():
            coords = f.embedding.coords
            on_gamma = set(f.gamma.vertices)
            for v, (x, y) in coords.items():
                r = math.hypot(x, y)
                if v in on_gamma:
                    assert abs(r - 1.0) <= 1e-12, (name, v)
                else:
                    assert r < 1.0 - 1e-7, (name, v)

    def test_distinct_positions(self, realized):
        for name, f in realized.items():
            pts = list(f.embedding.coords.values())
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert math.dist(pts[i], pts[j]) > 1e-9

    def test_stacked_solves_equal_one_solve_per_tree(self, graphs, delta_names, corpus):
        """Trees with equal interior counts share one stacked solve, which
        places every interior vertex bit for bit as solving its tree's
        system alone does: fixtures, corpus and ladder d <= 4, both order
        modes."""
        inputs = [graphs[name] for name in delta_names] + [g for *_, g in corpus] + [
            build_instance(ladder_spec(d), mode)
            for d in (1, 2, 3, 4) for mode in ("minimal", "saturated")
        ]
        shared = 0
        for g in inputs:
            dec = is_delta_graph(g).decomposition
            coords = assign_coords(build_embedding(dec)).coords
            sizes = [len(t.vertices - t.attach) for t in dec.trees]
            shared += any(k and sizes.count(k) > 1 for k in sizes)
            for t in dec.trees:
                for v, p in references.solve_tree_positions(t, coords).items():
                    assert coords[v].tobytes() == p.tobytes(), (g.vertices[:3], v)
        assert shared >= 50


def moved_coords(f, moved):
    coords = {v: p.copy() for v, p in f.embedding.coords.items()}
    coords.update({v: np.array(p, dtype=float) for v, p in moved.items()})
    return coords


def drawing_valid(f, **moved):
    """The reference pair check on f's drawing with some vertices moved."""
    return references.coords_valid(f.decomposition, moved_coords(f, moved))


def certified(f, **moved):
    """`_certify_drawing` on f's drawing with some vertices moved."""
    return _certify_drawing(f.embedding, moved_coords(f, moved))


class TestDrawingCheck:
    """Every perturbation the reference pair check rejects, the face
    certificate rejects too.  The drawings the reference accepts here
    (a vertex 1e-3 from a chord, or at radius 0.99) are controls for the
    reference's thresholds only: moving one vertex that far leaves a
    reflex face corner, which the certificate rejects as well."""

    def test_realized_fixtures_valid(self, realized):
        for name, f in realized.items():
            assert drawing_valid(f), name
            assert certified(f), name

    def test_vertex_near_foreign_segment(self, realized):
        # hybrid: interior vertex u of one tree, chord a2-b2 of the other
        f = realized["hybrid"]
        c = f.embedding.coords
        a, b = c["a2"], c["b2"]
        mid = (a + b) / 2
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / math.dist(a, b)
        if normal @ (c["u"] - mid) < 0:
            normal = -normal
        assert drawing_valid(f, u=mid + 1e-3 * normal)
        assert not certified(f, u=mid + 1e-3 * normal)
        for dist in (1e-10, 1e-13):
            p = mid + dist * normal
            assert references.seg_point_dist(p, a, b) <= SNAP
            assert not drawing_valid(f, u=p), dist
            assert not certified(f, u=p), dist

    def test_vertex_near_own_segment(self, realized):
        # even_attach: the path tree a-c-b; a moves beside c-b, which it
        # does not end.  Its own edge a-c then leaves c along c-b, but
        # |cross| stays above 1e-12, so only the distance test rejects it.
        f = realized["even_attach"]
        c = f.embedding.coords
        o, b = c["c"], c["b"]
        mid = (o + b) / 2
        normal = np.array([o[1] - b[1], b[0] - o[0]]) / math.dist(o, b)
        assert drawing_valid(f, a=mid + 1e-3 * normal)
        assert not certified(f, a=mid + 1e-3 * normal)
        p = mid + 1e-10 * normal
        assert references.seg_point_dist(p, o, b) <= SNAP
        u1, u2 = p - o, b - o
        assert abs(u1[0] * u2[1] - u1[1] * u2[0]) > 1e-12
        assert not drawing_valid(f, a=p)
        assert not certified(f, a=p)

    def test_crossing_edges(self, realized):
        # G4's two chords a1-b1 and a2-b2 cross once b1 and b2 trade places
        c = realized["G4"].embedding.coords
        assert not drawing_valid(realized["G4"], b1=c["b2"], b2=c["b1"])
        assert not certified(realized["G4"], b1=c["b2"], b2=c["b1"])

    def test_collinear_edges_at_shared_vertex(self, realized):
        f = realized["even_attach"]
        c = f.embedding.coords
        assert not drawing_valid(f, b=c["c"] + 0.5 * (c["a"] - c["c"]))
        assert not certified(f, b=c["c"] + 0.5 * (c["a"] - c["c"]))

    def test_collinear_short_edges_at_shared_vertex(self, realized):
        # c-a and c-b leave c almost in one direction, |cross| = 5e-13, yet
        # a lies 2.5e-9 > SNAP from c-b: only the collinear test rejects it
        f = realized["even_attach"]
        o = f.embedding.coords["c"]
        d = -o / np.hypot(*o)
        n = np.array([-d[1], d[0]])
        a = o + 1e-4 * d
        b = o + 2e-4 * d + 5e-9 * n
        assert references.seg_point_dist(a, o, b) > SNAP
        assert not drawing_valid(f, a=a, b=b)
        assert not certified(f, a=a, b=b)

    def test_coincident_vertices(self, realized):
        f = realized["hybrid"]
        assert not drawing_valid(f, m1=f.embedding.coords["M1"])
        assert not certified(f, m1=f.embedding.coords["M1"])

    def test_interior_vertex_on_rim(self, realized):
        f = realized["hybrid"]
        c = f.embedding.coords
        gap = (c["d1"] + c["m1"]) / np.hypot(*(c["d1"] + c["m1"]))
        assert drawing_valid(f, u=0.99 * gap)
        assert not certified(f, u=0.99 * gap)
        assert not drawing_valid(f, u=gap)
        assert not certified(f, u=gap)

    def test_assign_coords_certifies_once_then_raises(self, verdicts, monkeypatch):
        tried = []

        def reject(emb, coords):
            tried.append(coords)
            return False

        monkeypatch.setattr(realization, "_certify_drawing", reject)
        with pytest.raises(DegenerateDrawing):
            assign_coords(build_embedding(verdicts["G3"].decomposition))
        assert len(tried) == 1


class TestCertificateMatchesPairCheck:
    """The face certificate accepts exactly the drawings the reference pair
    check accepts, and accepts the one drawing of every graph."""

    def check(self, graphs, monkeypatch):
        real = realization._certify_drawing
        calls = []

        def both(emb, coords):
            ok = real(emb, coords)
            assert ok == references.coords_valid(emb.decomposition, coords)
            calls.append(ok)
            return ok

        monkeypatch.setattr(realization, "_certify_drawing", both)
        for g in graphs:
            calls.clear()
            assign_coords(build_embedding(is_delta_graph(g).decomposition))
            assert calls == [True]

    def test_fixtures_and_corpus(self, graphs, delta_names, corpus, monkeypatch):
        cases = [graphs[name] for name in delta_names] + [g for _, _, g in corpus]
        self.check(cases, monkeypatch)

    def test_ladder(self, monkeypatch):
        cases = [
            build_instance(ladder_spec(d), mode)
            for d in (1, 2, 3, 4, 5)
            for mode in ("minimal", "saturated")
        ]
        self.check(cases + [build_instance(ladder_spec(6), "minimal")], monkeypatch)


class TestEvaluation:
    def test_vertex_values_exact(self, realized):
        for name, f in realized.items():
            for v, p in f.embedding.coords.items():
                assert f.evaluate(p) == f.heights.value[v], (name, v)

    def test_vertex_arrays_hold_the_vertices_alone(self, realized):
        """The vertex arrays hold V rows and are no views of a larger
        table, so a witness keeps no rim samples alive through them."""
        for name, f in realized.items():
            n_vertices = len(f.vertex_names)
            assert f.vertex_xy.shape == (n_vertices, 2), name
            assert f.vertex_values.shape == (n_vertices,), name
            assert f.vertex_xy.base is None and f.vertex_values.base is None, name

    def test_rim_interpolates_between_vertices(self, realized):
        f = realized["G1"]
        n = len(f.gamma.vertices)
        for i, v in enumerate(f.gamma.vertices):
            w = f.gamma.vertices[(i + 1) % n]
            th = math.pi / 2 + 2 * math.pi * (i + 0.5) / n
            p = (math.cos(th), math.sin(th))
            want = (f.heights.value[v] + f.heights.value[w]) / 2
            assert abs(f.evaluate(p) - want) <= 1e-9

    def test_tree_edge_snap(self, realized):
        f = realized["G3"]
        coords = f.embedding.coords
        tree = f.decomposition.trees[0]
        level = f.heights.level(tree)
        for e in tree.edges:
            (xa, ya), (xb, yb) = coords[e.a], coords[e.b]
            mid = ((xa + xb) / 2, (ya + yb) / 2)
            assert abs(f.evaluate(mid) - level) <= 1e-12

    def test_outside_disk_raises(self, realized):
        with pytest.raises(OutsideDisk):
            realized["G1"].evaluate((1.5, 0.0))

    def test_nan_point_raises_outside_disk(self, realized):
        f = realized["G1"]
        for p in ((math.nan, 0.0), (0.0, math.nan)):
            with pytest.raises(OutsideDisk) as info:
                f.evaluate(p)
            assert str(info.value.point) == str(p)
        with pytest.raises(OutsideDisk):
            f.evaluate_many([(0.1, 0.2), (math.nan, math.nan)])

    def test_points_of_wrong_shape_raise(self, realized):
        f = realized["G1"]
        for pts in ([(0.0, 0.0, 0.0)], [[[0.0, 0.0]]], [0.1, 0.2, 0.3]):
            shape = np.asarray(pts).shape
            with pytest.raises(ValueError, match=rf"shape \(N, 2\), got shape {re.escape(str(shape))}"):
                f.evaluate_many(pts)
            with pytest.raises(ValueError, match=r"shape \(N, 2\)"):
                f.evaluate_in_face(f.face_indices[0], pts)

    def test_evaluate_takes_one_point(self, realized):
        with pytest.raises(ValueError, match="evaluate_many"):
            realized["G1"].evaluate([(0.1, 0.2), (0.0, 0.5)])

    def test_values_stay_in_height_range(self, realized):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(400, 2))
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        for name, f in realized.items():
            vals = f.evaluate_many(pts)
            lo = min(f.heights.value.values())
            hi = max(f.heights.value.values())
            assert vals.min() >= lo - 1e-9, name
            assert vals.max() <= hi + 1e-9, name

    def test_continuity_across_tree_edge(self, realized):
        f = realized["G3"]
        emb = f.embedding
        tree = f.decomposition.trees[0]
        level = f.heights.level(tree)
        for e in tree.edges:
            fa = emb.dart_face[(e.a, e)]
            fb = emb.dart_face[(e.b, e)]
            assert fa != fb
            a = np.array(emb.coords[e.a])
            b = np.array(emb.coords[e.b])
            ts = np.linspace(0.05, 0.95, 20)[:, None]
            pts = a[None, :] * (1 - ts) + b[None, :] * ts
            va = f.evaluate_in_face(fa, pts)
            vb = f.evaluate_in_face(fb, pts)
            assert np.abs(va - vb).max() <= 1e-9
            assert np.abs(va - level).max() <= 1e-9

    def test_no_points(self, realized):
        f = realized["G1"]
        for pts in ([], np.zeros((0, 2)), [[]]):
            assert f.evaluate_many(pts).shape == (0,), pts
            assert f.evaluate_in_face(f.face_indices[0], pts).shape == (0,), pts

    def test_evaluate_in_face_names_a_face_that_is_not_inner(self, realized):
        f = realized["G3"]
        outer = next(face.index for face in f.embedding.faces if face.is_outer)
        for index in (outer, max(f.face_indices) + 1):
            with pytest.raises(ValueError, match=f"face {index} is not an inner face"):
                f.evaluate_in_face(index, [(0.0, 0.0)])

    def test_scalar_matches_vector(self, realized):
        f = realized["G4"]
        pts = [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.1)]
        many = f.evaluate_many(np.array(pts))
        for p, want in zip(pts, many):
            assert f.evaluate(p) == pytest.approx(want, abs=1e-12)

    def test_continuous_across_rim_chords(self, realized):
        # Each rim chord is a polygon edge.  A point 1e-12 inside it is on
        # its triangle; one 1e-8 outside is past every triangle's margin
        # and takes the sliver value, which must continue the chord's.
        k = SAMPLES_PER_BOUNDARY_EDGE
        for name in ("bare2", "G1"):
            f = realized[name]
            n = len(f.gamma.vertices)
            for s in range(n * k):
                th = [math.pi / 2 + 2 * math.pi * (s + t) / (n * k) for t in (0, 1)]
                a, b = (np.array([math.cos(x), math.sin(x)]) for x in th)
                for t in (0.1, 0.5, 0.9):
                    q = a + t * (b - a)
                    u = q / np.hypot(*q)
                    inside, outside = q - 1e-12 * u, q + 1e-8 * u
                    assert np.isnan(f._in_triangles(outside[None], slice(None)))[0]
                    vals = f.evaluate_many(np.array([inside, outside]))
                    assert abs(vals[0] - vals[1]) <= 1e-9, (name, s, t)
                # on the circle: linear along the boundary edge in angle
                rim = np.array([[math.cos(x), math.sin(x)] for x in np.linspace(*th, 5)])
                i, j = divmod(s, k)
                h0, h1 = (f.heights.value[f.gamma.vertices[m % n]] for m in (i, i + 1))
                t = (j + np.linspace(0, 1, 5)) / k
                assert f.evaluate_many(rim) == pytest.approx((1 - t) * h0 + t * h1, abs=1e-12)


class TestBoundaryExtrema:
    def test_g1(self, realized):
        assert sorted(realized["G1"].boundary_extrema()) == [
            ("M", "max"),
            ("m", "min"),
        ]

    def test_bare2(self, realized):
        assert sorted(realized["bare2"].boundary_extrema()) == [
            ("x", "min"),
            ("y", "max"),
        ]

    def test_even_attach_has_interior_boundary_minimum(self, realized):
        extrema = dict(realized["even_attach"].boundary_extrema())
        assert extrema["c"] == "min"
        assert extrema["m"] == "min"
        assert extrema["M1"] == extrema["M2"] == "max"

    def test_count_always_even(self, realized):
        for name, f in realized.items():
            assert len(f.boundary_extrema()) % 2 == 0, name

    def test_exactly_even_degree_vertices(self, realized):
        for name, f in realized.items():
            g = f.decomposition.graph
            extremal = {v for v, _ in f.boundary_extrema()}
            even = {v for v in f.gamma.vertices if g.degree(v) % 2 == 0}
            assert extremal == even, name


class TestRealizePipeline:
    def test_rejection_carries_condition(self, graphs):
        with pytest.raises(NotDeltaGraph) as info:
            realize(graphs["interleaved"])
        assert info.value.condition == "S2"
        assert info.value.witnesses

    def test_rejection_at_a1(self, graphs):
        with pytest.raises(NotDeltaGraph) as info:
            realize(graphs["g1_missing"])
        assert info.value.condition == "A1"

    def test_equal_levels_detected(self, verdicts):
        from diskdiagram.planarity import build_embedding

        v = verdicts["G4"]
        emb = assign_coords(build_embedding(v.decomposition))
        value = {"m": 0.0, "a1": 1.0, "b1": 1.0, "a2": 1.0, "b2": 1.0, "M": 2.0}
        blocks = (
            frozenset({"m"}),
            frozenset({"a1", "b1", "a2", "b2"}),
            frozenset({"M"}),
        )
        fake = HeightAssignment(value, blocks)
        with pytest.raises(EqualLevels):
            extend_to_faces(emb, fake)

    def test_random_mode_realizes(self, graphs):
        f = realize(graphs["G3"], mode="random", seed=11)
        g = graphs["G3"]
        for u, v in g.order.pairs:
            assert f.heights.value[u] < f.heights.value[v]


class TestLevelSet:
    def test_tree_level_is_exact(self, realized):
        f = realized["G3"]
        level = f.heights.level(f.decomposition.trees[0])
        polylines = level_set(f, level)
        coords = f.embedding.coords
        pts = {tuple(np.round(p, 9)) for line in polylines for p in line}
        for v in f.decomposition.trees[0].vertices:
            assert tuple(np.round(coords[v], 9)) in pts
        assert len(polylines) == 2

    def test_generic_level_stays_in_disk(self, realized):
        for name, f in realized.items():
            lo = min(f.heights.value.values())
            hi = max(f.heights.value.values())
            c = lo + (hi - lo) * 0.37
            polylines = level_set(f, c)
            assert polylines, name
            for line in polylines:
                for p in line:
                    assert math.hypot(*p) <= 1.0 + 1e-9, name

    def test_out_of_range_level_empty(self, realized):
        assert level_set(realized["G1"], 99.0) == []

    def test_polylines_are_chains(self, realized):
        f = realized["G1"]
        c = 0.5
        for line in level_set(f, c):
            assert len(line) >= 2
            for a, b in zip(line, line[1:]):
                assert math.dist(a, b) > 0


def corpus_slice(corpus):
    """Every 20th corpus shape, both of its order modes."""
    chosen = [inst for k in range(0, len(corpus), 20) for inst in corpus[k:k + 2]]
    assert {mode for _, mode, _ in chosen} == {"minimal", "saturated"}
    return chosen


def gap_levels(f):
    """Levels at 0.37 and 0.5 of every gap between distinct heights."""
    values = sorted(set(f.heights.value.values()))
    return [a + s * (b - a) for a, b in zip(values, values[1:]) for s in (0.37, 0.5)]


class TestLevelSetTopology:
    """Between heights, {f = c} is a set of arcs from rim to rim.

    The witness has no interior extrema, so each level curve at a level
    no vertex has runs from one rim crossing to another: there are half
    as many curves as boundary edges whose ends lie on opposite sides of
    c, and every curve ends within a rim-sample chord of the circle.
    With no tree at such a level, the curves come sorted by first point.
    """

    def check(self, f, label):
        gamma = f.gamma.vertices
        n = len(gamma)
        h = f.heights.value
        rim = math.cos(math.pi / (SAMPLES_PER_BOUNDARY_EDGE * n))
        for c in gap_levels(f):
            changes = sum(
                (h[gamma[i]] > c) != (h[gamma[(i + 1) % n]] > c) for i in range(n)
            )
            polylines = level_set(f, c)
            assert len(polylines) == changes // 2, (label, c)
            firsts = [line[0] for line in polylines]
            assert firsts == sorted(firsts), (label, c)
            for line in polylines:
                for end in (line[0], line[-1]):
                    assert math.hypot(*end) >= rim, (label, c, end)

    def test_fixtures(self, realized):
        for name, f in realized.items():
            self.check(f, name)

    def test_corpus_slice_both_order_modes(self, corpus):
        for spec, mode, g in corpus_slice(corpus):
            self.check(realize(g), (spec, mode))


def reference_segments(f, c):
    """{f = c} cut triangle by triangle in plain Python, as endpoint pairs.

    The same rules as `level_set`: a vertex at exactly c counts as
    below, a crossed edge (i, j), i < j, is interpolated from i (or taken
    exactly at an end whose value is c), zero-length segments and
    segments along a tree edge are dropped, and the trees at level c are
    added edge by edge.
    """
    coords = f.embedding.coords
    tree_edges = set()
    out = set()
    for t in f.decomposition.trees:
        for e in t.edges:
            ends = frozenset({tuple(coords[e.a].tolist()), tuple(coords[e.b].tolist())})
            tree_edges.add(ends)
            if abs(f.heights.level(t) - c) <= SNAP:
                out.add(ends)
    for fm in f.face_maps:
        p = fm.points.tolist()
        v = fm.values.tolist()
        for tri in fm.triangles.tolist():
            above = [v[i] > c for i in tri]
            if all(above) or not any(above):
                continue
            cut = []
            for i, j in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                if (v[i] > c) == (v[j] > c):
                    continue
                i, j = min(i, j), max(i, j)
                if v[i] == c:
                    cut.append(tuple(p[i]))
                elif v[j] == c:
                    cut.append(tuple(p[j]))
                else:
                    s = (c - v[i]) / (v[j] - v[i])
                    (xi, yi), (xj, yj) = p[i], p[j]
                    cut.append((xi + s * (xj - xi), yi + s * (yj - yi)))
            a, b = cut
            if a != b and frozenset({a, b}) not in tree_edges:
                out.add(frozenset({a, b}))
    return out


def oracle_levels(f):
    """Every vertex height, every midpoint between heights, one level above."""
    values = sorted(set(f.heights.value.values()))
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return values + mids + [values[-1] + 1.0]


class TestLevelSetSegments:
    """level_set is the per-triangle cut, and every point is on the level."""

    def witnesses(self, realized, corpus):
        yield from realized.items()
        for k, (spec, mode, g) in enumerate(corpus_slice(corpus)):
            if k % 3 == 0:
                yield (spec, mode), realize(g)

    def test_matches_per_triangle_reference(self, realized, corpus):
        for label, f in self.witnesses(realized, corpus):
            for c in oracle_levels(f):
                got = {
                    frozenset({tuple(a), tuple(b)})
                    for line in level_set(f, c)
                    for a, b in zip(line, line[1:])
                }
                assert got == reference_segments(f, c), (label, c)

    def test_points_lie_on_the_level(self, realized, corpus):
        for label, f in self.witnesses(realized, corpus):
            for c in oracle_levels(f):
                pts = [p for line in level_set(f, c) for p in line]
                if pts:
                    err = np.abs(f.evaluate_many(np.array(pts)) - c).max()
                    assert err <= 1e-9, (label, c, err)


def drawn_differently(f, mutant):
    """True when the mutant's values at the centroids of the triangles of f
    it changes differ from f's by more than rounding, or its level sets at
    f's oracle levels differ from f's."""
    changed = (f.triangles != mutant.triangles).any(axis=1)
    changed |= np.isin(f.triangles, np.flatnonzero(f.values != mutant.values)).any(axis=1)
    centroids = f.points[f.triangles[changed]].mean(axis=1)
    if np.abs(f.evaluate_many(centroids) - mutant.evaluate_many(centroids)).max() > 1e-9:
        return True
    cs = oracle_levels(f)
    return level_sets(f, cs) != level_sets(mutant, cs)


def face_rows(f, face_index):
    """The rows of face ``face_index``'s points in f's stacked arrays."""
    j = f.face_indices.index(face_index)
    lo = sum(f.face_sizes[:j])
    return slice(lo, lo + f.face_sizes[j])


def point_keys(f):
    """Per stacked point: the vertex that `point_ids` names there, else None."""
    names = f.vertex_names
    return [names[i] if i < len(names) else None for i in f.point_ids.tolist()]


class TestLevelSets:
    def test_every_level_at_once_equals_one_at_a_time(self, verdicts, delta_names, corpus, ladder):
        """On the fixtures and a corpus slice in every height mode, and on
        ladder d <= 3, at the oracle levels and at every face's apex value
        and the value of the rim sample after it: there fan rows shrink to
        a point, and a face's first crossed row may be dropped.  This pins
        the faces each level cuts, and each curve's order and direction,
        to the reference."""
        accepted = [verdicts[name] for name in delta_names]
        accepted += [is_delta_graph(g) for _, _, g in corpus_slice(corpus)]
        witnesses = [f for v in accepted for _, f in mode_witnesses(v)]
        witnesses += [realize(g) for g in ladder.values()]
        for f in witnesses:
            firsts = np.cumsum(f.face_sizes) - np.array(f.face_sizes)
            cs = oracle_levels(f) + sorted(set(f.values[np.r_[firsts + 1, firsts + 2]].tolist()))
            for c, polylines in zip(cs, level_sets(f, cs)):
                assert level_set(f, c) == polylines, c
                assert polylines == references.level_set(f, c), c

    def test_no_levels(self, realized):
        assert level_sets(realized["G1"], []) == []

    def test_one_level_is_not_a_sequence(self, realized):
        with pytest.raises(TypeError, match="level_sets takes a sequence of levels; level_set"):
            level_sets(realized["G3"], 0.5)
        assert level_set(realized["G3"], 0.5) == level_sets(realized["G3"], [0.5])[0]


def shoelace(p):
    x, y = p[..., 0], p[..., 1]
    return 0.5 * (x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y).sum(axis=-1)


class TestRimTable:
    def test_one_read_only_table_per_size_at_todays_bits(self):
        """The table of n boundary vertices is kept, cannot be written,
        and equals the per-call computation bit for bit, its rows [::k]
        too, which place the boundary vertices."""
        k = SAMPLES_PER_BOUNDARY_EDGE
        for n in [*range(2, 41), 39368]:
            table = realization._rim_points(n)
            assert realization._rim_points(n) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 2.0
            assert table.tobytes() == references.rim_points(n, k).tobytes(), n
            assert table[::k].tobytes() == references.rim_points(n, 1).tobytes(), n


class TestFaceFans:
    def test_face_triangles_tile_their_polygons(self, realized, realized_corpus):
        witnesses = list(realized.values()) + [f for *_, f in realized_corpus]
        for f in witnesses:
            for fm in f.face_maps:
                areas = shoelace(fm.points[fm.triangles])
                assert areas.min() > 1e-14, fm.face_index
                assert abs(areas.sum() - shoelace(fm.points)) <= 1e-12

    def test_audit_flags_a_wrong_triangulation(self, graphs, realized, check_instance):
        """The first face's triangles turned clockwise, or its first fan
        triangle (1, 2, 3) widened to (1, 2, 4) over its second."""
        g, f = graphs["G3"], realized["G3"]
        assert check_instance(g, f) == []
        first = slice(0, f.face_sizes[0] - 2)
        flipped, widened = f.triangles.copy(), f.triangles.copy()
        flipped[first] = flipped[first, ::-1]
        widened[0, 2] = widened[1, 2]
        for triangles, problem in (
            (flipped, " has a triangle without positive area"),
            (widened, ": triangle areas do not sum to its polygon's"),
        ):
            mutant = replace(f, triangles=triangles)
            assert check_instance(g, mutant) == [f"face {f.face_indices[0]}{problem}"]
            assert drawn_differently(f, mutant)

    def test_audit_flags_the_last_point_fan(self, corpus, check_instance):
        """The fan from each face's last point, which the witness used to
        have, is flat on a triangle of chord2[e,d6(e,e,e,e,e)] (minimal
        order) and draws a chord beside a tree at that triangle's level."""
        g = next(g for spec, mode, g in corpus
                 if spec.name == "chord2[e,d6(e,e,e,e,e)]" and mode == "minimal")
        f = realize(g)
        assert check_instance(g, f) == []
        rows = []
        for lo, m in zip(np.cumsum(f.face_sizes) - f.face_sizes, f.face_sizes):
            rows += [(lo + m - 1, lo + k, lo + k + 1) for k in range(m - 3)]
            rows.append((lo + m - 3, lo + m - 2, lo + m - 1))
        problems = check_instance(g, replace(f, triangles=np.array(rows)))
        assert "face 5 has a triangle with three equal values" in problems
        assert ("face 5: a triangle edge at a tree level joins two vertices "
                "that no tree edge joins") in problems

    def test_fan_rows_from_the_first_rim_sample(self):
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        hexagon = np.array([(math.cos(a), math.sin(a)) for a in np.arange(6) * math.pi / 3])
        rows = _convex_fans(np.concatenate([square, hexagon]), [4, 6], [0, 1])
        assert rows.tolist() == [[1, 2, 3], [1, 3, 0], [5, 6, 7], [5, 7, 8], [5, 8, 9], [5, 9, 4]]

    def test_reflex_vertex_raises(self):
        pts = np.array([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)], dtype=float)
        with pytest.raises(DegenerateDrawing, match="face 7 is not strictly convex"):
            _convex_fans(pts, [5], [7])

    def test_collinear_path_point_raises(self):
        # a straight tree path 1-2-3 under an apex 0: no turn at 2
        pts = np.array([(0, 1), (-1, 0), (0, 0), (1, 0)], dtype=float)
        with pytest.raises(DegenerateDrawing, match="face 3 is not strictly convex"):
            _convex_fans(pts, [4], [3])

    def test_polygon_winding_twice_raises(self):
        """Left turns and positive fan triangles, but two turns around.

        The curve r = 1.5 + cos(t / 2), t in [0, 4 pi), seen from its
        innermost point, which closes the polygon.
        """
        t = np.arange(40) * math.pi / 10
        r = 1.5 + np.cos(t / 2)
        pts = np.roll(np.stack([r * np.cos(t), r * np.sin(t)], axis=1), -21, axis=0)
        turns = shoelace(np.stack([np.roll(pts, 1, axis=0), pts, np.roll(pts, -1, axis=0)], 1))
        fans = shoelace(np.stack([pts[[-1] * 38], pts[:-2], pts[1:-1]], axis=1))
        assert turns.min() > 1e-3 and fans.min() > 1e-3
        with pytest.raises(DegenerateDrawing, match="face 0 is not strictly convex"):
            _convex_fans(pts, [40], [0])

    @staticmethod
    def random_polygons(rng, count):
        """Seeded polygons of 3 to 40 points: convex ones in either turning
        direction, with a reflex point, with a collinear run, winding
        twice, with its first point doubled, and triangles."""
        kinds = ["convex", "clockwise", "reflex", "collinear", "twice", "doubled", "triangle"]
        out = []
        for _ in range(count):
            kind = rng.choice(kinds)
            m = 3 if kind == "triangle" else int(rng.integers(4, 41))
            if kind == "twice":
                t = np.arange(m) * 4 * math.pi / m
                r = 1.5 + np.cos(t / 2)
            else:
                # a triangle's corners in random order, so of either turn
                t = rng.uniform(0, 2 * math.pi, m)
                t = t if kind == "triangle" else np.sort(t)
                r = rng.uniform(0.5, 2.0) * np.ones(m)
            pts = np.stack([r * np.cos(t), 0.7 * r * np.sin(t)], axis=1) + rng.normal(size=2)
            if kind == "clockwise":
                pts = pts[::-1]
            elif kind == "reflex":
                pts[m // 2] *= 0.2
            elif kind == "collinear":
                i = int(rng.integers(0, m - 2))
                pts[i + 1] = (pts[i] + pts[i + 2]) / 2
            if kind == "doubled":  # an edge of length 0, from point 0 to point 1
                out.append(np.concatenate([pts[:1], pts]))
            else:
                out.append(np.roll(pts, int(rng.integers(0, m)), axis=0))
        return out

    def test_stacks_match_the_per_polygon_reference(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(40):
            polys = self.random_polygons(rng, int(rng.integers(1, 12)))
            points, sizes = np.concatenate(polys), [len(p) for p in polys]
            rows, bad, rings = _fan_faults(points, sizes)
            want_rows, want_bad, want_rings = references.fan_faults(points, sizes)
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(bad, want_bad)
            assert all(np.array_equal(a, b) for a, b in zip(rings, want_rings))
            seen.update(bad.tolist())
        assert seen == {True, False}

    def test_witnesses_match_the_per_polygon_reference(self, realized, realized_corpus):
        for f in list(realized.values()) + [f for *_, f in realized_corpus]:
            rows, bad, rings = _fan_faults(f.points, f.face_sizes)
            want_rows, want_bad, want_rings = references.fan_faults(f.points, f.face_sizes)
            assert np.array_equal(rows, want_rows) and np.array_equal(rows, f.triangles)
            assert np.array_equal(bad, want_bad) and not bad.any()
            assert all(np.array_equal(a, b) for a, b in zip(rings, want_rings))

    def test_first_bad_face_is_named(self):
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        with pytest.raises(DegenerateDrawing, match="face 5 is not"):
            _convex_fans(np.concatenate([square, square[::-1], square[::-1]]), [4, 4, 4], [4, 5, 6])

    def test_flat_tree_corner_raises(self, realized):
        """An interior tree vertex moved onto the segment between two
        neighbours flattens the face corner between those edges."""
        f = realized["G3"]
        emb = f.embedding
        e1, e2 = emb.rotation["c"][:2]
        coords = dict(emb.coords)
        coords["c"] = (coords[e1.other("c")] + coords[e2.other("c")]) / 2
        with pytest.raises(DegenerateDrawing, match="not strictly convex"):
            extend_to_faces(replace(emb, coords=coords), f.heights)


def mode_witnesses(verdict):
    """Witnesses of one accepted verdict in default, strict and random (seed 7) mode."""
    for mode, seed in (("default", None), ("strict", None), ("random", 7)):
        yield mode, extend_to_faces(*place(verdict, mode, seed))


class TestFaceMapsMatchReference:
    """One pass gives the polygons point by point, and triangles that tile
    them, are flat nowhere and draw no chord beside a tree."""

    def check(self, f, label, triangle_problems):
        faces = [face for face in f.embedding.faces if not face.is_outer]
        assert [fm.face_index for fm in f.face_maps] == [face.index for face in faces]
        point_key = point_keys(f)
        for fm, face in zip(f.face_maps, faces):
            pts, vals, keys = references.face_polygon(face.runs, f.embedding, f.heights)
            assert np.array_equal(fm.points, pts), (label, face.index)
            assert np.array_equal(fm.values, vals), (label, face.index)
            assert tuple(point_key[face_rows(f, face.index)]) == keys, (label, face.index)
        assert triangle_problems(f) == [], label

    def test_fixtures_every_mode(self, verdicts, delta_names, triangle_problems):
        for name in delta_names:
            for mode, f in mode_witnesses(verdicts[name]):
                self.check(f, (name, mode), triangle_problems)

    def test_corpus_every_mode(self, corpus, triangle_problems):
        for spec, order_mode, g in corpus:
            for mode, f in mode_witnesses(is_delta_graph(g)):
                self.check(f, (spec, order_mode, mode), triangle_problems)

    def test_ladder(self, ladder, triangle_problems):
        for label, g in ladder.items():
            self.check(realize(g), label, triangle_problems)

    def test_census_accepted(self, census_accepted, triangle_problems):
        for label, g in census_accepted:
            self.check(realize(g), label, triangle_problems)


class TestStitch:
    def test_tree_walk_matches_reference(self, verdicts, delta_names, corpus, monkeypatch):
        """Every tree walk on every oracle level, in every height mode,
        mapped through the drawn vertex positions, gives the reference's
        polylines on the same edges, keyed by vertex row, in order and
        direction."""
        calls = []
        stitch = realization._stitch

        def both(edges, xy):
            out = stitch(edges, xy)
            assert all(type(a) is int and type(b) is int for a, b in edges)
            pts = [tuple(p) for p in xy]
            drawn = [[pts[v] for v in walk] for walk in out]
            assert drawn == references.stitch([(a, b, pts[a], pts[b]) for a, b in edges])
            calls.append(len(edges))
            return out

        monkeypatch.setattr(realization, "_stitch", both)
        accepted = [verdicts[name] for name in delta_names]
        accepted += [is_delta_graph(g) for _, _, g in corpus_slice(corpus)]
        for f in (f for v in accepted for _, f in mode_witnesses(v)):
            for c in oracle_levels(f):
                level_set(f, c)
        assert sum(n > 1 for n in calls) > 100


class TestSignCensus:
    def test_fixtures_pass(self, realized):
        for name, f in realized.items():
            result = sign_census(f)
            assert result.passed, (name, result.witnesses)

    def test_interior_vertex_alternates(self, realized):
        signs = sign_census(realized["G3"]).corner_signs["c"]
        assert len(signs) == 4
        assert signs in ((1, -1, 1, -1), (-1, 1, -1, 1))

    def test_attach_chain_ends(self, realized):
        f = realized["even_attach"]
        signs = sign_census(f).corner_signs["c"]
        assert len(signs) == 3
        assert signs[0] == signs[-1]
        assert signs[0] != signs[1]

    def test_odd_attach_opposite_ends(self, realized):
        signs = sign_census(realized["G3"]).corner_signs["w1"]
        assert len(signs) == 2
        assert signs[0] != signs[1]

    def test_values_pushed_across_a_level_fail(self, realized, realized_corpus):
        """Mirror one off-level value of a face across a tree's level.

        The face then holds drawn values on both sides of that level, so
        it carries no sign there and the census must fail.  Every (face,
        tree) side of the fixtures is mutated, and one per corpus witness.
        """
        mutants = 0
        cases = [(f, True) for f in realized.values()]
        cases += [(f, False) for *_, f in realized_corpus]
        for f, every_side in cases:
            sides = touched_sides(f)
            for face_index, tree in sides if every_side else sides[:1]:
                level = f.heights.level(tree)
                rows = face_rows(f, face_index)
                values = f.values.copy()
                k = rows.start + np.flatnonzero(values[rows] != level)[0]
                values[k] = 2 * level - values[k]
                mutant = replace(f, values=values)
                assert drawn_differently(f, mutant)
                result = sign_census(mutant)
                assert not result.passed, (face_index, tree.index)
                assert any(
                    w.startswith(f"face {face_index} at vertex")
                    and w.endswith(f"no sign for tree {tree.index}")
                    for w in result.witnesses
                ), result.witnesses
                mutants += 1
        assert mutants > len(cases)

    def test_signs_equal_former_level_rule(self, realized, realized_corpus):
        witnesses = list(realized.values()) + [f for *_, f in realized_corpus]
        for f in witnesses:
            emb = f.embedding
            expected = former_face_signs(f)
            corner_signs = sign_census(f).corner_signs
            for t in f.decomposition.trees:
                for v in t.vertices:
                    rot = emb.rotation[v]
                    corners = rot[:-1] if v in t.attach else rot
                    assert corner_signs[v] == tuple(
                        expected[(emb.dart_face[(v, e)], t.index)] for e in corners
                    ), v


def touched_sides(f):
    """(face index, tree) for every tree vertex drawn on a face's polygon."""
    dec = f.decomposition
    keys = point_keys(f)
    sides = {}
    for face_index in f.face_indices:
        for key in keys[face_rows(f, face_index)]:
            tree = None if key is None else dec.tree_at.get(key)
            if tree is not None:
                sides[(face_index, tree.index)] = tree
    return [(face_index, tree) for (face_index, _), tree in sides.items()]


def former_face_signs(f):
    """(face index, tree index) -> sign, by the rule the census used to read.

    A face has two defining levels: a one-arc face its tree path's level
    and its extremum's, a two-arc face the levels where its two arcs
    start.  Its sign at a tree on its boundary is +1 when the other
    defining level lies above the tree's, else -1.
    """
    value = f.heights.value
    signs = {}
    for face in f.embedding.faces:
        if face.is_outer:
            continue
        arcs = [darts for kind, darts in face.runs if kind == "arc"]
        (u, e), *_ = arcs[0]
        if len(arcs) == 1:
            levels = (value[u], value[e.other(u)])
        else:
            levels = (value[u], value[arcs[1][0][0]])
        for kind, path in face.runs:
            if kind == "path":
                own = value[path[0][0]]
                other = levels[1] if own == levels[0] else levels[0]
                tree = f.decomposition.tree_at.get(path[0][0])
                signs[(face.index, tree.index)] = 1 if other > own else -1
    return signs


class TestPointKeys:
    def test_vertex_keys_sit_at_their_vertices(self, realized, realized_corpus):
        """A point whose id names a vertex lies exactly at that vertex, and
        every point drawn exactly at a vertex carries its id."""
        witnesses = list(realized.values()) + [f for *_, f in realized_corpus]
        for f in witnesses:
            names = sorted(f.embedding.coords)
            assert f.vertex_names == tuple(names)
            at = {tuple(p): v for v, p in f.embedding.coords.items()}
            ids = f.point_ids.tolist()
            named = 0
            for i, key in enumerate(ids):
                point = tuple(f.points[i])
                if key < len(names):
                    assert point == tuple(f.embedding.coords[names[key]]), key
                    named += 1
                else:
                    assert key == len(names) + i and point not in at, (i, point)
            assert named >= len(names)
