import math

import numpy as np
import pytest

from diskdiagram.errors import EqualLevels, NotDeltaGraph, OutsideDisk
from diskdiagram.fixtures import build
from diskdiagram.realization import (
    SNAP,
    HeightAssignment,
    _cell_segments,
    _seg_point_dist,
    assign_coords,
    assign_heights,
    extend_to_faces,
    induced_order,
    level_set,
    realize,
    sign_census,
)
from diskdiagram.svg import render_svg


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
                    assert h.block_of[v] == i
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


class TestInducedOrder:
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


class TestEvaluation:
    def test_vertex_values_exact(self, realized):
        for name, f in realized.items():
            for v, p in f.embedding.coords.items():
                assert f.evaluate(p) == f.heights.value[v], (name, v)

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

    def test_clip_projects_to_rim(self, realized):
        f = realized["G1"]
        far = np.array([[2.0, 0.0]])
        rim = np.array([[1.0, 0.0]])
        assert f.evaluate_many(far, clip=True)[0] == pytest.approx(
            f.evaluate_many(rim)[0], abs=1e-12
        )

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

    def test_scalar_matches_vector(self, realized):
        f = realized["G4"]
        pts = [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.1)]
        many = f.evaluate_many(np.array(pts))
        for p, want in zip(pts, many):
            assert f.evaluate(p) == pytest.approx(want, abs=1e-12)


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

    def test_tree_levels_report(self, realized):
        f = realized["G3"]
        assert f.tree_levels() == {0: f.heights.level(f.decomposition.trees[0])}

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
        block_of = {v_: i for i, b in enumerate(blocks) for v_ in b}
        fake = HeightAssignment(value, blocks, block_of, "default")
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
            polylines = level_set(f, c, resolution=48)
            assert polylines, name
            for line in polylines:
                for p in line:
                    assert math.hypot(*p) <= 1.0 + 1e-9, name

    def test_out_of_range_level_empty(self, realized):
        assert level_set(realized["G1"], 99.0, resolution=32) == []

    def test_polylines_are_chains(self, realized):
        f = realized["G1"]
        c = 0.5
        for line in level_set(f, c, resolution=48):
            assert len(line) >= 2
            for a, b in zip(line, line[1:]):
                assert math.dist(a, b) > 0


def fresh_grid(f, resolution):
    """The contour grid evaluated directly, bypassing the memo."""
    xs = np.linspace(-1.02, 1.02, resolution + 1)
    gx, gy = np.meshgrid(xs, xs)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    return xs, f.evaluate_many(grid, clip=True).reshape(gx.shape)


def reference_stitch(segments):
    """Segment stitching that recomputes every endpoint key it compares."""

    def key(p):
        return (round(p[0], 7), round(p[1], 7))

    polylines = []
    used = [False] * len(segments)
    by_end = {}
    for i, (a, b) in enumerate(segments):
        by_end.setdefault(key(a), []).append(i)
        by_end.setdefault(key(b), []).append(i)
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for head, append in ((chain[-1], True), (chain[0], False)):
            cur = head
            while True:
                cands = [i for i in by_end.get(key(cur), []) if not used[i]]
                if not cands:
                    break
                i = cands[0]
                used[i] = True
                pa, pb = segments[i]
                nxt = pb if key(pa) == key(cur) else pa
                if append:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
                cur = nxt
        polylines.append(chain)
    polylines.sort(key=lambda ch: (round(ch[0][0], 7), round(ch[0][1], 7)))
    return polylines


def reference_level_set(f, c, xs, grid):
    """Marching squares over every cell of a fresh grid (see fresh_grid)."""
    resolution = len(xs) - 1
    polylines = []
    coords = f.embedding.coords
    exact = []
    for t in f.decomposition.trees:
        if abs(f.heights.level(t) - c) <= SNAP:
            segs = [
                (tuple(coords[e.a]), tuple(coords[e.b])) for e in sorted(t.edges)
            ]
            exact.extend((np.array(a), np.array(b)) for a, b in segs)
            polylines.extend(reference_stitch(segs))
    vals = grid - c
    segments = []
    for i in range(resolution):
        for j in range(resolution):
            segs = _cell_segments(
                xs[j], xs[j + 1], xs[i], xs[i + 1],
                vals[i, j], vals[i, j + 1], vals[i + 1, j + 1], vals[i + 1, j],
            )
            for a, b in segs:
                ra, rb = math.hypot(*a), math.hypot(*b)
                if ra > 1 and rb > 1:
                    continue
                if ra > 1:
                    a = (a[0] / ra, a[1] / ra)
                if rb > 1:
                    b = (b[0] / rb, b[1] / rb)
                if math.hypot(a[0] - b[0], a[1] - b[1]) <= 1e-12:
                    continue
                if exact:
                    mid = np.array([(a[0] + b[0]) / 2, (a[1] + b[1]) / 2])
                    cell = 2.04 / resolution * 1.5
                    if any(_seg_point_dist(mid, sa, sb) <= cell for sa, sb in exact):
                        continue
                segments.append((a, b))
    polylines.extend(reference_stitch(segments))
    return polylines


def oracle_levels(f):
    """Every vertex height, every midpoint between heights, one level above."""
    values = sorted(set(f.heights.value.values()))
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return values + mids + [values[-1] + 1.0]


def as_tuples(polylines):
    return [[tuple(float(x) for x in p) for p in line] for line in polylines]


class TestLevelSetOracle:
    """level_set equals the full-grid march, float for float."""

    def check(self, f, label):
        for resolution in (32, 48, 64):
            xs, grid = fresh_grid(f, resolution)
            for c in oracle_levels(f):
                want = as_tuples(reference_level_set(f, c, xs, grid))
                got = as_tuples(level_set(f, c, resolution=resolution))
                assert got == want, (label, resolution, c)

    def test_fixtures(self, realized):
        for name, f in realized.items():
            self.check(f, name)

    def test_corpus_slice_both_order_modes(self, corpus):
        chosen = [inst for k in range(0, len(corpus), 70) for inst in corpus[k:k + 2]]
        assert {mode for _, mode, _ in chosen} == {"minimal", "saturated"}
        for spec, mode, g in chosen:
            self.check(realize(g), (spec, mode))


class TestGridMemo:
    def test_grid_evaluated_once_per_resolution(self, graphs, monkeypatch):
        f = realize(graphs["G3"])
        evaluate_many = f.evaluate_many
        sizes = []

        def counting(pts, clip=False):
            sizes.append(len(pts))
            return evaluate_many(pts, clip=clip)

        monkeypatch.setattr(f, "evaluate_many", counting)
        first = render_svg(f)
        for resolution in (32, 48, 32):
            level_set(f, 0.5, resolution=resolution)
        second = render_svg(f)
        assert first == second
        assert sizes == [65 ** 2, 33 ** 2, 49 ** 2]
        monkeypatch.undo()
        for resolution in (32, 48, 64):
            xs, vals = f.grid_values(resolution)
            fresh_xs, fresh = fresh_grid(f, resolution)
            assert np.array_equal(xs, fresh_xs)
            assert np.array_equal(vals, fresh)


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
