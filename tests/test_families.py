from diskdiagram.families import (
    EXT,
    build_instance,
    chord,
    content_pool,
    corpus_specs,
    dstar6,
    ladder_spec,
    nest,
    star4,
)
from diskdiagram.conditions import is_delta_graph
from diskdiagram.orders import check_A4
from diskdiagram.realization import extend_to_faces, place, realize

MODES = ("minimal", "saturated")


class TestCorpusShape:
    def test_at_least_two_hundred_specs(self):
        specs = corpus_specs()
        assert len(specs) >= 200

    def test_names_unique(self):
        specs = corpus_specs()
        assert len({s.name for s in specs}) == len(specs)

    def test_pool_items_distinct(self):
        pool = content_pool()
        assert len(set(pool)) == len(pool) == 8

    def test_instance_count(self, corpus):
        assert len(corpus) == 2 * len(corpus_specs())
        modes = {mode for _, mode, _ in corpus}
        assert modes == {"minimal", "saturated"}


class TestInstances:
    def test_every_instance_validates(self, corpus):
        for spec, mode, g in corpus:
            assert len(g.vertices) >= 2, spec.name
            assert all(g.degree(v) >= 2 for v in g.vertices), spec.name

    def test_builds_are_deterministic(self):
        spec = corpus_specs()[17]
        a = build_instance(spec, "minimal")
        b = build_instance(spec, "minimal")
        assert sorted(a.vertices) == sorted(b.vertices)
        assert a.edges == b.edges
        assert a.order.pairs == b.order.pairs

    def test_saturated_extends_minimal(self):
        for spec in corpus_specs()[:20]:
            minimal = build_instance(spec, "minimal")
            saturated = build_instance(spec, "saturated")
            assert saturated.order.extends(minimal.order), spec.name

    def test_saturated_always_congruent(self, corpus):
        for spec, mode, g in corpus:
            if mode == "saturated":
                assert check_A4(g.order).passed, spec.name

    def test_congruence_split_large_enough(self, corpus):
        tallies = {True: 0, False: 0}
        for spec, mode, g in corpus:
            tallies[check_A4(g.order).passed] += 1
        assert tallies[True] >= 100
        assert tallies[False] >= 100

    def test_nested_pockets_present(self):
        deep = chord(chord(chord(EXT)))
        assert deep[1] == 2
        wide = star4(chord(EXT), EXT, EXT)
        assert wide[1] == 4
        double = dstar6(*([EXT] * 5))
        assert double[1] == 6


class TestLadder:
    def test_nest_recursion(self):
        assert nest(0) == EXT
        assert nest(1) == star4(EXT, EXT, EXT)
        assert nest(2) == star4(nest(1), nest(1), nest(1))

    def test_shape_and_sizes(self, ladder):
        assert ladder_spec(1).pockets == (nest(1), EXT, nest(1), EXT)
        for d, size in ((1, 23), (2, 65), (3, 191)):
            for mode in MODES:
                assert len(ladder[d, mode].vertices) == size

    def test_decides_and_realizes(self, ladder, check_instance):
        for d in (2, 3):
            for mode in MODES:
                g = ladder[d, mode]
                assert is_delta_graph(g).delta, (d, mode)
                assert check_instance(g, realize(g)) == [], (d, mode)

    def test_deepest_rung_decides(self, check_instance):
        for mode in MODES:
            g = build_instance(ladder_spec(4), mode)
            assert len(g.vertices) == 569
            verdict = is_delta_graph(g)
            assert verdict.delta, mode
            assert check_instance(g, extend_to_faces(*place(verdict))) == [], mode
        g = build_instance(ladder_spec(5), "minimal")
        assert len(g.vertices) == 1703
        verdict = is_delta_graph(g)
        assert verdict.delta
        assert check_instance(g, extend_to_faces(*place(verdict))) == []

    def test_six_deep_minimal_decides(self):
        g = build_instance(ladder_spec(6), "minimal")
        assert len(g.vertices) == 5105
        assert is_delta_graph(g).delta
