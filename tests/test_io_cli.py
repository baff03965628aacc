import errno
import json
import os
import random
import re
import string
import subprocess
import sys
import time
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskdiagram
import references
from diskdiagram import cli
from diskdiagram.cli import main
from diskdiagram.conditions import is_delta_graph
from diskdiagram.errors import (
    DisconnectedGraph,
    DiskDiagramError,
    MalformedFile,
    OrderCycle,
    SelfLoop,
    UnknownId,
)
from diskdiagram.families import build_instance, ladder_spec
from diskdiagram.fixtures import FIXTURES, build
from diskdiagram.formats import (
    GraphFile,
    embedding_json,
    file_of_graph,
    load_graph_file,
    parse,
    serialize,
    to_dot,
)
from diskdiagram.graph import build_graph
from diskdiagram.planarity import face_arcs
from diskdiagram.realization import place, realize
from diskdiagram.svg import render_svg


def doc(vertices, edges, order):
    return json.dumps({"vertices": vertices, "edges": edges, "order": order})


class TestLoadGraphFile:
    def test_minimal_document(self):
        gf = load_graph_file(doc(["x", "y"], [["x", "y"], ["x", "y"]], [["x", "y"]]))
        assert gf.vertices == ("x", "y")
        assert gf.edges == (("x", "y"), ("x", "y"))
        assert gf.order == (("x", "y"),)

    def test_repeated_edges_kept(self):
        gf = load_graph_file(doc(["x", "y"], [["x", "y"], ["y", "x"]], []))
        assert len(gf.edges) == 2

    def test_bytes_accepted(self):
        text = doc(["x", "y"], [["x", "y"], ["x", "y"]], []).encode()
        assert load_graph_file(text).vertices == ("x", "y")

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            (b"\xff\xfe\x00\x00", "not UTF-8"),
            ("{", "invalid JSON"),
            ("[]", "top level"),
            ('{"vertices": []}', "missing field"),
            (doc([], [], []).replace("}", ', "extra": 1}'), "unknown field"),
            ('{"vertices": 3, "edges": [], "order": []}', "'vertices'"),
            ('{"vertices": [3], "edges": [], "order": []}', "vertices[0]"),
            ('{"vertices": [""], "edges": [], "order": []}', "vertices[0]"),
            ('{"vertices": ["a", "a"], "edges": [], "order": []}', "duplicate"),
            (doc(["a", "b"], [["a"]], []), "edges[0]"),
            (doc(["a", "b"], [["a", "b", "a"]], []), "edges[0]"),
            (doc(["a", "b"], ["ab"], []), "edges[0]"),
            (doc(["a", "b"], [], [["a", 1]]), "order[0]"),
            pytest.param("[" * 200_000 + "]" * 200_000, "nested too deeply", id="nesting"),
            (doc(["a", "b\ud800"], [], []), "vertices[1] holds U+D800"),
            (doc(["a\x01", "b"], [], []), "vertices[0] holds U+0001"),
        ],
    )
    def test_malformed_documents(self, payload, fragment):
        with pytest.raises(MalformedFile) as info:
            load_graph_file(payload)
        assert fragment in str(info.value)

    def test_tab_newline_percent_and_angle_ids_accepted(self):
        ids = ["a\tb", "c\nd", "e\r%", "<f>", "\U0001f600"]
        assert load_graph_file(doc(ids, [], [])).vertices == tuple(ids)

    def test_unknown_edge_id(self):
        with pytest.raises(UnknownId) as info:
            load_graph_file(doc(["a", "b"], [["a", "zz"]], []))
        assert info.value.ident == "zz"
        assert info.value.where == "edges[0]"

    def test_unknown_order_id(self):
        with pytest.raises(UnknownId) as info:
            load_graph_file(doc(["a", "b"], [], [["zz", "b"]]))
        assert info.value.where == "order[0]"


def _mutations(doc, rng):
    """(label, document) pairs, each with one fault put into ``doc``."""

    def replaced(label, field, k, item):
        bad = dict(doc)
        if k is None:
            bad[field] = item
        else:
            bad[field] = list(doc[field])
            bad[field][k] = item
        return label, bad

    def with_id(pair, side, x):
        return [x, pair[1]] if side == 0 else [pair[0], x]

    out = [
        replaced(f"{field} not a list", field, None, x)
        for field, x in (("vertices", {}), ("edges", "ab"), ("order", 3))
    ]
    for field in ("edges", "order"):
        if not doc[field]:
            continue
        k, side = rng.randrange(len(doc[field])), rng.randrange(2)
        pair = doc[field][k]
        out += [
            replaced(f"{field} pair of 3", field, k, pair + pair[:1]),
            replaced(f"{field} id not a string", field, k, with_id(pair, side, 7)),
            replaced(f"{field} id a list", field, k, with_id(pair, side, ["a"])),
            replaced(f"{field} id empty", field, k, with_id(pair, side, "")),
            replaced(f"{field} id unknown", field, k, with_id(pair, side, "zz")),
            replaced(f"{field} dict for a pair", field, k, {"a": 1}),
            # each unpacks as the pair it replaces: two 1-character ids in
            # a string, or any two as a dict's keys
            replaced(f"{field} pair as a string", field, k, "".join(pair)),
            replaced(f"{field} pair as a dict", field, k, dict.fromkeys(pair, 0)),
        ]
    k = rng.randrange(len(doc["vertices"]))
    out += [
        replaced("vertex not a string", "vertices", k, None),
        replaced("vertex empty", "vertices", k, ""),
        replaced("vertex repeated", "vertices", None, doc["vertices"] + doc["vertices"][k:k + 1]),
        replaced("vertex not in XML", "vertices", k, doc["vertices"][k] + "\x01"),
    ]
    return out


def _graph_faults(doc, rng):
    """(label, document) pairs, each with one fault that only the graph
    shows: a self-loop, a second component, or an order cycle."""
    vs = doc["vertices"]
    a, b = rng.sample(vs, 2)
    twin = [["x-1", "x-2"], ["x-2", "x-1"]]
    return [
        ("self-loop", dict(doc, edges=doc["edges"] + [[a, a]])),
        ("second component", dict(doc, vertices=vs + ["x-1", "x-2"], edges=doc["edges"] + twin)),
        ("order cycle", dict(doc, order=doc["order"] + [[a, b], [b, a]])),
    ]


def _outcome(read, text):
    try:
        return read(text)
    except DiskDiagramError as exc:
        return type(exc), str(exc)


class TestBulkValidation:
    """`load_graph_file` and `parse` reject what the reference path, which
    checks each item of the file before it builds the graph, rejects,
    with the same exception and message, on faults put into real files:
    one file fault, one graph fault, or a graph fault with a fault in
    the order's syntax."""

    def test_mutated_files_fail_like_the_loop(self, graphs, corpus):
        rng = random.Random(13)
        docs = [json.loads(serialize(g)) for g in graphs.values()]
        docs += [json.loads(serialize(g)) for _, _, g in corpus]
        files, graph_cases = [], []
        for k, d in enumerate(docs):
            files.append(("as written", d))
            files += _mutations(d, rng)
            if k >= len(graphs) and k % 5:
                continue  # graph faults on the fixtures and a fifth of the corpus
            for label, bad in _graph_faults(d, rng):
                graph_cases.append((label, bad))
                graph_cases += [
                    (f"{label} and {what}", worse)
                    for what, worse in _mutations(bad, rng)
                    if what.startswith("order")
                ]
        for read, ref, cases in (
            (load_graph_file, lambda t: GraphFile(*references.graph_file(t)), files),
            (parse, references.parse, files + graph_cases),
        ):
            kinds = set()
            for label, d in cases:
                text = json.dumps(d)
                got, want = _outcome(read, text), _outcome(ref, text)
                assert got == want, (read.__name__, label)
                if isinstance(want, tuple):
                    kinds.add(want[0])
                elif read is parse:
                    assert got.incident == want.incident
            assert kinds >= {MalformedFile, UnknownId}
        assert kinds == {MalformedFile, UnknownId, SelfLoop, DisconnectedGraph, OrderCycle}

    def test_duplicate_id_found_in_linear_time(self):
        ids = [f"v{i}" for i in range(50_000)]
        text = doc(ids + ["v0"], [], [])
        for read in (load_graph_file, parse):
            t0 = time.perf_counter()
            with pytest.raises(MalformedFile, match="duplicate vertex id 'v0'"):
                read(text)
            assert time.perf_counter() - t0 < 1.0, read.__name__


class TestRoundTrip:
    def test_fixture_graphs_survive(self, graphs):
        for name, g in graphs.items():
            again = parse(serialize(g))
            assert again.vertices == g.vertices, name
            assert again.edges == g.edges, name
            assert again.order.pairs == g.order.pairs, name

    def test_serialize_is_deterministic(self):
        a = serialize(build("G3"))
        b = serialize(build("G3"))
        assert a == b

    def test_file_of_graph_sorts_vertices(self):
        gf = file_of_graph(build("G1"))
        assert gf.vertices == tuple(sorted(gf.vertices))

    names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_syntactic_round_trip(self, data):
        vertices = data.draw(
            st.lists(self.names, min_size=1, max_size=6, unique=True)
        )
        pair = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
        edges = data.draw(st.lists(pair, max_size=8))
        order = data.draw(st.lists(pair, max_size=8))
        gf = GraphFile(tuple(vertices), tuple(edges), tuple(order))
        assert load_graph_file(serialize(gf)) == gf


class TestExports:
    def test_dot_contains_ranks_and_edges(self, realized):
        f = realized["G1"]
        text = to_dot(f.decomposition.graph, f.heights)
        assert text.startswith("graph diagram {")
        assert "rank=same" in text
        assert '"a" -- "b";' in text
        assert text.count("rank=same") == len(set(f.heights.value.values()))

    def test_dot_escapes_quotes_and_backslashes(self):
        ids = ['a"x', "b\\", "c", "d"]
        g = build_graph(ids, [[u, v] for u, v in zip(ids, ids[1:] + ids[:1])], [])
        text = to_dot(g)
        assert '  "a\\"x";' in text
        assert '  "b\\\\" -- "c";' in text
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        assert '"' not in quoted.sub("", text)
        assert {re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(text)} == g.vertices

    def test_dot_without_heights(self):
        text = to_dot(build("G1"))
        assert "rank=same" not in text

    def test_embedding_json_schema(self, realized):
        f = realized["G4"]
        docd = json.loads(embedding_json(f.embedding, f.heights))
        assert set(docd) == {"boundary", "rotation", "faces", "coords", "heights"}
        assert sorted(docd["rotation"]) == sorted(f.decomposition.graph.vertices)
        outer = [fc for fc in docd["faces"] if fc["outer"]]
        assert len(outer) == 1
        assert outer[0]["arcs"] is None
        inner_arcs = [fc["arcs"] for fc in docd["faces"] if not fc["outer"]]
        assert all(a in (1, 2) for a in inner_arcs)
        assert docd["heights"] == {
            v: f.heights.value[v] for v in f.heights.value
        }


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name in ("G1", "G3", "interleaved", "g1_missing"):
        p = tmp_path / f"{name}.json"
        p.write_text(serialize(build(name)))
        out[name] = str(p)
    return out


class TestCliCheck:
    def test_accepts_delta(self, files, capsys):
        assert main(["check", files["G1"]]) == 0
        out = capsys.readouterr().out
        assert "Δ-graph: yes" in out
        assert "A1: ok" in out

    def test_rejects_with_witnesses(self, files, capsys):
        assert main(["check", files["interleaved"]]) == 1
        out = capsys.readouterr().out
        assert "Δ-graph: no" in out
        assert "S2: FAIL" in out
        assert "- " in out

    def test_json_schema(self, files, capsys):
        assert main(["check", files["G3"], "--json"]) == 0
        docd = json.loads(capsys.readouterr().out)
        assert docd["delta"] is True
        assert [r["condition"] for r in docd["reports"]] == [
            "A1",
            "A2",
            "S2",
            "S3",
            "A3",
        ]
        assert all(r["passed"] for r in docd["reports"])
        assert docd["embedding"]["inner_face_arcs"] == [1, 1, 1, 1]
        assert docd["realization"]["boundary_extrema"] % 2 == 0

    def test_json_needs_no_placement(self, graphs, corpus):
        # the faces and heights are those of the placed embedding
        cases = list(graphs.values()) + [g for _, _, g in corpus[::7]]
        placed = 0
        for g in cases:
            verdict = is_delta_graph(g)
            docd = cli._verdict_doc(verdict)
            if not verdict.delta:
                continue
            emb, heights = place(verdict)
            assert docd["embedding"] == {"faces": len(emb.faces), "inner_face_arcs": face_arcs(emb)}
            assert docd["realization"]["heights"] == heights.value
            placed += 1
        assert placed > 50

    def test_json_rejection_truncates_pipeline(self, files, capsys):
        assert main(["check", files["g1_missing"], "--json"]) == 1
        docd = json.loads(capsys.readouterr().out)
        assert docd["delta"] is False
        assert docd["reports"][-1]["condition"] == "A1"
        assert docd["reports"][-1]["witnesses"]
        assert "embedding" not in docd

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        for path, code in ((tmp_path / "absent.json", errno.ENOENT), (tmp_path, errno.EISDIR)):
            assert main(["check", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot read {path}: {os.strerror(code)}\n"

    def test_disconnected_error_names_no_component(self, tmp_path, capsys):
        # a 20 000-vertex ring beside a 2-cycle: the error gives the ring's size
        ring = [f"r{i:05d}" for i in range(20_000)]
        pairs = [[ring[i - 1], ring[i]] for i in range(len(ring))] + [["x", "y"]] * 2
        p = tmp_path / "split.json"
        p.write_text(doc(ring + ["x", "y"], pairs, []))
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert "graph is not connected; a component of 20000 vertices leaves out 'x'" in err
        assert len(err) < 200

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["check", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["nesting", "\ud800", "\x01"])
    def test_unwritable_id_or_deep_nesting_is_usage_error(self, tmp_path, capsys, fault):
        """JSON too deep to parse and ids that SVG or UTF-8 cannot hold
        are bad input: exit 2, and no SVG written."""
        if fault == "nesting":
            text = "[" * 200_000 + "]" * 200_000
        else:
            text = serialize(build("G1")).replace('"a"', json.dumps("a" + fault))
        p, out = tmp_path / "bad.json", tmp_path / "out.svg"
        p.write_text(text)
        assert main(["realize", str(p), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_library_refuses_ids_xml_cannot_hold(self):
        """`build_graph` refuses the ids files refuse, so G1 with such an
        id never reaches `render_svg`; the ids it keeps render as XML."""

        def g1_with(name):
            vs, es, order = FIXTURES["G1"]()
            ren = {"a": name}.get
            return build_graph(
                [ren(v, v) for v in vs],
                [(ren(u, u), ren(v, v)) for u, v in es],
                [(ren(u, u), ren(v, v)) for u, v in order],
            )

        for ch in ("\x01", "\x1f", "\ud800", "\ufffe", "\uffff"):
            with pytest.raises(DiskDiagramError) as info:
                g1_with("a" + ch)
            assert str(info.value) == (
                f"vertex id {'a' + ch!r} holds U+{ord(ch):04X}, not allowed in XML"
            )
        root = ET.fromstring(render_svg(realize(g1_with("a\t<b\n"))))
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert any(label.startswith("a\t<b\n=") for label in labels)

    def test_cycle_named_under_every_hash_seed(self, tmp_path):
        p = tmp_path / "cyclic.json"
        p.write_text(
            doc(
                ["a", "b", "x"],
                [["a", "b"], ["b", "x"], ["x", "a"]],
                [["a", "x"], ["a", "b"], ["b", "a"]],
            )
        )
        runs = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-m", "diskdiagram.cli", "check", str(p)],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            runs.add((proc.returncode, proc.stderr))
        message = b"error: order relation contains a cycle through ['a', 'b']\n"
        assert runs == {(2, message)}


class TestCliRealize:
    def test_writes_svg(self, files, tmp_path, capsys):
        out = tmp_path / "g1.svg"
        assert main(["realize", files["G1"], "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text
        assert capsys.readouterr().out.strip() == f"wrote {out}"

    def test_deterministic_output(self, files, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["realize", files["G3"], "--out", str(a)]) == 0
        assert main(["realize", files["G3"], "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_options_change_output(self, files, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["realize", files["G1"], "--out", str(a)]) == 0
        assert (
            main(["realize", files["G1"], "--out", str(b), "--levels", "9"]) == 0
        )
        assert a.read_bytes() != b.read_bytes()

    def test_negative_levels_is_usage_error(self, files, tmp_path, capsys):
        out = tmp_path / "w.svg"
        with pytest.raises(SystemExit) as exc:
            main(["realize", files["G1"], "--out", str(out), "--levels", "-2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: diskdiagram realize ")
        assert captured.err.endswith(
            "diskdiagram realize: error: argument --levels: must be >= 0, got -2\n"
        )
        assert not out.exists()
        assert main(["realize", files["G1"], "--out", str(out), "--levels", "0"]) == 0

    def test_strict_order_flag(self, files, tmp_path):
        out = tmp_path / "strict.svg"
        assert (
            main(["realize", files["G3"], "--out", str(out), "--strict-order"]) == 0
        )
        assert out.exists()

    def test_no_file_on_rejection(self, files, tmp_path, capsys):
        out = tmp_path / "never.svg"
        assert main(["realize", files["interleaved"], "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "not realizable: fails S2" in err

    def test_unwritable_out_is_file_error(self, files, tmp_path, capsys):
        for out, reason in (
            (tmp_path / "absent" / "w.svg", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ):
            assert main(["realize", files["G1"], "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot write {out}: {reason}\n"

    def test_names_with_markup_characters(self, tmp_path, capsys):
        """G1 with names holding `&`, `<`, `%` and `"`: the SVG parses and
        every label reads back as name=height."""
        rename = {"m": "a&b", "a": "x<y", "b": "100%", "M": 'q"r'}
        vs, es, order = FIXTURES["G1"]()
        path = tmp_path / "g1.json"
        path.write_text(
            doc(
                [rename[v] for v in vs],
                [[rename[a], rename[b]] for a, b in es],
                [[rename[a], rename[b]] for a, b in order],
            )
        )
        out = tmp_path / "g1.svg"
        assert main(["realize", str(path), "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        labels = sorted(t.text for t in root.iter("{http://www.w3.org/2000/svg}text"))
        f = realize(parse(path.read_text()))
        assert labels == sorted(f"{v}={h:.4f}" for v, h in f.heights.value.items())
        assert {label.rpartition("=")[0] for label in labels} == set(rename.values())


class TestSvgMatchesReference:
    """`render_svg` writes the bytes of the reference renderer, which
    cuts one level and formats one number at a time."""

    def check(self, f, label):
        for levels in (5, 0, 9):
            assert render_svg(f, levels) == references.render_svg(f, levels), (label, levels)

    def test_fixtures(self, realized):
        for name, f in realized.items():
            self.check(f, name)

    def test_corpus_default_and_strict(self, corpus):
        for spec, order_mode, g in corpus:
            for mode in ("default", "strict"):
                f = realize(g, mode=mode)
                assert render_svg(f) == references.render_svg(f), (spec, order_mode, mode)

    def test_ladder(self):
        for d in (1, 2, 3, 4):
            for mode in ("minimal", "saturated"):
                f = realize(build_instance(ladder_spec(d), mode))
                assert render_svg(f) == references.render_svg(f), (d, mode)

    def test_census_accepted(self, census_accepted):
        for label, g in census_accepted:
            self.check(realize(g), label)


class TestCliEmbed:
    def test_dot_format(self, files, capsys):
        assert main(["embed", files["G1"], "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph diagram {")
        assert "rank=same" in out

    def test_json_format(self, files, capsys):
        assert main(["embed", files["G3"], "--format", "json"]) == 0
        docd = json.loads(capsys.readouterr().out)
        assert docd["boundary"][0] in docd["rotation"]
        assert len(docd["faces"]) == 5

    def test_rejection(self, files, capsys):
        assert main(["embed", files["interleaved"]]) == 1
        assert "cannot embed" in capsys.readouterr().err

    def test_dot_bytes_independent_of_hash_seed(self, tmp_path, delta_names):
        paths = []
        for name in delta_names:
            p = tmp_path / f"{name}.json"
            p.write_text(serialize(build(name)))
            paths.append(str(p))
        script = (
            "import sys\n"
            "from diskdiagram.cli import main\n"
            "for p in sys.argv[1:]:\n"
            "    main(['embed', p, '--format', 'dot'])\n"
        )
        outputs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script, *paths],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].count(b"graph diagram {") == len(paths)
        assert outputs[0] == outputs[1]


class TestCliEnumerate:
    def test_trees_small(self, capsys):
        assert main(["enumerate", "--max", "3", "--mode", "trees"]) == 0
        out = capsys.readouterr().out
        assert "agreement 4/4 = 100.0%" in out

    def test_trees_disagreement_exits_1(self, capsys, monkeypatch):
        from diskdiagram import census
        from diskdiagram.planarity import tree_is_disk_planar

        def wrong(edges, ring):
            ok, counts = tree_is_disk_planar(edges, ring)
            return not ok, counts

        monkeypatch.setattr(census, "tree_is_disk_planar", wrong)
        assert main(["enumerate", "--max", "3", "--mode", "trees"]) == 1
        assert "agreement 0/4 = 0.0%" in capsys.readouterr().out

    def test_graphs_small(self, capsys):
        assert main(["enumerate", "--max", "2", "--mode", "graphs"]) == 0
        out = capsys.readouterr().out
        assert "delta" in out
        assert "degrees=[2, 2]" in out

    def test_size_out_of_range(self, capsys):
        assert main(["enumerate", "--max", "40", "--mode", "trees"]) == 2
        err = capsys.readouterr().err
        assert err == "error: trees census size must be between 2 and 8, got 40\n"
        assert main(["enumerate", "--max", "9", "--mode", "graphs"]) == 2
        err = capsys.readouterr().err
        assert err == "error: graphs census size must be between 2 and 4, got 9\n"


class TestParserReuse:
    def calls(self, files, tmp_path):
        svg = str(tmp_path / "w.svg")
        return [
            ["check", files["G1"]],
            ["nonsense", files["G1"]],
            ["check", files["G3"], "--json"],
            ["realize", files["G1"], "--out", svg],
            ["check", str(tmp_path / "absent.json")],
            ["realize", files["G3"], "--out", svg, "--levels", "9", "--strict-order"],
            ["realize", files["G1"]],
            ["embed", files["G3"], "--format", "json"],
            ["check", files["interleaved"]],
            ["embed", files["G1"], "--format", "dot"],
            ["enumerate", "--max", "3", "--mode", "graphs"],
            ["realize", files["G1"], "--out", svg],
            ["check", files["G1"]],
            ["realize", "--help"],
            ["--help"],
        ]

    def outcomes(self, calls, tmp_path, capsys):
        svg = tmp_path / "w.svg"
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            drawn = svg.read_bytes() if svg.exists() else None
            svg.unlink(missing_ok=True)
            seen.append((argv, code, out, err, drawn))
        return seen

    def test_cached_parser_matches_fresh(self, files, tmp_path, capsys, monkeypatch):
        assert cli.make_parser() is cli.make_parser()
        calls = self.calls(files, tmp_path)
        cached = self.outcomes(calls, tmp_path, capsys)
        monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
        fresh = self.outcomes(calls, tmp_path, capsys)
        assert cached == fresh
        codes = [code for _, code, *_ in cached]
        assert codes == [0, 2, 0, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0]
        assert cached[3][4].startswith(b"<?xml")
        assert cached[5][4] != cached[3][4]

    def test_help_text_matches_fresh(self):
        cached = cli.make_parser()
        fresh = cli.make_parser.__wrapped__()
        assert cached.format_help() == fresh.format_help()
        subs, fresh_subs = cached.commands, fresh.commands
        assert list(subs) == ["check", "realize", "embed", "enumerate"]
        assert list(subs) == list(fresh_subs)
        for name, sub in subs.items():
            assert sub.format_help() == fresh_subs[name].format_help(), name


def _run(entry, argv, svg, capsys):
    """(code, stdout, stderr, SVG bytes or None) of ``entry(argv)``."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    drawn = svg.read_bytes() if svg.exists() else None
    svg.unlink(missing_ok=True)
    return code, out, err, drawn


class TestOnePassDispatch:
    """`main` parses a known command with that command's parser alone;
    help, errors and anything else go through the full parser."""

    def test_matches_nested_parse(self, load_script, files, tmp_path, capsys):
        svg = tmp_path / "w.svg"
        usage = load_script("output_hashes").USAGE + [
            ["realize", "GRAPH", "--out", "OUT", "--levels", "-2"],
            ["realize", "GRAPH", "--out", "OUT", "--levels", "x", "--bogus"],
            ["check", "REJECT"], ["check", "REJECT", "--json"], ["check", "ABSENT"],
            ["realize", "REJECT", "--out", "OUT"], ["embed", "REJECT", "--format", "json"],
            ["realize", "G3", "--out", "OUT", "--levels", "9", "--strict-order"],
            ["embed", "G3"], ["check", "G3", "--json"],
            ["enumerate", "--max", "40"], ["enumerate", "--mode", "graphs", "--max", "2"],
        ]
        names = {"GRAPH": files["G1"], "G3": files["G3"], "OUT": str(svg),
                 "REJECT": files["interleaved"], "ABSENT": str(tmp_path / "absent.json")}
        codes = set()
        for template in usage:
            argv = [names.get(a, a.replace("=OUT", f"={svg}")) for a in template]
            ours = _run(main, argv, svg, capsys)
            assert ours == _run(references.cli_main, argv, svg, capsys), argv
            codes.add(ours[0])
        assert codes == {0, 1, 2}

    def test_valid_call_parses_once(self, files, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(cli.make_parser(), "parse_args", refuse)
        svg = tmp_path / "w.svg"
        assert main(["check", files["G1"]]) == 0
        assert main(["realize", files["G1"], "--out", str(svg)]) == 0
        assert svg.read_bytes().startswith(b"<?xml")
        for argv in (["bogus"], ["check", files["G1"], "extra"], ["-h"]):
            with pytest.raises(AssertionError):
                main(argv)


# every name of `diskdiagram.__all__`, the witness layers' included
PUBLIC_NAMES = """
    A4Result ArcStructureViolation CensusResult
    ConditionReport Cycle Decomposition DegenerateDrawing
    DegreeBelowTwo DeltaVerdict DisconnectedGraph DiskDiagramError DiskEmbedding
    DiskFunction Edge EqualLevels Face FaceMap GraphFile HeightAssignment
    InvariantViolation MalformedFile NotAForest NotDeltaGraph NotInCarrier
    NotInTree NotPlanar OrderCycle OutsideDisk PoGraph SelfLoop
    StrictPartialOrder TerminalNotInVstar TreeComponent UnknownId adjacency
    assign_coords assign_heights brute_force_tree_embedding
    build_embedding build_graph check_A1 check_A2 check_A3 check_A4 check_S2
    check_S3 conditions decompose errors extend_to_faces face_arcs
    find_cr_cycles formats graph induced_order is_delta_graph level_set
    level_sets load_graph_file make_edges orders parse place planarity
    realization realize render_svg separation_ok serialize sign_census
    svg to_dot trace_faces tree_is_disk_planar
""".split()


def run_fresh(script, *args, flags=()):
    """Stdout of ``script`` run in a fresh interpreter on this package,
    started with the interpreter options ``flags``."""
    env = dict(os.environ, PYTHONPATH=str(Path(diskdiagram.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the top-level modules, other than the package's, loaded since the start
LOADED = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "def loaded():\n"
    "    new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
    "    print(sorted(new - set(sys.stdlib_module_names) - {'diskdiagram'}))\n"
)


class TestImports:
    """Commands import numpy only when they run code that uses it, nothing
    else outside the standard library, and the package still exports
    every name it did."""

    def test_check_and_graphs_census_load_neither(self, files, tmp_path):
        script = LOADED + (
            "import contextlib, io\n"
            "import diskdiagram.cli as cli\n"
            "loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['check', sys.argv[1]]) == 0\n"
            "    assert cli.main(['check', sys.argv[2], '--json']) == 1\n"
            "    assert cli.main(['enumerate', '--max', '2', '--mode', 'graphs']) == 0\n"
            "loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['check', sys.argv[1], '--json']) == 0\n"
            "loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['realize', sys.argv[1], '--out', sys.argv[3]]) == 0\n"
            "loaded()\n"
        )
        out = run_fresh(script, files["G1"], files["g1_missing"], str(tmp_path / "w.svg"))
        assert out.splitlines() == ["[]", "[]", "[]", "['numpy']"]

    def test_check_loads_neither_census_nor_random(self, files):
        # -S keeps the site step's own imports out of sys.modules
        script = (
            "import contextlib, io, sys\n"
            "import diskdiagram.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['check', sys.argv[1]]) == 0\n"
            "    assert cli.main(['check', sys.argv[1], '--json']) == 0\n"
            "print([m for m in ('diskdiagram.census', 'random') if m in sys.modules])\n"
        )
        assert run_fresh(script, files["G1"], flags=("-S",)) == "[]\n"

    def test_trees_census_loads_only_the_standard_library(self):
        script = LOADED + (
            "import contextlib, io\n"
            "import diskdiagram.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['enumerate', '--max', '3', '--mode', 'trees']) == 0\n"
            "loaded()\n"
        )
        assert run_fresh(script).splitlines() == ["[]"]

    def test_package_import_loads_neither(self):
        script = LOADED + (
            "import diskdiagram\n"
            "loaded()\n"
            "diskdiagram.realize\n"
            "print('numpy' in sys.modules)\n"
        )
        assert run_fresh(script).splitlines() == ["[]", "True"]

    def test_public_names(self):
        assert sorted(diskdiagram.__all__) == sorted(PUBLIC_NAMES)
        assert diskdiagram.realize is diskdiagram.realization.realize
        assert diskdiagram.render_svg is diskdiagram.svg.render_svg
        for name in diskdiagram.__all__:
            value = getattr(diskdiagram, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"diskdiagram.{name}"], name
            elif getattr(value, "__module__", "").startswith("diskdiagram."):
                assert value is getattr(sys.modules[value.__module__], name), name
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            diskdiagram.nonesuch

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from diskdiagram import *", ns)
        assert {name for name in ns if name != "__builtins__"} == set(PUBLIC_NAMES)
        assert all(ns[name] is getattr(diskdiagram, name) for name in PUBLIC_NAMES)


class TestModuleEntryPoint:
    def test_python_m_matches_main(self, files, capsys):
        expected = main(["check", files["interleaved"]])
        proc = subprocess.run(
            [sys.executable, "-m", "diskdiagram", "check", files["interleaved"]],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (expected, capsys.readouterr().out)
        assert expected == 1


def readme_block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_library_example_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "graph.json").write_text(readme_block("Input format", "json"))
        exec(readme_block("Library", "python"), {})
        assert (tmp_path / "w.svg").read_text().startswith("<?xml")
