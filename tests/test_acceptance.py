"""End-to-end acceptance battery.

Each test covers one release criterion and prints a single pass/fail
line (bypassing capture) so the run log shows the verdict explicitly.
"""
import subprocess
import sys
import time

import numpy as np
import pytest

from diskdiagram.census import trees_census
from diskdiagram.conditions import is_delta_graph
from diskdiagram.fixtures import build
from diskdiagram.formats import serialize
from diskdiagram.orders import check_A4, induced_order
from diskdiagram.realization import realize, sign_census


@pytest.fixture()
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def criterion(announce, number, label):
    """Context manager printing one verdict line for the criterion."""

    class _Ctx:
        def __init__(self):
            self.detail = ""

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            suffix = f" [{self.detail}]" if self.detail and exc_type is None else ""
            announce(f"criterion {number} ({label}): {verdict}{suffix}")
            return False

    return _Ctx()


def test_criterion_1_fixture_verdicts(announce):
    with criterion(announce, 1, "fixture verdicts") as c:
        timings = {}
        for name, want_delta, want_fail in (
            ("G1", True, None),
            ("G3", True, None),
            ("G4", True, None),
            ("interleaved", False, "S2"),
            ("g1_missing", False, "A1"),
        ):
            g = build(name)
            t0 = time.perf_counter()
            v = is_delta_graph(g)
            timings[name] = time.perf_counter() - t0
            assert v.delta is want_delta, name
            assert v.failed_condition() == want_fail, name
            if name == "interleaved":
                assert any(
                    "both sides" in w for w in v.reports[-1].witnesses
                ), "separation witness missing"
            assert timings[name] < 1.0, (name, timings[name])
        c.detail = f"slowest {max(timings.values()) * 1000:.0f} ms"


def test_criterion_2_tree_criterion_equals_oracle(announce):
    with criterion(announce, 2, "tree criterion vs oracle, all trees <= 7") as c:
        t0 = time.perf_counter()
        rows = trees_census(7)
        elapsed = time.perf_counter() - t0
        total = sum(r.instances for r in rows)
        agree = sum(r.agreements for r in rows)
        bad = sum(len(r.disagreements) for r in rows)
        assert bad == 0
        assert agree == total
        assert total > 0
        assert elapsed < 300.0, elapsed
        c.detail = f"{agree}/{total} agree in {elapsed:.1f} s"


def test_criterion_3_face_structure(announce, realized_corpus):
    with criterion(announce, 3, "face structure over the corpus") as c:
        assert len(realized_corpus) >= 200
        for spec, mode, g, f in realized_corpus:
            emb = f.embedding
            v = len(g.vertices)
            e = len(g.edges)
            assert v - e + len(emb.faces) == 2, spec.name
            for face in emb.faces:
                assert face.is_outer or face.arc_count() in (1, 2), (spec.name, face.index)
        c.detail = f"{len(realized_corpus)} instances"


def test_criterion_4_boundary_extrema(announce, realized_corpus, realized):
    with criterion(announce, 4, "boundary extremum invariant") as c:
        everything = [
            (name, f) for name, f in realized.items()
        ] + [(spec.name, f) for spec, _, _, f in realized_corpus]
        for name, f in everything:
            g = f.decomposition.graph
            extrema = f.boundary_extrema()
            assert len(extrema) % 2 == 0, name
            extremal = {v for v, _ in extrema}
            even = {v for v in f.gamma.vertices if g.degree(v) % 2 == 0}
            assert extremal == even, name
            for v in g.order.minimal_elements() | g.order.maximal_elements():
                assert v in f.gamma.vertices, (name, v)
                assert g.degree(v) == 2, (name, v)
        c.detail = f"{len(everything)} functions"


def _shared_edge_agreement(f, points_per_edge=1000):
    emb = f.embedding
    worst = 0.0
    for t in f.decomposition.trees:
        level = f.heights.level(t)
        for e in t.edges:
            fa = emb.dart_face[(e.a, e)]
            fb = emb.dart_face[(e.b, e)]
            a = np.array(emb.coords[e.a])
            b = np.array(emb.coords[e.b])
            ts = np.linspace(0.0, 1.0, points_per_edge)[:, None]
            pts = a[None, :] * (1 - ts) + b[None, :] * ts
            va = f.evaluate_in_face(fa, pts)
            vb = f.evaluate_in_face(fb, pts)
            worst = max(worst, float(np.abs(va - vb).max()))
            const = max(
                float(np.abs(va - level).max()), float(np.abs(vb - level).max())
            )
            assert const <= 1e-12, (e, const)
    return worst


def _boundary_distance(pts, poly):
    """Distance from each point to the polygon's boundary segments."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    d = b - a
    L2 = np.maximum((d * d).sum(axis=1), 1e-300)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip((ap * d[None, :, :]).sum(axis=2) / L2[None, :], 0.0, 1.0)
    q = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(pts[:, None, :] - q, axis=2).min(axis=1)


def _no_interior_extremum(f, grid=32):
    """Sampled maximum principle: extremal values only near the face rim.

    Every sample inside a face must stay within the range of the face's
    boundary values, and the samples attaining the extremes must sit
    within a couple of grid cells of the boundary itself.
    """
    for fm in f.face_maps:
        lo = fm.points.min(axis=0)
        hi = fm.points.max(axis=0)
        cell = float(max(hi[0] - lo[0], hi[1] - lo[1])) / (grid - 1)
        xs = np.linspace(lo[0], hi[0], grid)
        ys = np.linspace(lo[1], hi[1], grid)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = f.evaluate_in_face(fm.face_index, pts)
        inside = ~np.isnan(vals)
        if not inside.any():
            continue
        sample = pts[inside]
        vals = vals[inside]
        assert vals.min() >= fm.values.min() - 1e-9, fm.face_index
        assert vals.max() <= fm.values.max() + 1e-9, fm.face_index
        dist = _boundary_distance(sample, fm.points)
        assert dist[int(np.argmax(vals))] <= 2.5 * cell, fm.face_index
        assert dist[int(np.argmin(vals))] <= 2.5 * cell, fm.face_index


def test_criterion_5_continuity_and_levels(announce, realized, realized_corpus):
    with criterion(announce, 5, "continuity, level constancy, no interior extremum") as c:
        sample = list(realized.values()) + [
            f for _, _, _, f in realized_corpus[::40]
        ]
        worst = 0.0
        for f in sample:
            worst = max(worst, _shared_edge_agreement(f))
            _no_interior_extremum(f)
        assert worst <= 1e-9
        c.detail = f"{len(sample)} functions, worst jump {worst:.2e}"


def test_criterion_6_sign_alternation(announce, realized_corpus, realized):
    with criterion(announce, 6, "sign census over the corpus") as c:
        fns = [f for _, _, _, f in realized_corpus] + list(realized.values())
        for f in fns:
            result = sign_census(f)
            assert result.passed, result.witnesses
            for t in f.decomposition.trees:
                for v in sorted(t.vertices - t.attach):
                    signs = result.corner_signs[v]
                    assert len(signs) % 2 == 0, v
                    for i in range(len(signs)):
                        assert signs[i] != signs[(i + 1) % len(signs)], v
        c.detail = f"{len(fns)} functions"


def test_criterion_7_order_round_trip(announce, corpus, realized_corpus):
    with criterion(announce, 7, "induced order round trip") as c:
        for (spec, mode, g), (_, _, _, f) in zip(corpus, realized_corpus):
            assert induced_order(f.heights).extends(g.order), (spec.name, mode)
        tallies = {True: 0, False: 0}
        for spec, mode, g in corpus:
            f = realize(g, mode="strict")
            congruent = check_A4(g.order).passed
            equal = induced_order(f.heights).pairs == g.order.pairs
            assert equal == congruent, (spec.name, mode)
            tallies[congruent] += 1
        assert tallies[True] >= 100, tallies
        assert tallies[False] >= 100, tallies
        c.detail = (
            f"extends {len(corpus)}/{len(corpus)}, "
            f"equality matches congruence on {tallies[True]}+{tallies[False]}"
        )


def test_criterion_8_cli_determinism(announce, tmp_path):
    with criterion(announce, 8, "byte-identical SVG across runs") as c:
        for name in ("G1", "G3"):
            src = tmp_path / f"{name}.json"
            src.write_text(serialize(build(name)))
            outputs = []
            for run in range(3):
                out = tmp_path / f"{name}-{run}.svg"
                proc = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "diskdiagram.cli",
                        "realize",
                        str(src),
                        "--out",
                        str(out),
                    ],
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2], name
            assert outputs[0].startswith(b"<?xml")
        c.detail = "G1, G3 x3 runs each"
