"""Spans and counts around the package's layer functions.

`Tracer.install()` looks each layer function up by name in every loaded
`diskdiagram` module and rebinds every name that refers to it, so a
call keeps being traced wherever a refactor moves it.  A layer that no
module defines is listed in `missing` instead of failing the run.

Spans stay in memory.  A span's self time is its duration minus the
durations of the spans it directly encloses, so over one operation the
self times of all spans, the operation's own root span included, add
up to the operation's wall time; the root's self time is the part no
layer span covers.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _input_bytes(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["formats.input_bytes"] += len(text)


def _closure_pairs(counts, args, kwargs, result):
    counts["orders.closure_pairs"] += len(result.order.pairs)


def _faces(counts, args, kwargs, result):
    counts["planarity.faces"] += len(result.faces)


def _coords_check_pairs(counts, args, kwargs, result):
    segments = sum(len(t.edges) for t in result.decomposition.trees)
    vertices = len(result.coords)
    counts["realization.coords_check_pairs"] += (
        segments * (segments - 1) // 2 + segments * vertices
    )


def _triangles(counts, args, kwargs, result):
    counts["realization.triangles"] += sum(len(fm.triangles) for fm in result.face_maps)


def _grid_points(counts, args, kwargs, result):
    resolution = args[2] if len(args) > 2 else kwargs.get("resolution", 64)
    counts["realization.grid_points"] += (resolution + 1) ** 2


def _svg_output(counts, args, kwargs, result):
    counts["svg.polylines"] += result.count("<polyline")
    counts["svg.bytes"] += len(result.encode("utf-8"))


def _cycles(counts, args, kwargs, result):
    counts["conditions.a1_cycles"] += len(result)


def _qualifying(counts, args, kwargs, result):
    counts["conditions.a1_qualifying"] += len(result)


def _rejected(counts, args, kwargs, result):
    if not result.delta:
        counts[f"conditions.rejected.{result.failed_condition()}"] += 1


# (span name, function name, count hook); spans nest in call order.
SPANS = (
    ("formats.parse_s", "parse", _input_bytes),
    ("graph.build_graph_s", "build_graph", _closure_pairs),
    ("conditions.a1_s", "check_A1", None),
    ("graph.decompose_s", "decompose", None),
    ("conditions.a2_s", "check_A2", None),
    ("planarity.s2_s", "check_S2", None),
    ("conditions.s3_s", "check_S3", None),
    ("conditions.a3_s", "check_A3", None),
    ("planarity.build_embedding_s", "build_embedding", _faces),
    ("realization.assign_coords_s", "assign_coords", _coords_check_pairs),
    ("realization.assign_heights_s", "assign_heights", None),
    ("realization.extend_to_faces_s", "extend_to_faces", _triangles),
    ("realization.level_set_s", "level_set", _grid_points),
    ("svg.render_svg_s", "render_svg", _svg_output),
)
# (function name, count hook, span the call must sit in or None); no span.
COUNTERS = (
    ("enumerate_simple_cycles", _cycles, "conditions.a1_s"),
    ("find_cr_cycles", _qualifying, "conditions.a1_s"),
    ("is_delta_graph", _rejected, None),
)


def _package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "diskdiagram" or name.startswith("diskdiagram."))
    ]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []
        self._open = []  # [name, seconds covered by children] per open span
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, hook):
        def traced(*args, **kwargs):
            self._open.append([name, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                _, children = self._open.pop()
                self.self_s[name] += dt - children
                if self._open:
                    self._open[-1][1] += dt
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, hook, within):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if within is None or any(name == within for name, _ in self._open):
                hook(self.counts, args, kwargs, result)
            return result

        return counted

    def run(self, name, fn, *args):
        """Call fn(*args) as the root span `name`; returns (seconds, result)."""
        t0 = perf_counter()
        result = self._span(name, fn, None)(*args)
        return perf_counter() - t0, result

    # -- installing ----------------------------------------------------------

    def install(self):
        self.missing = []
        modules = _package_modules()
        wrappers = [(s, f, lambda fn, s=s, h=h: self._span(s, fn, h)) for s, f, h in SPANS]
        wrappers += [
            (f, f, lambda fn, h=h, w=w: self._counter(fn, h, w)) for f, h, w in COUNTERS
        ]
        for label, fname, wrap in wrappers:
            targets = {
                id(obj): obj
                for m in modules
                for obj in [vars(m).get(fname)]
                if callable(obj) and getattr(obj, "__module__", "").startswith("diskdiagram")
            }
            if not targets:
                self.missing.append(label)
                continue
            for obj in targets.values():
                wrapped = wrap(obj)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, obj))
        return self

    def uninstall(self):
        for m, attr, obj in reversed(self._undo):
            setattr(m, attr, obj)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
