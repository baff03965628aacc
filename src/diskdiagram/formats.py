"""JSON input files and export formats.

The single input format is a JSON object with "vertices", "edges" and
"order" arrays; edges may repeat (parallel edges).  `load_graph_file`
stops at the syntactic level so files can be round-tripped without
validation.  `parse` shares its read of the document and the vertex
list, and hands the raw edge and order lists to `build_graph`.  Ids
reach SVG, Graphviz and UTF-8 text, so an id holding a character XML
1.0 cannot hold is refused as malformed; `to_dot` escapes quotes and
backslashes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import MalformedFile, UnknownId
from .graph import _NOT_XML, PoGraph, build_graph


@dataclass(frozen=True)
class GraphFile:
    """Syntactic content of an input file, before graph validation."""

    vertices: tuple
    edges: tuple  # of (u, v) pairs, repeats meaningful
    order: tuple  # of (u, v) pairs meaning u < v


def _pair_list(obj, field, known):
    if not isinstance(obj, list):
        raise MalformedFile(f"field '{field}' must be an array")
    for i, item in enumerate(obj):
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise MalformedFile(f"{field}[{i}] must be a pair of id strings")
        for x in item:
            if x not in known:
                raise UnknownId(x, f"{field}[{i}]")
    return tuple(map(tuple, obj))


def _document(text):
    """The text's three fields, once it is known to be a JSON object of them."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise MalformedFile("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise MalformedFile("top level must be an object")
    for field in ("vertices", "edges", "order"):
        if field not in doc:
            raise MalformedFile(f"missing field '{field}'")
    extra = sorted(set(doc) - {"vertices", "edges", "order"})
    if extra:
        raise MalformedFile(f"unknown field '{extra[0]}'")
    return doc["vertices"], doc["edges"], doc["order"]


def _checked(vertices, edges, order):
    """The three fields, checked one item at a time, as tuples (see `parse`)."""
    if not isinstance(vertices, list):
        raise MalformedFile("field 'vertices' must be an array")
    for i, v in enumerate(vertices):
        if not isinstance(v, str) or not v:
            raise MalformedFile(f"vertices[{i}] must be a non-empty string")
    for i, v in enumerate(vertices):
        if bad := _NOT_XML.search(v):
            raise MalformedFile(f"vertices[{i}] holds U+{ord(bad.group()):04X}, not allowed in XML")
    known = set()
    for v in vertices:
        if v in known:
            raise MalformedFile(f"duplicate vertex id '{v}'")
        known.add(v)
    return tuple(vertices), _pair_list(edges, "edges", known), _pair_list(order, "order", known)


def load_graph_file(text):
    """Parse JSON text (or bytes) into a GraphFile; syntax errors only."""
    return GraphFile(*_checked(*_document(text)))


def _all(obj, kind):
    return isinstance(obj, list) and set(map(type, obj)) <= {kind}


def parse(text):
    """File text straight to a validated PoGraph.

    The first fault is reported: a file fault (the document, the vertex
    list, then each edge pair and order pair in file order) with
    `load_graph_file`'s message, else `build_graph`'s in its sequence.
    The raw lists go to `build_graph` once passes in C find valid ids and
    only lists for pairs (a 2-character string would unpack as one); if
    the passes or the build fail, the file's own checks run first.
    """
    vertices, edges, order = _document(text)
    ids = _all(vertices, str) and all(vertices) and len(set(vertices)) == len(vertices)
    if not (ids and _all(edges, list) and _all(order, list)):
        return build_graph(*_checked(vertices, edges, order))  # names the fault they found
    try:
        return build_graph(vertices, edges, order)
    except Exception:  # a bad id fails the build too, so name the file's fault first
        _checked(vertices, edges, order)
        raise


def file_of_graph(g):
    edges = tuple((e.a, e.b) for e in g.edges)
    order = tuple(sorted(g.order.pairs))
    return GraphFile(tuple(sorted(g.vertices)), edges, order)


def serialize(obj):
    """Deterministic JSON text for a GraphFile or PoGraph."""
    gf = file_of_graph(obj) if isinstance(obj, PoGraph) else obj
    doc = {
        "vertices": list(gf.vertices),
        "edges": [list(p) for p in gf.edges],
        "order": [list(p) for p in gf.order],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _edge_name(e):
    return f"{e.a}--{e.b}#{e.key}"


def _dot_id(v):
    """``v`` as a quoted Graphviz id, its backslashes and quotes escaped."""
    return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g, heights=None):
    """Graphviz text; vertices of equal height share a rank."""
    lines = ["graph diagram {", "  rankdir=BT;"]
    if heights is not None:
        by_level = {}
        for v in g.vertices:
            by_level.setdefault(heights.value[v], []).append(v)
        for level in sorted(by_level):
            vs = " ".join(map(_dot_id, sorted(by_level[level])))
            lines.append(f"  {{ rank=same; {vs} }}")
    for v in sorted(g.vertices):
        lines.append(f"  {_dot_id(v)};")
    for e in sorted(g.edges):
        lines.append(f"  {_dot_id(e.a)} -- {_dot_id(e.b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def embedding_json(emb, heights=None):
    """Machine-readable embedding: rotations, faces, coordinates."""
    doc = {
        "boundary": list(emb.decomposition.gamma.vertices),
        "rotation": {
            v: [_edge_name(e) for e in emb.rotation[v]]
            for v in sorted(emb.rotation)
        },
        "faces": [
            {
                "index": f.index,
                "outer": f.is_outer,
                "darts": [[u, _edge_name(e)] for u, e in f.darts],
                "arcs": f.arc_count() if not f.is_outer else None,
            }
            for f in emb.faces
        ],
    }
    if emb.coords is not None:
        doc["coords"] = {
            v: [round(float(p[0]), 12) + 0.0, round(float(p[1]), 12) + 0.0]
            for v, p in sorted(emb.coords.items())
        }
    if heights is not None:
        doc["heights"] = {v: heights.value[v] for v in sorted(heights.value)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
