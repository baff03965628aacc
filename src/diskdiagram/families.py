"""Generator for a corpus of realizable partially ordered graphs.

Construction principle: a root tree is drawn with its attachment
vertices on the circle; the gaps between consecutive attachments are
pockets that alternately face up and down.  A pocket holds either a
single extremum vertex one level away or a nested tree one level away
whose own gaps recurse.  Walking the circle and inserting pocket
contents yields the boundary cycle; every adjacent boundary pair then
crosses levels, so the boundary cycle is order-comparable throughout,
trees stay level, and all structural conditions hold by construction.

Each shape yields two instances: a `minimal` order (the transitive
closure of boundary adjacencies, lifted to whole level blocks) and a
`saturated` order (full comparison of grammar levels).  Saturated
orders always satisfy the order-congruence condition; minimal orders
fail it whenever sibling pockets carry structure of different depth.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph import build_graph

EXT = ("ext", 0, ())


def chord(content):
    return ("chord", 2, (content,))


def star4(p1, p2, p3):
    """Nested four-arm star: three pockets facing out, in, out."""
    return ("star", 4, (p1, p2, p3))


def dstar6(p1, p2, p3, p4, p5):
    """Two joined four-valent centers with six arms: five pockets."""
    return ("dstar", 6, (p1, p2, p3, p4, p5))


def content_label(c):
    kind, arms, children = c
    if kind == "ext":
        return "e"
    inner = ",".join(content_label(x) for x in children)
    short = {"chord": "c", "star": "s", "dstar": "d"}[kind]
    return f"{short}{arms}({inner})"


@dataclass(frozen=True)
class FamilySpec:
    name: str
    root_kind: str  # "chord" | "star" | "dstar"
    root_arms: int
    pockets: tuple  # root_arms content trees, alternating up/down from pocket 0


class _Builder:
    def __init__(self):
        self.gamma = []
        self.edges = []
        self.level = {}
        self.block_of = {}
        self.blocks = []
        self.interior = []
        self._tree_count = 0
        self._ext_count = 0

    def _new_block(self, vertices):
        bid = len(self.blocks)
        self.blocks.append(tuple(vertices))
        for v in vertices:
            self.block_of[v] = bid
        return bid

    def make_tree(self, kind, arms, level):
        tid = self._tree_count
        self._tree_count += 1
        attaches = [f"t{tid}a{j}" for j in range(arms)]
        verts = list(attaches)
        edges = []
        if kind == "chord":
            if arms != 2:
                raise ValueError("chord trees have two arms")
            edges.append((attaches[0], attaches[1]))
        elif kind == "star":
            c = f"t{tid}c0"
            verts.append(c)
            self.interior.append(c)
            edges.extend((c, a) for a in attaches)
        elif kind == "dstar":
            if arms != 6:
                raise ValueError("double stars have six arms")
            c0, c1 = f"t{tid}c0", f"t{tid}c1"
            verts.extend([c0, c1])
            self.interior.extend([c0, c1])
            edges.append((c0, c1))
            edges.extend((c0, a) for a in attaches[:3])
            edges.extend((c1, a) for a in attaches[3:])
        else:
            raise ValueError(f"unknown tree kind {kind!r}")
        for v in verts:
            self.level[v] = level
        self.edges.extend(edges)
        self._new_block(verts)
        return attaches

    def emit_pocket(self, sign, parent_level, content):
        kind, arms, children = content
        level = parent_level + sign
        if kind == "ext":
            self._ext_count += 1
            v = f"x{self._ext_count - 1}"
            self.level[v] = level
            self.gamma.append(v)
            self._new_block([v])
            return
        attaches = self.make_tree(kind, arms, level)
        for j in range(arms):
            self.gamma.append(attaches[j])
            if j < arms - 1:
                self.emit_pocket(sign * (-1) ** j, level, children[j])

    def build_root(self, spec):
        if spec.root_kind == "chord":
            arms = 2
        else:
            arms = spec.root_arms
        if len(spec.pockets) != arms:
            raise ValueError("root needs one pocket per arm")
        attaches = self.make_tree(spec.root_kind, arms, 0)
        for j in range(arms):
            self.gamma.append(attaches[j])
            self.emit_pocket((-1) ** j, 0, spec.pockets[j])


def build_instance(spec, order_mode):
    """PoGraph for a family shape under one of the two order modes."""
    b = _Builder()
    b.build_root(spec)
    n = len(b.gamma)
    edges = [(b.gamma[i], b.gamma[(i + 1) % n]) for i in range(n)] + b.edges
    vertices = list(b.gamma) + [v for v in b.interior]
    if order_mode == "saturated":
        pairs = [
            (u, v)
            for u in vertices
            for v in vertices
            if b.level[u] < b.level[v]
        ]
    elif order_mode == "minimal":
        pairs = []
        for i in range(n):
            u, v = b.gamma[i], b.gamma[(i + 1) % n]
            if b.level[u] == b.level[v]:
                raise ValueError(
                    f"{spec.name}: boundary neighbors {u},{v} share a level"
                )
            lo, hi = (u, v) if b.level[u] < b.level[v] else (v, u)
            for x in b.blocks[b.block_of[lo]]:
                for y in b.blocks[b.block_of[hi]]:
                    pairs.append((x, y))
    else:
        raise ValueError(f"unknown order mode {order_mode!r}")
    return build_graph(vertices, edges, pairs)


def _spec(root_kind, root_arms, pockets):
    labels = ",".join(content_label(p) for p in pockets)
    name = f"{root_kind}{root_arms}[{labels}]"
    return FamilySpec(name, root_kind, root_arms, tuple(pockets))


def content_pool():
    """Eight pocket fillings of increasing depth."""
    e = EXT
    return (
        e,
        chord(e),
        star4(e, e, e),
        chord(chord(e)),
        chord(star4(e, e, e)),
        star4(chord(e), e, e),
        star4(e, chord(e), e),
        dstar6(e, e, e, e, e),
    )


def corpus_specs():
    """Deterministic list of 210 distinct corpus shapes (420 instances)."""
    pool = content_pool()
    e = EXT
    specs = []
    for up, down in product(pool, repeat=2):
        specs.append(_spec("chord", 2, (up, down)))
    for u1, u2 in product(pool, repeat=2):
        specs.append(_spec("star", 4, (u1, e, u2, e)))
    for u1, u2 in product(pool, repeat=2):
        specs.append(_spec("star", 6, (u1, e, u2, e, e, e)))
    for c in pool:
        specs.append(_spec("star", 8, (c, e, e, e, e, e, e, e)))
    for u1, u2, u3 in product((e, chord(e)), repeat=3):
        specs.append(_spec("dstar", 6, (u1, e, u2, e, u3, e)))
    specs.append(_spec("chord", 2, (chord(chord(chord(e))), e)))
    specs.append(_spec("chord", 2, (dstar6(chord(e), e, e, e, chord(e)), e)))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("corpus shape names collide")
    return specs


def nest(depth):
    """nest(0) = EXT, nest(d) = star4 of three copies of nest(d - 1)."""
    if depth == 0:
        return EXT
    inner = nest(depth - 1)
    return star4(inner, inner, inner)


def ladder_spec(depth):
    """Size-ladder shape star4[nest(d), EXT, nest(d), EXT].

    Valid by construction; the vertex count roughly triples per step
    (V = 23, 65, 191, 569 for d = 1..4).
    """
    return _spec("star", 4, (nest(depth), EXT, nest(depth), EXT))


def corpus_instances(specs=None):
    """Yield (spec, order_mode, graph) for the whole corpus."""
    if specs is None:
        specs = corpus_specs()
    for spec in specs:
        for order_mode in ("minimal", "saturated"):
            yield spec, order_mode, build_instance(spec, order_mode)
