"""Reference implementations that the package's faster code must match.

Each is the simple version that an optimized path in the package
replaced, kept here so tests can require equal results on the same
inputs: the order closure on frozensets, the A2 scan over every vertex
of every tree and A2 on full-width tree masks, the per-item validation
of a file's id lists and the file-to-graph path built on it, the tree
criterion that walks the path of every adjacent ring pair, the
rotation system that walks the subtree behind every tree edge, a
decomposition's tables built afresh from its trees, the
face polygon built point by point, the polyline
stitcher that scans for an unused segment with a generator, A1 by a
full cycle search, S2's separation by a scan of every pair of trees,
S3 by building every gap's arc, the masks below each element by
inverting the masks above bit by bit, the level heights from a peel of
every (block, block above) pair of the closure, the drawing check over
every pair of tree segments, each tree's Tutte system solved on its
own, the fan rows and convexity test of one polygon at a time, and the
level cut and SVG renderer that took one level and one number at a
time, and the CLI entry point that parsed every argv with the full
parser.  Besides these, a Prüfer sequence decoder gives the tests
labelled trees without a graph library.
"""
import json
import math
import random
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from diskdiagram.cli import make_parser
from diskdiagram.conditions import ConditionReport
from diskdiagram.errors import (
    DiskDiagramError,
    InvariantViolation,
    MalformedFile,
    OrderCycle,
    UnknownId,
)
from diskdiagram.graph import _NOT_XML, Cycle, adjacency, build_graph
from diskdiagram.orders import HeightAssignment, check_A4, lowest
from diskdiagram.realization import SAMPLES_PER_BOUNDARY_EDGE, SNAP, _rim_angle
from diskdiagram.svg import MARGIN, _color


def transitive_closure(pairs):
    """Reach map of a set of (a, b) pairs: element -> frozenset above it.

    Every element named in ``pairs`` gets an entry.  Each reach set is
    built once, after the sets of all its successors, as the union of its
    successors and their reach sets.  Raises OrderCycle when the pairs
    contain a cycle (see `topological_order`).
    """
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    reach = {}
    for v in reversed(topological_order(succ)):
        r = set()
        for s in succ.get(v, ()):
            if s not in r:
                r.add(s)
                r |= reach[s]
        reach[v] = frozenset(r)
    return reach


def topological_order(succ):
    """Elements in an order where every pair points forward (Kahn's pass).

    When the pass leaves elements over, OrderCycle names the loop closed
    by walking backwards from the smallest leftover element, always to
    its smallest leftover predecessor, listed upwards from its smallest
    element.
    """
    indeg = {}
    for a, bs in succ.items():
        indeg.setdefault(a, 0)
        for b in bs:
            indeg[b] = indeg.get(b, 0) + 1
    ready = [v for v, d in indeg.items() if d == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) == len(indeg):
        return order
    left = [v for v, d in indeg.items() if d]
    pred = {}
    for a in left:
        for b in succ.get(a, ()):
            pred.setdefault(b, []).append(a)
    walk = [min(left)]
    at = {walk[0]: 0}
    while (u := min(pred[walk[-1]])) not in at:
        at[u] = len(walk)
        walk.append(u)
    cycle = walk[at[u] :][::-1]
    k = cycle.index(min(cycle))
    raise OrderCycle(cycle[k:] + cycle[:k])


def flat(reach):
    """The (a, b) pairs of a reach map, for comparison with pair sets."""
    return {(a, b) for a, bs in reach.items() for b in bs}


def reach_sets(order):
    """element -> frozenset above it, for every element of ``order``."""
    return {v: order.above_names(v) for v in order.elements}


def check_A2(dec):
    """A2 by scanning every vertex against every tree on name sets."""
    g = dec.graph
    above = {v: frozenset() for v in g.vertices}
    above.update(transitive_closure(g.order.pairs))
    below = {v: set() for v in g.vertices}
    for u, ws in above.items():
        for w in ws:
            below[w].add(u)
    wits = []
    vertices = sorted(g.vertices)
    for t in dec.trees:
        for v in vertices:
            rest = t.vertices - {v}
            if not rest:
                continue
            lo = rest & below[v]
            hi = rest & above[v]
            if lo and lo != rest:
                wits.append(
                    f"tree {t.index} compares unevenly with {v}: "
                    f"{sorted(lo)[0]} < {v} but {sorted(rest - lo)[0]} is not"
                )
            if hi and hi != rest:
                wits.append(
                    f"tree {t.index} compares unevenly with {v}: "
                    f"{v} < {sorted(hi)[0]} but not {v} < {sorted(rest - hi)[0]}"
                )
        tv = sorted(t.vertices)
        for i, a in enumerate(tv):
            for b in tv[i + 1 :]:
                if b in above[a] or a in above[b]:
                    wits.append(f"tree {t.index} vertices {a}, {b} are comparable")
    for v in sorted(dec.interior_vertices()):
        d = g.degree(v)
        if d < 4 or d % 2:
            wits.append(f"interior vertex {v} has degree {d}; need even degree >= 4")
    return ConditionReport("A2", not wits, tuple(wits))


def check_A2_masks(dec):
    """A2 on the closure's masks, reading the members and the scanned
    vertices of every tree from full-width masks through `orders.bits`."""
    from diskdiagram.orders import bits

    g = dec.graph
    order = g.order
    elements, above, below = order.elements, order.above, order.below
    wits = []
    for t in dec.trees:
        tmask = order.mask(t.vertices)
        up_any = down_any = 0
        up_all = down_all = -1
        for u in t.vertices:
            up, down = above[u], below[u]
            up_any |= up
            up_all &= up
            down_any |= down
            down_all &= down
        scan = (up_any & ~up_all) | (down_any & ~down_all) | tmask
        for i in bits(scan):
            v = elements[i]
            rest = tmask & ~(1 << i)
            if not rest:
                continue
            lo = rest & below[v]
            hi = rest & above[v]
            if lo and lo != rest:
                wits.append(
                    f"tree {t.index} compares unevenly with {v}: "
                    f"{elements[lowest(lo)]} < {v} but {elements[lowest(rest & ~lo)]} is not"
                )
            if hi and hi != rest:
                wits.append(
                    f"tree {t.index} compares unevenly with {v}: "
                    f"{v} < {elements[lowest(hi)]} but not {v} < {elements[lowest(rest & ~hi)]}"
                )
        for i in bits(tmask):
            for j in bits((above[elements[i]] | below[elements[i]]) & tmask & (-2 << i)):
                wits.append(f"tree {t.index} vertices {elements[i]}, {elements[j]} are comparable")
    for v in sorted(dec.interior_vertices()):
        d = g.degree(v)
        if d < 4 or d % 2:
            wits.append(f"interior vertex {v} has degree {d}; need even degree >= 4")
    return ConditionReport("A2", not wits, tuple(wits))


def string_list(obj, field):
    """A file's id list, checked one item at a time."""
    if not isinstance(obj, list):
        raise MalformedFile(f"field '{field}' must be an array")
    for i, x in enumerate(obj):
        if not isinstance(x, str) or not x:
            raise MalformedFile(f"{field}[{i}] must be a non-empty string")
    return tuple(obj)


def pair_list(obj, field, known):
    """A file's list of id pairs, checked one item at a time."""
    if not isinstance(obj, list):
        raise MalformedFile(f"field '{field}' must be an array")
    out = []
    for i, item in enumerate(obj):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise MalformedFile(f"{field}[{i}] must be a pair of id strings")
        for x in item:
            if x not in known:
                raise UnknownId(x, f"{field}[{i}]")
        out.append((item[0], item[1]))
    return tuple(out)


def graph_file(text):
    """A file's (vertices, edges, order), each item checked in turn: the
    read `formats.load_graph_file` made before `formats.parse` took the
    file's lists without it."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
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
    vertices = string_list(doc["vertices"], "vertices")
    for i, v in enumerate(vertices):
        if m := _NOT_XML.search(v):
            raise MalformedFile(f"vertices[{i}] holds U+{ord(m.group()):04X}, not allowed in XML")
    for i, v in enumerate(vertices):
        if v in vertices[:i]:
            raise MalformedFile(f"duplicate vertex id '{v}'")
    edges = pair_list(doc["edges"], "edges", set(vertices))
    order = pair_list(doc["order"], "order", set(vertices))
    return vertices, edges, order


def parse(text):
    """`build_graph` on a file's checked lists: every file fault comes
    before any graph fault."""
    return build_graph(*graph_file(text))


def prufer_tree(seq):
    """The labelled tree on ``0 .. len(seq) + 1`` with Prüfer sequence
    ``seq``, as its sorted ``(u, v)`` pairs with ``u < v``: each entry
    joins the smallest remaining leaf to itself."""
    degree = [1] * (len(seq) + 2)
    for x in seq:
        degree[x] += 1
    out = []
    for x in seq:
        leaf = degree.index(1)
        out.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    out.append(tuple(v for v, d in enumerate(degree) if d == 1))
    return sorted(out)


def tree_path(adj, u, v):
    """The edges of the unique path joining u and v in a tree."""
    prev = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        for e in adj[x]:
            w = e.other(x)
            if w not in prev:
                prev[w] = (x, e)
                stack.append(w)
    path = []
    while prev[v] is not None:
        v, e = prev[v]
        path.append(e)
    return path


def tree_is_disk_planar(edges, ring):
    """Path-count criterion: every edge lies on exactly two of the paths
    joining circularly adjacent ring vertices."""
    edges = list(edges)
    ring = tuple(ring)
    adj = adjacency(edges)
    counts = {e: 0 for e in edges}
    for u, w in zip(ring, ring[1:] + ring[:1]):
        for e in tree_path(adj, u, w):
            counts[e] += 1
    return all(c == 2 for c in counts.values()), counts


def subtree_vertices(tree, root, first_edge):
    """Vertices reachable from `root` through `first_edge`, not via root."""
    out = set()
    stack = [first_edge.other(root)]
    while stack:
        u = stack.pop()
        if u in out:
            continue
        out.add(u)
        for e in tree.adj.get(u, ()):
            w = e.other(u)
            if w not in out and w != root:
                stack.append(w)
    return out


def sorted_tree_edges(tree, v, lin, cut):
    """Edges at `v` by the rebased start of the attachments behind each.

    `lin` maps each attachment to its ring index and `cut` is the ring
    index the order starts from.
    """
    k = len(lin)
    keyed = []
    for e in tree.adj.get(v, ()):
        block = {(lin[x] - cut) % k for x in subtree_vertices(tree, v, e) if x in lin}
        starts = [s for s in block if (s - 1) % k not in block]
        if len(starts) != 1:
            raise InvariantViolation(f"tree {tree.index}: no single stretch beyond {e}")
        keyed.append((starts[0], e))
    keyed.sort(key=lambda pair: pair[0])
    return tuple(e for _, e in keyed)


def decomposition_tables(dec):
    """A decomposition's tables built afresh from its trees and cycle:
    each tree index's adjacency by `graph.adjacency` over its edges, the
    boundary position of each cycle vertex, the tree of each tree
    vertex, and each tree index's attachments in cycle order."""
    adj = {t.index: adjacency(t.edges) for t in dec.trees}
    position = {v: i for i, v in enumerate(dec.gamma.vertices)}
    tree_at = {v: t for v in sorted(dec.graph.vertices) for t in dec.trees if v in t.vertices}
    rings = {
        t.index: tuple(v for v in dec.gamma.vertices if v in t.attach) for t in dec.trees
    }
    return adj, position, tree_at, rings


def rotation(dec):
    """The rotation system of `build_embedding`, in its vertex order."""
    gamma = dec.gamma
    lins = {t.index: {x: i for i, x in enumerate(dec.rings[t.index])} for t in dec.trees}
    out = {}
    for i, v in enumerate(gamma.vertices):
        e_next, e_prev = gamma.edges[i], gamma.edges[i - 1]
        t = dec.tree_at.get(v)
        if t is None:
            out[v] = (e_next, e_prev)
        else:
            lin = lins[t.index]
            out[v] = (e_next, *sorted_tree_edges(t, v, lin, lin[v]), e_prev)
    for t in dec.trees:
        lin = lins[t.index]
        for v in sorted(t.vertices - t.attach):
            out[v] = sorted_tree_edges(t, v, lin, lin[min(t.attach)])
    return out


def rim_points(n, k):
    """The rim samples of a boundary of ``n`` vertices, ``k`` per edge,
    computed afresh: row ``k * i + s`` is sample s of the edge from the
    i-th boundary vertex to the next, at the fraction ``s / k`` of its
    arc, by math's cos and sin."""
    th = _rim_angle(np.arange(n), n)[:, None] + np.arange(k) / k * (2 * math.pi / n)
    th = th.ravel().tolist()
    return np.array([[math.cos(a) for a in th], [math.sin(a) for a in th]]).T


def solve_tree_positions(tree, fixed):
    """Place one tree's interior vertices at the average of their
    neighbours, by one `np.linalg.solve` of this tree's system alone."""
    interior = sorted(tree.vertices - tree.attach)
    if not interior:
        return {}
    idx = {v: i for i, v in enumerate(interior)}
    k = len(interior)
    a = np.zeros((k, k))
    b = np.zeros((k, 2))
    for v in interior:
        i = idx[v]
        nbrs = [y if x == v else x for x, y, _ in tree.adj[v]]
        a[i, i] = len(nbrs)
        for w in nbrs:
            if w in idx:
                a[i, idx[w]] -= 1.0
            else:
                b[i] += fixed[w]
    sol = np.linalg.solve(a, b)
    return {v: sol[idx[v]] for v in interior}


def fan_faults(points, sizes):
    """Fan rows, faults and rings of stacked polygons, one polygon at a time.

    Polygon j holds the next ``sizes[j]`` rows of ``points``; returns the
    fan rows ``(first + 1, r, next(r))`` for every point r from the third
    on, whether each polygon is not strictly convex and counterclockwise
    or winds other than once, and each point's previous and next row.  A
    turn from u to v is flat when ``u[0] v[1] - u[1] v[0] <= 1e-12 |u| |v|``,
    with the lengths by `np.hypot`; a polygon is bad when a corner or a
    fan row's turn at point 1 is flat, or its edges do not turn upward
    (y from below 0 to at least 0) exactly once.
    """
    def flat(u, v):
        return u[0] * v[1] - u[1] * v[0] <= 1e-12 * np.hypot(u[0], u[1]) * np.hypot(v[0], v[1])

    rows, bad, prv, nxt = [], [], [], []
    first = 0
    for m in sizes:
        ring = list(range(first, first + m))
        prv += ring[-1:] + ring[:-1]
        nxt += ring[1:] + ring[:1]
        fan = [(first + 1, ring[r], ring[(r + 1) % m]) for r in range(2, m)]
        edge = [points[ring[(r + 1) % m]] - points[ring[r]] for r in range(m)]
        upward = sum(edge[r][1] < 0 <= edge[(r + 1) % m][1] for r in range(m))
        corners = any(flat(edge[r - 1], edge[r]) for r in range(m))
        fans = any(flat(points[b] - points[a], points[c] - points[a]) for a, b, c in fan)
        rows += fan
        bad.append(upward != 1 or corners or fans)
        first += m
    return np.array(rows, dtype=int).reshape(-1, 3), np.array(bad), (np.array(prv), np.array(nxt))


def arc_points(dart, heights, position):
    """Sample positions/values along one boundary edge, endpoint excluded."""
    u, e = dart
    w = e.other(u)
    n = len(position)
    if (position[w] - position[u]) % n != 1:
        raise InvariantViolation("inner face traverses the boundary backwards")
    th0 = _rim_angle(position[u], n)
    step = 2 * math.pi / n
    hu, hw = heights.value[u], heights.value[w]
    pts, vals = [], []
    for s in range(SAMPLES_PER_BOUNDARY_EDGE):
        t = s / SAMPLES_PER_BOUNDARY_EDGE
        th = th0 + t * step
        pts.append((math.cos(th), math.sin(th)))
        vals.append((1 - t) * hu + t * hw)
    return pts, vals


def face_polygon(runs, emb, heights):
    """Polygon points, values and keys of a face, run after run.

    Each boundary edge contributes its rim samples and each tree path
    its vertices, up to the final endpoint.  A point's key is the graph
    vertex drawn there (a path vertex, or the first sample of a boundary
    edge), else None.
    """
    position = emb.decomposition.position
    pts, vals, keys = [], [], []
    for kind, darts in runs:
        for u, e in darts:
            if kind == "arc":
                ps, vs = arc_points((u, e), heights, position)
                keys += [u] + [None] * (len(ps) - 1)
            else:
                ps, vs = [tuple(emb.coords[u])], [heights.value[u]]
                keys.append(u)
            pts += ps
            vals += vs
    return np.array(pts), np.array(vals), tuple(keys)


def stitch(segments):
    """Join segments into maximal polylines by their endpoint keys.

    Each segment is ``(key_a, key_b, point_a, point_b)``; two segments
    join where they share a key.  Polylines are sorted by first point.
    """
    by_key = {}
    for i, (ka, kb, _, _) in enumerate(segments):
        by_key.setdefault(ka, []).append(i)
        by_key.setdefault(kb, []).append(i)
    used = [False] * len(segments)
    polylines = []
    for start, (ka, kb, a, b) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        forward, backward = [b], [a]
        for cur, tail in ((kb, forward), (ka, backward)):
            while True:
                i = next((i for i in by_key[cur] if not used[i]), None)
                if i is None:
                    break
                used[i] = True
                qa, qb, pa, pb = segments[i]
                if qa == cur:
                    tail.append(pb)
                    cur = qb
                else:
                    tail.append(pa)
                    cur = qa
        polylines.append(backward[::-1] + forward)
    polylines.sort(key=lambda ch: ch[0])
    return polylines


def bits(mask):
    """Indices of the set bits of ``mask``, ascending: the lowest set bit
    is read and cleared until none is left."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def below(order):
    """v -> mask of every u with u < v, one OR per closure pair."""
    index = order.index
    out = [0] * len(order.elements)
    for v, m in order.above.items():
        bit = 1 << index[v]
        for j in bits(m):
            out[j] |= bit
    return dict(zip(order.elements, out))


def assign_heights(g, dec, mode="default", seed=None):
    """Level heights from the closure: every block's successors are the
    blocks met in the OR of its members' masks above, one block at a time."""
    if mode not in ("default", "strict", "random"):
        raise ValueError(f"unknown height mode {mode!r}")
    order = g.order
    above, elements = order.above, order.elements
    if mode == "strict" and check_A4(order).passed:
        below = order.below
        classes = {}
        for v in elements:
            classes.setdefault((above[v], below[v]), set()).add(v)
        blocks = [frozenset(c) for c in classes.values()]
    else:
        blocks = [frozenset(t.vertices) for t in dec.trees]
        blocks += [frozenset({v}) for v in dec.gamma.vertices if v not in dec.tree_at]
    block_of = {}
    for i, b in enumerate(blocks):
        for v in b:
            if v in block_of:
                raise InvariantViolation(f"vertex {v} lies in two level blocks")
            block_of[v] = i
    if set(block_of) != set(g.vertices):
        missing = sorted(set(g.vertices) - set(block_of))
        raise InvariantViolation(f"vertex {missing[0]} belongs to no level block")
    masks = [order.mask(b) for b in blocks]
    succ = {}
    indeg = [0] * len(blocks)
    for i, b in enumerate(blocks):
        up = 0
        for v in b:
            up |= above[v]
        if up & masks[i]:
            u = min(v for v in b if above[v] & masks[i])
            w = elements[lowest(above[u] & masks[i])]
            raise InvariantViolation(f"comparable vertices {u} < {w} fell into one level block")
        succ[i] = set()
        while up:
            j = block_of[elements[lowest(up)]]
            up &= ~masks[j]
            succ[i].add(j)
            indeg[j] += 1
    rep = {i: min(blocks[i]) for i in range(len(blocks))}
    available = sorted((rep[i], i) for i, d in enumerate(indeg) if d == 0)
    rng = random.Random(seed) if mode == "random" else None
    ordered = []
    while available:
        if rng is None:
            _, i = available.pop(0)
        else:
            _, i = available.pop(rng.randrange(len(available)))
        ordered.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                insort(available, (rep[j], j))
    if len(ordered) != len(blocks):
        raise InvariantViolation("level-block order contains a cycle")
    height_of_block = {i: float(step) for step, i in enumerate(ordered)}
    value = {v: height_of_block[block_of[v]] for v in g.vertices}
    return HeightAssignment(value, tuple(blocks[i] for i in ordered))


def enumerate_simple_cycles(vertices, edges):
    """Every simple cycle by depth-first search from each start vertex.

    The 2-cycles of parallel edges come first, keys ascending.  Then the
    search runs from each start in name order over the 2-core of the
    vertices not yet searched, keeping a path only when its second
    vertex is smaller than its last, and drops the start afterwards.
    """
    verts = sorted(set(vertices))
    incident = {v: () for v in verts} | adjacency(edges)
    cycles = []
    by_ends = {}
    for e in edges:
        by_ends.setdefault((e.a, e.b), []).append(e)
    for (a, b), group in sorted(by_ends.items()):
        group.sort()
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                cycles.append(Cycle((a, b), (group[i], group[j])))
    live = {v: len(es) for v, es in incident.items()}
    alive = set(verts)

    def drop(v):
        alive.discard(v)
        todo = [v]
        while todo:
            u = todo.pop()
            for e in incident[u]:
                w = e.other(u)
                if w in alive:
                    live[w] -= 1
                    if live[w] < 2:
                        alive.discard(w)
                        todo.append(w)

    for v in verts:
        if v in alive and live[v] < 2:
            drop(v)
    for s in verts:
        if s not in alive:
            continue
        path_v, path_e, used_e, on_path = [s], [], set(), {s}
        stack = [iter(incident[s])]
        while stack:
            e = next(stack[-1], None)
            if e is None:
                stack.pop()
                if path_e:
                    used_e.discard(path_e.pop())
                    on_path.discard(path_v.pop())
                continue
            if e in used_e:
                continue
            w = e.other(path_v[-1])
            if w not in alive:
                continue
            if w == s:
                if len(path_v) >= 3 and path_v[1] < path_v[-1]:
                    cycles.append(Cycle(tuple(path_v), tuple(path_e) + (e,)))
                continue
            if w in on_path:
                continue
            path_v.append(w)
            path_e.append(e)
            used_e.add(e)
            on_path.add(w)
            stack.append(iter(incident[w]))
        drop(s)
    return cycles


def check_A1(g):
    """A1 from the full search of the comparable edges, counted up to 100."""
    comparable = [e for e in g.edges if g.order.comparable(e.a, e.b)]
    crs = enumerate_simple_cycles(g.vertices, comparable)
    if len(crs) == 1:
        return ConditionReport("A1", True), crs[0]
    if not crs:
        return ConditionReport("A1", False, ("no cycle with all adjacent pairs comparable",)), None
    count = "more than 100" if len(crs) > 100 else len(crs)
    wits = tuple(f"cycle {'-'.join(c.vertices)}" for c in crs[:4])
    return ConditionReport("A1", False, (f"{count} qualifying cycles",) + wits), None


def separation_ok(dec):
    """For every ordered pair of trees, the gaps of one that the other's
    attachments fall in; the first pair with two gaps is the witness."""
    pos = dec.position
    for m, t in enumerate(dec.trees):
        pa = [pos[v] for v in dec.rings[t.index]]
        for n_, other in enumerate(dec.trees):
            if n_ == m:
                continue
            gaps = {}
            for b in sorted(other.attach):
                gap = bisect_left(pa, pos[b]) % len(pa)
                gaps.setdefault(gap, b)
            if len(gaps) > 1:
                reps = sorted(gaps.values())[:2]
                return False, (m, n_, reps[0], reps[1])
    return True, None


@dataclass(frozen=True)
class BoundaryPair:
    tree_index: int
    pair: tuple  # (v1, v2) attachments of the tree, sorted
    alpha: tuple  # vertices of the open arc between them, from v1
    tilde: tuple  # cycle-neighbors of v1 and v2 inside alpha


def boundary_pairs(dec, tree_index):
    """Attachment pairs of one tree that face foreign attachments.

    Every gap of the tree's ring (the open arc between two attachments
    consecutive in it) with its whole arc, scanned for an attachment of
    any tree; a tree with two attachments has two gaps, and when both
    qualify the pair appears once per arc."""
    ring = dec.rings[dec.trees[tree_index].index]
    vs = dec.gamma.vertices
    n = len(vs)
    out = []
    for va, vb in zip(ring, ring[1:] + ring[:1]):
        a, b = dec.position[va], dec.position[vb]
        arc = tuple(vs[(a + k) % n] for k in range(1, (b - a) % n))
        if not any(x in dec.tree_at for x in arc):
            continue
        if va < vb:
            out.append(BoundaryPair(tree_index, (va, vb), arc, (arc[0], arc[-1])))
        else:
            out.append(BoundaryPair(tree_index, (vb, va), arc[::-1], (arc[-1], arc[0])))
    out.sort(key=lambda bp: (bp.pair, bp.alpha))
    return out


def check_S3(dec):
    """S3 from the arc-building `boundary_pairs`."""
    wits = []
    for t in dec.trees:
        for bp in boundary_pairs(dec, t.index):
            t1, t2 = (dec.tree_at.get(x) for x in bp.tilde)
            if t1 is None or t2 is None:
                missing = [x for x, tr in zip(bp.tilde, (t1, t2)) if tr is None]
                wits.append(
                    f"pair {bp.pair} of tree {t.index}: neighbor {missing[0]} attaches no tree"
                )
            elif t1.index != t2.index:
                wits.append(
                    f"pair {bp.pair} of tree {t.index}: neighbors {bp.tilde} attach "
                    f"different trees {t1.index} and {t2.index}"
                )
    return ConditionReport("S3", not wits, tuple(wits))


def seg_point_dist(p, a, b):
    """Distance from points ``p`` to segments ``a``-``b`` of positive length.

    The last axis holds (x, y); the others broadcast, so one call gives
    every point against every segment of a block.
    """
    d = b - a
    pa = p - a
    t = (pa[..., 0] * d[..., 0] + pa[..., 1] * d[..., 1]) / (
        d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    )
    t = np.clip(t, 0.0, 1.0)[..., None]
    off = p - (a + t * d)
    return np.hypot(off[..., 0], off[..., 1])


def _straddle(u, v):
    """Where one side value exceeds 1e-12 and the other is below -1e-12."""
    return (np.minimum(u, v) < -1e-12) & (np.maximum(u, v) > 1e-12)


_CHUNK = 128  # rows per broadcast block in `coords_valid`


def coords_valid(dec, coords):
    """True when the drawing has no degeneracy; four predicates reject it.

    The global pair check the package ran before it certified drawings
    face by face:

    - two vertices at distance ``<= SNAP``;
    - an interior tree vertex at radius ``>= 1 - 1e-7``;
    - a vertex within ``SNAP`` of a tree segment it does not end;
    - two tree segments that share an end and leave it in one direction
      (``|cross| <= 1e-12`` and a positive dot product), or two that
      share none and cross strictly (each one's ends lie on both sides
      of the other, with sign margin ``1e-12``).

    The sign test is run on every segment pair: at a shared end one of
    its cross products is exactly 0, since both segments hold the same
    coordinates there, so it never fires.  Pairs are broadcast in blocks
    of `_CHUNK` rows.
    """
    names = sorted(coords)
    pos = {v: i for i, v in enumerate(names)}
    p = np.array([coords[v] for v in names])
    x, y = p[:, 0], p[:, 1]
    n = len(names)
    for lo in range(0, n, _CHUNK):
        i = slice(lo, lo + _CHUNK)
        dist = np.hypot(x[i, None] - x[lo:], y[i, None] - y[lo:])
        if np.triu(dist <= SNAP, 1).any():
            return False
    inner = [pos[v] for t in dec.trees for v in t.vertices - t.attach]
    if (np.hypot(x[inner], y[inner]) >= 1.0 - 1e-7).any():
        return False
    ends = np.array(
        [(pos[e.a], pos[e.b]) for t in dec.trees for e in t.edges], dtype=int
    ).reshape(-1, 2)
    ia, ib = ends[:, 0], ends[:, 1]
    s = len(ends)
    for lo in range(0, s, _CHUNK):
        rows = np.arange(lo, min(lo + _CHUNK, s))
        near = seg_point_dist(p, p[ia[rows], None], p[ib[rows], None]) <= SNAP
        near[rows - lo, ia[rows]] = False
        near[rows - lo, ib[rows]] = False
        if near.any():
            return False
    others = {}
    for a, b in ends.tolist():
        others.setdefault(a, []).append(b)
        others.setdefault(b, []).append(a)
    corners = [
        (v, o1, o2)
        for v, nbrs in others.items()
        for k, o1 in enumerate(nbrs)
        for o2 in nbrs[k + 1 :]
    ]
    if corners:
        v, o1, o2 = np.array(corners).T
        u1, u2 = p[o1] - p[v], p[o2] - p[v]
        dot = (u1 * u2).sum(axis=1)
        cross = u1[:, 0] * u2[:, 1] - u1[:, 1] * u2[:, 0]
        if ((np.abs(cross) <= 1e-12) & (dot > 0)).any():
            return False
    ax, ay, bx, by = x[ia], y[ia], x[ib], y[ib]
    dx, dy = bx - ax, by - ay
    for lo in range(0, s, _CHUNK):
        i = slice(lo, lo + _CHUNK)
        j = slice(lo, None)
        # sides of segment i's ends against segment j, and of j's against i
        d1 = dx[j] * (ay[i, None] - ay[j]) - dy[j] * (ax[i, None] - ax[j])
        d2 = dx[j] * (by[i, None] - ay[j]) - dy[j] * (bx[i, None] - ax[j])
        d3 = dx[i, None] * (ay[j] - ay[i, None]) - dy[i, None] * (ax[j] - ax[i, None])
        d4 = dx[i, None] * (by[j] - ay[i, None]) - dy[i, None] * (bx[j] - ax[i, None])
        if (_straddle(d1, d2) & _straddle(d3, d4)).any():
            return False
    return True


def _stacked(f):
    """Every face map's points, values and triangles stacked, with point keys.

    A point whose id (``point_ids``) names a graph vertex is keyed by
    the vertex name, any other point by its row in the stack.
    """
    names = sorted(f.embedding.coords)
    keys = [names[i] if i < len(names) else row for row, i in enumerate(f.point_ids.tolist())]
    pts, vals, tris = [], [], []
    offset = 0
    for fm in f.face_maps:
        pts.append(fm.points)
        vals.append(fm.values)
        tris.append(fm.triangles + offset)
        offset += len(fm.points)
    return (
        np.concatenate(pts).reshape(-1, 2),
        np.concatenate(vals),
        np.concatenate(tris).reshape(-1, 3),
        keys,
    )


def level_set(f, c):
    """Polylines of the level {f = c}, one level at a time with tuple keys.

    Each crossed triangle gives one segment between its two crossed
    edges.  A crossing at an edge end whose value is c is keyed as that
    point, an interior crossing by the edge's two point rows; zero-length
    segments and segments along a tree edge are dropped, and every tree
    at level c is added from its drawn edges.
    """
    coords = f.embedding.coords
    p, v, tris, names = _stacked(f)
    tree_edges = {
        pair
        for t in f.decomposition.trees
        for e in t.edges
        for pair in ((e.a, e.b), (e.b, e.a))
    }
    polylines = []
    for t in f.decomposition.trees:
        if abs(f.heights.level(t) - c) <= SNAP:
            edges = [
                (e.a, e.b, tuple(coords[e.a].tolist()), tuple(coords[e.b].tolist()))
                for e in sorted(t.edges)
            ]
            polylines.extend(stitch(edges))
    above = v[tris] > c
    n_above = above.sum(axis=1)
    hit = np.nonzero((n_above == 1) | (n_above == 2))[0]
    side = above[hit]
    k = np.where(n_above[hit] == 1, side.argmax(axis=1), side.argmin(axis=1))
    lone = tris[hit, k]
    ends = []
    for step in (1, 2):
        other = tris[hit, (k + step) % 3]
        lo, hi = np.minimum(lone, other), np.maximum(lone, other)
        t = (c - v[lo]) / (v[hi] - v[lo])
        pts = p[lo] + t[:, None] * (p[hi] - p[lo])
        at_lo = v[lo] == c
        at_hi = v[hi] == c
        pts[at_lo] = p[lo[at_lo]]
        pts[at_hi] = p[hi[at_hi]]
        rows = zip(lo.tolist(), hi.tolist(), at_lo.tolist(), at_hi.tolist())
        keys = [names[i] if a else names[j] if b else (i, j) for i, j, a, b in rows]
        ends.append((pts.tolist(), keys))
    (pts_a, keys_a), (pts_b, keys_b) = ends
    segments = [
        (ka, kb, tuple(a), tuple(b))
        for a, b, ka, kb in zip(pts_a, pts_b, keys_a, keys_b)
        if a != b and (ka, kb) not in tree_edges
    ]
    polylines.extend(stitch(segments))
    return polylines


def _fmt(x):
    if abs(x) < 5e-5:
        x = 0.0
    return f"{x:.4f}"


def _to_svg(p, size):
    x = (p[0] + MARGIN) / (2 * MARGIN) * size
    y = (MARGIN - p[1]) / (2 * MARGIN) * size
    return x, y


def render_svg(f, levels=5, size=600.0):
    """The SVG drawn line by line, every number formatted by itself.

    Vertex names are XML-escaped; otherwise this is the renderer the
    package used before it formatted all numbers in one step.
    """
    coords = f.embedding.coords
    heights = f.heights
    values = sorted(set(heights.value.values()))
    lo, hi = values[0], values[-1]
    span = hi - lo or 1.0
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">'
    )
    out.append('<g fill="none" stroke-linejoin="round" stroke-linecap="round">')
    cx, cy = _to_svg((0.0, 0.0), size)
    radius = size / (2 * MARGIN)
    out.append(
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        f'stroke="#202020" stroke-width="2"/>'
    )
    level_values = [
        lo + (k + 1) * span / (levels + 1) for k in range(max(0, levels))
    ]
    for c in level_values:
        color = _color((c - lo) / span)
        for chain in level_set(f, c):
            pts = " ".join(
                f"{_fmt(px)},{_fmt(py)}"
                for px, py in (_to_svg(p, size) for p in chain)
            )
            out.append(
                f'<polyline class="level" points="{pts}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
    for t in f.decomposition.trees:
        for e in sorted(t.edges):
            x1, y1 = _to_svg(coords[e.a], size)
            x2, y2 = _to_svg(coords[e.b], size)
            out.append(
                f'<line class="tree" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#101010" stroke-width="2.5"/>'
            )
    out.append("</g>")
    out.append('<g font-family="monospace" font-size="12" fill="#000000">')
    for v in sorted(coords):
        x, y = _to_svg(coords[v], size)
        out.append(
            f'<circle class="vertex" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" '
            f'fill="#000000"/>'
        )
        out.append(
            f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}">'
            f"{escape(v)}={_fmt(heights.value[v])}</text>"
        )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cli_main(argv=None):
    """`cli.main` by the nested parse: the full parser's `parse_args`, whose
    command action then runs that command's parser on the rest of argv."""
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiskDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
