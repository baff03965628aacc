"""Disk embeddings: trees against a marked circle, then whole graphs.

A tree is *disk-planar* for a ring, a sequence of distinct vertices
read in circular order that contains all its leaves, when it embeds in
the closed disk with exactly the ring's vertices on the boundary circle,
in the ring's circular sequence.  The whole graph embeds when every
complement tree is disk-planar for its attachments in boundary order
and distinct trees occupy nested, non-interleaving portions of the
boundary.

Condition S2 (`conditions.check_S2`) reads both tests from here: the
per-tree criterion `_run_counts` and the interleaving test
`separation_ok`.  An accepted graph's rotation system and faces come
from `build_embedding`.  This module reads no condition.

The criterion and `build_embedding` read one walk per tree,
`graph._beyond`, which gives every dart the ring vertices lying past it
as a bitmask; a decomposition builds each tree's masks once, from the
adjacency that `graph.decompose` gives the tree and the rings that
`graph.Decomposition` builds.  A tree edge lies on the path between two
circularly adjacent ring vertices exactly when it separates them, so
the number of such paths through it is twice the number of circular
runs that the ring vertices beyond it form; the tree is disk-planar
when every edge cuts off a single run.  `build_embedding` orders the
edges at each tree vertex by where the run beyond each edge starts, and
certifies the rotation system by tracing faces: the Euler relation must
hold and the boundary cycle must bound a face.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .errors import (
    InvariantViolation,
    NotInTree,
    NotPlanar,
    TerminalNotInVstar,
)
from .graph import _beyond, adjacency


def _validate_tree_input(edges, ring):
    marked = set(ring)
    if len(marked) != len(ring):
        raise ValueError(f"repeated vertex in ring {list(ring)}")
    adj = adjacency(edges)
    for v in ring:
        if v not in adj:
            raise NotInTree(v)
    for v, es in adj.items():
        if len(es) == 1 and v not in marked:
            raise TerminalNotInVstar(v)
    return adj


def _run_starts(m, k):
    """Bits of ``m`` that start a circular run of set bits in a k-bit ring."""
    return m & ~((m << 1 | m >> (k - 1)) & ((1 << k) - 1))


def tree_is_disk_planar(edges, ring):
    """Run-count criterion with per-edge diagnostics.

    ``ring`` lists the boundary vertices in circular order.  An edge
    lies on the tree path of a circularly adjacent ring pair exactly
    when it separates the pair, so its count of such paths is twice the
    number of circular runs of ring vertices beyond it; the tree embeds
    iff every count is 2.  A ring of two vertices, whose tree is the
    path between them, has one ring vertex beyond each side of every
    edge and so always embeds.  An edge the walk never crosses, which
    only an input with a cycle has, counts 0.
    """
    edges = list(edges)
    ring = tuple(ring)
    return _run_counts(_beyond(_validate_tree_input(edges, ring), ring), len(ring), edges)


def _run_counts(beyond, k, edges):
    """`tree_is_disk_planar` from the `_beyond` masks of a ring of ``k``
    vertices, such as a decomposed tree's."""
    counts = {e: 2 * _run_starts(beyond.get((e[0], e), 0), k).bit_count() for e in edges}
    return all(c == 2 for c in counts.values()), counts


def _contains_cyclic_subsequence(walk, target):
    """Does the cyclic sequence `walk` contain `target` in circular order?"""
    n, k = len(walk), len(target)
    if k == 0:
        return True
    doubled = walk + walk
    for i in range(n):
        if walk[i] != target[0]:
            continue
        pos = i
        ok = True
        for item in target[1:]:
            pos += 1
            while pos < i + n and doubled[pos] != item:
                pos += 1
            if pos >= i + n:
                ok = False
                break
        if ok:
            return True
    return False


def _contour_sequence(adj, rotation, start_dart):
    """Tail sequence of the single closed walk around a tree drawing."""
    seq = []
    dart = start_dart
    while True:
        u, e = dart
        seq.append(u)
        v = e.other(u)
        rot = rotation[v]
        i = rot.index(e)
        dart = (v, rot[(i - 1) % len(rot)])
        if dart == start_dart:
            return seq


# the most rotation systems `brute_force_tree_embedding` tries; a tree
# of at most 8 vertices, the trees census's bound, has at most 6! = 720
_MAX_ROTATIONS = 10**6


def brute_force_tree_embedding(edges, ring):
    """Ground-truth check by exhaustive rotation-system search.

    Enumerates every cyclic edge order at every vertex, walks the single
    contour of the tree drawing, and accepts when the contour passes the
    ring's vertices in the ring's circular sequence (one visit per
    vertex).  Mirror drawings arise as reversed rotation systems, so the
    requested sequence alone covers both orientations.  Raises
    ValueError for a tree with more than 10**6 rotation systems.
    """
    edges = list(edges)
    ring = tuple(ring)
    adj = _validate_tree_input(edges, ring)
    if len(ring) < 3:
        return True
    marked = set(ring)
    total = 1
    for es in adj.values():
        total *= factorial(len(es) - 1)
    if total > _MAX_ROTATIONS:
        raise ValueError(f"{total} rotation systems exceed the search's bound of {_MAX_ROTATIONS}")
    order = sorted(adj)
    choices = []
    for v in order:
        es = adj[v]
        if len(es) <= 2:
            choices.append([tuple(es)])
        else:
            choices.append([(es[0],) + p for p in itertools.permutations(es[1:])])
    e0 = edges[0]
    start = (min(e0.a, e0.b), e0)
    for combo in itertools.product(*choices):
        rotation = dict(zip(order, combo))
        walk = [v for v in _contour_sequence(adj, rotation, start) if v in marked]
        if _contains_cyclic_subsequence(walk, list(ring)):
            return True
    return False


def separation_ok(dec):
    """Every tree's attachments must sit inside one gap of every other tree's.

    Returns ``(True, None)``, or ``(False, (m, n, b1, b2))`` when tree
    ``n`` has attachments ``b1`` and ``b2`` in two gaps of tree ``m``.

    Tree ``n`` spans two gaps of tree ``m`` exactly when the two
    interleave around the boundary: their attachments read m, n, m, n
    in circular order.  Every rotation of that pattern is again such a
    pattern, so reading the tree labels once around the boundary from
    any start decides it, like brackets: a label is pushed where it is
    first met, must be on top of the stack wherever it is met again,
    and is popped at its last attachment.  A label met again below the
    top lies under an open label u pushed after it, which gives the
    pattern t, u, t, u; and in a pattern m, n, m, n the second m is met
    while n is open above it.  The walk names its witness where it
    stops: an attachment ``v`` of tree ``t``, not its first, met while
    tree ``u`` is on top was opened after ``t``'s first attachment and
    closes after ``v``, so ``(u, t, rings[t][0], v)`` has ``t`` in two
    gaps of ``u``.  The pair depends on where ``gamma`` starts; A1 lists
    ``gamma`` from its smallest vertex, so it is a function of the input.
    """
    tree_at, rings = dec.tree_at, dec.rings
    stack = []
    for v in dec.gamma.vertices:
        t = tree_at.get(v)
        if t is None:
            continue
        ring = rings[t.index]
        if v == ring[0]:
            stack.append(t.index)
        elif stack[-1] != t.index:
            return False, (stack[-1], t.index, ring[0], v)
        if v == ring[-1]:
            stack.pop()
    return True, None


@dataclass(frozen=True)
class Face:
    index: int
    darts: tuple  # ((tail, Edge), ...) in walk order
    is_outer: bool
    runs: tuple  # (("arc"|"path", (dart, ...)), ...) cyclic decomposition

    def arc_count(self):
        return sum(1 for kind, _ in self.runs if kind == "arc")


@dataclass(frozen=True)
class DiskEmbedding:
    decomposition: object
    rotation: dict  # vertex -> tuple of incident edges, counterclockwise
    faces: tuple
    outer_index: int
    dart_face: dict  # (tail, Edge) -> face index
    coords: dict | None = None

    @property
    def outer(self):
        return self.faces[self.outer_index]


def trace_faces(rotation, edges):
    """Orbit decomposition of darts under the face-successor map."""
    pos = {v: {e: i for i, e in enumerate(rs)} for v, rs in rotation.items()}
    darts = sorted((u, e) for e in edges for u in (e[0], e[1]))
    dart_face = {}
    walks = []
    for d0 in darts:
        if d0 in dart_face:
            continue
        walk = []
        d = d0
        while True:
            if d in dart_face:
                raise InvariantViolation(f"face walk re-enters dart {d}")
            dart_face[d] = len(walks)
            walk.append(d)
            u, e = d
            v = e[1] if e[0] == u else e[0]
            rot = rotation[v]
            d = (v, rot[(pos[v][e] - 1) % len(rot)])
            if d == d0:
                break
        walks.append(tuple(walk))
    return walks, dart_face


def _sorted_tree_edges(tree, v, beyond, ring, first):
    """Incident tree edges ordered by where their far attachments start.

    ``beyond`` holds the `_beyond` masks of the tree's ``ring``, which
    is read from its attachment `first` on (``v`` itself at an
    attachment, the smallest attachment name at an interior vertex).
    The attachments beyond each edge must form one circular run (a
    consequence of disk-planarity), and edges are returned by the
    rebased start of their run.  No run is the whole circle: the runs of
    the edges at `v` partition its tree's attachments, every tree leaf
    is an attachment, and `v` has degree at least two.
    """
    k = len(ring)
    cut = ring.index(first)
    keyed = []
    for e in tree.adj[v]:
        start = _run_starts(beyond[v, e], k)
        if start & (start - 1) or not start:
            raise InvariantViolation(
                f"tree {tree.index}: attachments beyond {e} at {v} are "
                f"not one run of the boundary"
            )
        keyed.append(((start.bit_length() - 1 - cut) % k, e))
    keyed.sort(key=lambda pair: pair[0])
    return tuple(e for _, e in keyed)


def _face_runs(darts, gamma_edge_set, two_vertex_gamma):
    """Split a face walk into maximal boundary arcs and tree-path runs.

    The first run is always a boundary arc; when the walk has a tree
    path, arcs and paths alternate from there.
    """
    kinds = ["arc" if e in gamma_edge_set else "path" for _, e in darts]
    m = len(darts)
    if all(k == "arc" for k in kinds):
        if two_vertex_gamma:
            # the two parallel boundary edges count as two arcs meeting
            # at antipodal points
            return tuple(("arc", (d,)) for d in darts)
        return (("arc", tuple(darts)),)
    if all(k == "path" for k in kinds):
        raise InvariantViolation("face without any boundary edge")
    # rotate so the walk starts where a boundary arc begins
    start = next(i for i in range(m) if (kinds[i - 1], kinds[i]) == ("path", "arc"))
    darts = darts[start:] + darts[:start]
    kinds = kinds[start:] + kinds[:start]
    runs = []
    i = 0
    while i < m:
        j = i
        while j < m and kinds[j] == kinds[i]:
            j += 1
        runs.append((kinds[i], tuple(darts[i:j])))
        i = j
    return tuple(runs)


def build_embedding(dec):
    """Rotation system with the boundary cycle bounding the outer face.

    Boundary vertices interleave their tree edges between the two cycle
    edges, ordered by where the attachments beyond each edge land on the
    circle; interior tree vertices order edges by the circular stretch
    of attachments behind them.  The result is certified by face
    tracing: Euler relation, a face exactly matching the reversed
    boundary cycle, and every face touching the boundary.
    """
    g, gamma = dec.graph, dec.gamma
    n = len(gamma.vertices)
    beyond, rings, tree_at = dec._beyond_masks, dec.rings, dec.tree_at
    rotation = {}
    for i, v in enumerate(gamma.vertices):
        e_next, e_prev = gamma.edges[i], gamma.edges[i - 1]
        t = tree_at.get(v)
        if t is None:
            rotation[v] = (e_next, e_prev)
        else:
            tree_edges = _sorted_tree_edges(t, v, beyond[t.index], rings[t.index], v)
            rotation[v] = (e_next, *tree_edges, e_prev)
    for t in dec.trees:
        for v in sorted(t.vertices - t.attach):
            rotation[v] = _sorted_tree_edges(t, v, beyond[t.index], rings[t.index], min(t.attach))
    walks, dart_face = trace_faces(rotation, g.edges)
    n_faces = len(walks)
    if len(g.vertices) - len(g.edges) + n_faces != 2:
        raise NotPlanar(
            f"Euler relation fails: V={len(g.vertices)} E={len(g.edges)} "
            f"F={n_faces}"
        )
    # face walks are disjoint, so only the walk of one reversed boundary
    # dart can be the reversed boundary cycle
    outer_index = dart_face[(gamma.vertices[1 % n], gamma.edges[0])]
    reversed_gamma = {(gamma.vertices[(i + 1) % n], gamma.edges[i]) for i in range(n)}
    if set(walks[outer_index]) != reversed_gamma:
        raise NotPlanar("the boundary cycle does not bound a face")
    gamma_edges = gamma.edge_set()
    faces = []
    for idx, walk in enumerate(walks):
        if idx == outer_index:
            runs = (("arc", walk),)
        else:
            runs = _face_runs(walk, gamma_edges, n == 2)
        faces.append(Face(idx, walk, idx == outer_index, runs))
    return DiskEmbedding(dec, rotation, tuple(faces), outer_index, dart_face)


def face_arcs(emb):
    """Number of maximal boundary arcs on each inner face, in face order."""
    return [f.arc_count() for f in emb.faces if not f.is_outer]
