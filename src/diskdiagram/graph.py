"""Connected multigraphs with a strict partial order on vertices.

Parallel edges are first-class citizens: every edge carries a ``key``
disambiguating copies between the same endpoints, and a pair of parallel
edges counts as a simple cycle of length two.  Self-loops are rejected.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product
from math import prod
from operator import itemgetter

from .errors import (
    DegreeBelowTwo,
    DisconnectedGraph,
    DiskDiagramError,
    NotAForest,
    NotInTree,
    SelfLoop,
    UnknownId,
)
from .orders import StrictPartialOrder

# characters XML 1.0 cannot hold: C0 controls other than tab, newline
# and carriage return, lone surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class Edge(tuple):
    """An undirected edge; endpoints are stored sorted.

    The tuple ``(a, b, key)``, so hashing, equality and ordering run on
    the tuple; an Edge equals the plain tuple with the same fields.
    """

    __slots__ = ()

    def __new__(cls, a, b, key=0):
        if a == b:
            raise SelfLoop(a)
        if a > b:
            a, b = b, a
        return tuple.__new__(cls, (a, b, key))

    def __getnewargs__(self):
        return tuple(self)

    a = property(itemgetter(0), doc="the smaller endpoint")
    b = property(itemgetter(1), doc="the larger endpoint")
    key = property(itemgetter(2), doc="the number of this copy among parallel edges")

    def other(self, v):
        if v == self[0]:
            return self[1]
        if v == self[1]:
            return self[0]
        raise ValueError(f"{v!r} is not an endpoint of {self}")

    def touches(self, v):
        return v == self[0] or v == self[1]

    def __repr__(self):
        tag = f"#{self.key}" if self.key else ""
        return f"{self.a}-{self.b}{tag}"


def make_edges(pairs):
    """Assign keys to raw endpoint pairs, numbering parallel copies.

    Raises SelfLoop for the first pair whose endpoints are equal.
    """
    seen = {}
    out = []
    new = tuple.__new__  # an Edge of sorted ends, without a call to Edge()
    for u, v in pairs:
        if u == v:
            raise SelfLoop(u)
        if u > v:
            u, v = v, u
        k = seen.get((u, v), 0)
        seen[u, v] = k + 1
        out.append(new(Edge, (u, v, k)))
    return tuple(out)


def adjacency(edges):
    """Vertex -> sorted tuple of incident edges, for each vertex an edge touches."""
    adj = {}
    for e in edges:
        adj.setdefault(e.a, []).append(e)
        adj.setdefault(e.b, []).append(e)
    return {v: tuple(sorted(es)) for v, es in adj.items()}


@dataclass(frozen=True)
class Cycle:
    """A simple cycle: vertices[i] -- edges[i] -- vertices[i+1 mod n]."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        vs, es = self.vertices, self.edges
        n = len(vs)
        if n != len(es) or n < 2:
            raise ValueError("cycle needs matching vertex and edge sequences, length >= 2")
        # distinct vertices force distinct edges from length 3 on
        if len(set(vs)) != n:
            raise ValueError(f"cycle repeats a vertex: {vs}")
        if n == 2 and es[0] == es[1]:
            raise ValueError(f"2-cycle takes edge {es[0]} twice")
        for u, v, e in zip(vs, vs[1:] + vs[:1], es):
            if not ((u == e[0] or u == e[1]) and (v == e[0] or v == e[1])):
                raise ValueError(f"edge {e} does not join {u!r} and {v!r}")

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, v):
        return v in self.vertices

    def edge_set(self):
        return frozenset(self.edges)

    def canonical(self):
        """Representative tuple invariant under rotation and reflection."""
        n = len(self.vertices)
        m = min(self.vertices)
        best = None
        for seq_v, seq_e in (
            (self.vertices, self.edges),
            (
                tuple(reversed(self.vertices)),
                tuple(self.edges[(n - 2 - i) % n] for i in range(n)),
            ),
        ):
            for r in range(n):
                if seq_v[r] != m:
                    continue
                vs = tuple(seq_v[(r + i) % n] for i in range(n))
                es = tuple(seq_e[(r + i) % n] for i in range(n))
                cand = (vs, es)
                if best is None or cand < best:
                    best = cand
        return best

    def __hash__(self):
        return hash(self.canonical())

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.canonical() == other.canonical()


def _cycle(vertices, edges):
    """A Cycle that `enumerate_simple_cycles` has built right, without `Cycle`'s check."""
    c = object.__new__(Cycle)
    c.__dict__.update(vertices=vertices, edges=edges)
    return c


@dataclass(frozen=True)
class PoGraph:
    """A validated partially ordered multigraph."""

    vertices: frozenset
    edges: tuple
    order: StrictPartialOrder
    incident: dict = field(compare=False, repr=False)  # vertex -> its sorted edges

    def degree(self, v):
        return len(self.incident[v])


def build_graph(vertices, edge_pairs, order_pairs):
    """Validate and assemble a PoGraph.

    Checks, in this sequence: ids that XML 1.0 can hold, no self-loops,
    edge ends among the vertices, connectivity, minimum degree two, and
    order pairs of vertices that generate no cycle.  A library caller
    gets the first fault's error; `formats.parse` reports a file's own
    fault first, with `formats.load_graph_file`'s message.
    """
    vertices = frozenset(vertices)
    names = sorted(vertices)
    # one search in C over the joined names; the loop names the fault
    if _NOT_XML.search("".join(names)):
        v, bad = next((v, m) for v in names if (m := _NOT_XML.search(v)))
        raise DiskDiagramError(f"vertex id {v!r} holds U+{ord(bad.group()):04X}, not allowed in XML")
    edges = make_edges(edge_pairs)  # raises SelfLoop
    incident = {v: [] for v in names}
    try:
        # sorted once, so each vertex's list comes out sorted
        for e in sorted(edges):
            incident[e[0]].append(e)
            incident[e[1]].append(e)
    except KeyError:
        x = next(x for e in edges for x in e[:2] if x not in vertices)
        raise UnknownId(x, "edge list") from None
    incident = {v: tuple(es) for v, es in incident.items()}
    if names:
        comp = _component(incident, names[0])
        if len(comp) != len(names):
            raise DisconnectedGraph(comp, next(v for v in names if v not in comp))
    for v, es in incident.items():
        if len(es) < 2:
            raise DegreeBelowTwo(v, len(es))
    order = StrictPartialOrder._from_sorted(tuple(names), order_pairs)  # raises OrderCycle
    return PoGraph(vertices, edges, order, incident)


def _component(incident, start):
    seen = {start}
    todo = [start]
    for v in todo:
        for a, b, _ in incident[v]:
            w = b if a == v else a
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def enumerate_simple_cycles(vertices, edges, limit=None):
    """The simple cycles of a multigraph, one per rotation/reflection
    class: all of them, or the first ``limit``.

    Works on raw vertex and edge collections so acyclic inputs (which
    PoGraph validation would refuse) can still be queried.  A pair of
    parallel edges counts as one cycle of length two.  Raises UnknownId
    for an edge end outside ``vertices``, and ValueError for a negative
    ``limit``.

    The search runs over the simple graph: each vertex lists its
    neighbours by name, each with its bundle of parallel copies in key
    order.  First the 2-core is peeled: a vertex with fewer than two
    live neighbours lies on no cycle longer than two, so it is dropped,
    and the drop cascades.  The 2-cycles of parallel edges come first,
    bundles in edge order and keys ascending.  When every vertex left
    has exactly two live neighbours, the core is a union of disjoint
    cycles; if one walk from its smallest vertex covers it, that walk,
    towards the smaller of its two neighbours, is the only longer
    cycle, and its choices of parallel copies follow in key order, the
    last edge varying fastest.  Otherwise a search runs from each start
    vertex in name order over the 2-core of the vertices not yet
    searched, dropping each start after its search, so each search lists
    exactly the cycles whose smallest vertex is its start.  The path
    takes the first copy of each bundle it follows; when it leaves a
    vertex it entered over a bundle of m copies, the cycles listed since
    it entered are listed again with each of copies 2..m in its place,
    the order in which a walk of every copy would list them.  Before the
    path enters a vertex, a search of the live vertices off the path
    checks that the vertex still reaches the start (Read and Tarjan,
    "Bounds on backtrack algorithms for listing cycles, paths, and
    spanning trees", Networks 5 (1975)); a vertex that does not is
    skipped, as no cycle closes through it.  This cuts no cycle and
    keeps their order, and the search spends time polynomial in the
    graph's size before each simple cycle it finds, so the first
    ``limit`` come quickly however many cycles the graph holds.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or at least 0, got {limit}")
    return _cycles(sorted(set(vertices)), edges, sys.maxsize if limit is None else limit, 0)[1]


def _cycles(names, edges, keep, cap):
    """``(count, cycles)``: the number of simple cycles of the multigraph
    on the sorted distinct ``names``, and the first ``keep`` of them, in
    `enumerate_simple_cycles`'s order.

    A bundle of m parallel copies holds m(m-1)/2 2-cycles, and a longer
    simple cycle of the simple graph stands for the product of its
    bundles' sizes, which the search keeps along its path.  It stops
    once the count passes ``cap`` and ``keep`` cycles are listed; the
    count is then a lower bound past ``cap``, and exact otherwise.
    """
    nbrs = {v: [] for v in names}  # v -> [(neighbour, bundle)], by name
    multi = []  # the bundles of two or more copies, in edge order
    count = 0
    la = lb = None
    try:
        # sorted edges hold each bundle's copies side by side, keys ascending
        for e in sorted(edges):
            a, b, _ = e
            if b == lb and a == la:
                count += len(bundle)  # the new copy pairs with each earlier one
                if len(bundle) == 1:
                    multi.append(bundle)
                bundle.append(e)
            else:
                la, lb, bundle = a, b, [e]
                nbrs[a].append((b, bundle))
                nbrs[b].append((a, bundle))
    except KeyError as exc:
        raise UnknownId(exc.args[0], "edge list") from None
    out = []
    if multi:
        # length-2 cycles: each unordered pair of parallel copies, keys ascending
        twos = (_cycle(x[:2], (x, y)) for b in multi for i, x in enumerate(b) for y in b[i + 1:])
        out += islice(twos, keep)
        if count > cap and len(out) >= keep:
            return count, out
    live = {v: len(ps) for v, ps in nbrs.items()}
    alive = set(nbrs)

    def drop(v):
        # remove v, then every vertex left with fewer than two live neighbours
        alive.discard(v)
        todo = [v]
        while todo:
            for w, _ in nbrs[todo.pop()]:
                if w in alive:
                    live[w] -= 1
                    if live[w] < 2:
                        alive.discard(w)
                        todo.append(w)

    for v in nbrs:
        if v in alive and live[v] < 2:
            drop(v)
    if alive and all(live[v] == 2 for v in alive):
        # every core vertex has two core neighbours, so the core is a union
        # of disjoint cycles; walk the one through its smallest vertex,
        # towards the smaller neighbour, as the search would list it
        s = min(alive)
        path_v, path_b = [s], []
        u, v = None, s
        while True:
            for w, b in nbrs[v]:
                if w != u and w in alive:  # leave by the other core neighbour
                    break
            path_b.append(b)
            if w == s:
                break
            path_v.append(w)
            u, v = v, w
        if len(path_v) == len(alive):
            # the only longer simple cycle, once per choice of parallel copies
            count += prod(map(len, path_b))
            vs = tuple(path_v)
            out += islice((_cycle(vs, es) for es in product(*path_b)), keep - len(out))
            return count, out

    def reaches_start(w):
        # whether w reaches s through live vertices off the path
        seen = {w}
        todo = [w]
        for u in todo:
            for x, _ in nbrs[u]:
                if x == s:
                    return True
                if x in alive and x not in seen and x not in on_path:
                    seen.add(x)
                    todo.append(x)
        return False

    # depth-first search with an explicit stack, one iterator over the
    # neighbours per path vertex, so path length is not bounded by the
    # interpreter's recursion limit; it lists one representative per
    # rotation/reflection class: paths start at the smallest cycle
    # vertex, and the second-vs-last comparison fixes the direction
    for s in nbrs:
        if s not in alive:
            continue
        path_v, path_e, on_path = [s], [], {s}
        entered = []  # per path vertex after s: its bundle, len(out) and copies before it
        copies = 1  # choices of parallel copies along the path
        stack = [iter(nbrs[s])]
        while stack:
            for w, b in stack[-1]:
                # the vertex the path came from is on it, so its bundle
                # is never taken back
                if w not in on_path:
                    if w in alive and reaches_start(w):
                        entered.append((b, len(out), copies))
                        copies *= len(b)
                        path_v.append(w)
                        path_e.append(b[0])
                        on_path.add(w)
                        stack.append(iter(nbrs[w]))
                        break
                elif w == s and len(path_v) >= 3 and path_v[1] < path_v[-1]:
                    count += copies * len(b)
                    if len(out) < keep:
                        vs = tuple(path_v)
                        out += islice((_cycle(vs, (*path_e, e)) for e in b), keep - len(out))
                    if count > cap and len(out) >= keep:
                        return count, out
            else:
                stack.pop()
                if entered:
                    b, mark, copies = entered.pop()
                    path_e.pop()
                    on_path.discard(path_v.pop())
                    if len(b) > 1 and mark < len(out) < keep:
                        # the cycles listed since the path entered the vertex
                        # it leaves, again with each further copy in place
                        d, since = len(path_e), out[mark:]
                        out += islice(
                            (
                                _cycle(c.vertices, (*c.edges[:d], e, *c.edges[d + 1:]))
                                for e in b[1:]
                                for c in since
                            ),
                            keep - len(out),
                        )
                        if count > cap and len(out) >= keep:
                            return count, out
        drop(s)
    return count, out


@dataclass(frozen=True)
class TreeComponent:
    """One component of the closure of the graph minus the boundary cycle.

    ``adj``: each tree vertex -> its sorted tree edges, from `decompose`."""

    index: int
    vertices: frozenset
    edges: tuple
    attach: frozenset  # vertices shared with the boundary cycle
    adj: dict = field(compare=False, repr=False)


def _beyond(adj, ring):
    """Ring vertices past every dart of a tree, as bitmasks.

    Bit i stands for ``ring[i]``.  One walk from ``ring[0]`` sums each
    vertex's subtree into a mask; the dart ``(v, e)`` from a vertex to
    its child gets the child's mask, and the dart back gets the rest of
    the ring.  Raises NotInTree for a vertex of ``adj`` the walk does
    not reach, the first such ring vertex if there is one.
    """
    full = (1 << len(ring)) - 1
    mask = {v: 1 << i for i, v in enumerate(ring)}
    parent = dict.fromkeys(ring[:1])  # vertex -> (its parent, the edge to it)
    order = list(ring[:1])
    for v in order:
        for e in adj[v]:
            w = e[1] if e[0] == v else e[0]
            if w not in parent:
                parent[w] = v, e
                order.append(w)
    if len(order) < len(adj):
        raise NotInTree(next(v for v in (*ring, *adj) if v not in parent))
    out = {}
    for w in reversed(order[1:]):
        v, e = parent[w]
        m = mask.get(w, 0)
        mask[v] = mask.get(v, 0) | m
        out[v, e] = m
        out[w, e] = full ^ m
    return out


@dataclass(frozen=True)
class Decomposition:
    """The boundary cycle ``gamma`` and the trees hanging off it.

    Every decomposition, hand-built too, gets its tables here in one
    pass over ``gamma``: ``position`` (boundary vertex -> index along
    ``gamma.vertices``), ``tree_at`` (tree vertex -> its tree) and
    ``rings`` (tree index -> its attachments in boundary order, from
    ``gamma``'s start).  The `_beyond` masks wait for their first read,
    which an A2 reject never makes.
    """

    graph: PoGraph
    gamma: Cycle
    trees: tuple
    position: dict = field(init=False, compare=False, repr=False)
    tree_at: dict = field(init=False, compare=False, repr=False)
    rings: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tree_at = {v: t for t in self.trees for v in t.vertices}
        position, rings = {}, {t.index: [] for t in self.trees}
        for i, v in enumerate(self.gamma.vertices):
            position[v] = i
            t = tree_at.get(v)
            if t is not None:
                rings[t.index].append(v)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "tree_at", tree_at)
        object.__setattr__(self, "rings", {i: tuple(ring) for i, ring in rings.items()})

    def interior_vertices(self):
        """Vertices of the graph not on the boundary cycle."""
        return frozenset(self.graph.vertices) - frozenset(self.gamma.vertices)

    @cached_property
    def _beyond_masks(self):
        """Tree index -> the `_beyond` masks of the tree's ring."""
        return {t.index: _beyond(t.adj, self.rings[t.index]) for t in self.trees}


def decompose(g, gamma):
    """Split ``g`` into the boundary cycle and the forest hanging off it.

    The forest components are the connected components of the union of all
    edges not on ``gamma`` together with their endpoints.  Each component
    must be a tree; otherwise NotAForest is raised.  Components are indexed
    deterministically by their smallest vertex.  Raises ValueError for an
    edge of ``gamma`` that is not an edge of ``g``.

    The trees' adjacency is ``g.incident``, which `build_graph` sorts,
    less the cycle edges, so their vertices and edges come out sorted.
    With ``gamma``'s edges checked to be ``g``'s, the trees and ``gamma``
    split ``g`` by construction: components are labelled once per vertex,
    so the trees are vertex-disjoint; each non-cycle edge is listed once,
    at its smaller end, inside its own component, so no edge is assigned
    twice and every edge is covered; and a tree leaf off ``gamma`` would
    have graph degree 1, which `build_graph` refuses.
    """
    adj = dict(g.incident)
    for i, v in enumerate(gamma.vertices):
        es = adj.get(v, ())
        prev, nxt = gamma.edges[i - 1], gamma.edges[i]
        for e in (prev, nxt):
            if e not in es:
                raise ValueError(f"cycle edge {e} is not an edge of the graph")
        if len(es) == 2:
            # the two cycle edges at v are all its edges
            del adj[v]
        else:
            es = list(es)
            es.remove(prev)
            es.remove(nxt)
            adj[v] = tuple(es)
    comp = {}  # vertex -> the index of its component
    members = []  # per component, its vertices in name order
    for s in adj:
        if s in comp:
            members[comp[s]].append(s)
            continue
        i = comp[s] = len(members)
        members.append([s])
        stack = [s]
        while stack:
            v = stack.pop()
            for a, b, _ in adj[v]:
                w = b if a == v else a
                if w not in comp:
                    comp[w] = i
                    stack.append(w)
    on_gamma = set(gamma.vertices)
    trees = []
    for i, verts in enumerate(members):
        t_adj = {v: adj[v] for v in verts}
        # each edge once, at its smaller end: sorted, as the vertices are
        edges = tuple([e for v in verts for e in t_adj[v] if e[0] == v])
        if len(edges) != len(verts) - 1:
            raise NotAForest(i, verts)
        attach = frozenset([v for v in verts if v in on_gamma])
        trees.append(TreeComponent(i, frozenset(verts), edges, attach, t_adj))
    return Decomposition(g, gamma, tuple(trees))

