"""Connected multigraphs with a strict partial order on vertices.

Parallel edges are first-class citizens: every edge carries a ``key``
disambiguating copies between the same endpoints, and a pair of parallel
edges counts as a simple cycle of length two.  Self-loops are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import (
    BudgetExceeded,
    DegreeBelowTwo,
    DisconnectedGraph,
    InvariantViolation,
    NotAForest,
    SelfLoop,
    UnknownId,
)
from .orders import StrictPartialOrder

DEFAULT_BUDGET = 10**6


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
    """Assign keys to raw endpoint pairs, numbering parallel copies."""
    seen = {}
    out = []
    for u, v in pairs:
        ends = (u, v) if u <= v else (v, u)
        k = seen.get(ends, 0)
        seen[ends] = k + 1
        out.append(Edge(ends[0], ends[1], k))
    return tuple(out)


def adjacency(edges, vertices=()):
    """Vertex -> sorted tuple of incident edges.

    Every vertex in ``vertices`` gets an entry, isolated ones included;
    other vertices appear when some edge touches them.
    """
    adj = {v: [] for v in vertices}
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
        n = len(self.vertices)
        if n != len(self.edges) or n < 2:
            raise ValueError("cycle needs matching vertex and edge sequences, length >= 2")
        for i, e in enumerate(self.edges):
            u, v = self.vertices[i], self.vertices[(i + 1) % n]
            if not (e.touches(u) and e.touches(v)):
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


@dataclass(frozen=True)
class PoGraph:
    """A validated partially ordered multigraph."""

    vertices: frozenset
    edges: tuple
    order: StrictPartialOrder
    _incident: dict = field(compare=False, repr=False, default=None)

    def incident(self, v):
        return self._incident[v]

    def degree(self, v):
        return len(self._incident[v])


def build_graph(vertices, edge_pairs, order_pairs):
    """Validate and assemble a PoGraph.

    Checks, in this sequence: no self-loops, connectivity, minimum degree
    two, and that the order generates no cycle.
    """
    vertices = frozenset(vertices)
    edges = make_edges(edge_pairs)  # raises SelfLoop
    for e in edges:
        for x in (e.a, e.b):
            if x not in vertices:
                raise UnknownId(x, "edge list")
    incident = adjacency(edges, sorted(vertices))
    if vertices:
        comp = _component(incident, min(vertices))
        if comp != vertices:
            raise DisconnectedGraph(comp)
    for v in sorted(vertices):
        if len(incident[v]) < 2:
            raise DegreeBelowTwo(v, len(incident[v]))
    order = StrictPartialOrder.from_pairs(vertices, order_pairs)  # raises OrderCycle
    return PoGraph(vertices, edges, order, incident)


def _component(incident, start):
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in incident[v]:
            w = e.other(v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def enumerate_simple_cycles(vertices, edges, budget=DEFAULT_BUDGET):
    """All simple cycles of a multigraph, one per rotation/reflection class.

    Works on raw vertex and edge collections so acyclic inputs (which
    PoGraph validation would refuse) can still be queried.  A pair of
    parallel edges counts as one cycle of length two.  Raises
    BudgetExceeded after ``budget`` search steps.

    First the 2-core is peeled: a vertex with fewer than two live edges
    lies on no cycle, so it is dropped, and the drop cascades.  When
    every vertex left has exactly two live edges, the core is a union
    of disjoint cycles; if one walk from its smallest vertex covers it,
    that walk is the only cycle, listed from its smallest vertex towards
    the smaller of its two neighbours, at one budget step per edge.
    Otherwise the search runs from each start vertex in name order over
    the 2-core of the vertices not yet searched, dropping each start
    after its search.  Each search thus finds exactly the cycles whose
    smallest vertex is its start, and never walks a path that cannot
    close.
    """
    verts = sorted(set(vertices))
    incident = adjacency(edges, verts)
    live = {v: len(es) for v, es in incident.items()}
    alive = set(verts)

    def drop(v):
        # remove v, then every vertex left with fewer than two live edges
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
    steps = 0
    if alive and all(live[v] == 2 for v in alive):
        # every core vertex has two core edges, so the core is a union of
        # disjoint cycles; walk the one through its smallest vertex,
        # towards the smaller neighbour, as the search would list it
        s = next(v for v in verts if v in alive)
        path_v, path_e = [s], []
        v, e = s, next(e for e in incident[s] if e.other(s) in alive)
        while True:
            steps += 1
            if steps > budget:
                raise BudgetExceeded(budget, "cycle enumeration")
            path_e.append(e)
            v = e.other(v)
            if v == s:
                break
            path_v.append(v)
            e = next(f for f in incident[v] if f != e and f.other(v) in alive)
        if len(path_v) == len(alive):
            # the only cycle; a 2-cycle's edges come in key order
            return [Cycle(tuple(path_v), tuple(path_e))]
    cycles = []
    # length-2 cycles: each unordered pair of parallel edges, keys ascending
    by_ends = {}
    for e in edges:
        by_ends.setdefault((e.a, e.b), []).append(e)
    for (a, b), group in sorted(by_ends.items()):
        group.sort()
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                cycles.append(Cycle((a, b), (group[i], group[j])))
    # depth-first search with an explicit stack, one iterator over the
    # incident edges per path vertex, so path length is not bounded by
    # the interpreter's recursion limit
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
            steps += 1
            if steps > budget:
                raise BudgetExceeded(budget, "cycle enumeration")
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
    # the search already yields one representative per rotation/reflection
    # class: paths start at the smallest cycle vertex, direction fixed by
    # the second-vs-last comparison, and 2-cycles are emitted sorted
    return cycles


@dataclass(frozen=True)
class TreeComponent:
    """One component of the closure of the graph minus the boundary cycle."""

    index: int
    vertices: frozenset
    edges: tuple
    attach: frozenset  # vertices shared with the boundary cycle
    terminal: frozenset  # leaves within the component

    @cached_property
    def _adjacency(self):
        return adjacency(self.edges)

    def incident(self, v):
        return self._adjacency.get(v, ())


@dataclass(frozen=True)
class Decomposition:
    graph: PoGraph
    gamma: Cycle
    trees: tuple

    def interior_vertices(self):
        """Vertices of the graph not on the boundary cycle."""
        return frozenset(self.graph.vertices) - frozenset(self.gamma.vertices)

    @cached_property
    def position(self):
        """Boundary vertex -> its index along ``gamma.vertices``."""
        return {v: i for i, v in enumerate(self.gamma.vertices)}

    @cached_property
    def _tree_at(self):
        return {v: t for t in self.trees for v in t.vertices}

    @cached_property
    def _rings(self):
        rings = {t.index: [] for t in self.trees}
        for v in self.gamma.vertices:
            t = self.tree_of(v)
            if t is not None:
                rings[t.index].append(v)
        return {i: tuple(ring) for i, ring in rings.items()}

    def tree_of(self, v):
        """The unique tree containing v, or None."""
        return self._tree_at.get(v)

    def ring(self, tree):
        """The tree's attachments in boundary order, from ``gamma``'s start."""
        return self._rings[tree.index]


def decompose(g, gamma):
    """Split ``g`` into the boundary cycle and the forest hanging off it.

    The forest components are the connected components of the union of all
    edges not on ``gamma`` together with their endpoints.  Each component
    must be a tree; otherwise NotAForest is raised.  Components are indexed
    deterministically by their smallest vertex.
    """
    gamma_edges = set(gamma.edges)
    gamma_verts = set(gamma.vertices)
    adj = adjacency(e for e in g.edges if e not in gamma_edges)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        verts = {start}
        comp_edges = set()
        stack = [start]
        while stack:
            v = stack.pop()
            for e in adj[v]:
                comp_edges.add(e)
                w = e.other(v)
                if w not in verts:
                    verts.add(w)
                    stack.append(w)
        seen |= verts
        comps.append((sorted(verts)[0], verts, comp_edges))
    comps.sort(key=lambda c: c[0])
    trees = []
    for idx, (_, verts, comp_edges) in enumerate(comps):
        if len(comp_edges) != len(verts) - 1:
            raise NotAForest(idx, sorted(verts))
        attach = frozenset(verts & gamma_verts)
        deg = {v: 0 for v in verts}
        for e in comp_edges:
            deg[e.a] += 1
            deg[e.b] += 1
        terminal = frozenset(v for v, d in deg.items() if d == 1)
        trees.append(
            TreeComponent(idx, frozenset(verts), tuple(sorted(comp_edges)), attach, terminal)
        )
    dec = Decomposition(g, gamma, tuple(trees))
    _validate_decomposition(dec)
    return dec


def _validate_decomposition(dec):
    seen_edges = set(dec.gamma.edges)
    for t in dec.trees:
        if not t.terminal <= t.attach:
            # impossible when every graph vertex has degree >= 2
            raise InvariantViolation(
                f"tree {t.index} has a leaf off the boundary: {sorted(t.terminal - t.attach)}"
            )
        overlap = seen_edges & set(t.edges)
        if overlap:
            raise InvariantViolation(f"edge {sorted(overlap)[0]} assigned twice")
        seen_edges |= set(t.edges)
    if len(seen_edges) != len(dec.graph.edges):
        raise InvariantViolation("decomposition does not cover every edge")
    if sum(len(t.vertices) for t in dec.trees) == len(dec._tree_at):
        return
    # some vertex lies in two trees: name the first such pair of trees
    for i, t in enumerate(dec.trees):
        for s in dec.trees[i + 1 :]:
            if t.vertices & s.vertices:
                raise InvariantViolation(
                    f"trees {t.index} and {s.index} share vertices {sorted(t.vertices & s.vertices)}"
                )

