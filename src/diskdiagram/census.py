"""Exhaustive small-instance sweeps cross-checking the decision code.

Trees mode compares the embedding criterion, read from the runs of ring
vertices beyond each tree edge, against the brute-force rotation-system
oracle over every tree up to a size bound, every admissible boundary
subset, and every ring (circular order) of that subset; `_free_trees`
generates the trees, one per isomorphism class, with the standard
library only.  Graphs mode enumerates small partially ordered
multigraphs and tabulates how many fall at each condition of the
acceptance pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .conditions import is_delta_graph
from .errors import DiskDiagramError
from .graph import build_graph, make_edges
from .planarity import brute_force_tree_embedding, tree_is_disk_planar


@dataclass(frozen=True)
class TreesCensusRow:
    size: int
    trees: int
    instances: int
    agreements: int
    disagreements: tuple  # mismatching (edges, ring) pairs, at most _COLLECT_LIMIT


def _successor(level, p):
    """Beyer–Hedetniemi: the next rooted level sequence, changed from `p` on.

    In place, so the copy reads entries it has already overwritten.
    """
    q = p - 1
    while level[q] != level[p] - 1:
        q -= 1
    for i in range(p, len(level)):
        level[i] = level[i - p + q]


def _first_subtree_end(level):
    """The index where the root's second subtree starts, or the length."""
    return next((i for i in range(2, len(level)) if level[i] == 1), len(level))


def _free_trees(n):
    """Every tree on ``n >= 2`` vertices up to isomorphism, as edge lists.

    Wright, Richmond, Odlyzko and McKay, "Constant time generation of
    free trees", SIAM J. Comput. 15 (1986): walk the level sequences of
    rooted trees from the path rooted at its centre, keep those rooted
    at a centre (the root's first subtree ``left`` no taller, and on a
    tie no larger, than the rest), and jump past every invalid ``left``
    at once.  Each tree is its ``(parent, child)`` index pairs in child
    order, vertex 0 the root.
    """
    level = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _first_subtree_end(level)
        left, rest = [d - 1 for d in level[1:m]], [0, *level[m:]]
        hl, hr = max(left), max(rest)
        if hr < hl or hr == hl and (
            len(left) > len(rest) or len(left) == len(rest) and left > rest
        ):
            deep = level[m - 1] > 2
            _successor(level, m - 1)
            if deep:
                h = max(level[1 : _first_subtree_end(level)])
                level[n - h :] = range(1, h + 1)
        last = [0] * n  # the latest vertex at each depth
        edges = []
        for i in range(1, n):
            edges.append((last[level[i] - 1], i))
            last[level[i]] = i
        yield edges
        p = n - 1
        while level[p] == 1:
            p -= 1
        if p == 0:
            return
        _successor(level, p)


_COLLECT_LIMIT = 5
_MAX_MULTIPLICITY = 2  # parallel copies per vertex pair in graphs mode


def _cyclic_orders(items):
    """Every ring of ``items`` up to rotation, smallest item first."""
    first, *rest = sorted(items)
    return [(first,) + p for p in permutations(rest)]


def trees_census(max_vertices):
    """Criterion-vs-oracle agreement for all trees up to `max_vertices`."""
    if not 2 <= max_vertices <= 8:
        raise DiskDiagramError(
            f"trees census size must be between 2 and 8, got {max_vertices}"
        )
    rows = []
    for size in range(2, max_vertices + 1):
        trees = list(_free_trees(size))
        instances = agreements = 0
        bad = []
        for tree in trees:
            degree = [0] * size
            for a, b in tree:
                degree[a] += 1
                degree[b] += 1
            edges = make_edges((f"v{a}", f"v{b}") for a, b in tree)
            leaves = [f"v{v}" for v, d in enumerate(degree) if d == 1]
            internal = [f"v{v}" for v, d in enumerate(degree) if d > 1]
            for extra in range(len(internal) + 1):
                for add in combinations(internal, extra):
                    boundary = sorted(set(leaves) | set(add))
                    for ring in _cyclic_orders(boundary):
                        verdict, _ = tree_is_disk_planar(edges, ring)
                        truth = brute_force_tree_embedding(edges, ring)
                        instances += 1
                        if verdict == truth:
                            agreements += 1
                        elif len(bad) < _COLLECT_LIMIT:
                            bad.append((tuple(edges), ring))
        rows.append(
            TreesCensusRow(size, len(trees), instances, agreements, tuple(bad))
        )
    return rows


def format_trees_census(rows):
    lines = ["size  trees  instances  agree  disagree"]
    total = ok = 0
    for r in rows:
        lines.append(
            f"{r.size:4d}  {r.trees:5d}  {r.instances:9d}  "
            f"{r.agreements:5d}  {r.instances - r.agreements:8d}"
        )
        total += r.instances
        ok += r.agreements
    pct = 100.0 * ok / total if total else 100.0
    lines.append(f"agreement {ok}/{total} = {pct:.1f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# graphs mode


def _posets(names):
    """Every strict partial order on the given labeled elements."""
    pairs = [(a, b) for a in names for b in names if a != b]
    out = []
    for bits in product((False, True), repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, bits) if keep}
        if any((b, a) in rel for a, b in rel):
            continue
        transitive = True
        for a, b in rel:
            for c, d in rel:
                if b == c and (a, d) not in rel:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            out.append(tuple(sorted(rel)))
    return out


def _multigraphs(names):
    """Connected min-degree-2 multigraphs as edge-pair tuples."""
    slots = list(combinations(names, 2))
    out = []
    for mults in product(range(_MAX_MULTIPLICITY + 1), repeat=len(slots)):
        edges = []
        for (a, b), m in zip(slots, mults):
            edges.extend([(a, b)] * m)
        if len(edges) < len(names):
            continue
        deg = {v: 0 for v in names}
        adj = {v: set() for v in names}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
            adj[a].add(b)
            adj[b].add(a)
        if any(d < 2 for d in deg.values()):
            continue
        seen = {names[0]}
        stack = [names[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(names):
            continue
        out.append(tuple(edges))
    return out


@dataclass(frozen=True)
class GraphsCensusResult:
    sizes: tuple
    instances: int
    by_outcome: dict  # "delta" or failing condition -> count
    delta_edge_profiles: tuple  # sorted multiset signatures of accepted graphs


def census_inputs(max_vertices):
    """(vertices, edge pairs, order pairs) of every census instance, in order.

    Covers every poset multigraph on 2..max_vertices vertices; feed each
    triple to ``build_graph``.
    """
    if not 2 <= max_vertices <= 4:
        raise DiskDiagramError(
            f"graphs census size must be between 2 and 4, got {max_vertices}"
        )
    for size in range(2, max_vertices + 1):
        names = [f"v{i}" for i in range(size)]
        posets = _posets(names)
        for edges in _multigraphs(names):
            for rel in posets:
                yield names, edges, rel


def graphs_census(max_vertices):
    """Verdict tabulation over all small partially ordered multigraphs."""
    by_outcome = {}
    profiles = set()
    instances = 0
    for names, edges, rel in census_inputs(max_vertices):
        instances += 1
        g = build_graph(names, edges, rel)
        verdict = is_delta_graph(g)
        key = "delta" if verdict.delta else verdict.failed_condition()
        by_outcome[key] = by_outcome.get(key, 0) + 1
        if verdict.delta:
            degs = tuple(sorted(g.degree(v) for v in g.vertices))
            profiles.add((len(g.vertices), len(g.edges), degs))
    sizes = tuple(range(2, max_vertices + 1))
    return GraphsCensusResult(
        sizes, instances, by_outcome, tuple(sorted(profiles))
    )


def format_graphs_census(res):
    lines = [f"sizes {list(res.sizes)}  instances {res.instances}"]
    for key in sorted(res.by_outcome):
        lines.append(f"  {key:12s} {res.by_outcome[key]}")
    lines.append("accepted degree profiles (size, edges, degrees):")
    for size, m, degs in res.delta_edge_profiles:
        lines.append(f"  n={size} m={m} degrees={list(degs)}")
    return "\n".join(lines)
