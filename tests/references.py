"""Reference implementations that the package's faster code must match.

Each is the simple version that an optimized path in the package
replaced, kept here so tests can require equal results on the same
inputs: the order closure on frozensets, the A2 scan over every vertex
of every tree, the per-item validation of a file's id lists, the tree
criterion that walks the path of every adjacent ring pair, and the
rotation system that walks the subtree behind every tree edge.
"""
from diskdiagram.conditions import ConditionReport
from diskdiagram.errors import InvariantViolation, MalformedFile, OrderCycle, UnknownId
from diskdiagram.graph import adjacency


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
        for e in tree.incident(u):
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
    for e in tree.incident(v):
        block = {(lin[x] - cut) % k for x in subtree_vertices(tree, v, e) if x in lin}
        starts = [s for s in block if (s - 1) % k not in block]
        if len(starts) != 1:
            raise InvariantViolation(f"tree {tree.index}: no single stretch beyond {e}")
        keyed.append((starts[0], e))
    keyed.sort(key=lambda pair: pair[0])
    return tuple(e for _, e in keyed)


def rotation(dec):
    """The rotation system of `build_embedding`, in its vertex order."""
    gamma = dec.gamma
    lins = {t.index: {x: i for i, x in enumerate(dec.ring(t))} for t in dec.trees}
    out = {}
    for i, v in enumerate(gamma.vertices):
        e_next, e_prev = gamma.edges[i], gamma.edges[i - 1]
        t = dec.tree_of(v)
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
