"""The condition battery that decides realizability on the disk.

The battery runs in a fixed sequence and stops at the first failure:

  A1  exactly one simple cycle whose consecutive vertices are comparable
  A2  the rest of the graph is a forest of uniformly compared trees whose
      interior vertices have even degree at least four
  S2  every tree embeds against the boundary circle and distinct trees
      occupy non-interleaving boundary arcs
  S3  each boundary pair faces attachments of one single other tree
  A3  boundary vertices are passed monotonically or extremally according
      to their degree parity

A graph passing all five is realizable ("delta" verdict); the pipeline
then also re-checks the consequence that order-minimal and order-maximal
vertices sit on the boundary cycle with degree two.  Every check is here;
S2 reads the tree walks of `planarity`, and the cycle search and the
decomposition come from `graph`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import InvariantViolation, NotAForest
from .graph import _cycles, decompose, enumerate_simple_cycles
from .orders import bits, lowest
from .planarity import _run_counts, separation_ok


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    passed: bool
    witnesses: tuple = ()

    def __bool__(self):
        return self.passed


# check_A1 counts the qualifying cycles up to this many; beyond it, the
# search stops and the report says "more than" this many
A1_COUNTED = 100


def _comparable_edges(g):
    """The edges of ``g`` whose two ends are comparable.

    A cycle qualifies for A1 exactly when each of its edges joins two
    comparable vertices, so the simple cycles of the subgraph of these
    edges are the qualifying cycles of ``g``; the subgraph keeps the
    sorted vertex list and each vertex's sorted neighbours, so they come
    out in the order a search of all of ``g`` would list them.
    """
    above, index = g.order.above, g.order.index
    return [e for e in g.edges if (above[e[0]] >> index[e[1]] | above[e[1]] >> index[e[0]]) & 1]


def find_cr_cycles(g):
    """Simple cycles in which every pair of cycle-adjacent vertices is
    comparable: the first ``A1_COUNTED + 1`` of them, in the order of
    `enumerate_simple_cycles` over the comparable edges.
    """
    return enumerate_simple_cycles(g.vertices, _comparable_edges(g), limit=A1_COUNTED + 1)


def check_A1(g):
    """Exactly one qualifying cycle (see `find_cr_cycles`).

    One search over the simple graph of the comparable edges counts the
    qualifying cycles, each bundle of parallel copies multiplying the
    count, up to just past ``A1_COUNTED``, and lists only the first four,
    which a rejection names.  On a Δ-graph the comparable edges form the
    boundary cycle alone (A2 makes tree vertices pairwise incomparable),
    so their 2-core is one cycle of degree-2 vertices, walked once with
    no search.
    """
    count, crs = _cycles(g.order.elements, _comparable_edges(g), 4, A1_COUNTED)
    if count == 1:
        return ConditionReport("A1", True), crs[0]
    if not count:
        return ConditionReport("A1", False, ("no cycle with all adjacent pairs comparable",)), None
    if count > A1_COUNTED:
        count = f"more than {A1_COUNTED}"
    wits = tuple(f"cycle {'-'.join(c.vertices)}" for c in crs)
    return ConditionReport("A1", False, (f"{count} qualifying cycles",) + wits), None


def check_A2(dec):
    """Forest shape, uniform comparison, and interior degree parity.

    A vertex v outside a tree T lies below some but not all of T exactly
    when its bit is in the OR but not in the AND of the members' masks
    above them, and likewise with the masks below.  So only those
    vertices are scanned, and T's own only when some member's masks hold
    a bit of T; the rest compare with all of T or with none of it.  T's
    own indices come from the index map, and only masks empty on an
    accepted graph are read bit by bit: masks are as wide as the graph.
    """
    g = dec.graph
    order = g.order
    elements, index, above, below = order.elements, order.index, order.above, order.below
    wits = []
    for t in dec.trees:
        members = sorted(index[u] for u in t.vertices)
        tmask = 0
        up_any = down_any = 0
        up_all = down_all = -1
        for i in members:
            u = elements[i]
            tmask |= 1 << i
            up, down = above[u], below[u]
            up_any |= up
            up_all &= up
            down_any |= down
            down_all &= down
        others = ((up_any & ~up_all) | (down_any & ~down_all)) & ~tmask
        inner = (up_any | down_any) & tmask  # nonzero when two members compare
        scan = sorted(members + bits(others)) if inner else bits(others)
        for i in scan:
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
        for i in members if inner else ():
            for j in bits((above[elements[i]] | below[elements[i]]) & tmask & (-2 << i)):
                wits.append(f"tree {t.index} vertices {elements[i]}, {elements[j]} are comparable")
    for v in sorted(dec.interior_vertices()):
        d = len(g.incident[v])
        if d < 4 or d % 2:
            wits.append(f"interior vertex {v} has degree {d}; need even degree >= 4")
    return ConditionReport("A2", not wits, tuple(wits))


def check_A3(dec):
    """Per-vertex passage rules along the boundary cycle."""
    g = dec.graph
    incident, tree_at = g.incident, dec.tree_at
    above, index = g.order.above, g.order.index
    vs = dec.gamma.vertices
    wits = []
    for i, v in enumerate(vs):
        p, n = vs[i - 1], vs[(i + 1) % len(vs)]
        if p == n:
            # the two-vertex boundary cycle: no distinct neighbor pair to test
            continue
        d = len(incident[v])
        if d == 2:
            if len(incident[p]) <= 2 or len(incident[n]) <= 2:
                wits.append(f"degree-2 vertex {v} has a degree-2 neighbor")
                continue
            tp, tn = tree_at.get(p), tree_at.get(n)
            if tp is None or tn is None or tp.index != tn.index:
                wits.append(f"neighbors {p}, {n} of degree-2 vertex {v} are not in one tree")
            continue
        # bit tests of the masks above: x < y when y's bit is set in above[x]
        i_v, up = index[v], above[v]
        p_lt_v, n_lt_v = above[p] >> i_v & 1, above[n] >> i_v & 1
        v_lt_p, v_lt_n = up >> index[p] & 1, up >> index[n] & 1
        if d % 2 == 0:
            if not (p_lt_v and n_lt_v or v_lt_p and v_lt_n):
                wits.append(
                    f"even-degree vertex {v} is not extremal among its cycle neighbors {p}, {n}"
                )
        elif not (p_lt_v and v_lt_n or n_lt_v and v_lt_p):
            wits.append(f"odd-degree vertex {v} is not passed monotonically between {p} and {n}")
    return ConditionReport("A3", not wits, tuple(wits))


def _attached_before(dec):
    """``before[i]``: how many of the first i boundary vertices attach a tree."""
    return list(accumulate((v in dec.tree_at for v in dec.gamma.vertices), initial=0))


def _gaps(dec, ring, before):
    """The qualifying gaps of a tree's ring, as ``(pair, tilde)``.

    ``pair`` is two attachments consecutive in the ring, at boundary
    positions ``a`` and ``b``, their names sorted, and ``tilde`` the
    arc's end vertices next to ``pair[0]`` and ``pair[1]``.  The gap is
    the open arc from ``a`` forward to ``b``; it qualifies when it
    holds an attached vertex, which the prefix counts ``before`` (see
    `_attached_before`) tell in O(1).  The gaps come sorted by ``(pair,
    tilde)``, which is the order by ``(pair, arc from pair[0])``: a pair
    appears twice only on a two-attachment ring, whose two gaps are
    disjoint and not empty, so their arcs differ at their first vertex.
    """
    if len(ring) < 2:
        return []
    vs = dec.gamma.vertices
    n = len(vs)
    pos = dec.position
    out = []
    for va, vb in zip(ring, ring[1:] + ring[:1]):
        a, b = pos[va], pos[vb]
        inside = before[b] - before[a + 1] if a < b else before[n] - before[a + 1] + before[b]
        if not inside:
            continue
        if va < vb:
            out.append(((va, vb), (vs[(a + 1) % n], vs[b - 1])))
        else:
            out.append(((vb, va), (vs[b - 1], vs[(a + 1) % n])))
    out.sort()
    return out


def check_S2(dec):
    """Every tree embeds against the boundary, and no two trees interleave.

    A tree passes when its run counts (`planarity._run_counts`) are all
    2 for its attachments in boundary order; the trees together pass
    when `planarity.separation_ok` finds no two of them interleaved.
    """
    witnesses = []
    for t in dec.trees:
        ok, counts = _run_counts(dec._beyond_masks[t.index], len(dec.rings[t.index]), t.edges)
        if not ok:
            bad = sorted((e for e, c in counts.items() if c != 2), key=repr)
            witnesses.append(
                f"tree {t.index} cannot embed with attachments in boundary order: "
                f"edge {bad[0]} lies on {counts[bad[0]]} adjacent-pair paths (need 2)"
            )
    sep, wit = separation_ok(dec)
    if not sep:
        m, n_, b1, b2 = wit
        witnesses.append(
            f"attachments of tree {n_} fall on both sides of tree {m}'s "
            f"attachments ({b1} vs {b2})"
        )
    return ConditionReport("S2", not witnesses, tuple(witnesses))


def check_S3(dec):
    """Both inner neighbors of every boundary pair attach one common other tree.

    The common tree is never the pair's own: the arc between two
    attachments consecutive in the tree's ring holds none of the tree's
    vertices, since the tree meets the boundary only at its attachments.
    Only each gap's two end vertices are read, never its whole arc.
    """
    before = _attached_before(dec)
    wits = []
    for t in dec.trees:
        for pair, tilde in _gaps(dec, dec.rings[t.index], before):
            t1, t2 = dec.tree_at.get(tilde[0]), dec.tree_at.get(tilde[1])
            if t1 is None or t2 is None:
                missing = [x for x, tr in zip(tilde, (t1, t2)) if tr is None]
                wits.append(
                    f"pair {pair} of tree {t.index}: neighbor {missing[0]} attaches no tree"
                )
            elif t1.index != t2.index:
                wits.append(
                    f"pair {pair} of tree {t.index}: neighbors {tilde} attach "
                    f"different trees {t1.index} and {t2.index}"
                )
    return ConditionReport("S3", not wits, tuple(wits))


@dataclass(frozen=True)
class DeltaVerdict:
    delta: bool
    reports: tuple
    gamma: object = None
    decomposition: object = None

    def __bool__(self):
        return self.delta

    def failed_report(self):
        """The report of the first failing condition, or None."""
        return next((r for r in self.reports if not r.passed), None)

    def failed_condition(self):
        bad = self.failed_report()
        return None if bad is None else bad.condition


def is_delta_graph(g):
    """Run the full condition battery; short-circuits at the first failure."""
    reports = []
    a1, gamma = check_A1(g)
    reports.append(a1)
    if not a1:
        return DeltaVerdict(False, tuple(reports))
    try:
        dec = decompose(g, gamma)
    except NotAForest as exc:
        reports.append(
            ConditionReport("A2", False, (f"complement component {exc.component_index} is not a tree",))
        )
        return DeltaVerdict(False, tuple(reports), gamma)
    # the checks are looked up here, at each call, so that a profiler
    # that rebinds the module's names times them
    for check in (check_A2, check_S2, check_S3, check_A3):
        report = check(dec)
        reports.append(report)
        if not report:
            return DeltaVerdict(False, tuple(reports), gamma, dec)
    _check_extrema_on_boundary(g, dec)
    return DeltaVerdict(True, tuple(reports), gamma, dec)


def _check_extrema_on_boundary(g, dec):
    """Consequence check: order extrema are degree-2 boundary vertices."""
    for v in g.order.minimal_elements() | g.order.maximal_elements():
        if v not in dec.position or len(g.incident[v]) != 2:
            raise InvariantViolation(
                f"order extremum {v} should lie on the boundary cycle with degree 2"
            )
