"""Strict partial orders.

Vertices are identified by strings throughout.  A strict partial order is
stored as its reach sets: for every element, the frozenset of the elements
strictly above it.  The sets are closed under transitivity, so a
comparison is one lookup in one set.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NotInCarrier, OrderCycle


def transitive_closure(pairs):
    """Reach map of a set of (a, b) pairs: element -> frozenset above it.

    Every element named in ``pairs`` gets an entry.  Each reach set is
    built once, after the sets of all its successors, as the union of its
    successors and their reach sets; a successor already reached is
    skipped, since its set is then already included.  Raises OrderCycle
    when the pairs contain a cycle (see `_topological_order`).
    """
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    reach = {}
    for v in reversed(_topological_order(succ)):
        r = set()
        for s in succ.get(v, ()):
            if s not in r:
                r.add(s)
                r |= reach[s]
        reach[v] = frozenset(r)
    return reach


def _topological_order(succ):
    """Elements in an order where every pair points forward (Kahn's pass).

    When the pass leaves elements over, the pairs contain a cycle, and
    OrderCycle names one found among the leftover elements alone.  The
    leftover set is the same whatever order the pass takes, and each
    leftover element keeps a leftover predecessor (its remaining
    in-degree counts them).  So the walk backwards from the smallest
    leftover element, always to its smallest leftover predecessor, must
    repeat an element; the loop it closes is the witness, listed
    upwards (each element below the next, the last below the first)
    from its smallest element.  It depends only on the set of pairs.
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


_NONE = frozenset()


@dataclass(frozen=True)
class StrictPartialOrder:
    """A transitively closed, irreflexive, antisymmetric relation.

    ``above[v]`` is the frozenset of the elements strictly above ``v``;
    every carrier element has an entry, so the carrier is the key set.
    ``below`` is the mirror map, built from ``above`` on first read.
    Two orders are equal when they relate the same elements the same way.
    """

    above: dict  # v -> frozenset of every w with v < w

    def __hash__(self):
        return hash(frozenset(self.above.items()))

    @classmethod
    def from_pairs(cls, carrier, pairs):
        """Build the order generated by ``pairs``.

        Raises NotInCarrier for pairs mentioning unknown elements, and
        OrderCycle if the pairs contain a cycle.  Otherwise the closure
        is built along a topological order, so it relates no element to
        itself and no two elements both ways: it is a strict partial
        order with no further check.
        """
        carrier = frozenset(carrier)
        for a, b in pairs:
            for x in (a, b):
                if x not in carrier:
                    raise NotInCarrier(x)
        reach = transitive_closure(pairs)
        return cls({v: reach.get(v, _NONE) for v in carrier})

    @cached_property
    def below(self):
        """v -> frozenset of every u with u < v."""
        below = {v: [] for v in self.above}
        for u, ws in self.above.items():
            for w in ws:
                below[w].append(u)
        return {v: frozenset(us) for v, us in below.items()}

    @property
    def carrier(self):
        return frozenset(self.above)

    @property
    def pairs(self):
        """Every (a, b) with a < b, built afresh on each read."""
        return frozenset((a, b) for a, ws in self.above.items() for b in ws)

    def lt(self, a, b):
        return b in self.above.get(a, _NONE)

    def comparable(self, a, b):
        return b in self.above.get(a, _NONE) or a in self.above.get(b, _NONE)

    def minimal_elements(self):
        return frozenset(self.above).difference(*self.above.values())

    def maximal_elements(self):
        return frozenset(v for v, ws in self.above.items() if not ws)

    def extends(self, other):
        """True when this order contains every pair of ``other``."""
        return all(ws <= self.above.get(v, _NONE) for v, ws in other.above.items())


@dataclass(frozen=True)
class A4Result:
    passed: bool
    witness: tuple | None  # (v, a, b): v separates the incomparable pair (a, b)


def check_A4(order):
    """Congruence of incomparability.

    For every incomparable pair (a, b) and every third element v the
    relations v < a and v < b must agree, and likewise v > a and v > b.
    Neither of a, b lies above or below the other, so that holds exactly
    when the two have the same sets above and below them; ``kind``
    numbers the distinct (above, below) set pairs.  Only an incomparable
    pair of different kinds is scanned for its first separating v.
    Returns the first violation as (v, a, b).
    """
    above, below = order.above, order.below
    kinds = {}
    kind = {v: kinds.setdefault((ws, below[v]), len(kinds)) for v, ws in above.items()}
    items = sorted(above)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if kind[a] == kind[b] or order.comparable(a, b):
                continue
            for v in items:
                if v == a or v == b:
                    continue
                if order.lt(a, v) != order.lt(b, v):
                    return A4Result(False, (v, a, b))
                if order.lt(v, a) != order.lt(v, b):
                    return A4Result(False, (v, a, b))
    return A4Result(True, None)

