"""Strict partial orders and cyclic orders.

Vertices are identified by strings throughout.  A strict partial order is
stored transitively closed, so membership tests are single lookups.  Cyclic
orders are stored as a canonical circular sequence; with two or fewer
elements the arrangement carries no information and only the carrier is
kept.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASubset, NotInCarrier, OrderCycle, TooSmallCarrier


def transitive_closure(pairs):
    """Closure of a set of (a, b) pairs under transitivity.

    Each element's reach set is built once, after the sets of all its
    successors, as the union of its successors and their reach sets; a
    successor already reached is skipped, since its set is then already
    included.  Raises OrderCycle when the pairs contain a cycle (see
    `_topological_order`).
    """
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    reach = {}
    closed = set()
    for v in reversed(_topological_order(succ)):
        r = set()
        for s in succ.get(v, ()):
            if s not in r:
                r.add(s)
                r |= reach[s]
        reach[v] = r
        closed.update((v, x) for x in r)
    return closed


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


@dataclass(frozen=True)
class StrictPartialOrder:
    """A transitively closed, irreflexive, antisymmetric relation."""

    carrier: frozenset
    pairs: frozenset  # (a, b) means a < b

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
        return cls(carrier, frozenset(transitive_closure(pairs)))

    def lt(self, a, b):
        return (a, b) in self.pairs

    def comparable(self, a, b):
        return (a, b) in self.pairs or (b, a) in self.pairs

    def minimal_elements(self):
        tops = {b for _, b in self.pairs}
        return frozenset(self.carrier - tops)

    def maximal_elements(self):
        bottoms = {a for a, _ in self.pairs}
        return frozenset(self.carrier - bottoms)

    def extends(self, other):
        """True when this order contains every pair of ``other``."""
        return other.pairs <= self.pairs


@dataclass(frozen=True)
class A4Result:
    passed: bool
    witness: tuple | None  # (v, a, b): v separates the incomparable pair (a, b)


def check_A4(order):
    """Congruence of incomparability.

    For every incomparable pair (a, b) and every third element v the
    relations v < a and v < b must agree, and likewise v > a and v > b.
    Returns the first violation as (v, a, b).
    """
    items = sorted(order.carrier)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if order.comparable(a, b):
                continue
            for v in items:
                if v == a or v == b:
                    continue
                if order.lt(a, v) != order.lt(b, v):
                    return A4Result(False, (v, a, b))
                if order.lt(v, a) != order.lt(v, b):
                    return A4Result(False, (v, a, b))
    return A4Result(True, None)


class CyclicOrder:
    """A circular arrangement of distinct items.

    The arrangement is canonicalised by rotating the minimum item to the
    front, so equal cyclic orders compare equal as objects.  Orientation is
    kept; use ``same_up_to_reflection`` for the unoriented comparison.
    Arrangements of one or two items are stored sorted: there is only one
    circular arrangement of them.
    """

    __slots__ = ("items", "_pos")

    def __init__(self, seq):
        seq = tuple(seq)
        if len(set(seq)) != len(seq):
            raise ValueError(f"repeated items in cyclic order: {seq}")
        if len(seq) <= 2:
            items = tuple(sorted(seq))
        else:
            k = seq.index(min(seq))
            items = seq[k:] + seq[:k]
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(items)})

    def __setattr__(self, name, value):
        raise AttributeError("CyclicOrder is immutable")

    def __len__(self):
        return len(self.items)

    def __contains__(self, item):
        return item in self._pos

    def __eq__(self, other):
        return isinstance(other, CyclicOrder) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return f"CyclicOrder({list(self.items)})"

    def index(self, item):
        if item not in self._pos:
            raise NotInCarrier(item)
        return self._pos[item]

    def adjacent(self, item):
        """(predecessor, successor) of ``item`` along the arrangement."""
        if len(self.items) <= 2:
            raise TooSmallCarrier(len(self.items))
        i = self.index(item)
        n = len(self.items)
        return self.items[(i - 1) % n], self.items[(i + 1) % n]

    def adjacent_pairs(self):
        """All consecutive pairs, one per circular gap."""
        n = len(self.items)
        if n < 2:
            return ()
        if n == 2:
            return ((self.items[0], self.items[1]),)
        return tuple(
            (self.items[i], self.items[(i + 1) % n]) for i in range(n)
        )

    def restrict(self, subset):
        """The arrangement induced on a subset, in the same orientation."""
        subset = frozenset(subset)
        extra = subset - set(self.items)
        if extra:
            raise NotASubset(extra)
        return CyclicOrder(v for v in self.items if v in subset)

    def reversed(self):
        return CyclicOrder(tuple(reversed(self.items)))

    def same_up_to_reflection(self, other):
        return self == other or self == other.reversed()
