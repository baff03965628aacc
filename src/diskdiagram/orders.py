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
    included.  A cyclic input has no topological order and is closed by
    a search from every element instead, which relates each element on
    a cycle to itself.
    """
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    order = _topological_order(succ)
    if order is None:
        return _closure_by_search(succ)
    reach = {}
    closed = set()
    for v in reversed(order):
        r = set()
        for s in succ.get(v, ()):
            if s not in r:
                r.add(s)
                r |= reach[s]
        reach[v] = r
        closed.update((v, x) for x in r)
    return closed


def _topological_order(succ):
    """Elements in an order where every pair points forward, or None."""
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
    return order if len(order) == len(indeg) else None


def _closure_by_search(succ):
    """Closure by a search from every element; also handles cycles."""
    closed = set()
    for start in succ:
        seen = set()
        stack = list(succ[start])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succ.get(x, ()))
        closed.update((start, x) for x in seen)
    return closed


@dataclass(frozen=True)
class StrictPartialOrder:
    """A transitively closed, irreflexive, antisymmetric relation."""

    carrier: frozenset
    pairs: frozenset  # (a, b) means a < b

    @classmethod
    def from_pairs(cls, carrier, pairs):
        """Build the order generated by ``pairs``.

        Raises OrderCycle if the closure would relate some element to
        itself, and NotInCarrier for pairs mentioning unknown elements.
        """
        carrier = frozenset(carrier)
        for a, b in pairs:
            for x in (a, b):
                if x not in carrier:
                    raise NotInCarrier(x)
        closed = transitive_closure(pairs)
        for a, b in closed:
            if a == b or (b, a) in closed:
                raise OrderCycle(_cycle_witness(pairs, a))
        return cls(carrier, frozenset(closed))

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


def _cycle_witness(pairs, start):
    """Recover one directed cycle through ``start`` from generating pairs."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    path, seen = [start], {start}
    node = start
    while True:
        nxt = None
        for cand in succ.get(node, ()):
            if cand == start:
                return tuple(path)
            if cand not in seen:
                nxt = cand
                break
        if nxt is None:
            return tuple(path)
        path.append(nxt)
        seen.add(nxt)
        node = nxt


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
