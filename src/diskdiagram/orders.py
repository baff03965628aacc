"""Strict partial orders.

Vertices are identified by strings throughout.  A strict partial order is
stored as integer bitsets over its carrier in sorted order: bit i of a
mask stands for the i-th smallest element.  For every element the order
keeps the mask of the elements strictly above it, closed under
transitivity, so a comparison is one shift and one mask.  It also keeps
the pairs it was generated from, for work that needs no closure.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotInCarrier, OrderCycle


def bits(mask):
    """Indices of the set bits of a nonnegative ``mask``, ascending.

    A mask of one word is read lowest bit first; a wider one from its
    binary digits, which costs O(words) in all rather than per set bit."""
    if mask.bit_length() > 64:
        return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def lowest(mask):
    """Index of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _closure(succ, elements):
    """Reach masks of the index graph ``succ``: i -> mask above i.

    One depth-first walk: when an element is finished, its reach mask
    (its successors and their reach) is ORed into the element it was
    entered from.  An element entered again while still open closes a
    cycle; OrderCycle then names one (see `_cycle_witness`).
    """
    n = len(succ)
    reach = [0] * n
    done = bytearray(n)  # 0 new, 1 open, 2 finished
    for root in range(n):
        if done[root] or not succ[root]:
            continue
        done[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                state = done[w]
                if state == 2 or not succ[w]:
                    reach[v] |= reach[w] | (1 << w)
                elif state == 1:
                    raise OrderCycle([elements[i] for i in _cycle_witness(succ)])
                else:
                    done[w] = 1
                    stack.append((w, iter(succ[w])))
                    break
            else:
                done[v] = 2
                stack.pop()
                if stack:
                    reach[stack[-1][0]] |= reach[v] | (1 << v)
    return reach


def _cycle_witness(succ):
    """The indices of one cycle of the index graph ``succ``.

    A pass of Kahn's algorithm leaves over the elements that lie on a
    cycle or above one.  That set is the same whatever order the pass
    takes, and each leftover element keeps a leftover predecessor (its
    remaining in-degree counts them).  So the walk backwards from the
    smallest leftover element, always to its smallest leftover
    predecessor, must repeat an element; the loop it closes is the
    witness, listed upwards (each element below the next, the last below
    the first) from its smallest element.  It depends only on the set of
    pairs.  Indices follow the sorted carrier, so the smallest index is
    the smallest element.
    """
    indeg = [0] * len(succ)
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    ready = [v for v, d in enumerate(indeg) if d == 0]
    while ready:
        v = ready.pop()
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    left = [v for v, d in enumerate(indeg) if d]
    pred = {}
    for a in left:
        for b in succ[a]:
            pred.setdefault(b, []).append(a)
    walk = [left[0]]
    at = {walk[0]: 0}
    while (u := min(pred[walk[-1]])) not in at:
        at[u] = len(walk)
        walk.append(u)
    cycle = walk[at[u] :][::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


@dataclass(frozen=True)
class StrictPartialOrder:
    """A transitively closed, irreflexive, antisymmetric relation.

    ``elements`` is the carrier, sorted; bit i of a mask stands for
    ``elements[i]`` and ``index`` maps each element to its bit.
    ``above[v]`` is the mask of the elements strictly above ``v`` and
    ``below[v]`` the mask of those strictly below it; every carrier
    element has an entry in both.  ``above_names(v)`` gives the names.
    ``succ[i]`` lists the bits j of the pairs ``(elements[i],
    elements[j])`` that generated the order.  Two orders are equal when
    they have the same carrier and relate the same elements the same way.
    """

    elements: tuple
    above: dict  # v -> mask of every w with v < w
    succ: list = field(compare=False)  # i -> bits j of the generating pairs i < j

    def __hash__(self):
        above = self.above
        return hash((self.elements, tuple(above[v] for v in self.elements)))

    @classmethod
    def from_pairs(cls, carrier, pairs):
        """Build the order generated by ``pairs``, read once.

        Raises NotInCarrier for the first element of a pair outside the
        carrier, and OrderCycle if the pairs contain a cycle.  Otherwise
        the closure is built along a depth-first walk, which relates no
        element to itself and no two elements both ways: it is a strict
        partial order with no further check.  The index lists of the
        pairs become ``succ``.
        """
        elements = tuple(sorted(set(carrier)))
        index = {v: i for i, v in enumerate(elements)}
        succ = [[] for _ in elements]
        for a, b in pairs:
            try:
                succ[index[a]].append(index[b])
            except KeyError:
                raise NotInCarrier(a if a not in index else b) from None
        reach = _closure(succ, elements)
        return cls(elements, dict(zip(elements, reach)), succ)

    @cached_property
    def index(self):
        """v -> its bit."""
        return {v: i for i, v in enumerate(self.elements)}

    @cached_property
    def below(self):
        """v -> mask of every u with u < v.

        Built on first read by one pass over the generating pairs.  u < w
        puts more elements above u than above w, so by falling count of
        elements above, each element's mask below is complete when it is
        reached; it is ORed, with the element's own bit, into each of its
        successors.
        """
        count = [self.above[v].bit_count() for v in self.elements]
        below = [0] * len(count)
        for i in sorted(range(len(count)), key=count.__getitem__, reverse=True):
            m = below[i] | 1 << i
            for j in self.succ[i]:
                below[j] |= m
        return dict(zip(self.elements, below))

    @property
    def carrier(self):
        return frozenset(self.elements)

    def above_names(self, v):
        """The frozenset of the elements strictly above ``v``."""
        elements = self.elements
        return frozenset(elements[i] for i in bits(self.above[v]))

    def mask(self, vs):
        """The mask of the elements ``vs``."""
        index = self.index
        m = 0
        for v in vs:
            m |= 1 << index[v]
        return m

    @property
    def pairs(self):
        """Every (a, b) with a < b, built afresh on each read."""
        elements = self.elements
        return frozenset(
            (a, elements[j]) for a, m in self.above.items() for j in bits(m)
        )

    def lt(self, a, b):
        """True when a < b; False when either lies outside the carrier."""
        try:
            return self.above[a] >> self.index[b] & 1 == 1
        except KeyError:
            return False

    def comparable(self, a, b):
        """True when a < b or b < a; False when either lies outside the carrier."""
        above, index = self.above, self.index
        try:
            return (above[a] >> index[b] | above[b] >> index[a]) & 1 == 1
        except KeyError:
            return False

    def minimal_elements(self):
        up = 0
        for m in self.above.values():
            up |= m
        return frozenset(v for i, v in enumerate(self.elements) if not up >> i & 1)

    def maximal_elements(self):
        return frozenset(v for v, m in self.above.items() if not m)

    def extends(self, other):
        """True when this order contains every pair of ``other``; on one
        carrier the masks above each element are compared, building no pair."""
        if self.elements != other.elements:
            return other.pairs <= self.pairs
        return not any(m & ~self.above[v] for v, m in other.above.items())


@dataclass(frozen=True)
class A4Result:
    passed: bool
    witness: tuple | None  # (v, a, b): v separates the incomparable pair (a, b)


def check_A4(order):
    """Congruence of incomparability.

    For every incomparable pair (a, b) and every third element v the
    relations v < a and v < b must agree, and likewise v > a and v > b.
    Neither of a, b lies above or below the other, so that holds exactly
    when the two have the same masks above and below them; the bits
    where those masks differ are the separating elements.  For each a in
    sorted order, the candidates b are the later elements neither
    comparable to a nor of a's (above, below) kind; the first violation,
    as (v, a, b), takes the smallest such b and its smallest separating v.
    """
    elements, above, below = order.elements, order.above, order.below
    kinds = {}
    for i, v in enumerate(elements):
        key = (above[v], below[v])
        kinds[key] = kinds.get(key, 0) | 1 << i
    full = (1 << len(elements)) - 1
    for i, a in enumerate(elements):
        up, down = above[a], below[a]
        later = full ^ ((2 << i) - 1)
        cand = later & ~(up | down | kinds[up, down])
        if cand:
            b = elements[lowest(cand)]
            v = lowest((up ^ above[b]) | (down ^ below[b]))
            return A4Result(False, (elements[v], a, b))
    return A4Result(True, None)
