import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdiagram.errors import NotInCarrier, OrderCycle
from diskdiagram.graph import build_graph
from diskdiagram.orders import (
    A4Result,
    StrictPartialOrder,
    bits,
    check_A4,
)
from references import below as below_reference
from references import bits as bits_reference
from references import flat, reach_sets, transitive_closure


def order_of(pairs, carrier=None):
    if carrier is None:
        carrier = {x for p in pairs for x in p}
    return StrictPartialOrder.from_pairs(frozenset(carrier), pairs)


def closure(pairs):
    """The package's reach map of ``pairs``, on the elements they name."""
    return reach_sets(order_of(pairs))


class TestStrictPartialOrder:
    def test_transitive_closure_added(self):
        o = order_of([("m", "a"), ("a", "M")])
        assert o.lt("m", "M")

    def test_cycle_rejected(self):
        with pytest.raises(OrderCycle):
            order_of([("a", "b"), ("b", "a")])

    def test_long_cycle_rejected(self):
        with pytest.raises(OrderCycle):
            order_of([("a", "b"), ("b", "c"), ("c", "a")])

    def test_minimal_maximal(self):
        o = order_of([("m", "a"), ("m", "b"), ("a", "M"), ("b", "M")])
        assert o.minimal_elements() == frozenset({"m"})
        assert o.maximal_elements() == frozenset({"M"})

    def test_equality_and_hash_by_relation(self):
        chain = order_of([("m", "a"), ("a", "M")])
        same = order_of([("a", "M"), ("m", "M"), ("m", "a")])
        vee = order_of([("m", "a"), ("m", "M")])
        assert chain == same
        assert hash(chain) == hash(same)
        assert chain != vee
        assert chain != order_of([("m", "a"), ("a", "M")], carrier={"m", "a", "M", "x"})
        assert len({chain, same, vee}) == 2

    def test_reach_sets_and_pairs(self):
        o = order_of([("m", "a"), ("a", "M")], carrier={"m", "a", "M", "x"})
        assert o.elements == ("M", "a", "m", "x")
        assert o.above == {"M": 0, "a": 0b0001, "m": 0b0011, "x": 0}
        assert o.below == {"M": 0b0110, "a": 0b0100, "m": 0, "x": 0}
        assert reach_sets(o) == {
            "m": frozenset({"a", "M"}),
            "a": frozenset({"M"}),
            "M": frozenset(),
            "x": frozenset(),
        }
        assert o.pairs == frozenset({("m", "a"), ("m", "M"), ("a", "M")})

    def test_below_from_shared_masks(self):
        # a and b share the mask above them, as do m1 and m2; x is alone
        o = order_of(
            [("m1", "a"), ("m1", "b"), ("m2", "a"), ("m2", "b"), ("a", "M"), ("b", "M"),
             ("x", "M")]
        )
        assert o.below == below_reference(o)
        assert o.below["M"] == o.mask({"a", "b", "m1", "m2", "x"})
        assert o.below["a"] == o.below["b"] == o.mask({"m1", "m2"})

    def test_below_on_random_orders(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randrange(1, 12)
            names = [f"e{i}" for i in range(n)]
            pairs = [
                (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            o = order_of(pairs, carrier=names)
            assert o.below == below_reference(o)

    def test_constructed_with_above_in_any_key_order(self):
        o = order_of([("m", "a"), ("a", "M")], carrier={"m", "a", "M", "x"})
        shuffled = StrictPartialOrder(o.elements, dict(reversed(o.above.items())), o.succ)
        assert shuffled.index == {"M": 0, "a": 1, "m": 2, "x": 3}
        assert shuffled.below == o.below
        assert shuffled == o
        assert hash(shuffled) == hash(o)

    def test_unsorted_carrier_is_sorted(self):
        """A carrier in any order, with repeats, gives the sorted elements,
        their bits and the masks over those bits; `build_graph` hands its
        sorted names over unchanged."""
        pairs = [("m", "a"), ("a", "M")]
        for carrier in (["x", "m", "a", "M", "a"], ("m", "x", "M", "a"), iter("xmaM")):
            o = StrictPartialOrder.from_pairs(carrier, pairs)
            assert o.elements == ("M", "a", "m", "x")
            assert o.index == {"M": 0, "a": 1, "m": 2, "x": 3}
            assert o.above == {"M": 0, "a": 0b0001, "m": 0b0011, "x": 0}
            assert o == order_of(pairs, carrier={"m", "a", "M", "x"})
        g = build_graph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("c", "a")], [("c", "a")])
        assert g.order.elements == ("a", "b", "c")
        assert g.order.index == {"a": 0, "b": 1, "c": 2}
        assert g.order.above == {"a": 0, "b": 0, "c": 0b001}

    def test_outside_the_carrier_is_unrelated(self):
        o = order_of([("m", "a")])
        assert not o.lt("m", "z")
        assert not o.lt("z", "a")
        assert not o.comparable("z", "m")
        assert not o.comparable("m", "z")

    def test_extends(self):
        small = order_of([("m", "a")], carrier={"m", "a", "M"})
        big = order_of([("m", "a"), ("a", "M")])
        assert big.extends(small)
        assert not small.extends(big)
        assert big.extends(order_of([("m", "a")]))
        assert not order_of([("m", "a")]).extends(big)

    def test_extends_equals_pair_inclusion(self):
        """On random orders over random carriers, some shared and some not,
        and on sub-orders of them."""
        rng = random.Random(5)
        names = [f"v{i}" for i in range(8)]

        def random_order(pool, pairs):
            carrier = rng.sample(pool, rng.randint(1, len(pool)))
            kept = [(a, b) for a, b in pairs if a in carrier and b in carrier]
            return order_of([p for p in kept if rng.random() < 0.5], carrier)

        for _ in range(300):
            ranked = rng.sample(names, len(names))
            upward = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1 :]]
            big = random_order(names, upward)
            small = random_order(big.elements, sorted(big.pairs))
            for a, b in ((big, small), (small, big), (big, random_order(names, upward))):
                assert a.extends(b) == (b.pairs <= a.pairs)
                assert a.extends(a)

    @given(
        st.sets(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_closure_idempotent_and_transitive(self, pairs):
        closed = flat(closure(pairs))
        assert flat(closure(closed)) == closed
        for a, b in closed:
            for c, d in closed:
                if b == c:
                    assert (a, d) in closed


def search_closure(pairs):
    """Reference closure: a depth-first search from every element."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
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


def random_pairs(rng, n, m, acyclic):
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = set()
    while len(pairs) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            if acyclic:
                i, j = min(i, j), max(i, j)
            pairs.add((names[i], names[j]))
    return pairs


class TestClosure:
    """The order's closure equals a per-element search and the frozenset
    closure it replaced."""

    def test_random_dags(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(2, 30)
            pairs = random_pairs(rng, n, rng.randrange(1, n * (n - 1) // 2 + 1), True)
            assert flat(closure(pairs)) == search_closure(pairs)
            assert closure(pairs) == transitive_closure(pairs)

    def test_random_cyclic_inputs_name_a_real_cycle(self):
        rng, shuffler = random.Random(6), random.Random(60)
        cyclic = 0
        for _ in range(300):
            n = rng.randrange(2, 15)
            pairs = random_pairs(rng, n, rng.randrange(1, n * (n - 1) + 1), False)
            closed = search_closure(pairs)
            if not any((b, a) in closed for a, b in closed):
                assert flat(closure(pairs)) == closed
                continue
            cyclic += 1
            with pytest.raises(OrderCycle) as info:
                order_of(pairs)
            witness = info.value.witness
            assert len(set(witness)) == len(witness) >= 2
            for a, b in zip(witness, witness[1:] + witness[:1]):
                assert (a, b) in pairs
            shuffled = list(pairs)
            shuffler.shuffle(shuffled)
            with pytest.raises(OrderCycle) as again:
                order_of(shuffled)
            assert again.value.witness == witness
            with pytest.raises(OrderCycle) as reference:
                transitive_closure(shuffled)
            assert reference.value.witness == witness
        assert cyclic > 100

    def test_cycle_named_beside_a_branch(self):
        pairs = [("a", "x"), ("a", "b"), ("b", "a")]
        for ordered in (pairs, pairs[::-1]):
            with pytest.raises(OrderCycle) as info:
                order_of(ordered)
            assert info.value.witness == ("a", "b")

    def test_ladder_orders(self, ladder):
        rng = random.Random(7)
        for (d, mode), g in ladder.items():
            pairs = set(g.order.pairs)
            half = {p for p in sorted(pairs) if rng.random() < 0.5}
            assert flat(closure(pairs)) == pairs, (d, mode)
            assert flat(closure(half)) == search_closure(half), (d, mode)

    def test_pairs_read_once(self):
        chain = [("a", "b"), ("b", "c")]
        assert order_of(iter(chain), carrier="abc") == order_of(chain, carrier="abc")
        g = build_graph(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], (p for p in chain)
        )
        assert g.order.pairs == {("a", "b"), ("b", "c"), ("a", "c")}
        with pytest.raises(OrderCycle) as info:
            order_of(iter([("a", "b"), ("b", "a")]), carrier="ab")
        assert info.value.witness == ("a", "b")

    def test_first_unknown_element_named(self):
        for pairs, unknown in (
            ([("a", "b"), ("x", "y")], "x"),
            ([("a", "b"), ("b", "y"), ("x", "a")], "y"),
            ([("b", "a"), ("a", "b"), ("a", "z")], "z"),
        ):
            with pytest.raises(NotInCarrier) as info:
                order_of(iter(pairs), carrier="ab")
            assert info.value.item == unknown


def scanned_A4(order):
    """Reference: scan every third element for every incomparable pair."""
    items = order.elements
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if order.comparable(a, b):
                continue
            for v in items:
                if v in (a, b):
                    continue
                if order.lt(a, v) != order.lt(b, v) or order.lt(v, a) != order.lt(v, b):
                    return A4Result(False, (v, a, b))
    return A4Result(True, None)


class TestA4:
    def test_matches_scan(self, corpus, ladder):
        rng = random.Random(8)
        orders = [g.order for _, _, g in corpus] + [g.order for g in ladder.values()]
        for _ in range(300):
            n = rng.randrange(2, 12)
            pairs = random_pairs(rng, n, rng.randrange(0, n * (n - 1) // 2 + 1), True)
            orders.append(order_of(pairs, carrier={f"v{i}" for i in range(n)}))
        passed = 0
        for o in orders:
            result = check_A4(o)
            assert result == scanned_A4(o)
            passed += result.passed
        assert 100 < passed < len(orders) - 100

    def test_fixture_true(self):
        o = order_of([("m", "a"), ("m", "b"), ("a", "M"), ("b", "M")])
        assert check_A4(o).passed

    def test_incomparable_with_asymmetric_upper_set(self):
        o = order_of([("x", "z")], carrier={"x", "y", "z"})
        res = check_A4(o)
        assert isinstance(res, A4Result)
        assert not res.passed
        v, v1, v2 = res.witness
        assert not o.comparable(v1, v2)
        assert o.comparable(v, v1) != o.comparable(v, v2)

    def test_antichain_true(self):
        o = order_of([], carrier={"a", "b", "c"})
        assert check_A4(o).passed


def test_bits_match_the_lowest_bit_loop():
    """Masks up to 15 311 bits (ladder d = 7), sparse to dense."""
    rng = random.Random(11)
    for width in (0, 1, 2, 63, 64, 65, 1000, 15311):
        for density in (0.001, 0.5, 0.999):
            mask = sum(1 << i for i in range(width) if rng.random() < density)
            assert bits(mask) == bits_reference(mask), (width, density)
