"""The trees census's free trees against an enumeration of Prüfer sequences."""
from itertools import product

import pytest

from diskdiagram.census import _free_trees

import references

# free trees on n = 2..8 vertices, one per isomorphism class
COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def centre_form(n, pairs):
    """The AHU canonical form (Aho, Hopcroft and Ullman, 1974) of the tree
    on ``0 .. n - 1`` with edges ``pairs``, rooted at its centre; on two
    centres, the smaller of the two forms."""
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    degree = [len(ws) for ws in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    left = n
    while left > 2:  # peel the leaves until one vertex or one edge is left
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled

    def form(v, parent):
        return "(" + "".join(sorted(form(w, v) for w in adj[v] if w != parent)) + ")"

    return min(form(c, None) for c in layer)


def forms(n):
    out = [centre_form(n, tree) for tree in _free_trees(n)]
    assert len(set(out)) == len(out), "two trees of one class"
    return set(out)


def test_counts_and_shape():
    for n, count in COUNTS.items():
        trees = list(_free_trees(n))
        assert len(trees) == count, n
        for tree in trees:
            # (parent, child) pairs in child order, vertex 0 the root
            assert [c for _, c in tree] == list(range(1, n))
            assert all(p < c for p, c in tree)


@pytest.mark.parametrize("n", range(2, 8))
def test_one_tree_per_class_of_prufer_sequences(n):
    every = {
        centre_form(n, references.prufer_tree(seq))
        for seq in product(range(n), repeat=n - 2)
    }
    assert forms(n) == every


def test_size_8_is_every_one_leaf_extension_of_size_7():
    # every tree on 8 vertices drops a leaf to a tree on 7; the full
    # 8**6 Prüfer enumeration is too slow to run here
    grown = {
        centre_form(8, tree + [(v, 7)]) for tree in _free_trees(7) for v in range(7)
    }
    assert forms(8) == grown
