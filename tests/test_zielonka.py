import math
import random

import pytest

from elgames import el
from elgames import synthesis as syn
from elgames.dd import Manager
from elgames.ltl import parse_ltl
from elgames.zielonka import ZielonkaTree

from el_reference import evaluate
from test_el import example_objective, ABCD
from zielonka_reference import (LassoPlay, fair_induced_walk, max_tree_size,
                               reference_tree, tree_invariant_errors,
                               vertex_with_label)


def buchi_tree():
    table = el.ColorTable(["f"])
    return ZielonkaTree(el.buchi(table, "f"), table), table


def test_buchi_tree_is_two_vertices():
    tree, table = buchi_tree()
    assert len(tree) == 2
    assert tree.label[0] == table.full_mask and tree.winning[0]
    assert tree.label[1] == 0 and not tree.winning[1]
    assert tree.leaves == (1,)
    assert tree.level[0] == 1 and tree.level[1] == 0


def test_generalized_buchi_tree_shape():
    for k in (2, 3, 4):
        names = ["f%d" % i for i in range(1, k + 1)]
        table = el.ColorTable(names)
        tree = ZielonkaTree(el.generalized_buchi(table, names), table)
        assert len(tree) == k + 1
        assert tree.winning[0]
        kid_labels = {tree.label[c] for c in tree.children[0]}
        expected = {table.full_mask & ~(1 << i) for i in range(k)}
        assert kid_labels == expected
        assert all(not tree.winning[c] for c in tree.children[0])


def streett_tree_size(k):
    # Root has k losing children, each followed by a single winning child
    # whose subtree repeats the construction one pair down.
    size = 1
    for i in range(1, k + 1):
        size = 1 + i * (1 + size)
    return size


def test_streett_and_rabin_tree_shapes():
    for k in (1, 2, 3):
        names = []
        pairs = []
        for i in range(1, k + 1):
            names += ["r%d" % i, "g%d" % i]
            pairs.append(("r%d" % i, "g%d" % i))
        table = el.ColorTable(names)
        tree = ZielonkaTree(el.streett(table, pairs), table)
        assert len(tree) == streett_tree_size(k)
        assert max(tree.depth) == 2 * k
        assert len(tree.leaves) == math.factorial(k)
        assert all(tree.winning[v] for v in tree.leaves)
        assert all(tree.label[v] == 0 for v in tree.leaves)
        rtree = ZielonkaTree(el.rabin(table, pairs), table)
        assert len(rtree) == streett_tree_size(k)
        assert max(rtree.depth) == 2 * k
        assert all(not rtree.winning[v] for v in rtree.leaves)


def test_branching_objective_tree_matches_known_shape():
    tree = ZielonkaTree(example_objective(), ABCD)
    assert len(tree) == 8
    m = ABCD.mask

    def v(*names):
        return vertex_with_label(tree, m(*names))

    root = v("a", "b", "c", "d")
    assert root == tree.root and not tree.winning[root]
    assert sorted(tree.children[root]) == sorted([v("a", "b", "c"), v("b", "c", "d")])
    assert tree.winning[v("a", "b", "c")] and tree.winning[v("b", "c", "d")]
    assert sorted(tree.children[v("a", "b", "c")]) == sorted([v("a", "b"), v("a", "c")])
    assert tree.children[v("b", "c", "d")] == (v("b", "d"),)
    assert tree.children[v("a", "c")] == (v("c"),)
    assert tree.children[v("c")] == (v(),)
    assert tree.is_leaf(v("a", "b")) and tree.is_leaf(v("b", "d")) and tree.is_leaf(v())
    assert not tree.winning[v("a", "b")] and not tree.winning[v("b", "d")]
    assert tree.winning[v("c")] and not tree.winning[v()]
    # Deterministic child order: cardinality first, then mask value.
    assert tree.children[root] == (v("a", "b", "c"), v("b", "c", "d"))


def test_even_cardinality_muller_sizes_match_recurrence():
    expected = [max_tree_size(n) for n in range(5)]
    assert expected == [1, 2, 5, 16, 65]
    for ncolors in range(5):
        table = el.ColorTable("abcd"[:ncolors])
        phi = el.even_cardinality_muller(table)
        tree = ZielonkaTree(phi, table)
        assert len(tree) == expected[ncolors], ncolors


def test_invariants_on_random_formulas():
    rng = random.Random(23)
    for _ in range(200):
        ncolors = rng.randint(1, 5)
        table = el.ColorTable("abcde"[:ncolors])
        phi = el.random_formula(rng, table, 4)
        tree = ZielonkaTree(phi, table)
        assert tree_ok(tree)
        assert len(tree) <= max_tree_size(ncolors)
        assert max(tree.depth) <= ncolors
        assert all(len(tree.children[v]) <= 1 << ncolors for v in range(len(tree)))


def arbiter_liveness(k):
    """The objective and color table of ``GF r_i -> GF g_i`` for k clients."""
    manager = Manager()
    for i in range(k):
        manager.declare("r%d" % i)
        manager.declare("g%d" % i)
    liveness = " & ".join("(G F r%d -> G F g%d)" % (i, i) for i in range(k))
    formula, table, _ = syn.colors_of(parse_ltl(liveness), manager)
    return formula, table


def test_trees_match_the_per_subset_reference():
    deep = [
        (el.ColorTable("abcdef"),
         lambda t: el.streett(t, [("a", "b"), ("c", "d"), ("e", "f")])),
        (el.ColorTable("abcdefgh"), lambda t: el.parity(t, list("abcdefgh"))),
        (el.ColorTable("abcd"), el.even_cardinality_muller),
    ]
    cases = [(make(table), table) for table, make in deep]
    cases += [arbiter_liveness(3), arbiter_liveness(4)]
    rng = random.Random(41)
    for _ in range(100):
        table = el.ColorTable("abcdef"[:rng.randint(1, 6)])
        cases.append((el.random_formula(rng, table, 5), table))
    sizes = []
    for phi, table in cases:
        tree = ZielonkaTree(phi, table)
        label, winning, parent, children = reference_tree(phi, table)
        assert tree.label == label and tree.winning == winning
        assert tree.parent == parent and tree.children == children
        sizes.append(len(tree))
    assert sizes[:5] == [31, 8, 65, 31, 129]


def test_tree_color_budget():
    table = el.ColorTable(["c%d" % i for i in range(13)])
    with pytest.raises(el.ELError, match="color budget exceeded: 13 > 12"):
        ZielonkaTree(el.buchi(table, "c0"), table)


def tree_ok(tree):
    errors = tree_invariant_errors(tree)
    assert not errors, errors
    return True


def test_anchor_examples_on_branching_tree():
    tree = ZielonkaTree(example_objective(), ABCD)
    m = ABCD.mask
    leaf = vertex_with_label(tree, 0)
    assert tree.anchor(leaf, m("d")) == tree.root
    assert tree.anchor(leaf, m("c")) == vertex_with_label(tree, m("c"))
    assert tree.anchor(leaf, 0) == leaf


def test_fair_walk_on_buchi_lassos():
    tree, table = buchi_tree()
    dom, winning = fair_induced_walk(tree, LassoPlay((), (table.mask("f"),)))
    assert dom == tree.root and winning
    dom, winning = fair_induced_walk(tree, LassoPlay((), (0,)))
    assert dom == tree.leaves[0] and not winning


def test_fair_walk_agrees_with_objective_on_random_lassos():
    rng = random.Random(97)
    for _ in range(200):
        ncolors = rng.randint(1, 4)
        table = el.ColorTable("abcd"[:ncolors])
        phi = el.random_formula(rng, table, 3)
        tree = ZielonkaTree(phi, table)
        prefix = tuple(rng.randrange(table.full_mask + 1)
                       for _ in range(rng.randint(0, 3)))
        loop = tuple(rng.randrange(table.full_mask + 1)
                     for _ in range(rng.randint(1, 5)))
        lasso = LassoPlay(prefix, loop)
        dom, winning = fair_induced_walk(tree, lasso)
        union = 0
        for colors in loop:
            union |= colors
        assert union & ~tree.label[dom] == 0
        assert winning == evaluate(phi, union)


def test_text_and_dot_outputs_mention_every_vertex():
    tree = ZielonkaTree(example_objective(), ABCD)
    text = tree.format_text()
    dot = tree.format_dot()
    for v in range(len(tree)):
        assert "%d:" % v in text
        assert "n%d" % v in dot
