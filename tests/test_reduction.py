import random

from elgames import el
from elgames.games import (Arena, ELGame, EXISTENTIAL, UNIVERSAL, random_game)
from elgames.reduction import (export_pgsolver, product_size_unpruned,
                               reduce_to_parity)
from elgames.games import ParityGame
from elgames.oracles import solve_parity_recursive
from elgames.zielonka import ZielonkaTree

from oracles_reference import import_pgsolver, solve_buchi_direct
from test_el import example_objective, ABCD


def test_unpruned_product_size_is_nodes_times_vertices():
    arena = Arena([EXISTENTIAL] * 4, [[1], [2], [3], [0]],
                  [ABCD.mask("a"), 0, ABCD.mask("c"), 0])
    game = ELGame(arena, ABCD, example_objective())
    tree = ZielonkaTree(game.objective, game.table)
    assert product_size_unpruned(game, tree) == 4 * 8 == 32


def test_priorities_match_winning_flags():
    for seed in range(25):
        game = random_game(seed, 6, 3)
        tree = ZielonkaTree(game.objective, game.table)
        reduced = reduce_to_parity(game, tree)
        pg = reduced.parity_game
        for i, (_, t) in enumerate(reduced.pairs):
            assert pg.priority[i] % 2 == (0 if tree.winning[t] else 1)
            assert pg.priority[i] // 2 == tree.level[t]


def test_ownership_rule():
    for seed in range(10):
        game = random_game(seed, 5, 3)
        tree = ZielonkaTree(game.objective, game.table)
        reduced = reduce_to_parity(game, tree)
        for i, (v, t) in enumerate(reduced.pairs):
            if tree.is_leaf(t):
                expected = game.arena.owner[v]
            else:
                expected = EXISTENTIAL if not tree.winning[t] else UNIVERSAL
            assert reduced.parity_game.arena.owner[i] == expected


def test_product_plays_project_to_game_plays():
    rng = random.Random(9)
    for seed in range(20):
        game = random_game(seed, 6, 3)
        tree = ZielonkaTree(game.objective, game.table)
        reduced = reduce_to_parity(game, tree)
        arena = reduced.parity_game.arena
        state = rng.randrange(game.arena.n)  # start at (state, root)
        i = reduced.root_node(state)
        for _ in range(60):
            j = rng.choice(arena.succ[i])
            v, t = reduced.pairs[i]
            w, u = reduced.pairs[j]
            if tree.is_leaf(t):
                assert w in game.arena.succ[v]
                assert u == tree.anchor(t, game.arena.colors[v])
            else:
                assert w == v
                assert u in tree.children[t]
            i = j


def test_export_format_one_node():
    pg = ParityGame(Arena([EXISTENTIAL], [[0]]), [2])
    assert export_pgsolver(pg) == 'parity 0;\n0 2 0 0 "n0";\n'


def test_export_import_round_trip():
    for seed in range(15):
        game = random_game(seed, 5, 2)
        tree = ZielonkaTree(game.objective, game.table)
        pg = reduce_to_parity(game, tree).parity_game
        back = import_pgsolver(export_pgsolver(pg))
        assert back.priority == pg.priority
        assert back.arena.owner == pg.arena.owner
        assert back.arena.succ == pg.arena.succ


def test_buchi_reduction_agrees_with_direct_fixpoint():
    for seed in range(50):
        rng = random.Random(1000 + seed)
        game = random_game(rng, 7, 1, formula_depth=0)
        table = game.table
        game = ELGame(game.arena, table, el.buchi(table, "a"))
        tree = ZielonkaTree(game.objective, table)
        reduced = reduce_to_parity(game, tree)
        w0, _, _, _ = solve_parity_recursive(reduced.parity_game)
        via_reduction = 0
        for v in range(game.arena.n):
            if w0 >> reduced.root_node(v) & 1:
                via_reduction |= 1 << v
        accepting = 0
        for v in range(game.arena.n):
            if game.arena.colors[v]:
                accepting |= 1 << v
        assert via_reduction == solve_buchi_direct(game.arena, accepting)


def test_reduce_rejects_foreign_tree():
    import pytest
    from elgames import games as games_mod
    game = random_game(4, 5, 2)
    other = random_game(5, 5, 2)
    tree = ZielonkaTree(other.objective, other.table)
    if other.objective == game.objective:
        return
    with pytest.raises(games_mod.GameError):
        reduce_to_parity(game, tree)
