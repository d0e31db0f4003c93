import random

import pytest

from elgames import el, games
from elgames.games import (Arena, ELGame, EXISTENTIAL, UNIVERSAL, cpre,
                           load_game, owner_split, random_game, save_game)

from test_fixpoint import arb2_resp2_expansion


def split_of(arena, player):
    """The tables ``cpre`` reads for ``player``: the universal player's
    are the owner split of the arena with its owners flipped."""
    if player == UNIVERSAL:
        arena = Arena([1 - o for o in arena.owner], arena.succ, arena.colors)
    return owner_split(arena)


def two_node_arena():
    # Existential node 0 with edges to {0,1}; universal node 1 likewise.
    return Arena([EXISTENTIAL, UNIVERSAL], [[0, 1], [0, 1]])


def test_cpre_totality_extremes():
    arena = two_node_arena()
    for player in (EXISTENTIAL, UNIVERSAL):
        split = split_of(arena, player)
        assert cpre(split, arena.full_mask) == arena.full_mask
        assert cpre(split, 0) == 0


def test_cpre_two_node_example():
    arena = two_node_arena()
    assert cpre(owner_split(arena), 0b01) == 0b01


def test_arena_rejects_dead_ends_and_bad_edges():
    with pytest.raises(games.GameError):
        Arena([EXISTENTIAL, UNIVERSAL], [[1], []])
    with pytest.raises(games.GameError):
        Arena([EXISTENTIAL], [[3]])


def test_save_load_round_trip():
    game = random_game(42, 6, 3)
    text = save_game(game)
    back = load_game(text)
    assert save_game(back) == text
    assert back.objective == game.objective
    assert back.arena.succ == game.arena.succ
    assert back.arena.owner == game.arena.owner
    assert back.arena.colors == game.arena.colors


def test_deep_objective_saves_and_loads_back():
    # 1,000 ``Inf a`` joined by ``&`` are 1,000 formula levels deep.  The
    # saved texts and truth tables are compared, not the formulas:
    # node equality recurses once per level.
    table = el.ColorTable(["a"])
    objective = el.parse_formula(" & ".join(["Inf a"] * 1000), table)
    game = ELGame(Arena([EXISTENTIAL], [[0]], [table.mask("a")]), table, objective)
    text = save_game(game)
    assert text.endswith("objective %s\n" % " & ".join(["Inf a"] * 1000))
    back = load_game(text)
    assert save_game(back) == text
    assert el.truth_table(back.objective, 1) == el.truth_table(objective, 1)


def test_load_reports_line_numbers():
    text = "elgame 1\ncolors a b\nnode 0 E a\nnode 1 A\nedge 0 1\nedge 1 zero\nobjective Inf a\n"
    with pytest.raises(games.GameFormatError) as err:
        load_game(text)
    assert "line 6" in str(err.value)


def test_load_rejects_a_second_objective_line():
    text = "elgame 1\ncolors a\nnode 0 E a\nedge 0 0\nobjective Inf a\nobjective Fin a\n"
    with pytest.raises(games.GameFormatError) as err:
        load_game(text)
    assert "duplicate objective line" in str(err.value)
    assert "line 6" in str(err.value)


def test_load_rejects_totality_violation():
    text = "elgame 1\ncolors a\nnode 0 E a\nnode 1 A\nedge 0 1\nobjective Inf a\n"
    with pytest.raises(games.GameFormatError):
        load_game(text)


def test_load_rejects_unknown_color():
    text = "elgame 1\ncolors a\nnode 0 E q\nedge 0 0\nobjective Inf a\n"
    with pytest.raises(games.GameFormatError):
        load_game(text)


def test_load_rejects_gap_in_node_ids():
    text = "elgame 1\ncolors a\nnode 0 E\nnode 2 A\nedge 0 0\nedge 2 2\nobjective Inf a\n"
    with pytest.raises(games.GameFormatError):
        load_game(text)


def test_comments_and_blank_lines_ignored():
    text = "# a game\nelgame 1\ncolors a\n\nnode 0 A a  # colored\nedge 0 0\nobjective Inf a\n"
    game = load_game(text)
    assert game.arena.colors == (1,)


def test_random_game_deterministic():
    a = save_game(random_game(7, 8, 4))
    b = save_game(random_game(7, 8, 4))
    assert a == b


def test_random_game_valid():
    for seed in range(30):
        game = random_game(seed, 7, 3)
        assert load_game(save_game(game)).arena.succ == game.arena.succ


def test_cpre_monotone():
    rng = random.Random(3)
    for seed in range(40):
        arena = random_game(seed, 7, 2).arena
        x = rng.randrange(1 << arena.n)
        y = x | rng.randrange(1 << arena.n)
        split = owner_split(arena)
        cx, cy = cpre(split, x), cpre(split, y)
        assert cx & ~cy == 0


def test_cpre_duality_on_total_arenas():
    for seed in range(40):
        arena = random_game(seed, 7, 2).arena
        full = arena.full_mask
        for x in (0, full, seed * 2654435761 % (full + 1)):
            ex = cpre(owner_split(arena), x)
            un = cpre(split_of(arena, UNIVERSAL), ~x & full)
            assert ex == ~un & full


def cpre_by_definition(arena, target, player):
    """Node by node: the player's nodes with a successor in ``target``,
    the opponent's with every successor in it."""
    out = 0
    for v in range(arena.n):
        inside = [target >> w & 1 for w in arena.succ[v]]
        if any(inside) if arena.owner[v] == player else all(inside):
            out |= 1 << v
    return out


def test_cpre_matches_its_definition_node_by_node():
    rng = random.Random(11)
    arenas = [random_game(seed, n, 2, density=0.2).arena
              for seed, n in enumerate((1, 5, 17, 64, 65, 130))]
    arenas.append(arb2_resp2_expansion().arena)
    assert arenas[-1].n == 121
    for arena in arenas:
        full = arena.full_mask
        targets = [0, full] + [rng.getrandbits(arena.n) for _ in range(6)]
        for player in (EXISTENTIAL, UNIVERSAL):
            split = split_of(arena, player)
            for target in targets:
                assert cpre(split, target) == cpre_by_definition(
                    arena, target, player), (arena.n, player, target)


def test_dual_game_swaps_owner_and_negates():
    game = random_game(5, 5, 2)
    dual = games.dual_game(game)
    assert dual.objective == el.Not(game.objective)
    assert all(a != b for a, b in zip(dual.arena.owner, game.arena.owner))
    assert dual.arena.succ == game.arena.succ


def test_single_node_game_semantics():
    table = el.ColorTable(["c"])
    arena = Arena([UNIVERSAL], [[0]], [0])
    game = ELGame(arena, table, el.buchi(table, "c"))
    from elgames.fixpoint import solve_game
    win, _, _ = solve_game(game)
    assert win == 0


def test_arena_rejects_duplicate_edges():
    with pytest.raises(games.GameError):
        Arena([EXISTENTIAL], [[0, 0]])


def test_random_game_objective_factory():
    game = random_game(3, 5, 2, objective_factory=lambda rng, t: el.buchi(t, "a"))
    assert game.objective == el.Inf(0)
