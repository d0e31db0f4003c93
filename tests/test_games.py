import random

import pytest

from elgames import el, games
from elgames.games import (Arena, ELGame, EXISTENTIAL, UNIVERSAL, cpre,
                           load_game, random_game, save_game)


def two_node_arena():
    # Existential node 0 with edges to {0,1}; universal node 1 likewise.
    return Arena([EXISTENTIAL, UNIVERSAL], [[0, 1], [0, 1]])


def test_cpre_totality_extremes():
    arena = two_node_arena()
    assert cpre(arena, arena.full_mask) == arena.full_mask
    assert cpre(arena, 0) == 0


def test_cpre_two_node_example():
    arena = two_node_arena()
    assert cpre(arena, 0b01) == 0b01


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


def test_load_reports_line_numbers():
    text = "elgame 1\ncolors a b\nnode 0 E a\nnode 1 A\nedge 0 1\nedge 1 zero\nobjective Inf a\n"
    with pytest.raises(games.GameFormatError) as err:
        load_game(text)
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
        cx, cy = cpre(arena, x), cpre(arena, y)
        assert cx & ~cy == 0


def test_cpre_duality_on_total_arenas():
    for seed in range(40):
        arena = random_game(seed, 7, 2).arena
        full = arena.full_mask
        for x in (0, full, seed * 2654435761 % (full + 1)):
            ex = cpre(arena, x, EXISTENTIAL)
            un = cpre(arena, ~x & full, UNIVERSAL)
            assert ex == ~un & full


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
