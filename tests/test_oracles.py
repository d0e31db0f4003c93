from elgames import el
from elgames.games import (Arena, EXISTENTIAL, UNIVERSAL, dual_game,
                           random_game, ParityGame)
from elgames.fixpoint import solve_game
from elgames.oracles import solve_el_via_reduction, solve_parity_recursive

from oracles_reference import random_parity_game, verify_parity_strategy


def test_single_existential_self_loop():
    pg = ParityGame(Arena([EXISTENTIAL], [[0]]), [2])
    w0, w1, _, _ = solve_parity_recursive(pg)
    assert (w0, w1) == (1, 0)
    pg = ParityGame(Arena([EXISTENTIAL], [[0]]), [1])
    w0, w1, _, _ = solve_parity_recursive(pg)
    assert (w0, w1) == (0, 1)


def test_parity_determinacy_and_strategies_on_random_games():
    for seed in range(1000):
        pg = random_parity_game(seed, 8, 5)
        w0, w1, s0, s1 = solve_parity_recursive(pg)
        assert w0 | w1 == pg.arena.full_mask
        assert w0 & w1 == 0
        assert verify_parity_strategy(pg, w0, s0, EXISTENTIAL)
        assert verify_parity_strategy(pg, w1, s1, UNIVERSAL)


def test_el_solver_agrees_with_reduction_oracle():
    for seed in range(150):
        game = random_game(seed, 7, 3)
        win, _, _ = solve_game(game)
        assert win == solve_el_via_reduction(game), seed


def test_negated_objective_with_swapped_owners_complements():
    for seed in range(60):
        game = random_game(seed, 6, 3)
        win = solve_el_via_reduction(game)
        dual_win = solve_el_via_reduction(dual_game(game))
        assert dual_win == ~win & game.arena.full_mask, seed


def test_parity_objective_as_el_game_matches_parity_oracle():
    # A parity game encoded with one color per node agrees with the
    # recursive solver run on the same graph.  Color id i stands for
    # 1-based priority i+1, so shift the parity game's priorities by one
    # to line up the max-even conventions.
    from elgames.games import ELGame
    for seed in range(40):
        pg = random_parity_game(2000 + seed, 6, 3)
        arena = pg.arena
        names = ["p%d" % i for i in range(1, 5)]
        table = el.ColorTable(names)
        colors = [1 << pg.priority[v] for v in range(arena.n)]
        colored = ELGame(Arena(arena.owner, arena.succ, colors), table,
                         el.parity(table, names))
        win_el, _, _ = solve_game(colored)
        shifted = ParityGame(arena, [p + 1 for p in pg.priority])
        w0, _, _, _ = solve_parity_recursive(shifted)
        assert win_el == w0, seed
