"""The per-objective caches: ``fixpoint.compile_objective`` (Zielonka tree
and equation system per objective and color table) and the truth table
``strategy.verify`` reads per objective."""

import pytest

from elgames import el, fixpoint, strategy
from elgames.fixpoint import compile_objective, solve_game
from elgames.games import (Arena, ELGame, EXISTENTIAL, load_game, random_game,
                           save_game)
from elgames.strategy import _Extractor, extract, verify
from elgames.zielonka import ZielonkaTree

from mutations import with_redirected_move
from verify_reference import verify_reference


def streett1(rng, table):
    return el.streett(table, [("a", "b")])


def loaded_pair(factory=streett1, seeds=(11, 12), n=30):
    """Two games loaded from their texts, so their objectives and tables
    are equal but distinct objects."""
    return [load_game(save_game(random_game(seed, n, 3, density=0.1,
                                            objective_factory=factory)))
            for seed in seeds]


def test_equal_objectives_share_one_tree_and_one_system():
    first, second = loaded_pair()
    assert first.objective is not second.objective
    assert first.table is not second.table
    solved = [solve_game(game) for game in (first, second)]
    (_, tree1, result1), (_, tree2, result2) = solved
    assert tree1 is tree2
    assert result1.system is result2.system and result1.system.tree is tree1
    for game, (win, tree, result) in zip((first, second), solved):
        fresh_win, fresh_tree, fresh_result = solve_game(
            game, ZielonkaTree(game.objective, game.table))
        assert fresh_tree is not tree
        assert win == fresh_win
        assert result.values == fresh_result.values
        assert extract(game, tree, result).to_text() == \
            extract(game, fresh_tree, fresh_result).to_text()


def game_over(table, phi):
    # node 0 (colour 0) and node 1 (colour 1) move to each other
    arena = Arena([EXISTENTIAL] * 2, [[1], [0]], [1, 2])
    return ELGame(arena, table, phi)


def test_reordered_or_renamed_tables_get_their_own_trees():
    phi = el.And(el.Inf(0), el.fin(1))
    tables = [el.ColorTable(names) for names in (("a", "b"), ("b", "a"),
                                                 ("x", "y"))]
    trees = [solve_game(game_over(table, phi))[1] for table in tables]
    assert len({id(tree) for tree in trees}) == 3
    for table, tree in zip(tables, trees):
        assert tree.table == table
        assert tree.format_text() == ZielonkaTree(phi, table).format_text()
    assert "{a,b}" in trees[0].format_text()
    assert "{b,a}" in trees[1].format_text()
    assert "{x,y}" in trees[2].format_text()


def test_extract_builds_no_equations(monkeypatch):
    calls = []
    original = fixpoint.build_equations

    def counting(tree):
        calls.append(tree)
        return original(tree)

    for module in (fixpoint, strategy):
        monkeypatch.setattr(module, "build_equations", counting)
    for game in loaded_pair(seeds=(21, 22, 23)):
        win, tree, result = solve_game(game)
        if not win:
            continue
        del calls[:]
        sigma = extract(game, tree, result)
        assert calls == []
        assert verify(game, sigma, win).ok


def test_mutants_fail_verify_on_a_game_sharing_its_objective():
    # The second game reads the tree, the equations and the truth table
    # the first one left in the caches; a redirected move that closes a
    # losing cycle must still be rejected there.
    for seed in range(40):
        first, second = loaded_pair(seeds=(100 + seed, 200 + seed), n=20)
        win1, tree1, result1 = solve_game(first)
        if win1:
            assert verify(first, extract(first, tree1, result1), win1).ok
        win, tree, result = solve_game(second)
        assert tree is tree1
        if not win:
            continue
        sigma = extract(second, tree, result)
        assert verify(second, sigma, win).ok
        ex = _Extractor(second, result.system, result.backend, result.values)
        for (v, m), chosen in sorted(sigma.move.items()):
            for w in second.arena.succ[v]:
                if w == chosen:
                    continue
                bad = with_redirected_move(ex, sigma, v, m, w)
                report = verify(second, bad, win)
                assert report.ok == (verify_reference(second, bad, win) is None)
                if report.loop:
                    return
    pytest.fail("no mutant closed a losing cycle")


def test_refused_objectives_are_not_cached():
    table = el.ColorTable(["c%d" % i for i in range(el.MAX_TABLE_COLORS + 1)])
    game = ELGame(Arena([EXISTENTIAL], [[0]], [0]), table, el.Inf(0))
    before = compile_objective.cache_info().currsize
    for _ in range(3):
        with pytest.raises(el.ELError, match="color budget exceeded"):
            solve_game(game)
    assert compile_objective.cache_info().currsize == before


def test_caches_stay_within_their_bounds():
    bound = compile_objective.cache_info().maxsize
    arena = Arena([EXISTENTIAL], [[0]], [1])
    for i in range(bound + 20):
        table = el.ColorTable(["c%d" % i])
        assert solve_game(ELGame(arena, table, el.Inf(0)))[0] == 1
        assert compile_objective.cache_info().currsize <= bound
    assert compile_objective.cache_info().currsize == bound

    bound = strategy._objective_table.cache_info().maxsize
    phi = el.Inf(0)
    for _ in range(bound + 20):
        assert strategy.losing_cycle([[0]], [1], phi) is None
        assert strategy._objective_table.cache_info().currsize <= bound
        phi = el.Not(el.Not(phi))
    assert strategy._objective_table.cache_info().currsize == bound
