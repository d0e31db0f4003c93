import hashlib
import random
from types import SimpleNamespace

import pytest

from elgames import el, fixpoint, strategy
from elgames import synthesis as syn
from elgames.fixpoint import solve_game
from elgames.fixpoint import build_equations
from elgames.games import Arena, ELGame, EXISTENTIAL, UNIVERSAL, cpre, random_game
from elgames.strategy import (ELStrategy, RankBackend, _Extractor, extract,
                              verify)
from elgames.zielonka import ZielonkaTree
from elgames.games import iter_nodes

from el_reference import evaluate
from mutations import with_redirected_move
from ranked_reference import (_Terms, equation_errors, ranked_maps,
                              ranked_solve_reference)
from verify_reference import (extract_reference, replay_lasso,
                              strategy_from_text, verify_reference)
from zielonka_reference import max_tree_size
from test_fixpoint import (ARB2, STREETT_N60_STAGES, arb2_expansion,
                           arb2_resp2_expansion, family_games, ranked_runs,
                           readme_expansion, streett3, streett_n60)


def solved(game):
    win, tree, result = solve_game(game)
    return win, tree, result


def test_buchi_game_fully_controlled_by_existential():
    table = el.ColorTable(["f"])
    # 0 -> {1,2}; 1 -> {0}; 2 -> {2}: only node 1 is accepting.
    arena = Arena([EXISTENTIAL] * 3, [[1, 2], [0], [2]],
                  [0, table.mask("f"), 0])
    game = ELGame(arena, table, el.buchi(table, "f"))
    win, tree, result = solved(game)
    assert win == 0b011
    strat = extract(game, tree, result)
    report = verify(game, strat, win)
    assert report.ok, report.reason
    # The move from 0 heads to the accepting node, not the sink.
    m0 = strat.initial[0]
    assert strat.move[(0, m0)] == 1


def test_verify_rejects_strategy_looping_on_uncolored_node():
    table = el.ColorTable(["f"])
    arena = Arena([EXISTENTIAL], [[0]], [0])
    game = ELGame(arena, table, el.buchi(table, "f"))
    tree = ZielonkaTree(game.objective, table)
    leaf = tree.leaves[0]
    strat = ELStrategy(game, tree, 1, {0: leaf}, {(0, leaf): 0},
                       {(0, leaf, 0): leaf})
    report = verify(game, strat, 1)
    assert not report.ok
    union = replay_lasso(game, strat, report.prefix, report.loop)
    assert union == 0
    assert not evaluate(game.objective, union)


def test_verify_accepts_loop_on_accepting_node():
    table = el.ColorTable(["f"])
    arena = Arena([EXISTENTIAL], [[0]], [table.mask("f")])
    game = ELGame(arena, table, el.buchi(table, "f"))
    win, tree, result = solved(game)
    assert win == 1
    strat = extract(game, tree, result)
    assert verify(game, strat, win).ok


def test_extracted_strategies_verify_on_corpus_sample():
    for seed in range(200):
        game = random_game(40_000 + seed, 7, 3)
        win, tree, result = solved(game)
        if not win:
            continue
        strat = extract(game, tree, result)
        report = verify(game, strat, win)
        assert report.ok, (seed, report.reason)
        assert strat.memory_size == len(tree.leaves)
        assert strat.memory_size <= max_tree_size(len(game.table))


def test_counterexamples_replay_to_falsifying_color_sets():
    found = 0
    for seed in range(120):
        game = random_game(50_000 + seed, 6, 3)
        win, tree, result = solved(game)
        if not win:
            continue
        strat = extract(game, tree, result)
        rng = random.Random(seed)
        moves = sorted(strat.move)
        if not moves:
            continue
        v, m = moves[rng.randrange(len(moves))]
        succs = [w for w in game.arena.succ[v] if w != strat.move[(v, m)]]
        if not succs:
            continue
        ex = _Extractor(game, result.system, result.backend, result.values)
        bad = with_redirected_move(ex, strat, v, m,
                                   succs[rng.randrange(len(succs))])
        report = verify(game, bad, win)
        if not report.ok and report.loop:
            union = replay_lasso(game, bad, report.prefix, report.loop)
            assert not evaluate(game.objective, union)
            found += 1
    assert found >= 10


def test_redirecting_outside_winning_region_is_always_rejected():
    from elgames.strategy import product_states
    checked = 0
    for seed in range(300):
        game = random_game(60_000 + seed, 7, 3)
        win, tree, result = solved(game)
        if not win or win == game.arena.full_mask:
            continue
        strat = extract(game, tree, result)
        reachable = product_states(game, strat, win)
        target = None
        for (v, m) in sorted(strat.move):
            if (v, m) not in reachable:
                continue
            escapes = [w for w in game.arena.succ[v] if not win >> w & 1]
            if escapes:
                target = (v, m, escapes[0])
                break
        if target is None:
            continue
        v, m, w = target
        ex = _Extractor(game, result.system, result.backend, result.values)
        bad = with_redirected_move(ex, strat, v, m, w)
        assert not verify(game, bad, win).ok
        checked += 1
    assert checked >= 20


def test_strategy_text_round_trip():
    for seed in (3, 17, 99):
        game = random_game(seed, 6, 3)
        win, tree, result = solved(game)
        if not win:
            continue
        strat = extract(game, tree, result)
        text = strat.to_text()
        back = strategy_from_text(text, game, tree, win)
        assert back.initial == strat.initial
        assert back.move == strat.move
        assert back.update == strat.update
        assert back.to_text() == text


def test_update_stays_below_anchor():
    for seed in range(60):
        game = random_game(70_000 + seed, 6, 3)
        win, tree, result = solved(game)
        if not win:
            continue
        strat = extract(game, tree, result)
        for (v, m, w), m2 in strat.update.items():
            s = tree.anchor(m, game.arena.colors[v])
            assert m2 in tree.leaves
            anc = tree.ancestors(m2)
            assert s in anc


def test_memory_members_stay_inside_variable_solutions():
    # The invariant behind the move rule: along compliant product plays,
    # the current node belongs to the solution of its memory leaf.
    for seed in range(60):
        game = random_game(80_000 + seed, 6, 3)
        win, tree, result = solved(game)
        if not win:
            continue
        strat = extract(game, tree, result)
        for v in iter_nodes(win):
            assert result.values[strat.initial[v]] >> v & 1
        for (v, m, w), m2 in strat.update.items():
            if win >> w & 1:
                assert result.values[m2] >> w & 1, (seed, v, m, w)


def tree_of(game):
    return ZielonkaTree(game.objective, game.table)


def verdict_values(game, tree):
    """The verdict solve's node set of every tree vertex."""
    return solve_game(game, tree)[2].values


def ranked(game, tree):
    return ranked_maps(game, tree, verdict_values(game, tree))


# Four-colour parity, 2-pair Streett and Rabin, and even-cardinality
# Muller objectives on n=30 arenas, ten games each.
SMALL_FAMILIES = [
    lambda rng, t: el.parity(t, list("abcd")),
    lambda rng, t: el.streett(t, [("a", "b"), ("c", "d")]),
    lambda rng, t: el.rabin(t, [("a", "b"), ("c", "d")]),
    lambda rng, t: el.even_cardinality_muller(t),
]


def test_ranked_solve_matches_plain_reference(monkeypatch):
    games = family_games() + [streett_n60(), arb2_expansion()]
    games += [random_game(900 + i, 20, 4, formula_depth=4) for i in range(100)]
    games += [random_game(7000 + i, 30, 4, density=0.12, objective_factory=factory)
              for factory in SMALL_FAMILIES for i in range(10)]
    games += [readme_expansion(), arb2_resp2_expansion()]
    # A stored run taken at its position without its ``subset`` test
    # leaves vertices 50-52 of this game's tree one node short, in the
    # verdict and in the maps.
    games += [random_game(3, 40, 4, density=0.15,
                          objective_factory=SMALL_FAMILIES[-1])]
    polarities = set()

    class Counting(strategy.RankBackend):
        def leaf(self, s, own, fixed):
            polarities.add(not self.tree.winning[s])
            return super().leaf(s, own, fixed)

    monkeypatch.setattr(strategy, "RankBackend", Counting)
    gfp_leaves = 0
    for k, game in enumerate(games):
        tree = tree_of(game)
        gfp_leaves += sum(tree.winning[s] for s in tree.leaves)
        assert ranked(game, tree) == ranked_solve_reference(game, tree), k
    # The one-pass leaf solver ran at least-fixpoint leaves only, and the
    # greatest-fixpoint leaves of the games above ran as Kleene stages.
    assert polarities == {True} and gfp_leaves > 0


# Stages of the ranked solve on streett_n60(): one per Kleene stage, its
# six greatest-fixpoint leaves included (it has no least-fixpoint leaf).
# Greatest fixpoints start from the verdict's sets, not from every node,
# or from a stored run's rings.
STREETT_N60_RANKED_STAGES = 416


def test_ranked_solve_stage_budget_on_repeated_inputs(monkeypatch):
    game = streett_n60()
    tree = tree_of(game)
    with pytest.raises(RuntimeError):
        ranked_solve_reference(game, tree, max_rounds=STREETT_N60_STAGES)
    values = verdict_values(game, tree)
    results = []
    original = fixpoint.solve

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fixpoint, "solve", recording)
    ranked_maps(game, tree, values)
    assert len(results) == 1
    assert results[0].iterations == STREETT_N60_RANKED_STAGES


# Distinct ``games.cpre`` targets of the ranked solve on streett_n60():
# the cumulative ring masks its terms and leaves read.
STREETT_N60_RANKED_TARGETS = 12


def test_ranked_solve_asks_cpre_once_per_target(monkeypatch):
    game = streett_n60()
    tree = tree_of(game)
    values = verdict_values(game, tree)
    targets = []

    def counting(split, target):
        targets.append(target)
        return cpre(split, target)

    monkeypatch.setattr("elgames.games.cpre", counting)
    ranked_maps(game, tree, values)
    assert len(targets) == len(set(targets)) == STREETT_N60_RANKED_TARGETS


# Stages and warm-started runs of the ranked solve of a Streett (k=3)
# game on which some positional ring candidates pass node-set inclusion
# but fail the signature order.  A ``subset`` that compares only the
# maps' node sets takes 627 stages with 238 warm starts, with the same
# maps.
SUBSET_WITNESS_RANKED = (632, 235)


def test_rank_subset_order_decides_the_ranked_warm_starts():
    game = random_game(10215, 20, 6, density=0.15, objective_factory=streett3)
    tree = tree_of(game)
    result = ranked_runs(game, tree, solve_game(game, tree)[2], RankBackend)
    assert (result.iterations,
            sum(result.warm_starts.values())) == SUBSET_WITNESS_RANKED
    assert ranked(game, tree) == ranked_solve_reference(game, tree)


def canonical(rings):
    """Rings with strictly increasing signatures of one length and
    nonempty masks, each a proper superset of the one before."""
    seen = 0
    for _, mask in rings:
        if mask == seen or mask & seen != seen:
            return False
        seen = mask
    sigs = [sig for sig, _ in rings]
    return all(len(a) == len(b) and a < b for a, b in zip(sigs, sigs[1:]))


def test_rank_backend_values_are_canonical():
    games = family_games() + [streett_n60()]
    games += [random_game(900 + i, 20, 4, formula_depth=4) for i in range(40)]
    returned = []

    class Recording(RankBackend):
        def term(self, s, term, src):
            returned.append(super().term(s, term, src))
            return returned[-1]

        def leaf(self, s, own, fixed):
            returned.append(super().leaf(s, own, fixed))
            return returned[-1]

        def union(self, a, b):
            returned.append(super().union(a, b))
            return returned[-1]

        def intersect(self, a, b, s):
            returned.append(super().intersect(a, b, s))
            return returned[-1]

    for k, game in enumerate(games):
        tree = tree_of(game)
        verdict = solve_game(game, tree)[2]
        backend = Recording(verdict.backend, tree, verdict.values)
        returned.extend(backend.top(s) for s in range(len(tree)))
        result = fixpoint.solve(build_equations(tree), backend,
                                max_stages=game.arena.n + 1)
        returned.extend(result.values.values())
        assert all(canonical(r) for r in returned), k
        returned.clear()
        # The last mask of each final map is the verdict's set.
        for s, rings in result.values.items():
            assert (rings[-1][1] if rings else 0) == verdict.values[s], (k, s)


def random_rank_pairs(rng, count):
    """Pairs of node -> signature maps of one signature length: equal
    maps, maps on disjoint signature sets (even and odd last components)
    and maps on interleaved ones, the second map of each pair half the
    time built from the first by adding nodes and lowering signatures."""
    for i in range(count):
        n, plen = rng.randint(1, 10), rng.randint(1, 3)

        def sig(parity=None):
            out = tuple(rng.randint(0, 3) for _ in range(plen))
            if parity is not None:
                out = out[:-1] + (2 * rng.randint(0, 3) + parity,)
            return out

        kind = i % 3
        a = {v: sig(0 if kind == 1 else None) for v in range(n)
             if rng.random() < 0.6}
        if kind == 0:
            yield a, dict(a)
            continue
        b = {v: sig(1 if kind == 1 else None) for v in range(n)
             if rng.random() < 0.6}
        if rng.random() < 0.5:
            b = {v: min(s, b.get(v, s)) for v, s in a.items()}
            b.update((v, sig(1 if kind == 1 else None)) for v in range(n)
                     if v not in a and rng.random() < 0.3)
        yield a, b


def test_rank_subset_is_the_per_node_order():
    # ``subset(a, b)``: every node of ``a`` is in ``b`` with a signature at
    # most its own.
    backend = RankBackend(None, None, None)
    rng = random.Random(27)
    outcomes = set()
    for a, b in random_rank_pairs(rng, 3000):
        want = all(v in b and b[v] <= sig for v, sig in a.items())
        assert backend.subset(to_rings(a), to_rings(b)) == want, (a, b)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_rank_union_and_intersect_are_per_node():
    # ``union`` gives each node its least signature over both maps;
    # ``intersect`` gives each node of both its greatest, cut to the
    # vertex's signature length (here one shorter than the maps').
    rng = random.Random(29)
    for a, b in random_rank_pairs(rng, 3000):
        sigs = list(a.values()) + list(b.values())
        if not sigs:
            continue
        plen = len(sigs[0]) - 1
        backend = RankBackend(None, SimpleNamespace(lfp_depth=[plen]), None)
        ra, rb = to_rings(a), to_rings(b)
        want = {v: min(a.get(v, sig), sig) for v, sig in b.items()}
        want.update((v, sig) for v, sig in a.items() if v not in b)
        assert backend.union(ra, rb) == to_rings(want), (a, b)
        want = {v: max(a[v], b[v])[:plen] for v in a.keys() & b.keys()}
        assert backend.intersect(ra, rb, 0) == to_rings(want), (a, b)


def test_extraction_runs_the_ranked_solve_once_through_the_module(monkeypatch):
    # The benchmark's trace times the ranked solve by wrapping the module
    # attribute ``strategy.ranked_solve``: strategy and controller
    # extraction each call it through the module, once, on the verdict's
    # own set backend.
    calls = []
    original = strategy.ranked_solve

    def traced(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(strategy, "ranked_solve", traced)
    game = streett_n60()
    win, tree, result = solved(game)
    assert verify(game, extract(game, tree, result), win).ok
    assert [args[0] for args in calls] == [result.backend]
    del calls[:]
    sgame = syn.build_game(syn.problem_from_strings(*ARB2))
    assert len(syn.extract_controller(sgame)) > 0
    assert len(calls) == 1


def test_extractor_signatures_equal_the_ranked_maps():
    # The extractor reads signatures off the rings it solved on the
    # verdict's backend; ranked_maps' maps come from a backend of their
    # own.  Both must give every (vertex, node) the same signature or none.
    games = [streett_n60()] + family_games()
    games += [random_game(900 + i, 20, 4, formula_depth=4) for i in range(40)]
    for k, game in enumerate(games):
        _, tree, result = solved(game)
        ex = _Extractor(game, result.system, result.backend, result.values)
        maps = ranked_maps(game, tree, result.values)
        for s in range(len(tree)):
            for v in range(game.arena.n):
                assert ex.signature(s, v) == maps[s].get(v), (k, s, v)


# SHA-256 of ``extract(...).to_text()``: the three n=60 base games of the
# benchmark's explicit-deep workload and the first won game of each
# explicit-shallow family, as (name, seed, n, colours, density, objective
# factory, digest).
STRATEGY_DIGESTS = [
    ("streett k=3", 5, 60, 6, 0.15, streett3,
     "9f31c77c8ca78cb807f8c2d162e165fc8cd2c55de14f8ea1819fa55d6b0831ec"),
    ("parity c=8", 5, 60, 8, 0.15, lambda rng, t: el.parity(t, list("abcdefgh")),
     "b84c93aa14e853d0674014f03c4438caa0a3e8d4efae5b05187b409853c9f2a5"),
    ("even Muller c=4", 5, 60, 4, 0.15,
     lambda rng, t: el.even_cardinality_muller(t),
     "3fd659466ae029b1fe6698daf43c15ceecfc84d5671994dc3c2c3224b70d45c5"),
    ("buchi", 548563996, 69, 3, 0.08, lambda rng, t: el.buchi(t, "a"),
     "73879e63559c812b15d8064b2a906c980fbc058825a62b6661130b5599506381"),
    ("genbuchi", 769949150, 77, 3, 0.08,
     lambda rng, t: el.generalized_buchi(t, ["a", "b", "c"]),
     "c3cf1788004d1cfe2a4f61944c3088654fbfa5a03be5eb8e7d2bad8810186c2e"),
    ("rabin1", 62288247, 80, 3, 0.08, lambda rng, t: el.rabin(t, [("a", "b")]),
     "fad7c128b2ba0829de0c66325cfc922e8cbc84288ad246542dff6d598d716fc5"),
    ("streett1", 999917037, 83, 3, 0.08, lambda rng, t: el.streett(t, [("a", "b")]),
     "8eb85253fde3c16e4eaf1304126f67b616c1f62637b47eca0719a397a0323db1"),
    ("random3", 218988355, 54, 3, 0.08, lambda rng, t: el.random_formula(rng, t, 3),
     "7eb7c364aab9b378bf0eed571d09fc81c0dab30cd3e82b4e01a7cf60992c2734"),
]


def test_strategy_texts_match_their_pinned_digests():
    for name, seed, n, ncolors, density, factory, digest in STRATEGY_DIGESTS:
        game = random_game(seed, n, ncolors, density=density,
                           objective_factory=factory)
        win, tree, result = solved(game)
        strat = extract(game, tree, result)
        assert win and verify(game, strat, win).ok, name
        text = strat.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_ranked_maps_satisfy_their_equations():
    for k, game in enumerate(family_games() + [streett_n60()]):
        tree = tree_of(game)
        assert equation_errors(game, tree, ranked(game, tree)) == [], k


def rank_backend(game, tree):
    """Rank backend over the verdict solve's own set backend."""
    verdict = solve_game(game, tree)[2]
    return RankBackend(verdict.backend, tree, verdict.values)


def to_rings(rmap):
    """A node -> signature map as rings: (signature, mask of the nodes
    whose signature is at most it) pairs in signature order."""
    rings = {}
    for v, sig in rmap.items():
        rings[sig] = rings.get(sig, 0) | 1 << v
    out = []
    acc = 0
    for sig, mask in sorted(rings.items()):
        acc |= mask
        out.append((sig, acc))
    return tuple(out)


def test_rank_derive_matches_reference_terms():
    games = family_games() + [streett_n60(), readme_expansion()]
    for k, game in enumerate(games):
        tree = tree_of(game)
        maps = ranked(game, tree)
        backend = rank_backend(game, tree)
        reference = _Terms(game, tree)
        for s in tree.leaves:
            for term in reference.equations[s].terms:
                want = {}
                reference.derive(s, term, maps[term[0]], want)
                got = backend.term(s, term, to_rings(maps[term[0]]))
                assert got == to_rings(want), (k, s, term)


def test_rank_derive_on_hand_built_arena():
    # Inf b & Fin a: root {a,b} losing, {b} winning, leaf {} losing.  The
    # leaf's root term has guard "colours contain a", a losing anchor
    # (bump) and one losing vertex below it (pad 1).
    table = el.ColorTable(["a", "b"])
    a = table.mask("a")
    arena = Arena([EXISTENTIAL, UNIVERSAL, EXISTENTIAL, EXISTENTIAL,
                   EXISTENTIAL, UNIVERSAL],
                  [[2, 3], [2, 4], [2], [3], [4], [2, 3]],
                  [a, a, 0, 0, 0, a])
    game = ELGame(arena, table, el.parse_formula("Inf b & Fin a", table))
    tree = tree_of(game)
    assert tree.winning == [False, True, False] and tree.leaves == (2,)
    term = build_equations(tree).equations[2].terms[0]
    assert term[0] == tree.root and tree.lfp_depth[2] - tree.lfp_depth[0] == 1
    src = {2: (3,), 3: (1,)}
    # 0 takes its least successor, 3; 1 has successor 4 outside src;
    # 5 takes its greatest, 2; 2 and 3 are outside the guard.
    want = {0: (2, 0), 5: (4, 0)}
    assert rank_backend(game, tree).term(2, term, to_rings(src)) == to_rings(want)
    reference = {}
    _Terms(game, tree).derive(2, term, src, reference)
    assert reference == want


# Parity over 6 and 8 colours, Streett k=2 and k=3, even Muller and
# random formulas: (colours, objective factory).
REFERENCE_FAMILIES = [
    (6, lambda rng, t: el.parity(t, list("abcdef"))),
    (8, lambda rng, t: el.parity(t, list("abcdefgh"))),
    (4, lambda rng, t: el.streett(t, [("a", "b"), ("c", "d")])),
    (6, streett3),
    (4, lambda rng, t: el.even_cardinality_muller(t)),
    (4, None),
]


def reference_games():
    """Won games of every reference family, n = 12, 28, 44 and 60."""
    for ncolors, factory in REFERENCE_FAMILIES:
        for i in range(4):
            game = random_game(20_000 + i, 12 + 16 * i, ncolors, density=0.15,
                               objective_factory=factory)
            win, tree, result = solved(game)
            if win:
                yield game, win, tree, result


def test_extract_equals_all_pairs_reference_on_product_states():
    for k, (game, win, tree, result) in enumerate(reference_games()):
        strat = extract(game, tree, result)
        ref = extract_reference(game, tree, result)
        reach = strategy.product_states(game, strat, win)
        assert reach == strategy.product_states(game, ref, win), k
        assert strat.initial == ref.initial, k
        assert strat.move == {p: w for p, w in ref.move.items() if p in reach}, k
        assert strat.update == {e: m for e, m in ref.update.items()
                                if e[:2] in reach}, k


def test_verify_agrees_with_per_color_set_reference():
    mutants = lassos = 0
    for k, (game, win, tree, result) in enumerate(reference_games()):
        strat = extract(game, tree, result)
        assert verify(game, strat, win).ok, k
        assert verify_reference(game, strat, win) is None, k
        ex = _Extractor(game, result.system, result.backend, result.values)
        rng = random.Random(k)
        pairs = sorted(strat.move)
        for v, m in rng.sample(pairs, min(4, len(pairs))):
            for w in game.arena.succ[v]:
                if w == strat.move[(v, m)]:
                    continue
                bad = with_redirected_move(ex, strat, v, m, w)
                report = verify(game, bad, win)
                reason = verify_reference(game, bad, win)
                assert report.ok == (reason is None), (k, v, m, w, report, reason)
                mutants += 1
                if report.loop:
                    union = replay_lasso(game, bad, report.prefix, report.loop)
                    assert not evaluate(game.objective, union)
                    lassos += 1
    assert mutants >= 400 and lassos >= 15, (mutants, lassos)
