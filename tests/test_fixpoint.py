import collections
import hashlib
import random

import pytest

from elgames import el, games, ltl, strategy
from elgames import synthesis as syn
from elgames.dd import Assertion
from elgames.fixpoint import (ExplicitBackend, StageLimitError, build_equations,
                              solve, solve_game)
from elgames.games import Arena, ELGame, UNIVERSAL, dual_game, random_game
from elgames.oracles import solve_el_via_reduction
from elgames.strategy import extract, verify
from elgames.zielonka import ZielonkaTree

from ranked_reference import ranked_maps, ranked_solve_reference
from symbolic_reference import SymbolicBackend as ReferenceBackend
from test_el import example_objective, ABCD
from test_synthesis import (RUNNING_LIVENESS, RUNNING_SAFETY, random_games,
                            running_problem)
from zielonka_reference import vertex_with_label


def guard_accepts(term, colors):
    _, sub, esc = term
    if colors & ~sub:
        return False
    return esc is None or bool(colors & ~esc)


def test_buchi_equations_match_known_system():
    table = el.ColorTable(["f"])
    tree = ZielonkaTree(el.buchi(table, "f"), table)
    system = build_equations(tree)
    root, leaf = system.equations
    assert not root.lfp and root.op == "inter" and root.children == (1,)
    assert leaf.lfp and leaf.op == "attract"
    assert [t[0] for t in leaf.terms] == [0, 1]
    # Ancestor term admits exactly the f-colored nodes, self term the rest.
    assert guard_accepts(leaf.terms[0], table.mask("f"))
    assert not guard_accepts(leaf.terms[0], 0)
    assert guard_accepts(leaf.terms[1], 0)
    assert not guard_accepts(leaf.terms[1], table.mask("f"))


def test_generalized_buchi_equations():
    names = ["f1", "f2", "f3"]
    table = el.ColorTable(names)
    tree = ZielonkaTree(el.generalized_buchi(table, names), table)
    system = build_equations(tree)
    root = system.equations[tree.root]
    assert not root.lfp and root.op == "inter"
    assert set(root.children) == set(tree.children[tree.root])
    for child in tree.children[tree.root]:
        eq = system.equations[child]
        assert eq.lfp and eq.op == "attract"
        assert [t[0] for t in eq.terms] == [tree.root, child]
        fi = table.full_mask & ~tree.label[child]
        for colors in range(table.full_mask + 1):
            assert guard_accepts(eq.terms[0], colors) == bool(colors & fi)
            assert guard_accepts(eq.terms[1], colors) == (not colors & fi)


def test_branching_objective_equations_match_displayed_system():
    tree = ZielonkaTree(example_objective(), ABCD)
    system = build_equations(tree)
    m = ABCD.mask

    def v(*names):
        return vertex_with_label(tree, m(*names))

    def eq(*names):
        return system.equations[v(*names)]

    # Internal vertices: polarity and child variables.
    root = eq("a", "b", "c", "d")
    assert root.lfp and root.op == "union"
    assert set(root.children) == {v("a", "b", "c"), v("b", "c", "d")}
    e2 = eq("a", "b", "c")
    assert not e2.lfp and e2.op == "inter"
    assert set(e2.children) == {v("a", "b"), v("a", "c")}
    e3 = eq("b", "c", "d")
    assert not e3.lfp and e3.op == "inter" and e3.children == (v("b", "d"),)
    e5 = eq("a", "c")
    assert e5.lfp and e5.op == "union" and e5.children == (v("c"),)
    e7 = eq("c")
    assert not e7.lfp and e7.op == "inter" and e7.children == (v(),)

    a, b, c, d = (m("a"), m("b"), m("c"), m("d"))

    def term_table(leaf_eq):
        # ancestor vertex -> set of color masks its guard admits
        out = {}
        for term in leaf_eq.terms:
            out[term[0]] = {x for x in range(16) if guard_accepts(term, x)}
        return out

    def sem(pred):
        return {x for x in range(16) if pred(x)}

    has = lambda x, col: bool(x & col)

    # X4 over {a,b}: (!c&!d -> self) | (c&!d -> X2) | (d -> X1)
    t4 = term_table(eq("a", "b"))
    assert t4[v("a", "b")] == sem(lambda x: not has(x, c) and not has(x, d))
    assert t4[v("a", "b", "c")] == sem(lambda x: has(x, c) and not has(x, d))
    assert t4[tree.root] == sem(lambda x: has(x, d))

    # X6 over {b,d}: (!a&!c -> self) | (!a&c -> X3) | (a -> X1)
    t6 = term_table(eq("b", "d"))
    assert t6[v("b", "d")] == sem(lambda x: not has(x, a) and not has(x, c))
    assert t6[v("b", "c", "d")] == sem(lambda x: not has(x, a) and has(x, c))
    assert t6[tree.root] == sem(lambda x: has(x, a))

    # X8 over {}: (!a&!b&!c&!d -> self) | (!a&!b&c&!d -> X7)
    #           | (a&!b&!d -> X5) | (b&!d -> X2) | (d -> X1)
    t8 = term_table(eq())
    assert t8[v()] == {0}
    assert t8[v("c")] == {c}
    assert t8[v("a", "c")] == sem(
        lambda x: has(x, a) and not has(x, b) and not has(x, d))
    assert t8[v("a", "b", "c")] == sem(lambda x: has(x, b) and not has(x, d))
    assert t8[tree.root] == sem(lambda x: has(x, d))


def test_every_node_admitted_by_exactly_one_term():
    rng = random.Random(31)
    for _ in range(50):
        ncolors = rng.randint(1, 4)
        table = el.ColorTable("abcd"[:ncolors])
        phi = el.random_formula(rng, table, 3)
        tree = ZielonkaTree(phi, table)
        system = build_equations(tree)
        for eqn in system.equations:
            if eqn.op != "attract":
                continue
            for colors in range(table.full_mask + 1):
                hits = [t for t in eqn.terms if guard_accepts(t, colors)]
                assert len(hits) == 1
                assert hits[0][0] == tree.anchor(eqn.vertex, colors)


def test_explicit_guard_matches_its_definition():
    # Node by node, on every term of every leaf: the backend's guard
    # mask holds exactly the nodes whose colors the term accepts.
    rng = random.Random(12)
    cases = [random_game(rng.randrange(1 << 16), rng.randint(5, 40),
                         rng.randint(1, 5)) for _ in range(30)]
    cases += family_games() + [readme_expansion()]
    for game in cases:
        backend = ExplicitBackend(game)
        system = build_equations(ZielonkaTree(game.objective, game.table))
        for eqn in system.equations:
            for term in eqn.terms:
                expected = 0
                for v, colors in enumerate(game.arena.colors):
                    if guard_accepts(term, colors):
                        expected |= 1 << v
                assert backend.guard(*term[1:]) == expected, term


def test_symbolic_guard_matches_its_definition():
    # On every letter of the running example: the guard assertion holds
    # exactly where the term accepts the letter's colors.
    game = syn.build_game(running_problem())
    m = game.manager
    backend = syn.SymbolicBackend(game)
    letters = list(ltl.letters(game.ap))
    system = build_equations(ZielonkaTree(game.el_formula, game.color_table))
    for eqn in system.equations:
        for term in eqn.terms:
            guard = Assertion(m, backend.guard(*term[1:]))
            for letter in letters:
                values = {name: name in letter for name in game.ap}
                assert m.eval(guard, values) == guard_accepts(
                    term, game.letter_colors(letter)), (term, sorted(letter))


def test_solve_single_node_games():
    table = el.ColorTable(["f"])
    phi = el.buchi(table, "f")
    win, _, _ = solve_game(ELGame(Arena([UNIVERSAL], [[0]], [table.mask("f")]),
                                  table, phi))
    assert win == 1
    win, _, _ = solve_game(ELGame(Arena([UNIVERSAL], [[0]], [0]), table, phi))
    assert win == 0


def test_solver_agrees_with_reduction_oracle_on_corpus_sample():
    for seed in range(200):
        game = random_game(10_000 + seed, 8, 4)
        win, _, _ = solve_game(game)
        assert win == solve_el_via_reduction(game), seed


def test_dual_solve_complements_winning_set():
    for seed in range(80):
        game = random_game(20_000 + seed, 7, 3)
        win, _, _ = solve_game(game)
        dual_win, _, _ = solve_game(dual_game(game))
        assert dual_win == ~win & game.arena.full_mask, seed


def test_larger_instances_complete_quickly():
    # smoke check that growth with arena size stays practical
    import time
    start = time.time()
    for seed in range(5):
        game = random_game(90_000 + seed, 24, 3)
        win, tree, _ = solve_game(game)
        assert win == solve_el_via_reduction(game, tree)
    assert time.time() - start < 30


def streett3(rng, table):
    return el.streett(table, [("a", "b"), ("c", "d"), ("e", "f")])


def streett_n60():
    return random_game(5, 60, 6, density=0.15, objective_factory=streett3)


# Kleene stages of the verdict solve on streett_n60() with the per-vertex
# memo and warm starts; without warm starts it runs 1,755, without warm
# starts and the internal vertices' memo 5,088, the plain recursion 10,390.
# The plain ranked reference cannot finish within this many
# (test_strategy.py).
STREETT_N60_STAGES = 907


def test_stage_limit_raises_stage_limit_error():
    game = streett_n60()
    tree = ZielonkaTree(game.objective, game.table)
    with pytest.raises(StageLimitError, match="did not stabilize within 1 stages"):
        solve(build_equations(tree), ExplicitBackend(game), max_stages=1)


ARB2 = ("G(!(g0 & g1))", "(G F r0 -> G F g0) & (G F r1 -> G F g1)",
        ["r0", "r1"], ["g0", "g1"])


def arb2_game():
    return syn.build_game(syn.problem_from_strings(*ARB2))


ARB3 = ("G(!(g0 & g1) & !(g0 & g2) & !(g1 & g2))",
        "(G F r0 -> G F g0) & (G F r1 -> G F g1) & (G F r2 -> G F g2)",
        ["r0", "r1", "r2"], ["g0", "g1", "g2"])

# Kleene stages, warm-started runs and memo hits (leaf and subtree) of
# the symbolic solve of the 3-client arbiter; without warm starts it runs
# 1,353 stages, without the internal vertices' memo as well 4,869.
ARB3_SYMBOLIC_STAGES = 561
ARB3_SYMBOLIC_WARM_STARTS = 156
ARB3_SYMBOLIC_MEMO_HITS = 201


def symbolic_bound(game):
    """The stage bound of ``syn.solve_symbolic``: the number of symbolic
    nodes plus one."""
    return 2 ** (len(game.state_vars) + len(game.ap)) + 1


def test_symbolic_stage_limit_raises_stage_limit_error():
    game = arb2_game()
    tree = ZielonkaTree(game.el_formula, game.color_table)
    with pytest.raises(StageLimitError, match="did not stabilize within 1 stages"):
        solve(build_equations(tree), syn.SymbolicBackend(game), max_stages=1)


def test_solve_symbolic_bounds_stages_by_symbolic_nodes(monkeypatch):
    game = arb2_game()
    bounds = []

    def recording(system, backend, max_stages):
        bounds.append(max_stages)
        return solve(system, backend, max_stages=max_stages)

    monkeypatch.setattr(syn, "solve", recording)
    win, _, _ = syn.solve_symbolic(game)
    assert syn.is_won(game, win)
    assert bounds == [symbolic_bound(game)]


def test_leaf_memo_skips_repeated_leaf_runs():
    game = streett_n60()
    win, tree, result = solve_game(game)
    assert result.iterations <= STREETT_N60_STAGES
    assert win == solve_el_via_reduction(game, tree)


class KleeneLeaf(ExplicitBackend):
    """Explicit backend whose ``leaf`` records each least-fixpoint leaf
    run's inputs and solves its equation by Kleene stages."""

    def __init__(self, game):
        super().__init__(game)
        self.calls = []

    def leaf(self, s, own, fixed):
        self.calls.append((s, fixed))
        x = fixed
        while True:
            y = fixed | self.term(s, own, x)
            if y == x:
                return x
            x = y


def test_leaf_never_runs_twice_on_equal_inputs(monkeypatch):
    # A leaf run's result depends only on the union of its ancestor terms,
    # and each leaf's memo keeps every run of the solve: no leaf is run
    # again on the input of any earlier run.  ``leaf`` runs at
    # least-fixpoint leaves: the rank backend's one pass on the README
    # expansion, which has three, and a recording Kleene solve on the
    # Rabin game of deep_games(), whose leaves repeat inputs from more
    # than len(terms) runs back (160 runs on 149 distinct inputs if each
    # leaf kept only its last len(terms) runs).
    game = readme_expansion()
    tree = ZielonkaTree(game.objective, game.table)
    lfp_leaves = [eq.vertex for eq in build_equations(tree).equations
                  if eq.op == "attract" and eq.lfp]
    assert lfp_leaves
    calls = []

    class Recording(strategy.RankBackend):
        def leaf(self, s, own, fixed):
            calls.append((s, fixed))
            return super().leaf(s, own, fixed)

    monkeypatch.setattr(strategy, "RankBackend", Recording)
    maps = ranked_maps(game, tree, solve_game(game, tree)[2].values)
    assert maps == ranked_solve_reference(game, tree)
    assert len(set(calls)) == len(calls)
    assert len(calls) > len(lfp_leaves)   # some leaves ran more than once
    game = deep_games()[2]
    tree = ZielonkaTree(game.objective, game.table)
    backend = KleeneLeaf(game)
    result = solve(build_equations(tree), backend, max_stages=game.arena.n + 1)
    assert result.values == solve_game(game, tree)[2].values
    assert len(set(backend.calls)) == len(backend.calls) == 149


# SHA-256 of ``repr(sorted(values.items()))`` of the verdict solve on
# streett_n60(), as computed when every leaf run asked for every
# ancestor term.
STREETT_N60_VALUES_DIGEST = (
    "7da69ceb11a79540a65242c18f4dc39a75a3bf710b5c4ff832831aadf357ca82")


def test_leaf_runs_ask_only_for_terms_of_changed_anchors():
    # A leaf run reuses its prefix unions up to the first ancestor whose
    # value changed since its last run, and asks for its parent's term
    # every time: that term counts the leaf's runs.
    game = streett_n60()
    system = build_equations(ZielonkaTree(game.objective, game.table))
    requests = collections.Counter()

    class Counting(ExplicitBackend):
        def term(self, s, term, value):
            requests[s, term] += 1
            return super().term(s, term, value)

    result = solve(system, Counting(game), max_stages=game.arena.n + 1)
    asked = every_term = 0
    for eq in system.equations:
        if eq.op == "attract" and len(eq.terms) > 2:
            ancestors = eq.terms[:-1]
            asked += sum(requests[eq.vertex, term] for term in ancestors)
            every_term += requests[eq.vertex, ancestors[-1]] * len(ancestors)
    assert 0 < asked < every_term
    assert result.iterations == STREETT_N60_STAGES
    assert hashlib.sha256(repr(sorted(result.values.items())).encode()
                          ).hexdigest() == STREETT_N60_VALUES_DIGEST


def counting(backend_cls, key):
    """Subclass of ``backend_cls`` recording the key of every ``cpre`` target."""

    class Counting(backend_cls):
        def __init__(self, game):
            super().__init__(game)
            self.targets = []

        def cpre(self, target):
            self.targets.append(key(target))
            return super().cpre(target)

    return Counting


def test_explicit_cpre_memo_asks_each_target_once():
    game = streett_n60()
    tree = ZielonkaTree(game.objective, game.table)
    backend = counting(ExplicitBackend, lambda mask: mask)(game)
    result = solve(build_equations(tree), backend, max_stages=game.arena.n + 1)
    assert len(backend.targets) == len(set(backend.targets)) > 1
    assert result.winning() == solve_el_via_reduction(game, tree)


def test_solve_game_calls_games_cpre_and_splits_owners_once(monkeypatch):
    # The benchmark's trace counts ``games.cpre`` by wrapping the module
    # attribute, keyed on its second argument: the solve must call it
    # through the module, once per distinct target.
    targets = []
    splits = []
    cpre, owner_split = games.cpre, games.owner_split

    def counting_cpre(split, target):
        targets.append(target)
        return cpre(split, target)

    def counting_split(arena, *args):
        splits.append(arena)
        return owner_split(arena, *args)

    monkeypatch.setattr(games, "cpre", counting_cpre)
    monkeypatch.setattr(games, "owner_split", counting_split)
    game = streett_n60()
    win, tree, result = solve_game(game)
    assert len(targets) == len(set(targets)) > 0
    assert splits == [game.arena]
    assert win == solve_el_via_reduction(game, tree)


def test_extract_reuses_the_verdicts_owner_split_and_cpre_memo(monkeypatch):
    # The certificate's ranked solve runs on the verdict's set backend: no
    # second owner split, its terms read ``cpre`` targets the verdict's
    # memo already holds, and ``games.cpre`` is called only on the others,
    # once each.
    targets = []
    splits = []
    read = []
    cpre, owner_split = games.cpre, games.owner_split
    term = ExplicitBackend.term

    def counting_cpre(split, target):
        targets.append(target)
        return cpre(split, target)

    def counting_split(arena, *args):
        splits.append(arena)
        return owner_split(arena, *args)

    def reading_term(self, s, t, value):
        read.append(value)
        return term(self, s, t, value)

    monkeypatch.setattr(games, "cpre", counting_cpre)
    monkeypatch.setattr(games, "owner_split", counting_split)
    game = streett_n60()
    win, tree, result = solve_game(game)
    verdict = set(targets)
    del targets[:]
    monkeypatch.setattr(ExplicitBackend, "term", reading_term)
    strat = extract(game, tree, result)
    assert splits == [game.arena]
    assert verdict & set(read)
    assert len(targets) == len(set(targets))
    assert set(targets) == set(read) - verdict
    assert verify(game, strat, win).ok


def test_symbolic_cpre_memo_asks_each_handle_once():
    game = arb2_game()
    tree = ZielonkaTree(game.el_formula, game.color_table)
    backend = counting(syn.SymbolicBackend, lambda handle: handle)(game)
    result = solve(build_equations(tree), backend,
                   max_stages=symbolic_bound(game))
    assert len(backend.targets) == len(set(backend.targets)) > 1
    assert syn.is_won(game, Assertion(game.manager, result.winning()))


def test_solve_symbolic_makes_no_support_walk(monkeypatch):
    """Composing the transition functions into a target is the compose
    walk alone: no support walk per ``symbolic_cpre`` call."""
    game = arb2_game()
    core, levels = game.manager.core, range(len(game.manager.names))

    def support(f):
        raise AssertionError("core.support called during the solve")

    monkeypatch.setattr(core, "support", support)
    win, _, _ = syn.solve_symbolic(game)
    assert syn.is_won(game, win)
    # the winning region's size pinned by benchmarks/bench_symbolic.py
    assert core.satcount(win.handle, levels) == 12


FAMILIES = [
    ("parity-c6", 6, lambda rng, t: el.parity(t, list("abcdef"))),
    ("streett-k3", 6, streett3),
    ("rabin-k2", 4, lambda rng, t: el.rabin(t, [("a", "b"), ("c", "d")])),
    ("muller-even-c4", 4, lambda rng, t: el.even_cardinality_muller(t)),
]


@pytest.mark.parametrize("name,ncolors,factory", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
def test_objective_families_agree_with_oracle_dual_and_verify(name, ncolors,
                                                              factory):
    # Larger trees and arenas than the random-formula corpus: this is
    # where the nested recursion does most of its work.
    for i in range(3):
        game = random_game(700 + i, 40, ncolors, density=0.15,
                           objective_factory=factory)
        win, tree, result = solve_game(game)
        assert win == solve_el_via_reduction(game, tree), (name, i)
        dual_win, _, _ = solve_game(dual_game(game))
        assert dual_win == ~win & game.arena.full_mask, (name, i)
        assert win and dual_win, (name, i)   # both players win somewhere
        assert verify(game, extract(game, tree, result), win), (name, i)


def family_games():
    """The parity, Streett, Rabin and Muller games of the fixpoint
    family test (n=40, 6-65 tree vertices)."""
    return [random_game(700 + i, 40, ncolors, density=0.15,
                        objective_factory=factory)
            for _, ncolors, factory in FAMILIES for i in range(3)]


def expansion(safety, live, inputs, outputs):
    """Explicit expansion of a synthesis game, as an explicit game."""
    game = syn.build_game(syn.problem_from_strings(safety, live, inputs, outputs))
    return syn.expand_explicit(game).elgame


def arb2_expansion():
    return expansion(*ARB2)


def readme_expansion():
    """The README's synthesis example: 3 least-fixpoint leaves."""
    return expansion("G(b|c) & G(a -> b | X X b)",
                     "(G F a -> G F b) & ((F G !a | F G !(b&c)) & G F c)",
                     ["a"], ["b", "c"])


def arb2_resp2_expansion():
    """arb2 with a bounded response: 121 nodes, 2 greatest-fixpoint leaves."""
    safety, live, inputs, outputs = ARB2
    return expansion(safety + " & G(r0 -> X g0 | X X g0)", live, inputs, outputs)


class ColdExplicit(ExplicitBackend):
    """Explicit backend whose order never holds: no run is warm-started."""

    def subset(self, a, b):
        return False


class ColdSymbolic(syn.SymbolicBackend):
    def subset(self, a, b):
        return False


class ColdRank(strategy.RankBackend):
    def subset(self, a, b):
        return False


def ranked_runs(game, tree, verdict, backend_cls):
    """The ranked solve of ``strategy.ranked_solve`` on a backend of
    class ``backend_cls`` over the verdict's set backend."""
    backend = backend_cls(verdict.backend, tree, verdict.values)
    return solve(build_equations(tree), backend, max_stages=game.arena.n + 1)


def deep_games():
    """The parity (8 colours) and even Muller (4 colours) games of the
    explicit-deep workload beside streett_n60(), and a Rabin (k=3) game
    drawn the same way (n=60, seed 5)."""
    factories = [
        (8, lambda rng, t: el.parity(t, list("abcdefgh"))),
        (4, lambda rng, t: el.even_cardinality_muller(t)),
        (6, lambda rng, t: el.rabin(t, [("a", "b"), ("c", "d"), ("e", "f")])),
    ]
    return [random_game(5, 60, ncolors, density=0.15, objective_factory=factory)
            for ncolors, factory in factories]


def test_warm_starts_leave_every_vertex_value_unchanged():
    # A stored run is taken only when ``subset`` shows it on the
    # iteration's side of the new fixpoint: warm and cold runs reach the
    # same value at every vertex, on node sets, rank rings and diagrams.
    games = family_games() + deep_games() + [
        streett_n60(), readme_expansion(), arb2_resp2_expansion()]
    for k, game in enumerate(games):
        tree = ZielonkaTree(game.objective, game.table)
        system = build_equations(tree)
        bound = game.arena.n + 1
        warm = solve(system, ExplicitBackend(game), max_stages=bound)
        cold = solve(system, ColdExplicit(game), max_stages=bound)
        assert warm.values == cold.values, k
        assert cold.warm_starts == {} and warm.iterations <= cold.iterations, k
        warm = ranked_runs(game, tree, warm, strategy.RankBackend)
        cold = ranked_runs(game, tree, cold, ColdRank)
        assert warm.values == cold.values, k
        assert cold.warm_starts == {} and warm.iterations <= cold.iterations, k
    for game in arb2_game(), syn.build_game(syn.problem_from_strings(*ARB3)):
        system = build_equations(ZielonkaTree(game.el_formula, game.color_table))
        bound = symbolic_bound(game)
        warm = solve(system, syn.SymbolicBackend(game), max_stages=bound)
        cold = solve(system, ColdSymbolic(game), max_stages=bound)
        assert warm.values == cold.values
        assert cold.warm_starts == {} and warm.iterations <= cold.iterations


def test_warm_starts_on_both_polarities():
    # Least-fixpoint runs start from a stored result whose inputs are
    # inside theirs, greatest-fixpoint runs from one whose inputs contain
    # theirs; streett_n60() has both, on node sets and on rank rings.
    game = streett_n60()
    tree = ZielonkaTree(game.objective, game.table)
    system = build_equations(tree)
    result = solve(system, ExplicitBackend(game), max_stages=game.arena.n + 1)
    ranked = ranked_runs(game, tree, result, strategy.RankBackend)
    lfp = {eq.vertex: eq.lfp for eq in system.equations}
    for solved in (result, ranked):
        assert {lfp[s] for s, n in solved.warm_starts.items() if n} == {True, False}


class NoImageExplicit(ExplicitBackend):
    """Explicit backend without ``image``: the engine keeps no memo of
    ancestors' ``cpre`` images and runs every subtree."""
    image = None


class NoImageSymbolic(syn.SymbolicBackend):
    image = None


ARB4 = ("G(!(g0 & g1) & !(g0 & g2) & !(g0 & g3) & !(g1 & g2) & !(g1 & g3)"
        " & !(g2 & g3))",
        "(G F r0 -> G F g0) & (G F r1 -> G F g1) & (G F r2 -> G F g2)"
        " & (G F r3 -> G F g3)",
        ["r0", "r1", "r2", "r3"], ["g0", "g1", "g2", "g3"])


def seeded_family_games():
    """150 seeded games, n = 20, 40 and 60, drawn in turn from the
    families of ``FAMILIES`` and random formulas over 4 colours."""
    families = [(ncolors, factory) for _, ncolors, factory in FAMILIES]
    families.append((4, None))
    out = []
    for i in range(150):
        ncolors, factory = families[i % 5]
        out.append(random_game(10000 + i, (20, 40, 60)[i // 5 % 3], ncolors,
                               density=0.15, objective_factory=factory))
    return out


def roadmap_games():
    """The Streett and parity games of ``e2ebench/run.py --roadmap``
    (n=200, density 0.05, seed 5)."""
    return [random_game(5, 200, 6, density=0.05, objective_factory=streett3),
            random_game(5, 200, 8, density=0.05, objective_factory=lambda
                        rng, t: el.parity(t, list("abcdefgh")))]


def subtree_hits(tree, result):
    """The memo hits of a solve at internal vertices."""
    return {s: n for s, n in result.memo_hits.items() if not tree.is_leaf(s)}


def test_subtree_memo_leaves_every_vertex_value_unchanged():
    # A run of an internal vertex whose ancestors' ``cpre`` images repeat
    # returns the stored result and leaves its subtree's values as the
    # stored run wrote them: every vertex ends at the value of the solve
    # that runs every subtree.  Without ``image`` only leaves hit.
    # Covered: the explicit-deep base games, the two n=200 games of
    # ``e2ebench/run.py --roadmap``, 150 seeded games and the symbolic 3-
    # and 4-client arbiters.
    deep = [streett_n60()] + deep_games()[:2] + roadmap_games()
    hit = 0
    for k, game in enumerate(deep + seeded_family_games()):
        tree = ZielonkaTree(game.objective, game.table)
        system = build_equations(tree)
        bound = game.arena.n + 1
        memo = solve(system, ExplicitBackend(game), max_stages=bound)
        plain = solve(system, NoImageExplicit(game), max_stages=bound)
        assert memo.values == plain.values, k
        assert subtree_hits(tree, plain) == {}, k
        assert subtree_hits(tree, memo) or k >= len(deep), k
        hit += bool(subtree_hits(tree, memo))
    assert hit > len(deep)
    for spec in ARB3, ARB4:
        game = syn.build_game(syn.problem_from_strings(*spec))
        tree = ZielonkaTree(game.el_formula, game.color_table)
        system = build_equations(tree)
        bound = symbolic_bound(game)
        memo = solve(system, syn.SymbolicBackend(game), max_stages=bound)
        plain = solve(system, NoImageSymbolic(game), max_stages=bound)
        assert memo.values == plain.values
        assert subtree_hits(tree, memo) and subtree_hits(tree, plain) == {}
        assert memo.iterations < plain.iterations


# Verdict stages of the two ``--roadmap`` games.  Some of their leaf runs
# repeat the inputs of a run more than len(terms) runs back of the same
# leaf; answered from the memo, those save 4 and 5 stages.
ROADMAP_VERDICT_STAGES = [1275, 571]


def test_roadmap_verdict_stage_counts():
    assert [solve_game(game)[2].iterations
            for game in roadmap_games()] == ROADMAP_VERDICT_STAGES


class CountingTerms(ExplicitBackend):
    """Explicit backend counting its ``term`` requests."""

    def __init__(self, game):
        super().__init__(game)
        self.terms = 0

    def term(self, s, term, value):
        self.terms += 1
        return super().term(s, term, value)


# Verdict stages, warm-started runs, memo hits (leaf and subtree), ``term``
# requests and winning nodes of the three explicit-deep base games:
# streett_n60() and the parity and even-Muller games of deep_games().
DEEP_VERDICT_COUNTS = [(STREETT_N60_STAGES, 281, 317, 887, 33),
                       (333, 110, 119, 283, 33), (1268, 289, 307, 1463, 33)]


def test_verdict_counts_on_the_deep_games():
    # The engine's bookkeeping decides these counts: the position in the
    # stored-run key, the prefix unions each leaf run reuses and the keys
    # of each vertex's memo.
    for k, game in enumerate([streett_n60()] + deep_games()[:2]):
        tree = ZielonkaTree(game.objective, game.table)
        backend = CountingTerms(game)
        result = solve(build_equations(tree), backend,
                       max_stages=game.arena.n + 1)
        counts = (result.iterations, sum(result.warm_starts.values()),
                  sum(result.memo_hits.values()), backend.terms, bin(result.winning()).count("1"))
        assert counts == DEEP_VERDICT_COUNTS[k], k


def test_arb3_symbolic_stage_count():
    game = syn.build_game(syn.problem_from_strings(*ARB3))
    win, _, result = syn.solve_symbolic(game)
    assert syn.is_won(game, win)
    assert result.iterations == ARB3_SYMBOLIC_STAGES
    assert sum(result.warm_starts.values()) == ARB3_SYMBOLIC_WARM_STARTS
    assert sum(result.memo_hits.values()) == ARB3_SYMBOLIC_MEMO_HITS


# The fixed specifications of the end-to-end synth-arbiter workload.
REFERENCE_SPECS = {
    "readme": (RUNNING_SAFETY, RUNNING_LIVENESS, ["a"], ["b", "c"]),
    "arb2": ARB2,
    "arb2-resp2": (ARB2[0] + " & G(r0 -> X g0 | X X g0)",) + ARB2[1:],
    "arb2-next01": (ARB2[0] + " & G(r0 -> X g0) & G(r1 -> X g1)",) + ARB2[1:],
    "arb3": ARB3,
}


def test_symbolic_solve_matches_the_assertion_reference():
    # The handle backend reaches the values of the backend over wrapped
    # assertions, vertex for vertex, in the same stages and with the
    # same warm starts and memo hits.
    named = [(name, syn.build_game(syn.problem_from_strings(*spec)))
             for name, spec in REFERENCE_SPECS.items()]
    randoms = random_games(random.Random(31415))
    named += [("random %d" % trial, game)
              for (trial, game), _ in zip(randoms, range(60))]
    for name, game in named:
        _, tree, result = syn.solve_symbolic(game)
        ref = solve(build_equations(tree), ReferenceBackend(game),
                    max_stages=symbolic_bound(game))
        assert result.values.keys() == ref.values.keys(), name
        for s, value in ref.values.items():
            assert result.values[s] == value, (name, s)
        assert result.iterations == ref.iterations, name
        assert result.warm_starts == ref.warm_starts, name
        assert result.memo_hits == ref.memo_hits, name
