import functools
import gc
import hashlib
import random

import pytest

from elgames import el, fixpoint, ltl, strategy
from elgames import synthesis as syn
from elgames.dd import Manager
from elgames.fixpoint import ExplicitBackend, build_equations, solve_game
from elgames.games import Arena, ELGame, UNIVERSAL
from elgames.ltl import parse_ltl
from elgames.oracles import solve_el_via_reduction
from elgames.strategy import losing_cycle
from elgames.zielonka import ZielonkaTree

from controller_reference import letter_trace, state_trace
from el_reference import evaluate
import ltl_reference
from ltl_reference import relation
from symbolic_reference import symbolic_cpre as reference_cpre


RUNNING_SAFETY = "G(b | c) & G(a -> b | X X b)"
RUNNING_LIVENESS = "(G F a -> G F b) & ((F G !a | F G !(b & c)) & G F c)"


def running_problem():
    return syn.problem_from_strings(
        RUNNING_SAFETY, RUNNING_LIVENESS, ["a"], ["b", "c"])


def test_symbolic_solve_leaves_no_diagram_walk_in_cycles():
    # The quantifier and compose walks are recursive closures that refer to
    # themselves; each call frees its own by reference count, so the
    # cyclic collector finds none of them after a solve.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        syn.solve_symbolic(syn.build_game(running_problem()))
        gc.collect()
        names = [getattr(obj, "__name__", None) for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert "go" not in names


def letter_manager(*names):
    m = Manager()
    for name in names:
        m.declare(name)
    return m


def test_colors_of_single_atom():
    m = letter_manager("a")
    formula, table, colors = syn.colors_of(parse_ltl("G F a"), m)
    assert table.names == ("a",)
    assert colors == (m.var("a"),)
    assert formula == el.Inf(0)


def test_colors_of_running_liveness_dedupes_predicates():
    m = letter_manager("a", "b", "c")
    formula, table, colors = syn.colors_of(parse_ltl(RUNNING_LIVENESS), m)
    a, b, c = (m.var(n) for n in "abc")
    # GF a and FG !a share one color; a one-variable color keeps its name
    assert colors == (a, b, b & c, c)
    assert table.names == ("a", "b", "k2", "c")
    tree = ZielonkaTree(formula, table)
    assert len(tree) == 8


def test_colors_of_keys_colors_by_letter_assertion():
    m = letter_manager("a", "b", "c")
    a, b, c = (m.var(n) for n in "abc")
    inf, fin = el.Inf, el.fin
    cases = [
        ("G F (a -> b) & G F (!a | b) & G F (b & a) & G F (a & b)",
         (a.implies(b), a & b), ("k0", "k1"),
         el.And(el.And(el.And(inf(0), inf(0)), inf(1)), inf(1))),
        # negated G F / F G: the formula is read in negation normal form
        ("!(G F a) | G F b", (a, b), ("a", "b"), el.Or(fin(0), inf(1))),
        ("(G F a -> G F b) & !(F G c)", (a, b, ~c), ("a", "b", "k2"),
         el.And(el.Or(fin(0), inf(1)), inf(2))),
    ]
    for text, want_colors, want_names, want_formula in cases:
        formula, table, colors = syn.colors_of(parse_ltl(text), m)
        assert colors == want_colors, text
        assert table.names == want_names, text
        assert formula == want_formula, text


def test_colors_of_unsatisfiable_fin_predicate():
    m = letter_manager("a")
    formula, table, colors = syn.colors_of(parse_ltl("F G !(a & !a)"), m)
    assert colors == (m.false,)
    assert formula == el.fin(0)
    # a color that can never occur makes Fin vacuously true
    assert evaluate(formula, 0)


def test_colors_of_rejects_nested_temporal():
    m = letter_manager("a", "b")
    with pytest.raises(syn.NotELFragment):
        syn.colors_of(parse_ltl("G F (a & X b)"), m)
    with pytest.raises(syn.NotELFragment):
        syn.colors_of(parse_ltl("a & G F b"), m)
    with pytest.raises(syn.NotELFragment):
        syn.colors_of(parse_ltl("a -> G F b"), m)


def test_problem_validation():
    with pytest.raises(syn.SynthesisError):
        syn.problem_from_strings("G a", "G F a", ["a"], ["a"])
    with pytest.raises(syn.SynthesisError):
        syn.problem_from_strings("G q", "G F a", ["a"], ["b"])
    with pytest.raises(syn.SynthesisError):
        syn.problem_from_strings("G a", "G F a", [], ["a"])


def test_theta_is_exactly_initial_cube():
    game = syn.build_game(running_problem())
    m = game.manager
    cube = {name: False for name in game.state_vars}
    cube[game.state_vars[game.dsa.nfa.initial]] = True
    assert game.theta == m.cube(cube)


def test_symbolic_cpre_extremes():
    game = syn.build_game(running_problem())
    m = game.manager
    assert syn.symbolic_cpre(game, m.false) == m.false
    responsive = syn.symbolic_cpre(game, m.true)
    # the relation reads no primed letter, so only its next subset is
    # quantified; a step exists exactly from the nonempty subsets
    primed_subsets = [n + "'" for n in game.state_vars]
    expected = m.exists(primed_subsets, relation(game.dsa))
    assert responsive == expected == game.dsa.nonempty


def test_symbolic_cpre_matches_explicit_on_random_targets():
    game = syn.build_game(running_problem())
    exp = syn.expand_explicit(game)
    arena = exp.elgame.arena
    m = game.manager
    rng = random.Random(8)
    full_nodes = [(vid, kind) for vid, kind in enumerate(exp.kinds)
                  if kind[0] == "full"]

    def node_values(bits, letter):
        values = {name: bool(bits >> i & 1)
                  for i, name in enumerate(game.state_vars)}
        for name in game.ap:
            values[name] = name in letter
        return values

    for _ in range(100):
        chosen = {vid for vid, _ in full_nodes if rng.random() < 0.4}
        target = m.disj(m.cube(node_values(kind[1], kind[2]))
                        for vid, kind in full_nodes if vid in chosen)
        sym = syn.symbolic_cpre(game, target)
        # explicit: a full node is in CPre iff for every input the system
        # has an output landing in the target
        for vid, kind in full_nodes:
            ok = True
            for mid in arena.succ[vid]:
                if not any(w in chosen for w in arena.succ[mid]):
                    ok = False
                    break
            got = m.eval(sym, node_values(kind[1], kind[2]))
            assert got == ok, kind


def symbolic_games():
    """``(name, game)`` for the synth-arbiter specifications, arb4 and 30
    random specifications."""
    from test_fixpoint import ARB4, REFERENCE_SPECS
    specs = dict(REFERENCE_SPECS, arb4=ARB4)
    games = [(name, syn.build_game(syn.problem_from_strings(*spec)))
             for name, spec in specs.items()]
    return games + [("random %d" % trial, game) for (trial, game), _
                    in zip(random_games(random.Random(27)), range(30))]


def random_targets(game, rng, count):
    """Disjunctions of four random three-literal cubes over the subset
    and letter variables."""
    m = game.manager
    names = game.state_vars + game.ap
    return [m.disj(m.cube({n: rng.random() < 0.5
                           for n in rng.sample(names, min(3, len(names)))})
                   for _ in range(4))
            for _ in range(count)]


def test_symbolic_cpre_equals_the_relational_product_on_every_solve_target(
        monkeypatch):
    # The letter-first cpre returns the handle of the textbook relational
    # product on every target the symbolic solve asks for, and on random
    # targets: the solves' targets seldom tell the order of the letter
    # quantifiers apart.
    cpre = syn.symbolic_cpre
    asked = []

    def recording(game, target):
        asked.append(target)
        return cpre(game, target)

    monkeypatch.setattr(syn, "symbolic_cpre", recording)
    rng = random.Random(5)
    for name, game in symbolic_games():
        asked.clear()
        syn.solve_symbolic(game)
        assert asked, name
        for target in asked + random_targets(game, rng, 10):
            assert cpre(game, target) == reference_cpre(game, target), name


def test_rho_has_no_primed_letter_and_one_next_subset():
    # The invariants that let symbolic_cpre compose the transition
    # functions in place of a relational product: the reference relation
    # built from them never mentions a primed letter, and it gives each
    # (nonempty subset, letter) exactly one next subset, so no primed
    # subset variable can take both values.
    for name, game in symbolic_games():
        m = game.manager
        rho = relation(game.dsa)
        primed = [v + "'" for v in game.state_vars]
        support = set(m.support_names(rho))
        assert support <= set(game.state_vars + game.ap + tuple(primed)), name
        assert m.exists(primed, rho) == game.dsa.nonempty, name
        for v in primed:
            high = m.exists(primed, rho & m.var(v))
            low = m.exists(primed, rho & ~m.var(v))
            assert (high & low).is_false(), (name, v)


def test_synthesis_manager_declares_no_primed_variable():
    # The game state is the letter and the subset, and nothing else: no
    # primed partner, so no relation over one, is declared.  The letters
    # come first, inputs then outputs, and the subset variables after
    # them, so a subset's point is its bits shifted past the letters.
    rng = random.Random(39)
    for name, game in symbolic_games():
        m, k = game.manager, len(game.ap)
        assert m.names == list(game.ap) + list(game.state_vars), name
        for _ in range(8):
            bits = rng.getrandbits(len(game.state_vars))
            letter = {n for n in game.ap if rng.random() < 0.5}
            subset = [v for q, v in enumerate(game.state_vars)
                      if bits >> q & 1]
            point = game.dsa.point(bits, m.point(letter))
            assert point == bits << k | m.point(letter) == \
                m.point(subset + sorted(letter)), name


def test_build_game_constructs_one_manager(monkeypatch):
    # The tableau declares the letters on the specification's one
    # manager, and determinization appends the subset variables to it.
    made = []

    def counting_manager():
        made.append(Manager())
        return made[-1]

    monkeypatch.setattr(ltl, "Manager", counting_manager)
    for problem in (running_problem(), arb3_resp2_problem()):
        made.clear()
        game = syn.build_game(problem)
        assert len(made) == 1 and made[0] is game.manager


@functools.lru_cache(maxsize=None)
def arb2_resp3_game():
    """Game of the two-client arbiter whose clients are granted within
    three steps."""
    from test_fixpoint import ARB2
    safety, live, inputs, outputs = ARB2
    resp = "".join(" & G(r%d -> X g%d | X X g%d | X X X g%d)" % ((i,) * 4)
                   for i in range(2))
    return syn.build_game(syn.problem_from_strings(
        safety + resp, live, inputs, outputs))


def arb3_resp2_problem():
    """The three-client arbiter whose clients are granted within two
    steps (16 subset variables, unrealizable)."""
    from test_fixpoint import ARB3
    safety, live, inputs, outputs = ARB3
    resp = "".join(" & G(r%d -> X g%d | X X g%d)" % ((i,) * 3)
                   for i in range(3))
    return syn.problem_from_strings(safety + resp, live, inputs, outputs)


def test_bounded_response_arbiter_solves_in_a_small_diagram():
    # arb2-resp3 (27 subset variables) and arb3-resp2 (16): no relation
    # over primed copies, and the letters declared first on the
    # tableau's manager, keep build and solve near 3,300 and 2,350 nodes.
    arb3_resp2 = syn.build_game(arb3_resp2_problem())
    for game, size, realizable in ((arb2_resp3_game(), 27, True),
                                   (arb3_resp2, 16, False)):
        assert len(game.state_vars) == size
        win, _, _ = game.solution
        assert syn.is_won(game, win) == realizable
        assert game.manager.core.node_count() < 5000


def test_running_example_realizable_with_verified_controller():
    res = syn.solve_synthesis(running_problem(), expand_check=True)
    assert res.realizable
    ctrl = res.controller
    # the controller prefers {c} whenever possible once settled
    letters = letter_trace(ctrl, [frozenset()] * 8)
    assert all(l == frozenset(["c"]) for l in letters[1:])
    # safety holds and the liveness colors of the steady loop satisfy
    # the objective
    game = res.game
    union = 0
    for letter in letters[2:]:
        union |= game.letter_colors(letter)
    assert evaluate(game.el_formula, union)


def test_expand_check_builds_and_solves_each_arena_once(monkeypatch):
    # The cross-check builds and solves the full expansion; the controller
    # builds the winning sub-arena and runs one ranked solve on it, on the
    # symbolic solve's tree, which the game computes once for both.  No
    # verdict solve of the sub-arena comes before the ranked one.
    calls = []
    expand, solve = syn.expand_explicit, syn.solve_game
    symbolic, ranked = syn.solve_symbolic, strategy.ranked_solve

    def counting_expand(game, win=None):
        calls.append("expand " + ("full" if win is None else "winning"))
        return expand(game, win)

    def counting_solve(game, tree=None):
        full = syn.DEAD_COLOR in game.table.names
        calls.append("solve " + ("full" if full else "winning"))
        return solve(game, tree)

    def counting_symbolic(game):
        calls.append("symbolic")
        return symbolic(game)

    def counting_ranked(sets, system, values):
        calls.append("ranked")
        return ranked(sets, system, values)

    monkeypatch.setattr(syn, "expand_explicit", counting_expand)
    monkeypatch.setattr(syn, "solve_game", counting_solve)
    monkeypatch.setattr(syn, "solve_symbolic", counting_symbolic)
    monkeypatch.setattr(strategy, "ranked_solve", counting_ranked)
    res = syn.solve_synthesis(running_problem(), expand_check=True)
    assert res.realizable
    assert calls == ["symbolic", "expand full", "solve full",
                     "expand winning", "ranked"]
    monkeypatch.undo()
    plain = syn.solve_synthesis(running_problem())
    assert res.controller.to_text() == plain.controller.to_text()


def test_controller_rejects_a_region_the_explicit_solve_loses(monkeypatch):
    # The environment owns a, so G F a is unrealizable; a region claiming
    # every state with a nonempty subset passes the initial check, and the
    # explicit solve of its sub-arena must catch it.
    solve = syn.solve_symbolic

    def everything(game):
        _, tree, result = solve(game)
        m = game.manager
        return m.disj(m.var(v) for v in game.state_vars), tree, result

    monkeypatch.setattr(syn, "solve_symbolic", everything)
    prob = syn.problem_from_strings("true", "G F a", ["a"], ["b"])
    with pytest.raises(syn.ExpansionMismatch, match="winning sub-arena loses"):
        syn.solve_synthesis(prob)


def arbiter_expansion(spec):
    game = syn.build_game(syn.problem_from_strings(*spec))
    return game, syn.expand_explicit(game)


def test_expansion_has_one_intermediate_node_per_key():
    from test_fixpoint import ARB3
    game, exp = arbiter_expansion(ARB3)
    arena = exp.elgame.arena
    tags = [kind[0] for kind in exp.kinds]
    assert arena.n == 73
    assert [tags.count(t) for t in ("sink", "full", "mid")] == [1, 64, 8]
    assert len(exp.index) == arena.n
    assert all(exp.index[kind] == vid for vid, kind in enumerate(exp.kinds))
    # no node carries the empty subset
    assert all(kind[1] for kind in exp.kinds[1:])
    inputs = list(ltl.letters(game.inputs))
    live = [tuple(arena.succ[v]) for v, t in enumerate(tags) if t == "mid"]
    # no intermediate node repeats another's moves
    assert len(set(live)) == len(live)
    emptied = 0
    for vid, kind in enumerate(exp.kinds):
        if kind[0] == "full":
            _, bits, letter = kind
            nxt = game.dsa.step_bits(bits, letter)
            if nxt:
                assert [exp.kinds[m] for m in arena.succ[vid]] == \
                    [("mid", nxt, inp) for inp in inputs]
                assert exp.next_subset(vid) == nxt
            else:
                # a letter that empties the subset leads straight to the sink
                assert arena.succ[vid] == (0,)
                emptied += 1
    assert emptied


def test_winning_sub_arena_keeps_the_winning_full_nodes():
    from test_fixpoint import ARB3
    game, full = arbiter_expansion(ARB3)
    win, tree, _ = game.solution
    sub = syn.expand_explicit(game, win)
    arena = sub.elgame.arena
    tags = [kind[0] for kind in sub.kinds]
    assert arena.n == 40
    assert [tags.count(t) for t in ("sink", "full", "mid")] == [0, 32, 8]
    # the game's own colours and objective, no sink colour
    assert sub.elgame.table is game.color_table
    assert sub.elgame.objective is game.el_formula
    fwin, _, _ = solve_game(full.elgame)
    # its nodes are the full expansion's winning nodes ...
    assert sorted(sub.kinds) == sorted(
        kind for vid, kind in enumerate(full.kinds) if fwin >> vid & 1)
    m = game.manager
    for vid, kind in enumerate(sub.kinds):
        if kind[0] == "full":
            assert m.core.eval(win.handle,
                               game.dsa.point(kind[1], m.point(kind[2])))
        # ... with the full expansion's moves into winning nodes
        fvid = full.index[kind]
        assert [sub.kinds[w] for w in arena.succ[vid]] == [
            full.kinds[w] for w in full.elgame.arena.succ[fvid] if fwin >> w & 1]
    # and the sub-arena's solve on the liveness tree wins every node
    ewin, _, _ = solve_game(sub.elgame, tree)
    assert ewin == arena.full_mask


# Ranked stages on the winning sub-arena of each spec; bench_ranked.py
# pins arb4's as well.
SUB_ARENA_RANKED_STAGES = {"readme": 57, "arb2": 55, "arb2-resp2": 78,
                           "arb3": 436, "arb4": 3757}


def test_sub_arena_ranked_solve_needs_no_verdict_bound():
    # extract_controller bounds the ranked solve of the winning sub-arena
    # by every node, on a fresh set backend, rather than by a verdict
    # solve's sets.  On these sub-arenas, which the root wins entirely,
    # both bounds give the same maps in the same stages.
    from test_fixpoint import ARB4
    games = {name: pinned_synthesis(name).game
             for name in ("readme", "arb2", "arb2-resp2", "arb3")}
    games["arb4"] = syn.build_game(syn.problem_from_strings(*ARB4))
    for name, game in games.items():
        win, tree, _ = game.solution
        sub = syn.expand_explicit(game, win).elgame
        system, full = build_equations(tree), sub.arena.full_mask
        verdict = solve_game(sub, tree)[2]
        runs = [fixpoint.solve(system, strategy.RankBackend(sets, tree, values),
                               max_stages=sub.arena.n + 1)
                for sets, values in (
                    (verdict.backend, verdict.values),
                    (ExplicitBackend(sub), dict.fromkeys(range(len(tree)), full)))]
        assert runs[0].values == runs[1].values, name
        assert runs[1].values[tree.root][-1][1] == full, name
        assert [run.iterations for run in runs] == \
            [SUB_ARENA_RANKED_STAGES[name]] * 2, name


def assert_points_match_names(game, win):
    """``step_bits``, ``step_point``, ``letter_colors`` and ``win`` at a
    point equal the name-dict reference on every reachable (subset,
    letter)."""
    dsa, m = game.dsa, game.manager
    letters = list(ltl.letters(game.ap))
    for letter in letters:
        assert game.letter_colors(letter) == \
            ltl_reference.letter_colors(game, letter)
    reached = [dsa.initial_bits()]
    for bits in reached:
        for letter in letters:
            nxt = ltl_reference.step_bits(dsa, bits, letter)
            assert dsa.step_bits(bits, letter) == nxt
            point = dsa.point(bits, m.point(letter))
            assert dsa.step_point(point) == nxt
            assert m.core.eval(win.handle, point) == \
                ltl_reference.holds(game, win, bits, letter)
            if nxt and nxt not in reached:
                reached.append(nxt)
    return len(reached)


def test_point_evaluation_equals_the_name_reference():
    reached = {name: assert_points_match_names(
        pinned_synthesis(name).game, pinned_synthesis(name).win)
        for name in ("readme", "arb2-resp2")}
    game = arb2_resp3_game()
    reached["arb2-resp3"] = assert_points_match_names(game, game.solution[0])
    assert reached == {"readme": 9, "arb2-resp2": 6, "arb2-resp3": 126}
    games = random_games(random.Random(2718))
    for _ in range(30):
        _, game = next(games)
        assert_points_match_names(game, game.solution[0])


def test_expansion_resolves_each_name_once_per_letter(monkeypatch):
    # Expansion evaluates on points: it resolves names only to build one
    # point per letter, never per node.
    from test_fixpoint import ARB3
    game = syn.build_game(syn.problem_from_strings(*ARB3))
    win, _, _ = game.solution
    calls = []
    level = Manager.level

    def counting(self, name):
        calls.append(name)
        return level(self, name)

    monkeypatch.setattr(Manager, "level", counting)
    for region in (win, None):
        calls.clear()
        exp = syn.expand_explicit(game, region)
        assert 0 < len(calls) <= (1 << len(game.ap)) * len(game.ap)
        assert len(calls) < exp.elgame.arena.n * len(game.ap)


def expansion_digest(exp):
    """SHA-256 of an expansion's structure: every node's kind (letters as
    sorted names), moves and colour mask, in node order."""
    arena = exp.elgame.arena
    lines = []
    for vid, kind in enumerate(exp.kinds):
        shown = [kind[0]]
        if len(kind) == 3:
            shown += ["%x" % kind[1], ",".join(sorted(kind[2]))]
        shown += [",".join(map(str, arena.succ[vid])), "%x" % arena.colors[vid]]
        lines.append(" ".join(shown))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Digests of the winning sub-arena and the full expansion of each spec,
# the same as when expansion evaluated diagrams on name dicts;
# benchmarks/bench_expand.py pins their prefixes and those of larger specs.
EXPANSION_DIGESTS = {
    "readme": (
        "dd75b3ebaf5dfbfe0a2c810714c52fecde94d89f883ffe0d98c3fafe5158ea3f",
        "409065281e19571f08df214c150e7d94070c2fa71cec58ed1a05cdf764c80e62"),
    "arb2-resp2": (
        "c5dea5291a9d18422ef97e017f71e4e58076b6de32c09f1e2223155e03038ad4",
        "2ff576e924fc9d949107abe7bf2277ab4c658a78c63771ee0e9dd42fabdf8a22"),
    "arb3": (
        "b43c9ffad62901461ccee3356603d89ad88f15fad2f6886072dc741b834d6f2a",
        "f2dfa88f092b11f6efa0b66ed28c6555cf0c62e05252382f427929cbf07d9dae"),
}


def test_expansions_match_their_pinned_digests():
    for name, digests in EXPANSION_DIGESTS.items():
        res = pinned_synthesis(name)
        got = tuple(expansion_digest(syn.expand_explicit(res.game, region))
                    for region in (res.win, None))
        assert got == digests, name


# Stages of the arb3 expansion's explicit re-solve.
ARB3_EXPANSION_STAGES = 665


def test_arb3_expansion_resolve_stage_count():
    from test_fixpoint import ARB3
    _, exp = arbiter_expansion(ARB3)
    _, _, result = solve_game(exp.elgame)
    assert result.iterations == ARB3_EXPANSION_STAGES


def test_cross_check_rejects_a_region_holding_on_the_empty_subset(monkeypatch):
    # No full node carries the empty subset, so only the region check
    # catches a symbolic region that claims such states.
    solve = syn.solve_symbolic

    def with_empty_subset(game):
        win, tree, result = solve(game)
        m = game.manager
        empty = ~m.disj(m.var(v) for v in game.state_vars)
        return win | empty, tree, result

    monkeypatch.setattr(syn, "solve_symbolic", with_empty_subset)
    with pytest.raises(syn.ExpansionMismatch, match="empty subset"):
        syn.solve_synthesis(running_problem(), expand_check=True)


# SHA-256 of each controller's text, extracted on the winning sub-arena
# with the liveness objective's tree.  Each text is the full-expansion
# reference's with anchors renumbered (see the test below).
CONTROLLER_DIGESTS = {
    "readme": "996a4fc51e50183b8d15759636da3b82d1da2b3a98778657a32776c888654a55",
    "arb2": "aa59eb4957beb73cd16ff47e41a33463c26625aed6a5e13e4fae129eb80c3532",
    "arb2-resp2": "89330e65784cc43a7314580ad809a737ef7a760448be001b84190289175e10bc",
    "arb3": "e8956a25c105a5f01df061a2fca833290fb6f208c25fe4d4321b7388131dc106",
}


@functools.lru_cache(maxsize=None)
def pinned_synthesis(name):
    """Synthesis result of one spec of ``CONTROLLER_DIGESTS``."""
    from test_fixpoint import ARB2, ARB3
    safety, live, inputs, outputs = ARB2
    specs = {
        "readme": (RUNNING_SAFETY, RUNNING_LIVENESS, ["a"], ["b", "c"]),
        "arb2": ARB2,
        "arb2-resp2": (safety + " & G(r0 -> X g0 | X X g0)", live, inputs, outputs),
        "arb3": ARB3,
    }
    return syn.solve_synthesis(syn.problem_from_strings(*specs[name]))


def test_controller_texts_match_their_pinned_digests():
    for name, digest in CONTROLLER_DIGESTS.items():
        text = pinned_synthesis(name).controller.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_controllers_equal_the_full_expansion_reference():
    from controller_reference import extract_controller_full, renumbered_text
    shifts = {}
    for name in CONTROLLER_DIGESTS:
        res = pinned_synthesis(name)
        reference, etree = extract_controller_full(res.game)
        shift = len(etree) - len(res.tree)
        assert res.controller.to_text() == renumbered_text(reference, shift), name
        shifts[name] = shift
    # phi fails on the README spec's full colour set, so both trees have
    # one shape there; the arbiters' phi holds on it, so phi & Fin(_stuck)
    # adds a losing root
    assert shifts == {"readme": 0, "arb2": 1, "arb2-resp2": 1, "arb3": 1}


def controller_product(game, init, trans):
    """Controller state x DSA subset x every input, from the controller's
    ``init`` and ``trans`` maps.  Every node is universal and carries the
    colours of the letter it was entered by.  Returns the successor
    lists and the colours, or None when a move is missing or a letter
    empties the subset."""
    dsa = game.dsa
    index = {}
    nodes = []

    def enter(bits, inp, move):
        if move is None:
            return None
        out, q = move
        bits = dsa.step_bits(bits, inp | out)
        if not bits:
            return None
        key = (q, bits, inp | out)
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
        return index[key]

    inputs = list(ltl.letters(game.inputs))
    if None in [enter(dsa.initial_bits(), inp, init.get(inp)) for inp in inputs]:
        return None
    adj = []
    for q, bits, _ in nodes:   # the list grows while it is walked
        targets = [enter(bits, inp, trans.get((q, inp))) for inp in inputs]
        if None in targets:
            return None
        adj.append(sorted(set(targets)))
    return adj, [game.letter_colors(letter) for _, _, letter in nodes]


def test_pinned_controllers_have_no_losing_cycle():
    for name in CONTROLLER_DIGESTS:
        res = pinned_synthesis(name)
        ctrl = res.controller
        built = controller_product(res.game, ctrl.init, ctrl.trans)
        assert built is not None, name
        adj, colors = built
        assert losing_cycle(adj, colors, res.game.el_formula) is None, name


def twelve_colour_problem():
    """G F of twelve distinct output cubes: a liveness part with as many
    colours as an objective tree takes."""
    outs = ["b", "c", "d", "e"]
    cubes = [" & ".join(n if bits >> i & 1 else "!" + n
                        for i, n in enumerate(outs)) for bits in range(12)]
    live = " & ".join("G F (%s)" % cube for cube in cubes)
    return syn.problem_from_strings("true", live, ["a"], outs)


def test_twelve_colour_liveness_gets_a_live_controller():
    res = syn.solve_synthesis(twelve_colour_problem())
    assert res.realizable
    assert len(res.game.color_table) == el.MAX_TABLE_COLORS
    ctrl = res.controller
    built = controller_product(res.game, ctrl.init, ctrl.trans)
    assert built is not None
    adj, colors = built
    assert losing_cycle(adj, colors, res.game.el_formula) is None


def test_losing_cycle_agrees_with_the_oracle_on_mutated_controllers():
    built = losing = rejected = 0
    for name in CONTROLLER_DIGESTS:
        res = pinned_synthesis(name)
        game, ctrl = res.game, res.controller
        rng = random.Random(name)
        outs = list(ltl.letters(game.outputs))
        keys = sorted(ctrl.trans, key=lambda k: (k[0], sorted(k[1])))
        for _ in range(30):
            k = rng.choice(keys)
            out, q = ctrl.trans[k]
            if rng.random() < 0.5:
                move = (rng.choice([o for o in outs if o != out]), q)
            else:
                move = (out, rng.choice([r for r in range(len(ctrl)) if r != q]))
            found = controller_product(game, ctrl.init, {**ctrl.trans, k: move})
            if found is None:
                rejected += 1
                continue
            adj, colors = found
            cycle = losing_cycle(adj, colors, game.el_formula)
            arena = Arena([UNIVERSAL] * len(adj), adj, colors)
            product = ELGame(arena, game.color_table, game.el_formula)
            won = solve_el_via_reduction(product)
            assert (cycle is None) == (won == arena.full_mask), (name, k, move)
            built += 1
            losing += cycle is not None
        for q in rng.sample(range(len(ctrl)), min(3, len(ctrl))):
            dropped = {k: m for k, m in ctrl.trans.items() if k[0] != q}
            assert controller_product(game, ctrl.init, dropped) is None, (name, q)
    assert built >= 40 and losing >= 15 and rejected >= 20, (built, losing, rejected)


def test_running_example_initial_node_wins_for_every_first_input():
    res = syn.solve_synthesis(running_problem(), with_controller=False)
    game = res.game
    exp = syn.expand_explicit(game)
    ewin, _, _ = solve_game(exp.elgame)
    for inp in ltl.letters(game.inputs):
        assert any(
            ewin >> exp.index[("full", exp.initial_subset, frozenset(inp | out))] & 1
            for out in ltl.letters(game.outputs)), inp


def test_forced_unrealizable_variant():
    prob = syn.problem_from_strings("G(b | c) & G !b", "G F b", ["a"], ["b", "c"])
    res = syn.solve_synthesis(prob)
    assert not res.realizable
    assert (res.game.theta & ~res.win) == res.game.theta
    # every initial-subset node is losing: theta & win is empty
    assert (res.game.theta & res.win).is_false()


def test_trivially_unsafe_specification():
    prob = syn.problem_from_strings("false", "G F a", ["a"], ["b"])
    res = syn.solve_synthesis(prob)
    assert not res.realizable


def test_always_output_b_realizable():
    prob = syn.problem_from_strings("true", "G F a -> G F b", ["a"], ["b"])
    res = syn.solve_synthesis(prob, expand_check=True)
    assert res.realizable
    letters = letter_trace(res.controller, [frozenset(["a"])] * 6)
    union_colors = 0
    for letter in letters:
        union_colors |= res.game.letter_colors(letter)
    assert evaluate(res.game.el_formula, union_colors)


def test_stability_objective():
    # the system must eventually keep b constant despite the input
    prob = syn.problem_from_strings("true", "F G b | F G !b", ["a"], ["b"])
    res = syn.solve_synthesis(prob)
    assert res.realizable


def test_controller_simulation_random_environments():
    res = syn.solve_synthesis(running_problem())
    ctrl = res.controller
    game = res.game
    dsa = game.dsa
    rng = random.Random(99)
    for trial in range(120):
        prefix_len = rng.randint(1, 4)
        loop_len = rng.randint(1, 5)
        seq = [frozenset(n for n in game.inputs if rng.random() < 0.5)
               for _ in range(prefix_len + loop_len)]
        inputs = []
        for step in range(160):
            if step < prefix_len:
                inputs.append(seq[step])
            else:
                inputs.append(seq[prefix_len + (step - prefix_len) % loop_len])
        letters = letter_trace(ctrl, inputs)
        # safety: the tracked subset never dies
        bits = dsa.initial_bits()
        for letter in letters:
            bits = dsa.step_bits(bits, letter)
            assert bits != 0
        # liveness on the detected lasso: once (state, loop position)
        # repeats, the letters in between recur forever
        trace = state_trace(ctrl, inputs)
        seen = {}
        for step in range(prefix_len, len(inputs)):
            key = (trace[step], (step - prefix_len) % loop_len)
            if key in seen:
                union = 0
                for pos in range(seen[key], step):
                    union |= game.letter_colors(letters[pos])
                assert evaluate(game.el_formula, union), trial
                break
            seen[key] = step


def test_pipeline_equivalence_on_small_instances():
    cases = [
        ("G(b | c) & G(a -> b | X X b)", RUNNING_LIVENESS, ["a"], ["b", "c"]),
        ("G(a -> X b)", "G F b", ["a"], ["b"]),
        ("G(b | c)", "(F G !a | G F c) & (G F a -> G F b)", ["a"], ["b", "c"]),
        ("true", "F G b | G F a", ["a"], ["b"]),
        ("G(a -> b | X b)", "G F c & (G F a -> G F b)", ["a"], ["b", "c"]),
    ]
    for safety, liveness, ins, outs in cases:
        prob = syn.problem_from_strings(safety, liveness, ins, outs)
        game = syn.build_game(prob)
        win, tree, _ = game.solution
        # raises on any disagreement with the explicit pipeline
        syn.cross_check_symbolic_vs_explicit(game, win)
        # and the reduction oracle agrees with the explicit solver
        from elgames.oracles import solve_el_via_reduction
        exp = syn.expand_explicit(game)
        ewin, _, _ = solve_game(exp.elgame)
        assert ewin == solve_el_via_reduction(exp.elgame)
        if syn.is_won(game, win):
            ctrl = syn.extract_controller(game)
            assert len(ctrl) <= bounded_states(game, tree)


def bounded_states(game, tree):
    # reachable subsets x tree positions (anchor, slot) is the shape bound
    from ltl_reference import reachable_subset_count
    subsets = reachable_subset_count(game.dsa) + 1  # plus the dead subset
    slots = sum(max(1, len(tree.children[v])) for v in range(len(tree)))
    return subsets * slots


def test_controller_text_dump():
    res = syn.solve_synthesis(running_problem())
    text = res.controller.to_text()
    assert text.startswith("mealy 1")
    assert "init " in text and "on " in text and "subset=" in text


def test_expansion_projects_to_the_drawn_subset_arena():
    """The subset-level transition structure of the running example's
    game matches the subset construction of the hand-encoded four-state
    automaton (with the b|c conjunct restored on every transition), the
    arena the example draws with nine rectangles."""
    from test_ltl import paper_nfa
    eval_propositional = ltl_reference.eval_propositional

    game = syn.build_game(running_problem())
    dsa = game.dsa
    nfa = dsa.nfa

    # content-based mapping: our NFA state -> drawn state 0..3
    def role(state):
        has_now = ltl.Ap("b") in state
        has_next = ltl.Next(ltl.Ap("b")) in state
        return {(False, False): 0, (False, True): 1,
                (True, False): 2, (True, True): 3}[(has_now, has_next)]

    mapping = {i: role(s) for i, s in enumerate(nfa.states)}
    paper = paper_nfa()
    bc = parse_ltl("b | c")

    def paper_step(bits, letter):
        out = 0
        for p in range(4):
            if not bits >> p & 1:
                continue
            if not eval_propositional(bc, letter):
                continue
            for c, t in paper.transitions[p]:
                if eval_propositional(c, letter):
                    out |= 1 << t
        return out

    def translate(bits):
        out = 0
        for i in range(len(nfa)):
            if bits >> i & 1:
                out |= 1 << mapping[i]
        return out

    reachable = {dsa.initial_bits()}
    queue = [dsa.initial_bits()]
    count_nonempty = 0
    while queue:
        bits = queue.pop()
        if bits:
            count_nonempty += 1
        for letter in ltl.letters(game.ap):
            nxt = dsa.step_bits(bits, letter) if bits else 0
            assert translate(nxt) == paper_step(translate(bits), letter), \
                (bits, sorted(letter))
            if nxt not in reachable:
                reachable.add(nxt)
                queue.append(nxt)
    assert count_nonempty == 9


def random_games(rng):
    """Endless stream of ``(trial, game)`` for random small specifications:
    at most 7 automaton states and 4 colors.  The caller may draw from
    ``rng`` between items."""
    from elgames.ltl import Ap, NotOp, AndOp, OrOp, Next, Globally, Release

    def rand_safety(names, depth):
        if depth == 0 or rng.random() < 0.35:
            a = Ap(names[rng.randrange(len(names))])
            return NotOp(a) if rng.random() < 0.4 else a
        r = rng.random()
        x = rand_safety(names, depth - 1)
        if r < 0.2:
            return Next(x)
        if r < 0.45:
            return Globally(x)
        y = rand_safety(names, depth - 1)
        if r < 0.65:
            return AndOp(x, y)
        if r < 0.9:
            return OrOp(x, y)
        return Release(x, y)

    def rand_prop(names, depth):
        if depth == 0 or rng.random() < 0.4:
            a = Ap(names[rng.randrange(len(names))])
            return NotOp(a) if rng.random() < 0.3 else a
        x, y = rand_prop(names, depth - 1), rand_prop(names, depth - 1)
        return AndOp(x, y) if rng.random() < 0.5 else OrOp(x, y)

    def rand_liveness(names, depth):
        if depth == 0 or rng.random() < 0.45:
            p = rand_prop(names, 1)
            if rng.random() < 0.5:
                return Globally(ltl.Finally(p))
            return ltl.Finally(Globally(NotOp(p) if rng.random() < 0.5 else p))
        x, y = rand_liveness(names, depth - 1), rand_liveness(names, depth - 1)
        r = rng.random()
        if r < 0.4:
            return AndOp(x, y)
        if r < 0.8:
            return OrOp(x, y)
        return ltl.Implies(x, y)

    trial = 0
    while True:
        trial += 1
        ins = ["a"] if rng.random() < 0.7 else ["a", "d"]
        outs = ["b"] if rng.random() < 0.4 else ["b", "c"]
        names = ins + outs
        try:
            prob = syn.SynthesisProblem(rand_safety(names, rng.randint(1, 3)),
                                        rand_liveness(names, rng.randint(1, 2)),
                                        ins, outs)
            game = syn.build_game(prob)
        except (syn.SynthesisError, ltl.LTLError):
            continue
        if len(game.dsa.nfa) > 7 or len(game.color_table) > 4:
            continue
        yield trial, game


def test_random_specifications_cross_check_and_verify():
    """Randomized end-to-end check: symbolic solution equals the
    explicitly solved expansion and the reduction oracle; realizable
    instances yield exactly-verified strategies and live controllers."""
    from elgames.oracles import solve_el_via_reduction
    from elgames.strategy import extract, verify

    rng = random.Random(31415)
    checked = verified = 0
    for trial, game in random_games(rng):
        if checked == 60:
            break
        win, _, _ = game.solution
        syn.cross_check_symbolic_vs_explicit(game, win)
        exp = syn.expand_explicit(game)
        ewin, etree, eresult = solve_game(exp.elgame)
        assert ewin == solve_el_via_reduction(exp.elgame), trial
        checked += 1
        if syn.is_won(game, win):
            strat = extract(exp.elgame, etree, eresult)
            assert verify(exp.elgame, strat, ewin).ok, trial
            verified += 1
            ctrl = syn.extract_controller(game)
            inputs = [frozenset(n for n in game.inputs if rng.random() < 0.5)
                      for _ in range(40)]
            bits = game.dsa.initial_bits()
            for letter in letter_trace(ctrl, inputs):
                bits = game.dsa.step_bits(bits, letter)
                assert bits != 0, trial
    assert verified >= 10

