"""Acceptance criteria.

One test per criterion.  Criterion 1 is split: the golden trees and the
Streett height clause are in one test, the Streett vertex-count clause
in another.  That clause was first written as ``2(k!)`` vertices, which
contradicts both the height clause (a tree of height 2 cannot have two
vertices) and the tree definition (one child per maximal subset of a
vertex's label that flips satisfaction).  The clause now checks the
count that definition gives; ``2(k!)`` is kept where it holds, as the
size of the two deepest levels.  Each test prints one pass/fail line
with its timing and asserts the stated budget.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

from elgames import el, ltl
from elgames import synthesis as syn
from elgames.corpus import run_corpus
from elgames.dd import Assertion, Manager
from elgames.fixpoint import build_equations
from elgames.zielonka import ZielonkaTree

from controller_reference import letter_trace, state_trace
from el_reference import evaluate
from test_el import example_objective, ABCD
from test_dd import _random_ops, node_of
from test_ltl import random_safety_formula, random_lasso
from ttable import TTManager
from ltl_reference import (dsa_accepts_lasso, eval_ltl_lasso,
                           nfa_accepts_lasso, reachable_subset_count)
from zielonka_reference import (LassoPlay, fair_induced_walk, max_tree_size,
                                vertex_with_label)


@contextmanager
def criterion(num, budget, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print("\nACCEPTANCE %s FAIL (%.1fs): %s"
              % (num, time.time() - start, description))
        raise
    elapsed = time.time() - start
    line = "\nACCEPTANCE %s PASS (%.1fs, budget %ds): %s" \
        % (num, elapsed, budget, description)
    assert elapsed < budget, "budget exceeded: %s" % line
    print(line)


def test_criterion1_golden_trees():
    with criterion("1", 1, "golden objective trees"):
        table = el.ColorTable(["f"])
        tree = ZielonkaTree(el.buchi(table, "f"), table)
        assert len(tree) == 2

        names = ["f1", "f2", "f3", "f4"]
        table = el.ColorTable(names)
        tree = ZielonkaTree(el.generalized_buchi(table, names), table)
        assert len(tree) == 5

        for k in (1, 2, 3):
            names = []
            pairs = []
            for i in range(1, k + 1):
                names += ["r%d" % i, "g%d" % i]
                pairs.append(("r%d" % i, "g%d" % i))
            stable = el.ColorTable(names)
            stree = ZielonkaTree(el.streett(stable, pairs), stable)
            assert max(stree.depth) == 2 * k

        tree = ZielonkaTree(example_objective(), ABCD)
        assert len(tree) == 8
        m = ABCD.mask
        expected = {
            m("a", "b", "c", "d"): (False, {m("a", "b", "c"), m("b", "c", "d")}),
            m("a", "b", "c"): (True, {m("a", "b"), m("a", "c")}),
            m("b", "c", "d"): (True, {m("b", "d")}),
            m("a", "b"): (False, set()),
            m("a", "c"): (False, {m("c")}),
            m("b", "d"): (False, set()),
            m("c"): (True, {m()}),
            m(): (False, set()),
        }
        for label, (winning, kids) in expected.items():
            v = vertex_with_label(tree, label)
            assert tree.winning[v] == winning
            assert {tree.label[c] for c in tree.children[v]} == kids


def test_criterion1_streett_vertex_count_as_stated():
    """Streett trees with k pairs: k! leaves, height 2k, and per-depth
    vertex counts from a closed form independent of the builder.

    The clause was first stated as ``2(k!)`` vertices.  That figure
    contradicts the height clause and the tree definition: one pair
    already forces the chain {r,g} (winning) > {r} (losing) > {}
    (winning), three vertices of height 2.  In general a vertex at depth
    2j-2 still holds k-j+1 full pairs.  Dropping one pair's grant gives
    a maximal losing subset, and its only maximal winning subset drops
    that pair's request too.  So depth 0 holds one vertex and
    depths 2j-1 and 2j each hold k!/(k-j)! vertices: 3, 9 and 31
    vertices for k = 1, 2, 3.  ``2(k!)`` is the size of the two deepest
    levels, and is asserted as such."""
    with criterion("1s", 1, "Streett vertex counts"):
        for k in (1, 2, 3):
            names = []
            pairs = []
            for i in range(1, k + 1):
                names += ["r%d" % i, "g%d" % i]
                pairs.append(("r%d" % i, "g%d" % i))
            table = el.ColorTable(names)
            tree = ZielonkaTree(el.streett(table, pairs), table)

            expected = {0: 1}
            for j in range(1, k + 1):
                width = math.factorial(k) // math.factorial(k - j)
                expected[2 * j - 1] = expected[2 * j] = width
            per_depth = dict(Counter(tree.depth))
            assert per_depth == expected, \
                "k=%d: vertices per depth %r, expected %r" \
                % (k, per_depth, expected)
            assert len(tree) == sum(expected.values()) == [3, 9, 31][k - 1]
            assert per_depth[2 * k - 1] + per_depth[2 * k] \
                == 2 * math.factorial(k)
            assert len(tree.leaves) == math.factorial(k)


def test_criterion2_size_recurrence_and_bounds():
    with criterion("2", 10, "tree size recurrence and bounds"):
        recurrence = [1]
        for i in range(1, 5):
            recurrence.append(i * recurrence[-1] + 1)
        assert recurrence == [1, 2, 5, 16, 65]
        for ncolors in range(5):
            table = el.ColorTable("abcd"[:ncolors])
            tree = ZielonkaTree(el.even_cardinality_muller(table), table)
            assert len(tree) == recurrence[ncolors]

        rng = random.Random(2)
        for _ in range(200):
            ncolors = rng.randint(1, 5)
            table = el.ColorTable("abcde"[:ncolors])
            phi = el.random_formula(rng, table, 4)
            tree = ZielonkaTree(phi, table)
            assert len(tree) <= max_tree_size(ncolors)
            assert max_tree_size(ncolors) <= math.ceil(math.e * math.factorial(ncolors))
            assert max(tree.depth) <= ncolors
            assert all(len(tree.children[v]) <= 1 << ncolors
                       for v in range(len(tree)))


def test_criterion3_equation_system_instantiation():
    with criterion("3", 1, "equation systems match the displayed ones"):
        def admits(term, colors):
            _, sub, esc = term
            if colors & ~sub:
                return False
            return esc is None or bool(colors & ~esc)

        # two-equation system of the single-color objective
        table = el.ColorTable(["f"])
        tree = ZielonkaTree(el.buchi(table, "f"), table)
        root, leaf = build_equations(tree).equations
        assert (not root.lfp) and root.children == (1,)
        assert leaf.lfp and [t[0] for t in leaf.terms] == [0, 1]
        assert admits(leaf.terms[0], 1) and not admits(leaf.terms[0], 0)
        assert admits(leaf.terms[1], 0) and not admits(leaf.terms[1], 1)

        # eight-equation system of the branching objective
        tree = ZielonkaTree(example_objective(), ABCD)
        system = build_equations(tree)
        m = ABCD.mask

        def v(*names):
            return vertex_with_label(tree, m(*names))

        eqs = {eq.vertex: eq for eq in system.equations}
        assert eqs[v("a", "b", "c", "d")].lfp
        assert set(eqs[v("a", "b", "c", "d")].children) == \
            {v("a", "b", "c"), v("b", "c", "d")}
        assert not eqs[v("a", "b", "c")].lfp
        assert set(eqs[v("a", "b", "c")].children) == {v("a", "b"), v("a", "c")}
        assert eqs[v("b", "c", "d")].children == (v("b", "d"),)
        assert eqs[v("a", "c")].lfp and eqs[v("a", "c")].children == (v("c"),)
        assert not eqs[v("c")].lfp and eqs[v("c")].children == (v(),)

        a, b, c, d = m("a"), m("b"), m("c"), m("d")
        guards = {
            v("a", "b"): {
                v("a", "b"): lambda x: not x & c and not x & d,
                v("a", "b", "c"): lambda x: x & c and not x & d,
                tree.root: lambda x: x & d,
            },
            v("b", "d"): {
                v("b", "d"): lambda x: not x & a and not x & c,
                v("b", "c", "d"): lambda x: not x & a and x & c,
                tree.root: lambda x: x & a,
            },
            v(): {
                v(): lambda x: x == 0,
                v("c"): lambda x: x == c,
                v("a", "c"): lambda x: x & a and not x & b and not x & d,
                v("a", "b", "c"): lambda x: x & b and not x & d,
                tree.root: lambda x: x & d,
            },
        }
        for leaf_vertex, expected in guards.items():
            eq = eqs[leaf_vertex]
            assert eq.lfp and eq.op == "attract"
            by_anc = {t[0]: t for t in eq.terms}
            assert set(by_anc) == set(expected)
            for anc, pred in expected.items():
                for colors in range(16):
                    assert admits(by_anc[anc], colors) == bool(pred(colors)), \
                        (leaf_vertex, anc, colors)


CORPUS_SEED = 1234
CORPUS_COUNT = 1000
_corpus_cache = {}


def _corpus():
    if "report" not in _corpus_cache:
        _corpus_cache["report"] = run_corpus(
            CORPUS_SEED, CORPUS_COUNT, max_nodes=8, max_colors=4)
    return _corpus_cache["report"]


def test_criterion4_oracle_equivalence():
    with criterion("4", 300, "fixpoint solver = reduction + parity oracle "
                             "on %d games, duals complement" % CORPUS_COUNT):
        report = _corpus()
        assert report.count == CORPUS_COUNT
        assert report.oracle_agree == CORPUS_COUNT, report.failures[:5]
        assert report.dual_ok == CORPUS_COUNT, report.failures[:5]


def test_criterion5_strategy_soundness():
    report = _corpus()
    with criterion("5", 300, "every extracted strategy verifies; memory "
                             "bounded by leaves"):
        assert report.strategies_checked > CORPUS_COUNT // 2
        assert report.strategies_ok == report.strategies_checked, \
            report.failures[:5]
        assert report.max_memory <= max_tree_size(4)


def test_criterion6_induced_walk_property():
    with criterion("6", 30, "fair walks dominate by loop color unions "
                            "on 500 lassos"):
        rng = random.Random(66)
        for _ in range(500):
            ncolors = rng.randint(1, 4)
            table = el.ColorTable("abcd"[:ncolors])
            phi = el.random_formula(rng, table, 3)
            tree = ZielonkaTree(phi, table)
            prefix = tuple(rng.randrange(table.full_mask + 1)
                           for _ in range(rng.randint(0, 3)))
            loop = tuple(rng.randrange(table.full_mask + 1)
                         for _ in range(rng.randint(1, 5)))
            dom, winning = fair_induced_walk(tree, LassoPlay(prefix, loop))
            union = 0
            for colors in loop:
                union |= colors
            assert union & ~tree.label[dom] == 0
            assert winning == evaluate(phi, union)


def test_criterion7_determinization():
    with criterion("7", 60, "nine reachable subsets; language agreement "
                            "on 500 lassos"):
        nfa = ltl.nfa_from_safety(ltl.check_safety(
            ltl.parse_ltl("G(b | c) & G(a -> b | X X b)")), ("a", "b", "c"))
        dsa = ltl.determinize_symbolic(nfa)
        assert reachable_subset_count(dsa) == 9

        rng = random.Random(77)
        names = ["a", "b", "c"]
        checked = 0
        while checked < 500:
            phi = random_safety_formula(rng, names, 3)
            nnf = ltl.check_safety(phi)
            nfa = ltl.nfa_from_safety(nnf, sorted(ltl.atoms(nnf)))
            if len(nfa) > 8:
                continue
            dsa = ltl.determinize_symbolic(nfa)
            for _ in range(3):
                prefix, loop = random_lasso(rng, names, 5)
                direct = eval_ltl_lasso(phi, prefix, loop)
                assert direct == nfa_accepts_lasso(nfa, prefix, loop)
                assert direct == dsa_accepts_lasso(dsa, prefix, loop)
                checked += 1


def test_criterion8_end_to_end_synthesis():
    with criterion("8", 120, "running example realizable; variant "
                             "unrealizable; pipelines agree"):
        prob = syn.problem_from_strings(
            "G(b | c) & G(a -> b | X X b)",
            "(G F a -> G F b) & ((F G !a | F G !(b & c)) & G F c)",
            ["a"], ["b", "c"])
        res = syn.solve_synthesis(prob, expand_check=True)
        assert res.realizable
        ctrl = res.controller
        game = res.game
        dsa = game.dsa

        rng = random.Random(808)
        for trial in range(1000):
            base = [frozenset(n for n in game.inputs if rng.random() < 0.5)
                    for _ in range(rng.randint(1, 6))]
            inputs = [base[i % len(base)] for i in range(200)]
            letters = letter_trace(ctrl, inputs)
            bits = dsa.initial_bits()
            for letter in letters:
                bits = dsa.step_bits(bits, letter)
                assert bits != 0, trial
            trace = state_trace(ctrl, inputs)
            seen = {}
            for step, state in enumerate(trace):
                key = (state, step % len(base))
                if key in seen:
                    union = 0
                    for pos in range(seen[key], step):
                        union |= game.letter_colors(letters[pos])
                    assert evaluate(game.el_formula, union), trial
                    break
                seen[key] = step

        unreal = syn.problem_from_strings(
            "G(b | c) & G !b", "G F b", ["a"], ["b", "c"])
        assert not syn.solve_synthesis(unreal).realizable

        small = [
            ("G(a -> X b)", "G F b", ["a"], ["b"]),
            ("G(b | c)", "(F G !a | G F c) & (G F a -> G F b)", ["a"], ["b", "c"]),
            ("true", "F G b | G F a", ["a"], ["b"]),
            ("G(a -> b | X b)", "G F c & (G F a -> G F b)", ["a"], ["b", "c"]),
        ]
        for safety, liveness, ins, outs in small:
            sprob = syn.problem_from_strings(safety, liveness, ins, outs)
            sgame = syn.build_game(sprob)
            assert reachable_subset_count(sgame.dsa) <= 12
            win, _, _ = syn.solve_symbolic(sgame)
            syn.cross_check_symbolic_vs_explicit(sgame, win)


def test_criterion9_backend_differential():
    with criterion("9", 60, "diagram and truth-table backends agree on "
                            "1000 op sequences"):
        rng = random.Random(909)
        for round_no in range(1000):
            use_pairs = rng.random() < 0.5
            if use_pairs:
                npairs = rng.randint(1, 7)
                names = []
                for i in range(npairs):
                    names += ["v%d" % i, "v%d'" % i]
            else:
                nvars = rng.randint(2, 14)
                names = ["v%d" % i for i in range(nvars)]
            m = Manager()
            tt = TTManager()
            for name in names:
                m.declare(name)
                tt.declare(name)
            state = rng.getstate()
            a = _random_ops(rng, m, names, 4)
            rng.setstate(state)
            ta = _random_ops(rng, tt, names, 4)
            subset = [n for n in names if rng.random() < 0.4]
            op = rng.random()
            if op < 0.3:
                a, ta = m.exists(subset, a), tt.exists(subset, ta)
            elif op < 0.6:
                a, ta = m.forall(subset, a), tt.forall(subset, ta)
            elif use_pairs and op < 0.8:
                # swap each variable with its primed partner, the level
                # next to it, in one composition with literals
                partner = {m.level(n): m.level(n) ^ 1
                           for n in m.support_names(a)}
                a = Assertion(m, m.core.compose(a.handle, {
                    lv: m.core.var_node(p) for lv, p in partner.items()}))
                ta = tt.compose(ta, {lv: tt.var(names[p])
                                     for lv, p in partner.items()})
            assert _bdd_bits(m, a, len(names)) == ta.bits, round_no
            assert m.count_sat(a, names) == tt.count_sat(ta, names)


def _bdd_bits(m, a, nvars):
    """Truth bitmap of a diagram assertion, for comparison with the twin."""
    core = m.core
    full = (1 << (1 << nvars)) - 1
    masks = []
    for level in range(nvars):
        step = 1 << level
        pattern = 0
        for base in range(0, 1 << nvars, 2 * step):
            pattern |= ((1 << step) - 1) << (base + step)
        masks.append(pattern)
    memo = {0: 0, 1: full}

    def go(f):
        if f in memo:
            return memo[f]
        level, lo, hi = node_of(core, f)
        out = (masks[level] & go(hi)) | (~masks[level] & full & go(lo))
        memo[f] = out
        return out

    return go(a.handle)
