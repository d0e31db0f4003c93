"""Reactive synthesis for conjunctions of a safety formula and a
liveness condition over infinite-occurrence of letter predicates.

The safety part becomes a deterministic symbolic safety automaton on
one manager per specification: the tableau declares the letters, inputs
then outputs, and determinization appends the subset variables after
them.  Subset and letter variables are the game state, with the
system choosing outputs and next subsets (the latter fixed by the
automaton's transition functions) and the environment choosing inputs.
The liveness part maps each distinct letter assertion under GF / FG to
a color, and the game is solved by the generic fixpoint solver over the
diagram core's node handles, with the one-step controllable predecessor
taken letter first: outputs existentially and inputs universally on the
target, then the transition functions composed into the result.  The
solve wraps handles as assertions only around that predecessor and on
its final values.

Controllers are extracted from the explicit expansion of the symbolic
winning region, solved on the symbolic solve's objective and tree (the
explicit solve must win every node of it).  Its intermediate nodes
(the system's output choice) are keyed by the next subset and the
input rather than by the full node they follow, so each is built once.
Controller states pair a reachable subset with the position in the
objective's tree where the last consumed letter anchored (vertex plus
child slot, which seeds the round-robin through winning branches), and
moves follow the certified signature rules of the strategy module.
The full expansion, where a letter that empties the subset leads to a
losing sink, is the cross-check's oracle.
"""

import re
from functools import cached_property

from . import el, ltl
# Manager is unused here, but e2ebench/tracing.py patches synthesis.Manager.
from .dd import Assertion, Manager
from .fixpoint import SetBackend, build_equations, solve, solve_game
from .games import Arena, ELGame, EXISTENTIAL, UNIVERSAL
from .ltl import (AndOp, Finally, Globally, OrOp, check_safety,
                  determinize_symbolic, nfa_from_safety)
from .strategy import _Extractor
from .zielonka import ZielonkaTree


class SynthesisError(ValueError):
    pass


class NotELFragment(SynthesisError):
    def __init__(self, node):
        super().__init__("not in the liveness fragment: %r" % (node,))


class ExpansionMismatch(AssertionError):
    """``check`` found the symbolic and the explicit solve disagreeing."""

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


class SynthesisProblem:

    def __init__(self, safety, liveness, inputs, outputs):
        self.safety = safety        # ltl.LTLFormula
        self.liveness = liveness    # ltl.LTLFormula
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        if not self.inputs or not self.outputs:
            raise SynthesisError("inputs and outputs must both be nonempty")
        names = self.inputs + self.outputs
        bad = [n for i, n in enumerate(names)
               if n in names[:i] or not ltl.is_atom(n)]
        if bad:
            raise SynthesisError("repeated or invalid signal names: %s"
                                 % ", ".join(bad))
        mentioned = ltl.atoms(self.safety) | ltl.atoms(self.liveness)
        extra = mentioned - set(names)
        if extra:
            raise SynthesisError("atoms outside the declared alphabet: %s"
                                 % ", ".join(sorted(extra)))


def problem_from_strings(safety, liveness, inputs, outputs):
    return SynthesisProblem(ltl.parse_ltl(safety), ltl.parse_ltl(liveness),
                            tuple(inputs), tuple(outputs))


def colors_of(liveness, manager):
    """Color table and per-color letter assertions of a liveness formula.

    One color per distinct letter assertion under GF / FG (``p`` for
    ``GF p``, its complement for ``FG p``), over the letter variables of
    ``manager``; the formula itself becomes a Boolean combination over
    "color occurs infinitely often" atoms.  The formula is read in
    negation normal form (``ltl.to_nnf``), so only conjunctions and
    disjunctions of ``G F p``, ``F G p`` and the constants remain.
    """
    assertions = []
    index = {}

    def color_id(node):
        if not ltl.is_propositional(node.arg.arg):
            raise NotELFragment(node)
        assertion = ltl.prop_assert(manager, node.arg.arg)
        if isinstance(node, Finally):
            assertion = ~assertion
        if assertion not in index:
            index[assertion] = len(assertions)
            assertions.append(assertion)
        return index[assertion]

    def walk(node):
        if isinstance(node, AndOp):
            return el.And(walk(node.left), walk(node.right))
        if isinstance(node, OrOp):
            return el.Or(walk(node.left), walk(node.right))
        if isinstance(node, Globally) and isinstance(node.arg, Finally):
            return el.Inf(color_id(node))
        if isinstance(node, Finally) and isinstance(node.arg, Globally):
            return el.fin(color_id(node))
        if isinstance(node, ltl.Tru):
            return el.TRUE
        if isinstance(node, ltl.Fls):
            return el.FALSE
        raise NotELFragment(node)

    formula = walk(ltl.to_nnf(liveness))
    names = []
    used = set()
    for i, assertion in enumerate(assertions):
        support = manager.support_names(assertion)
        name = support[0] if len(support) == 1 else ""
        if not (re.match(r"[a-z][A-Za-z0-9_]*$", name) and name not in used
                and assertion == manager.var(name)):
            name = "k%d" % i
            while name in used:
                name = "_" + name
        used.add(name)
        names.append(name)
    return formula, el.ColorTable(names), tuple(assertions)


class SymbolicGameStructure:

    def __init__(self, manager, dsa, inputs, outputs, state_vars, theta,
                 el_formula, color_table, color_assertions):
        self.manager = manager
        self.dsa = dsa                # ltl.SymbolicSafetyAutomaton
        self.inputs = inputs
        self.outputs = outputs
        self.state_vars = state_vars
        self.theta = theta            # Assertion over the subset variables
        self.el_formula = el_formula  # objective over the color table
        self.color_table = color_table
        # per color: Assertion over the letter variables
        self.color_assertions = color_assertions

    @property
    def ap(self):
        return self.inputs + self.outputs

    @cached_property
    def solution(self):
        """``solve_symbolic(self)``, computed once per game."""
        return solve_symbolic(self)

    @cached_property
    def _cpre_operands(self):
        """What ``symbolic_cpre`` quantifies and composes: the output
        levels (existentially), the input levels (universally), and the
        vector from each subset variable's level to its transition
        function's handle."""
        m = self.manager
        return (frozenset(m.level(n) for n in self.outputs),
                frozenset(m.level(n) for n in self.inputs),
                {m.level(v): rhs.handle
                 for v, rhs in zip(self.state_vars, self.dsa.rhs)})

    def letter_points(self):
        """Letter -> its ``dd.Manager.point``, in ``ltl.letters(ap)`` order."""
        return {letter: self.manager.point(letter)
                for letter in ltl.letters(self.ap)}

    def colors_at(self, point):
        """Color mask at a point; only its letter bits matter."""
        evaluate = self.manager.core.eval
        return sum(1 << cid for cid, a in enumerate(self.color_assertions)
                   if evaluate(a.handle, point))

    def letter_colors(self, letter):
        """Color mask of one letter (set of true APs)."""
        return self.colors_at(self.manager.point(letter))


def build_game(problem):
    nnf = check_safety(problem.safety)
    dsa = determinize_symbolic(
        nfa_from_safety(nnf, problem.inputs + problem.outputs))
    m = dsa.manager
    formula, table, assertions = colors_of(problem.liveness, m)
    return SymbolicGameStructure(
        manager=m, dsa=dsa, inputs=problem.inputs, outputs=problem.outputs,
        state_vars=dsa.state_vars, theta=dsa.theta0,
        el_formula=formula, color_table=table,
        color_assertions=assertions)


def symbolic_cpre(game, target):
    """Nodes where every next input admits outputs and a subset step
    keeping the successor in the target.

    Each nonempty subset and letter have exactly one next subset, bit
    ``q`` of which is ``rhs_q`` (see ``ltl.determinize_symbolic``), and
    the step reads no next letter.  So the letter is quantified on the
    target first, ``W = forall i. exists o. T``, a diagram over the
    subset variables alone, and
    ``cpre(T) = nonempty & W[s_q := rhs_q]``, one vector composition."""
    core = game.manager.core
    outputs, inputs, step = game._cpre_operands
    win = core.forall(core.exists(target.handle, outputs), inputs)
    return Assertion(game.manager, core.and_(game.dsa.nonempty.handle,
                                             core.compose(win, step)))


class SymbolicBackend(SetBackend):
    """Set backend for the generic fixpoint solver over the diagram
    core's integer node handles, as the explicit backend computes on
    node masks.  Handles are canonical, so equality, the ``cpre`` memo
    keys and the solver's identity checks are plain int operations.
    Its color sets are the handles of the color assertions over the
    letter variables.  Only ``cpre`` builds assertions: it wraps each
    distinct target once for ``symbolic_cpre``."""

    def __init__(self, game):
        core = game.manager.core
        self._or, self._and, self._not = core.or_, core.and_, core.not_
        super().__init__(core.FALSE, core.TRUE,
                         [a.handle for a in game.color_assertions])
        self.game = game

    def union(self, a, b):
        return self._or(a, b)

    def intersect(self, a, b, s):
        return self._and(a, b)

    def complement(self, a):
        return self._not(a)

    def subset(self, a, b):
        return a == b or self._or(a, b) == b

    def term(self, s, term, value):
        # SetBackend.term with the core's and_: the explicit backend keeps
        # its inline ``&``, as one more call per term slows it measurably.
        key = term[1:]
        guard = self._guards.get(key)
        if guard is None:
            guard = self.guard(*key)
        pre = self._pre.get(value)
        if pre is None:
            pre = self._pre[value] = self.cpre(value)
        return self._and(guard, pre)

    def cpre(self, target):
        target = Assertion(self.game.manager, target)
        return symbolic_cpre(self.game, target).handle


def solve_symbolic(game):
    """Symbolic winning region; each variable's iteration is bounded by
    the number of symbolic nodes plus one, as ``solve_game``'s is.  The
    result's values are wrapped as assertions."""
    tree = ZielonkaTree(game.el_formula, game.color_table)
    system = build_equations(tree)
    nodes = 2 ** (len(game.state_vars) + len(game.ap))
    result = solve(system, SymbolicBackend(game), max_stages=nodes + 1)
    m = game.manager
    result.values = {s: Assertion(m, h) for s, h in result.values.items()}
    return result.winning(), tree, result


def is_won(game, win):
    m = game.manager
    rest = list(game.outputs) + list(game.state_vars)
    return m.forall(list(game.inputs), m.exists(rest, game.theta & win)).is_true()


# ---------------------------------------------------------------------------
# Explicit expansion (controller extraction and oracle cross-checks).

# The sink's color.  ``colors_of`` names colors after atoms starting with
# [a-z], or ``k<i>`` with leading underscores, so this name never clashes.
DEAD_COLOR = "_stuck"


class ExplicitExpansion:

    def __init__(self, elgame, kinds, index, initial_subset):
        self.elgame = elgame
        self.kinds = kinds    # per node: ("full", subset, letter),
                              # ("mid", next subset, inp) or ("sink",)
        self.index = index    # kind tuple -> node id
        self.initial_subset = initial_subset

    def next_subset(self, vid):
        """Subset after a full node's letter that keeps it nonempty, read
        off the key of its intermediate successors."""
        return self.kinds[self.elgame.arena.succ[vid][0]][1]


def expand_explicit(game, win=None):
    """Explicit arena of the symbolic game with one intermediate node per
    (next subset, input).

    Full nodes carry (subset, letter); there the environment picks the
    next input, and at the intermediate node the system picks the
    output.  A full node steps the automaton once, and an intermediate
    node's moves depend only on that next subset and the input, so every
    full node with the same key shares the intermediate node ("mid",
    next subset, input), whose successors are the full nodes ("full",
    next subset, input | output): the bisimulation quotient of one
    intermediate node per (full node, input), built directly.  Nodes are
    numbered in first-seen breadth-first order.  Given the symbolic
    winning region ``win``, only the full nodes inside it are built: a
    total arena with the game's own colours and objective.  Otherwise a
    full node whose letter empties its subset moves to the sink, node 0,
    whose fresh colour may occur only finitely often.  Each (subset,
    letter) pair is evaluated at one point, ``dsa.point``."""
    dsa = game.dsa
    table, objective = game.color_table, game.el_formula
    init_bits = dsa.initial_bits()
    inputs = list(ltl.letters(game.inputs))
    outputs = list(ltl.letters(game.outputs))

    # sink: the moves of a full node whose letter empties its subset; a
    # sound region holds at no such node, and Arena rejects a dead end
    kinds, owner, colors, succ, sink = [], [], [], [], []
    if win is None:
        dead = len(table)
        table = el.ColorTable(tuple(table.names) + (DEAD_COLOR,))
        objective = el.And(objective, el.fin(dead))
        kinds, owner, colors, succ, sink = \
            [("sink",)], [UNIVERSAL], [1 << dead], [[0]], [0]
    index = {kind: vid for vid, kind in enumerate(kinds)}
    queue = []

    def intern(kind, node_owner, node_colors):
        vid = index.get(kind)
        if vid is None:
            vid = index[kind] = len(kinds)
            kinds.append(kind)
            owner.append(node_owner)
            colors.append(node_colors)
            succ.append([])
            queue.append(vid)
        return vid

    points = game.letter_points()
    letter_colors = {letter: game.colors_at(p) for letter, p in points.items()}
    evaluate, point_of = game.manager.core.eval, dsa.point
    region = None if win is None else win.handle

    def full(bits, letter):
        if region is not None and \
                not evaluate(region, point_of(bits, points[letter])):
            return None
        return intern(("full", bits, letter), UNIVERSAL, letter_colors[letter])

    for letter in points:
        full(init_bits, letter)
    for vid in queue:              # grows as intern meets new nodes
        # label: a full node's letter, an intermediate node's input
        tag, bits, label = kinds[vid]
        if tag == "full":
            nxt = dsa.step_point(point_of(bits, points[label]))
            succ[vid] = [intern(("mid", nxt, inp), EXISTENTIAL, 0)
                         for inp in inputs] if nxt else sink
        else:
            succ[vid] = [w for w in (full(bits, label | out) for out in outputs)
                         if w is not None]

    arena = Arena(owner, succ, colors)
    return ExplicitExpansion(ELGame(arena, table, objective), kinds, index,
                             init_bits)


def cross_check_symbolic_vs_explicit(game, win):
    """Compare the symbolic winning assertion with the explicitly solved
    full expansion on every reachable full node, and check that it holds
    on no state with the empty subset (the expansion sends those plays
    to its sink); raises ``ExpansionMismatch`` on a difference."""
    exp = expand_explicit(game)
    ewin, _, _ = solve_game(exp.elgame)
    points = game.letter_points()
    evaluate = game.manager.core.eval
    for vid, kind in enumerate(exp.kinds):
        if kind[0] != "full":
            continue
        _, bits, letter = kind
        symbolic = evaluate(win.handle, game.dsa.point(bits, points[letter]))
        explicit = bool(ewin >> vid & 1)
        if symbolic != explicit:
            raise ExpansionMismatch("expand-check", (
                "winner mismatch at subset=%x letter=%s: symbolic=%s explicit=%s"
                % (bits, sorted(letter), symbolic, explicit)))
    if not (win & ~game.dsa.nonempty).is_false():
        raise ExpansionMismatch(
            "expand-check", "the symbolic region holds on the empty subset")


# ---------------------------------------------------------------------------
# Controller extraction.


class MealyController:

    def __init__(self, inputs, outputs, states, init, trans):
        self.inputs = inputs
        self.outputs = outputs
        self.states = states  # per id: (subset bits, anchor vertex, slot)
        self.init = init      # input frozenset -> (output frozenset, state id)
        self.trans = trans    # (state id, input frozenset) -> (output, state id)

    def __len__(self):
        return len(self.states)

    def to_text(self):
        def cube(names, chosen):
            return "".join(("" if n in chosen else "!") + n for n in names) \
                or "-"
        lines = ["mealy 1"]
        lines.append("inputs %s" % " ".join(self.inputs))
        lines.append("outputs %s" % " ".join(self.outputs))
        for i, (bits, anchor, slot) in enumerate(self.states):
            lines.append("state %d subset=%x anchor=%d slot=%d"
                         % (i, bits, anchor, slot))
        for inp in sorted(self.init, key=sorted):
            out, q = self.init[inp]
            lines.append("init %s -> %s %d"
                         % (cube(self.inputs, inp), cube(self.outputs, out), q))
        for (q, inp) in sorted(self.trans, key=lambda k: (k[0], sorted(k[1]))):
            out, q2 = self.trans[(q, inp)]
            lines.append("on %d %s -> %s %d"
                         % (q, cube(self.inputs, inp), cube(self.outputs, out), q2))
        return "\n".join(lines) + "\n"


def extract_controller(game):
    """Winning controller from the certified explicit extraction on the
    winning sub-arena of ``game.solution``, solved on its tree.

    States are (reachable subset, anchor vertex, child slot): the anchor
    is where the last consumed letter attached in the objective tree and
    the slot remembers which child the memory sat under, seeding the
    round-robin over winning branches.
    """
    win, tree, _ = game.solution
    exp = expand_explicit(game, win)
    arena = exp.elgame.arena
    ewin, _, eresult = solve_game(exp.elgame, tree)
    if ewin != arena.full_mask:
        raise ExpansionMismatch("sub-arena check", (
            "the explicit solve of the winning sub-arena loses %d of its %d nodes"
            % (bin(arena.full_mask & ~ewin).count("1"), arena.n)))
    ex = _Extractor(exp.elgame, tree, eresult)

    states = []
    state_index = {}

    def intern(bits, anchor, slot):
        key = (bits, anchor, slot)
        if key not in state_index:
            state_index[key] = len(states)
            states.append(key)
        return state_index[key]

    inputs = list(ltl.letters(game.inputs))
    outputs = list(ltl.letters(game.outputs))
    init = {}
    queue = []
    for inp in inputs:
        best = None
        for out in outputs:
            vid = exp.index.get(("full", exp.initial_subset, inp | out))
            if vid is None:
                continue
            sig = ex.signature(tree.root, vid)
            key = (sig, sorted(out))
            if best is None or key < best[0]:
                best = (key, out, vid)
        if best is None:
            raise SynthesisError("no winning first output for input %s"
                                 % sorted(inp))
        _, out, vid = best
        leaf = ex.descend(vid, tree.root)
        anchor, slot = ex.position(vid, leaf)
        q = intern(exp.next_subset(vid), anchor, slot)
        init[inp] = (out, q)
        queue.append(q)

    trans = {}
    done = set()
    while queue:
        q = queue.pop(0)
        if q in done:
            continue
        done.add(q)
        bits, anchor, slot = states[q]
        for inp in inputs:
            mid = exp.index[("mid", bits, inp)]
            leaf = ex.descend(mid, anchor, slot)
            w = ex.pick_move(mid, leaf)
            out = exp.kinds[w][2] - inp
            anchor2, slot2 = ex.position(w, leaf)
            q2 = intern(exp.next_subset(w), anchor2, slot2)
            trans[(q, inp)] = (out, q2)
            if q2 not in done:
                queue.append(q2)
    return MealyController(tuple(game.inputs), tuple(game.outputs),
                           states, init, trans)


# ---------------------------------------------------------------------------
# Top-level driver.


class SynthesisResult:

    def __init__(self, realizable, game, win, tree, controller=None):
        self.realizable = realizable
        self.game = game              # SymbolicGameStructure
        self.win = win
        self.tree = tree
        self.controller = controller


def solve_synthesis(problem, with_controller=True, expand_check=False):
    game = build_game(problem)
    win, tree, _ = game.solution
    if expand_check:
        cross_check_symbolic_vs_explicit(game, win)
    if not is_won(game, win):
        return SynthesisResult(False, game, win, tree)
    controller = extract_controller(game) if with_controller else None
    return SynthesisResult(True, game, win, tree, controller=controller)
