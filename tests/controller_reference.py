"""Controller extraction from the full expansion, kept as a reference
for the tests.

``extract_controller_full`` re-solves the whole explicit expansion of a
synthesis game (every reachable node, the sink, its ``_stuck`` colour
and the objective φ ∧ Fin(_stuck)) with a Zielonka tree of its own, and
then builds the controller with the same rules as
``synthesis.extract_controller``, which works on the winning sub-arena
and the liveness objective's tree.  The two controllers are equal up to
the tree's vertex numbers: ``shift`` is the number of vertices the
expansion's tree has in excess of the liveness tree (1 when φ holds on
every colour, so φ ∧ Fin(_stuck) gains a losing root; 0 otherwise), and
every anchor of the reference is that much higher.

``letter_trace`` and ``state_trace`` run a controller against an input
sequence, for the simulation tests; the library never runs one.
"""

import re

from elgames import ltl
from elgames.fixpoint import solve_game
from elgames.strategy import _Extractor
from elgames.synthesis import (MealyController, SynthesisError,
                               expand_explicit)

from ranked_reference import ranked_maps


def letter_trace(ctrl, input_sets):
    """Letters a controller produces against the given input sequence."""
    letters = []
    for step, inp in enumerate(input_sets):
        inp = frozenset(inp)
        out, state = ctrl.init[inp] if step == 0 else ctrl.trans[(state, inp)]
        letters.append(inp | out)
    return letters


def state_trace(ctrl, input_sets):
    """States a controller enters against the given input sequence."""
    trace = []
    for step, inp in enumerate(input_sets):
        inp = frozenset(inp)
        _, state = ctrl.init[inp] if step == 0 else ctrl.trans[(state, inp)]
        trace.append(state)
    return trace


def extract_controller_full(game):
    """The controller and the expansion's tree."""
    exp = expand_explicit(game)
    ewin, etree, eresult = solve_game(exp.elgame)
    ex = _Extractor(exp.elgame, etree, eresult)
    root_map = ranked_maps(exp.elgame, etree, eresult.values)[etree.root]

    states = []
    state_index = {}

    def intern(bits, anchor, slot):
        key = (bits, anchor, slot)
        if key not in state_index:
            state_index[key] = len(states)
            states.append(key)
        return state_index[key]

    init = {}
    queue = []
    for inp in ltl.letters(game.inputs):
        best = None
        for out in ltl.letters(game.outputs):
            letter = frozenset(inp | out)
            vid = exp.index.get(("full", exp.initial_subset, letter))
            if vid is None or not ewin >> vid & 1:
                continue
            sig = root_map.get(vid)
            key = (sig, sorted(out))
            if best is None or key < best[0]:
                best = (key, out, vid)
        if best is None:
            raise SynthesisError("no winning first output for input %s"
                                 % sorted(inp))
        _, out, vid = best
        leaf = ex.descend(vid, etree.root)
        anchor, slot = ex.position(vid, leaf)
        q = intern(exp.next_subset(vid), anchor, slot)
        init[frozenset(inp)] = (frozenset(out), q)
        queue.append(q)

    trans = {}
    done = set()
    while queue:
        q = queue.pop(0)
        if q in done:
            continue
        done.add(q)
        bits, anchor, slot = states[q]
        for inp in ltl.letters(game.inputs):
            mid = exp.index[("mid", bits, inp)]
            leaf = ex.descend(mid, anchor, slot)
            w = ex.pick_move(mid, leaf)
            out = exp.kinds[w][2] - inp
            anchor2, slot2 = ex.position(w, leaf)
            q2 = intern(exp.next_subset(w), anchor2, slot2)
            trans[(q, frozenset(inp))] = (out, q2)
            if q2 not in done:
                queue.append(q2)
    controller = MealyController(tuple(game.inputs), tuple(game.outputs),
                                 states, init, trans)
    return controller, etree


def renumbered_text(controller, shift):
    """The controller's text with every ``anchor=`` lowered by ``shift``."""
    return re.sub(r"anchor=(\d+)",
                  lambda m: "anchor=%d" % (int(m.group(1)) - shift),
                  controller.to_text())
