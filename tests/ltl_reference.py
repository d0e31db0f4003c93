"""Reference checks for the safety-LTL layer, kept out of the library.

The tableau automaton's successor relation, the symbolic
determinization's transition relation and subset reachability, and
exact truth of a formula, of the tableau automaton and of its
determinization on ultimately periodic words; the language-agreement
tests compare these three.

``eval_propositional`` evaluates a letter constraint on one letter by
its connectives.  The library's one propositional semantics is the
diagram of ``ltl.prop_assert``, and the tableau keeps a branch iff that
diagram is not false; both must agree with this evaluation.

``eval_names``, ``step_bits``, ``holds`` and ``letter_colors`` evaluate
diagrams on a name -> bool dict, resolving each node's variable by name;
the library, which evaluates on points (one int per assignment, see
``dd.Manager.point``), must agree with them.
"""

from elgames.dd import Assertion, BddError
from elgames.ltl import (Ap, AndOp, Finally, Fls, Globally, Implies,
                         LTLError, Next, NotOp, OrOp, Release, Tru, Until,
                         is_propositional)


def eval_propositional(phi, letter):
    """Truth of a temporal-free formula on one letter (set of true APs),
    by the formula's connectives; ``ltl.prop_assert``'s diagrams must
    agree with it."""
    if isinstance(phi, Tru):
        return True
    if isinstance(phi, Fls):
        return False
    if isinstance(phi, Ap):
        return phi.name in letter
    if isinstance(phi, NotOp):
        return not eval_propositional(phi.arg, letter)
    if isinstance(phi, AndOp):
        return eval_propositional(phi.left, letter) and \
            eval_propositional(phi.right, letter)
    if isinstance(phi, OrOp):
        return eval_propositional(phi.left, letter) or \
            eval_propositional(phi.right, letter)
    if isinstance(phi, Implies):
        return (not eval_propositional(phi.left, letter)) or \
            eval_propositional(phi.right, letter)
    raise LTLError("not propositional: %r" % (phi,))


def successors(nfa, state_id, letter):
    """Targets of the tableau automaton's transitions from ``state_id``
    whose constraint the letter satisfies."""
    return sorted({t for c, t in nfa.transitions[state_id]
                   if eval_propositional(c, letter)})


def primed(m, names):
    """Vector from the level of each of ``names`` to the literal of its
    primed copy, as ``Core.compose`` takes it.  The copies are declared
    on ``m`` on first use, below the levels it had."""
    vector = {}
    for name in names:
        try:
            m.level(name + "'")
        except BddError:
            m.declare(name + "'")
        vector[m.level(name)] = m.var(name + "'").handle
    return vector


def eval_names(m, a, values):
    """Truth of ``a`` under a name -> bool dict, looking up the name of
    each node's variable; the dict must name every variable met."""
    core = m.core
    node = a.handle
    while node > 1:
        name = m.names[core._level[node]]
        node = core._hi[node] if values[name] else core._lo[node]
    return node == 1


def assignment(m, state_vars, bits, letter):
    """Name -> bool dict of every variable of ``m``: the state variables
    as the bits of ``bits``, the names in ``letter`` true, others false."""
    values = dict.fromkeys(m.names, False)
    values.update((v, bool(bits >> i & 1)) for i, v in enumerate(state_vars))
    values.update((name, True) for name in letter)
    return values


def step_bits(dsa, bits, letter):
    """``dsa.step_bits`` by names: the next subset's bit ``q`` is
    ``rhs[q]`` under the subset and the letter's atoms in ``dsa.ap``."""
    values = assignment(dsa.manager, dsa.state_vars, bits,
                        [n for n in dsa.ap if n in letter])
    return sum(1 << q for q, rhs in enumerate(dsa.rhs)
               if eval_names(dsa.manager, rhs, values))


def holds(game, assertion, bits, letter):
    """Truth of an assertion of ``game`` at a subset (bits over its
    ``state_vars``) and a letter, by names."""
    return eval_names(game.manager, assertion,
                      assignment(game.manager, game.state_vars, bits, letter))


def letter_colors(game, letter):
    """``game.letter_colors`` by names."""
    return sum(1 << cid for cid, a in enumerate(game.color_assertions)
               if holds(game, a, 0, letter))


def relation(dsa):
    """The subset construction's transition relation
    ``nonempty(V) & AND_q (q' <-> rhs_q(V, AP))``, over primed copies
    of the state variables that the library does not declare."""
    m = dsa.manager
    primed(m, dsa.state_vars)
    rho = dsa.nonempty
    for name, rhs in zip(dsa.state_vars, dsa.rhs):
        rho = rho & m.var(name + "'").iff(rhs)
    return rho


def reachable_subsets(dsa):
    """Assertion over the state variables: subsets reachable from the start,
    by images under ``relation(dsa)``."""
    m = dsa.manager
    rho = relation(dsa)
    unprimed = list(dsa.state_vars) + list(dsa.ap)
    back = {m.level(v + "'"): m.var(v).handle for v in dsa.state_vars}
    reach = dsa.theta0
    frontier = dsa.theta0
    while True:
        image = m.exists(unprimed, rho & frontier)
        image = Assertion(m, m.core.compose(image.handle, back))
        grown = reach | image
        if grown == reach:
            return reach
        frontier = grown & ~reach
        reach = grown


def reachable_subset_count(dsa):
    """Number of reachable nonempty subsets of the determinization."""
    reach = reachable_subsets(dsa)
    return dsa.manager.count_sat(reach & dsa.nonempty, dsa.state_vars)


def eval_ltl_lasso(phi, prefix, loop):
    """Truth of an LTL formula on the word prefix . loop^omega."""
    if not loop:
        raise LTLError("lasso loop must be nonempty")
    letters = list(prefix) + list(loop)
    n = len(letters)
    start = len(prefix)

    def nxt(p):
        return p + 1 if p + 1 < n else start

    memo = {}

    def vec(node):
        found = memo.get(node)
        if found is not None:
            return found
        if isinstance(node, (Tru, Fls, Ap, NotOp, AndOp, OrOp, Implies)) \
                and is_propositional(node):
            out = [eval_propositional(node, letters[p]) for p in range(n)]
        elif isinstance(node, NotOp):
            sub = vec(node.arg)
            out = [not x for x in sub]
        elif isinstance(node, AndOp):
            a, b = vec(node.left), vec(node.right)
            out = [x and y for x, y in zip(a, b)]
        elif isinstance(node, OrOp):
            a, b = vec(node.left), vec(node.right)
            out = [x or y for x, y in zip(a, b)]
        elif isinstance(node, Implies):
            a, b = vec(node.left), vec(node.right)
            out = [(not x) or y for x, y in zip(a, b)]
        elif isinstance(node, Next):
            sub = vec(node.arg)
            out = [sub[nxt(p)] for p in range(n)]
        elif isinstance(node, (Until, Finally)):
            if isinstance(node, Until):
                a, b = vec(node.left), vec(node.right)
            else:
                a, b = [True] * n, vec(node.arg)
            out = [False] * n
            for _ in range(n + 1):
                new = [b[p] or (a[p] and out[nxt(p)]) for p in range(n)]
                if new == out:
                    break
                out = new
        elif isinstance(node, (Release, Globally)):
            if isinstance(node, Release):
                a, b = vec(node.left), vec(node.right)
            else:
                a, b = [False] * n, vec(node.arg)
            out = [True] * n
            for _ in range(n + 1):
                new = [b[p] and (a[p] or out[nxt(p)]) for p in range(n)]
                if new == out:
                    break
                out = new
        else:
            raise LTLError("unknown node %r" % (node,))
        memo[node] = out
        return out

    return vec(phi)[0]


def nfa_accepts_lasso(nfa, prefix, loop):
    """Whether some infinite run exists on the ultimately periodic word."""
    letters = list(prefix) + list(loop)
    n = len(letters)
    start = len(prefix)

    def nxt(p):
        return p + 1 if p + 1 < n else start

    reachable = {(nfa.initial, 0)}
    queue = [(nfa.initial, 0)]
    edges = {}
    while queue:
        s, p = queue.pop()
        targets = [(t, nxt(p)) for t in successors(nfa, s, letters[p])]
        edges[(s, p)] = targets
        for node in targets:
            if node not in reachable:
                reachable.add(node)
                queue.append(node)
    # prune dead ends; anything left can be extended forever
    alive = set(reachable)
    changed = True
    while changed:
        changed = False
        for node in list(alive):
            if not any(t in alive for t in edges[node]):
                alive.discard(node)
                changed = True
    return bool(alive)


def dsa_accepts_lasso(dsa, prefix, loop):
    """Whether the deterministic symbolic automaton runs forever."""
    letters = list(prefix) + list(loop)
    n = len(letters)
    start = len(prefix)
    bits = dsa.initial_bits()
    seen = set()
    p = 0
    while True:
        if bits == 0:
            return False
        if p >= start:
            key = (bits, p)
            if key in seen:
                return True
            seen.add(key)
        bits = dsa.step_bits(bits, letters[p])
        p = p + 1 if p + 1 < n else start
