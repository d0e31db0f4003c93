"""Safety LTL: parsing, negation normal form, tableau automata, and
symbolic determinization by subset construction.

The safety fragment is negation normal form with temporal operators
limited to next, globally, and release.  A formula becomes a
nondeterministic safety automaton whose states are sets of obligations
due now; expanding a state discharges propositional constraints on the
current letter and schedules obligations for the next step.
Implications with a propositional antecedent are expanded by cases on
the antecedent, which keeps the automaton in the natural shape (a
deferred promise is only taken where its trigger holds).

A letter constraint has one semantics, its diagram (``prop_assert``):
the tableau keeps a branch iff the diagram of its constraint is not
false, so it tries no letters, and determinization builds the
transition functions from the same diagrams, on the same manager.

One manager serves a formula from tableau to game: the tableau declares
the alphabet on it, letters first, and determinization appends the
subset variables.  Determinization is the subset construction expressed
symbolically: one Boolean state variable per automaton state, an
exactly-initial cube, one transition function per state variable (its
next-step bit), and the requirement that the tracked subset is nonempty
(a run dies when it empties).  The subset space is never enumerated.
"""

from . import syntax
from .dd import Manager


class LTLError(ValueError):
    pass


class LTLSyntaxError(LTLError):
    def __init__(self, message, position):
        super().__init__("%s (at column %d)" % (message, position + 1))
        self.position = position


class NotSafetyError(LTLError):
    def __init__(self, offending):
        super().__init__("not a safety formula: %s after normalization"
                         % offending)
        self.offending = offending


class LTLFormula(syntax.Node):
    __slots__ = ()


class Tru(LTLFormula):
    __slots__ = ()


class Fls(LTLFormula):
    __slots__ = ()


class Ap(LTLFormula):
    __slots__ = ("name",)


class NotOp(LTLFormula):
    __slots__ = ("arg",)


class AndOp(LTLFormula):
    __slots__ = ("left", "right")


class OrOp(LTLFormula):
    __slots__ = ("left", "right")


class Implies(LTLFormula):
    __slots__ = ("left", "right")


class Next(LTLFormula):
    __slots__ = ("arg",)


class Finally(LTLFormula):
    __slots__ = ("arg",)


class Globally(LTLFormula):
    __slots__ = ("arg",)


class Until(LTLFormula):
    __slots__ = ("left", "right")


class Release(LTLFormula):
    __slots__ = ("left", "right")


LTL_TRUE = Tru()
LTL_FALSE = Fls()


def atoms(phi):
    out = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Ap):
            out.add(node.name)
        elif isinstance(node, (NotOp, Next, Finally, Globally)):
            stack.append(node.arg)
        elif isinstance(node, (AndOp, OrOp, Implies, Until, Release)):
            stack.append(node.left)
            stack.append(node.right)
    return out


def is_propositional(phi):
    if isinstance(phi, (Tru, Fls, Ap)):
        return True
    if isinstance(phi, NotOp):
        return is_propositional(phi.arg)
    if isinstance(phi, (AndOp, OrOp, Implies)):
        return is_propositional(phi.left) and is_propositional(phi.right)
    return False


def letters(names):
    """Every letter (set of true names) over ``names``; the i-th name is
    bit i of the letter's position in the sequence."""
    names = tuple(names)
    for bits in range(1 << len(names)):
        yield frozenset(n for i, n in enumerate(names) if bits >> i & 1)


def prop_assert(manager, phi):
    """Assertion of ``manager`` for a temporal-free formula; the atoms
    must be declared variables of the manager."""
    if isinstance(phi, Tru):
        return manager.true
    if isinstance(phi, Fls):
        return manager.false
    if isinstance(phi, Ap):
        return manager.var(phi.name)
    if isinstance(phi, NotOp):
        return ~prop_assert(manager, phi.arg)
    if isinstance(phi, AndOp):
        return prop_assert(manager, phi.left) & prop_assert(manager, phi.right)
    if isinstance(phi, OrOp):
        return prop_assert(manager, phi.left) | prop_assert(manager, phi.right)
    if isinstance(phi, Implies):
        return prop_assert(manager, phi.left).implies(prop_assert(manager, phi.right))
    raise LTLError("not propositional: %r" % (phi,))


# ---------------------------------------------------------------------------
# Concrete syntax.

_KEYWORDS = frozenset({"true", "false", "X", "F", "G", "U", "R"})
_BINARY = {
    "->": (1, True, Implies),
    "|": (2, False, OrOp),
    "&": (3, False, AndOp),
    "U": (4, True, Until),
    "R": (4, True, Release),
}
_PREFIX = {"!": NotOp, "X": Next, "F": Finally, "G": Globally}


def is_atom(name):
    """Whether ``name`` can be an atomic proposition of a formula."""
    return syntax.is_identifier(name) and name not in _KEYWORDS


def _atom(tok, pos, take):
    if tok == "true":
        return LTL_TRUE
    if tok == "false":
        return LTL_FALSE
    return Ap(tok) if is_atom(tok) else None


# Deepest formula tree ``parse_ltl`` accepts, in nodes from the root to
# a leaf.  Normalization, the tableau and ``repr`` recurse once per
# level, and a left-folded chain such as ``a & a & ... & a`` is one
# parser level (``syntax.MAX_NESTING``) but one tree level per operand.
MAX_DEPTH = 400


def parse_ltl(text):
    """Parse LTL: ``!``, ``X``, ``F``, ``G`` bind tightest, then the
    right-associative ``U`` and ``R``, then ``&``, ``|`` and the
    right-associative ``->``.  A tree deeper than ``MAX_DEPTH`` levels
    raises :class:`LTLError`."""
    phi = syntax.parse(text, _BINARY, _PREFIX, _atom, LTLSyntaxError)
    stack = [(phi, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise LTLError("formula too deep: over %d levels" % MAX_DEPTH)
        if isinstance(node, (NotOp, Next, Finally, Globally)):
            stack.append((node.arg, depth + 1))
        elif isinstance(node, (AndOp, OrOp, Implies, Until, Release)):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return phi


# ---------------------------------------------------------------------------
# Negation normal form and the safety check.


def to_nnf(phi, negate=False):
    """Push negations to atoms.  Implications whose antecedent is
    temporal-free are kept as nodes (the antecedent is propositional, so
    its polarity never buries a temporal negation); everything else
    rewrites through the usual dualities."""
    if isinstance(phi, Tru):
        return LTL_FALSE if negate else LTL_TRUE
    if isinstance(phi, Fls):
        return LTL_TRUE if negate else LTL_FALSE
    if isinstance(phi, Ap):
        return NotOp(phi) if negate else phi
    if isinstance(phi, NotOp):
        return to_nnf(phi.arg, not negate)
    if isinstance(phi, AndOp):
        if negate:
            return OrOp(to_nnf(phi.left, True), to_nnf(phi.right, True))
        return AndOp(to_nnf(phi.left), to_nnf(phi.right))
    if isinstance(phi, OrOp):
        if negate:
            return AndOp(to_nnf(phi.left, True), to_nnf(phi.right, True))
        return OrOp(to_nnf(phi.left), to_nnf(phi.right))
    if isinstance(phi, Implies):
        if is_propositional(phi.left):
            if negate:
                return AndOp(phi.left, to_nnf(phi.right, True))
            return Implies(phi.left, to_nnf(phi.right))
        if negate:
            return AndOp(to_nnf(phi.left), to_nnf(phi.right, True))
        return OrOp(to_nnf(phi.left, True), to_nnf(phi.right))
    if isinstance(phi, Next):
        return Next(to_nnf(phi.arg, negate))
    if isinstance(phi, Globally):
        if negate:
            return Finally(to_nnf(phi.arg, True))
        return Globally(to_nnf(phi.arg))
    if isinstance(phi, Finally):
        if negate:
            return Globally(to_nnf(phi.arg, True))
        return Finally(to_nnf(phi.arg))
    if isinstance(phi, Until):
        if negate:
            return Release(to_nnf(phi.left, True), to_nnf(phi.right, True))
        return Until(to_nnf(phi.left), to_nnf(phi.right))
    if isinstance(phi, Release):
        if negate:
            return Until(to_nnf(phi.left, True), to_nnf(phi.right, True))
        return Release(to_nnf(phi.left), to_nnf(phi.right))
    raise LTLError("unknown node %r" % (phi,))


def check_safety(phi):
    """NNF of ``phi`` if it falls into the safety fragment, else raise."""
    nnf = to_nnf(phi)

    def walk(node):
        # a letter constraint, such as an antecedent to_nnf keeps as written
        if is_propositional(node):
            return
        if isinstance(node, (Until, Finally)):
            raise NotSafetyError("U" if isinstance(node, Until) else "F")
        if isinstance(node, (AndOp, OrOp, Implies, Until, Release)):
            walk(node.left)
            walk(node.right)
            return
        if isinstance(node, (Next, Globally)):
            walk(node.arg)
            return
        raise LTLError("unknown node %r" % (node,))

    walk(nnf)
    return nnf


# ---------------------------------------------------------------------------
# Tableau construction of the nondeterministic safety automaton.


class SafetyNFA:
    """States are frozensets of obligations due now; transitions carry a
    propositional constraint on the current letter.  ``manager``
    declares the alphabet, and nothing else, when the automaton is
    built."""

    def __init__(self, states, initial, transitions, manager):
        self.states = states            # list of frozensets
        self.initial = initial          # state index
        self.transitions = transitions  # list per state of (constraint, target)
        self.manager = manager          # dd.Manager of the letter diagrams
        self.ap = tuple(manager.names)  # the alphabet, in level order

    def __len__(self):
        return len(self.states)


def _normalize_state(formulas):
    """Flatten conjunctions; None marks an inconsistent (dead) state."""
    out = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if isinstance(f, Tru):
            continue
        if isinstance(f, Fls):
            return None
        if isinstance(f, AndOp):
            stack.append(f.left)
            stack.append(f.right)
        else:
            out.add(f)
    return frozenset(out)


def _expand(state):
    """Branches (constraint list, next obligation set) of one state."""
    # canonical order: the automaton must not depend on PYTHONHASHSEED;
    # it is the order of syntax.Node's repr, which must stay as it is
    branches = [([], [], sorted(state, key=repr))]  # (constraints, next, todo)
    done = []
    while branches:
        constraints, nxt, todo = branches.pop()
        if not todo:
            done.append((constraints, nxt))
            continue
        f = todo[-1]
        rest = todo[:-1]
        if isinstance(f, Fls):
            continue
        if isinstance(f, Tru):
            branches.append((constraints, nxt, rest))
        elif is_propositional(f):
            branches.append((constraints + [f], nxt, rest))
        elif isinstance(f, AndOp):
            branches.append((constraints, nxt, rest + [f.left, f.right]))
        elif isinstance(f, Implies):
            # propositional antecedent: case split on the trigger
            branches.append((constraints + [NotOp(f.left)], nxt, rest))
            branches.append((constraints + [f.left], nxt, rest + [f.right]))
        elif isinstance(f, OrOp):
            branches.append((constraints, nxt, rest + [f.left]))
            branches.append((constraints, nxt, rest + [f.right]))
        elif isinstance(f, Next):
            branches.append((constraints, nxt + [f.arg], rest))
        elif isinstance(f, Globally):
            branches.append((constraints, nxt + [f], rest + [f.arg]))
        elif isinstance(f, Release):
            branches.append((constraints, nxt + [f], rest + [f.right]))
            branches.append((constraints, nxt, rest + [f.right, f.left]))
        else:
            raise LTLError("not a safety obligation: %r" % (f,))
    return done


def _constraint_formula(constraints):
    out = LTL_TRUE
    for c in constraints:
        out = c if isinstance(out, Tru) else AndOp(out, c)
    return out


def nfa_from_safety(nnf, letters):
    """Tableau automaton for a safety-fragment formula in NNF over the
    alphabet ``letters``, which must cover the formula's atoms.

    A fresh manager declares ``letters`` in order (synthesis passes its
    inputs and then its outputs), and the automaton keeps it.  A branch
    is kept iff its letter constraint is satisfiable, which is read off
    its diagram on that manager (a reduced diagram is unsatisfiable iff
    it is the false terminal)."""
    missing = atoms(nnf).difference(letters)
    if missing:
        raise LTLError("atoms outside the alphabet: %s"
                       % ", ".join(sorted(missing)))
    manager = Manager()
    for name in letters:
        manager.declare(name)
    initial = _normalize_state([nnf])
    if initial is None:
        # inconsistent right away: a single dead initial state
        return SafetyNFA([frozenset([LTL_FALSE])], 0, [[]], manager)
    index = {initial: 0}
    states = [initial]
    transitions = [None]
    queue = [initial]
    while queue:
        state = queue.pop(0)
        out = []
        seen_branches = set()
        for constraints, nxt in _expand(state):
            target = _normalize_state(nxt)
            if target is None:
                continue
            constraint = _constraint_formula(constraints)
            if prop_assert(manager, constraint).is_false():
                continue
            key = (repr(constraint), target)
            if key in seen_branches:
                continue
            seen_branches.add(key)
            if target not in index:
                index[target] = len(states)
                states.append(target)
                transitions.append(None)
                queue.append(target)
            out.append((constraint, index[target]))
        transitions[index[state]] = out

    # Iteratively drop dead-end states (keeping the initial state so the
    # automaton always has a subset to start from).
    alive = set(range(len(states)))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            if i == 0:
                continue
            if not any(t in alive for _, t in transitions[i]):
                alive.discard(i)
                changed = True
    order = [i for i in range(len(states)) if i in alive]
    remap = {old: new for new, old in enumerate(order)}
    new_states = [states[i] for i in order]
    new_transitions = []
    for i in order:
        new_transitions.append([(c, remap[t]) for c, t in transitions[i]
                                if t in alive])
    return SafetyNFA(new_states, remap[0], new_transitions, manager)


# ---------------------------------------------------------------------------
# Symbolic determinization.


class SymbolicSafetyAutomaton:

    def __init__(self, state_vars, theta0, nonempty, rhs, nfa):
        self.manager = nfa.manager    # the Manager of every assertion here
        self.state_vars = state_vars  # variable name per NFA state
        self.ap = nfa.ap              # the alphabet, at levels 0..k-1
        self.theta0 = theta0          # Assertion: exactly-initial cube
        self.nonempty = nonempty      # Assertion: some state variable holds
        self.rhs = rhs                # per state: Assertion of the next-step bit
        self.nfa = nfa                # the SafetyNFA

    def initial_bits(self):
        return 1 << self.nfa.initial

    def point(self, bits, letter_point):
        """The point (see ``dd.Manager.point``) of a subset, given by its
        bits, and a letter, given by its point: subset variable ``q``
        sits at level ``k + q``, past the ``k`` letters."""
        return bits << len(self.ap) | letter_point

    def step_point(self, point):
        """Next subset's bits at a (subset, letter) point: bit ``q`` is
        ``rhs[q]`` there; 0 is the dead subset."""
        evaluate = self.manager.core.eval
        return sum(1 << q for q, rhs in enumerate(self.rhs)
                   if evaluate(rhs.handle, point))

    def step_bits(self, bits, letter):
        """Deterministic subset step under one letter (set of true
        names; names outside ``ap`` are ignored); 0 is the dead subset."""
        return self.step_point(self.point(
            bits, self.manager.point(n for n in self.ap if n in letter)))


MAX_SUBSET_VARS = 64


def determinize_symbolic(nfa):
    """Subset construction as assertions; one state variable per NFA state.

    The state variables ``@0``, ``@1``, ... (names no atom can take) are
    appended to the automaton's manager, after its alphabet, so an
    automaton is determinized once.  With ``k`` letters, the letters sit
    at levels ``0..k-1`` and state variable ``q`` at level ``k + q``:
    a (subset, letter) pair's point (see ``dd.Manager.point``) is the
    subset's bits shifted up by ``k`` and joined with the letter's
    point, ``SymbolicSafetyAutomaton.point``.  Past ``MAX_SUBSET_VARS``
    automaton states it raises :class:`LTLError`.

    Each nonempty subset and letter have exactly one next subset, whose
    bit ``q`` is ``rhs[q](V, AP)``; the empty subset has none.
    ``synthesis.symbolic_cpre`` composes a target with ``rhs`` and
    conjoins ``nonempty``, with no transition relation.
    """
    if len(nfa) > MAX_SUBSET_VARS:
        raise LTLError("variable budget exceeded: %d automaton states > %d"
                       % (len(nfa), MAX_SUBSET_VARS))
    manager = nfa.manager
    state_vars = tuple("@%d" % i for i in range(len(nfa)))
    for name in state_vars:
        manager.declare(name)

    theta0 = manager.cube({name: (i == nfa.initial)
                           for i, name in enumerate(state_vars)})
    rhs = [manager.false] * len(nfa)
    for p, out in enumerate(nfa.transitions):
        for constraint, t in out:
            rhs[t] = rhs[t] | (manager.var(state_vars[p])
                               & prop_assert(manager, constraint))
    nonempty = manager.disj(manager.var(v) for v in state_vars)
    return SymbolicSafetyAutomaton(state_vars, theta0, nonempty, tuple(rhs),
                                   nfa)
