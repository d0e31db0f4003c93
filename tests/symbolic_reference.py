"""Symbolic set backend over ``dd.Assertion`` values, kept as a reference
for the tests.

``SetBackend`` and ``symbolic_cpre`` are the fixpoint solver's set
backend and the synthesis module's controllable predecessor as they were
when the symbolic solve computed on wrapped assertions: every union,
intersection and comparison goes through the ``Assertion`` operators.
``SymbolicBackend`` joins them.  The library's backend computes on the
diagram core's integer handles instead and must reach the same values
in the same stages.

``symbolic_cpre`` is the textbook relational product over primed
copies of the subset and letter variables, which it declares on the
game's manager below the library's levels: the transition relation
``ltl_reference.relation`` conjoined with the whole renamed target,
then the primed letter and subset variables quantified.  It is the
reference that the library's ``synthesis.symbolic_cpre``, which
composes the transition functions into the target, must equal handle
for handle.
"""

from elgames.dd import Assertion

from ltl_reference import primed, relation


class SetBackend:
    """Values that are node sets: ``|``, ``&``, ``~`` and ``==`` on
    explicit masks or diagram assertions, both canonical and hashable,
    so ``subset`` is one union and one comparison.

    An attraction term's value is its guard intersected with the
    controllable predecessor of the anchor's value.  The guard is
    stated once, over ``colors``, the set of nodes of each color: the
    nodes with no color outside the subset mask and, when an escape
    mask is given, some color outside it.  Inner iterations keep asking
    for the predecessor of the same few sets, so guards and ``cpre``
    results are memoized, by guard masks and by target, for the life of
    the backend; each solve makes its own backend.  Subclasses give
    ``cpre`` and pass the empty set, the full set and the color sets.
    """

    def __init__(self, empty, full, colors):
        self.empty = empty
        self.full = full
        self.colors = tuple(colors)
        self._guards = {}
        self._pre = {}

    def bottom(self):
        return self.empty

    def top(self, s):
        return self.full

    def union(self, a, b):
        return a | b

    def intersect(self, a, b, s):
        return a & b

    def subset(self, a, b):
        return a | b == b

    def guard(self, subset, escape):
        """Nodes whose colors lie inside ``subset`` and, unless
        ``escape`` is None, not inside ``escape``."""
        out = self.full
        for cid, nodes in enumerate(self.colors):
            if not subset >> cid & 1:
                out = out & ~nodes
        if escape is None:
            return out
        escapes = self.empty
        for cid, nodes in enumerate(self.colors):
            if not escape >> cid & 1:
                escapes = escapes | nodes
        return out & escapes

    def image(self, value):
        """The controllable predecessor of ``value``, memoized by target
        as ``term`` reads it."""
        pre = self._pre.get(value)
        if pre is None:
            pre = self._pre[value] = self.cpre(value)
        return pre

    def term(self, s, term, value):
        key = term[1:]
        guard = self._guards.get(key)
        if guard is None:
            guard = self._guards[key] = self.guard(*key)
        pre = self._pre.get(value)
        if pre is None:
            pre = self._pre[value] = self.cpre(value)
        return guard & pre


def symbolic_cpre(game, target):
    """Nodes where every next input admits outputs and a subset step
    keeping the successor in the target, as one relational product."""
    m = game.manager
    rho = relation(game.dsa)
    vector = primed(m, game.state_vars)
    vector.update(primed(m, game.ap))
    inner = rho & Assertion(m, m.core.compose(target.handle, vector))
    primed_inputs = [n + "'" for n in game.inputs]
    primed_rest = ([n + "'" for n in game.outputs]
                   + [n + "'" for n in game.state_vars])
    return m.forall(primed_inputs, m.exists(primed_rest, inner))


class SymbolicBackend(SetBackend):
    """Assertion-set backend for the generic fixpoint solver; its color
    sets are the color assertions over the letter variables."""

    def __init__(self, game):
        super().__init__(game.manager.false, game.manager.true,
                         game.color_assertions)
        self.game = game

    def cpre(self, target):
        return symbolic_cpre(self.game, target)
