"""Symbolic assertions over named Boolean variables.

A :class:`Manager` owns an ordered variable table and wraps diagram
handles in :class:`Assertion` values; every set of variables it takes
is a list of names.  Handles are canonical, so ``==`` on assertions of
one manager is semantic equality.

The diagram engine itself lives in the pure-Python core module
``elgames._bddcore_py``.
"""

from . import _bddcore_py as _core_mod

CORE_IMPL = _core_mod.IMPL_NAME


class BddError(ValueError):
    """Manager misuse: mixed managers, unknown or repeated names."""


class Assertion:
    """Boolean predicate over a manager's variables (immutable handle)."""

    __slots__ = ("manager", "handle")

    def __init__(self, manager, handle):
        self.manager = manager
        self.handle = handle

    def _peer(self, other):
        if not isinstance(other, Assertion) or other.manager is not self.manager:
            raise BddError("assertions belong to different managers")
        return other.handle

    def __and__(self, other):
        return Assertion(self.manager,
                         self.manager.core.and_(self.handle, self._peer(other)))

    def __or__(self, other):
        return Assertion(self.manager,
                         self.manager.core.or_(self.handle, self._peer(other)))

    def __xor__(self, other):
        return Assertion(self.manager,
                         self.manager.core.xor_(self.handle, self._peer(other)))

    def __invert__(self):
        return Assertion(self.manager, self.manager.core.not_(self.handle))

    def implies(self, other):
        return Assertion(self.manager,
                         self.manager.core.implies_(self.handle, self._peer(other)))

    def iff(self, other):
        return Assertion(self.manager,
                         self.manager.core.iff_(self.handle, self._peer(other)))

    def __eq__(self, other):
        return (isinstance(other, Assertion)
                and other.manager is self.manager
                and other.handle == self.handle)

    def __hash__(self):
        return hash((id(self.manager), self.handle))

    def __bool__(self):
        raise TypeError("ambiguous truth value; use is_true()/is_false()")

    def is_false(self):
        return self.handle == 0

    def is_true(self):
        return self.handle == 1

    def __repr__(self):
        return "<Assertion %d over %d vars>" % (self.handle, len(self.manager.names))


class Manager:
    """Variable table plus a diagram core.

    Variables are declared once, in order; the declaration order is the
    diagram order, and a variable's level is its place in ``names``.
    """

    def __init__(self):
        self.core = _core_mod.Core()
        self.names = []
        self._levels = {}

    # -- declarations

    def declare(self, name):
        if name in self._levels:
            raise BddError("variable %r already declared" % name)
        self._levels[name] = len(self.names)
        self.names.append(name)
        return self.var(name)

    def level(self, name):
        try:
            return self._levels[name]
        except KeyError:
            raise BddError("unknown variable %r" % name) from None

    # -- constants and atoms

    @property
    def true(self):
        return Assertion(self, 1)

    @property
    def false(self):
        return Assertion(self, 0)

    def var(self, name):
        return Assertion(self, self.core.var_node(self.level(name)))

    def cube(self, values):
        """Conjunction of literals from a name -> bool mapping."""
        out = self.true
        for name in sorted(values, key=self.level):
            lit = self.var(name)
            out = out & (lit if values[name] else ~lit)
        return out

    # -- operations

    def ite(self, c, t, e):
        c._peer(t)
        c._peer(e)
        return Assertion(self, self.core.ite(c.handle, t.handle, e.handle))

    def disj(self, assertions):
        out = self.false
        for a in assertions:
            out = out | a
        return out

    def _level_set(self, names):
        return tuple(self.level(n) for n in names)

    def exists(self, names, a):
        return Assertion(self, self.core.exists(a.handle, self._level_set(names)))

    def forall(self, names, a):
        return Assertion(self, self.core.forall(a.handle, self._level_set(names)))

    def support_names(self, a):
        return tuple(self.names[level] for level in self.core.support(a.handle))

    def _project(self, a, levels):
        """Handle of ``a`` with every variable outside ``levels``
        existentially abstracted."""
        inside = set(levels)
        others = [lv for lv in range(len(self.names)) if lv not in inside]
        return self.core.exists(a.handle, others)

    def count_sat(self, a, names):
        """Satisfying assignments of the named variables, after
        existentially abstracting everything else."""
        levels = self._level_set(names)
        return self.core.satcount(self._project(a, levels), levels)

    def pick_witness(self, a, names):
        """One assignment of the named variables (complete name -> bool
        dict) consistent with the assertion; unconstrained variables
        default to False."""
        if a.handle == 0:
            raise BddError("cannot pick a witness from an unsatisfiable assertion")
        levels = self._level_set(names)
        partial = self.core.pick(self._project(a, levels))
        return {self.names[lv]: partial.get(lv, False) for lv in levels}

    def point(self, names):
        """The point where exactly ``names`` are true, the form in which
        ``Core.eval`` takes an assignment: the int with bit ``level(n)``
        set for each of them."""
        return sum(1 << lv for lv in {self.level(n) for n in names})

    def eval(self, a, values):
        """Truth of the assertion at the point of the names that the
        name -> bool mapping ``values`` sets true; others are false."""
        self.point(values)  # rejects an unknown name, even one set false
        return self.core.eval(a.handle,
                              self.point(n for n, v in values.items() if v))
