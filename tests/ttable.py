"""Truth-table twin of the decision-diagram manager.

Same public surface as :class:`elgames.dd.Manager`, but an assertion is
a plain bitmap over all 2^n variable assignments (bit i gives the truth
under the assignment whose variable values are the bits of i).  Only
usable for small variable counts; it exists so every diagram operation
can be checked against an independent, obviously-correct model.
"""

MAX_VARS = 20


class TTError(ValueError):
    pass


class TTAssertion:
    __slots__ = ("manager", "bits")

    def __init__(self, manager, bits):
        self.manager = manager
        self.bits = bits

    def _peer(self, other):
        if not isinstance(other, TTAssertion) or other.manager is not self.manager:
            raise TTError("assertions belong to different managers")
        return other.bits

    def __and__(self, other):
        return TTAssertion(self.manager, self.bits & self._peer(other))

    def __or__(self, other):
        return TTAssertion(self.manager, self.bits | self._peer(other))

    def __xor__(self, other):
        return TTAssertion(self.manager, self.bits ^ self._peer(other))

    def __invert__(self):
        return TTAssertion(self.manager, ~self.bits & self.manager.full)

    def implies(self, other):
        return ~self | other

    def iff(self, other):
        return ~(self ^ other)

    def __eq__(self, other):
        return (isinstance(other, TTAssertion)
                and other.manager is self.manager
                and other.bits == self.bits)

    def __hash__(self):
        return hash((id(self.manager), self.bits))

    def __bool__(self):
        raise TypeError("ambiguous truth value; use is_true()/is_false()")

    def is_false(self):
        return self.bits == 0

    def is_true(self):
        return self.bits == self.manager.full


class TTManager:
    def __init__(self):
        self.names = []
        self._levels = {}

    @property
    def full(self):
        return (1 << (1 << len(self.names))) - 1

    def declare(self, name):
        if name in self._levels:
            raise TTError("variable %r already declared" % name)
        if len(self.names) >= MAX_VARS:
            raise TTError("truth tables support at most %d variables" % MAX_VARS)
        self._levels[name] = len(self.names)
        self.names.append(name)
        return self.var(name)

    def level(self, name):
        try:
            return self._levels[name]
        except KeyError:
            raise TTError("unknown variable %r" % name) from None

    @property
    def true(self):
        return TTAssertion(self, self.full)

    @property
    def false(self):
        return TTAssertion(self, 0)

    def _mask(self, level):
        # bit i of the table is set iff bit `level` of assignment i is set
        total = 1 << len(self.names)
        out = 0
        step = 1 << level
        for base in range(0, total, 2 * step):
            out |= ((1 << step) - 1) << (base + step)
        return out

    def var(self, name):
        return TTAssertion(self, self._mask(self.level(name)))

    def cube(self, values):
        out = self.true
        for name, val in values.items():
            lit = self.var(name)
            out = out & (lit if val else ~lit)
        return out

    def ite(self, c, t, e):
        return (c & t) | (~c & e)

    def disj(self, assertions):
        out = self.false
        for a in assertions:
            out = out | a
        return out

    def _level_set(self, names):
        return tuple(self.level(n) for n in names)

    def _exists_level(self, bits, level):
        mask = self._mask(level)
        off = bits & ~mask
        on = bits & mask
        step = 1 << level
        merged = off | (off << step) | on | (on >> step)
        return merged & self.full

    def exists(self, names, a):
        bits = a.bits
        for level in self._level_set(names):
            bits = self._exists_level(bits, level)
        return TTAssertion(self, bits)

    def forall(self, names, a):
        return ~self.exists(names, ~a)

    def compose(self, a, vector):
        """Substitute, at once, the assertion ``vector[l]`` for the
        variable at each level ``l`` in ``vector``."""
        total = 1 << len(self.names)
        bits = 0
        for i in range(total):
            j = i
            for level, g in vector.items():
                if g.bits >> i & 1:
                    j |= 1 << level
                else:
                    j &= ~(1 << level)
            if a.bits >> j & 1:
                bits |= 1 << i
        return TTAssertion(self, bits)

    def _support_levels(self, bits):
        out = []
        for level in range(len(self.names)):
            step = 1 << level
            mask = self._mask(level)
            hi = (bits & mask) >> step
            lo = bits & ~mask
            if hi != lo:
                out.append(level)
        return tuple(out)

    def support_names(self, a):
        return tuple(self.names[level] for level in self._support_levels(a.bits))

    def count_sat(self, a, names):
        g = self.exists([n for n in self.names if n not in names], a)
        others = len(self.names) - len(self._level_set(names))
        # g is independent of the abstracted variables, so each
        # assignment of ``names`` contributes exactly 2^others entries.
        return bin(g.bits).count("1") // (1 << others)

    def pick_witness(self, a, names):
        if a.bits == 0:
            raise TTError("cannot pick a witness from an unsatisfiable assertion")
        g = self.exists([n for n in self.names if n not in names], a)
        i = (g.bits & -g.bits).bit_length() - 1
        return {n: bool(i >> self.level(n) & 1) for n in names}

    def eval(self, a, values):
        i = 0
        for name, val in values.items():
            if val:
                i |= 1 << self.level(name)
        return bool(a.bits >> i & 1)
