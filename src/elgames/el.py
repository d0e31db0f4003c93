"""Colors and Emerson-Lei objectives.

An objective is a Boolean formula over atoms ``Inf c`` ("color ``c``
occurs infinitely often"), evaluated against the set of colors that a
play visits infinitely often.  ``Fin c`` abbreviates ``!Inf c`` and is
desugared during parsing; it is not an AST node.  Colors are interned
in a :class:`ColorTable` and color sets are dense bit masks over it.
"""

from . import syntax

MAX_COLORS = 30
# Truth tables, and so Zielonka trees, stop here: 2**12 bits per table.
MAX_TABLE_COLORS = 12

_KEYWORDS = frozenset({"true", "false", "Inf", "Fin"})


def is_color_name(name):
    """Whether ``name`` can name a color: an identifier, not a keyword."""
    return syntax.is_identifier(name) and name not in _KEYWORDS


class ELError(ValueError):
    """Base class for objective-related errors."""


class ELSyntaxError(ELError):
    def __init__(self, message, position):
        super().__init__("%s (at column %d)" % (message, position + 1))
        self.position = position


class UnknownColorError(ELError):
    def __init__(self, name):
        super().__init__("unknown color: %r" % (name,))
        self.name = name


class ColorTable:
    """Ordered table of color names; ids are dense in 0..len-1."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ELError("duplicate color names: %r" % (names,))
        if len(names) > MAX_COLORS:
            raise ELError("too many colors (%d > %d)" % (len(names), MAX_COLORS))
        for name in names:
            if not is_color_name(name):
                raise ELError("bad color name: %r" % (name,))
        self.names = names
        self._ids = {name: i for i, name in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, ColorTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "ColorTable(%r)" % (list(self.names),)

    @property
    def full_mask(self):
        return (1 << len(self.names)) - 1

    def id(self, name):
        try:
            return self._ids[name]
        except KeyError:
            raise UnknownColorError(name) from None

    def name(self, cid):
        return self.names[cid]

    def mask(self, *names):
        """Bit mask of the given color names."""
        m = 0
        for name in names:
            m |= 1 << self.id(name)
        return m

    def names_of(self, mask):
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)

    def format_mask(self, mask):
        return "{%s}" % ",".join(self.names_of(mask))


def subsets_of(mask):
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    out.reverse()
    return out


class ELFormula(syntax.Node):
    """Base class of objective AST nodes."""

    __slots__ = ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


class TrueFormula(ELFormula):
    __slots__ = ()


class FalseFormula(ELFormula):
    __slots__ = ()


class Inf(ELFormula):
    __slots__ = ("color",)


class Not(ELFormula):
    __slots__ = ("arg",)


class And(ELFormula):
    __slots__ = ("left", "right")


class Or(ELFormula):
    __slots__ = ("left", "right")


TRUE = TrueFormula()
FALSE = FalseFormula()


def fin(color):
    """``Fin c`` as its definition ``!Inf c``."""
    return Not(Inf(color))


def truth_table(phi, ncolors):
    """Truth table of ``phi`` over colors ``0..ncolors-1`` as one int:
    bit ``m`` is set iff ``phi`` holds on the color set ``m``.

    One iterative post-order pass of big-int operations on
    ``2**ncolors``-bit ints, so a formula of any depth is safe.  Nodes
    are memoized by ``id``, not by value: a shared subtree is one
    object, and comparing equal but distinct subtrees by value recurses
    once per level.
    """
    if ncolors > MAX_TABLE_COLORS:
        raise ELError("color budget exceeded: %d > %d" % (ncolors, MAX_TABLE_COLORS))
    full = (1 << (1 << ncolors)) - 1
    done = {}
    stack = [phi]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        if isinstance(node, Inf):
            if node.color >= ncolors:
                raise ELError("formula mentions color id %d outside %d colors"
                              % (node.color, ncolors))
            # Sets containing color c: the upper half of every block of
            # 2h consecutive masks, h = 2^c, repeated over the table.
            h = 1 << node.color
            value = ((1 << h) - 1 << h) * (full // ((1 << 2 * h) - 1))
        elif isinstance(node, TrueFormula):
            value = full
        elif isinstance(node, FalseFormula):
            value = 0
        elif isinstance(node, Not):
            arg = done.get(id(node.arg))
            if arg is None:
                stack.append(node.arg)
                continue
            value = full & ~arg
        elif isinstance(node, (And, Or)):
            left = done.get(id(node.left))
            right = done.get(id(node.right))
            if left is None or right is None:
                stack += (node.left, node.right)
                continue
            value = left & right if isinstance(node, And) else left | right
        else:
            raise TypeError("not an objective node: %r" % (node,))
        done[id(node)] = value
        stack.pop()
    return done[id(phi)]


def maximal_flipped(truth, mask, value):
    """Maximal proper submasks of ``mask`` whose bit in the truth table
    ``truth`` differs from ``value``, by descending cardinality then
    mask value."""
    flipped = [sub for sub in subsets_of(mask)
               if sub != mask and (truth >> sub & 1) != value]
    flipped.sort(key=lambda m: (-m.bit_count(), m))
    kept = []
    for m in flipped:
        if not any(k & m == m for k in kept):
            kept.append(m)
    return kept


def colors_mentioned(phi):
    """Set of color ids occurring in ``phi``."""
    out = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Inf):
            out.add(node.color)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
    return out


def check_colors(phi, table):
    for cid in colors_mentioned(phi):
        if cid >= len(table):
            raise ELError("formula mentions color id %d outside table %r" % (cid, table))


# ---------------------------------------------------------------------------
# Printing and parsing.  Precedence: ! > & > | > ->; `->` is accepted on
# input and desugared to !l | r, so it never needs printing.

_PREC_IMPLIES, _PREC_OR, _PREC_AND = 1, 2, 3


def format_formula(phi, table):
    """Round-trippable concrete syntax for ``phi``.

    Iterative over an explicit stack of pending nodes and literal text,
    so a formula of any depth prints."""
    out = []
    stack = [(phi, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, prec = item
        if isinstance(node, TrueFormula):
            out.append("true")
        elif isinstance(node, FalseFormula):
            out.append("false")
        elif isinstance(node, Inf):
            out.append("Inf %s" % table.name(node.color))
        elif isinstance(node, Not):
            if isinstance(node.arg, Inf):
                out.append("Fin %s" % table.name(node.arg.color))
            else:
                out.append("!(")
                stack += (")", (node.arg, 0))
        elif isinstance(node, (And, Or)):
            level, op = (_PREC_AND, " & ") if isinstance(node, And) else (_PREC_OR, " | ")
            if prec > level:
                out.append("(")
                stack.append(")")
            # Right operand gets one level more so left-folded parses match.
            stack += ((node.right, level + 1), op, (node.left, level))
        else:
            raise TypeError(node)
    return "".join(out)


_BINARY = {
    "->": (_PREC_IMPLIES, True, lambda left, right: Or(Not(left), right)),
    "|": (_PREC_OR, False, Or),
    "&": (_PREC_AND, False, And),
}
_PREFIX = {"!": Not}


def parse_formula(text, table):
    """Parse the objective grammar; ``Fin c`` desugars to ``!Inf c``."""

    def atom(tok, pos, take):
        if tok in ("Inf", "Fin"):
            name, npos = take()
            cid = table._ids.get(name)   # a table name is a valid one
            if cid is None:
                if not is_color_name(name):
                    raise ELSyntaxError("expected color name after %s" % tok, npos)
                cid = table.id(name)
            return Inf(cid) if tok == "Inf" else Not(Inf(cid))
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        return None

    return syntax.parse(text, _BINARY, _PREFIX, atom, ELSyntaxError)


# ---------------------------------------------------------------------------
# Builders for the standard objective families.


def _fold(op, parts, empty):
    if not parts:
        return empty
    phi = parts[0]
    for p in parts[1:]:
        phi = op(phi, p)
    return phi


def _check_pairs(table, pairs):
    if not pairs:
        raise ELError("empty pair list")
    seen = []
    for x, y in pairs:
        seen += [table.id(x), table.id(y)]
    if len(set(seen)) != len(seen):
        raise ELError("duplicate colors in pairs: %r" % (pairs,))


def buchi(table, f):
    return Inf(table.id(f))


def generalized_buchi(table, names):
    if not names:
        raise ELError("empty color list")
    ids = [table.id(n) for n in names]
    if len(set(ids)) != len(ids):
        raise ELError("duplicate colors: %r" % (names,))
    return _fold(And, [Inf(i) for i in ids], TRUE)


def parity(table, names):
    """Max-even parity over priorities ``p_1 <= ... <= p_2k`` given low to high."""
    ids = [table.id(n) for n in names]
    if not ids or len(ids) % 2 != 0:
        raise ELError("parity needs a nonempty even-length priority list")
    if len(set(ids)) != len(ids):
        raise ELError("duplicate colors: %r" % (names,))
    disjuncts = []
    for i in range(1, len(ids) + 1):
        if i % 2 == 0:
            term = _fold(And, [Inf(ids[i - 1])] + [fin(ids[j - 1]) for j in range(i + 1, len(ids) + 1)], TRUE)
            disjuncts.append(term)
    return _fold(Or, disjuncts, FALSE)


def rabin(table, pairs):
    """Disjunction of ``Inf e & Fin f`` over pairs ``(e, f)``."""
    _check_pairs(table, pairs)
    return _fold(Or, [And(Inf(table.id(e)), fin(table.id(f))) for e, f in pairs], FALSE)


def streett(table, pairs):
    """Conjunction of ``Inf r -> Inf g`` over pairs ``(r, g)``, desugared."""
    _check_pairs(table, pairs)
    return _fold(And, [Or(fin(table.id(r)), Inf(table.id(g))) for r, g in pairs], TRUE)


def muller(table, family):
    """The infinite-visit set is exactly one of the given color sets."""
    masks = []
    for group in family:
        masks.append(group if isinstance(group, int) else table.mask(*group))
    disjuncts = []
    for m in masks:
        lits = []
        for cid in range(len(table)):
            lits.append(Inf(cid) if m >> cid & 1 else fin(cid))
        disjuncts.append(_fold(And, lits, TRUE))
    return _fold(Or, disjuncts, FALSE)


def even_cardinality_muller(table):
    """Muller objective: the number of infinitely visited colors is even."""
    family = [m for m in range(table.full_mask + 1) if bin(m).count("1") % 2 == 0]
    return muller(table, family)


def random_formula(rng, table, max_depth):
    """Seeded random objective of bounded depth mentioning table colors."""
    if max_depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.05:
            return TRUE
        if r < 0.1:
            return FALSE
        return Inf(rng.randrange(len(table)))
    r = rng.random()
    if r < 0.25:
        return Not(random_formula(rng, table, max_depth - 1))
    left = random_formula(rng, table, max_depth - 1)
    right = random_formula(rng, table, max_depth - 1)
    return And(left, right) if r < 0.625 else Or(left, right)
