"""Tokens, one precedence parser and one syntax-node base for the
objective and LTL syntaxes.

Both languages share identifiers, parentheses, ``!``, ``&``, ``|`` and
``->``; each is a grammar table over :func:`parse`, a precedence-climbing
parser (Pratt, "Top Down Operator Precedence", POPL 1973).  Both
grammars' trees are built of :class:`Node` subclasses: immutable, equal
by class and fields, hashed once at construction, and shown by ``repr``
as ``Class(field=value, ...)``.  That ``repr`` is part of the contract:
the LTL tableau orders obligations and tells branches apart by it, so the
automaton's state numbering depends on it byte for byte.
"""

import re
from operator import attrgetter

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)
_SPACE_RE = re.compile(r"\s*")
_TOKEN_RE = re.compile(r"->|[()!&|]|%s" % _IDENT)
# Deepest nesting of prefix operators, parentheses and right operands
# of infix operators that ``parse`` accepts; the parser and the functions
# that walk its trees recurse once per level.
MAX_NESTING = 100


def is_identifier(token):
    return token is not None and _IDENT_RE.fullmatch(token) is not None


def tokenize(text, error):
    """``(token, column)`` pairs closed by ``(None, len(text))``; a
    character that starts no token raises ``error(message, column)``."""
    tokens = []
    pos = _SPACE_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise error("unexpected character %r" % text[pos], pos)
        tokens.append((m.group(), pos))
        pos = _SPACE_RE.match(text, m.end()).end()
    tokens.append((None, len(text)))
    return tokens


def _shown(token):
    return "end of input" if token is None else "token %r" % (token,)


def parse(text, binary, prefix, atom, error):
    """Parse ``text`` over one grammar table.

    ``binary`` maps an infix token to ``(precedence, right_associative,
    build)``, higher binding tighter; ``prefix`` maps a token to
    ``build(arg)``, binding tighter than any infix one.  ``atom(token,
    column, take)`` builds every other operand, or returns ``None`` for a
    token that starts none; ``take()`` reads the next ``(token, column)``.
    Syntax errors raise ``error(message, column)``, and so does nesting
    deeper than ``MAX_NESTING`` levels.
    """
    tokens = tokenize(text, error)
    i = 0

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def operand(depth):
        tok, pos = take()
        if depth > MAX_NESTING:
            raise error("formula nested too deeply (over %d levels)" % MAX_NESTING, pos)
        if tok in prefix:
            return prefix[tok](operand(depth + 1))
        if tok == "(":
            phi = expression(0, depth + 1)
            tok, pos = take()
            if tok != ")":
                raise error("expected ')', found %s" % _shown(tok), pos)
            return phi
        phi = atom(tok, pos, take)
        if phi is None:
            raise error("unexpected %s" % _shown(tok), pos)
        return phi

    def expression(floor, depth):
        left = operand(depth)
        while True:
            op = binary.get(tokens[i][0])
            if op is None or op[0] < floor:
                return left
            take()
            prec, right_assoc, build = op
            left = build(left, expression(prec if right_assoc else prec + 1,
                                          depth + 1))

    phi = expression(0, 0)
    tok, pos = tokens[i]
    if tok is not None:
        raise error("trailing input %r" % tok, pos)
    return phi


class Node:
    """Immutable syntax node whose fields are its class's ``__slots__``.

    Fields are set once, by position, and neither assigned nor deleted
    afterwards.  Two nodes are equal when their classes and fields are
    equal.  The hash is ``hash(fields)``, taken once when the node is
    built; its children's hashes are stored by then, so neither hashing
    nor comparing trees of any depth recurses.  ``repr`` gives
    ``Class(field=value, ...)`` (see the module docstring for why it
    must stay as it is).  Each subclass gets an ``__init__`` of its own
    arity, at most two fields, a field getter and a precomputed ``repr``
    format.
    """

    __slots__ = ("_hash",)
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        if len(fields) > 2:
            raise TypeError("a syntax node has at most two fields")
        cls._fields = fields
        cls._format = "%s(%s)" % (cls.__qualname__,
                                  ", ".join("%s=%%r" % f for f in fields))
        setters = [getattr(cls, f).__set__ for f in fields]
        if not fields:
            cls._values = staticmethod(lambda node: ())

            def __init__(self):
                _set_hash(self, hash(()))
        elif len(fields) == 1:
            get, (set0,) = attrgetter(fields[0]), setters
            cls._values = staticmethod(lambda node: (get(node),))

            def __init__(self, first):
                set0(self, first)
                _set_hash(self, hash((first,)))
        else:
            cls._values = staticmethod(attrgetter(*fields))
            set0, set1 = setters

            def __init__(self, first, second):
                set0(self, first)
                set1(self, second)
                _set_hash(self, hash((first, second)))
        cls.__init__ = __init__

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign %r: syntax nodes are immutable"
                             % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: syntax nodes are immutable"
                             % name)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal nodes have equal hashes, so most unequal pairs stop here
        if other._hash != self._hash:
            return False
        # the rest compare field by field on a stack, not by recursion
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for x, y in zip(a._values(a), b._values(b)):
                if x is y:
                    continue
                if isinstance(x, Node):
                    if y.__class__ is not x.__class__ or y._hash != x._hash:
                        return False
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._format % self._values(self)


_set_hash = Node._hash.__set__
