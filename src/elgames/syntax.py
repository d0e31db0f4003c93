"""Tokens and one precedence parser for the objective and LTL syntaxes.

Both languages share identifiers, parentheses, ``!``, ``&``, ``|`` and
``->``; each is a grammar table over :func:`parse`, a precedence-climbing
parser (Pratt, "Top Down Operator Precedence", POPL 1973).
"""

import re

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
