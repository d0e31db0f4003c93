"""Reference semantics of objectives, kept out of the library.

``evaluate`` reads a formula directly on one color set.  The library
evaluates objectives only through ``el.truth_table``; this recursive
reading is the independent oracle the tests compare it against.
"""

from elgames.el import And, FalseFormula, Inf, Not, Or, TrueFormula


def evaluate(phi, mask):
    """Truth of ``phi`` on the color set ``mask`` (``Inf c`` iff c in mask)."""
    if isinstance(phi, TrueFormula):
        return True
    if isinstance(phi, FalseFormula):
        return False
    if isinstance(phi, Inf):
        return bool(mask >> phi.color & 1)
    if isinstance(phi, Not):
        return not evaluate(phi.arg, mask)
    if isinstance(phi, And):
        return evaluate(phi.left, mask) and evaluate(phi.right, mask)
    if isinstance(phi, Or):
        return evaluate(phi.left, mask) or evaluate(phi.right, mask)
    raise TypeError("not an objective node: %r" % (phi,))
