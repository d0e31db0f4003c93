"""Mutated strategies for the verifier's negative tests."""

from elgames.strategy import ELStrategy


def with_redirected_move(ex, strategy, v, m, new_w):
    """Copy of ``strategy`` with one move redirected.

    ``ex`` is the game's ``strategy._Extractor``; build it once per game,
    since building it runs the ranked solve.  The memory update for the
    new edge is recomputed with the regular rules, and the strategy is
    then closed over the pairs the redirected pair reaches, so that it
    has moves past the redirect as well.
    """
    move = dict(strategy.move)
    update = dict(strategy.update)
    move[(v, m)] = new_w
    try:
        update[(v, m, new_w)] = ex.descend(new_w, *ex.position(v, m))
    except (KeyError, AssertionError):
        update[(v, m, new_w)] = ex.tree.leaves[0]
    ex.close(move, update, [(v, m)])
    return ELStrategy(ex.game, ex.tree, strategy.win_mask,
                      dict(strategy.initial), move, update)
