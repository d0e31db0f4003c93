"""Mutated strategies for the verifier's negative tests."""

from elgames.strategy import ELStrategy, _Extractor


def with_redirected_move(game, tree, result, strategy, v, m, new_w):
    """Copy of ``strategy`` with one move redirected.

    The memory update for the new edge is recomputed with the regular
    rules, and the strategy is then closed over the pairs the redirected
    pair reaches, so that it has moves past the redirect as well.
    """
    ex = _Extractor(game, tree, result)
    move = dict(strategy.move)
    update = dict(strategy.update)
    move[(v, m)] = new_w
    try:
        update[(v, m, new_w)] = ex.descend(new_w, *ex.position(v, m))
    except (KeyError, AssertionError):
        update[(v, m, new_w)] = tree.min_leaf
    ex.close(move, update, [(v, m)])
    return ELStrategy(game, tree, strategy.win_mask, dict(strategy.initial),
                      move, update)
