"""Independent reference solvers used for cross-checking.

The parity solver is the classical attractor-based recursive algorithm,
implemented from its textbook description and sharing no code with the
fixpoint solver.  On top of it sits the reduction-based Emerson-Lei
solver.  These are correctness anchors; no attempt is made to be fast.
"""

from .games import EXISTENTIAL, UNIVERSAL
from .reduction import reduce_to_parity


def _attractor_with_strategy(arena, target, player, region, strategy):
    """Attractor of ``target`` for ``player`` inside ``region``.

    Records one-step choices for ``player``-owned attracted nodes into
    ``strategy`` (nodes inside ``target`` are left untouched).
    """
    attr = target & region
    changed = True
    while changed:
        changed = False
        for v in range(arena.n):
            bit = 1 << v
            if not region & bit or attr & bit:
                continue
            succ_in_region = arena.succ_mask[v] & region
            if arena.owner[v] == player:
                step = succ_in_region & attr
                if step:
                    attr |= bit
                    strategy[v] = _lowest_bit(step)
                    changed = True
            elif succ_in_region and not succ_in_region & ~attr:
                attr |= bit
                changed = True
    return attr


def _lowest_bit(mask):
    return (mask & -mask).bit_length() - 1


def solve_parity_recursive(pg):
    """Winning partition and positional strategies, recursively.

    Returns ``(w_exist, w_univ, strat_exist, strat_univ)`` where the
    strategy dicts map owned nodes in the respective region to a chosen
    successor.
    """
    arena = pg.arena
    strat = ({}, {})

    def rec(region):
        if not region:
            return 0, 0
        top = max(pg.priority[v] for v in range(arena.n) if region >> v & 1)
        player = EXISTENTIAL if top % 2 == 0 else UNIVERSAL
        target = 0
        for v in range(arena.n):
            if region >> v & 1 and pg.priority[v] == top:
                target |= 1 << v
        attr_strategy = {}
        attr = _attractor_with_strategy(arena, target, player, region, attr_strategy)
        sub = rec(region & ~attr)
        w_opponent = sub[1 - player]
        if not w_opponent:
            # Player keeps the whole region: attractor moves towards the
            # top-priority nodes, which themselves stay inside the region.
            merged = dict(attr_strategy)
            for v in range(arena.n):
                bit = 1 << v
                if target & bit and arena.owner[v] == player:
                    merged[v] = _lowest_bit(arena.succ_mask[v] & region)
            strat[player].update(merged)
            return (region, 0) if player == EXISTENTIAL else (0, region)
        opp = 1 - player
        opp_strategy = {}
        opp_attr = _attractor_with_strategy(
            arena, w_opponent, opp, region, opp_strategy)
        strat[opp].update(opp_strategy)
        rest = rec(region & ~opp_attr)
        if player == EXISTENTIAL:
            return rest[0], rest[1] | opp_attr
        return rest[0] | opp_attr, rest[1]

    w0, w1 = rec(arena.full_mask)
    return w0, w1, strat[0], strat[1]


def solve_el_via_reduction(game, tree=None):
    """Winning set through the parity reduction and the recursive solver."""
    from .zielonka import ZielonkaTree
    if tree is None:
        tree = ZielonkaTree(game.objective, game.table)
    reduced = reduce_to_parity(game, tree)
    w0, _, _, _ = solve_parity_recursive(reduced.parity_game)
    out = 0
    for v in range(game.arena.n):
        if w0 >> reduced.root_node(v) & 1:
            out |= 1 << v
    return out
