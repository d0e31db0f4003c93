"""Reduction from Emerson-Lei games to parity games over the Zielonka tree.

The parity game is played over pairs (game node, tree vertex).  At an
internal tree vertex the play descends one tree level, with branching
owned by the player that loses at that vertex; at a leaf a regular game
move is taken and the tree component jumps to the anchor of the moved
node.  Priorities read off the vertex level, even at winning vertices.
Winners of a game node are read off its pair with the tree root.
"""

from . import games
from .games import Arena, ParityGame, EXISTENTIAL, UNIVERSAL


class ReducedParityGame:
    """Parity game plus maps between product pairs and dense node ids."""

    def __init__(self, parity_game, pairs, index, tree):
        self.parity_game = parity_game
        self.pairs = pairs
        self.index = index
        self.tree = tree

    def root_node(self, v):
        return self.index[(v, self.tree.root)]


def reduce_to_parity(game, tree):
    """Product parity game, pruned to pairs reachable from (v, root)."""
    if tree.table != game.table or tree.formula != game.objective:
        raise games.GameError("tree was not built from this game's objective")
    arena = game.arena
    n = arena.n

    def moves(v, t):
        if not tree.is_leaf(t):
            return [(v, c) for c in tree.children[t]]
        anchor = tree.anchor(t, arena.colors[v])
        return [(w, anchor) for w in arena.succ[v]]

    index = {}
    pairs = []
    queue = []
    for v in range(n):
        pair = (v, tree.root)
        index[pair] = len(pairs)
        pairs.append(pair)
        queue.append(pair)
    succ = []
    while queue:
        v, t = queue.pop(0)
        targets = []
        for pair in moves(v, t):
            if pair not in index:
                index[pair] = len(pairs)
                pairs.append(pair)
                queue.append(pair)
            targets.append(index[pair])
        succ.append(targets)

    owner = []
    priority = []
    for v, t in pairs:
        if tree.is_leaf(t):
            owner.append(arena.owner[v])
        else:
            owner.append(EXISTENTIAL if not tree.winning[t] else UNIVERSAL)
        base = 2 * tree.level[t]
        priority.append(base if tree.winning[t] else base + 1)

    pg = ParityGame(Arena(owner, succ), priority)
    return ReducedParityGame(pg, tuple(pairs), index, tree)


def product_size_unpruned(game, tree):
    return game.arena.n * len(tree)


def export_pgsolver(pg, names=None):
    """PGSolver text; owner 0 is the existential (max-even) player."""
    arena = pg.arena
    lines = ["parity %d;" % (arena.n - 1)]
    for v in range(arena.n):
        succ = ",".join(str(w) for w in arena.succ[v])
        name = names[v] if names is not None else "n%d" % v
        lines.append('%d %d %d %s "%s";' % (
            v, pg.priority[v], 0 if arena.owner[v] == EXISTENTIAL else 1,
            succ, name))
    return "\n".join(lines) + "\n"


def format_product_dot(reduced):
    pg = reduced.parity_game
    arena = pg.arena
    lines = ["digraph product {"]
    for i, (v, t) in enumerate(reduced.pairs):
        shape = "box" if arena.owner[i] == EXISTENTIAL else "diamond"
        lines.append('  n%d [shape=%s label="(%d,%d) p%d"];' % (
            i, shape, v, t, pg.priority[i]))
    for i in range(arena.n):
        for j in arena.succ[i]:
            lines.append("  n%d -> n%d;" % (i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"
