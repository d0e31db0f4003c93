"""Explicit game arenas, Emerson-Lei and parity games.

Arenas are total (every node has a successor) directed graphs whose
nodes are owned by the existential or the universal player.  Node sets
are plain integer bit masks.  The one-step controllable predecessor
runs over owner-split successor tables, ``(node bit, successor mask)``
pairs for one player's nodes and for the opponent's, so each node costs
one AND and one test.  A solve builds the tables once (``owner_split``)
and drops them with its backend; arenas do not keep them.

The module also provides the line-oriented game file format and a
seeded random generator used by the regression corpus.
"""

import random

from . import el

EXISTENTIAL = 0
UNIVERSAL = 1


class GameError(ValueError):
    """Invalid arena or game data."""


class GameFormatError(GameError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Arena:
    """Total game graph with per-node owner and color set."""

    def __init__(self, owner, succ, colors=None):
        self.n = len(owner)
        self.owner = tuple(owner)
        self.succ = tuple(tuple(s) for s in succ)
        self.colors = tuple(colors) if colors is not None else (0,) * self.n
        if len(self.succ) != self.n or len(self.colors) != self.n:
            raise GameError("owner/succ/colors lengths disagree")
        succ_mask = []
        for v, targets in enumerate(self.succ):
            if not targets:
                raise GameError("node %d has no successor (arena must be total)" % v)
            if len(set(targets)) != len(targets):
                raise GameError("duplicate edges out of node %d" % v)
            m = 0
            for w in targets:
                if not 0 <= w < self.n:
                    raise GameError("edge %d -> %d out of range" % (v, w))
                m |= 1 << w
            succ_mask.append(m)
        self.succ_mask = tuple(succ_mask)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def edges(self):
        for v, targets in enumerate(self.succ):
            for w in targets:
                yield v, w


def iter_nodes(mask):
    """Node ids set in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def owner_split(arena):
    """``(node bit, successor mask)`` pairs of the existential nodes and
    of the universal ones, in node order: the tables :func:`cpre` runs
    over."""
    mine = []
    theirs = []
    bit = 1
    for owner, m in zip(arena.owner, arena.succ_mask):
        (mine if owner == EXISTENTIAL else theirs).append((bit, m))
        bit <<= 1
    return tuple(mine), tuple(theirs)


def cpre(split, target):
    """Nodes from which the existential player (see :func:`owner_split`)
    forces the next node into ``target``: its own nodes with a successor
    in ``target`` and the opponent's nodes with every successor in it."""
    mine, theirs = split
    out = 0
    for bit, m in mine:
        if m & target:
            out |= bit
    for bit, m in theirs:
        if m & target == m:
            out |= bit
    return out


class ELGame:
    def __init__(self, arena, table, objective):
        el.check_colors(objective, table)
        for v in range(arena.n):
            if arena.colors[v] & ~table.full_mask:
                raise GameError("node %d colored outside the table" % v)
        self.arena = arena
        self.table = table
        self.objective = objective


class ParityGame:
    """Max-priority-even winning convention."""

    def __init__(self, arena, priority):
        self.arena = arena
        self.priority = tuple(priority)
        if len(self.priority) != arena.n:
            raise GameError("priority list length disagrees with arena")
        if any(p < 0 for p in self.priority):
            raise GameError("priorities must be nonnegative")


def dual_game(game):
    """Swap ownership and negate the objective; winners exactly swap."""
    arena = game.arena
    flipped = Arena(
        [1 - o for o in arena.owner], arena.succ, arena.colors)
    return ELGame(flipped, game.table, el.Not(game.objective))


# ---------------------------------------------------------------------------
# Text format.


def save_game(game):
    arena = game.arena
    lines = ["elgame 1"]
    lines.append("colors %s" % " ".join(game.table.names))
    for v in range(arena.n):
        owner = "E" if arena.owner[v] == EXISTENTIAL else "A"
        names = game.table.names_of(arena.colors[v])
        lines.append(("node %d %s %s" % (v, owner, " ".join(names))).rstrip())
    for v, w in arena.edges():
        lines.append("edge %d %d" % (v, w))
    lines.append("objective %s" % el.format_formula(game.objective, game.table))
    return "\n".join(lines) + "\n"


def load_game(text):
    table = None
    nodes = {}
    edges = []
    objective_src = None
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not header_seen:
            if parts != ["elgame", "1"]:
                raise GameFormatError("expected header 'elgame 1'", lineno)
            header_seen = True
            continue
        kind = parts[0]
        if kind == "colors":
            if table is not None:
                raise GameFormatError("duplicate colors line", lineno)
            try:
                table = el.ColorTable(parts[1:])
            except el.ELError as exc:
                raise GameFormatError(str(exc), lineno) from exc
        elif kind == "node":
            if table is None:
                raise GameFormatError("node before colors line", lineno)
            if len(parts) < 3 or parts[2] not in ("E", "A"):
                raise GameFormatError("expected 'node <id> <E|A> [color...]'", lineno)
            try:
                vid = int(parts[1])
                mask = table.mask(*parts[3:])
            except (ValueError, el.ELError) as exc:
                raise GameFormatError(str(exc), lineno) from exc
            if vid in nodes:
                raise GameFormatError("duplicate node %d" % vid, lineno)
            nodes[vid] = (EXISTENTIAL if parts[2] == "E" else UNIVERSAL, mask)
        elif kind == "edge":
            if len(parts) != 3:
                raise GameFormatError("expected 'edge <src> <dst>'", lineno)
            try:
                edges.append((int(parts[1]), int(parts[2]), lineno))
            except ValueError as exc:
                raise GameFormatError(str(exc), lineno) from exc
        elif kind == "objective":
            if objective_src is not None:
                raise GameFormatError("duplicate objective line", lineno)
            objective_src = (line[len("objective"):].strip(), lineno)
        else:
            raise GameFormatError("unknown directive %r" % kind, lineno)
    if table is None:
        raise GameFormatError("missing colors line")
    if objective_src is None:
        raise GameFormatError("missing objective line")
    n = len(nodes)
    if sorted(nodes) != list(range(n)):
        raise GameFormatError("node ids must be consecutive from 0")
    succ = [[] for _ in range(n)]
    for src, dst, lineno in edges:
        if not 0 <= src < n or not 0 <= dst < n:
            raise GameFormatError("edge %d -> %d out of range" % (src, dst), lineno)
        if dst not in succ[src]:
            succ[src].append(dst)
    owner = [nodes[v][0] for v in range(n)]
    colors = [nodes[v][1] for v in range(n)]
    try:
        arena = Arena(owner, succ, colors)
    except GameError as exc:
        raise GameFormatError(str(exc)) from exc
    src, lineno = objective_src
    try:
        objective = el.parse_formula(src, table)
    except el.ELError as exc:
        raise GameFormatError(str(exc), lineno) from exc
    return ELGame(arena, table, objective)


# ---------------------------------------------------------------------------
# Seeded random instances.

_COLOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


def random_game(seed, n, num_colors, density=0.3, formula_depth=3,
                objective_factory=None):
    """Deterministic random total game; the objective comes from
    ``objective_factory(rng, table)`` when given, else from the bounded
    random generator."""
    rng = random.Random(seed) if not isinstance(seed, random.Random) else seed
    table = el.ColorTable(_COLOR_NAMES[:num_colors])
    owner = [rng.randrange(2) for _ in range(n)]
    colors = []
    for _ in range(n):
        mask = 0
        for cid in range(num_colors):
            if rng.random() < 0.4:
                mask |= 1 << cid
        colors.append(mask)
    succ = []
    for v in range(n):
        targets = {rng.randrange(n)}
        for w in range(n):
            if rng.random() < density:
                targets.add(w)
        succ.append(sorted(targets))
    if objective_factory is not None:
        objective = objective_factory(rng, table)
    else:
        objective = el.random_formula(rng, table, formula_depth)
    return ELGame(Arena(owner, succ, colors), table, objective)


def format_arena_dot(game, win_mask=None):
    """GraphViz rendering of an explicit game (diamond = universal)."""
    arena = game.arena
    lines = ["digraph arena {"]
    for v in range(arena.n):
        shape = "box" if arena.owner[v] == EXISTENTIAL else "diamond"
        label = "%d %s" % (v, game.table.format_mask(arena.colors[v]))
        style = ' style=filled fillcolor="palegreen"' \
            if win_mask is not None and win_mask >> v & 1 else ""
        lines.append('  n%d [shape=%s label="%s"%s];' % (v, shape, label, style))
    for v, w in arena.edges():
        lines.append("  n%d -> n%d;" % (v, w))
    lines.append("}")
    return "\n".join(lines) + "\n"
