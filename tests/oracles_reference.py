"""Parity-game helpers that only the tests use, kept out of the library.

A seeded random parity-game generator, the PGSolver reader that inverts
``reduction.export_pgsolver``, an exact check of positional parity
strategies, and a direct solver for "one colour set infinitely often".
"""

import random

from elgames import games
from elgames.games import Arena, ParityGame, EXISTENTIAL, UNIVERSAL
from elgames.oracles import _attractor_with_strategy

from verify_reference import sccs


def random_parity_game(seed, n, max_priority, density=0.3):
    rng = random.Random(seed) if not isinstance(seed, random.Random) else seed
    owner = [rng.randrange(2) for _ in range(n)]
    succ = []
    for v in range(n):
        targets = {rng.randrange(n)}
        for w in range(n):
            if rng.random() < density:
                targets.add(w)
        succ.append(sorted(targets))
    priority = [rng.randrange(max_priority + 1) for _ in range(n)]
    return ParityGame(Arena(owner, succ), priority)


def import_pgsolver(text):
    """Inverse of :func:`export_pgsolver` (round-trip checks and tooling)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("parity"):
        raise games.GameFormatError("expected 'parity <maxId>;' header", 1)
    entries = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if line.endswith(";"):
            line = line[:-1]
        name = None
        if '"' in line:
            line, name = line.split('"', 1)
            name = name.rstrip('"').strip('"')
        parts = line.split()
        if len(parts) != 4:
            raise games.GameFormatError("expected '<id> <prio> <owner> <succs>'", lineno)
        vid, prio, owner = int(parts[0]), int(parts[1]), int(parts[2])
        succ = [int(x) for x in parts[3].split(",")]
        entries[vid] = (prio, owner, succ, name)
    n = len(entries)
    if sorted(entries) != list(range(n)):
        raise games.GameFormatError("node ids must be consecutive from 0")
    owner = [EXISTENTIAL if entries[v][1] == 0 else UNIVERSAL for v in range(n)]
    succ = [entries[v][2] for v in range(n)]
    priority = [entries[v][0] for v in range(n)]
    return ParityGame(Arena(owner, succ), priority)


def verify_parity_strategy(pg, region, strategy, player):
    """Exact check that the positional strategy wins ``region`` for ``player``.

    In the strategy-fixed subgraph restricted to ``region``, every cycle
    must have its maximal priority of ``player``'s parity.  Checked per
    opposing priority via strongly connected components.
    """
    arena = pg.arena
    succ = []
    ids = [v for v in range(arena.n) if region >> v & 1]
    for v in ids:
        if arena.owner[v] == player:
            if v not in strategy:
                return False
            w = strategy[v]
            if not arena.succ_mask[v] >> w & 1:
                return False
            targets = [w]
        else:
            targets = list(arena.succ[v])
        if any(not region >> w & 1 for w in targets):
            return False
        succ.append(targets)
    pos = {v: i for i, v in enumerate(ids)}
    opposing = (lambda p: p % 2 == 1) if player == EXISTENTIAL else (lambda p: p % 2 == 0)
    for p in sorted({pg.priority[v] for v in ids if opposing(pg.priority[v])}):
        keep = [i for i, v in enumerate(ids) if pg.priority[v] <= p]
        keepset = set(keep)
        sub = {i: [pos[w] for w in succ[i] if pos[w] in keepset] for i in keep}
        for comp in sccs(sub):
            if len(comp) == 1:
                i = next(iter(comp))
                if i not in sub[i]:
                    continue
            if any(pg.priority[ids[i]] == p for i in comp):
                return False
    return True


def solve_buchi_direct(arena, accepting_mask):
    """Nodes from which the existential player forces visiting the
    accepting set infinitely often.  Repeatedly removes the universal
    attractor of the region that cannot reach the accepting set."""
    region = arena.full_mask
    while True:
        reach = _attractor_with_strategy(
            arena, accepting_mask & region, EXISTENTIAL, region, {})
        hopeless = region & ~reach
        if not hopeless:
            return region
        region &= ~_attractor_with_strategy(arena, hopeless, UNIVERSAL, region, {})
        if not region:
            return 0
