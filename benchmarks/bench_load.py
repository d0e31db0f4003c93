"""Benchmark of game loading, ``games.load_game``.

The workload is the 600 base games of the end-to-end
``explicit-shallow`` workload, drawn the same way from seed 5 (30 to 90
nodes, 3 colours, edge density 0.08, objectives cycling through Büchi,
generalized Büchi, one Rabin pair, one Streett pair and a random
formula of depth 3) but not relabelled.  Each game is loaded from two
texts: the form ``games.save_game`` writes, one ``edge <src> <dst>
[<dst>...]`` line per node, and a one-edge-per-line form that this
script writes from it, as older files are.  Both must load to the same
arenas and objectives, whose SHA-256 is pinned, and the line and byte
counts of both forms are pinned, so a faster loader must read the same
texts into the same games.  The time is that of loading all 600 texts
of one form.  The loaded games carry few distinct objectives, which is
the traffic ``fixpoint.compile_objective`` serves: the number of
distinct (objective, colour table) keys among them is pinned, and so
are the cache's misses and hits over one ``solve_game`` of each game
from an empty cache.  Run as a script; pass --repeat to stabilize
numbers.

    python benchmarks/bench_load.py
"""

import argparse
import hashlib
import random
import time

from elgames import el, fixpoint, games

BASE_SEED = 5
COUNT = 600
NODES = (30, 90)
COLORS = 3
DENSITY = 0.08

FAMILIES = [
    lambda rng, t: el.buchi(t, "a"),
    lambda rng, t: el.generalized_buchi(t, ["a", "b", "c"]),
    lambda rng, t: el.rabin(t, [("a", "b")]),
    lambda rng, t: el.streett(t, [("a", "b")]),
    lambda rng, t: el.random_formula(rng, t, 3),
]

# (lines, bytes) of all texts of a form, and the games' digest prefix
WANT_SAVED = (72990, 1362007)
WANT_ONE_EDGE = (254747, 2787960)
WANT_DIGEST = "7c609d217bfe"
# distinct (objective, table) keys of the loaded games, and the misses
# and hits of compile_objective over one solve of each from empty
WANT_KEYS = 93
WANT_TRAFFIC = (93, 507)


def base_games():
    rng = random.Random(BASE_SEED)
    out = []
    for i in range(COUNT):
        n = rng.randint(*NODES)
        out.append(games.random_game(rng.randrange(1 << 30), n, COLORS,
                                     density=DENSITY,
                                     objective_factory=FAMILIES[i % len(FAMILIES)]))
    return out


def one_edge_per_line(text):
    """``text`` with every ``edge`` line split into one line per edge."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "edge":
            out += ["edge %s %s" % (parts[1], w) for w in parts[2:]]
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def size(texts):
    return (sum(text.count("\n") for text in texts),
            sum(len(text.encode()) for text in texts))


def digest(loaded):
    """SHA-256 of every game's owners, successor lists, colour masks and
    objective text."""
    h = hashlib.sha256()
    for game in loaded:
        arena = game.arena
        h.update(repr((arena.owner, arena.succ, arena.colors,
                       el.format_formula(game.objective, game.table))).encode())
    return h.hexdigest()


def best_load(texts, repeat):
    """The games of the last of ``repeat`` loads and the best time."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        loaded = [games.load_game(text) for text in texts]
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return loaded, best


def run(repeat):
    drawn = base_games()
    saved = [games.save_game(game) for game in drawn]
    one_edge = [one_edge_per_line(text) for text in saved]
    got = (size(saved), size(one_edge))
    assert got == (WANT_SAVED, WANT_ONE_EDGE), \
        "(lines, bytes) %r, expected %r" % (got, (WANT_SAVED, WANT_ONE_EDGE))
    want = digest(drawn)[:12]
    assert want == WANT_DIGEST, "drawn games digest %s, expected %s" % (
        want, WANT_DIGEST)
    print("%-14s %8s %9s %9s %10s" % ("form", "lines", "bytes", "best", "per game"))
    for name, texts in (("saved", saved), ("one-edge", one_edge)):
        loaded, best = best_load(texts, repeat)
        got = digest(loaded)[:12]
        assert got == WANT_DIGEST, "%s form loaded digest %s, expected %s" % (
            name, got, WANT_DIGEST)
        lines, nbytes = size(texts)
        print("%-14s %8d %9d %8.4fs %8.1fus" % (
            name, lines, nbytes, best, best / len(texts) * 1e6))
    keys = len({(game.objective, game.table) for game in loaded})
    assert keys == WANT_KEYS, "%d distinct objective keys, expected %d" % (
        keys, WANT_KEYS)
    fixpoint.compile_objective.cache_clear()
    for game in loaded:
        fixpoint.solve_game(game)
    info = fixpoint.compile_objective.cache_info()
    got = (info.misses, info.hits)
    assert got == WANT_TRAFFIC, \
        "compile_objective (misses, hits) %r, expected %r" % (got, WANT_TRAFFIC)
    print("%d distinct objective keys; compile_objective misses %d, hits %d"
          % ((keys,) + got))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
