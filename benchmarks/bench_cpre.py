"""Benchmark of the explicit controllable predecessor, ``games.cpre``.

Each workload records the targets one ``fixpoint.solve`` asks
``games.cpre`` for (each distinct: the solve memoizes by target), then
times a replay of those calls on fresh owner-split tables, table build
included, as a solve pays it.  The recording solve does not warm-start
(its backend's ``subset`` never holds): every variable restarts from
bottom or top, so the target list stays that of the plain nested
iteration.  The workloads are a 60-node Streett game
(``random_game(5, 60, 6, density=0.15)``, k=3) and the 121-node
explicit expansion of a two-client arbiter with a bounded response.  Each run's results are
checked against a pinned checksum.  Run as a script; pass --repeat to stabilize numbers.

    python benchmarks/bench_cpre.py
"""

import argparse
import time

from elgames import el, fixpoint, games
from elgames import synthesis as syn
from elgames.zielonka import ZielonkaTree

CHECKSUM_MODULUS = (1 << 61) - 1


def streett_n60():
    return games.random_game(
        5, 60, 6, density=0.15,
        objective_factory=lambda rng, table: el.streett(
            table, [("a", "b"), ("c", "d"), ("e", "f")]))


def arb2_resp2_expansion():
    game = syn.build_game(syn.problem_from_strings(
        "G(!(g0 & g1)) & G(r0 -> X g0 | X X g0)",
        "(G F r0 -> G F g0) & (G F r1 -> G F g1)", ["r0", "r1"], ["g0", "g1"]))
    return syn.expand_explicit(game).elgame


class ColdBackend(fixpoint.ExplicitBackend):
    """Explicit backend whose order never holds: the solve never
    warm-starts."""

    def subset(self, a, b):
        return False


def solve_targets(game):
    """Targets of the ``games.cpre`` calls of one cold solve, in order."""
    targets = []
    cpre = games.cpre

    def recording(split, target):
        targets.append(target)
        return cpre(split, target)

    games.cpre = recording
    try:
        tree = ZielonkaTree(game.objective, game.table)
        fixpoint.solve(fixpoint.build_equations(tree), ColdBackend(game),
                       max_stages=game.arena.n + 1)
    finally:
        games.cpre = cpre
    return targets


def replay(arena, targets):
    split = games.owner_split(arena)
    return [games.cpre(split, target) for target in targets]


def checksum(results):
    acc = len(results)
    for r in results:
        acc = (acc * 1000003 + r) % CHECKSUM_MODULUS
    return acc


WORKLOADS = [
    ("streett k=3, n=60", streett_n60, 185, 1508595977581080018),
    ("arb2-resp2 expansion, n=121", arb2_resp2_expansion, 54,
     550971882683127906),
]


def run(repeat):
    print("%-30s %6s %12s" % ("workload", "calls", "best"))
    for name, make, calls, expected in WORKLOADS:
        game = make()
        targets = solve_targets(game)
        assert len(targets) == calls, "%s asked %d targets, expected %d" % (
            name, len(targets), calls)
        best = None
        for _ in range(repeat):
            start = time.perf_counter()
            results = replay(game.arena, targets)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            result = checksum(results)
            assert result == expected, "%s gave checksum %r, expected %r" % (
                name, result, expected)
        print("%-30s %6d %10.4fs" % (name, calls, best))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
