"""Benchmark of strategy extraction's ranked solve, ``strategy.ranked_solve``.

Each workload solves its game once for the verdict sets, then times
``ranked_solve`` (the engine run with entry-rank signature maps as
values) from those sets on a set backend of its own
(``fixpoint.ExplicitBackend``) and on the tree's equation system, built
once outside the timer, as the verdict's is; its rings read as ``{vertex: {node:
signature}}`` maps.  A counting run reports the engine's Kleene stages
(``stages``) and its runs warm-started from a stored run's rings
(``warm``), how many ancestor terms it asked the rank backend for
(``term``) and how many distinct targets the backend's ``games.cpre``
calls read (``cpre``); all four counts are pinned.  A second row runs
the ranked solve as ``strategy.extract`` does, on the verdict solve's
own set backend, and reports how many ``games.cpre`` targets it asks
that the verdict did not (``new``, pinned) and its time (``shared``).
The workloads are the three 60-node games of the end-to-end
``explicit-deep`` workload at its base seed (Streett k=3,
parity over 8 colours, even-cardinality Muller over 4 colours;
``random_game(5, 60, k, density=0.15)``), the 121-node explicit
expansion of a two-client arbiter with a bounded response, and the
96-node winning sub-arena of the four-client arbiter that its
controller is read from.  Each run's maps are checked against a pinned
checksum.  Run as a script; pass --repeat to stabilize numbers.

    python benchmarks/bench_ranked.py
"""
import argparse
import time

from elgames import el, fixpoint, games, strategy
from elgames import synthesis as syn
from elgames.zielonka import ZielonkaTree

from specs import arbiter

CHECKSUM_MODULUS = (1 << 61) - 1


def deep_game(k, objective):
    return games.random_game(5, 60, k, density=0.15,
                             objective_factory=lambda rng, table: objective(table))


def streett_n60():
    return deep_game(6, lambda t: el.streett(t, [("a", "b"), ("c", "d"), ("e", "f")]))


def parity_n60():
    return deep_game(8, lambda t: el.parity(t, list("abcdefgh")))


def muller_n60():
    return deep_game(4, el.even_cardinality_muller)


def arb2_resp2_expansion():
    game = syn.build_game(syn.problem_from_strings(
        *arbiter(2, " & G(r0 -> X g0 | X X g0)")))
    return syn.expand_explicit(game).elgame


def arb4_sub_arena():
    """The winning sub-arena of the four-client arbiter, expanded from
    its symbolic winning region (``synthesis.extract_controller``)."""
    game = syn.build_game(syn.problem_from_strings(*arbiter(4)))
    return syn.expand_explicit(game, game.solution[0]).elgame


class CountingBackend(strategy.RankBackend):
    """Rank backend that counts ``term`` requests."""

    def __init__(self, *args):
        super().__init__(*args)
        self.terms = 0

    def term(self, s, term, src):
        self.terms += 1
        return super().term(s, term, src)


def counted_solve(game, system, values):
    """``ranked_solve`` on a set backend of its own, through a counting
    rank backend; returns the maps, the engine's stages and warm starts,
    the ``term`` count and the number of distinct ``games.cpre``
    targets."""
    backends = []
    results = []
    targets = set()

    def make(*args):
        backends.append(CountingBackend(*args))
        return backends[-1]

    def solve(*args, **kwargs):
        results.append(plain_solve(*args, **kwargs))
        return results[-1]

    def cpre(split, target):
        targets.add(target)
        return plain_cpre(split, target)

    plain = (strategy.RankBackend, fixpoint.solve, games.cpre)
    plain_solve, plain_cpre = plain[1:]
    strategy.RankBackend, fixpoint.solve, games.cpre = make, solve, cpre
    try:
        maps = as_maps(strategy.ranked_solve(
            fixpoint.ExplicitBackend(game), system, values))
    finally:
        strategy.RankBackend, fixpoint.solve, games.cpre = plain
    result, = results
    return (maps, result.iterations, sum(result.warm_starts.values()),
            backends[0].terms, len(targets))


def as_maps(rings):
    """Rings as ``{vertex: {node: signature}}`` maps: each mask holds
    the nodes whose signature is at most its own, so the lowest
    signature wins."""
    return {s: {v: sig for sig, mask in reversed(r)
                for v in games.iter_nodes(mask)}
            for s, r in rings.items()}


def shared_solve(game, result):
    """The extractor's ranked solve on the verdict's backend; returns the
    maps and the number of ``games.cpre`` targets the verdict had not
    asked (the backend's memo answers the others without a call)."""
    targets = set()

    def cpre(split, target):
        targets.add(target)
        return plain_cpre(split, target)

    plain_cpre = games.cpre
    games.cpre = cpre
    try:
        rings = strategy.ranked_solve(result.backend, result.system,
                                      result.values)
    finally:
        games.cpre = plain_cpre
    return as_maps(rings), len(targets)


def checksum(maps):
    acc = len(maps)
    for s in sorted(maps):
        for v, sig in sorted(maps[s].items()):
            for x in (s, v, len(sig), *sig):
                acc = (acc * 1000003 + x) % CHECKSUM_MODULUS
    return acc


# name, game, stages, warm starts, term requests, distinct cpre targets,
# cpre targets new to the verdict's backend, checksum of the maps
WORKLOADS = [
    ("streett k=3, n=60", streett_n60, 416, 150, 448, 12, 0,
     703282992019209369),
    ("parity c=8, n=60", parity_n60, 114, 45, 110, 4, 0, 1737994696147291185),
    ("even Muller c=4, n=60", muller_n60, 479, 72, 612, 36, 0,
     941050132391191298),
    ("arb2-resp2 expansion, n=121", arb2_resp2_expansion, 91, 16, 95, 11, 0,
     316887415309540599),
    ("arb4 winning sub-arena, n=96", arb4_sub_arena, 3757, 1824, 4320, 65, 0,
     1200085238005888728),
]


def run(repeat):
    print("%-30s %6s %6s %6s %6s %10s %6s %10s" % (
        "workload", "stages", "warm", "terms", "cpre", "best", "new", "shared"))
    for (name, make, want_stages, want_warm, want_terms, want_targets, want_new,
         expected) in WORKLOADS:
        game = make()
        tree = ZielonkaTree(game.objective, game.table)
        system = fixpoint.build_equations(tree)
        values = fixpoint.solve_game(game, tree)[2].values
        maps, stages, warm, terms, targets = counted_solve(game, system, values)
        counts = (stages, warm, terms, targets)
        want = (want_stages, want_warm, want_terms, want_targets)
        assert counts == want, (
            "%s: stages, warm starts, terms and cpre targets %r, expected %r"
            % (name, counts, want))
        maps, new = shared_solve(game, fixpoint.solve_game(game, tree)[2])
        assert new == want_new, (
            "%s asked %d cpre targets new to the verdict, expected %d" % (
                name, new, want_new))
        assert checksum(maps) == expected, "%s on the verdict's backend" % name
        best = shared = None
        for _ in range(repeat):
            start = time.perf_counter()
            maps = as_maps(strategy.ranked_solve(
                fixpoint.ExplicitBackend(game), system, values))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            result = checksum(maps)
            assert result == expected, "%s gave checksum %r, expected %r" % (
                name, result, expected)
            verdict = fixpoint.solve_game(game, tree)[2]
            start = time.perf_counter()
            strategy.ranked_solve(verdict.backend, verdict.system,
                                  verdict.values)
            elapsed = time.perf_counter() - start
            shared = elapsed if shared is None else min(shared, elapsed)
        print("%-30s %6d %6d %6d %6d %9.4fs %6d %9.4fs" % (
            name, stages, warm, terms, targets, best, new, shared))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=10,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
