"""Benchmark of the symbolic fixpoint solve, ``synthesis.solve_symbolic``.

Each workload builds the symbolic game of one synthesis specification
and times ``solve_symbolic`` on it: the nested Kleene iteration of
``fixpoint.solve`` over the diagram core's node handles, with its
per-vertex memo (a leaf's inputs or an internal vertex's ancestor
``cpre`` images), warm starts and memoized ``symbolic_cpre``.  Every run
starts from a freshly built game, so no diagram memo is shared between
runs.  The
specifications are those of the end-to-end ``synth-arbiter`` workload
(the README example; the two-client arbiter alone, with a bounded
response and with next-step grants; the three-client arbiter), four
arbiters whose every client has a bounded response, which give the
safety automaton 27, 16, 25 and 64 states (two clients granted within
three steps and three clients within three steps are realizable,
three clients within two steps and four clients within two steps are
not), and the four- and five-client arbiters.  One manager per game
declares the letters first and the subset variables after them, and
the game is built from the tableau on, so the build of the two largest
automata (about 3 s each, untimed) dominates the script's run.  Each
run's Kleene stages, warm-started runs, runs answered from the memo
(leaf and subtree hits), distinct ``symbolic_cpre`` targets, the number
of assignments of every declared variable (the letter and subset
variables) in the winning region and the diagram core's node count
after the run are pinned; node counts do not depend on the hash
seed.  The core's memo entries (all of its memos, which live as long
as the game's manager) after the last run are printed, not pinned, so
the memory the memos keep shows.  Run as a script; pass --repeat to
stabilize numbers.

    python benchmarks/bench_symbolic.py
"""

import argparse
import time

from elgames import synthesis as syn


def arbiter(n, extra=""):
    """Mutual exclusion of grants (plus ``extra``) and GF r_i -> GF g_i
    for every client."""
    mutex = " & ".join("!(g%d & g%d)" % (i, j)
                       for i in range(n) for j in range(i + 1, n))
    safety = "G(%s)" % mutex + extra
    liveness = " & ".join("(G F r%d -> G F g%d)" % (i, i) for i in range(n))
    return (safety, liveness, ["r%d" % i for i in range(n)],
            ["g%d" % i for i in range(n)])


def response(n, within):
    """Every client's request granted within ``within`` steps:
    ``G(r_i -> X g_i | X X g_i | ...)``."""
    return "".join(" & G(r%d -> %s)" % (i, " | ".join(
        "X " * k + "g%d" % i for k in range(1, within + 1)))
        for i in range(n))


README = ("G(b|c) & G(a -> b | X X b)",
          "(G F a -> G F b) & ((F G !a | F G !(b&c)) & G F c)", ["a"], ["b", "c"])

# name, specification, stages, warm starts, memo hits, cpre targets,
# satcount, DD nodes
WORKLOADS = [
    ("readme", README, 67, 13, 14, 16, 84, 115),
    ("arb2", arbiter(2), 85, 16, 28, 12, 12, 84),
    ("arb2-resp2", arbiter(2, " & G(r0 -> X g0 | X X g0)"),
     126, 24, 31, 31, 156, 208),
    ("arb2-next01", arbiter(2, " & G(r0 -> X g0) & G(r1 -> X g1)"),
     111, 20, 24, 27, 0, 210),
    ("arb3", arbiter(3), 561, 156, 201, 55, 32, 484),
    ("arb2-resp3", arbiter(2, response(2, 3)),
     219, 46, 42, 62, 1609560064, 3303),
    ("arb3-resp2", arbiter(3, response(3, 2)), 663, 162, 186, 120, 0, 2351),
    ("arb4-resp2", arbiter(4, response(4, 2)),
     4483, 1304, 1460, 647, 0, 11058),
    ("arb3-resp3", arbiter(3, response(3, 3)),
     1836, 552, 468, 379, 590290742778332708864, 31273),
    ("arb4", arbiter(4), 3979, 1316, 1524, 312, 80, 3070),
    ("arb5", arbiter(5), 31163, 11350, 12515, 2049, 192, 22734),
]


def solve_counting(game):
    """``solve_symbolic`` of a game, timed, with its distinct
    ``symbolic_cpre`` targets."""
    targets = set()
    cpre = syn.symbolic_cpre

    def recording(game, target):
        targets.add(target.handle)
        return cpre(game, target)

    syn.symbolic_cpre = recording
    try:
        start = time.perf_counter()
        win, _, result = syn.solve_symbolic(game)
        elapsed = time.perf_counter() - start
    finally:
        syn.symbolic_cpre = cpre
    return elapsed, win, result, len(targets)


def run(repeat):
    print("%-12s %7s %6s %6s %7s %21s %10s %7s %8s" % (
        "spec", "stages", "warm", "hits", "targets", "satcount", "best",
        "nodes", "memo"))
    for name, spec, stages, warm, hits, targets, satcount, nodes in WORKLOADS:
        problem = syn.problem_from_strings(*spec)
        best = None
        for _ in range(repeat):
            game = syn.build_game(problem)
            elapsed, win, result, asked = solve_counting(game)
            best = elapsed if best is None else min(best, elapsed)
            m = game.manager
            got = (result.iterations, sum(result.warm_starts.values()),
                   sum(result.memo_hits.values()), asked,
                   m.core.satcount(win.handle, range(len(m.names))),
                   m.core.node_count())
            want = (stages, warm, hits, targets, satcount, nodes)
            assert got == want, "%s gave (stages, warm starts, memo hits, " \
                "targets, satcount, nodes) %r, expected %r" % (name, got, want)
        print("%-12s %7d %6d %6d %7d %21d %9.4fs %7d %8d" % (
            name, stages, warm, hits, targets, satcount, best, nodes,
            m.core.memo_entries()))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
