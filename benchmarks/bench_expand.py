"""Benchmark of the explicit expansion, ``synthesis.expand_explicit``.

Each workload builds the symbolic game of one synthesis specification,
solves it symbolically once (untimed), and times two expansions of it:
the winning sub-arena that ``extract_controller`` solves (``win``
given) and the full expansion with its losing sink that the
``--expand-check`` cross-check solves.  Expansion evaluates the winning
region, every transition function and every colour assertion once per
(subset, letter), so its time is the diagram-evaluation cost of the
explicit step.  The specifications are the README example, the three-,
four- and five-client arbiters and the two-client arbiter whose clients
are granted within three steps (27 subset variables).  Each expansion's
node count and a SHA-256 of its structure (every node's kind, moves and
colour mask, in node order, letters as sorted names) are pinned, so a
faster expansion must build the same arenas.  Run as a script; pass
--repeat to stabilize numbers.

    python benchmarks/bench_expand.py
"""

import argparse
import hashlib
import time

from elgames import synthesis as syn

from specs import README, arbiter, response


# name, specification, (sub-arena nodes, digest prefix),
# (full expansion nodes, digest prefix)
WORKLOADS = [
    ("readme", README, (66, "dd75b3ebaf5d"), (91, "409065281e19")),
    ("arb3", arbiter(3), (40, "b43c9ffad629"), (73, "f2dfa88f092b")),
    ("arb4", arbiter(4), (96, "a35879c4d30f"), (273, "cf75a8657011")),
    ("arb5", arbiter(5), (224, "7c34488689ba"), (1057, "716f2c88aba1")),
    ("arb2-resp3", arbiter(2, response(2, 3)),
     (1712, "007e66c5a42d"), (2521, "27a1e2126a06")),
]


def structure_digest(exp):
    """SHA-256 of an expansion's kinds, moves and colour masks."""
    arena = exp.elgame.arena
    lines = []
    for vid, kind in enumerate(exp.kinds):
        shown = [kind[0]]
        if len(kind) == 3:
            shown += ["%x" % kind[1], ",".join(sorted(kind[2]))]
        shown += [",".join(map(str, arena.succ[vid])), "%x" % arena.colors[vid]]
        lines.append(" ".join(shown))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def best_expansion(game, win, repeat):
    """The last of ``repeat`` expansions and the best time among them."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        exp = syn.expand_explicit(game, win)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return exp, best


def run(repeat):
    print("%-12s %6s %10s %6s %10s  %s" % (
        "spec", "sub", "best", "full", "best", "digests"))
    for name, spec, want_sub, want_full in WORKLOADS:
        game = syn.build_game(syn.problem_from_strings(*spec))
        win, _, _ = game.solution
        sub, sub_s = best_expansion(game, win, repeat)
        full, full_s = best_expansion(game, None, repeat)
        got_sub = (sub.elgame.arena.n, structure_digest(sub)[:12])
        got_full = (full.elgame.arena.n, structure_digest(full)[:12])
        assert (got_sub, got_full) == (want_sub, want_full), \
            "%s gave (nodes, digest) %r / %r, expected %r / %r" % (
                name, got_sub, got_full, want_sub, want_full)
        print("%-12s %6d %9.4fs %6d %9.4fs  %s %s" % (
            name, got_sub[0], sub_s, got_full[0], full_s, got_sub[1],
            got_full[1]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
