"""Benchmark of the tableau automaton, ``ltl.nfa_from_safety``.

Each workload parses the safety part of one synthesis specification,
puts it in negation normal form (untimed) and times
``nfa_from_safety`` on it over the formula's atoms in sorted order: the
declaration of that alphabet, the tableau expansion of every state into
branches, the satisfiability check of each branch's letter constraint
and the removal of dead-end states.  The specifications are the five of
the end-to-end ``synth-arbiter`` workload (the README example; the
two-client arbiter alone, with a bounded response and with next-step
grants; the three-client arbiter) and three arbiters whose every
client has a bounded response: two clients granted within three steps,
three clients within two and three clients within three steps.  Each
automaton's state count, transition count and a SHA-256 of its
transition lists (per state, in order, every transition's constraint
``repr`` and target) are pinned; the automaton does not depend on the
hash seed, so a faster tableau must build the same automata.  Run as a
script; pass --repeat to stabilize numbers.

    python benchmarks/bench_tableau.py
"""

import argparse
import hashlib
import time

from elgames import ltl


def arbiter(n, extra=""):
    """Mutual exclusion of grants (plus ``extra``): the safety part of
    the ``n``-client arbiter."""
    return "G(%s)" % " & ".join("!(g%d & g%d)" % (i, j)
                                for i in range(n)
                                for j in range(i + 1, n)) + extra


def response(n, within):
    """Every client's request granted within ``within`` steps:
    ``G(r_i -> X g_i | X X g_i | ...)``."""
    return "".join(" & G(r%d -> %s)" % (i, " | ".join(
        "X " * k + "g%d" % i for k in range(1, within + 1)))
        for i in range(n))


README = "G(b|c) & G(a -> b | X X b)"

# name, safety formula, states, transitions, digest prefix
WORKLOADS = [
    ("readme", README, 4, 12, "dbba774d4895"),
    ("arb2", arbiter(2), 1, 1, "59a1baa9f960"),
    ("arb2-resp2", arbiter(2, " & G(r0 -> X g0 | X X g0)"),
     4, 12, "e8540fc68684"),
    ("arb2-next01", arbiter(2, " & G(r0 -> X g0) & G(r1 -> X g1)"),
     3, 9, "8793e9b1a588"),
    ("arb3", arbiter(3), 1, 1, "80cb578f7131"),
    ("arb2-resp3", arbiter(2, response(2, 3)), 27, 237, "16d2e1e01bc5"),
    ("arb3-resp2", arbiter(3, response(3, 2)), 16, 136, "10a48f96f401"),
    ("arb3-resp3", arbiter(3, response(3, 3)), 64, 988, "bdb06687c9ac"),
]


def transitions_digest(nfa):
    """SHA-256 of the transition lists: one line per state, every
    transition as its constraint's ``repr`` and its target."""
    lines = ["; ".join("%r -> %d" % (c, t) for c, t in out)
             for out in nfa.transitions]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def best_tableau(nnf, repeat):
    """The last of ``repeat`` tableaux and the best time among them."""
    letters = sorted(ltl.atoms(nnf))
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        nfa = ltl.nfa_from_safety(nnf, letters)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return nfa, best


def run(repeat):
    print("%-12s %6s %6s %10s  %s" % ("spec", "states", "trans", "best",
                                       "digest"))
    for name, safety, *want in WORKLOADS:
        nfa, best = best_tableau(ltl.check_safety(ltl.parse_ltl(safety)),
                                 repeat)
        got = [len(nfa), sum(map(len, nfa.transitions)),
               transitions_digest(nfa)[:12]]
        assert got == want, "%s gave %r, expected %r" % (name, got, want)
        print("%-12s %6d %6d %9.4fs  %s" % (name, got[0], got[1], best,
                                            got[2]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
