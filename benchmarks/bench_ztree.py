"""Benchmark of Zielonka tree construction, ``zielonka.ZielonkaTree``.

Each workload builds the tree of one objective.  The first three are
the objectives of the end-to-end ``explicit-deep`` workload (Streett
k=3 over 6 colours, max-even parity over 8, even-cardinality Muller
over 4); the others are the liveness objectives ``GF r_i -> GF g_i`` of
the 3-, 4- and 5-client arbiters, with the colour tables synthesis
gives them (Streett k=3, 4, 5 over 6, 8 and 10 colours).  Every tree's
vertex count and a checksum of its (label, winning, parent) lists are
pinned.  Run as a script; pass --repeat to stabilize numbers.

    python benchmarks/bench_ztree.py
"""

import argparse
import time

from elgames import el
from elgames import synthesis as syn
from elgames.dd import Manager
from elgames.ltl import parse_ltl
from elgames.zielonka import ZielonkaTree

CHECKSUM_MODULUS = (1 << 61) - 1


def streett_k3():
    table = el.ColorTable("abcdef")
    return el.streett(table, [("a", "b"), ("c", "d"), ("e", "f")]), table


def parity_c8():
    table = el.ColorTable("abcdefgh")
    return el.parity(table, list("abcdefgh")), table


def muller_c4():
    table = el.ColorTable("abcd")
    return el.even_cardinality_muller(table), table


def arbiter_liveness(k):
    manager = Manager()
    for i in range(k):
        manager.declare("r%d" % i)
        manager.declare("g%d" % i)
    liveness = " & ".join("(G F r%d -> G F g%d)" % (i, i) for i in range(k))
    formula, table, _ = syn.colors_of(parse_ltl(liveness), manager)
    return formula, table


def checksum(tree):
    acc = len(tree)
    for v in range(len(tree)):
        parent = tree.parent[v]
        for x in (tree.label[v], int(tree.winning[v]),
                  0 if parent is None else parent + 1):
            acc = (acc * 1000003 + x) % CHECKSUM_MODULUS
    return acc


# name, objective and table, vertex count, checksum of the tree
WORKLOADS = [
    ("streett k=3, c=6", streett_k3, 31, 721023231476020205),
    ("parity c=8", parity_c8, 8, 1880641573039868997),
    ("even Muller c=4", muller_c4, 65, 381801399945360794),
    ("arb3 liveness, c=6", lambda: arbiter_liveness(3), 31, 721023231476020205),
    ("arb4 liveness, c=8", lambda: arbiter_liveness(4), 129, 654869947062938404),
    ("arb5 liveness, c=10", lambda: arbiter_liveness(5), 651, 997448591211189981),
]


def run(repeat):
    print("%-22s %8s %10s" % ("workload", "vertices", "best"))
    for name, make, want_vertices, expected in WORKLOADS:
        phi, table = make()
        best = None
        for _ in range(repeat):
            start = time.perf_counter()
            tree = ZielonkaTree(phi, table)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            assert len(tree) == want_vertices, "%s has %d vertices, expected %d" % (
                name, len(tree), want_vertices)
            result = checksum(tree)
            assert result == expected, "%s gave checksum %r, expected %r" % (
                name, result, expected)
        print("%-22s %8d %9.4fs" % (name, len(tree), best))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=10,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
