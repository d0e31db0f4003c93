"""Benchmark of the decision-diagram core.

Workloads exercise the hot paths of the symbolic pipeline: if-then-else
chains, relational image under quantification and partner renaming,
universal-over-existential quantification of a relational product
whose relation reads the primed letters, and model counting.  Each
run's result is checked against a pinned value: the node count after
the counter's reachability, the XOR of the battery's model counts, the
composition's final model count and the model count of the
alternation's safe set.
Run as a script; pass --repeat to stabilize numbers.

    python benchmarks/bench_bddcore.py
"""

import argparse
import random
import time

from elgames.dd import Manager


def counter_reachability(bits):
    """Breadth-first reachability of an n-bit counter with wraparound."""
    m = Manager()
    for i in range(bits):
        m.declare_pair("b%d" % i, "b%d'" % i, "state")
    cur = [m.var("b%d" % i) for i in range(bits)]
    nxt = [m.var("b%d'" % i) for i in range(bits)]
    # v' = v + 1 with ripple carry
    trans = m.true
    carry = m.true
    for i in range(bits):
        trans = trans & nxt[i].iff(cur[i] ^ carry)
        carry = carry & cur[i]
    reach = m.cube({"b%d" % i: False for i in range(bits)})
    frontier = reach
    unprimed = ["b%d" % i for i in range(bits)]
    steps = 0
    while True:
        image = m.rename_partners(m.exists(unprimed, trans & frontier))
        grown = reach | image
        if grown == reach:
            break
        frontier = grown & ~reach
        reach = grown
        steps += 1
    count = m.count_sat(reach, "state")
    assert count == 1 << bits and steps == (1 << bits) - 1
    return m.core.node_count()


def random_op_battery(rounds, nvars, seed):
    """Long mixed sequences of connectives and quantifications."""
    rng = random.Random(seed)
    m = Manager()
    names = ["x%d" % i for i in range(nvars)]
    for name in names:
        m.declare(name, "main")

    def formula(depth):
        if depth == 0 or rng.random() < 0.25:
            return m.var(names[rng.randrange(nvars)])
        a = formula(depth - 1)
        b = formula(depth - 1)
        r = rng.random()
        if r < 0.35:
            return a & b
        if r < 0.7:
            return a | b
        if r < 0.85:
            return a ^ b
        return m.ite(a, b, ~a)

    acc = 0
    for _ in range(rounds):
        f = formula(6)
        g = m.exists([n for n in names if rng.random() < 0.3], f)
        acc ^= m.count_sat(g, "main")
    return acc


def relation_composition(bits, rounds):
    """Iterated image of a shifted-xor relation, quantifier heavy."""
    m = Manager()
    for i in range(bits):
        m.declare_pair("r%d" % i, "r%d'" % i, "state")
    cur = [m.var("r%d" % i) for i in range(bits)]
    nxt = [m.var("r%d'" % i) for i in range(bits)]
    rel = m.true
    for i in range(bits):
        src = cur[(i + 1) % bits] ^ cur[(i + 7) % bits]
        rel = rel & nxt[i].iff(src ^ cur[i])
    unprimed = ["r%d" % i for i in range(bits)]
    s = m.cube({"r%d" % i: i % 3 == 0 for i in range(bits)})
    for _ in range(rounds):
        s = m.rename_partners(m.exists(unprimed, rel & s))
    return m.count_sat(s, "state")


def quantifier_alternation(nstate, nletters, seed):
    """Greatest safe set of a seeded game: ``safe`` shrinks to
    ``safe & forall i'. exists o', s'. R & rename(safe)``, the full
    relational product, until it is stable (9 rounds here).  ``R`` sets
    each next state bit to a random formula of the current state and the
    primed letters, so the letter quantifiers cannot move onto the
    renamed set as ``synthesis.symbolic_cpre`` moves them."""
    rng = random.Random(seed)
    m = Manager()
    state = ["s%d" % i for i in range(nstate)]
    inputs = ["i%d" % i for i in range(nletters)]
    outputs = ["o%d" % i for i in range(nletters)]
    for name in state + inputs + outputs:
        m.declare_pair(name, name + "'", "now")

    def primed(names):
        return [n + "'" for n in names]

    def formula(names, depth):
        if depth == 0 or rng.random() < 0.3:
            lit = m.var(rng.choice(names))
            return lit if rng.random() < 0.5 else ~lit
        a = formula(names, depth - 1)
        b = formula(names, depth - 1)
        r = rng.random()
        if r < 0.4:
            return a & b
        if r < 0.8:
            return a | b
        return a ^ b

    step = state + primed(inputs + outputs)
    rel = m.true
    for name in state:
        rel = rel & m.var(name + "'").iff(formula(step, 3))
    safe = formula(state, 4) | formula(state, 4)
    while True:
        moved = rel & m.rename_partners(safe)
        pre = m.forall(primed(inputs), m.exists(primed(outputs + state), moved))
        shrunk = safe & pre
        if shrunk == safe:
            return m.count_sat(safe, "now")
        safe = shrunk


WORKLOADS = [
    ("counter reachability (10 bits)", lambda: counter_reachability(10), 12247),
    ("random op battery (300 x 12 vars)",
     lambda: random_op_battery(300, 12, 99), 1424),
    ("relation composition (16 bits x 40)",
     lambda: relation_composition(16, 40), 1),
    ("quantifier alternation (12+3+3 bits)",
     lambda: quantifier_alternation(12, 3, 3), 100736),
]


def run(repeat):
    print("%-36s %12s" % ("workload", "best"))
    for name, fn, expected in WORKLOADS:
        best = None
        for _ in range(repeat):
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            assert result == expected, "%s gave %r, expected %r" % (
                name, result, expected)
        print("%-36s %10.3fs" % (name, best))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of this many runs")
    args = parser.parse_args()
    run(args.repeat)


if __name__ == "__main__":
    main()
