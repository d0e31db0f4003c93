"""Benchmark of the decision-diagram core.

Workloads exercise the hot paths of the symbolic pipeline: if-then-else
chains, relational image under quantification and the swap of every
variable with its primed copy (one ``Core.compose`` over a vector of
literals), universal-over-existential quantification of a relational
product whose relation reads the primed letters, and model counting.  Each
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

from elgames.dd import Assertion, Manager


def declare_pairs(m, names):
    """Declare each name and then its primed copy; the vector from each
    of their levels to the other's literal, as ``Core.compose`` takes
    it, swaps every pair."""
    swap = {}
    for name in names:
        m.declare(name)
        m.declare(name + "'")
        a, b = m.level(name), m.level(name + "'")
        swap[a], swap[b] = m.core.var_node(b), m.core.var_node(a)
    return swap


def swapped(m, a, swap):
    """``a`` with every variable and its primed copy exchanged."""
    return Assertion(m, m.core.compose(a.handle, swap))


def counter_reachability(bits):
    """Breadth-first reachability of an n-bit counter with wraparound."""
    m = Manager()
    unprimed = ["b%d" % i for i in range(bits)]
    swap = declare_pairs(m, unprimed)
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
    steps = 0
    while True:
        image = swapped(m, m.exists(unprimed, trans & frontier), swap)
        grown = reach | image
        if grown == reach:
            break
        frontier = grown & ~reach
        reach = grown
        steps += 1
    count = m.count_sat(reach, unprimed)
    assert count == 1 << bits and steps == (1 << bits) - 1
    return m.core.node_count()


def random_op_battery(rounds, nvars, seed):
    """Long mixed sequences of connectives and quantifications."""
    rng = random.Random(seed)
    m = Manager()
    names = ["x%d" % i for i in range(nvars)]
    for name in names:
        m.declare(name)

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
        acc ^= m.count_sat(g, names)
    return acc


def relation_composition(bits, rounds):
    """Iterated image of a shifted-xor relation, quantifier heavy."""
    m = Manager()
    unprimed = ["r%d" % i for i in range(bits)]
    swap = declare_pairs(m, unprimed)
    cur = [m.var("r%d" % i) for i in range(bits)]
    nxt = [m.var("r%d'" % i) for i in range(bits)]
    rel = m.true
    for i in range(bits):
        src = cur[(i + 1) % bits] ^ cur[(i + 7) % bits]
        rel = rel & nxt[i].iff(src ^ cur[i])
    s = m.cube({"r%d" % i: i % 3 == 0 for i in range(bits)})
    for _ in range(rounds):
        s = swapped(m, m.exists(unprimed, rel & s), swap)
    return m.count_sat(s, unprimed)


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
    swap = declare_pairs(m, state + inputs + outputs)

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
        moved = rel & swapped(m, safe, swap)
        pre = m.forall(primed(inputs), m.exists(primed(outputs + state), moved))
        shrunk = safe & pre
        if shrunk == safe:
            return m.count_sat(safe, state + inputs + outputs)
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
