"""Synthesis specifications shared by the benchmarks.

A specification is ``(safety, liveness, inputs, outputs)``, as
``synthesis.problem_from_strings`` takes it: the README example and the
``n``-client arbiters, optionally with extra safety conjuncts such as
bounded responses.  ``bench_tableau`` reads the safety part only.
"""


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
