"""Seeded workloads of the end-to-end benchmark.

Every workload turns a seed into a list of :class:`Instance` values that
hold only text: explicit games in the ``elgame 1`` file format, and
synthesis specifications as the LTL strings the command line takes.
The library parses that text during set-up, so parsing is measured as
part of set-up and never inside the timed calls.

Generation uses the library's own seeded generators; it runs before any
timing and only through ``lib``, the namespace of library modules the
runner imported.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One unit of work: a game to solve and certify, or a spec."""
    name: str
    kind: str              # "game" or "spec"
    text: object           # game text, or (safety, liveness, inputs, outputs)
    budget_s: float        # wall-time budget for verdict plus certificate
    controller: bool = False   # spec only: also extract a controller
    realizable: bool = None    # spec only: the pinned verdict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object          # build(lib, seed) -> list of Instance


# ---------------------------------------------------------------------------
# explicit-deep: three fixed deep games, relabelled per seed.

DEEP_BASE_SEED = 5
DEEP_BUDGET_S = 60.0


def _deep_families(el):
    return [
        ("streett-k3", 6,
         lambda rng, t: el.streett(t, [("a", "b"), ("c", "d"), ("e", "f")])),
        ("parity-c8", 8, lambda rng, t: el.parity(t, list("abcdefgh"))),
        ("muller-even-c4", 4, lambda rng, t: el.even_cardinality_muller(t)),
    ]


def deep_base_games(lib, families=("streett-k3", "parity-c8", "muller-even-c4"),
                    n=60, density=0.15):
    """``random_game`` instances at the base seed, unrelabelled, one per
    family: Streett k=3 (31-vertex tree), max-even parity over 8 colours
    and even-cardinality Muller over 4 colours (65-vertex tree)."""
    out = []
    for name, k, factory in _deep_families(lib.el):
        if name in families:
            game = lib.games.random_game(DEEP_BASE_SEED, n, k, density=density,
                                         objective_factory=factory)
            out.append(("%s-n%d" % (name, n), game))
    return out


def roadmap_games(lib):
    """The Streett and parity games of the ROADMAP's Current state
    (n=200, density 0.05, seed 5)."""
    return deep_base_games(lib, ("streett-k3", "parity-c8"), n=200, density=0.05)


def relabel(lib, game, rng):
    """Isomorphic copy of ``game`` under a random permutation of node ids.

    The solver's stage and ``cpre`` counts are invariant under the
    permutation, so the copy costs what the original costs while its
    masks and its text differ."""
    arena = game.arena
    perm = list(range(arena.n))
    rng.shuffle(perm)
    owner = [0] * arena.n
    colors = [0] * arena.n
    succ = [None] * arena.n
    for v in range(arena.n):
        owner[perm[v]] = arena.owner[v]
        colors[perm[v]] = arena.colors[v]
        succ[perm[v]] = sorted(perm[w] for w in arena.succ[v])
    return lib.games.ELGame(lib.games.Arena(owner, succ, colors),
                            game.table, game.objective)


def build_deep(lib, seed):
    rng = random.Random(seed)
    return [Instance(name, "game", lib.games.save_game(relabel(lib, game, rng)),
                     DEEP_BUDGET_S)
            for name, game in deep_base_games(lib)]


# ---------------------------------------------------------------------------
# explicit-shallow: many small games over five objective families, drawn
# once from a fixed seed; the workload seed relabels them and shuffles
# their order, so every seed asks for the same work.

SHALLOW_BASE_SEED = 5
SHALLOW_COUNT = 600
SHALLOW_NODES = (30, 90)
SHALLOW_COLORS = 3
SHALLOW_DENSITY = 0.08
SHALLOW_BUDGET_S = 20.0


def _shallow_families(el):
    return [
        ("buchi", lambda rng, t: el.buchi(t, "a")),
        ("genbuchi", lambda rng, t: el.generalized_buchi(t, ["a", "b", "c"])),
        ("rabin1", lambda rng, t: el.rabin(t, [("a", "b")])),
        ("streett1", lambda rng, t: el.streett(t, [("a", "b")])),
        ("random3", lambda rng, t: el.random_formula(rng, t, 3)),
    ]


def shallow_base_games(lib):
    rng = random.Random(SHALLOW_BASE_SEED)
    families = _shallow_families(lib.el)
    out = []
    for i in range(SHALLOW_COUNT):
        family, factory = families[i % len(families)]
        n = rng.randint(*SHALLOW_NODES)
        game = lib.games.random_game(rng.randrange(1 << 30), n, SHALLOW_COLORS,
                                     density=SHALLOW_DENSITY,
                                     objective_factory=factory)
        out.append(("%s-%03d-n%d" % (family, i, n), game))
    return out


def build_shallow(lib, seed):
    rng = random.Random(seed)
    games = shallow_base_games(lib)
    rng.shuffle(games)
    return [Instance(name, "game", lib.games.save_game(relabel(lib, game, rng)),
                     SHALLOW_BUDGET_S)
            for name, game in games]


# ---------------------------------------------------------------------------
# synth-arbiter: fixed arbiter specifications.

SYNTH_BUDGET_S = 90.0


def arbiter(n):
    """Mutual exclusion of grants plus GF r_i -> GF g_i for every client."""
    mutex = " & ".join("!(g%d & g%d)" % (i, j)
                       for i in range(n) for j in range(i + 1, n))
    live = " & ".join("(G F r%d -> G F g%d)" % (i, i) for i in range(n))
    return ("G(%s)" % mutex, live,
            tuple("r%d" % i for i in range(n)), tuple("g%d" % i for i in range(n)))


def _with_safety(spec, extra):
    safety, live, inputs, outputs = spec
    return (safety + " & " + extra, live, inputs, outputs)


README_SPEC = ("G(b|c) & G(a -> b | X X b)",
               "(G F a -> G F b) & ((F G !a | F G !(b&c)) & G F c)",
               ("a",), ("b", "c"))


def build_synth(lib, seed):
    arb2, arb3 = arbiter(2), arbiter(3)

    def spec(name, text, controller, realizable):
        return Instance(name, "spec", text, SYNTH_BUDGET_S,
                        controller=controller, realizable=realizable)

    # arb3 with a response conjunct (realizable) or with next-step grants
    # (unrealizable) take 3-5 s each; with them a pass is too long to repeat
    # often enough within a run for a steady fastest-pass figure.
    return [
        spec("arb3", arb3, False, True),
        spec("arb2-next01", _with_safety(arb2, "G(r0 -> X g0) & G(r1 -> X g1)"),
             False, False),
        spec("readme", README_SPEC, True, True),
        spec("arb2", arb2, True, True),
        spec("arb2-resp2", _with_safety(arb2, "G(r0 -> X g0 | X X g0)"), True, True),
    ]


WORKLOADS = {
    "explicit-deep": Workload(
        "explicit-deep",
        "Streett k=3, parity 8 colours, even Muller, n=60, 104 tree vertices: "
        "89k cpre calls on 846 targets, ranked_solve 68% of time, no DD work. "
        "The seed only relabels nodes.",
        build_deep),
    "explicit-shallow": Workload(
        "explicit-shallow",
        "600 small games (n 30-90, 3 colours, five families, 2.9 tree vertices "
        "each) drawn once, relabelled and reordered per seed: per-instance "
        "costs weigh most; cpre distinct ratio 0.21.",
        build_shallow),
    "synth-arbiter": Workload(
        "synth-arbiter",
        "Fixed arbiter specs: the arb3 verdict is DD core and symbolic cpre; "
        "README, arb2 and arb2+response controllers exercise explicit "
        "expansion, re-solve and ranked_solve. The seed is unused.",
        build_synth),
}
