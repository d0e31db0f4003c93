"""Seeded random regression corpus.

Every instance is solved twice (direct fixpoint solver and the parity
reduction with the independent recursive solver), the dual game is
checked to complement the winning set, and the extracted strategy is
run through the exact verifier.  Deterministic for a fixed seed.
"""

import random

from .fixpoint import solve_game
from .games import dual_game, random_game
from .oracles import solve_el_via_reduction
from .strategy import extract, verify


class CorpusReport:

    def __init__(self, count=0, oracle_agree=0, dual_ok=0, strategies_checked=0,
                 strategies_ok=0, max_memory=0, failures=None):
        self.count = count
        self.oracle_agree = oracle_agree
        self.dual_ok = dual_ok
        self.strategies_checked = strategies_checked
        self.strategies_ok = strategies_ok
        self.max_memory = max_memory
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        lines = [
            "corpus: %d instances" % self.count,
            "oracle equivalence: %d/%d agree" % (self.oracle_agree, self.count),
            "dual complement:    %d/%d agree" % (self.dual_ok, self.count),
            "strategies:         %d/%d verified (max memory %d)"
            % (self.strategies_ok, self.strategies_checked, self.max_memory),
        ]
        if self.failures:
            lines.append("failures:")
            lines += ["  " + f for f in self.failures[:20]]
        return "\n".join(lines)


def run_corpus(seed, count, max_nodes=8, max_colors=4):
    rng = random.Random(seed)
    report = CorpusReport()
    for i in range(count):
        n = rng.randint(2, max_nodes)
        k = rng.randint(1, max_colors)
        gseed = rng.randrange(1 << 30)
        game = random_game(gseed, n, k)
        report.count += 1
        tag = "instance %d (seed %d, n=%d, k=%d)" % (i, gseed, n, k)
        win, tree, result = solve_game(game)
        oracle = solve_el_via_reduction(game, tree)
        if win == oracle:
            report.oracle_agree += 1
        else:
            report.failures.append("%s: solver %#x oracle %#x" % (tag, win, oracle))
        dual_win, _, _ = solve_game(dual_game(game))
        if dual_win == ~win & game.arena.full_mask:
            report.dual_ok += 1
        else:
            report.failures.append("%s: dual game does not complement" % tag)
        if win:
            report.strategies_checked += 1
            strategy = extract(game, tree, result)
            report.max_memory = max(report.max_memory, strategy.memory_size)
            outcome = verify(game, strategy, win)
            if outcome.ok:
                report.strategies_ok += 1
            else:
                report.failures.append("%s: strategy rejected (%s)"
                                       % (tag, outcome.reason))
    return report
