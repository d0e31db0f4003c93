"""Spans and counters around the library's public module attributes.

The traced run replaces, for its duration, the module attributes the
library calls through (``games.cpre``, ``fixpoint.solve``, ...) with
wrappers that record one span per call: name, start, end, parent span,
instance id and context (``"run"`` for the measured calls, ``"check"``
for the correctness gates).  Decision-diagram work is counted, not
spanned: every manager's core is swapped for a proxy that counts and
times its top-level calls.  Spans stay in memory until the run ends.
"""

import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, instance, context, extra]
        self.stack = []
        self.instance = None
        self.context = "run"
        self.distinct = defaultdict(set)   # (name, instance, context) -> keys
        self.dd = defaultdict(lambda: [0, 0, 0.0])  # context -> calls, quant, s
        self.cores = []                    # (instance, context, raw core)
        self.product_states = 0            # set by the gates
        self._saved = []

    def begin(self, instance, context):
        self.instance = instance
        self.context = context
        self.stack.clear()

    # -- wrappers

    def wrap(self, name, fn, extra=None, key=None):
        """Span-recording stand-in for ``fn``; ``extra(args, result)``
        attaches a count to the span, ``key(args)`` feeds a distinct-set."""
        tracer = self

        def traced(*args, **kwargs):
            if key is not None:
                tracer.distinct[(name, tracer.instance, tracer.context)].add(
                    key(args))
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.instance, tracer.context, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if extra is not None:
                span[6] = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, extra=None, key=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, extra, key))

    def manager_factory(self, manager_cls):
        tracer = self

        def make(*args, **kwargs):
            manager = manager_cls(*args, **kwargs)
            tracer.cores.append((tracer.instance, tracer.context, manager.core))
            manager.core = CountingCore(manager.core, tracer)
            return manager

        return make

    def install(self, lib):
        """Wrap every layer boundary the benchmark measures."""
        g, z, f, st, sy = lib.games, lib.zielonka, lib.fixpoint, lib.strategy, \
            lib.synthesis
        self.patch(g, "cpre", "games.cpre", key=lambda a: a[1])
        self.patch(z, "ZielonkaTree", "zielonka.tree", extra=_size)
        self.patch(sy, "ZielonkaTree", "zielonka.tree", extra=_size)
        for mod in (f, st, sy):
            self.patch(mod, "build_equations", "fixpoint.equations")
        self.patch(f, "solve", "fixpoint.solve", extra=_stages)
        self.patch(sy, "solve", "fixpoint.solve", extra=_stages)
        self.patch(st, "ranked_solve", "strategy.ranked_solve")
        self.patch(st, "extract", "strategy.extract")
        self.patch(st, "verify", "strategy.verify")
        self.patch(lib.oracles, "solve_el_via_reduction", "oracles.solve")
        self.patch(lib.oracles, "reduce_to_parity", "reduction.reduce",
                   extra=lambda a, r: r.parity_game.arena.n)
        self.patch(sy, "nfa_from_safety", "ltl.nfa", extra=_size)
        self.patch(sy, "determinize_symbolic", "ltl.determinize",
                   extra=lambda a, r: len(r.state_vars))
        self.patch(sy, "build_game", "synthesis.build")
        self.patch(sy, "solve_symbolic", "synthesis.symbolic_solve")
        self.patch(sy, "symbolic_cpre", "synthesis.cpre",
                   key=lambda a: a[1].handle)
        self.patch(sy, "expand_explicit", "synthesis.expand",
                   extra=lambda a, r: r.elgame.arena.n)
        self.patch(sy, "solve_game", "synthesis.explicit_solve")
        self.patch(sy, "extract_controller", "synthesis.controller",
                   extra=_size)
        for mod in (sy, lib.ltl):
            original = mod.Manager
            self._saved.append((mod, "Manager", original))
            mod.Manager = self.manager_factory(original)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write('["name","start","end","parent","instance","context","extra"]\n')
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _size(args, result):
    return len(result)


def _stages(args, result):
    return result.iterations


class CountingCore:
    """Proxy over a diagram core counting and timing top-level calls."""

    QUANTIFIERS = ("exists", "forall")

    def __init__(self, core, tracer):
        self._core = core
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._core, attr)
        if not callable(target):
            return target
        tracer = self._tracer
        quant = attr in self.QUANTIFIERS

        def counted(*args):
            t0 = perf_counter()
            result = target(*args)
            row = tracer.dd[tracer.context]
            row[0] += 1
            row[1] += quant
            row[2] += perf_counter() - t0
            return result

        self.__dict__[attr] = counted
        return counted


# ---------------------------------------------------------------------------
# Per-layer metrics.

def _self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - c for span, c in zip(spans, child)]


def layer_metrics(tracer, explicit, load_s, overhead_ratio):
    """Per-layer metrics of the traced pass, summed over the workload."""
    selfs = _self_times(tracer.spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(int)
    for span, self_s in zip(tracer.spans, selfs):
        key = (span[0], span[5])
        total[key] += span[2] - span[1]
        own[key] += self_s
        calls[key] += 1
        if span[6] is not None:
            extra[key] += span[6]

    def distinct(name):
        return sum(len(keys) for (n, _, ctx), keys in tracer.distinct.items()
                   if n == name and ctx == "run")

    def ratio(a, b):
        return a / b if b else 0.0

    def run(name):
        return (name, "run")

    def check(name):
        return (name, "check")

    dd_calls, dd_quant, dd_s = tracer.dd["run"]
    dd_nodes = sum(core.node_count() for _, ctx, core in tracer.cores
                   if ctx == "run")
    oracle_s = total[check("oracles.solve")]
    return {
        "games.load_s": (load_s, "s"),
        "games.cpre_calls": (calls[run("games.cpre")], "count"),
        "games.cpre_distinct": (distinct("games.cpre"), "count"),
        "games.cpre_distinct_ratio": (
            ratio(distinct("games.cpre"), calls[run("games.cpre")]), "ratio"),
        "games.cpre_s": (total[run("games.cpre")], "s"),
        "zielonka.tree_s": (total[run("zielonka.tree")], "s"),
        "zielonka.vertices": (extra[run("zielonka.tree")], "count"),
        "fixpoint.equations_s": (total[run("fixpoint.equations")], "s"),
        "fixpoint.solve_self_s": (own[run("fixpoint.solve")], "s"),
        "fixpoint.stages": (extra[run("fixpoint.solve")], "count"),
        "fixpoint.oracle_ratio": (
            ratio(total[run("fixpoint.solve")], oracle_s) if explicit else 0.0,
            "ratio"),
        "strategy.ranked_solve_s": (total[run("strategy.ranked_solve")], "s"),
        "strategy.extract_self_s": (own[run("strategy.extract")], "s"),
        "strategy.verify_s": (total[run("strategy.verify")], "s"),
        "strategy.product_states": (tracer.product_states, "count"),
        "oracles.solve_s": (oracle_s, "s"),
        "reduction.product_nodes": (extra[check("reduction.reduce")], "count"),
        "ltl.nfa_s": (total[run("ltl.nfa")], "s"),
        "ltl.nfa_states": (extra[run("ltl.nfa")], "count"),
        "ltl.determinize_s": (total[run("ltl.determinize")], "s"),
        "ltl.dsa_vars": (extra[run("ltl.determinize")], "count"),
        "dd.calls": (dd_calls, "count"),
        "dd.quant_calls": (dd_quant, "count"),
        "dd.s": (dd_s, "s"),
        "dd.nodes": (dd_nodes, "count"),
        "synthesis.build_s": (total[run("synthesis.build")], "s"),
        "synthesis.symbolic_solve_s": (total[run("synthesis.symbolic_solve")], "s"),
        "synthesis.cpre_calls": (calls[run("synthesis.cpre")], "count"),
        "synthesis.cpre_distinct": (distinct("synthesis.cpre"), "count"),
        "synthesis.cpre_distinct_ratio": (
            ratio(distinct("synthesis.cpre"), calls[run("synthesis.cpre")]),
            "ratio"),
        "synthesis.cpre_s": (total[run("synthesis.cpre")], "s"),
        "synthesis.expand_s": (total[run("synthesis.expand")], "s"),
        "synthesis.expansion_nodes": (extra[run("synthesis.expand")], "count"),
        "synthesis.explicit_solve_s": (total[run("synthesis.explicit_solve")], "s"),
        "synthesis.controller_s": (total[run("synthesis.controller")], "s"),
        "synthesis.controller_states": (extra[run("synthesis.controller")], "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
