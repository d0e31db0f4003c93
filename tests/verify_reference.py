"""Plain strategy extraction and verification, kept as references for
the tests, and the independent readers of strategy files and
counterexample lassos.

``extract_reference`` builds a move and an update at every (node, leaf)
pair of ``values[m] & win``, reached or not, and orders moves by lifted
signatures; ``strategy.extract`` must equal it on the reachable pairs.
``verify_reference`` builds the product as ``strategy.verify`` does and
runs one Tarjan pass per color set that falsifies the objective, looking
for a component that realizes exactly that set; ``strategy.verify``
must agree with it on ok-ness.  ``sccs`` is a Tarjan pass of its own
over a dict adjacency, so a fault in the library's restricted Tarjan
cannot hide behind the reference that checks it.
"""

from elgames import el
from elgames.games import EXISTENTIAL, iter_nodes
from elgames.strategy import ELStrategy, _Extractor

from el_reference import evaluate
from ranked_reference import ranked_maps


class StrategyError(ValueError):
    """A malformed strategy file, or a lasso the strategy does not play."""


def pick_move_reference(ex, ranked, v, m):
    """``_Extractor.pick_move`` ordering successors by lifted signatures,
    read from the ``{node: signature}`` maps of ``ranked_maps`` rather
    than from the extractor's rings."""
    tree = ex.tree
    s = tree.anchor(m, ex.arena.colors[v])
    src = ranked[s]
    bump = not tree.winning[s]
    pos = tree.lfp_depth[s] - 1

    def lifted(w):
        sig = src[w]
        if bump:
            sig = sig[:pos] + (sig[pos] + 1,)
        return sig

    def continuation_depth(w):
        return -tree.depth[tree.anchor(m, ex.arena.colors[w])]

    candidates = [w for w in ex.arena.succ[v] if w in src]
    return min(candidates, key=lambda w: (lifted(w), continuation_depth(w), w))


def extract_reference(game, tree, result):
    """Strategy with entries at every pair of ``values[m] & win``."""
    ex = _Extractor(game, tree, result)
    ranked = ranked_maps(game, tree, result.values)
    arena = game.arena
    win = result.values[tree.root]
    initial = {v: ex.descend(v, tree.root) for v in iter_nodes(win)}
    move = {}
    update = {}
    for m in tree.leaves:
        for v in iter_nodes(result.values[m] & win):
            s, slot = ex.position(v, m)
            if arena.owner[v] == EXISTENTIAL:
                w = move[(v, m)] = pick_move_reference(ex, ranked, v, m)
                succs = (w,)
            else:
                succs = arena.succ[v]
            for w in succs:
                update[(v, m, w)] = ex.descend(w, s, slot)
    return ELStrategy(game, tree, win, initial, move, update)


def verify_reference(game, strategy, claimed):
    """None when ``strategy`` wins every node of ``claimed``, else a
    reason: the product is incomplete or leaves ``claimed``, or the color
    set a reachable nontrivial component realizes exactly."""
    arena = game.arena
    succs = {}
    stack = []
    for v in iter_nodes(claimed):
        if v not in strategy.initial:
            return "incomplete"
        stack.append((v, strategy.initial[v]))
    while stack:
        state = stack.pop()
        if state in succs:
            continue
        v, m = state
        if arena.owner[v] == EXISTENTIAL:
            w = strategy.move.get(state)
            if w is None or not arena.succ_mask[v] >> w & 1:
                return "incomplete"
            ws = [w]
        else:
            ws = arena.succ[v]
        out = succs[state] = []
        for w in ws:
            if not claimed >> w & 1:
                return "escapes"
            m2 = strategy.update.get((v, m, w))
            if m2 is None:
                return "incomplete"
            out.append((w, m2))
            stack.append((w, m2))
    for d in el.subsets_of(game.table.full_mask):
        if evaluate(game.objective, d):
            continue
        keep = {x for x in succs if not arena.colors[x[0]] & ~d}
        sub = {x: [y for y in succs[x] if y in keep] for x in keep}
        for comp in sccs(sub):
            if len(comp) == 1:
                x = next(iter(comp))
                if x not in sub[x]:
                    continue
            union = 0
            for x in comp:
                union |= arena.colors[x[0]]
            if union == d:
                return "cycle realizing %s" % game.table.format_mask(d)
    return None


def sccs(succ):
    """Tarjan over a dict node -> successor list; returns node sets."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    result = []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(succ[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                result.append(comp)

    for v in succ:
        if v not in index:
            strongconnect(v)
    return result


def strategy_from_text(text, game, tree, win_mask):
    initial = {}
    move = {}
    update = {}
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "strategy 1":
        raise StrategyError("expected header 'strategy 1'")
    for line in lines[1:]:
        parts = line.split()
        try:
            args = [int(x) for x in parts[1:]]
        except ValueError as exc:
            raise StrategyError("bad line: %r" % line) from exc
        if parts[0] == "initial" and len(args) == 1:
            continue
        if parts[0] == "init" and len(args) == 2:
            initial[args[0]] = args[1]
        elif parts[0] == "move" and len(args) == 3:
            move[(args[0], args[1])] = args[2]
        elif parts[0] == "update" and len(args) == 3:
            pass  # resolved below from the matching move line
        elif parts[0] == "update" and len(args) == 4:
            update[(args[0], args[1], args[2])] = args[3]
        else:
            raise StrategyError("bad line: %r" % line)
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "update" and len(parts) == 4:
            v, m, m2 = int(parts[1]), int(parts[2]), int(parts[3])
            if (v, m) not in move:
                raise StrategyError(
                    "update for existential node %d lacks a move line" % v)
            update[(v, m, move[(v, m)])] = m2
    return ELStrategy(game, tree, win_mask, initial, move, update)


def replay_lasso(game, strategy, prefix, loop):
    """Infinite-visit color set of a product lasso, after validating it
    against the strategy and the arena; used to certify counterexamples."""
    arena = game.arena
    seq = list(prefix) + list(loop)
    for k in range(len(seq) - 1):
        v, m = seq[k]
        w, m2 = seq[k + 1]
        _check_step(game, strategy, v, m, w, m2)
    v, m = loop[-1]
    w, m2 = loop[0]
    _check_step(game, strategy, v, m, w, m2)
    union = 0
    for v, _ in loop:
        union |= arena.colors[v]
    return union


def _check_step(game, strategy, v, m, w, m2):
    arena = game.arena
    if not arena.succ_mask[v] >> w & 1:
        raise StrategyError("lasso uses a non-edge %d -> %d" % (v, w))
    if arena.owner[v] == EXISTENTIAL and strategy.move.get((v, m)) != w:
        raise StrategyError("lasso disobeys the strategy at node %d" % v)
    if strategy.update.get((v, m, w)) != m2:
        raise StrategyError("lasso disobeys the memory update at node %d" % v)
