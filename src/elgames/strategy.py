"""Finite-memory strategies extracted from fixpoint solutions, plus an
exact verifier.

Memory values are leaves of the Zielonka tree.  Leaving node ``v`` with
memory ``m``, the anchor of ``v``'s colors above ``m`` names the
variable whose controllable predecessor admitted ``v``; the move goes
to a successor in that variable's solution.  Successors are ordered by
entry-rank signatures: one Kleene-stage component per least-fixpoint
vertex enclosing the variable, outermost first, computed by re-running
the solver with per-node signature propagation (:func:`ranked_solve`).
That re-run remembers, per leaf and per ancestor term, the last input
and its result, and skips a run whose input equals the last one; the
memos hold one entry per leaf and per term, O(tree x nodes) in all, and
live only for the call.
Signature descent is what guarantees progress; an arbitrary member of a
least-fixpoint union, or of a greatest fixpoint nested inside one,
would allow stalling or resetting the enclosing fixpoint's progress.
The memory then descends from the anchor to a new leaf, steered at
losing vertices by the admitting child of the node being entered and at
the winning anchor by round-robin over its children.

``verify`` is exact: it builds the product of the game with the
strategy (universal moves left free) and checks, for every color set D
falsifying the objective, that no reachable nontrivial strongly
connected component realizes exactly D.
"""

from dataclasses import dataclass

from . import el
from .fixpoint import ExplicitBackend, build_equations, guard_table
from .games import EXISTENTIAL, iter_nodes
from .oracles import _sccs


class StrategyError(ValueError):
    """Extraction requested outside the winning region, or bad data."""


class ELStrategy:
    """Positional-in-(node, leaf) strategy with explicit memory updates.

    ``initial`` maps winning nodes to a start leaf, ``move`` maps
    existential (node, leaf) pairs to the chosen successor, ``update``
    maps (node, leaf, successor) to the next leaf.
    """

    def __init__(self, game, tree, win_mask, initial, move, update):
        self.game = game
        self.tree = tree
        self.win_mask = win_mask
        self.initial = initial
        self.move = move
        self.update = update

    @property
    def memory_size(self):
        return len(self.tree.leaves)

    def to_text(self):
        lines = ["strategy 1"]
        if self.initial:
            lines.append("initial %d" % self.initial[min(self.initial)])
        for v in sorted(self.initial):
            lines.append("init %d %d" % (v, self.initial[v]))
        for (v, m), w in sorted(self.move.items()):
            lines.append("move %d %d %d" % (v, m, w))
        for (v, m, w), m2 in sorted(self.update.items()):
            if self.game.arena.owner[v] == EXISTENTIAL:
                lines.append("update %d %d %d" % (v, m, m2))
            else:
                lines.append("update %d %d %d %d" % (v, m, w, m2))
        return "\n".join(lines) + "\n"


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


def _merge_min(out, items):
    """Keep in ``out`` the least signature per node over ``items``."""
    for v, sig in items:
        old = out.get(v)
        if old is None or sig < old:
            out[v] = sig
    return out


def ranked_solve(game, tree, max_rounds=10**7):
    """Re-run the fixpoint solve propagating entry-rank signatures.

    Returns one map per tree vertex from nodes in that variable's
    solution to a signature: a tuple with one component per losing
    (least-fixpoint) vertex on the path from the root, outermost first.
    A node's signature is inherited from the witness successor of its
    one-step-attraction certificate, with the component of the anchor
    bumped by one when the anchor is a least fixpoint and all components
    below the anchor reset (the play leaves their scopes).  Universal
    nodes take the worst successor, existential nodes the best; winning
    internal vertices combine children by worst case, losing ones by
    best case.  The maps are the least mutually consistent family, so
    moving along signature-minimal successors never lets a play reset an
    enclosing least fixpoint's progress, which is the certified-strategy
    property the extractor needs.

    Outer iterations re-run inner vertices on inputs they have often
    seen just before.  A leaf run depends only on the leaf and the
    min-merge of its ancestor terms (its ``fixed`` map), and an ancestor
    term only on ``(pad, term)`` and the ancestor's map.  Each keeps its
    last input and result, and a run whose input is that same map, or an
    equal one, returns the stored result without a Kleene stage.  The
    memos hold one entry per leaf and per distinct term, so they stay
    within O(tree x nodes), the order of the returned maps, and they die
    with the call.  ``max_rounds`` bounds the stages actually run.
    """
    arena = game.arena
    system = build_equations(tree)
    equations = {eq.vertex: eq for eq in system.equations}
    lfp_depth = tree.lfp_depth
    guard_masks = guard_table(system, ExplicitBackend(game))
    final = {}
    rounds = [0]
    last_leaf = {}   # leaf -> (fixed map, result map) of its last run
    last_term = {}   # (pad, term) -> (source map, derived map)

    def tick():
        rounds[0] += 1
        if rounds[0] > max_rounds:
            raise RuntimeError("ranked solve failed to stabilize")

    def derive_term(pad, term, src, out):
        """Min-merge into ``out`` the signatures one attraction term
        gives, reading the anchor's solution map ``src``; ``pad`` zeros
        extend them to the leaf's signature length."""
        anc, sub, esc = term
        if not src:
            return
        domain = 0
        for w in src:
            domain |= 1 << w
        bump = not tree.winning[anc]
        pos = lfp_depth[anc] - 1

        def lift(w):
            sig = src[w]
            if bump:
                sig = sig[:pos] + (sig[pos] + 1,)
            return sig + (0,) * pad

        for v in iter_nodes(guard_masks[(sub, esc)]):
            succ_in = arena.succ_mask[v] & domain
            if arena.owner[v] == EXISTENTIAL:
                if not succ_in:
                    continue
                sig = min(lift(w) for w in iter_nodes(succ_in))
            else:
                if arena.succ_mask[v] & ~domain:
                    continue
                sig = max(lift(w) for w in iter_nodes(succ_in))
            old = out.get(v)
            if old is None or sig < old:
                out[v] = sig

    def ancestor_term(pad, term, src):
        """Signatures of one ancestor term, reused while ``src`` repeats."""
        key = (pad, term)
        last = last_term.get(key)
        if last is not None and (last[0] is src or last[0] == src):
            return last[1]
        out = {}
        derive_term(pad, term, src, out)
        last_term[key] = (src, out)
        return out

    def fixed_map(s, eq, ctx):
        """Min-merge of leaf ``s``'s ancestor terms (all but the last,
        its self term); a lone term's map is shared as is, so an
        unchanged term also repeats by identity."""
        parts = [ancestor_term(lfp_depth[s] - lfp_depth[term[0]], term,
                               ctx[term[0]])
                 for term in eq.terms[:-1]]
        if len(parts) == 1:
            return parts[0]
        fixed = {}
        for part in parts:
            _merge_min(fixed, part.items())
        return fixed

    def run(s, ctx):
        eq = equations[s]
        plen = lfp_depth[s]
        if eq.op == "attract":
            own = eq.terms[-1]
            fixed = fixed_map(s, eq, ctx)
            last = last_leaf.get(s)
            if last is not None and (last[0] is fixed or last[0] == fixed):
                final[s] = last[1]
                return last[1]
        if eq.lfp:
            cur = {}
        else:
            cur = {v: (0,) * plen for v in range(arena.n)}
        while True:
            tick()
            if eq.op == "attract":
                new = dict(fixed)
                derive_term(0, own, cur, new)
            else:
                ctx_here = dict(ctx)
                ctx_here[s] = cur
                child_maps = [run(t, ctx_here) for t in eq.children]
                new = {}
                if eq.op == "union":
                    for cmap in child_maps:
                        _merge_min(new, ((v, sig[:plen]) for v, sig in cmap.items()))
                else:
                    common = set(child_maps[0])
                    for cmap in child_maps[1:]:
                        common &= set(cmap)
                    for v in common:
                        new[v] = max(cmap[v][:plen] for cmap in child_maps)
            if eq.lfp:
                merged = _merge_min(dict(cur), new.items())
                if merged == cur:
                    break
                cur = merged
            else:
                if new == cur:
                    break
                cur = new
        if eq.op == "attract":
            last_leaf[s] = (fixed, cur)
        final[s] = cur
        return cur

    run(tree.root, {})
    return final


class _Extractor:
    def __init__(self, game, tree, result):
        self.game = game
        self.arena = game.arena
        self.tree = tree
        self.result = result
        self.values = result.values
        self.ranked = ranked_solve(game, tree)
        for s, rmap in self.ranked.items():
            members = 0
            for v in rmap:
                members |= 1 << v
            if members != result.values[s]:
                raise AssertionError(
                    "ranked solve disagrees with the solver at X%d" % s)

    def choice(self, v, s):
        """Child of losing internal ``s`` whose solution admits ``v``
        with the best signature."""
        plen = self.tree.lfp_depth[s]
        best = None
        for t in self.tree.children[s]:
            sig = self.ranked[t].get(v)
            if sig is None:
                continue
            key = sig[:plen]
            if best is None or key < best[0]:
                best = (key, t)
        if best is None:
            raise AssertionError("no admitting child for node %d at X%d" % (v, s))
        return best[1]

    def pick_move(self, v, m):
        tree = self.tree
        s = tree.anchor(m, self.arena.colors[v])
        src = self.ranked[s]
        bump = not tree.winning[s]
        pos = tree.lfp_depth[s] - 1

        def lifted(w):
            sig = src[w]
            if bump:
                sig = sig[:pos] + (sig[pos] + 1,)
            return sig

        def continuation_depth(w):
            # Tie-break among signature-minimal successors: prefer the
            # move whose colors anchor deepest against the current
            # memory, i.e. the walk disturbs the tree least.
            return -tree.depth[tree.anchor(m, self.arena.colors[w])]

        candidates = [w for w in self.arena.succ[v] if w in src]
        if not candidates:
            raise AssertionError("no admitted successor at node %d leaf %d" % (v, m))
        return min(candidates, key=lambda w: (lifted(w), continuation_depth(w), w))

    def descend(self, v_next, start, from_leaf):
        """Leaf below ``start`` per the memory-update rules; ``v_next``
        steers losing vertices, ``from_leaf`` seeds the round-robin."""
        tree = self.tree
        cur = start
        at_pivot = True
        while not tree.is_leaf(cur):
            kids = tree.children[cur]
            if not tree.winning[cur]:
                cur = self.choice(v_next, cur)
            elif at_pivot:
                o = kids.index(tree.child_towards(cur, from_leaf))
                cur = kids[(o + 1) % len(kids)]
            else:
                cur = kids[0]
            at_pivot = False
        return cur

    def initial_leaf(self, v):
        tree = self.tree
        cur = tree.root
        while not tree.is_leaf(cur):
            if not tree.winning[cur]:
                cur = self.choice(v, cur)
            else:
                cur = tree.children[cur][0]
        return cur

    def next_memory(self, v, m, w):
        s = self.tree.anchor(m, self.arena.colors[v])
        if self.tree.is_leaf(s):
            return s
        return self.descend(w, s, m)


def extract(game, tree, result):
    """Winning strategy on the solved region (memory = tree leaves)."""
    ex = _Extractor(game, tree, result)
    arena = game.arena
    win = result.values[tree.root]
    initial = {}
    move = {}
    update = {}
    for v in iter_nodes(win):
        initial[v] = ex.initial_leaf(v)
    for m in tree.leaves:
        members = result.values[m] & win
        for v in iter_nodes(members):
            if arena.owner[v] == EXISTENTIAL:
                w = ex.pick_move(v, m)
                move[(v, m)] = w
                update[(v, m, w)] = ex.next_memory(v, m, w)
            else:
                for w in arena.succ[v]:
                    update[(v, m, w)] = ex.next_memory(v, m, w)
    return ELStrategy(game, tree, win, initial, move, update)


def with_redirected_move(game, tree, result, strategy, v, m, new_w):
    """Copy of ``strategy`` with one move redirected (mutation testing).

    The memory update for the new edge is recomputed with the regular
    rules so the result stays total.
    """
    ex = _Extractor(game, tree, result)
    move = dict(strategy.move)
    update = dict(strategy.update)
    move[(v, m)] = new_w
    try:
        update[(v, m, new_w)] = ex.next_memory(v, m, new_w)
    except (KeyError, AssertionError):
        update[(v, m, new_w)] = tree.min_leaf
    return ELStrategy(game, tree, strategy.win_mask, dict(strategy.initial),
                      move, update)


def product_states(game, strategy, claimed):
    """Reachable (node, leaf) pairs of the strategy product."""
    arena = game.arena
    seen = set()
    stack = [(v, strategy.initial[v]) for v in iter_nodes(claimed)
             if v in strategy.initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        v, m = state
        if arena.owner[v] == EXISTENTIAL:
            succs = [strategy.move.get((v, m))]
        else:
            succs = arena.succ[v]
        for w in succs:
            if w is None:
                continue
            m2 = strategy.update.get((v, m, w))
            if m2 is not None:
                stack.append((w, m2))
    return seen


@dataclass
class VerifyResult:
    ok: bool
    reason: str = ""
    prefix: tuple = ()
    loop: tuple = ()

    def __bool__(self):
        return self.ok


def verify(game, strategy, claimed):
    """Exact check that ``strategy`` wins every node of ``claimed``."""
    arena = game.arena
    phi = game.objective

    index = {}
    states = []
    adj = []
    parent = {}
    queue = []

    def intern(state):
        if state not in index:
            index[state] = len(states)
            states.append(state)
            adj.append(None)
            queue.append(state)
        return index[state]

    for v in sorted(iter_nodes(claimed)):
        if v not in strategy.initial:
            return VerifyResult(False, "no initial memory for node %d" % v)
        intern((v, strategy.initial[v]))

    head = 0
    while head < len(queue):
        v, m = queue[head]
        i = index[(v, m)]
        head += 1
        if arena.owner[v] == EXISTENTIAL:
            w = strategy.move.get((v, m))
            if w is None:
                return VerifyResult(
                    False, "no move at node %d with memory %d" % (v, m),
                    prefix=_path_to(parent, states, i))
            if not arena.succ_mask[v] >> w & 1:
                return VerifyResult(
                    False, "move %d -> %d is not an edge" % (v, w),
                    prefix=_path_to(parent, states, i))
            succs = [w]
        else:
            succs = arena.succ[v]
        out = []
        for w in succs:
            if not claimed >> w & 1:
                pfx = _path_to(parent, states, i) + ((w, None),)
                return VerifyResult(
                    False, "play escapes the claimed region at node %d" % w,
                    prefix=pfx)
            m2 = strategy.update.get((v, m, w))
            if m2 is None:
                return VerifyResult(
                    False, "no memory update for (%d, %d) -> %d" % (v, m, w),
                    prefix=_path_to(parent, states, i))
            known = (w, m2) in index
            j = intern((w, m2))
            if not known:
                parent[j] = i
            out.append(j)
        adj[i] = out

    for d in el.subsets_of(game.table.full_mask):
        if el.evaluate(phi, d):
            continue
        keep = [i for i, (v, _) in enumerate(states)
                if not arena.colors[v] & ~d]
        keepset = set(keep)
        sub = {i: [j for j in adj[i] if j in keepset] for i in keep}
        for comp in _sccs(sub):
            if len(comp) == 1:
                i = next(iter(comp))
                if i not in sub[i]:
                    continue
            union = 0
            for i in comp:
                union |= arena.colors[states[i][0]]
            if union == d:
                prefix, loop = _build_lasso(states, sub, parent, comp, d, arena)
                return VerifyResult(
                    False,
                    "strategy admits a play with infinite color set %s"
                    % game.table.format_mask(d),
                    prefix=prefix, loop=loop)
    return VerifyResult(True)


def _path_to(parent, states, i):
    path = [i]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(states[j] for j in path)


def _bfs_path(sub, src, targets):
    """Shortest path src..target inside restricted adjacency; may be [src]."""
    if src in targets:
        return [src]
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for i in frontier:
            for j in sub[i]:
                if j in prev:
                    continue
                prev[j] = i
                if j in targets:
                    path = [j]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                nxt.append(j)
        frontier = nxt
    raise AssertionError("target unreachable inside component")


def _build_lasso(states, sub, parent, comp, d, arena):
    comp_sorted = sorted(comp)
    entry = comp_sorted[0]
    # Path up to, but not including, the loop entry.
    prefix_states = _path_to(parent, states, entry)[:-1]

    loop_idx = [entry]
    for goal in comp_sorted[1:]:
        seg = _bfs_path(sub, loop_idx[-1], {goal})
        loop_idx.extend(seg[1:])
    seg = _bfs_path(sub, loop_idx[-1], {entry})
    loop_idx.extend(seg[1:])
    if len(loop_idx) > 1:
        loop_idx = loop_idx[:-1]
    else:
        # single self-looping state
        loop_idx = [entry]

    def union_of(idxs):
        u = 0
        for i in idxs:
            u |= arena.colors[states[i][0]]
        return u

    # Greedy trim: cut detours between repeated states while the loop
    # still realizes exactly d.
    changed = True
    while changed:
        changed = False
        seen = {}
        for pos, i in enumerate(loop_idx):
            if i in seen:
                cand = loop_idx[:seen[i]] + loop_idx[pos:]
                if union_of(cand) == d:
                    loop_idx = cand
                    changed = True
                    break
            else:
                seen[i] = pos
    return prefix_states, tuple(states[i] for i in loop_idx)


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
