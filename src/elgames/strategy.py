"""Finite-memory strategies extracted from fixpoint solutions, plus an
exact verifier.

Memory values are leaves of the Zielonka tree.  Leaving node ``v`` with
memory ``m``, the anchor of ``v``'s colors above ``m`` names the
variable whose controllable predecessor admitted ``v``; the move goes
to a successor in that variable's solution.  Successors are ordered by
entry-rank signatures: one Kleene-stage component per least-fixpoint
vertex enclosing the variable, outermost first, computed by the
fixpoint solver itself with signature maps as its values
(:class:`RankBackend`, :func:`ranked_solve`).  The backend works on
the arena's predecessor lists: it solves each leaf run in one pass (a
Dijkstra order for least-fixpoint leaves, counter pruning for
greatest-fixpoint ones) and derives each ancestor term from the
predecessors of the map it reads.  A greatest fixpoint starts from
zeros over the verdict solve's set of its vertex, not over every node.
Signature descent is what guarantees progress; an arbitrary member of a
least-fixpoint union, or of a greatest fixpoint nested inside one,
would allow stalling or resetting the enclosing fixpoint's progress.
The memory then descends from the anchor to a new leaf, steered at
losing vertices by the admitting child of the node being entered and at
the winning anchor by round-robin over its children.

``extract`` builds moves and memory updates at the reachable (node,
leaf) pairs only: it explores the product from each winning node's
initial leaf, and strategy files list only those entries.

``verify`` is exact: it builds the product of the game with the
strategy (universal moves left free) and checks its cycles with
:func:`losing_cycle`, SCC-first (Emerson & Lei 1987; Baier et al.,
ATVA 2019).  That search reads only an adjacency, colors and the
objective's own truth table, not the strategy or the Zielonka tree.
"""

import heapq
from dataclasses import dataclass

from . import el, fixpoint
from .fixpoint import ExplicitBackend, build_equations, guard_table
from .games import EXISTENTIAL, iter_nodes

# Anchor maps whose derived term each (pad, term) keeps, newest first.
TERM_WINDOW = 3


class ELStrategy:
    """Positional-in-(node, leaf) strategy with explicit memory updates.

    ``initial`` maps winning nodes to a start leaf, ``move`` maps
    existential (node, leaf) pairs to the chosen successor, ``update``
    maps (node, leaf, successor) to the next leaf.  ``extract`` fills
    ``move`` and ``update`` at the pairs reachable from the initial
    ones only, so ``to_text`` lists only those.
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


class RankBackend:
    """Entry-rank signature maps as values of the fixpoint engine.

    A value maps the nodes of a variable's solution to their signature:
    a tuple with one component per losing (least-fixpoint) vertex on the
    path from the root, outermost first.  A node's signature is
    inherited from the witness successor of its one-step-attraction
    certificate, with the component of the anchor bumped by one when the
    anchor is a least fixpoint and all components below the anchor reset
    (the play leaves their scopes).  Universal nodes take the worst
    successor, existential nodes the best; union keeps each node's best
    signature, intersection its worst over the common nodes, cut to the
    vertex's length.  Bottom is the empty map; top maps the nodes of the
    verdict's set of the vertex (``values``) to zeros.  That bounds the
    greatest fixpoint: the operations act on a map's keys as the set
    backend acts on masks, and in every run each ancestor's keys lie
    inside its verdict set (least fixpoints climb from empty, greatest
    ones start at that set and only lose keys), so by monotonicity each
    run's keys lie inside the vertex's verdict set too.  There is one
    top map per vertex, kept for the life of the backend, and
    intersecting it with a map only cuts that map: the intersection of
    all the children's maps lies inside the vertex's set.  The cached
    top is a real map: leaves read it as their anchor's value in the
    first stage of a greatest fixpoint.

    A term's map depends only on ``(pad, term)`` and the anchor's map;
    each keeps a window of its newest ``TERM_WINDOW`` (3) inputs and
    results, and an input that is one of those maps (looked up by
    identity first), or equal to one, returns the stored result.  An
    anchor's map often comes back after one or two other maps were read
    through the same term, which a single stored map misses: on the
    three ``explicit-deep`` games the window, with the engine's prefix
    unions, cuts ``derive`` calls from 1,778 to 521.  The window holds
    three entries per distinct term, O(tree x nodes), the order of the
    maps the solve returns.  A term that is computed walks the guard's
    predecessors of the anchor's map, so it costs the guard edges into
    that map, not the guard.

    The engine asks ``term`` for a leaf's ancestor terms only; ``leaf``
    solves the leaf's own equation in one call, a min-max reachability
    with non-negative lexicographic weights.  Least-fixpoint leaves run
    Dijkstra's order with a counter per universal node, as in the
    attractor with counters (Gradel, Thomas & Wilke, LNCS 2500, ch. 2);
    greatest-fixpoint leaves prune with the same counters, threshold by
    threshold.  Both give the maps the Kleene stages would.
    """

    def __init__(self, game, tree, guards, values):
        self.arena = game.arena
        self.tree = tree
        self.guards = guards
        self.values = values
        self.recent = {}   # (pad, term) -> its newest (source, derived) maps
        self._cores = {}   # guard mask -> _core(guard)
        self._intos = {}   # node mask -> _into(mask)
        self._tops = {}   # vertex -> all-zeros map of its verdict solution

    def bottom(self, s):
        return {}

    def top(self, s):
        top = self._tops.get(s)
        if top is None:
            top = self._tops[s] = dict.fromkeys(
                iter_nodes(self.values[s]), (0,) * self.tree.lfp_depth[s])
        return top

    def union(self, a, b, s):
        # No cut: unions are taken at leaves and at losing vertices, whose
        # children are winning and so share their signature length.
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return a
        out = dict(a)
        for v, sig in b.items():
            old = out.get(v)
            if old is None or sig < old:
                out[v] = sig
        return out

    def intersect(self, a, b, s):
        plen = self.tree.lfp_depth[s]
        if a is self._tops.get(s):   # max(zeros, sig) == sig
            return {v: sig[:plen] for v, sig in b.items()}
        return {v: max(a[v][:plen], b[v][:plen]) for v in a.keys() & b.keys()}

    def equal(self, a, b):
        return a is b or a == b

    def term(self, s, term, src):
        lfp_depth = self.tree.lfp_depth
        pad = lfp_depth[s] - lfp_depth[term[0]]
        key = (pad, term)
        window = self.recent.get(key, ())
        for prev, out in window:
            if prev is src:
                return out
        for prev, out in window:
            if prev == src:
                return out
        out = self.derive(pad, term, src)
        self.recent[key] = ((src, out),) + window[:TERM_WINDOW - 1]
        return out

    def leaf(self, s, own, fixed, lfp):
        """Map of leaf ``s``: the fixpoint of ``fixed`` united with its
        own term, in one pass.  The terms of a leaf partition the color
        sets, so no node of ``fixed`` is in the own guard and ``fixed``
        stays as it is."""
        guard = self.guards[own[1:]]
        if lfp:
            return self._reach(guard, fixed)
        return self._stay(guard, fixed, self.tree.lfp_depth[s])

    def _reach(self, guard, fixed):
        """Least fixpoint: a min-max reachability of ``fixed`` through
        the guard, each step adding one to the last component.  Keys
        only grow, so nodes settle in heap order (Dijkstra): an
        existential node takes its first settled successor, a universal
        one its last."""
        owner, succ = self.arena.owner, self.arena.succ
        into = self._into(guard)
        out = dict(fixed)
        left = {}   # guard node -> successors it still waits for
        heap = [(sig, w) for w, sig in fixed.items() if w in into]
        heapq.heapify(heap)
        while heap:
            sig, w = heapq.heappop(heap)
            out[w] = sig
            lifted = sig[:-1] + (sig[-1] + 1,)
            for v in into.get(w, ()):
                n = left.get(v)
                if n is None:
                    n = 1 if owner[v] == EXISTENTIAL else len(succ[v])
                left[v] = n - 1
                if n == 1:
                    heapq.heappush(heap, (lifted, v))
        return out

    def _stay(self, guard, fixed, plen):
        """Greatest fixpoint: a node's signature is at most ``c`` iff it
        is in nu Z. {fixed <= c} | (guard & cpre Z).  The guard's safe
        core, nu Z. guard & cpre Z, gets zeros whatever ``fixed`` is.
        Any other node that can stay reaches ``fixed`` through guard
        nodes outside the core (the ones that cannot would form a trap
        inside the guard, so belong to the core), and only those
        candidates are counted.  Candidates that cannot stay in
        guard | fixed are pruned; then the fixed nodes leave threshold
        by threshold, highest first, and a candidate pruned at ``c``
        gets ``c``.  Survivors get zeros, the least signature, so the
        zero threshold changes nothing and is skipped."""
        owner, succ_mask = self.arena.owner, self.arena.succ_mask
        core, core_nodes, rest = self._core(guard)
        into = self._into(rest)
        zeros = (0,) * plen
        left = {}   # candidate -> removals it survives
        stack = [w for w in fixed if w in into]
        while stack:
            for v in into.get(stack.pop(), ()):
                if v not in left:
                    left[v] = 0
                    stack.append(v)
        live = core
        for v in (*fixed, *left):
            live |= 1 << v
        for v in left:
            m = succ_mask[v]
            if owner[v] == EXISTENTIAL:
                left[v] = (m & live).bit_count()
            elif not m & ~live:
                left[v] = 1
            if not left[v]:
                stack.append(v)
        out = dict.fromkeys(core_nodes, zeros)
        out.update(fixed)
        _prune(into, left, stack)
        leaving = {}
        for v, sig in fixed.items():
            leaving.setdefault(sig, []).append(v)
        for sig in sorted(leaving, reverse=True):
            if sig == zeros:
                break
            _prune(into, left, leaving[sig], out, sig)
        for v, n in left.items():
            if n:
                out[v] = zeros
        return out

    def _core(self, guard):
        """Per guard mask: its safe core nu Z. guard & cpre Z, as a mask
        and as nodes, and the mask of the other guard nodes."""
        cached = self._cores.get(guard)
        if cached is None:
            owner, succ_mask = self.arena.owner, self.arena.succ_mask
            left = {}
            for v in iter_nodes(guard):
                m = succ_mask[v]
                if owner[v] == EXISTENTIAL:
                    left[v] = (m & guard).bit_count()
                else:
                    left[v] = 0 if m & ~guard else 1
            _prune(self._into(guard), left, [v for v, n in left.items() if not n])
            core = 0
            for v, n in left.items():
                if n:
                    core |= 1 << v
            cached = self._cores[guard] = (core, tuple(iter_nodes(core)), guard & ~core)
        return cached

    def _into(self, mask):
        """Per node mask: the predecessors each node has in it (nodes
        with none are left out)."""
        into = self._intos.get(mask)
        if into is None:
            into = self._intos[mask] = {}
            for v in iter_nodes(mask):
                for w in self.arena.succ[v]:
                    into.setdefault(w, []).append(v)
        return into

    def derive(self, pad, term, src):
        """Signatures one attraction term gives, reading the anchor's map
        ``src``; ``pad`` zeros extend them to the leaf's length.  Walks
        the guard's predecessors of each node of ``src``: an existential
        one keeps its least signature, a universal one its greatest, once
        it has seen all its successors.  The signatures of ``src`` have
        one length, so lifting keeps their order and can follow the min
        or max."""
        owner, succ = self.arena.owner, self.arena.succ
        into = self._into(self.guards[term[1:]])
        best = {}
        seen = {}   # universal node -> its successors in src so far
        for w, sig in src.items():
            for v in into.get(w, ()):
                old = best.get(v)
                if owner[v] == EXISTENTIAL:
                    if old is None or sig < old:
                        best[v] = sig
                else:
                    seen[v] = seen.get(v, 0) + 1
                    if old is None or sig > old:
                        best[v] = sig
        for v, n in seen.items():
            if n < len(succ[v]):
                del best[v]
        anc = term[0]
        tail = (0,) * pad
        if self.tree.winning[anc]:
            return {v: sig + tail for v, sig in best.items()} if pad else best
        pos = self.tree.lfp_depth[anc] - 1
        return {v: sig[:pos] + (sig[pos] + 1,) + tail for v, sig in best.items()}


def _prune(into, left, stack, out=None, sig=None):
    """Remove the nodes on ``stack`` and, transitively, every node of
    ``left`` whose count of removals it survives drops to zero; record
    ``sig`` in ``out`` for each node so removed from ``left``.  ``into``
    maps a node to its predecessors that may be in ``left``."""
    while stack:
        for v in into.get(stack.pop(), ()):
            n = left.get(v)
            if n:
                left[v] = n - 1
                if n == 1:
                    if out is not None:
                        out[v] = sig
                    stack.append(v)


def ranked_solve(game, tree, values):
    """Entry-rank signature map of every tree vertex (:class:`RankBackend`),
    given the verdict solve's node set of every vertex, ``values``.

    The maps are the least mutually consistent family, so moving along
    signature-minimal successors never lets a play reset an enclosing
    least fixpoint's progress, which is the certified-strategy property
    the extractor needs.  They come from the solver's own nested
    recursion, with the same per-variable stage bound as a verdict solve.
    Greatest fixpoints start from zeros over ``values``, which lies
    between their fixpoint and the all-nodes map; descent from there
    ends at the same maps in no more stages, and only least-fixpoint
    stages enter signatures.
    """
    system = build_equations(tree)
    backend = RankBackend(game, tree, guard_table(system, ExplicitBackend(game)),
                          values)
    return fixpoint.solve(system, backend, max_stages=game.arena.n + 1).values


class _Extractor:
    def __init__(self, game, tree, result):
        self.game = game
        self.arena = game.arena
        self.tree = tree
        self.result = result
        self.values = result.values
        self.ranked = ranked_solve(game, tree, result.values)
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
        # Signature-minimal successors in the anchor's map.  Its
        # signatures have one length, so lifting them (one more in the
        # last component at a losing anchor) would keep their order.
        src = self.ranked[tree.anchor(m, self.arena.colors[v])]

        def continuation_depth(w):
            # Tie-break among signature-minimal successors: prefer the
            # move whose colors anchor deepest against the current
            # memory, i.e. the walk disturbs the tree least.
            return -tree.depth[tree.anchor(m, self.arena.colors[w])]

        candidates = [w for w in self.arena.succ[v] if w in src]
        if not candidates:
            raise AssertionError("no admitted successor at node %d leaf %d" % (v, m))
        return min(candidates, key=lambda w: (src[w], continuation_depth(w), w))

    def position(self, v, m):
        """Where node ``v``'s colors attach against memory leaf ``m``:
        the anchor and the slot of its child towards ``m`` (-1 when the
        anchor is ``m`` itself)."""
        tree = self.tree
        s = tree.anchor(m, self.arena.colors[v])
        if s == m:
            return s, -1
        return s, tree.children[s].index(tree.child_towards(s, m))

    def descend(self, v_next, start, slot=-1):
        """Leaf below ``start`` per the memory-update rules: ``v_next``
        steers losing vertices; a winning ``start`` takes the child after
        ``slot``, round-robin, and every other winning vertex its first
        child."""
        tree = self.tree
        cur = start
        kids = tree.children[cur]
        while kids:
            if tree.winning[cur]:
                cur = kids[(slot + 1) % len(kids)]
            else:
                cur = self.choice(v_next, cur)
            slot = -1
            kids = tree.children[cur]
        return cur

    def close(self, move, update, pairs):
        """Extend the partial strategy ``move``/``update`` over the (node,
        leaf) pairs reachable from ``pairs``, keeping the entries it has.
        A pair whose node is outside its leaf's solution or the winning
        region gets no entries and is not left."""
        arena, values = self.arena, self.values
        win = values[self.tree.root]
        seen = set()
        stack = list(pairs)
        while stack:
            pair = stack.pop()
            if pair in seen:
                continue
            seen.add(pair)
            v, m = pair
            if not (values[m] & win) >> v & 1:
                continue
            if arena.owner[v] == EXISTENTIAL:
                w = move.get(pair)
                if w is None:
                    w = move[pair] = self.pick_move(v, m)
                succs = (w,)
            else:
                succs = arena.succ[v]
            s, slot = self.position(v, m)
            for w in succs:
                m2 = update.get((v, m, w))
                if m2 is None:
                    m2 = update[(v, m, w)] = self.descend(w, s, slot)
                stack.append((w, m2))


def extract(game, tree, result):
    """Winning strategy on the solved region (memory = tree leaves),
    with moves and updates at the reachable (node, leaf) pairs only."""
    ex = _Extractor(game, tree, result)
    win = result.values[tree.root]
    initial = {v: ex.descend(v, tree.root) for v in iter_nodes(win)}
    move = {}
    update = {}
    ex.close(move, update, initial.items())
    return ELStrategy(game, tree, win, initial, move, update)


@dataclass
class VerifyResult:
    ok: bool
    reason: str = ""
    prefix: tuple = ()
    loop: tuple = ()

    def __bool__(self):
        return self.ok


def _product(game, strategy, claimed):
    """Breadth-first walk of the strategy product from the initial pairs
    of ``claimed`` (universal moves left free).

    Returns ``(states, adj, parent, failure)``: the (node, leaf) states
    in visiting order, each state's successor indices, the index each
    state was first reached from, and the first failure as a
    :class:`VerifyResult` (``None`` when there is none).  A missing
    initial leaf, move or update, a move along a non-edge and a play
    leaving ``claimed`` each stop the walk with their reason.
    """
    arena = game.arena
    owner, succ, succ_mask = arena.owner, arena.succ, arena.succ_mask
    move, update = strategy.move, strategy.update
    index = {}
    states = []
    adj = []
    parent = {}

    def fail(reason, i=None, tail=()):
        prefix = () if i is None else _path_to(parent, states, i) + tail
        return states, adj, parent, VerifyResult(False, reason, prefix=prefix)

    for v in sorted(iter_nodes(claimed)):
        if v not in strategy.initial:
            return fail("no initial memory for node %d" % v)
        index[(v, strategy.initial[v])] = len(states)
        states.append((v, strategy.initial[v]))

    i = 0
    while i < len(states):
        v, m = states[i]
        if owner[v] == EXISTENTIAL:
            w = move.get((v, m))
            if w is None:
                return fail("no move at node %d with memory %d" % (v, m), i)
            if not succ_mask[v] >> w & 1:
                return fail("move %d -> %d is not an edge" % (v, w), i)
            succs = (w,)
        else:
            succs = succ[v]
        out = []
        for w in succs:
            if not claimed >> w & 1:
                return fail("play escapes the claimed region at node %d" % w,
                            i, tail=((w, None),))
            m2 = update.get((v, m, w))
            if m2 is None:
                return fail("no memory update for (%d, %d) -> %d" % (v, m, w), i)
            j = index.get((w, m2))
            if j is None:
                j = index[(w, m2)] = len(states)
                states.append((w, m2))
                parent[j] = i
            out.append(j)
        adj.append(out)
        i += 1
    return states, adj, parent, None


def product_states(game, strategy, claimed):
    """Reachable (node, leaf) pairs of the strategy product, as far as
    ``verify``'s walk gets: all of them when the product is complete."""
    return set(_product(game, strategy, claimed)[0])


def verify(game, strategy, claimed):
    """Exact check that ``strategy`` wins every node of ``claimed``.

    The product of the game with the strategy is built from the initial
    pairs of ``claimed`` (:func:`_product`); moves and updates are
    needed at the reachable pairs only.  Its cycles are then checked by
    :func:`losing_cycle`, and a losing one fails with a lasso through
    every state of its component.  The cycle check builds its own truth
    table of the objective rather than reading the Zielonka tree's, so
    that a wrong tree cannot make a losing strategy pass.
    """
    states, adj, parent, failure = _product(game, strategy, claimed)
    if failure is not None:
        return failure
    colors = [game.arena.colors[v] for v, _ in states]
    found = losing_cycle(adj, colors, game.objective)
    if found is None:
        return VerifyResult(True)
    comp, sub, union = found
    prefix, loop = _lasso(states, parent, comp, sub)
    return VerifyResult(
        False, "strategy admits a play with infinite color set %s"
        % game.table.format_mask(union), prefix=prefix, loop=loop)


def losing_cycle(adj, colors, phi):
    """A strongly connected set of states whose color union falsifies
    ``phi``, searched SCC-first; ``None`` when every cycle satisfies it.

    ``adj[i]`` lists the successors of state ``i`` and ``colors[i]`` is
    its color mask.  Returns ``(comp, sub, union)``: the component, its
    adjacency restricted to itself, and its color union.  A nontrivial
    component whose union U falsifies ``phi`` is returned; otherwise
    each maximal falsifying subset of U is searched again, over the
    component's states whose colors lie inside it.  A cycle whose color
    set D falsifies ``phi`` lies in one component; if that component's U
    satisfies ``phi``, D is a proper subset of U, so it lies inside a
    maximal falsifying one and the cycle survives the restriction.
    Unions shrink strictly, so the search ends.

    ``phi`` is evaluated through its truth table over the colors it
    mentions (:func:`el.truth_table`), built from ``phi`` alone; a union
    is looked up with the other colors cut off, and the maximal
    falsifying subsets are those of the cut union
    (:func:`el.maximal_flipped`) with the other colors put back.
    """
    used = 0
    for cid in el.colors_mentioned(phi):
        used |= 1 << cid
    truth = el.truth_table(phi, used.bit_length())
    falsifying = {}   # color union -> its maximal falsifying subsets
    work = [(range(len(adj)), -1)]
    while work:
        nodes, d = work.pop()
        keep = {i for i in nodes if not colors[i] & ~d}
        for comp in _sccs(adj, keep):
            union = 0
            for i in comp:
                union |= colors[i]
            subsets = falsifying.get(union)
            if subsets is None:
                cut = union & used
                if not truth >> cut & 1:
                    own = {i: [j for j in adj[i] if j in comp] for i in comp}
                    return comp, own, union
                rest = union & ~used
                subsets = falsifying[union] = [
                    e | rest for e in el.maximal_flipped(truth, cut, True)]
            work.extend((comp, e) for e in subsets)
    return None


def _sccs(adj, members):
    """Iterative Tarjan over ``adj`` restricted to the set ``members``;
    yields, as node sets, the components that hold a cycle."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    for root in members:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in members:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    if len(comp) > 1 or v in adj[v]:
                        yield comp


def _path_to(parent, states, i):
    path = [i]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(states[j] for j in path)


def _bfs_path(sub, src, goal):
    """Shortest path src..goal inside restricted adjacency; may be [src]."""
    if src == goal:
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
                if j == goal:
                    path = [j]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                nxt.append(j)
        frontier = nxt
    raise AssertionError("goal unreachable inside component")


def _lasso(states, parent, comp, sub):
    """Prefix from an initial state to the component's least state, and a
    closed walk from there through every state of the component, so the
    walk's color set is the component's union."""
    order = sorted(comp)
    entry = order[0]
    loop = [entry]
    for goal in order[1:] + [entry]:
        loop.extend(_bfs_path(sub, loop[-1], goal)[1:])
    if len(loop) > 1:
        loop.pop()   # back at the entry; a lone state keeps its self-loop
    prefix = _path_to(parent, states, entry)[:-1]
    return prefix, tuple(states[i] for i in loop)
