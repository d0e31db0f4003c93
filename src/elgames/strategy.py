"""Finite-memory strategies extracted from fixpoint solutions, plus an
exact verifier.

Memory values are leaves of the Zielonka tree.  Leaving node ``v`` with
memory ``m``, the anchor of ``v``'s colors above ``m`` names the
variable whose controllable predecessor admitted ``v``; the move goes
to a successor in that variable's solution.  Successors are ordered by
entry-rank signatures: one Kleene-stage component per least-fixpoint
vertex enclosing the variable, outermost first, computed by the
fixpoint solver itself with signature maps as its values
(:class:`RankBackend`, :func:`ranked_solve`).  A map is a few rings,
one per signature, each the mask of the nodes whose signature is at
most its own: the progress measures of Jurdzinski (STACS 2000) kept as
the nested rings of Piterman and Pnueli (LICS 2006) and the stored
approximants of GR(1) synthesis (Bloem, Jobstmann, Piterman, Pnueli and
Sa'ar, JCSS 2012).  The backend computes them with the explicit set
backend's guard and memoized ``cpre``, applied to each ring's mask, and
solves each least-fixpoint leaf run in one pass.  It orders maps as
progress measures, so the solver warm-starts ring runs from stored ones
as it does node-set runs.  A greatest fixpoint starts from a stored
run's rings or from zeros over its vertex's bound: the verdict solve's
set, or every node of an arena the root wins entirely.
Signature descent is what guarantees progress; an arbitrary member of a
least-fixpoint union, or of a greatest fixpoint nested inside one,
would allow stalling or resetting the enclosing fixpoint's progress.
The memory then descends from the anchor to a new leaf, steered at
losing vertices by the admitting child of the node being entered and at
the winning anchor by round-robin over its children.

``extract`` runs that solve, :func:`ranked_solve`, once, on the
verdict's own set backend (``SolveResult.backend``) and equation system
(``SolveResult.system``), reusing its color sets, guards and ``cpre``
results and building no equations; ``synthesis.extract_controller``
runs it as its only explicit solve, on the symbolic solve's system.
The tree and system are the ones ``fixpoint.compile_objective`` shares
between every game with an equal objective and color table; the ranked
solve only reads them, and keeps its maps in its own result.  Both
callers keep the rings: a move is read off the first ring of the
anchor's map that meets the node's successors, and a signature off the
first ring whose mask holds it.
It builds moves and memory updates at the reachable (node, leaf) pairs
only: it explores the product from each winning node's initial leaf,
and strategy files list only those entries.

``verify`` is exact: it builds the product of the game with the
strategy (universal moves left free) and checks its cycles with
:func:`losing_cycle`, SCC-first (Emerson & Lei 1987; Baier et al.,
ATVA 2019).  That search reads only an adjacency, colors and the
objective's own truth table, not the strategy or the Zielonka tree.
The table comes from a per-objective cache built from the formula
alone (:func:`_objective_table`), so a wrong or shared tree cannot make
a losing strategy pass.
"""

from functools import lru_cache

from . import el, fixpoint
# build_equations is unused here, but e2ebench/tracing.py patches
# strategy.build_equations.
from .fixpoint import build_equations
from .games import EXISTENTIAL, iter_nodes


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
    """Entry-rank signature maps as values of the fixpoint engine, kept
    as rings of cumulative node masks.

    A signature has one component per losing (least-fixpoint) vertex on
    the path from the root, outermost first.  A value is the rings
    ``((sig, mask), ...)`` of a map from nodes to signatures, each mask
    the nodes whose signature is at most ``sig``: signatures strictly
    increasing, masks nonempty and strictly growing, so the first ring
    whose mask holds a node carries its signature and the last mask is
    the map's node set.  Bottom is ``()``; top gives zeros to the
    vertex's bound (``values``: the verdict's set, or every node of an
    arena the root wins entirely), which holds each greatest-fixpoint
    run's nodes.  A node inherits the signature of the witness successor
    of its one-step attraction, the anchor's component bumped when the
    anchor is a least fixpoint and zeros below it; universal nodes take
    the worst successor, existential ones the best.  Union keeps each
    node's best signature, intersection its worst over the common nodes,
    cut to the vertex's length.

    A node's derived signature is at most the lift of ``sig`` iff it is
    in the term's guard and in the controllable predecessor of the
    anchor's mask at ``sig``: ``cpre``'s rule is the min/max rule over
    successors.  So the backend's only graph operation is the set
    backend's memoized ``term`` (:class:`ExplicitBackend`, ``sets``),
    applied ring by ring.  ``leaf`` solves a least-fixpoint leaf's own
    equation in one call with the same rule; greatest-fixpoint leaves
    run as Kleene stages, warm-started in the order of ``subset``.
    """

    def __init__(self, sets, tree, values):
        self.sets = sets
        self.tree = tree
        self.values = values

    def bottom(self):
        return ()

    def top(self, s):
        mask = self.values[s]
        return (((0,) * self.tree.lfp_depth[s], mask),) if mask else ()

    def union(self, a, b):
        # No cut: unions are taken at leaves and at losing vertices, whose
        # children are winning and so share their signature length.
        if not b:
            return a
        if not a:
            return b
        out = []
        acc = 0
        for sig, mask in sorted(a + b):
            mask |= acc
            if mask != acc:
                acc = mask
                if out and out[-1][0] == sig:
                    out.pop()
                out.append((sig, mask))
        return tuple(out)

    def intersect(self, a, b, s):
        # Cut to the vertex's length: the last mask of each prefix.
        plen = self.tree.lfp_depth[s]
        a = {sig[:plen]: mask for sig, mask in a}
        b = {sig[:plen]: mask for sig, mask in b}
        out = []
        ca = cb = last = 0
        for sig in sorted(a.keys() | b.keys()):
            ca = a.get(sig, ca)
            cb = b.get(sig, cb)
            both = ca & cb
            if both != last:
                last = both
                out.append((sig, both))
        return tuple(out)

    def term(self, s, term, src):
        """Rings one attraction term of leaf ``s`` gives, reading the
        anchor's rings ``src``: the term of each ring's mask, kept where
        it grows, at the ring's signature lifted to the leaf (bumped at a
        losing anchor, then zero-padded)."""
        tree = self.tree
        anc = term[0]
        pad = (0,) * (tree.lfp_depth[s] - tree.lfp_depth[anc])
        bump = not tree.winning[anc]
        out = []
        last = 0
        for sig, mask in src:
            mask = self.sets.term(s, term, mask)
            if mask != last:
                last = mask
                if bump:
                    sig = sig[:-1] + (sig[-1] + 1,)
                out.append((sig + pad, mask))
        return tuple(out)

    def subset(self, a, b):
        """``a`` below ``b`` in the progress-measure order: every node of
        ``a`` is in ``b`` with a signature at most its own, so each mask
        of ``a`` lies inside ``b``'s mask at its signature, checked in
        one merge pass.  Compared values belong to one vertex, so their
        signatures have one length.  About half the calls compare a
        stored value with itself."""
        if a is b:
            return True
        reach = i = 0
        for sig, mask in a:
            while i < len(b) and b[i][0] <= sig:
                reach = b[i][1]
                i += 1
            if mask & ~reach:
                return False
        return True

    def leaf(self, s, own, fixed):
        """Rings of least-fixpoint leaf ``s``: the least fixpoint of
        ``fixed`` united with its own term, in one pass.  The terms of a
        leaf partition the color sets, so no node of ``fixed`` is in the
        own guard.  It pops the least pending signature, as Dijkstra's
        order would, places its nodes, and attracts the own term of all
        placed nodes at that signature bumped."""
        term = self.sets.term
        out = []
        placed = 0
        pending = dict(fixed)
        while pending:
            sig = min(pending)
            mask = pending.pop(sig) | placed
            if mask == placed:
                continue
            placed = mask
            out.append((sig, placed))
            more = term(s, own, placed) & ~placed
            if more:
                up = sig[:-1] + (sig[-1] + 1,)
                pending[up] = pending.get(up, 0) | more
        return tuple(out)


def ranked_solve(sets, system, values):
    """Entry-rank signature map of every vertex of ``system``'s tree as
    rings of cumulative masks (:class:`RankBackend`; the last mask is the
    map's node set), computed through the explicit set backend ``sets``
    within a bound on every vertex's node set, ``values``: the verdict
    solve's sets, or every node of an arena the root wins entirely.

    The maps are the least mutually consistent family, so moving along
    signature-minimal successors never lets a play reset an enclosing
    least fixpoint's progress, which is the certified-strategy property
    the extractor needs.  They come from the solver's own nested
    recursion, with the same per-variable stage bound as a verdict solve.
    Greatest fixpoints start from a stored run's rings or from zeros
    over ``values``, which both lie between their fixpoint and the
    all-nodes map; descent from there ends at the same maps in no more
    stages, and only least-fixpoint stages enter signatures.
    """
    backend = RankBackend(sets, system.tree, values)
    return fixpoint.solve(system, backend,
                          max_stages=sets.arena.n + 1).values


class _Extractor:
    def __init__(self, game, system, sets, values):
        self.game = game
        self.arena = game.arena
        self.tree = system.tree
        self.sets = sets
        self.rings = ranked_solve(sets, system, values)
        self.values = {s: rings[-1][1] if rings else 0
                       for s, rings in self.rings.items()}

    def signature(self, s, v):
        """Signature of node ``v`` in vertex ``s``'s map, None when ``v``
        is outside it."""
        for sig, mask in self.rings[s]:
            if mask >> v & 1:
                return sig
        return None

    def choice(self, v, s):
        """Child of losing internal ``s`` whose solution admits ``v``
        with the best signature."""
        plen = self.tree.lfp_depth[s]
        best = None
        for t in self.tree.children[s]:
            sig = self.signature(t, v)
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
        # Signature-minimal successors in the anchor's map: its first ring
        # that meets them.  Its signatures have one length, so lifting
        # them (one more in the last component at a losing anchor) would
        # keep their order.
        succs = self.arena.succ_mask[v]
        for _, mask in self.rings[tree.anchor(m, self.arena.colors[v])]:
            best = mask & succs
            if best:
                break
        else:
            raise AssertionError("no admitted successor at node %d leaf %d" % (v, m))
        if best & (best - 1):
            # Tie-break among them: prefer the move whose colors anchor
            # deepest against the current memory, i.e. the walk disturbs
            # the tree least; then the least node.  A node anchors at or
            # below an ancestor of ``m`` iff its colors lie inside that
            # ancestor's label, so the first guard upwards from ``m``
            # that meets them holds the deepest-anchoring ones.
            s = m
            while True:
                inside = best & self.sets.guard(tree.label[s], None)
                if inside:
                    break
                s = tree.parent[s]
            best = inside & -inside
        return best.bit_length() - 1

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
    ex = _Extractor(game, result.system, result.backend, result.values)
    for s, value in ex.values.items():
        if value != result.values[s]:
            raise AssertionError(
                "ranked solve disagrees with the solver at X%d" % s)
    win = result.values[tree.root]
    initial = {v: ex.descend(v, tree.root) for v in iter_nodes(win)}
    move = {}
    update = {}
    ex.close(move, update, initial.items())
    return ELStrategy(game, tree, win, initial, move, update)


class VerifyResult:

    def __init__(self, ok, reason="", prefix=(), loop=()):
        self.ok = ok
        self.reason = reason
        self.prefix = prefix
        self.loop = loop

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
    every state of its component.  The cycle check reads its own truth
    table of the objective rather than the Zielonka tree's, so that a
    wrong tree cannot make a losing strategy pass.
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
    mentions (:func:`_objective_table`), built from ``phi`` alone; a
    union is looked up with the other colors cut off, and the maximal
    falsifying subsets are those of the cut union
    (:func:`el.maximal_flipped`) with the other colors put back.
    """
    used, truth = _objective_table(phi)
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


@lru_cache(maxsize=256)
def _objective_table(phi):
    """``(used, truth)``: the mask of the colors ``phi`` mentions and its
    truth table over colors ``0..used.bit_length()-1``
    (:func:`el.truth_table`), built from ``phi`` alone once per objective
    (formulas compare and hash by value).  The cache keeps the 256 most
    recently used objectives."""
    used = 0
    for cid in el.colors_mentioned(phi):
        used |= 1 << cid
    return used, el.truth_table(phi, used.bit_length())


def _sccs(adj, members):
    """Iterative Tarjan over ``adj`` restricted to the set ``members``;
    yields, as node sets, the components that hold a cycle.  States are
    ``0..len(adj)-1``, so ``index``, ``low`` and ``on_stack`` are lists
    indexed by state (index -1: not visited yet)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    counter = 0
    stack = []
    for root in members:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in members:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
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
                        on_stack[w] = False
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
