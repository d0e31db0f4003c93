"""Fixpoint equation systems over Zielonka trees and their Kleene solver.

One equation per tree vertex, in tree order.  Internal vertices combine
their children's variables (union where the vertex is losing, which
makes it a least fixpoint; intersection where it is winning, a greatest
fixpoint).  A leaf's right-hand side is a one-step attraction: the
union, over its ancestors, of "nodes anchored at that ancestor" guards
intersected with the controllable predecessor of the ancestor's
variable.  The solution of the root variable is the existential winning
region.

The solver is plain nested Kleene iteration and is generic in a
backend that supplies the values, so the same recursion runs on
explicit node masks, on the integer node handles of a decision diagram
(wrapped as assertions only outside the solve) and on the entry-rank
signature maps the strategy module extracts moves from, kept as nested
node masks, one per signature.  A solve compiles the equations once
into a plan indexed by vertex, keeps its stores in lists indexed by
vertex, and hands each run its ancestors' values as one tuple, root
first.  The set backends memoize the controllable predecessor by
target (explicit masks and diagram handles are both canonical).  Each
stage of an outer variable runs the inner ones again, often on inputs
equal to those of an earlier run, so a vertex below the root keeps one
lossless memo for the whole solve, and a run whose key is stored
returns the stored result without a stage.  A leaf's key is its
inputs, the union
of its ancestor terms, rebuilt only from the outermost anchor whose
value changed since the leaf's last run: each leaf keeps the running
unions of its terms with the anchor values they read, as semi-naive
evaluation keeps what has not changed (Bancilhon and Ramakrishnan,
SIGMOD 1986).  Ancestor variables occur only under the controllable
predecessor, so a subtree's fixpoints are a function of its ancestors'
``cpre`` images, not of their values: with a backend that gives those
images (``image``), an internal vertex's key is that tuple of images,
and a hit skips the whole subtree; without one, only leaves keep a
memo.  Runs also start from stored results, as
Long, Browne, Clarke, Jha and Marrero (CAV 1994) start each inner
iteration from the approximant stored at the same iteration indices.
A vertex's position is the tuple of the current stage indices of its
opposite-polarity ancestors, and each vertex keeps its last run at each
position.  Its same-polarity ancestors have since moved in its own
iteration's direction and the others stand still, so the stored result
mostly lies on the iteration's side of the new fixpoint.  Every backend
orders its values (``subset``: inclusion of node sets, or the
progress-measure order of signature maps), and a run starts from the
stored result only when that order shows its inputs on that side of the
stored ones; otherwise it starts from top or bottom.  A backend may also
solve a least-fixpoint leaf's own equation in one call (``leaf``); the
signature backend does, in Dijkstra order over this module's explicit
set backend, and the set backends leave it to Kleene stages.  A solve's
result keeps the backend that produced it, so the signature solve of a
strategy runs on the verdict's own color sets, guards and ``cpre`` memo.
"""

from . import games


class Equation:
    """Right-hand side for one tree vertex.

    ``op`` is ``"union"`` or ``"inter"`` with ``children`` set, or
    ``"attract"`` with ``terms`` set.  Each attraction term is
    ``(ancestor vertex, subset mask, escape mask or None)``: a node
    matches when its colors are inside the subset mask and, if an
    escape mask is given, not inside it.
    """

    def __init__(self, vertex, lfp, op, children=(), terms=()):
        self.vertex = vertex
        self.lfp = lfp
        self.op = op
        self.children = children
        self.terms = terms


class EquationSystem:

    def __init__(self, tree, equations=None):
        self.tree = tree
        self.equations = [] if equations is None else equations


def build_equations(tree):
    """Instantiate the equation system for a built Zielonka tree."""
    equations = []
    for s in range(len(tree)):
        lfp = not tree.winning[s]
        if not tree.is_leaf(s):
            op = "union" if lfp else "inter"
            equations.append(Equation(s, lfp, op, children=tree.children[s]))
        else:
            terms = []
            for anc in tree.ancestors(s):
                if anc == s:
                    terms.append((anc, tree.label[s], None))
                else:
                    child = tree.child_towards(anc, s)
                    terms.append((anc, tree.label[anc], tree.label[child]))
            equations.append(Equation(s, lfp, "attract", terms=tuple(terms)))
    return EquationSystem(tree, equations)


def format_equations(system):
    """Readable rendering, one line per variable (``elgames ztree``)."""
    tree = system.tree
    table = tree.table
    lines = []
    for eq in system.equations:
        kind = "LFP" if eq.lfp else "GFP"
        if eq.op == "attract":
            parts = []
            for anc, sub, esc in eq.terms:
                guard = "in%s" % table.format_mask(sub)
                if esc is not None:
                    guard += " notin%s" % table.format_mask(esc)
                parts.append("(%s & CPre(X%d))" % (guard, anc))
            rhs = " | ".join(parts)
        else:
            joiner = " | " if eq.op == "union" else " & "
            rhs = joiner.join("X%d" % c for c in eq.children)
        lines.append("X%d =%s %s" % (eq.vertex, kind, rhs))
    return "\n".join(lines) + "\n"


class SetBackend:
    """Values that are node sets in a canonical, hashable form, so
    ``==`` is set equality and ``subset`` is one union and one
    comparison.  The set operations here are Python's integer operators
    on node masks, inline so that the explicit backend pays no extra
    call per term; the symbolic backend overrides ``union``,
    ``intersect``, ``complement``, ``subset`` and ``term`` with the
    diagram core's operations on its integer node handles.

    An attraction term's value is its guard intersected with the
    controllable predecessor of the anchor's value.  The guard is
    stated once, over ``colors``, the set of nodes of each color: the
    nodes with no color outside the subset mask and, when an escape
    mask is given, some color outside it.  Inner iterations keep asking
    for the predecessor of the same few sets, so guards and ``cpre``
    results are memoized, by guard masks and by target, for the life of
    the backend.  Each verdict solve makes its own backend and hands it
    on in its :class:`SolveResult`; strategy extraction's signature
    solve computes its terms through that same backend, so a guard or
    ``cpre`` target the verdict asked for is not computed again.
    Subclasses give ``cpre`` and pass the empty set, the full set and
    the color sets.
    """

    def __init__(self, empty, full, colors):
        self.empty = empty
        self.full = full
        self.colors = tuple(colors)
        self._guards = {}
        self._pre = {}

    def bottom(self):
        return self.empty

    def top(self, s):
        return self.full

    def union(self, a, b):
        return a | b

    def intersect(self, a, b, s):
        return a & b

    def subset(self, a, b):
        return a | b == b

    def complement(self, a):
        return self.full & ~a

    def guard(self, subset, escape):
        """Nodes whose colors lie inside ``subset`` and, unless
        ``escape`` is None, not inside ``escape``.  Memoized by the two
        masks, it is computed once per key, so it goes through the
        overridable set operations."""
        key = (subset, escape)
        out = self._guards.get(key)
        if out is not None:
            return out
        out = self.full
        for cid, nodes in enumerate(self.colors):
            if not subset >> cid & 1:
                out = self.intersect(out, self.complement(nodes), None)
        if escape is not None:
            escapes = self.empty
            for cid, nodes in enumerate(self.colors):
                if not escape >> cid & 1:
                    escapes = self.union(escapes, nodes)
            out = self.intersect(out, escapes, None)
        self._guards[key] = out
        return out

    def image(self, value):
        """The controllable predecessor of ``value``, from the memo
        ``term`` reads: what the terms that anchor at ``value`` see of
        it."""
        pre = self._pre.get(value)
        if pre is None:
            pre = self._pre[value] = self.cpre(value)
        return pre

    def term(self, s, term, value):
        # reads the ``cpre`` memo inline, not through ``image``: one more
        # call per term slows the explicit backend measurably
        key = term[1:]
        guard = self._guards.get(key)
        if guard is None:
            guard = self.guard(*key)
        pre = self._pre.get(value)
        if pre is None:
            pre = self._pre[value] = self.cpre(value)
        return guard & pre


class ExplicitBackend(SetBackend):
    """Set backend over integer node masks of an explicit game.

    Its color sets are one node mask per color of the game's table,
    built in one pass over the arena's colors, and the owner-split
    successor tables of ``games.cpre`` are built with it and live as
    long as the backend.
    """

    def __init__(self, game):
        by_mask = {}   # color mask -> nodes with exactly those colors
        bit = 1
        for mask in game.arena.colors:
            by_mask[mask] = by_mask.get(mask, 0) | bit
            bit <<= 1
        colors = [0] * len(game.table)
        for mask, nodes in by_mask.items():
            for cid in games.iter_nodes(mask):
                colors[cid] |= nodes
        super().__init__(0, game.arena.full_mask, colors)
        self.arena = game.arena
        self._split = games.owner_split(game.arena)

    def cpre(self, target):
        return games.cpre(self._split, target)


class StageLimitError(RuntimeError):
    """A variable did not stabilize within the solve's stage bound."""


class SolveResult:
    """Final variable values, the number of Kleene stages run, per
    vertex the number of runs warm-started from the result stored at
    their position and the number of runs answered from its memo (a
    leaf's inputs or an internal vertex's ancestor ``cpre`` images), and
    the backend the values were computed with."""

    def __init__(self, values, iterations=0, warm_starts=None, memo_hits=None,
                 backend=None):
        self.values = values
        self.iterations = iterations
        self.warm_starts = {} if warm_starts is None else warm_starts
        self.memo_hits = {} if memo_hits is None else memo_hits
        self.backend = backend

    def winning(self):
        return self.values[0]


def solve(system, backend, max_stages):
    """Solve by nested Kleene iteration; returns all stabilized values.

    The backend supplies the values: ``bottom()``, ``top(s)``,
    ``union(a, b)``, ``intersect(a, b, s)``, ``term(s, term, value)``,
    the value of one attraction term of leaf ``s`` given its anchor's
    value, and ``subset(a, b)``, the order the other operations are
    monotone in (``a`` below ``b``).  Only ``top`` and ``intersect``
    take the vertex ``s``: a signature map's top and the cut of an
    intersection depend on the vertex's signature length.  Values are
    compared with ``==``, so each backend's values must be canonical.
    The operations are looked up once per solve, ``bottom()`` taken once
    and ``top(s)`` once per greatest-fixpoint vertex, into a plan and
    stores indexed by vertex.  A run receives its ancestors' values as
    one tuple, root first, and each stage hands its children that tuple
    extended by its own value.  A vertex's fixpoint depends only on its
    inputs: at a leaf the union of its ancestor terms, the i-th of which
    reads the tuple's i-th value, and at an internal vertex the tuple.

    A leaf with more than one ancestor keeps, for each ancestor term but
    its parent's, the anchor value that term read and the union of the
    terms up to it.  A run reuses those prefix unions while its anchors
    hold the same values (by identity: values are never changed in
    place, and the stored ones stay alive, so an identical value is an
    equal one) and asks the backend again only from the first anchor
    that moved.  The parent's term is always asked for: the leaf runs
    inside the parent's iteration, which is strictly monotone, so the
    parent's value never repeats.

    Each leaf, and each internal vertex but the root (which runs once),
    keeps one memo in its plan entry from a key to the result of its
    run.  A leaf's key is its inputs.  An internal vertex's tuple of
    values never repeats, since every enclosing iteration is strictly
    monotone, but a subtree reads its ancestors' values only through the
    terms of its leaves, which read ``cpre`` of them: the fixpoints of
    the subtree are a function of the ancestors' ``cpre`` images.  So
    with a backend that has an ``image(value)`` method, the image its
    terms read, an internal vertex's key is ``tuple(map(image, ctx))``;
    without one, internal vertices keep no memo (the signature backend
    has none).  A run whose key is in the memo returns the stored result
    without a stage and counts as a memo hit; every other run stores its
    result once it completes, and the memo keeps every entry for the
    whole solve.  A leaf has no subtree; a hit at an internal vertex
    leaves the subtree's values as they are, and those are the stored
    run's:

    - The key of ``s`` extends the key of its parent ``p``, so the
      stored run of ``s`` ran inside a run of ``p`` with ``p``'s
      present key.  Had that been an earlier run of ``p``, that run
      completed and stored the key, and the present run of ``p`` would
      have been a hit on entry (``p`` is not the root, which runs once).
      So the stored run of ``s`` ran at an earlier stage of the present
      run of ``p``.
    - Those stages move strictly one way and ``cpre`` is monotone, so
      every stage between that one and the present one had the same
      image of ``p``'s value, hence the same key at ``s``: each was a
      hit, and nothing wrote the subtree in between.
    - The stored run left each vertex of the subtree at its fixpoint
      in that run's final context, a function of images equal to the
      present ones, which a run of ``s`` would reach again.

    A memo that forgot entries would break the first step and would
    have to restore the subtree's values on a hit.

    A vertex's position is the tuple of the current stage indices of its
    opposite-polarity ancestors, outermost first.  Zielonka trees
    alternate polarity along every path, so those are its parent, its
    great-grandparent and so on: a child of ``s`` has the position of
    ``s``'s parent extended by ``s``'s stage.  Each vertex of depth two
    or more keeps a dict from position to the inputs and result of its
    last run there (the root runs once, so the positions of the root and
    its children never repeat).  A greatest-fixpoint run whose every
    input is below the stored run's starts from its result instead of
    from top, and a least-fixpoint run whose every input is above them
    instead of from bottom: the stored result is a fixpoint of a
    dominating (dominated) right-hand side, so by monotonicity it lies
    on the iteration's side of the new fixpoint, and the iteration
    reaches the same value in fewer stages.  An internal vertex that is
    not a memo hit runs at least one stage, so its descendants' values
    come from its final context.

    A backend with a ``leaf(s, own, fixed)`` method solves each
    least-fixpoint leaf run whose inputs are not in its memo in that one
    call, which counts as one stage and stores into the memo, without
    looking for a warm start: it returns the least fixpoint of
    ``X = fixed | term(s, own, X)``, ``fixed`` being the union of the
    ancestor terms.
    Greatest-fixpoint leaves run as Kleene stages.  ``max_stages``
    bounds the stages of each variable's iteration (callers pass the
    node count plus one); past it the solve raises :class:`StageLimitError`.
    """
    union, intersect, term = backend.union, backend.intersect, backend.term
    subset = backend.subset
    leaf = getattr(backend, "leaf", None)
    image = getattr(backend, "image", None)
    bottom = backend.bottom()
    root = system.tree.root
    # vertex -> (lfp, start value, children or None, ancestor terms but
    # the parent's, the parent's term or None, own term or None, and its
    # memo {a leaf's inputs or an internal vertex's images of ctx:
    # result}, None at an internal root and at every internal vertex
    # without ``image``)
    plan = [None] * len(system.equations)
    for eq in system.equations:
        s, terms = eq.vertex, eq.terms
        start = bottom if eq.lfp else backend.top(s)
        if eq.op == "attract":
            plan[s] = (eq.lfp, start, None, terms[:-2],
                       terms[-2] if len(terms) > 1 else None, terms[-1], {})
        else:
            plan[s] = (eq.lfp, start, eq.children, (), None, None,
                       None if image is None or s == root else {})
    values = [None] * len(plan)
    # per leaf, [(anchor value read, union of ancestor terms 0..i)] for
    # each of its ancestor terms but the parent's
    prefixes = [[] for _ in plan]
    # per vertex of depth 2 or more, {position: its last (inputs, result)}
    stored = [{} for _ in plan]
    warm_starts = [0] * len(plan)
    memo_hits = {}
    total_iterations = 0

    def run(s, ctx, key, outer):
        # ctx: the ancestors' values, root first; key: the position of s;
        # outer: the position of its parent
        nonlocal total_iterations
        lfp, start, children, older, parent, own, memo = plan[s]
        if children is None:
            inputs = bottom
            if older:
                prefix = prefixes[s]
                kept = 0
                for value, acc in prefix:
                    if ctx[kept] is not value:
                        break
                    inputs = acc
                    kept += 1
                del prefix[kept:]
                for i in range(kept, len(older)):
                    value = ctx[i]
                    inputs = union(inputs, term(s, older[i], value))
                    prefix.append((value, inputs))
            if parent is not None:
                inputs = union(inputs, term(s, parent, ctx[-1]))
            seen = inputs
        else:
            inputs = ctx
            if memo is not None:
                seen = tuple(map(image, ctx))
        if memo is not None:
            x = memo.get(seen)
            if x is not None:
                memo_hits[s] = memo_hits.get(s, 0) + 1
                values[s] = x
                return x
            if children is None and lfp and leaf is not None:
                total_iterations += 1
                x = values[s] = memo[seen] = leaf(s, own, inputs)
                return x
        x = start
        deep = len(ctx) > 1
        if deep:
            prev = stored[s].get(key)
            if prev is not None:
                lo, hi = (prev[0], inputs) if lfp else (inputs, prev[0])
                if (subset(lo, hi) if children is None
                        else all(map(subset, lo, hi))):
                    x = prev[1]
                    warm_starts[s] += 1
        stages = 0
        while True:
            w = x
            if children is None:
                x = union(inputs, term(s, own, w))
            else:
                here = ctx + (w,)
                inner = outer + (stages,)
                x = start
                if lfp:
                    for t in children:
                        x = union(x, run(t, here, inner, key))
                else:
                    for t in children:
                        x = intersect(x, run(t, here, inner, key), s)
            stages += 1
            total_iterations += 1
            if x == w:
                break
            if stages > max_stages:
                raise StageLimitError(
                    "variable X%d did not stabilize within %d stages" % (s, max_stages))
        if deep:
            stored[s][key] = (inputs, x)
        if memo is not None:
            memo[seen] = x
        values[s] = x
        return x

    run(root, (), (), ())
    return SolveResult(dict(enumerate(values)), total_iterations,
                       {s: n for s, n in enumerate(warm_starts) if n},
                       memo_hits, backend)


def solve_game(game, tree=None):
    """Winning region of an explicit game; returns (mask, tree, result)."""
    from .zielonka import ZielonkaTree
    if tree is None:
        tree = ZielonkaTree(game.objective, game.table)
    system = build_equations(tree)
    result = solve(system, ExplicitBackend(game), max_stages=game.arena.n + 1)
    return result.winning(), tree, result
