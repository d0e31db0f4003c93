"""Fixpoint equation systems over Zielonka trees and their Kleene solver.

One equation per tree vertex, in tree order.  Internal vertices combine
their children's variables (union where the vertex is losing, which
makes it a least fixpoint; intersection where it is winning, a greatest
fixpoint).  A leaf's right-hand side is a one-step attraction: the
union, over its ancestors, of "nodes anchored at that ancestor" guards
intersected with the controllable predecessor of the ancestor's
variable.  The solution of the root variable is the existential winning
region.

The solver is plain nested Kleene iteration and is generic in a set
backend, so the same code runs on explicit node masks and on symbolic
decision-diagram assertions.  Inner iterations keep asking for the
controllable predecessor of the same few sets, so each solve memoizes
``backend.cpre`` by target value (explicit masks and diagram handles
are both canonical); the memo lives only as long as the call and leaves
the Kleene stages unchanged.  For least-fixpoint variables the solver
records the iteration rings and per-stage child solutions of the final
(outermost-consistent) run; tests assert their monotone growth, and the
strategy module recomputes full entry-rank signatures through the same
recursion when extracting moves.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Equation:
    """Right-hand side for one tree vertex.

    ``op`` is ``"union"`` or ``"inter"`` with ``children`` set, or
    ``"attract"`` with ``terms`` set.  Each attraction term is
    ``(ancestor vertex, subset mask, escape mask or None)``: a node
    matches when its colors are inside the subset mask and, if an
    escape mask is given, not inside it.
    """
    vertex: int
    lfp: bool
    op: str
    children: tuple = ()
    terms: tuple = ()


@dataclass
class EquationSystem:
    tree: object
    equations: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.equations)


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
    """Readable rendering, mainly for the CLI and debugging."""
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


class ExplicitBackend:
    """Set backend over integer node masks of an explicit game."""

    def __init__(self, game):
        self.game = game
        self.arena = game.arena

    def bottom(self):
        return 0

    def top(self):
        return self.arena.full_mask

    def union(self, a, b):
        return a | b

    def intersect(self, a, b):
        return a & b

    def equal(self, a, b):
        return a == b

    def cpre(self, target):
        from .games import cpre
        return cpre(self.arena, target)

    def guard(self, subset_mask, escape_mask):
        out = 0
        for v in range(self.arena.n):
            colors = self.arena.colors[v]
            if colors & ~subset_mask:
                continue
            if escape_mask is not None and not colors & ~escape_mask:
                continue
            out |= 1 << v
        return out


@dataclass
class SolveResult:
    """Final variable values plus the LFP iteration records.

    ``rings[s]`` lists the value of variable ``s`` after each stage of
    its last completed iteration (index 0 is the empty start).
    ``stage_children[s]``, for internal LFP vertices, lists per stage
    the child solutions that stage combined; index ``j`` aligns with
    ``rings[s][j + 1]``.
    """
    values: dict
    rings: dict
    stage_children: dict
    iterations: int = 0

    def winning(self):
        return self.values[0]


def guard_table(system, backend):
    """Backend guard set of every distinct ``(subset, escape)`` pair the
    attraction terms of ``system`` use."""
    guards = {}
    for eq in system.equations:
        for anc, sub, esc in eq.terms:
            if (sub, esc) not in guards:
                guards[(sub, esc)] = backend.guard(sub, esc)
    return guards


def solve(system, backend, record=True, max_stages=None):
    """Solve by nested Kleene iteration; returns all stabilized sets."""
    equations = {eq.vertex: eq for eq in system.equations}
    guards = guard_table(system, backend)
    values = {}
    rings = {}
    stage_children = {}
    total_iterations = 0
    pre = {}   # cpre by target; backend values are canonical and hashable

    def cpre(target):
        out = pre.get(target)
        if out is None:
            out = pre[target] = backend.cpre(target)
        return out

    def run(s, ls):
        nonlocal total_iterations
        eq = equations[s]
        x = backend.bottom() if eq.lfp else backend.top()
        if record and eq.lfp:
            rings[s] = [x]
            if eq.op != "attract":
                stage_children[s] = []
        stages = 0
        while True:
            w = x
            if eq.op == "attract":
                y = backend.bottom()
                for anc, sub, esc in eq.terms:
                    val = w if anc == s else ls[anc]
                    y = backend.union(
                        y, backend.intersect(guards[(sub, esc)], cpre(val)))
                x = y
            else:
                ls_here = dict(ls)
                ls_here[s] = w
                stage = {}
                acc = None
                for t in eq.children:
                    u = run(t, ls_here)
                    stage[t] = u
                    if acc is None:
                        acc = u
                    elif eq.op == "union":
                        acc = backend.union(acc, u)
                    else:
                        acc = backend.intersect(acc, u)
                x = acc
                if record and eq.lfp:
                    stage_children[s].append(stage)
            if record and eq.lfp:
                rings[s].append(x)
            stages += 1
            total_iterations += 1
            if backend.equal(x, w):
                break
            if max_stages is not None and stages > max_stages:
                raise RuntimeError(
                    "variable X%d did not stabilize within %d stages" % (s, max_stages))
        values[s] = x
        return x

    run(system.tree.root, {})
    return SolveResult(values, rings, stage_children, total_iterations)


def solve_game(game, tree=None):
    """Winning region of an explicit game; returns (mask, tree, result)."""
    from .zielonka import ZielonkaTree
    if tree is None:
        tree = ZielonkaTree(game.objective, game.table)
    system = build_equations(tree)
    result = solve(system, ExplicitBackend(game), max_stages=game.arena.n + 1)
    return result.winning(), tree, result
