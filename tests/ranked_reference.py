"""Plain entry-rank signature solve, kept as a reference for the tests.

``ranked_maps`` runs ``strategy.ranked_solve`` on a set backend of its
own and reads its rings as ``{vertex: {node: signature}}`` maps.
``ranked_solve_reference`` computes the same maps without the engine's
memos: every leaf run derives its ancestor terms and iterates its own
term from scratch.  ``equation_errors`` re-evaluates each vertex's
equation once against a family of final maps, without any memo, and
names the vertices whose map would change.
"""

from elgames import strategy
from elgames.fixpoint import ExplicitBackend, build_equations
from elgames.games import EXISTENTIAL, iter_nodes


def ranked_maps(game, tree, values):
    """``strategy.ranked_solve`` on a set backend of its own, given the
    verdict's node set of every vertex, as ``{vertex: {node:
    signature}}``: each node at its first ring, so at its lowest
    signature."""
    rings = strategy.ranked_solve(ExplicitBackend(game), tree, values)
    return {s: {v: sig for sig, mask in reversed(r) for v in iter_nodes(mask)}
            for s, r in rings.items()}


class _Terms:
    """Equations, guard masks and the attraction-term derivation."""

    def __init__(self, game, tree):
        self.arena = game.arena
        self.tree = tree
        system = build_equations(tree)
        self.equations = {eq.vertex: eq for eq in system.equations}
        self.lfp_path = [tuple(u for u in tree.ancestors(s) if not tree.winning[u])
                         for s in range(len(tree))]
        self.sets = ExplicitBackend(game)

    def derive(self, s, term, src, out):
        """Min-merge into ``out`` the signatures one attraction term of
        leaf ``s`` gives, reading the anchor's solution map ``src``."""
        arena, tree, lfp_path = self.arena, self.tree, self.lfp_path
        anc, sub, esc = term
        if not src:
            return
        domain = 0
        for w in src:
            domain |= 1 << w
        pad = len(lfp_path[s]) - len(lfp_path[anc])
        bump = not tree.winning[anc]
        pos = len(lfp_path[anc]) - 1

        def lift(w):
            sig = src[w]
            if bump:
                sig = sig[:pos] + (sig[pos] + 1,)
            return sig + (0,) * pad

        for v in iter_nodes(self.sets.guard(sub, esc)):
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

    def combine(self, s, child_maps):
        """Union (best case) or intersection (worst case) of child maps,
        cut to the signature length at ``s``."""
        plen = len(self.lfp_path[s])
        new = {}
        if self.equations[s].op == "union":
            for cmap in child_maps:
                for v, sig in cmap.items():
                    sig = sig[:plen]
                    old = new.get(v)
                    if old is None or sig < old:
                        new[v] = sig
        else:
            common = set(child_maps[0])
            for cmap in child_maps[1:]:
                common &= set(cmap)
            for v in common:
                new[v] = max(cmap[v][:plen] for cmap in child_maps)
        return new


def _min_merge(cur, new):
    merged = dict(cur)
    for v, sig in new.items():
        old = merged.get(v)
        if old is None or sig < old:
            merged[v] = sig
    return merged


def ranked_solve_reference(game, tree, max_rounds=10**7):
    """Same maps as :func:`ranked_maps`, computed without memos."""
    terms = _Terms(game, tree)
    arena = game.arena
    final = {}
    rounds = [0]

    def tick():
        rounds[0] += 1
        if rounds[0] > max_rounds:
            raise RuntimeError("ranked solve failed to stabilize")

    def run(s, ctx):
        eq = terms.equations[s]
        plen = len(terms.lfp_path[s])
        if eq.lfp:
            cur = {}
        else:
            cur = {v: (0,) * plen for v in range(arena.n)}
        if eq.op == "attract":
            fixed = {}
            for term in eq.terms:
                if term[0] == s:
                    own = term
                else:
                    terms.derive(s, term, ctx[term[0]], fixed)
        while True:
            tick()
            if eq.op == "attract":
                new = dict(fixed)
                terms.derive(s, own, cur, new)
            else:
                ctx_here = dict(ctx)
                ctx_here[s] = cur
                new = terms.combine(s, [run(t, ctx_here) for t in eq.children])
            if eq.lfp:
                merged = _min_merge(cur, new)
                if merged == cur:
                    break
                cur = merged
            else:
                if new == cur:
                    break
                cur = new
        final[s] = cur
        return cur

    run(tree.root, {})
    return final


def equation_errors(game, tree, final):
    """Vertices whose equation, evaluated once on ``final``, changes
    their map: a leaf's terms read its ancestors' (and its own) final
    maps, an internal vertex combines its children's; least fixpoints
    min-merge the result into the current map."""
    terms = _Terms(game, tree)
    bad = []
    for s in range(len(tree)):
        eq = terms.equations[s]
        if eq.op == "attract":
            new = {}
            for term in eq.terms:
                terms.derive(s, term, final[term[0]], new)
        else:
            new = terms.combine(s, [final[t] for t in eq.children])
        if eq.lfp:
            new = _min_merge(final[s], new)
        if new != final[s]:
            bad.append(s)
    return bad
