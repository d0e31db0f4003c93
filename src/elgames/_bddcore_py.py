"""Pure-Python reduced ordered decision-diagram core.

Nodes are integers: 0 and 1 are the terminals, larger handles index a
shared (level, low, high) store with hash-consing, so handle equality
is semantic equality.  ``elgames.dd`` wraps it in named variables and
assertions.

``ite`` is the one general operation.  Conjunction, disjunction and
negation are kernels of their own (Brace, Rudell & Bryant, DAC 1990)
with memos that live as long as the core: ``and_`` and ``or_`` key
theirs by the ordered operand pair, so ``(f, g)`` and ``(g, f)`` share
an entry, and ``not_`` stores each pair in both directions.  ``ite``
sends its and/or/not cases to them.  ``exists`` and ``forall`` share
one walk: it joins a quantified node's cofactors with ``or_`` or
``and_``, skips the high cofactor when the low one is already the
join's absorbing constant, and returns a node as it is once its level
is past the last quantified one.  Its memo persists per quantifier and
level set, since the symbolic solve quantifies the same level sets of
changing targets.  ``compose`` substitutes a function for each variable
in one walk: it builds a node with ``mk`` when the node's image is a
positive literal above both composed children, and through ``ite``
otherwise; its memo persists per substitution vector, and a level that
the vector does not map raises.

``eval`` reads an assignment as a **point**: one int whose bit ``l`` is
the value of the variable at level ``l``, so evaluating is one walk from
the root to a terminal that tests one bit per node.  Points may be wider
than a machine word; Python ints grow.
"""

TERMINAL_LEVEL = 1 << 30

IMPL_NAME = "pure"


class Core:
    """Node store plus the standard operations, all by level index."""

    FALSE = 0
    TRUE = 1

    def __init__(self):
        self._level = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique = {}
        self._ite_memo = {}
        self._and_memo = {}
        self._or_memo = {}
        self._not_memo = {}
        self._walk_memos = {}   # by (absorbing, level set) or vector

    def node_count(self):
        return len(self._level)

    def memo_entries(self):
        """Entries in all memos, the quantifiers' and compose's included."""
        flat = (self._ite_memo, self._and_memo, self._or_memo, self._not_memo)
        return sum(map(len, flat)) + sum(map(len, self._walk_memos.values()))

    def mk(self, level, lo, hi):
        if lo == hi:
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        handle = len(self._level)
        self._level.append(level)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = handle
        return handle

    def var_node(self, level):
        return self.mk(level, 0, 1)

    def ite(self, f, g, h):
        """If-then-else, the one general operation; its and/or/not cases
        go to the dedicated kernels."""
        if f < 2:
            return g if f == 1 else h
        if g == f:
            g = 1
        if h == f:
            h = 0
        if g == h:
            return g
        if h == 0:
            return self.and_(f, g)
        if g == 1:
            return self.or_(f, h)
        if g == 0 and h == 1:
            return self.not_(f)
        key = (f, g, h)
        found = self._ite_memo.get(key)
        if found is not None:
            return found
        level = min(self._level[f], self._level[g], self._level[h])
        f0, f1 = self._cof(f, level)
        g0, g1 = self._cof(g, level)
        h0, h1 = self._cof(h, level)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        out = self.mk(level, lo, hi)
        self._ite_memo[key] = out
        return out

    def _cof(self, f, level):
        if self._level[f] == level:
            return self._lo[f], self._hi[f]
        return f, f

    def not_(self, f):
        if f < 2:
            return 1 - f
        found = self._not_memo.get(f)
        if found is not None:
            return found
        out = self.mk(self._level[f], self.not_(self._lo[f]),
                      self.not_(self._hi[f]))
        self._not_memo[f] = out
        self._not_memo[out] = f
        return out

    def and_(self, f, g):
        if f == g or g == 1:
            return f
        if f < 2:
            return g if f == 1 else 0
        if g == 0:
            return 0
        if f > g:
            f, g = g, f
        key = (f, g)
        found = self._and_memo.get(key)
        if found is not None:
            return found
        level, lo, hi = self._level, self._lo, self._hi
        lf, lg = level[f], level[g]
        if lf == lg:
            out = self.mk(lf, self.and_(lo[f], lo[g]), self.and_(hi[f], hi[g]))
        elif lf < lg:
            out = self.mk(lf, self.and_(lo[f], g), self.and_(hi[f], g))
        else:
            out = self.mk(lg, self.and_(f, lo[g]), self.and_(f, hi[g]))
        self._and_memo[key] = out
        return out

    def or_(self, f, g):
        if f == g or g == 0:
            return f
        if f < 2:
            return 1 if f == 1 else g
        if g == 1:
            return 1
        if f > g:
            f, g = g, f
        key = (f, g)
        found = self._or_memo.get(key)
        if found is not None:
            return found
        level, lo, hi = self._level, self._lo, self._hi
        lf, lg = level[f], level[g]
        if lf == lg:
            out = self.mk(lf, self.or_(lo[f], lo[g]), self.or_(hi[f], hi[g]))
        elif lf < lg:
            out = self.mk(lf, self.or_(lo[f], g), self.or_(hi[f], g))
        else:
            out = self.mk(lg, self.or_(f, lo[g]), self.or_(f, hi[g]))
        self._or_memo[key] = out
        return out

    def xor_(self, f, g):
        return self.ite(f, self.not_(g), g)

    def iff_(self, f, g):
        return self.ite(f, g, self.not_(g))

    def implies_(self, f, g):
        return self.ite(f, g, 1)

    def exists(self, f, levels):
        return self._quantify(f, levels, self.or_, 1)

    def forall(self, f, levels):
        return self._quantify(f, levels, self.and_, 0)

    def _quantify(self, f, levels, join, absorbing):
        """Abstract ``levels`` from ``f``, joining the cofactors of a
        quantified node with ``join`` unless the low one is already
        ``absorbing``; a node past the last quantified level is
        returned as it is.  The memo is kept per quantifier and level
        set."""
        levels = frozenset(levels)
        if not levels:
            return f
        last = max(levels)
        level, lo, hi, mk = self._level, self._lo, self._hi, self.mk
        memo = self._walk_memos.setdefault((absorbing, levels), {})

        def go(node):
            if level[node] > last:
                return node
            found = memo.get(node)
            if found is not None:
                return found
            at = level[node]
            if at in levels:
                out = go(lo[node])
                if out != absorbing:
                    out = join(out, go(hi[node]))
            else:
                out = mk(at, go(lo[node]), go(hi[node]))
            memo[node] = out
            return out

        try:
            return go(f)
        finally:
            del go   # go refers to itself: free it by reference count

    def compose(self, f, vector):
        """Substitute, at once, the function ``vector[l]`` (a handle)
        for the variable at each level ``l`` of ``f``; ``vector`` must
        map every one of them (``KeyError`` names the first it meets
        that it does not).  A node whose image is a positive literal
        above both composed children is built directly, any other
        through ``ite(image, high, low)``.  The memo is kept per
        vector."""
        memo = self._walk_memos.setdefault(frozenset(vector.items()), {})
        level, lo, hi = self._level, self._lo, self._hi

        def go(node):
            if node < 2:
                return node
            found = memo.get(node)
            if found is not None:
                return found
            image = vector[level[node]]
            new_lo = go(lo[node])
            new_hi = go(hi[node])
            at = level[image]
            if (lo[image] == 0 and hi[image] == 1
                    and at < level[new_lo] and at < level[new_hi]):
                out = self.mk(at, new_lo, new_hi)
            else:
                out = self.ite(image, new_hi, new_lo)
            memo[node] = out
            return out

        try:
            return go(f)
        finally:
            del go

    def support(self, f):
        seen = set()
        levels = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node < 2 or node in seen:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return tuple(sorted(levels))

    def satcount(self, f, levels):
        levels = sorted(levels)
        pos = {level: i for i, level in enumerate(levels)}
        memo = {}

        def from_own(node):
            # count over levels at positions >= the node's own position
            if node in memo:
                return memo[node]
            level = self._level[node]
            i = pos[level]
            total = 0
            for child in (self._lo[node], self._hi[node]):
                if child == 1:
                    total += 1 << (len(levels) - i - 1)
                elif child != 0:
                    child_level = self._level[child]
                    if child_level not in pos:
                        raise ValueError("node depends on an uncounted variable")
                    gap = pos[child_level] - i - 1
                    total += (1 << gap) * from_own(child)
            memo[node] = total
            return total

        if f == 0:
            return 0
        if f == 1:
            return 1 << len(levels)
        if self._level[f] not in pos:
            raise ValueError("node depends on an uncounted variable")
        return (1 << pos[self._level[f]]) * from_own(f)

    def pick(self, f):
        """Partial assignment (level -> bool) reaching TRUE; low first."""
        if f == 0:
            raise ValueError("cannot pick a witness from FALSE")
        out = {}
        node = f
        while node != 1:
            if self._lo[node] != 0:
                out[self._level[node]] = False
                node = self._lo[node]
            else:
                out[self._level[node]] = True
                node = self._hi[node]
        return out

    def eval(self, f, point):
        """Truth of ``f`` at ``point``, whose bit ``l`` is the value of
        the variable at level ``l``."""
        level, lo, hi = self._level, self._lo, self._hi
        node = f
        while node > 1:
            node = hi[node] if point >> level[node] & 1 else lo[node]
        return node == 1
