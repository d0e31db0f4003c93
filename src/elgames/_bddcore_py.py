"""Pure-Python reduced ordered decision-diagram core.

Nodes are integers: 0 and 1 are the terminals, larger handles index a
shared (level, low, high) store with hash-consing, so handle equality
is semantic equality.  ``elgames.dd`` wraps it in named variables and
assertions.
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

    def node_count(self):
        return len(self._level)

    def level_of(self, f):
        return self._level[f]

    def low(self, f):
        return self._lo[f]

    def high(self, f):
        return self._hi[f]

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
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
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
        return self.ite(f, 0, 1)

    def and_(self, f, g):
        return self.ite(f, g, 0)

    def or_(self, f, g):
        return self.ite(f, 1, g)

    def xor_(self, f, g):
        return self.ite(f, self.ite(g, 0, 1), g)

    def iff_(self, f, g):
        return self.ite(f, g, self.ite(g, 0, 1))

    def implies_(self, f, g):
        return self.ite(f, g, 1)

    def exists(self, f, levels):
        levels = frozenset(levels)
        memo = {}

        def go(node):
            if node < 2:
                return node
            found = memo.get(node)
            if found is not None:
                return found
            lo = go(self._lo[node])
            hi = go(self._hi[node])
            if self._level[node] in levels:
                out = self.or_(lo, hi)
            else:
                out = self.mk(self._level[node], lo, hi)
            memo[node] = out
            return out

        return go(f)

    def forall(self, f, levels):
        return self.not_(self.exists(self.not_(f), levels))

    def rename(self, f, perm):
        """Substitute variables by levels per ``perm``; safe for any
        permutation because nodes are rebuilt through ite."""
        memo = {}

        def go(node):
            if node < 2:
                return node
            found = memo.get(node)
            if found is not None:
                return found
            level = self._level[node]
            target = perm.get(level, level)
            lo = go(self._lo[node])
            hi = go(self._hi[node])
            out = self.ite(self.var_node(target), hi, lo)
            memo[node] = out
            return out

        return go(f)

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

    def eval(self, f, values):
        node = f
        while node > 1:
            node = self._hi[node] if values[self._level[node]] else self._lo[node]
        return node == 1
