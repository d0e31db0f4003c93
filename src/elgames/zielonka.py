"""Zielonka trees for Emerson-Lei objectives.

The tree for an objective over colors ``C`` has its root labeled ``C``;
every vertex has one child per maximal proper subset of its label that
flips satisfaction of the objective.  Winning vertices are those whose
label satisfies the objective.  Vertices are numbered in preorder and
children are ordered by descending label cardinality, then by mask
value, which makes the numbering (the total order used everywhere
downstream) deterministic.

Also provided: anchor computation and a fair induced-walk simulator
over ultimately periodic color sequences that serves as a semantic
oracle in the tests.
"""

from dataclasses import dataclass

from . import el

MAX_TREE_COLORS = 12


class ZielonkaTree:
    """Immutable tree; vertex ids are preorder positions."""

    def __init__(self, formula, table):
        if len(table) > MAX_TREE_COLORS:
            raise el.ELError(
                "color budget exceeded: %d > %d" % (len(table), MAX_TREE_COLORS))
        el.check_colors(formula, table)
        self.formula = formula
        self.table = table
        self.label = []
        self.winning = []
        self.parent = []
        self.children = []
        self.depth = []
        self.lfp_depth = []
        self._build(table.full_mask, None)
        ncolors = len(table)
        self.level = [ncolors - d for d in self.depth]
        self.leaves = tuple(v for v in range(len(self.label)) if not self.children[v])

    def _build(self, mask, parent):
        vid = len(self.label)
        win = el.evaluate(self.formula, mask)
        self.label.append(mask)
        self.winning.append(win)
        self.parent.append(parent)
        self.children.append([])
        self.depth.append(0 if parent is None else self.depth[parent] + 1)
        # Losing (least-fixpoint) vertices on the path root..vid: the
        # length of an entry-rank signature at vid.
        self.lfp_depth.append((0 if parent is None else self.lfp_depth[parent])
                              + (0 if win else 1))
        if parent is not None:
            self.children[parent].append(vid)
        for sub in _maximal_flipped(self.formula, mask, win):
            self._build(sub, vid)
        self.children[vid] = tuple(self.children[vid])
        return vid

    def __len__(self):
        return len(self.label)

    @property
    def root(self):
        return 0

    @property
    def min_leaf(self):
        return self.leaves[0]

    def is_leaf(self, v):
        return not self.children[v]

    def ancestors(self, v):
        """Path root..v, top down, including v."""
        path = []
        while v is not None:
            path.append(v)
            v = self.parent[v]
        path.reverse()
        return path

    def child_towards(self, s, t):
        """The child of ``s`` on the path to descendant ``t``."""
        if s == t:
            raise ValueError("no child of a vertex towards itself")
        cur = t
        while self.parent[cur] is not None:
            if self.parent[cur] == s:
                return cur
            cur = self.parent[cur]
        raise ValueError("vertex %d is not an ancestor of %d" % (s, t))

    def anchor(self, t, colors):
        """Deepest ancestor-or-self of ``t`` whose label contains ``colors``."""
        v = t
        while colors & ~self.label[v]:
            v = self.parent[v]
        return v

    def vertex_with_label(self, mask):
        for v, lab in enumerate(self.label):
            if lab == mask:
                return v
        raise KeyError("no vertex labeled %s" % self.table.format_mask(mask))

    def format_text(self):
        lines = []
        for v in range(len(self)):
            shape = "box" if self.winning[v] else "circle"
            lines.append("%s%d: %s %s level=%d" % (
                "  " * self.depth[v], v, shape,
                self.table.format_mask(self.label[v]), self.level[v]))
        return "\n".join(lines) + "\n"

    def format_dot(self):
        lines = ["digraph ztree {"]
        for v in range(len(self)):
            shape = "box" if self.winning[v] else "ellipse"
            lines.append('  n%d [shape=%s label="%s\\nlev %d"];' % (
                v, shape, self.table.format_mask(self.label[v]), self.level[v]))
        for v in range(len(self)):
            for c in self.children[v]:
                lines.append("  n%d -> n%d;" % (v, c))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _maximal_flipped(formula, mask, win):
    """Maximal proper submasks of ``mask`` with flipped satisfaction,
    ordered by descending cardinality then mask value."""
    flipped = [sub for sub in el.subsets_of(mask)
               if sub != mask and el.evaluate(formula, sub) != win]
    flipped.sort(key=lambda m: (-bin(m).count("1"), m))
    kept = []
    for m in flipped:
        if not any(k & m == m for k in kept):
            kept.append(m)
    return kept


def tree_invariant_errors(tree):
    """Structural invariant violations of a built tree (empty if sound)."""
    errors = []
    table = tree.table
    phi = tree.formula
    n = len(tree)
    if tree.label[tree.root] != table.full_mask:
        errors.append("root label is not the full color set")
    if tree.level[tree.root] != len(table):
        errors.append("root level != |C|")
    for v in range(n):
        if tree.winning[v] != el.evaluate(phi, tree.label[v]):
            errors.append("vertex %d winning flag disagrees with objective" % v)
        for c in tree.children[v]:
            if tree.label[c] & ~tree.label[v]:
                errors.append("child %d label escapes parent %d" % (c, v))
            if tree.label[c] == tree.label[v]:
                errors.append("child %d label equals parent %d" % (c, v))
            if tree.winning[c] == tree.winning[v]:
                errors.append("child %d does not flip satisfaction" % c)
            if tree.level[c] != tree.level[v] - 1:
                errors.append("child %d level is not parent minus one" % c)
        kids = tree.children[v]
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                la, lb = tree.label[a], tree.label[b]
                if la & lb == la or la & lb == lb:
                    errors.append("siblings %d,%d are comparable" % (a, b))
        # Maximality: adding any removed color un-flips satisfaction.
        for c in tree.children[v]:
            for cid in range(len(table)):
                bit = 1 << cid
                if tree.label[v] & bit and not tree.label[c] & bit:
                    grown = tree.label[c] | bit
                    if grown != tree.label[v] and \
                            el.evaluate(phi, grown) != tree.winning[v]:
                        errors.append(
                            "child %d of %d is not maximal (add %s)"
                            % (c, v, table.name(cid)))
    if tree.depth and max(tree.depth) > len(table):
        errors.append("height exceeds |C|")
    if any(len(tree.children[v]) > 1 << len(table) for v in range(n)):
        errors.append("branching exceeds 2^|C|")
    return errors


def max_tree_size(ncolors):
    """Vertex-count bound ceil(e * n!) via the recurrence t(i+1)=(i+1)t(i)+1."""
    t = 1
    for i in range(1, ncolors + 1):
        t = i * t + 1
    return t


@dataclass(frozen=True)
class LassoPlay:
    """Ultimately periodic color-set sequence: prefix then repeated loop."""
    prefix: tuple
    loop: tuple

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")


def fair_induced_walk(tree, lasso):
    """Simulate the walk the lasso induces through the tree.

    The walk starts at the least leaf.  Reading one color set moves to
    the anchor of the current leaf and then back down to a leaf, taking
    at every internal vertex the next child in round-robin order (each
    vertex remembers the child used on its previous traversal).  The
    loop is iterated until the complete walk state repeats; returns the
    topmost vertex visited infinitely often and its winning flag.
    """
    counters = [0] * len(tree)
    leaf = tree.min_leaf
    for v in tree.ancestors(leaf)[:-1]:
        counters[v] = tree.children[v].index(tree.child_towards(v, leaf)) + 1

    def step(colors):
        nonlocal leaf
        s = tree.anchor(leaf, colors)
        v = s
        while not tree.is_leaf(v):
            q = len(tree.children[v])
            j = counters[v] % q + 1
            counters[v] = j
            v = tree.children[v][j - 1]
        leaf = v
        return s, v

    for colors in lasso.prefix:
        step(colors)

    seen = {}
    visits = []
    pos = 0
    while True:
        state = (pos, leaf, tuple(counters))
        if state in seen:
            start = seen[state]
            break
        seen[state] = len(visits)
        s, t = step(lasso.loop[pos])
        visits.append((s, t))
        pos = (pos + 1) % len(lasso.loop)

    recurring = set()
    for s, t in visits[start:]:
        recurring.add(s)
        recurring.add(t)
    dominating = min(recurring, key=lambda v: tree.depth[v])
    return dominating, tree.winning[dominating]
