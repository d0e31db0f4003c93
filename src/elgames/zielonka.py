"""Zielonka trees for Emerson-Lei objectives.

The tree for an objective over colors ``C`` has its root labeled ``C``;
every vertex has one child per maximal proper subset of its label that
flips satisfaction of the objective.  Winning vertices are those whose
label satisfies the objective.  Vertices are numbered in preorder and
children are ordered by descending label cardinality, then by mask
value, which makes the numbering (the total order used everywhere
downstream) deterministic.  The anchor of a vertex and a color set is
the vertex's deepest ancestor (or itself) whose label contains the set.

The objective is evaluated once per tree, as its truth table
(:func:`el.truth_table`, one bit per color set); a vertex's winning flag
and its children (:func:`el.maximal_flipped`) are bit lookups in it.
Past ``el.MAX_TABLE_COLORS`` colors the table, and so the tree, is
refused with a "color budget exceeded" error.
"""

from . import el


class ZielonkaTree:
    """Immutable tree; vertex ids are preorder positions."""

    def __init__(self, formula, table):
        el.check_colors(formula, table)
        truth = el.truth_table(formula, len(table))
        self.formula = formula
        self.table = table
        self.label = []
        self.winning = []
        self.parent = []
        self.children = []
        self.depth = []
        self.lfp_depth = []
        self._build(truth, table.full_mask, None)
        ncolors = len(table)
        self.level = [ncolors - d for d in self.depth]
        self.leaves = tuple(v for v in range(len(self.label)) if not self.children[v])

    def _build(self, truth, mask, parent):
        vid = len(self.label)
        win = bool(truth >> mask & 1)
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
        for sub in el.maximal_flipped(truth, mask, win):
            self._build(truth, sub, vid)
        self.children[vid] = tuple(self.children[vid])
        return vid

    def __len__(self):
        return len(self.label)

    @property
    def root(self):
        return 0

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
