"""Reference checks for Zielonka trees, kept out of the library.

Structural invariants of a built tree, the closed-form bound on its
size, a reference builder that evaluates the objective on one subset at
a time, and a fair induced-walk simulator over ultimately periodic
colour sequences that serves as a semantic oracle for the tree.
"""

from dataclasses import dataclass

from elgames import el

from el_reference import evaluate


def vertex_with_label(tree, mask):
    """The tree's vertex labelled ``mask``."""
    for v, lab in enumerate(tree.label):
        if lab == mask:
            return v
    raise KeyError("no vertex labeled %s" % tree.table.format_mask(mask))


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
        if tree.winning[v] != evaluate(phi, tree.label[v]):
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
                            evaluate(phi, grown) != tree.winning[v]:
                        errors.append(
                            "child %d of %d is not maximal (add %s)"
                            % (c, v, table.name(cid)))
    if tree.depth and max(tree.depth) > len(table):
        errors.append("height exceeds |C|")
    if any(len(tree.children[v]) > 1 << len(table) for v in range(n)):
        errors.append("branching exceeds 2^|C|")
    return errors


def reference_tree(formula, table):
    """``(label, winning, parent, children)`` of the Zielonka tree in
    preorder, each vertex's children found by evaluating the objective
    on every subset of its label (:func:`maximal_flipped`)."""
    label, winning, parent, children = [], [], [], []

    def build(mask, up):
        vid = len(label)
        win = evaluate(formula, mask)
        label.append(mask)
        winning.append(win)
        parent.append(up)
        children.append([])
        if up is not None:
            children[up].append(vid)
        for sub in maximal_flipped(formula, mask, win):
            build(sub, vid)

    build(table.full_mask, None)
    return label, winning, parent, [tuple(c) for c in children]


def maximal_flipped(formula, mask, win):
    """Maximal proper submasks of ``mask`` with flipped satisfaction,
    ordered by descending cardinality then mask value."""
    flipped = [sub for sub in el.subsets_of(mask)
               if sub != mask and evaluate(formula, sub) != win]
    flipped.sort(key=lambda m: (-bin(m).count("1"), m))
    kept = []
    for m in flipped:
        if not any(k & m == m for k in kept):
            kept.append(m)
    return kept


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
    leaf = tree.leaves[0]
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
