import random

import pytest

from elgames import dd
from elgames.dd import BddError, Manager

from ttable import TTManager


def small_manager():
    m = Manager()
    for name in "xyzw":
        m.declare(name)
    return m


def test_basic_identities():
    m = small_manager()
    x, y = m.var("x"), m.var("y")
    assert (x & ~x).is_false()
    assert (x | m.true).is_true()
    assert m.ite(x, y, y) == y
    assert (x.implies(y)) == (~x | y)


def test_manager_mismatch_rejected():
    a = small_manager()
    b = small_manager()
    with pytest.raises(BddError):
        _ = a.var("x") & b.var("x")


def test_canonicity_equal_semantics_equal_handles():
    m = small_manager()
    x, y, z = m.var("x"), m.var("y"), m.var("z")
    lhs = ~(x & y) | z
    rhs = ~x | ~y | z
    assert lhs == rhs
    assert lhs.handle == rhs.handle


def test_quantification_one_point_and_dual():
    m = small_manager()
    x, y = m.var("x"), m.var("y")
    assert m.exists(["x"], x & y) == y
    assert m.forall(["x"], x | y) == y
    a = (x & y) | (~x & ~y)
    assert m.forall(["x"], a) == ~m.exists(["x"], ~a)


def declare_pairs(twin, names):
    """Declare each of ``names`` and then its primed copy on a manager or
    its twin; the map from each of their levels to the other's."""
    partner = {}
    for name in names:
        twin.declare(name)
        twin.declare(name + "'")
        a, b = twin.level(name), twin.level(name + "'")
        partner[a], partner[b] = b, a
    return partner


def swap_vector(m, partner):
    """The vector of literals, level to handle, that ``Core.compose``
    takes to swap every variable with its partner."""
    return {lv: m.core.var_node(p) for lv, p in partner.items()}


def swapped(m, a, vector):
    return dd.Assertion(m, m.core.compose(a.handle, vector))


def tt_swapped(tt, a, partner):
    return tt.compose(a, {lv: tt.var(tt.names[p])
                          for lv, p in partner.items()})


def test_second_compose_adds_no_node_and_no_memo_entry(monkeypatch):
    m = Manager()
    vector = swap_vector(m, declare_pairs(m, "xyz"))
    x, yp, z = m.var("x"), m.var("y'"), m.var("z")
    a = (x & yp) | (~x & ~z) | (m.var("x'") ^ m.var("z'"))
    first = swapped(m, a, vector)
    nodes, memo = m.core.node_count(), m.core.memo_entries()

    def build(*args):
        raise AssertionError("the second compose built a node")

    # the memo of a vector outlives the call, so an equal vector's
    # second composition builds nothing
    monkeypatch.setattr(m.core, "mk", build)
    monkeypatch.setattr(m.core, "ite", build)
    assert swapped(m, a, dict(vector)) == first
    assert (m.core.node_count(), m.core.memo_entries()) == (nodes, memo)


def test_unpartnered_variable_below_partnered_ones_rejected():
    """The swap vector maps the levels of ``x``, ``y`` and their primed
    copies but not ``u``'s.  The compose walk meets ``u`` only after
    composing nodes above it and raises ``KeyError``; a later compose
    over the same vector still matches the truth tables."""
    m, tt = Manager(), TTManager()
    for twin in (m, tt):
        partner = declare_pairs(twin, "xy")
        twin.declare("u")
    names = ["x", "x'", "y", "y'", "u"]

    def build(twin):
        x, yp, u = twin.var("x"), twin.var("y'"), twin.var("u")
        bad = (~x & yp) | (x & u)
        good = (~x & yp) | (x & twin.var("y"))
        return bad, good

    (bad, good), (_, tt_good) = build(m), build(tt)
    vector = swap_vector(m, partner)
    with pytest.raises(KeyError):
        swapped(m, bad, vector)
    assert_same_semantics(m, swapped(m, good, vector), tt,
                          tt_swapped(tt, tt_good, partner), names)


def test_count_sat_cubes():
    m = small_manager()
    assert m.count_sat(m.true, "xyzw") == 16
    assert m.count_sat(m.false, "xyzw") == 0
    x = m.var("x")
    assert m.count_sat(x, "xyzw") == 8


def test_count_sat_over_sub_block():
    m = Manager()
    m.declare("a")
    m.declare("b")
    m.declare("c")
    a, c = m.var("a"), m.var("c")
    # over a and b, c is abstracted away
    assert m.count_sat(a & c, ["a", "b"]) == 2
    assert m.count_sat(a & ~a, ["a", "b"]) == 0


def test_pick_witness_properties():
    m = small_manager()
    x, y = m.var("x"), m.var("y")
    a = x & ~y
    w = m.pick_witness(a, "xyzw")
    assert set(w) == set("xyzw")
    assert m.eval(a, w)
    assert m.pick_witness(a, ["y"]) == {"y": False}
    with pytest.raises(BddError):
        m.pick_witness(m.false, "xyzw")


def test_eval_matches_semantics():
    m = small_manager()
    x, y, z = m.var("x"), m.var("y"), m.var("z")
    a = (x | y) & ~z
    assert m.eval(a, {"x": True, "y": False, "z": False, "w": True})
    assert not m.eval(a, {"x": True, "y": True, "z": True, "w": False})


def _random_ops(rng, m, names, depth):
    """Random assertion built by the same op sequence on any manager."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.06:
            return m.true
        if r < 0.12:
            return m.false
        return m.var(names[rng.randrange(len(names))])
    op = rng.random()
    a = _random_ops(rng, m, names, depth - 1)
    if op < 0.15:
        return ~a
    b = _random_ops(rng, m, names, depth - 1)
    if op < 0.40:
        return a & b
    if op < 0.65:
        return a | b
    if op < 0.75:
        return a ^ b
    if op < 0.85:
        return a.implies(b)
    c = _random_ops(rng, m, names, depth - 1)
    return m.ite(a, b, c)


def assert_same_semantics(m, a, tt, ta, names):
    """``Manager.eval`` on name dicts and ``Core.eval`` on their points
    agree with the truth table on every assignment of ``names``."""
    for i in range(1 << len(names)):
        values = {n: bool(i >> k & 1) for k, n in enumerate(names)}
        want = tt.eval(ta, values)
        assert m.eval(a, values) == want, values
        point = m.point(n for n in names if values[n])
        assert m.core.eval(a.handle, point) == want, values


@pytest.mark.parametrize("seed", [2024, 2025])
def test_differential_against_truth_tables(seed):
    rng = random.Random(seed)
    for round_no in range(120):
        nvars = rng.randint(2, 8)
        names = ["v%d" % i for i in range(nvars)]
        m = Manager()
        tt = TTManager()
        for name in names:
            m.declare(name)
            tt.declare(name)
        rng_state = rng.getstate()
        a = _random_ops(rng, m, names, 4)
        rng.setstate(rng_state)
        ta = _random_ops(rng, tt, names, 4)
        assert_same_semantics(m, a, tt, ta, names)
        # quantification over a random subset
        subset = [n for n in names if rng.random() < 0.5]
        assert_same_semantics(m, m.exists(subset, a), tt, tt.exists(subset, ta), names)
        assert_same_semantics(m, m.forall(subset, a), tt, tt.forall(subset, ta), names)
        assert m.count_sat(a, names) == tt.count_sat(ta, names)
        assert m.count_sat(a, subset) == tt.count_sat(ta, subset)
        assert sorted(m.support_names(a)) == sorted(tt.support_names(ta))
        if not a.is_false():
            w = m.pick_witness(a, names)
            assert m.eval(a, w) and tt.eval(ta, w)


def test_points_wider_than_a_machine_word():
    # 64 padding variables put the tested ones at levels 64-69, so their
    # points are big ints; set padding bits change no value
    rng = random.Random(64)
    names = ["v%d" % i for i in range(6)]
    m = Manager()
    for i in range(64):
        m.declare("pad%d" % i)
    tt = TTManager()
    for name in names:
        m.declare(name)
        tt.declare(name)
    assert m.point(["v0"]) == 1 << 64 and m.point([]) == 0
    for _ in range(40):
        rng_state = rng.getstate()
        a = _random_ops(rng, m, names, 4)
        rng.setstate(rng_state)
        ta = _random_ops(rng, tt, names, 4)
        assert_same_semantics(m, a, tt, ta, names)
        noise = rng.getrandbits(64)
        for i in range(1 << len(names)):
            values = {n: bool(i >> k & 1) for k, n in enumerate(names)}
            assert m.core.eval(a.handle, noise | i << 64) == tt.eval(ta, values)


def test_eval_and_point_reject_unknown_names():
    m = small_manager()
    x = m.var("x")
    assert m.eval(x, {"x": True}) and not m.eval(x, {})
    for values in ({"x": True, "nope": True}, {"x": True, "nope": False}):
        with pytest.raises(BddError, match="nope"):
            m.eval(x, values)
    with pytest.raises(BddError, match="nope"):
        m.point(["x", "nope"])


def test_differential_rename_against_truth_tables():
    # a rename is a composition with a vector of literals
    rng = random.Random(77)
    for round_no in range(60):
        npairs = rng.randint(1, 4)
        m = Manager()
        tt = TTManager()
        unprimed = ["v%d" % i for i in range(npairs)]
        partner = declare_pairs(m, unprimed)
        declare_pairs(tt, unprimed)
        names = m.names
        rng_state = rng.getstate()
        a = _random_ops(rng, m, names, 4)
        rng.setstate(rng_state)
        ta = _random_ops(rng, tt, names, 4)
        assert_same_semantics(m, swapped(m, a, swap_vector(m, partner)), tt,
                              tt_swapped(tt, ta, partner), names)


def test_core_impl_reports_something():
    assert dd.CORE_IMPL == "pure"


def test_canonicity_tracks_truth_table_equality():
    rng = random.Random(31337)
    for _ in range(80):
        names = ["v%d" % i for i in range(rng.randint(2, 6))]
        m = Manager()
        tt = TTManager()
        for n in names:
            m.declare(n)
            tt.declare(n)
        state = rng.getstate()
        a = _random_ops(rng, m, names, 4)
        b = _random_ops(rng, m, names, 4)
        rng.setstate(state)
        ta = _random_ops(rng, tt, names, 4)
        tb = _random_ops(rng, tt, names, 4)
        assert (a.handle == b.handle) == (ta.bits == tb.bits)


def node_of(core, handle):
    """(level, low, high) of a node in the core's store."""
    return core._level[handle], core._lo[handle], core._hi[handle]


def _store_errors(core):
    """Violations of the reduced, hash-consed node store."""
    errors = []
    triples = {}
    for handle in range(2, core.node_count()):
        level, lo, hi = node_of(core, handle)
        if lo == hi:
            errors.append("node %d is redundant" % handle)
        if not (level < core._level[lo] and level < core._level[hi]):
            errors.append("node %d is not above its children" % handle)
        if (level, lo, hi) in triples:
            errors.append("nodes %d and %d are equal" % (triples[level, lo, hi], handle))
        triples[level, lo, hi] = handle
    if triples != core._unique:
        errors.append("the unique table does not index the store")
    return errors


def test_store_stays_reduced_and_canonical_after_random_ops():
    rng = random.Random(4242)
    for _ in range(40):
        npairs = rng.randint(1, 4)
        m = Manager()
        vector = swap_vector(m, declare_pairs(
            m, ["v%d" % i for i in range(npairs)]))
        names = m.names
        for _ in range(5):
            a = _random_ops(rng, m, names, 4)
            subset = [n for n in names if rng.random() < 0.4]
            m.exists(subset, a)
            m.forall(subset, a)
            swapped(m, a, vector)
        assert _store_errors(m.core) == []


def test_and_or_of_a_handle_with_itself_is_that_handle():
    m = small_manager()
    x, y, z, w = (m.var(n) for n in "xyzw")
    core = m.core
    h = ((x & ~y) | (z ^ w)).handle

    def sizes():
        return {k: len(v) for k, v in vars(core).items() if isinstance(v, dict)}

    nodes, before = core.node_count(), sizes()
    assert core.or_(h, h) == h
    assert core.and_(h, h) == h
    assert core.node_count() == nodes
    assert sizes() == before


def _twins(names):
    """A manager and its truth-table twin, declaring ``names``."""
    m, tt = Manager(), TTManager()
    for name in names:
        m.declare(name)
        tt.declare(name)
    return m, tt


def _same_random_ops(rng, m, tt, names, depth):
    state = rng.getstate()
    a = _random_ops(rng, m, names, depth)
    rng.setstate(state)
    return a, _random_ops(rng, tt, names, depth)


def test_core_rename_matches_truth_tables_under_any_permutation():
    rng = random.Random(515)
    for round_no in range(80):
        names = ["v%d" % i for i in range(rng.randint(2, 7))]
        m, tt = _twins(names)
        a, ta = _same_random_ops(rng, m, tt, names, 4)
        levels = list(range(len(names)))
        shuffled = levels[:]
        rng.shuffle(shuffled)
        perms = [dict(zip(levels, shuffled)),
                 dict(zip(levels, reversed(levels)))]
        for perm in perms:
            # a permutation is composition with a vector of literals
            vector = {l: m.core.var_node(p) for l, p in perm.items()}
            got = dd.Assertion(m, m.core.compose(a.handle, vector))
            want = tt.compose(ta, {l: tt.var(names[p]) for l, p in perm.items()})
            assert_same_semantics(m, got, tt, want, names)
        assert _store_errors(m.core) == []


def test_core_compose_matches_truth_tables_with_any_images():
    """Images that are not literals: constants, negated literals and
    random functions over every level, the composed ones included; a
    level missing from the vector raises ``KeyError``.  One manager per
    round, so the per-vector memo serves several assertions."""
    rng = random.Random(1989)
    for round_no in range(60):
        names = ["v%d" % i for i in range(rng.randint(2, 6))]
        m, tt = _twins(names)
        vector, tt_images = {}, {}
        for level in range(len(names)):
            if rng.random() < 0.7:
                image, tt_images[level] = _same_random_ops(rng, m, tt, names, 2)
                vector[level] = image.handle
        for _ in range(3):
            a, ta = _same_random_ops(rng, m, tt, names, 4)
            support = {m.level(n) for n in m.support_names(a)}
            if not support <= set(vector):
                with pytest.raises(KeyError):
                    m.core.compose(a.handle, vector)
                # map the missing levels to themselves, and compose again
                vector = {**{l: m.core.var_node(l) for l in support}, **vector}
                tt_images = {**{l: tt.var(names[l]) for l in support},
                             **tt_images}
            got = dd.Assertion(m, m.core.compose(a.handle, vector))
            want = tt.compose(ta, tt_images)
            assert_same_semantics(m, got, tt, want, names)
        assert _store_errors(m.core) == []


def test_quantifiers_match_truth_tables_wherever_the_last_level_lies():
    """The last quantified level above, inside and below the support;
    one manager per round, so the quantifier memos of one level set
    serve many assertions."""
    rng = random.Random(2718)
    names = ["v%d" % i for i in range(8)]
    for round_no in range(30):
        m, tt = _twins(names)
        for _ in range(6):
            a, ta = _same_random_ops(rng, m, tt, names[2:6], 4)
            # last quantified level v1, v4, v7: above, inside, below v2..v5
            for last in (1, 4, 7):
                subset = [n for n in names[:last] if rng.random() < 0.5]
                subset.append(names[last])
                for quant in ("exists", "forall"):
                    got = getattr(m, quant)(subset, a)
                    want = getattr(tt, quant)(subset, ta)
                    assert_same_semantics(m, got, tt, want, names)
                    if last == 1:
                        assert got == a
        assert _store_errors(m.core) == []
