import random

import pytest

from elgames import el
from elgames.el import And, Inf, Not, Or, TRUE

from el_reference import evaluate


ABCD = el.ColorTable("abcd")


def example_objective(table=ABCD):
    # (Inf a -> Inf b) & ((Fin a | Fin d) & Inf c)
    return el.parse_formula("(Inf a -> Inf b) & ((Fin a | Fin d) & Inf c)", table)


def test_parse_atoms_and_sugar():
    table = ABCD
    assert el.parse_formula("Inf a", table) == Inf(0)
    assert el.parse_formula("Fin a | Fin d", table) == Or(Not(Inf(0)), Not(Inf(3)))
    assert el.parse_formula("true", table) == TRUE
    assert el.parse_formula("Inf a -> Inf b", table) == Or(Not(Inf(0)), Inf(1))


def test_comparing_deep_trees_does_not_recurse():
    text = " & ".join(["Inf a"] * 1000)
    assert el.parse_formula(text, ABCD) == el.parse_formula(text, ABCD)

    def chain(leaf, depth=5000):
        phi = leaf
        for _ in range(depth):
            phi = And(phi, Inf(0))
        return phi

    assert chain(Inf(1)) == chain(Inf(1))
    assert chain(Inf(1)) != chain(Inf(2))
    # hash(-1) == hash(-2), so these chains hash alike at every level and
    # only the deepest leaf tells them apart
    assert hash(chain(Inf(-1))) == hash(chain(Inf(-2)))
    assert chain(Inf(-1)) != chain(Inf(-2))
    assert not chain(Inf(-1)) == chain(Inf(-2))


def test_nodes_are_immutable_values_with_a_pinned_repr():
    phi = And(Inf(0), Not(Inf(1)))
    assert repr(phi) == "And(left=Inf(color=0), right=Not(arg=Inf(color=1)))"
    assert repr(Or(TRUE, el.FALSE)) == "Or(left=TrueFormula(), right=FalseFormula())"
    assert hash(phi) == hash((Inf(0), Not(Inf(1))))
    assert hash(Inf(3)) == hash((3,)) and hash(TRUE) == hash(())
    assert phi == And(Inf(0), Not(Inf(1))) and len({phi, Inf(0) & ~Inf(1)}) == 1
    assert And(Inf(0), Inf(1)) != Or(Inf(0), Inf(1))
    assert And(Inf(0), Inf(1)) != And(Inf(1), Inf(0))
    with pytest.raises(AttributeError):
        phi.left = Inf(2)
    with pytest.raises(AttributeError):
        del phi.right
    for build, args in [(And, (Inf(0),)), (Inf, (0, 1)), (Not, ()), (el.TrueFormula, (1,))]:
        with pytest.raises(TypeError):
            build(*args)


def test_hashing_a_deep_chain_does_not_recurse():
    phi = Inf(0)
    for _ in range(5000):
        phi = Or(phi, Inf(0))
    assert hash(phi) == hash((phi.left, Inf(0)))
    assert phi in {phi} and phi != Or(phi.left, Inf(1))


def test_parse_unknown_color():
    table = el.ColorTable("ab")
    with pytest.raises(el.UnknownColorError):
        el.parse_formula("Inf q", table)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(el.ELSyntaxError):
        el.parse_formula("Inf a &", ABCD)
    with pytest.raises(el.ELSyntaxError):
        el.parse_formula("Inf a Inf b", ABCD)
    with pytest.raises(el.ELSyntaxError):
        el.parse_formula("(Inf a", ABCD)


A, B, C = Inf(0), Inf(1), Inf(2)


@pytest.mark.parametrize("text, expected", [
    ("Inf a -> Inf b -> Inf c", Or(Not(A), Or(Not(B), C))),
    ("(Inf a -> Inf b) -> Inf c", Or(Not(Or(Not(A), B)), C)),
    ("Inf a | Inf b -> Inf c & Inf a", Or(Not(Or(A, B)), And(C, A))),
    ("Inf a | Inf b | Inf c", Or(Or(A, B), C)),
    ("Inf a & Inf b & Inf c", And(And(A, B), C)),
    ("!Inf a | Fin b & !!Inf c", Or(Not(A), And(Not(B), Not(Not(C))))),
    ("!(Inf a | false)", Not(Or(A, el.FALSE))),
    # (text, (column, message)) of a syntax error
    ("(a", (1, "unexpected token 'a'")),
    ("a U", (0, "unexpected token 'a'")),
    ("Inf a Inf b", (6, "trailing input 'Inf'")),
    ("@", (0, "unexpected character '@'")),
    ("(Inf a", (6, "expected ')', found end of input")),
    ("Inf a &", (7, "unexpected end of input")),
    ("Inf", (3, "expected color name after Inf")),
    ("Fin ->", (4, "expected color name after Fin")),
    ("Inf true", (4, "expected color name after Inf")),
])
def test_parse_table(text, expected):
    if isinstance(expected, el.ELFormula):
        assert el.parse_formula(text, ABCD) == expected
        return
    column, message = expected
    with pytest.raises(el.ELSyntaxError) as err:
        el.parse_formula(text, ABCD)
    assert err.value.position == column
    assert str(err.value) == "%s (at column %d)" % (message, column + 1)


def test_precedence_not_over_and_over_or():
    table = ABCD
    phi = el.parse_formula("!Inf a & Inf b | Inf c", table)
    assert phi == Or(And(Not(Inf(0)), Inf(1)), Inf(2))


def test_eval_on_branching_objective():
    phi = example_objective()
    assert evaluate(phi, ABCD.mask("a", "b", "c", "d")) is False
    assert evaluate(phi, ABCD.mask("a", "b", "c")) is True
    assert evaluate(phi, ABCD.mask("a", "c")) is False
    assert evaluate(phi, ABCD.mask("c")) is True


def test_buchi_builder():
    table = el.ColorTable(["f"])
    assert el.buchi(table, "f") == Inf(0)


def test_streett_builder_single_pair():
    table = el.ColorTable(["r1", "g1"])
    assert el.streett(table, [("r1", "g1")]) == Or(Not(Inf(0)), Inf(1))


def test_muller_builder_single_set():
    table = el.ColorTable("ab")
    assert el.muller(table, [{"a"}]) == And(Inf(0), Not(Inf(1)))


def test_builders_reject_bad_params():
    table = el.ColorTable("abcd")
    with pytest.raises(el.ELError):
        el.streett(table, [])
    with pytest.raises(el.ELError):
        el.rabin(table, [("a", "b"), ("c", "a")])
    with pytest.raises(el.ELError):
        el.parity(table, ["a", "b", "c"])


def test_parity_satisfied_iff_max_priority_even():
    for k in (1, 2, 3):
        names = ["p%d" % i for i in range(1, 2 * k + 1)]
        table = el.ColorTable(names)
        phi = el.parity(table, names)
        for mask in range(1, table.full_mask + 1):
            top = max(i for i in range(2 * k) if mask >> i & 1)
            assert evaluate(phi, mask) == ((top + 1) % 2 == 0), (k, mask)


def assert_table_matches(phi, ncolors):
    truth = el.truth_table(phi, ncolors)
    assert truth >> (1 << ncolors) == 0
    for mask in range(1 << ncolors):
        assert bool(truth >> mask & 1) == evaluate(phi, mask), (phi, mask)


def test_truth_table_matches_evaluate_on_random_formulas():
    rng = random.Random(29)
    for _ in range(300):
        ncolors = rng.randint(1, 8)
        table = el.ColorTable("abcdefgh"[:ncolors])
        assert_table_matches(el.random_formula(rng, table, 5), ncolors)


def test_truth_table_matches_evaluate_on_named_families():
    table = el.ColorTable("abcdef")
    pairs = [("a", "b"), ("c", "d"), ("e", "f")]
    families = [
        el.buchi(table, "c"),
        el.generalized_buchi(table, ["a", "c", "f"]),
        el.parity(table, list("abcdef")),
        el.streett(table, pairs),
        el.rabin(table, pairs),
        el.even_cardinality_muller(table),
        el.TRUE,
        el.FALSE,
    ]
    for phi in families + [Not(phi) for phi in families]:
        assert_table_matches(phi, len(table))
    assert el.truth_table(el.TRUE, 0) == 1 and el.truth_table(el.FALSE, 0) == 0


def test_truth_table_color_budget():
    table = el.ColorTable(["c%d" % i for i in range(13)])
    phi = el.generalized_buchi(table, table.names)
    with pytest.raises(el.ELError, match="color budget exceeded: 13 > 12"):
        el.truth_table(phi, len(table))
    # The budget is checked before the formula is read, so no table of
    # 2^13 bits is started: a non-formula fails on the budget, not its type.
    with pytest.raises(el.ELError, match="color budget exceeded: 13 > 12"):
        el.truth_table(object(), len(table))
    with pytest.raises(el.ELError, match="outside 2 colors"):
        el.truth_table(Inf(2), 2)


def test_negation_involution_exhaustive():
    rng = random.Random(11)
    for ncolors in range(1, 7):
        table = el.ColorTable("abcdef"[:ncolors])
        for _ in range(20):
            phi = el.random_formula(rng, table, 4)
            for mask in range(table.full_mask + 1):
                assert evaluate(Not(phi), mask) == (not evaluate(phi, mask))


def test_print_parse_round_trip():
    rng = random.Random(7)
    table = el.ColorTable("abcde")
    for _ in range(300):
        phi = el.random_formula(rng, table, 5)
        text = el.format_formula(phi, table)
        assert el.parse_formula(text, table) == phi, text


def test_color_table_limits():
    with pytest.raises(el.ELError):
        el.ColorTable(["a", "a"])
    with pytest.raises(el.ELError):
        el.ColorTable(["c%d" % i for i in range(31)])
    with pytest.raises(el.ELError):
        el.ColorTable(["true"])
