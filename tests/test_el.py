import random

import pytest

from elgames import el
from elgames.el import And, Inf, Not, Or, TRUE


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
    assert el.evaluate(phi, ABCD.mask("a", "b", "c", "d")) is False
    assert el.evaluate(phi, ABCD.mask("a", "b", "c")) is True
    assert el.evaluate(phi, ABCD.mask("a", "c")) is False
    assert el.evaluate(phi, ABCD.mask("c")) is True


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
            assert el.evaluate(phi, mask) == ((top + 1) % 2 == 0), (k, mask)


def test_negation_involution_exhaustive():
    rng = random.Random(11)
    for ncolors in range(1, 7):
        table = el.ColorTable("abcdef"[:ncolors])
        for _ in range(20):
            phi = el.random_formula(rng, table, 4)
            for mask in range(table.full_mask + 1):
                assert el.evaluate(Not(phi), mask) == (not el.evaluate(phi, mask))


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
