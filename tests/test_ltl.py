import random

import pytest

from elgames import ltl
from elgames.dd import Manager
from elgames.ltl import (Ap, AndOp, Finally, Globally, Implies, Next, NotOp,
                         OrOp, Release, Until, atoms, check_safety,
                         determinize_symbolic, nfa_from_safety, parse_ltl,
                         to_nnf)

from ltl_reference import (dsa_accepts_lasso, eval_ltl_lasso,
                           eval_propositional, nfa_accepts_lasso,
                           reachable_subset_count, relation, successors)

A, B, C = Ap("a"), Ap("b"), Ap("c")

EX_SAFETY = "G(b | c) & G(a -> b | X X b)"
EX_SAFETY_CORE = "G(a -> b | X X b)"


def tableau(text, letters=None):
    """Tableau automaton of a safety formula over ``letters``, by
    default its atoms in sorted order."""
    nnf = check_safety(parse_ltl(text))
    return nfa_from_safety(nnf, sorted(atoms(nnf)) if letters is None
                           else letters)


def test_parse_shapes():
    phi = parse_ltl(EX_SAFETY_CORE)
    assert phi == Globally(Implies(A, OrOp(B, Next(Next(B)))))
    assert parse_ltl("a U b R c") == ltl.Until(A, Release(B, C))
    assert parse_ltl("!a & b") == AndOp(NotOp(A), B)


def test_nodes_are_immutable_values_with_a_pinned_repr():
    # The tableau orders obligations by repr, so its form is pinned.
    phi = AndOp(A, NotOp(B))
    assert repr(phi) == "AndOp(left=Ap(name='a'), right=NotOp(arg=Ap(name='b')))"
    assert repr(Until(Next(A), Release(B, ltl.LTL_FALSE))) == (
        "Until(left=Next(arg=Ap(name='a')), "
        "right=Release(left=Ap(name='b'), right=Fls()))")
    assert repr(ltl.LTL_TRUE) == "Tru()"
    assert hash(phi) == hash((A, NotOp(B)))
    assert hash(A) == hash(("a",)) and hash(ltl.LTL_TRUE) == hash(())
    assert phi == AndOp(Ap("a"), NotOp(Ap("b"))) and len({phi, AndOp(A, NotOp(B))}) == 1
    assert AndOp(A, B) != OrOp(A, B) and Globally(A) != Finally(A)
    assert AndOp(A, B) != AndOp(B, A)
    with pytest.raises(AttributeError):
        phi.left = B
    with pytest.raises(AttributeError):
        del phi.right
    for build, args in [(AndOp, (A,)), (NotOp, (A, B)), (ltl.Tru, (A,)), (Ap, ())]:
        with pytest.raises(TypeError):
            build(*args)


def test_hashing_a_deep_chain_does_not_recurse():
    phi = A
    for _ in range(5000):
        phi = AndOp(phi, A)
    assert hash(phi) == hash((phi.left, A))
    assert phi in {phi} and phi != AndOp(phi.left, B)


def test_parse_errors():
    with pytest.raises(ltl.LTLSyntaxError):
        parse_ltl("G (a")
    with pytest.raises(ltl.LTLSyntaxError):
        parse_ltl("a U")


@pytest.mark.parametrize("text, expected", [
    ("a -> b -> c", Implies(A, Implies(B, C))),
    ("(a -> b) -> c", Implies(Implies(A, B), C)),
    ("a | b -> c & a", Implies(OrOp(A, B), AndOp(C, A))),
    ("a -> b | c & a", Implies(A, OrOp(B, AndOp(C, A)))),
    ("a | b | c", OrOp(OrOp(A, B), C)),
    ("a U b R c", Until(A, Release(B, C))),
    ("a R b U c", Release(A, Until(B, C))),
    ("a U b & c", AndOp(Until(A, B), C)),
    ("!a U X b", Until(NotOp(A), Next(B))),
    ("F a U G b", Until(Finally(A), Globally(B))),
    ("G F !a", Globally(Finally(NotOp(A)))),
    ("Inf & true", AndOp(Ap("Inf"), ltl.LTL_TRUE)),
    # (text, (column, message)) of a syntax error
    ("(a", (2, "expected ')', found end of input")),
    ("a U", (3, "unexpected end of input")),
    ("Inf a Inf b", (4, "trailing input 'a'")),
    ("@", (0, "unexpected character '@'")),
    ("a & U", (4, "unexpected token 'U'")),
    ("G", (1, "unexpected end of input")),
])
def test_parse_table(text, expected):
    if isinstance(expected, ltl.LTLFormula):
        assert parse_ltl(text) == expected
        return
    column, message = expected
    with pytest.raises(ltl.LTLSyntaxError) as err:
        parse_ltl(text)
    assert err.value.position == column
    assert str(err.value) == "%s (at column %d)" % (message, column + 1)


def test_nnf_dualities():
    assert to_nnf(NotOp(Globally(A))) == ltl.Finally(NotOp(A))
    assert to_nnf(NotOp(Next(A))) == Next(NotOp(A))
    assert to_nnf(NotOp(ltl.Until(A, B))) == Release(NotOp(A), NotOp(B))
    assert to_nnf(NotOp(NotOp(A))) == A


def test_safety_check_accepts_and_rejects():
    assert check_safety(parse_ltl("G(b | c)")) == Globally(OrOp(B, C))
    with pytest.raises(ltl.NotSafetyError):
        check_safety(parse_ltl("F b"))
    with pytest.raises(ltl.NotSafetyError):
        check_safety(parse_ltl("!(G b)"))
    with pytest.raises(ltl.NotSafetyError):
        check_safety(parse_ltl("a U b"))
    # implication with a propositional antecedent stays a safety formula
    assert isinstance(check_safety(parse_ltl(EX_SAFETY_CORE)), Globally)


def test_safety_check_accepts_a_negated_compound_antecedent():
    # to_nnf keeps a propositional antecedent as written, negation and all
    rng = random.Random(17)
    for text in ("G(!(a & b) -> X c)", "!(a & b) -> X c"):
        phi = parse_ltl(text)
        nnf = check_safety(phi)
        assert nnf == to_nnf(phi)
        nfa = nfa_from_safety(nnf, sorted(atoms(nnf)))
        dsa = determinize_symbolic(nfa)
        for _ in range(40):
            prefix, loop = random_lasso(rng, ["a", "b", "c"], 4)
            assert eval_ltl_lasso(phi, prefix, loop) \
                == nfa_accepts_lasso(nfa, prefix, loop) \
                == dsa_accepts_lasso(dsa, prefix, loop), (text, prefix, loop)
    # a temporal antecedent is still rewritten, and rejected when its
    # negation is not safety: !(!(F a)) is F a, !(G a) is F !a
    for text, offending in (("G(!(F a) -> X c)", "F"), ("G(G a -> X c)", "F")):
        with pytest.raises(ltl.NotSafetyError) as err:
            check_safety(parse_ltl(text))
        assert err.value.offending == offending, text


def paper_nfa():
    """The four-state automaton for G(a -> b | XXb) as drawn: state 0
    tracks nothing pending, 1 needs b next, 2 needs b now, 3 needs b
    now and next."""
    t = [
        [(parse_ltl("!a | b"), 0), (parse_ltl("a"), 1)],
        [(parse_ltl("!a | b"), 2), (parse_ltl("a"), 3)],
        [(parse_ltl("b"), 0), (parse_ltl("a & b"), 1)],
        [(parse_ltl("b"), 2), (parse_ltl("a & b"), 3)],
    ]
    m = Manager()
    for name in "ab":
        m.declare(name)
    return ltl.SafetyNFA([frozenset([("paper", i)]) for i in range(4)], 0, t,
                         m)


def subset_language_equal(n1, n2):
    """Safety-language equality via the product of subset constructions."""
    assert n1.ap == n2.ap
    start = (frozenset([n1.initial]), frozenset([n2.initial]))
    seen = {start}
    queue = [start]
    letters = list(ltl.letters(n1.ap))
    while queue:
        s1, s2 = queue.pop()
        if bool(s1) != bool(s2):
            return False
        for letter in letters:
            t1 = frozenset(t for s in s1 for t in successors(n1, s, letter))
            t2 = frozenset(t for s in s2 for t in successors(n2, s, letter))
            if (t1, t2) not in seen:
                seen.add((t1, t2))
                queue.append((t1, t2))
    return True


def test_tableau_matches_paper_automaton():
    nfa = tableau(EX_SAFETY_CORE)
    assert len(nfa) == 4
    assert subset_language_equal(nfa, paper_nfa())


def test_tableau_single_state_for_globally_atom():
    nfa = tableau("G b")
    assert len(nfa) == 1
    assert nfa.transitions[0] == [(B, 0)]


def test_tableau_enumerates_no_letters(monkeypatch):
    # Branch satisfiability is read off a diagram, never by trying letters.
    def no_letters(names):
        raise AssertionError("the tableau enumerated letters")

    monkeypatch.setattr(ltl, "letters", no_letters)
    mutex3 = "G(!(g0 & g1) & !(g0 & g2) & !(g1 & g2))"
    specs = [
        (EX_SAFETY, 4, 12),
        ("G(!(g0 & g1)) & G(r0 -> X g0 | X X g0)", 4, 12),
        (mutex3 + "".join(" & G(r%d -> X g%d | X X g%d)" % (i, i, i)
                          for i in range(3)), 16, 136),
    ]
    for text, states, transitions in specs:
        nfa = tableau(text)
        assert (len(nfa), sum(map(len, nfa.transitions))) == \
            (states, transitions), text


def test_tableau_of_a_wide_antecedent_is_immediate():
    # 31 atoms: trying letters would take up to 2^31 on the trigger branch.
    trigger = " & ".join("a%d" % i for i in range(30))
    nfa = tableau("G((%s) -> X b)" % trigger)
    assert len(nfa.ap) == 31
    assert len(nfa) == 2
    assert [len(out) for out in nfa.transitions] == [2, 2]


def test_tableau_drops_a_branch_whose_constraints_contradict():
    nfa = tableau("G(a -> !a & X b)")
    assert nfa.transitions == [[(NotOp(A), 0)]]


def test_every_tableau_transition_has_a_letter():
    rng = random.Random(38)
    names = ["a", "b", "c"]
    for _ in range(150):
        nfa = nfa_from_safety(
            check_safety(random_safety_formula(rng, names, 3)), names)
        for out in nfa.transitions:
            for constraint, _ in out:
                assert any(eval_propositional(constraint, letter)
                           for letter in ltl.letters(names)), constraint


def test_empty_language_formula_dies():
    nfa = tableau("X X false")
    dsa = determinize_symbolic(nfa)
    assert not dsa_accepts_lasso(dsa, [], [frozenset()])
    assert not nfa_accepts_lasso(nfa, [], [frozenset()])
    assert not eval_ltl_lasso(parse_ltl("X X false"), [], [frozenset()])


def test_determinization_theta0_is_exactly_initial_cube():
    nfa = tableau(EX_SAFETY_CORE)
    dsa = determinize_symbolic(nfa)
    m = dsa.manager
    assert nfa.initial == 0
    expected = m.cube({v: i == 0 for i, v in enumerate(dsa.state_vars)})
    assert dsa.theta0 == expected


def test_transition_assertion_matches_displayed_form():
    # For the automaton of G(a -> b | XXb): the four next-step bits over
    # (v, a, b) plus the nonemptiness disjunct.  States are located
    # by which obligations they track (nothing / b next / b now / both),
    # since discovery order need not match the drawn numbering.
    nfa = tableau(EX_SAFETY_CORE)
    dsa = determinize_symbolic(nfa)
    m = dsa.manager

    def locate(b_now, b_next):
        for i, state in enumerate(nfa.states):
            has_now = Ap("b") in state
            has_next = Next(Ap("b")) in state
            if has_now == b_now and has_next == b_next:
                return i
        raise AssertionError("state not found")

    s1, s2, s3, s4 = (locate(False, False), locate(False, True),
                      locate(True, False), locate(True, True))
    v = {i: m.var(dsa.state_vars[i]) for i in (s1, s2, s3, s4)}
    a, b = m.var("a"), m.var("b")
    expected = {
        s1: (v[s1] & (~a | b)) | (v[s3] & b),
        s2: (v[s1] & a) | (v[s3] & (a & b)),
        s3: (v[s2] & (~a | b)) | (v[s4] & b),
        s4: (v[s2] & a) | (v[s4] & (a & b)),
    }
    assert {q: dsa.rhs[q] for q in expected} == expected
    assert dsa.nonempty == v[s1] | v[s2] | v[s3] | v[s4]


def test_reachable_subsets_of_full_example_is_nine():
    nfa = tableau(EX_SAFETY)
    assert len(nfa) == 4
    dsa = determinize_symbolic(nfa)
    assert reachable_subset_count(dsa) == 9


def test_determinization_lays_letters_out_in_the_given_order():
    nfa = tableau("G(a -> X b)")
    assert nfa.ap == ("a", "b") and nfa.manager.names == ["a", "b"]
    dsa = determinize_symbolic(nfa)
    assert dsa.manager is nfa.manager
    assert dsa.manager.names == ["a", "b"] + list(dsa.state_vars)
    # letters the automaton does not read get variables too
    nfa = tableau("G(a -> X b)", ("b", "d", "a"))
    assert nfa.ap == ("b", "d", "a")
    dsa = determinize_symbolic(nfa)
    assert dsa.manager.names == ["b", "d", "a"] + list(dsa.state_vars)
    # but the alphabet must cover the formula's atoms
    with pytest.raises(ltl.LTLError, match="outside the alphabet: b$"):
        tableau("G(a -> X b)", ("a", "d"))


def test_a_subsets_point_is_its_bits_past_the_letters():
    # Letters sit at levels 0..k-1 and state variable q at level k + q,
    # so a subset's point is its bits shifted past the letters, and a
    # (subset, letter) point joins it with the letter's point.
    nfa = tableau(EX_SAFETY, ("c", "a", "b"))
    dsa = determinize_symbolic(nfa)
    m = dsa.manager
    k = len(dsa.ap)
    assert [m.level(v) for v in dsa.state_vars] == \
        list(range(k, k + len(nfa)))
    assert m.point(["c", "b"]) == 0b101
    for bits in range(1 << len(nfa)):
        subset = [v for i, v in enumerate(dsa.state_vars) if bits >> i & 1]
        assert m.point(subset) == bits << k
        for letter in ltl.letters("abc"):
            point = dsa.point(bits, m.point(letter))
            assert point == m.point(subset + sorted(letter))
            if bits:
                assert dsa.step_bits(bits, letter) == dsa.step_point(point)


def test_automaton_does_not_depend_on_the_hash_seed():
    # The tableau expands each state's obligations in a canonical order,
    # so the built game is the same diagram under every PYTHONHASHSEED.
    import os
    import subprocess
    import sys
    script = (
        "from elgames import synthesis as syn\n"
        "p = syn.problem_from_strings('G(!(g0 & g1)) & G(r0 -> X g0) & "
        "G(r1 -> X g1)', '(G F r0 -> G F g0) & (G F r1 -> G F g1)', "
        "['r0', 'r1'], ['g0', 'g1'])\n"
        "g = syn.build_game(p)\n"
        "print(g.manager.core.node_count(), g.dsa.nfa.transitions)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.abspath(src))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1]


def test_reachable_subsets_of_globally_atom_is_one():
    nfa = tableau("G b")
    dsa = determinize_symbolic(nfa)
    assert reachable_subset_count(dsa) == 1


def test_determinism_of_transition_assertion():
    nfa = tableau(EX_SAFETY)
    dsa = determinize_symbolic(nfa)
    m = dsa.manager
    rho = relation(dsa)
    for bits in range(1, 16):
        for letter_bits in range(8):
            letter = {"a": bool(letter_bits & 1), "b": bool(letter_bits & 2),
                      "c": bool(letter_bits & 4)}
            cube = {}
            for i, name in enumerate(dsa.state_vars):
                cube[name] = bool(bits >> i & 1)
            cube.update(letter)
            ctx = m.cube(cube)
            assert m.count_sat(rho & ctx,
                               [v + "'" for v in dsa.state_vars]) == 1


def random_safety_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        atom = Ap(names[rng.randrange(len(names))])
        return NotOp(atom) if rng.random() < 0.4 else atom
    r = rng.random()
    a = random_safety_formula(rng, names, depth - 1)
    if r < 0.2:
        return Next(a)
    if r < 0.4:
        return Globally(a)
    b = random_safety_formula(rng, names, depth - 1)
    if r < 0.6:
        return AndOp(a, b)
    if r < 0.8:
        return OrOp(a, b)
    return Release(a, b)


def random_lasso(rng, names, max_len):
    def letters(k):
        return tuple(frozenset(n for n in names if rng.random() < 0.5)
                     for _ in range(k))
    return letters(rng.randint(0, max_len)), letters(rng.randint(1, max_len))


def test_language_agreement_on_random_lassos():
    rng = random.Random(505)
    names = ["a", "b", "c"]
    for _ in range(150):
        phi = random_safety_formula(rng, names, 3)
        nnf = check_safety(phi)
        nfa = nfa_from_safety(nnf, sorted(atoms(nnf)))
        if len(nfa) > 8:
            continue
        dsa = determinize_symbolic(nfa)
        for _ in range(4):
            prefix, loop = random_lasso(rng, names, 4)
            direct = eval_ltl_lasso(phi, prefix, loop)
            via_nfa = nfa_accepts_lasso(nfa, prefix, loop)
            via_dsa = dsa_accepts_lasso(dsa, prefix, loop)
            assert direct == via_nfa == via_dsa, (phi, prefix, loop)


def test_lasso_eval_handles_until_and_finally():
    w = ([frozenset()], [frozenset(["a"])])
    assert eval_ltl_lasso(parse_ltl("F a"), *w)
    assert not eval_ltl_lasso(parse_ltl("G a"), *w)
    assert eval_ltl_lasso(parse_ltl("!a U a"), *w)
    assert eval_ltl_lasso(parse_ltl("X G a"), *w)


def test_atoms_collection():
    assert atoms(parse_ltl(EX_SAFETY)) == {"a", "b", "c"}


def test_determinization_budget(monkeypatch):
    nfa = tableau(EX_SAFETY)
    monkeypatch.setattr(ltl, "MAX_SUBSET_VARS", 2)
    with pytest.raises(ltl.LTLError, match="variable budget exceeded"):
        determinize_symbolic(nfa)


def test_prop_assert_matches_letter_semantics_and_rejects_temporal():
    m = Manager()
    for name in "abc":
        m.declare(name)
    phi = parse_ltl("(a -> b) & !(c | false) | true & !a")
    got = ltl.prop_assert(m, phi)
    for bits in range(8):
        letter = frozenset(n for i, n in enumerate("abc") if bits >> i & 1)
        values = {n: n in letter for n in "abc"}
        assert m.eval(got, values) == eval_propositional(phi, letter)
    with pytest.raises(ltl.LTLError):
        ltl.prop_assert(m, parse_ltl("a & X b"))
