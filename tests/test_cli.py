import os
import pathlib
import subprocess
import sys

import pytest

from elgames import cli
from elgames.cli import main
from elgames.fixpoint import StageLimitError
from elgames.games import random_game, save_game


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.elg"
    path.write_text(save_game(random_game(11, 6, 3)))
    return str(path)


def test_ztree_buchi(capsys):
    assert main(["ztree", "--el", "Inf f"]) == 0
    out = capsys.readouterr().out
    assert "2 vertices" in out
    assert "box {f}" in out and "circle {}" in out


def test_ztree_prints_equations(capsys):
    # The objective of test_el.example_objective, colors in its table order.
    assert main(["ztree", "--el", "(Inf a -> Inf b) & ((Fin a | Fin d) & Inf c)",
                 "--colors", "a,b,c,d"]) == 0
    _, equations = capsys.readouterr().out.split("8 vertices, 3 leaves, height 4\n")
    lines = equations.splitlines()
    assert len(lines) == 8 and lines[0] == "X0 =LFP X1 | X6"
    assert "CPre(X0)" in lines[2]


def test_ztree_dot(capsys):
    assert main(["ztree", "--el", "Inf f & Inf g", "--dot"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_syntax_errors_name_the_end_of_input(capsys):
    assert main(["ztree", "--el", "Inf a &"]) == 3
    err = capsys.readouterr().err
    assert err == "error: unexpected end of input (at column 8)\n"
    assert main(["synth", "--safety", "G(b", "--el", "G F b",
                 "--inputs", "a", "--outputs", "b"]) == 3
    assert capsys.readouterr().err == \
        "error: expected ')', found end of input (at column 4)\n"


def test_syntax_errors_name_the_bad_character(capsys):
    assert main(["ztree", "--el", "Inf a  @"]) == 3
    assert capsys.readouterr().err == \
        "error: unexpected character '@' (at column 8)\n"
    assert main(["synth", "--safety", "G(b  @)", "--el", "G F b",
                 "--inputs", "a", "--outputs", "b"]) == 3
    assert capsys.readouterr().err == \
        "error: unexpected character '@' (at column 6)\n"


@pytest.mark.parametrize("nest", [
    lambda phi: "!" * 1200 + phi,
    lambda phi: "(" * 600 + phi + ")" * 600,
], ids=["negations", "parentheses"])
def test_deeply_nested_formulas_are_input_errors(nest, capsys):
    too_deep = "error: formula nested too deeply (over 100 levels) (at column 102)\n"
    assert main(["ztree", "--el", nest("Inf a")]) == 3
    assert capsys.readouterr().err == too_deep
    for safety, liveness in [(nest("b"), "G F b"), ("G(b)", nest("G F b"))]:
        assert main(["synth", "--safety", safety, "--el", liveness,
                     "--inputs", "a", "--outputs", "b"]) == 3
        assert capsys.readouterr().err == too_deep
    # Nesting at the limit parses; one more level does not.
    assert main(["ztree", "--el", "!" * 100 + "Inf a"]) == 0
    assert main(["ztree", "--el", "!" * 101 + "Inf a"]) == 3


def test_long_flat_chain_builds_its_tree(capsys):
    # A left-folded chain is 1,000 formula levels deep but one parser
    # level; the objective is evaluated without recursion.
    assert main(["ztree", "--el", " & ".join(["Inf a"] * 1000)]) == 0
    assert "2 vertices, 1 leaves, height 1" in capsys.readouterr().out


def _chain(n, conjunct="(r -> g)"):
    return " & ".join([conjunct] * n)


def test_long_ltl_chain_synthesizes_up_to_the_depth_bound(capsys):
    # A left-folded chain is one parser level but one tree level per
    # conjunct; normalization, the tableau and repr recurse once per
    # level, so trees deeper than ltl.MAX_DEPTH are input errors.
    too_deep = "error: formula too deep: over 400 levels\n"
    # G, then 397 nested conjunctions over (r -> g): 400 levels.
    for n in (300, 398):
        assert main(["synth", "--safety", "G(%s)" % _chain(n), "--el", "G F g",
                     "--inputs", "r", "--outputs", "g"]) == 0
        assert capsys.readouterr().out.strip() == "REALIZABLE"
    for n in (399, 2000):
        assert main(["synth", "--safety", "G(%s)" % _chain(n), "--el", "G F g",
                     "--inputs", "r", "--outputs", "g"]) == 3
        assert capsys.readouterr().err == too_deep
    assert main(["synth", "--safety", "G(r -> g)", "--el", _chain(2000, "G F g"),
                 "--inputs", "r", "--outputs", "g"]) == 3
    assert capsys.readouterr().err == too_deep


def test_ztree_colors_skip_keywords_after_inf(capsys):
    # "Inf Fin" names no color; the parser reports where one is missing.
    assert main(["ztree", "--el", "Inf Fin a"]) == 3
    assert capsys.readouterr().err == \
        "error: expected color name after Inf (at column 5)\n"


def test_solve_prints_win_line(game_file, capsys):
    assert main(["solve", game_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("WIN:")


def test_solve_with_verify_and_oracle(game_file, capsys, tmp_path):
    strat = str(tmp_path / "out.strat")
    code = main(["solve", game_file, "--verify", "--oracle-check",
                 "--strategy", strat])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verified" in out and "agrees" in out
    assert open(strat).read().startswith("strategy 1")


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_library_imports_without_dataclasses():
    # Every CLI call pays the library's cold import, and generating the
    # dataclass methods took most of it.  ``-S`` keeps modules that
    # site-packages import at start-up out of the fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, elgames.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_readme_game_block_is_the_example_file():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```\nelgame 1\n", 1)[1].split("```", 1)[0]
    assert (ROOT / "example.elg").read_text() == "elgame 1\n" + block


def test_readme_game_file_solves_verifies_and_agrees(capsys):
    code = main(["solve", str(ROOT / "example.elg"), "--verify", "--oracle-check"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "verified" in out and "agrees" in out


def test_solve_deterministic_output(game_file, capsys):
    main(["solve", game_file])
    first = capsys.readouterr().out
    main(["solve", game_file])
    assert capsys.readouterr().out == first


def test_oracle_matches_solve(game_file, capsys):
    main(["solve", game_file])
    solve_out = capsys.readouterr().out.splitlines()[0]
    main(["oracle", game_file])
    oracle_out = capsys.readouterr().out.splitlines()[0]
    assert solve_out == oracle_out


def test_reduce_writes_pgsolver(game_file, capsys, tmp_path):
    out_pg = str(tmp_path / "out.pg")
    assert main(["reduce", game_file, "--pgsolver", out_pg]) == 0
    assert "product:" in capsys.readouterr().out
    assert open(out_pg).read().startswith("parity ")


def test_synth_running_example(capsys):
    code = main([
        "synth",
        "--safety", "G(b|c) & G(a -> b | X X b)",
        "--el", "(G F a -> G F b) & ((F G !a | F G !(b&c)) & G F c)",
        "--inputs", "a", "--outputs", "b,c"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "REALIZABLE"


def test_synth_unrealizable(capsys):
    code = main([
        "synth", "--safety", "G(b|c) & G !b", "--el", "G F b",
        "--inputs", "a", "--outputs", "b,c"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "UNREALIZABLE"


def test_synth_controller_file(tmp_path, capsys):
    ctrl = str(tmp_path / "out.mealy")
    code = main(["synth", "--safety", "true", "--el", "G F a -> G F b",
                 "--inputs", "a", "--outputs", "b", "--controller", ctrl])
    assert code == 0
    assert "REALIZABLE" in capsys.readouterr().out
    assert open(ctrl).read().startswith("mealy 1")


def test_synth_liveness_color_named_like_the_sink(tmp_path, capsys):
    # An output named "stuck" becomes the liveness color "stuck"; the
    # expansion's sink color must not clash with it.
    ctrl = str(tmp_path / "out.mealy")
    code = main(["synth", "--safety", "G(true)", "--el", "G F stuck",
                 "--inputs", "r", "--outputs", "stuck", "--controller", ctrl,
                 "--expand-check"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "REALIZABLE", "expand-check: agrees",
        "controller with 2 states written to %s" % ctrl]


def test_synth_safety_with_a_negated_compound_antecedent(capsys):
    assert main(["synth", "--safety", "G(!(a & b) -> X c)", "--el", "G F c",
                 "--inputs", "a,b", "--outputs", "c", "--expand-check"]) == 0
    assert capsys.readouterr().out.splitlines() == ["REALIZABLE",
                                                    "expand-check: agrees"]


TWELVE_COLOURS = " & ".join(
    "G F (%s)" % " & ".join(n if bits >> i & 1 else "!" + n
                            for i, n in enumerate("bcde"))
    for bits in range(12))


def test_synth_twelve_colours(tmp_path, capsys):
    # The controller is built on the liveness objective's own 12 colours;
    # only the full expansion of --expand-check adds its sink's colour.
    ctrl = str(tmp_path / "out.mealy")
    argv = ["synth", "--safety", "true", "--el", TWELVE_COLOURS,
            "--inputs", "a", "--outputs", "b,c,d,e", "--controller", ctrl]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "REALIZABLE"
    assert out[1].startswith("controller with ")
    assert main(argv + ["--expand-check"]) == 3
    assert capsys.readouterr().err.strip() == \
        "error: color budget exceeded: 13 > 12"


README_SYNTH = ["synth", "--safety", "G(b|c) & G(a -> b | X X b)",
                "--el", "(G F a -> G F b) & ((F G !a | F G !(b&c)) & G F c)",
                "--inputs", "a", "--outputs", "b,c", "--expand-check"]


def test_synth_expand_check_agrees(capsys):
    assert main(README_SYNTH) == 0
    assert capsys.readouterr().out.splitlines() == ["REALIZABLE",
                                                    "expand-check: agrees"]


def test_synth_expand_check_reports_a_mismatch(monkeypatch, capsys):
    # A symbolic solve that returns the complement of its winning region
    # disagrees with the explicit expansion on its first full node.
    solve_symbolic = cli.syn.solve_symbolic

    def complemented(game):
        win, tree, result = solve_symbolic(game)
        return ~win, tree, result

    monkeypatch.setattr(cli.syn, "solve_symbolic", complemented)
    assert main(README_SYNTH) == 1
    out = capsys.readouterr().out
    assert out.startswith("expand-check: DISAGREES (winner mismatch at subset=")
    assert "REALIZABLE" not in out


def test_synth_controller_names_the_failed_sub_arena_check(
        monkeypatch, tmp_path, capsys):
    # Without --expand-check, a region whose winning sub-arena the
    # explicit solve loses fails the controller extraction's own check,
    # and the report names that check.
    solve_symbolic = cli.syn.solve_symbolic

    def everything(game):
        _, tree, result = solve_symbolic(game)
        m = game.manager
        return m.disj(m.var(v) for v in game.state_vars), tree, result

    monkeypatch.setattr(cli.syn, "solve_symbolic", everything)
    ctrl = tmp_path / "out.mealy"
    assert main(["synth", "--safety", "true", "--el", "G F a", "--inputs", "a",
                 "--outputs", "b", "--controller", str(ctrl)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("sub-arena check: DISAGREES (the explicit solve of "
                          "the winning sub-arena loses ")
    assert "REALIZABLE" not in out and "expand-check" not in out
    assert not ctrl.exists()


def test_synth_signals_named_like_automaton_state_variables(tmp_path, capsys):
    # The automaton's state variables have names no atom can take, so
    # signals may be called v0 and v1.
    ctrl = str(tmp_path / "out.mealy")
    assert main(["synth", "--safety", "G(v0 -> X v1)",
                 "--el", "G F v0 -> G F v1", "--inputs", "v0",
                 "--outputs", "v1", "--controller", ctrl,
                 "--expand-check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["REALIZABLE", "expand-check: agrees"]
    assert open(ctrl).read().startswith("mealy 1\ninputs v0\noutputs v1\n")


@pytest.mark.parametrize("inputs, outputs, bad", [
    ("a", "v0,v0", "v0"),
    ("x", "x", "x"),
    ("z'", "z", "z'"),
    ("1q", "b", "1q"),
    ("a", "@0", "@0"),
    ("a", "G", "G"),
])
def test_synth_rejects_repeated_or_invalid_signal_names(inputs, outputs, bad,
                                                        capsys):
    # An input error (exit 3), not a diagram error's traceback (exit 1),
    # and no signal that no formula could mention.
    assert main(["synth", "--safety", "true", "--el", "true",
                 "--inputs", inputs, "--outputs", outputs]) == 3
    assert capsys.readouterr().err.strip() == \
        "error: repeated or invalid signal names: %s" % bad


def test_corpus_deterministic_and_green(capsys):
    assert main(["corpus", "--seed", "7", "--count", "40"]) == 0
    first = capsys.readouterr().out
    assert "40/40 agree" in first
    main(["corpus", "--seed", "7", "--count", "40"])
    assert capsys.readouterr().out == first


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["solve"])
    assert err.value.code == 2


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.elg"
    bad.write_text("elgame 1\ncolors a\nnode 0 E\nobjective Inf a\n")
    assert main(["solve", str(bad)]) == 3


def test_second_objective_line_exit_code(tmp_path, capsys):
    bad = tmp_path / "two.elg"
    bad.write_text("elgame 1\ncolors a\nnode 0 E a\nedge 0 0\n"
                   "objective Inf a\nobjective Fin a\n")
    assert main(["solve", str(bad)]) == 3
    assert "line 6" in capsys.readouterr().err


def test_missing_file_exit_code(game_file, tmp_path, capsys):
    # A directory where a file is expected is an input error, not a
    # check failure (exit 1) or a traceback.
    for argv in (["solve", "/nonexistent/game.elg"],
                 ["solve", str(tmp_path)],
                 ["solve", game_file, "--strategy", str(tmp_path)]):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_stage_limit_exit_code(game_file, monkeypatch, capsys):
    def over_limit(game):
        raise StageLimitError("variable X0 did not stabilize within 7 stages")

    monkeypatch.setattr(cli, "solve_game", over_limit)
    assert main(["solve", game_file]) == cli.LIMIT_ERROR == 4
    err = capsys.readouterr().err
    assert err.startswith("error: variable X0 did not stabilize")


def test_synth_stage_limit_exit_code(monkeypatch, capsys):
    def over_limit(game):
        raise StageLimitError("variable X0 did not stabilize within 7 stages")

    monkeypatch.setattr(cli.syn, "solve_symbolic", over_limit)
    code = main(["synth", "--safety", "true", "--el", "G F a -> G F b",
                 "--inputs", "a", "--outputs", "b"])
    assert code == cli.LIMIT_ERROR == 4
    err = capsys.readouterr().err
    assert err.startswith("error: variable X0 did not stabilize")
