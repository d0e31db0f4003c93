"""Command-line frontend.

Subcommands: ``solve`` (winning set of a game file, optional strategy
dump, verification, and oracle cross-check), ``reduce`` (parity product
and PGSolver export), ``ztree`` (objective tree as text or DOT),
``synth`` (safety + liveness realizability and controller extraction),
``oracle`` (independent solver only), ``corpus`` (random regression
suite).  Exit codes: 0 success, 1 check failure, 2 usage error, 3 input
format error, 4 stage limit exceeded.
"""

import argparse
import sys

from . import el, games, ltl, syntax
from .corpus import run_corpus
from .fixpoint import StageLimitError, build_equations, format_equations, solve_game
from .games import load_game
from .oracles import solve_el_via_reduction
from .reduction import (export_pgsolver, format_product_dot,
                        product_size_unpruned, reduce_to_parity)
from .strategy import extract, verify
from .zielonka import ZielonkaTree
from . import synthesis as syn

USAGE_ERROR = 2
FORMAT_ERROR = 3
LIMIT_ERROR = 4


def _win_line(mask):
    ids = " ".join(str(v) for v in games.iter_nodes(mask))
    return "WIN:%s%s" % (" " if ids else "", ids)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise games.GameFormatError(
                "%s: not UTF-8 text: %s" % (path, exc)) from exc


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def cmd_solve(args):
    game = load_game(_read(args.game))
    win, tree, result = solve_game(game)
    if args.dot:
        print(games.format_arena_dot(game, win), end="")
    print(_win_line(win))
    status = 0
    if args.strategy or args.verify:
        strategy = extract(game, tree, result)
        if args.strategy:
            _write(args.strategy, strategy.to_text())
        if args.verify:
            outcome = verify(game, strategy, win)
            if outcome.ok:
                print("strategy: verified (memory %d)" % strategy.memory_size)
            else:
                print("strategy: REJECTED: %s" % outcome.reason)
                status = 1
    if args.oracle_check:
        oracle = solve_el_via_reduction(game, tree)
        if oracle == win:
            print("oracle: agrees")
        else:
            print("oracle: DISAGREES (%s)" % _win_line(oracle))
            status = 1
    return status


def cmd_oracle(args):
    game = load_game(_read(args.game))
    print(_win_line(solve_el_via_reduction(game)))
    return 0


def cmd_reduce(args):
    game = load_game(_read(args.game))
    tree = ZielonkaTree(game.objective, game.table)
    reduced = reduce_to_parity(game, tree)
    pg = reduced.parity_game
    print("product: %d nodes reachable of %d (= %d game nodes x %d tree vertices)"
          % (pg.arena.n, product_size_unpruned(game, tree),
             game.arena.n, len(tree)))
    if args.pgsolver:
        names = ["%d.%d" % pair for pair in reduced.pairs]
        _write(args.pgsolver, export_pgsolver(pg, names))
        print("pgsolver written to %s" % args.pgsolver)
    if args.dot:
        print(format_product_dot(reduced), end="")
    return 0


def _colors_from_text(text, explicit):
    if explicit:
        return el.ColorTable([n.strip() for n in explicit.split(",") if n.strip()])
    seen = []
    tokens = syntax.tokenize(text, el.ELSyntaxError)
    for (tok, _), (name, _) in zip(tokens, tokens[1:]):
        if tok in ("Inf", "Fin") and el.is_color_name(name) and name not in seen:
            seen.append(name)
    return el.ColorTable(seen)


def cmd_ztree(args):
    table = _colors_from_text(args.el, args.colors)
    phi = el.parse_formula(args.el, table)
    tree = ZielonkaTree(phi, table)
    if args.dot:
        print(tree.format_dot(), end="")
    else:
        print(tree.format_text(), end="")
        print("%d vertices, %d leaves, height %d"
              % (len(tree), len(tree.leaves), max(tree.depth)))
        print(format_equations(build_equations(tree)), end="")
    return 0


def cmd_synth(args):
    problem = syn.problem_from_strings(
        args.safety, args.el,
        [n.strip() for n in args.inputs.split(",") if n.strip()],
        [n.strip() for n in args.outputs.split(",") if n.strip()])
    try:
        result = syn.solve_synthesis(
            problem, with_controller=bool(args.controller),
            expand_check=args.expand_check)
    except syn.ExpansionMismatch as exc:
        print("%s: DISAGREES (%s)" % (exc.check, exc))
        return 1
    print("REALIZABLE" if result.realizable else "UNREALIZABLE")
    if args.expand_check:
        print("expand-check: agrees")
    if result.realizable and args.controller:
        _write(args.controller, result.controller.to_text())
        print("controller with %d states written to %s"
              % (len(result.controller), args.controller))
    return 0


def cmd_corpus(args):
    report = run_corpus(args.seed, args.count, args.max_nodes, args.max_colors)
    print(report.summary())
    return 0 if report.ok else 1


def _int_in(low, high):
    """An argparse type: an integer from ``low`` to ``high`` (None: no
    upper bound)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                "must be at most %d, got %d" % (high, value))
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elgames",
        description="Solve games whose objective is a Boolean combination "
                    "of 'color occurs infinitely often' atoms, and "
                    "synthesize controllers for safety plus such liveness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="winning set of a game file")
    p.add_argument("game")
    p.add_argument("--strategy", metavar="OUT", help="write the strategy file")
    p.add_argument("--verify", action="store_true",
                   help="run the exact strategy verifier")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check against the reduction-based solver")
    p.add_argument("--dot", action="store_true",
                   help="print the arena as DOT with the winning set marked")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="independent reduction-based solver")
    p.add_argument("game")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="parity-game product of a game file")
    p.add_argument("game")
    p.add_argument("--pgsolver", metavar="OUT", help="write PGSolver text")
    p.add_argument("--dot", action="store_true", help="print the product as DOT")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("ztree", help="objective tree of a formula")
    p.add_argument("--el", required=True, metavar="FORMULA")
    p.add_argument("--colors", metavar="a,b,c",
                   help="color table (default: order of appearance)")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_ztree)

    p = sub.add_parser("synth", help="realizability and controller synthesis")
    p.add_argument("--safety", required=True, metavar="LTL")
    p.add_argument("--el", required=True, metavar="LTL",
                   help="liveness over GF/FG of letter predicates")
    p.add_argument("--inputs", required=True, metavar="a,b")
    p.add_argument("--outputs", required=True, metavar="c,d")
    p.add_argument("--controller", metavar="OUT", help="write the controller")
    p.add_argument("--expand-check", action="store_true",
                   help="cross-check against the explicit expansion")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("corpus", help="random regression corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_in(0, None), default=100)
    p.add_argument("--max-nodes", type=_int_in(2, None), default=8)
    # past el.MAX_TABLE_COLORS a draw's objective has no truth table
    p.add_argument("--max-colors", type=_int_in(1, el.MAX_TABLE_COLORS),
                   default=4)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return FORMAT_ERROR
    except (games.GameError, el.ELError, ltl.LTLError,
            syn.SynthesisError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return FORMAT_ERROR
    except StageLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return LIMIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
