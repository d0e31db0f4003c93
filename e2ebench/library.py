"""Import of the library under test and parsing of workload inputs.

The library is imported from ``src/`` beside this directory and from
nowhere else, so a run measures the checkout it sits in.
"""

import importlib
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("el", "games", "zielonka", "fixpoint", "strategy", "oracles",
           "reduction", "dd", "ltl", "synthesis")


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """The library modules, as one namespace."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {n: importlib.import_module("elgames." + n) for n in MODULES}
    except ImportError as exc:
        raise LibraryMissing("cannot import elgames from %s: %s" % (SRC, exc))
    where = Path(sys.modules["elgames"].__file__).resolve().parent
    if where != SRC / "elgames":
        raise LibraryMissing("elgames was imported from %s, not %s" % (where, SRC))
    return types.SimpleNamespace(**mods)


def parse(lib, kind, text):
    """A game from its file text, or a synthesis problem from its strings."""
    if kind == "game":
        return lib.games.load_game(text)
    safety, liveness, inputs, outputs = text
    return lib.synthesis.problem_from_strings(safety, liveness, inputs, outputs)
