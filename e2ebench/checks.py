"""Correctness gates, run outside the timed region.

Each gate returns ``None`` when the answer holds and a one-line reason
when it does not; a reason marks the instance as failed.
"""


def check_game(lib, game, answer):
    """Winning region against the parity oracle and the dual game, and
    the certificate the timed ``verify`` call returned."""
    win = answer["win"]
    if answer["report"] is not None and not answer["report"].ok:
        return "strategy rejected: %s" % answer["report"].reason
    oracle = lib.oracles.solve_el_via_reduction(game, answer["tree"])
    if oracle != win:
        return "oracle disagrees: solver %#x oracle %#x" % (win, oracle)
    dual_win, _, _ = lib.fixpoint.solve_game(lib.games.dual_game(game))
    if dual_win != ~win & game.arena.full_mask:
        return "dual game does not complement the winning region"
    return None


def check_spec(lib, inst, answer):
    """Pinned verdict, symbolic-versus-explicit winners, and the exact
    controller check."""
    result = answer["result"]
    if result.realizable != inst.realizable:
        return "verdict %s, pinned %s" % (result.realizable, inst.realizable)
    if answer["controller"] is None:
        return None
    try:
        lib.synthesis.cross_check_symbolic_vs_explicit(result.game, result.win)
    except AssertionError as exc:
        return "symbolic and explicit winners differ: %s" % exc
    return check_controller(lib, result.game, answer["controller"])


def _input_letters(names):
    names = list(names)
    return [frozenset(n for i, n in enumerate(names) if bits >> i & 1)
            for bits in range(1 << len(names))]


def controller_product(lib, game, controller):
    """Controller state x DSA subset x letter, closed under every input.

    Returns ``(arena, None)``, or ``(None, reason)`` when the controller
    is not total, emits a foreign output, or lets the safety automaton's
    subset die.  Every product node belongs to the environment, and each
    node carries the colours of the letter it just emitted.
    """
    dsa = game.dsa
    outputs = frozenset(game.outputs)
    index = {}
    nodes = []
    succ = []

    def step(bits, inp, move):
        if move is None:
            return None, "no move for input %s" % sorted(inp)
        out, nxt = move
        if not out <= outputs:
            return None, "output %s outside the alphabet" % sorted(out)
        letter = inp | out
        nbits = dsa.step_bits(bits, letter)
        if not nbits:
            return None, "safety violated by letter %s" % sorted(letter)
        key = (nxt, nbits, letter)
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
            succ.append(None)
        return index[key], None

    inputs = _input_letters(game.inputs)
    for inp in inputs:
        _, reason = step(dsa.initial_bits(), inp, controller.init.get(inp))
        if reason:
            return None, "initial step: " + reason
    head = 0
    while head < len(nodes):
        state, bits, _ = nodes[head]
        targets = set()
        for inp in inputs:
            j, reason = step(bits, inp, controller.trans.get((state, inp)))
            if reason:
                return None, "state %d: %s" % (state, reason)
            targets.add(j)
        succ[head] = sorted(targets)
        head += 1
    owner = [lib.games.UNIVERSAL] * len(nodes)
    colors = [game.letter_colors(letter) for _, _, letter in nodes]
    return lib.games.Arena(owner, succ, colors), None


def check_controller(lib, game, controller):
    """Exact check of a Mealy controller against the specification.

    Safety holds when no reachable product step empties the DSA subset.
    Liveness holds when the environment-only game over the product,
    with the liveness objective, is won from every node, by the parity
    oracle."""
    arena, reason = controller_product(lib, game, controller)
    if reason:
        return "controller: " + reason
    product = lib.games.ELGame(arena, game.color_table, game.el_formula)
    won = lib.oracles.solve_el_via_reduction(product)
    if won != arena.full_mask:
        return "controller: liveness fails on %d of %d product nodes" % (
            bin(arena.full_mask & ~won).count("1"), arena.n)
    return None
