"""End-to-end benchmark of elgames: explicit solving, certified strategy
extraction and symbolic synthesis, through the library's public calls.

    python3 e2ebench/run.py --workload explicit-deep --seed 5 --seconds 25 --trace 0
    python3 e2ebench/run.py --roadmap

The library is imported from ``src/`` beside this directory and nowhere
else.  One process, one thread, closed loop: the instances of a workload
run one after another in their seeded order, and the whole list is
repeated until ``--seconds`` have passed.  Inputs are generated before
any timing and reach the library only as text.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics: ``verdict_s`` and ``certify_s`` sum, over
the instances, the time of the verdict calls and of the certificate
calls (only instances that have a certificate), each the mean over the
passes of the timed window; ``answer_p50_s`` and ``answer_p90_s`` are
nearest-rank percentiles of per-instance verdict plus certificate time;
``setup_s`` is the median time to import the library and parse every
input, in fresh interpreters started between passes; ``peak_rss_mb`` is
this process's peak resident memory.  Every time is scaled to a nominal
host speed by the reference loop of ``hostspeed.py``, read during each
call (next to it, for a call too short to be sampled), so that
host-wide slowdowns cancel; the record and the human-readable lines keep
the unscaled wall times too. With ``--trace 1`` the line carries
the per-layer metrics of one traced pass (see ``tracing.py``) after one
untraced pass, whose ratio is ``trace.overhead_ratio``. Every instance
is checked outside the timed region (see ``checks.py``); an instance
that fails a check, raises, or exceeds its time budget counts in
``failed``, and the run then exits with status 1. A record of the run
goes to ``e2ebench/results/``.

``--roadmap`` runs the two unrelabelled seed-5 games of the ROADMAP's
Current state (Streett k=3 and parity over 8 colours, n=200) and prints
their solve, extract, verify and oracle times and their ``cpre`` counts.
``repeat_counts.py`` checks that every count metric repeats exactly
across processes.

The runner re-executes itself with ``PYTHONHASHSEED=0``: the library
numbers automaton states in set-iteration order, so without a fixed
string-hash seed the counts and sizes of a run depend on the process.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import library
import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPS = 9
HASH_SEED = "0"
SETUP_PROBE_TIMEOUT_S = 60
RUN_DEADLINE_S = 150.0     # no instance work starts or continues past this
START = perf_counter()


class InstanceTimeout(Exception):
    pass


class time_limit:
    """Raise InstanceTimeout in this (main) thread after ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise InstanceTimeout()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def remaining():
    return RUN_DEADLINE_S - (perf_counter() - START)


class SetupTimer:
    """Set-up repetitions, each in a fresh interpreter (``setup_probe.py``),
    one after every pass and the rest after the last, so they sample the
    host over the run like the passes do."""

    def __init__(self, instances, path):
        self.path = path
        self.setup_s = []      # import plus parse, scaled to the nominal host
        self.wall_s = []
        self.parse_s = []
        RESULTS.mkdir(exist_ok=True)
        path.write_text(json.dumps([[i.kind, i.text] for i in instances]))

    def probe(self):
        if len(self.setup_s) >= SETUP_REPS:
            return
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(self.path)],
            capture_output=True, text=True, check=True,
            timeout=SETUP_PROBE_TIMEOUT_S)
        row = json.loads(out.stdout)
        self.setup_s.append(row["scaled_s"])
        self.wall_s.append(row["import_s"] + row["parse_s"])
        self.parse_s.append(row["parse_s"])

    def finish(self):
        while len(self.setup_s) < SETUP_REPS:
            self.probe()
        self.path.unlink()


# ---------------------------------------------------------------------------
# The timed calls, as the command line makes them.

def answer_instance(lib, inst, parsed, clock):
    """Verdict and certificate; returns the ``clock()`` stamps at the
    start, after the verdict and after the certificate (None when there
    is none), and the answer."""
    if inst.kind == "game":
        t0 = clock()
        win, tree, result = lib.fixpoint.solve_game(parsed)
        t1 = clock()
        if not win:
            return (t0, t1, None), {"win": win, "tree": tree, "strategy": None,
                                    "report": None}
        sigma = lib.strategy.extract(parsed, tree, result)
        report = lib.strategy.verify(parsed, sigma, win)
        t2 = clock()
        return (t0, t1, t2), {"win": win, "tree": tree, "strategy": sigma,
                              "report": report}
    t0 = clock()
    result = lib.synthesis.solve_synthesis(parsed, with_controller=False)
    t1 = clock()
    if not (inst.controller and result.realizable):
        return (t0, t1, None), {"result": result, "controller": None}
    controller = lib.synthesis.extract_controller(result.game)
    t2 = clock()
    return (t0, t1, t2), {"result": result, "controller": controller}


def _signature(answer):
    if "win" in answer:
        return answer["win"], answer["report"] is None or answer["report"].ok
    controller = answer["controller"]
    return answer["result"].realizable, None if controller is None else len(controller)


class Record:
    def __init__(self, inst):
        self.inst = inst
        self.verdict = []      # per pass, scaled to the nominal host
        self.certify = []
        self.verdict_wall = []  # per pass, wall time less the sampler's own
        self.certify_wall = []
        self.signature = None
        self.failure = None

    def add(self, verdict, certify):
        """One pass's (wall, scaled) verdict and certificate times."""
        self.verdict_wall.append(verdict[0])
        self.verdict.append(verdict[1])
        if certify is not None:
            self.certify_wall.append(certify[0])
            self.certify.append(certify[1])

    def fail(self, reason):
        if self.failure is None:
            self.failure = reason


def _guarded(record, budget, what, fn):
    """Run ``fn`` under a time budget; a timeout or an exception fails the
    instance and returns None."""
    if budget <= 0:
        record.fail("%s: run deadline reached" % what)
        return None
    try:
        with time_limit(budget):
            return fn()
    except InstanceTimeout:
        record.fail("%s: exceeded its %.0f s budget" % (what, budget))
    except Exception as exc:  # one bad instance must not stop the run
        traceback.print_exc(file=sys.stderr)
        record.fail("%s: %s: %s" % (what, type(exc).__name__, exc))
    return None


def gate(lib, inst, parsed, answer, tracer):
    """Correctness checks of one answer; None when it holds."""
    if inst.kind == "spec":
        return checks.check_spec(lib, inst, answer)
    if tracer is not None and answer["strategy"] is not None:
        tracer.product_states += len(lib.strategy.product_states(
            parsed, answer["strategy"], answer["win"]))
    return checks.check_game(lib, parsed, answer)


def measure(lib, records, parsed, seconds, check=True, tracer=None, setup=None,
            sample=True):
    """Closed loop over the instances: one first pass, then further passes
    until they have taken ``seconds`` (none when 0); returns the number
    of passes.

    Each answer of the first pass goes through the gates (untimed) when
    ``check`` is set; later answers must repeat the first.  The clock of
    ``seconds`` starts after the first pass and stops while a set-up
    probe runs after each pass.  The heap is collected before every
    instance, so garbage the benchmark leaves behind is not charged to
    the next instance.  The host speed is sampled during the passes
    (see ``hostspeed.py``) when ``sample`` is set; a traced run leaves it
    unset, so that its spans do not include the sampler's time."""
    passes = 0
    spent = 0.0
    while True:
        start = perf_counter()
        timed = []
        with hostspeed.Sampler(hostspeed.PERIOD_S if sample else 0) \
                as sampler:
            for i, rec in enumerate(records):
                if rec.failure is not None:
                    continue
                gc.collect()
                if tracer is not None:
                    tracer.begin(i, "run")
                budget = min(rec.inst.budget_s, remaining())
                out = _guarded(rec, budget, "answer", lambda: answer_instance(
                    lib, rec.inst, parsed[i], sampler.stamp))
                if out is None:
                    continue
                stamps, answer = out
                timed.append((rec, stamps))
                signature = _signature(answer)
                if rec.signature is None:
                    rec.signature = signature
                elif signature != rec.signature:
                    rec.fail("answer changed between passes")
                if check and passes == 0:
                    if tracer is not None:
                        tracer.begin(i, "check")
                    budget = min(rec.inst.budget_s, remaining())
                    reason = _guarded(rec, budget, "check", lambda: gate(
                        lib, rec.inst, parsed[i], answer, tracer))
                    if reason:
                        rec.fail(reason)
        for rec, (t0, t1, t2) in timed:
            rec.add(sampler.time(t0, t1),
                    None if t2 is None else sampler.time(t1, t2))
        if passes:
            spent += perf_counter() - start
        passes += 1
        if setup is not None:
            setup.probe()
        if spent >= seconds or remaining() <= 0:
            return passes


# ---------------------------------------------------------------------------
# Metrics and reporting.

def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end_metrics(records, setup_s, wall=False):
    """Per instance, the mean over the passes of the timed window (all
    but the first) of its times scaled to the nominal host, or of its
    wall times when ``wall`` is set."""
    done = [r for r in records if r.failure is None]

    def window_mean(times):
        return statistics.mean(times[1:]) if times else 0.0

    verdict = [window_mean(r.verdict_wall if wall else r.verdict) for r in done]
    certify = [window_mean(r.certify_wall if wall else r.certify) for r in done]
    answers = sorted(v + c for v, c in zip(verdict, certify)) or [0.0]
    return {
        "verdict_s": (sum(verdict), "s"),
        "certify_s": (sum(certify), "s"),
        "answer_p50_s": (nearest_rank(answers, 0.5), "s"),
        "answer_p90_s": (nearest_rank(answers, 0.9), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def _answer_total(records, k):
    """Summed verdict plus certificate time of pass ``k``."""
    return sum(r.verdict_wall[k] + (r.certify_wall[k] if r.certify_wall else 0.0)
               for r in records)


def environment(lib):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"dd_core_impl": lib.dd.CORE_IMPL,
            "python": platform.python_version(), "nproc": nproc}


def write_record(name, record):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    lib = library.import_library()
    env = environment(lib)
    instances = workload.build(lib, args.seed)
    parsed = [library.parse(lib, inst.kind, inst.text) for inst in instances]
    records = [Record(inst) for inst in instances]
    tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    setup = SetupTimer(instances, RESULTS / (tag + "-inputs.json"))
    gc.collect()
    gc.freeze()
    tracer = None
    wall = {}
    if args.trace:
        measure(lib, records, parsed, 0, check=False, setup=setup,
                sample=False)
        setup.finish()
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            passes = measure(lib, records, parsed, 0, tracer=tracer,
                             sample=False)
        finally:
            tracer.uninstall()
        both = [r for r in records if len(r.verdict) == 2]
        plain, traced = (_answer_total(both, k) for k in (0, 1))
        metrics = tracing.layer_metrics(
            tracer, workload.name.startswith("explicit"),
            statistics.median(setup.parse_s) if instances[0].kind == "game" else 0.0,
            traced / plain if plain else 0.0)
    else:
        passes = measure(lib, records, parsed, args.seconds, setup=setup)
        setup.finish()
        for rec in records:
            if len(rec.verdict) < 2:
                rec.fail("no pass in the timed window")
        metrics = end_to_end_metrics(records, setup.setup_s)
        wall = end_to_end_metrics(records, setup.wall_s, wall=True)

    failures = [(r.inst.name, r.failure) for r in records if r.failure]
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = dict(env, workload=workload.name, why=workload.why, seed=args.seed,
                  instances=len(instances), passes=passes, seconds=args.seconds,
                  trace=args.trace, setup_s=setup.setup_s, parse_s=setup.parse_s,
                  setup_wall_s=setup.wall_s,
                  fail_ratio=len(failures) / len(records), failures=failures,
                  metrics=metrics_json,
                  wall_metrics={k: v for k, (v, u) in wall.items()},
                  per_instance=[{"name": r.inst.name, "verdict_s": r.verdict,
                                 "certify_s": r.certify,
                                 "verdict_wall_s": r.verdict_wall,
                                 "certify_wall_s": r.certify_wall}
                                for r in records])
    path = write_record(tag + ".json", record)
    if tracer is not None:
        tracer.write(RESULTS / (tag + "-spans.jsonl.gz"))

    print("%s seed=%d instances=%d passes=%d core=%s python=%s nproc=%d"
          % (workload.name, args.seed, len(instances), passes,
             env["dd_core_impl"], env["python"], env["nproc"]))
    print("why: %s" % workload.why)
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6f %s%s" % (
            name, value, unit,
            "  (wall %.6f)" % wall[name][0] if name in wall else ""))
    print("  %-32s %d/%d" % ("fail_ratio", len(failures), len(records)))
    if not args.trace:
        print("  answer percentiles over %d instances" % len(instances))
    for name, reason in failures:
        print("  FAILED %s: %s" % (name, reason))
    print("record: %s" % path)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics_json}))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# ROADMAP "Current state" reproduction.

def _roadmap_counts(lib, game):
    """Count metrics of one traced solve, extract, verify and oracle run."""
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        tracer.begin(0, "run")
        win, tree, result = lib.fixpoint.solve_game(game)
        sigma = lib.strategy.extract(game, tree, result)
        lib.strategy.verify(game, sigma, win)
        tracer.begin(0, "check")
        tracer.product_states = len(lib.strategy.product_states(game, sigma, win))
        lib.oracles.solve_el_via_reduction(game, tree)
    finally:
        tracer.uninstall()
    layer = tracing.layer_metrics(tracer, True, 0.0, 0.0)
    return {k: v for k, (v, unit) in layer.items() if unit == "count"}


def run_roadmap(args):
    lib = library.import_library()
    rows = []
    for name, base in workloads.roadmap_games(lib):
        game = lib.games.load_game(lib.games.save_game(base))
        t0 = perf_counter()
        win, tree, result = lib.fixpoint.solve_game(game)
        t1 = perf_counter()
        sigma = lib.strategy.extract(game, tree, result)
        t2 = perf_counter()
        report = lib.strategy.verify(game, sigma, win)
        t3 = perf_counter()
        oracle = lib.oracles.solve_el_via_reduction(game, tree)
        t4 = perf_counter()
        row = {"game": name, "solve_s": t1 - t0, "extract_s": t2 - t1,
               "verify_s": t3 - t2, "oracle_s": t4 - t3,
               "verify_ok": report.ok, "oracle_agrees": oracle == win,
               "counts": _roadmap_counts(lib, game)}
        rows.append(row)
        print("%-18s solve %.2f s  extract %.2f s  verify %.3f s  oracle %.2f s  "
              "cpre %d calls / %d distinct  stages %d  verify %s  oracle %s"
              % (name, row["solve_s"], row["extract_s"], row["verify_s"],
                 row["oracle_s"], row["counts"]["games.cpre_calls"],
                 row["counts"]["games.cpre_distinct"],
                 row["counts"]["fixpoint.stages"],
                 "ok" if report.ok else "REJECTED",
                 "agrees" if oracle == win else "DISAGREES"))
    ok = all(r["verify_ok"] and r["oracle_agrees"] for r in rows)
    path = write_record("roadmap.json", dict(environment(lib), games=rows))
    print("record: %s" % path)
    print(json.dumps({"correct": ok, "games": rows}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roadmap", action="store_true",
                        help="reproduce the ROADMAP's Current-state games")
    args = parser.parse_args(argv)
    if not args.roadmap and args.workload is None:
        parser.error("--workload or --roadmap is required")
    try:
        return run_roadmap(args) if args.roadmap else run_workload(args)
    except library.LibraryMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
