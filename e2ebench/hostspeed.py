"""Host speed, read from a fixed pure-Python reference loop.

The benchmark runs on shared hosts whose speed shifts by up to 2x,
for every process alike, over spans from well under a second to
minutes.  The runner therefore reads the host's speed while it measures,
in the same process and thread, and scales each measured time by
``UNIT_NOMINAL_S`` over the mean time of one reference unit read during
that time: the times it reports are seconds on a host where one unit of
:func:`reference_unit` takes ``UNIT_NOMINAL_S``.

The reference does what the library's inner loops do (bitmask
predecessor scans, memoised recursion over tuple-keyed dicts, small set
operations) but shares no code with the library, so a change to the
library cannot move it.  It must never change: every reported time is
relative to it.

A :class:`Sampler` takes the readings: it interrupts the measured code
every ``PERIOD_S`` of CPU time to time one unit, and its own time is
left out of the clock that times the calls.
"""

import signal
from time import perf_counter

UNIT_NOMINAL_S = 0.001
PERIOD_S = 0.02


def _scan(succ, owner, full, target):
    out = 0
    for v in range(len(succ)):
        m = succ[v]
        if owner[v]:
            if m & target:
                out |= 1 << v
        elif m & ~target & full == 0:
            out |= 1 << v
    return out


def _ite(memo, nodes, f, g, h, depth):
    if depth == 0 or f == g:
        return (f ^ h) & 1
    key = (f, g, h)
    hit = memo.get(key)
    if hit is not None:
        return hit
    lo = _ite(memo, nodes, f >> 1, g >> 2, h >> 1, depth - 1)
    hi = _ite(memo, nodes, (f * 3) >> 2, g >> 1, h >> 2, depth - 1)
    node = (depth, lo, hi)
    out = nodes.setdefault(node, len(nodes))
    memo[key] = out
    return out


def reference_unit():
    """A fixed amount of interpreter work; returns a checksum."""
    n = 64
    x = 0x2545F4914F6CDD1D
    succ, owner = [], []
    for v in range(n):
        m = 0
        for _ in range(3):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            m |= 1 << (x >> 58)
        succ.append(m)
        owner.append(v & 1)
    full = (1 << n) - 1
    target = full
    acc = 0
    for _ in range(12):
        target = _scan(succ, owner, full, target) | (target >> 7)
        acc ^= target
    memo, nodes = {}, {}
    for i in range(8):
        acc ^= _ite(memo, nodes, x >> i, (x * 5) >> i, i * 977, 12)
    seen = set()
    for i in range(300):
        seen.add(frozenset((i % 17, i % 5, i % 3)))
    return acc ^ len(nodes) ^ len(seen)


def scale(seconds, readings):
    """``seconds`` on a host whose readings were ``readings``, expressed
    on the nominal host."""
    return seconds * UNIT_NOMINAL_S * len(readings) / sum(readings)


class Sampler:
    """Reads the host speed while the calls it times run.

    While active, ``SIGPROF`` fires every ``period_s`` of process CPU
    time (never when it is 0) and its handler times one reference unit
    in this thread; one reading is also taken on entry and on exit.
    :meth:`stamp` reads a clock that leaves out the handler's time."""

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.readings = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        reference_unit()
        dt = perf_counter() - t0
        self.readings.append(dt)
        self.spent += dt

    def stamp(self):
        spent = self.spent
        return perf_counter() - spent, len(self.readings)

    def time(self, start, end):
        """Seconds between two stamps, unscaled and scaled by the readings
        taken between them, or by the readings just before and after when
        the span was too short to get one."""
        lo, hi = start[1], end[1]
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        seconds = end[0] - start[0]
        return seconds, scale(seconds, self.readings[lo:hi])

    def __enter__(self):
        self._tick()
        if self.period_s:
            self._previous = signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        if self.period_s:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
        self._tick()
        return False
