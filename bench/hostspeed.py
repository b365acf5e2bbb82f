"""Host speed, sampled from inside the timed thread.

The benchmark runs on a few cores of a shared host, where the speed of the
core changes by up to 2x within seconds with the load of other tenants (see
NOTES.md).  A wall time then says as much about the neighbours as about the
code.  ``Sampler`` measures the speed of the core the code runs on while it
runs: a timer signal interrupts the timed thread every ``PERIOD`` seconds and
the handler times ``probe()``, a fixed piece of pure-Python work that does not
touch greenbox.  ``Sampler.scaled`` then rescales a stretch of wall time to
the seconds it would have taken had every probe taken ``REFERENCE_S``:

    scaled = sum over the gaps between probes of  gap * REFERENCE_S / probe

where each gap excludes the probes' own time and ``probe`` is the mean time
of the two probes around it.  The probes are timed, not the code under test, so
a change to greenbox cannot move the scale.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD = 0.025
# about what probe() takes between greenbox calls on the hardware in NOTES.md
REFERENCE_S = 0.0004
_P = 10007
_N = 12
_ROWS = [[pow(3, _N * i + j + 1, _P) ^ (i * j) for j in range(_N)]
         for i in range(_N)]


def probe() -> int:
    """A fixed elimination mod p: interpreter loops, small ints, lists."""
    m = [row[:] for row in _ROWS]
    rank = 0
    for c in range(_N):
        piv = next((i for i in range(rank, _N) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], _P - 2, _P)
        row = m[rank] = [x * inv % _P for x in m[rank]]
        for i in range(_N):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % _P for a, b in zip(m[i], row)]
        rank += 1
    return rank


class Sampler:
    """``with Sampler() as s:`` probes the host speed until the block ends.

    ``s.probes`` holds (start, end) of each probe, in ``perf_counter`` time.
    Only the main thread can take the signal; nothing else may use SIGALRM
    or ITIMER_REAL while the block runs."""

    def __init__(self):
        self.probes = []

    def _handler(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.probes.append((t0, perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)
        return False

    def _gaps(self, start: float, end: float):
        """(seconds, mean probe seconds) of each stretch of [start, end]
        between two probes; [start, end] lies within the sampled block."""
        for (s0, e0), (s1, e1) in zip(self.probes, self.probes[1:]):
            gap = min(s1, end) - max(e0, start)
            if gap > 0:
                yield gap, ((e0 - s0) + (e1 - s1)) / 2

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the probes, at reference speed."""
        return sum(gap * REFERENCE_S / p for gap, p in self._gaps(start, end))

    def unscaled(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] outside the probes."""
        return sum(gap for gap, _ in self._gaps(start, end))
