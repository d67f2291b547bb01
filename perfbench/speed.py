"""The speed of the machine, measured alongside the program.

The benchmark runs on a shared host whose speed drifts: the same operation,
repeated in one process, takes up to 40% longer for tens of seconds at a
time, and CPU time drifts with wall time, so the drift is not time taken
by other processes but a slower core.  The medians of two runs of the same
code a few minutes apart differ by as much.  A fixed pure-Python probe,
timed while an operation runs, slows down with it (correlation 0.75 to 0.95
over repeats of one operation).  Every time the benchmark reports is
therefore scaled to the probe's reference speed:

    scaled = own time * REFERENCE_S / mean probe time

where the probe runs every ``INTERVAL_S`` of wall time during the timed
code (on ``SIGALRM``; its own time is subtracted) and once just before and
after it.  On repeats of one operation this cuts the spread (interquartile
range over median) from 0.2-0.3 to 0.04-0.07.

This module imports only ``time`` at load, so ``worker.py`` can use it
before it times the import of the program.
"""

import time

# About the median time of ``probe`` on the reference machine (2 cores of a
# shared x86-64 host, Python 3.11): scaled times are seconds at that speed.
REFERENCE_S = 4.0e-4
INTERVAL_S = 0.05
_BIG = 3 ** 200


def _step(x, y):
    return x * y + 1.0


def probe() -> float:
    """Wall time of a fixed loop of small-integer, float, call, dict and
    big-integer work, the kinds the program's pure-Python layers do."""
    t0 = time.perf_counter()
    small, acc, big, table = 0, 0.0, 0, {}
    for i in range(800):
        small += i * i % 7
        acc = _step(i * 0.5, acc * 1e-9)
        table[i & 63] = acc
        big = (big + _BIG * i) >> 3
    return time.perf_counter() - t0


def burst(count: int = 20) -> list:
    """``count`` probes in a row."""
    return [probe() for _ in range(count)]


def scale(samples) -> float:
    """Reference speed over the speed the probe samples saw: their mean
    with a tenth trimmed from each end, since one probe that the scheduler
    interrupts reads several times too long."""
    cut = len(samples) // 10
    kept = sorted(samples)[cut:len(samples) - cut]
    return REFERENCE_S * len(kept) / sum(kept)


class Sampler:
    """Probe the machine while a block runs.

        with Sampler() as s:
            ... timed code ...
        scaled = (wall - s.inside_s) * scale(s.samples)

    ``samples`` holds every probe time, ``inside_s`` the total of those
    taken inside the block, whose wall time they lengthen.
    """

    def __enter__(self):
        import signal

        self._signal = signal
        self.samples = [probe()]
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, _signum, _frame):
        t = probe()
        self.samples.append(t)
        self.inside_s += t

    def __exit__(self, *exc):
        signal = self._signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False
