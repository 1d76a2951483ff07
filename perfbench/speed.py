"""The machine-speed reference that the benchmark's timings are scaled by.

The machines this benchmark runs on share their cores, and the speed of pure
Python code on them drifts by a third within minutes.  Each pass therefore
times a fixed reference computation, interleaved with the operations it
measures, and reports every duration at the reference speed: a raw duration d
is reported as d * NOMINAL_S / r, where r is the mean measured duration of
the reference in the same pass.  A change to wordrep moves d and not r; a
slower machine moves both.  Raw durations are kept in the result files.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
from time import perf_counter, thread_time

# Duration of one reference() call at the reference speed (an unloaded
# 2-core Intel Xeon sandbox with CPython 3.11).
NOMINAL_S = 0.010
# Longest stretch of operations without a reference sample between them.
EVERY_S = 0.1


def reference():
    """Fixed pure-Python work of the kind wordrep does: integer arithmetic
    and bit masks, a builtin call and dictionary stores."""
    table = {}
    acc = 0
    for i in range(20_000):
        mask = (i * 2654435761) & 0xFFFF
        acc += bin(mask).count("1")
        table[mask & 255] = acc
    return acc


class Speed:
    """Reference samples of one pass, taken between its operations (`tick`)
    or from a background thread while a long library call runs
    (`sampling`).  Samples are timed in thread CPU time, which counts the
    machine's speed but not the waits for the interpreter lock."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # time the samples took away from the measured code
        self._last = None

    def sample(self):
        t = thread_time()
        reference()
        took = thread_time() - t
        self.samples.append(took)
        self.spent_s += took
        self._last = perf_counter()

    def tick(self):
        """Takes a sample if none was taken in the last EVERY_S seconds."""
        if self._last is None or perf_counter() - self._last >= EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Samples every EVERY_S seconds on a background thread while the
        body runs; the body loses about `spent_s` to the samples."""
        stop = threading.Event()

        def run():
            while not stop.wait(EVERY_S):
                self.sample()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self):
        """Multiplier from raw seconds to seconds at the reference speed."""
        return NOMINAL_S / statistics.fmean(self.samples)
