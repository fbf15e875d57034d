"""Job times corrected for the host's speed drift.

The speed of plain Python code on a shared virtual machine drifts by up to
2x within a minute (see README.md, "Host drift").  A job's wall time then
says as much about the host as about freeconv.  ``RefClock`` samples the
host's speed while jobs run: every ``INTERVAL_S`` of wall time a timer
signal interrupts the job and runs a ``Reference``, a fixed piece of
pure-Python ``Fraction`` arithmetic that imports nothing from freeconv, and
records how long it took.  A job's time is then reported twice:

* its wall time, with the time of the reference samples taken out, and
* that time at reference speed: wall time x ``REF_NOMINAL_S`` / the mean
  length of the reference samples taken during the job.  This is how long
  the job would take on a host that runs a sample in exactly
  ``REF_NOMINAL_S``.  When the host slows, job and reference slow
  together and the ratio cancels the drift.

The reference never calls freeconv, so a change to freeconv moves the job
and not the reference.  The cyclic garbage collector is off while a sample
runs, so that no sample pays for collecting the job's objects.
"""

import gc
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

INTERVAL_S = 0.2
# The unit of the corrected times: a host on which one sample, taken during
# a job, lasts this long (about its length on the machine in README.md).
REF_NOMINAL_S = 0.0035
TABLE_SIZE = 24_000
LOOKUPS = 400


class Reference:
    """Fixed work of the kind freeconv's inner loops do: look up ``Fraction``
    values scattered over a few MiB in a dict keyed by small tuples, multiply
    them, and sum the products into a small dict.  A sample that misses the
    caches slows as a freeconv job does, which a loop over a few objects
    would not."""

    def __init__(self):
        rng = random.Random(0)
        self.table = {(rng.randrange(4), rng.randrange(4), rng.randrange(10 ** 6)):
                      Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
                      for _ in range(TABLE_SIZE)}
        keys = list(self.table)
        self.picks = [keys[rng.randrange(len(keys))] for _ in range(LOOKUPS)]

    def __call__(self):
        table, acc = self.table, {}
        for key in self.picks:
            value = table[key]
            pair = key[:2]
            acc[pair] = acc.get(pair, 0) + value * value
        return acc


class RefClock:
    """Samples the Reference every INTERVAL_S while it is entered."""

    def __init__(self):
        self.reference = Reference()
        self.samples = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.reference()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextmanager
    def timer(self):
        """Time the block.

        Yields a list that, once the block ends, holds the block's wall time
        without the reference samples in it, then that time at reference
        speed, then the number of samples it was corrected by.
        """
        length = [0.0, 0.0, 0]
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            yield length
        finally:
            elapsed = time.perf_counter() - t0
            inside = self.samples[first:]
            wall = elapsed - sum(inside)
            # A block too short to be sampled takes the latest samples.
            ref = inside or self.samples[-8:] or [REF_NOMINAL_S]
            length[:] = [wall, wall * REF_NOMINAL_S * len(ref) / sum(ref),
                         len(inside)]
