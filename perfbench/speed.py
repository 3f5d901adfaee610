"""Host-speed probe: rescales a measured time to a fixed reference speed.

The benchmark host is a shared VM whose CPU speed changes by up to 1.8x
within seconds: back-to-back `cy_report(4, 4)` calls in one process took
0.61 s to 1.13 s, and a fixed probe took 34 ms to 60 ms alongside them.  A
time taken alone then says more about the host than about the program.

So every timed call runs under a `Sampler`: a SIGALRM handler runs `probe()`,
a fixed piece of work, every PERIOD_S of wall time.  The probe is exact
rational arithmetic over dicts, the kind of work `vsc` does, but with code
and data of its own, so no change to `vsc` can change it.  A call that took
T seconds, less the handler's own time, while the probes took p seconds on
average (trimmed mean), is reported as T * REF_PROBE_S / p: its time at the
speed at which one probe takes REF_PROBE_S.  Time spent with a process pool
open is scaled by probes run in the pool's workers instead.  On the host
above this cut the spread of single `gw_table(5, 1, 3)` and `cy_report(4, 5)`
calls from a coefficient of variation of 0.10-0.12 to 0.03-0.04.
"""

import gc
import multiprocessing
import os
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
REF_PROBE_S = 0.0025    # a probe's duration at the reference speed
MIN_SAMPLES = 5         # probes a factor rests on, topped up after short calls
TRIM = 0.1              # share of the slowest and fastest probes left out
POOL_SAMPLES = 4096     # room for pool workers' probes, per pool
total = 0.0             # seconds this process has spent in probe()

# Two sparse trivariate polynomials with non-integral coefficients.
_A = {(i, j, 5 - i): Fraction(7 * i + 3 * j + 1, 11 * j + 2 * i + 5)
      for i in range(6) for j in range(4)}
_B = {(i, 3 - j, j): Fraction(5 * i - 13 * j + 2, 3 * i + j + 7)
      for i in range(6) for j in range(4)}


def probe():
    """Multiply _A by _B once, with the collector off; return the seconds taken."""
    global total
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    out = {}
    for e, c in _A.items():
        for f, d in _B.items():
            key = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
            out[key] = out.get(key, 0) + c * d
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    total += elapsed
    return elapsed


def factor(samples):
    """REF_PROBE_S over the trimmed mean of probe durations."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return REF_PROBE_S / (sum(kept) / len(kept))


class Sampler:
    """Runs probe() every PERIOD_S while active, in this process and in the
    workers of every pool opened meanwhile (sampled_pool)."""

    def __init__(self):
        self.samples = []       # this process's probes
        self.spent = 0.0        # this process's handler time
        self.pool_samples = []  # the pool workers' probes
        self.pool_wall = 0.0    # seconds pools were open
        self.pool_spent = 0.0   # handler time per pool worker

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - start

    def __enter__(self):
        global _active
        _active = self
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _active = None
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe())
        return False

    def add_pool(self, wall, shared, workers):
        global total
        count, spent = int(shared[0]), shared[1]
        self.pool_samples.extend(shared[2:2 + count])
        self.pool_wall += wall
        self.pool_spent += spent / workers
        total += spent

    def net(self, wall):
        """Seconds of a call that took `wall`, with the probes left out."""
        return wall - self.spent - self.pool_spent

    def scaled(self, wall):
        """The same at the reference speed: this process's own time at its
        probes' speed, the time pools were open at the workers' speed."""
        own = (wall - self.spent - self.pool_wall) * factor(self.samples)
        pool = self.pool_samples if len(self.pool_samples) >= MIN_SAMPLES else self.samples
        return own + (self.pool_wall - self.pool_spent) * factor(pool)


_active = None          # the Sampler of the call being timed


def _start_worker_probes(shared):
    """Pool-worker initializer: probe every PERIOD_S, into `shared`."""

    def tick(signum, frame):
        start = perf_counter()
        took = probe()
        with shared.get_lock():
            count = int(shared[0])
            if 2 + count < len(shared):
                shared[2 + count] = took
                shared[0] = count + 1
            shared[1] += perf_counter() - start

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def sampled_pool(cls):
    """Subclass of a process-pool class whose workers run the probes.

    While such a pool is open the parent's own probes stop: with the workers
    on every core they would time the scheduler, not the host.
    """

    class SampledPool(cls):
        def __init__(self, max_workers=None, **kwargs):
            self._workers = max_workers or os.cpu_count()
            self._shared = multiprocessing.Array("d", 2 + POOL_SAMPLES)
            super().__init__(max_workers, initializer=_start_worker_probes,
                             initargs=(self._shared,), **kwargs)

        def __enter__(self):
            self._timer = signal.setitimer(signal.ITIMER_REAL, 0)
            self._opened = perf_counter()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, *self._timer)
                if _active is not None:
                    _active.add_pool(perf_counter() - self._opened, self._shared,
                                     self._workers)

    return SampledPool
