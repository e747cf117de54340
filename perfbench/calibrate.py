"""Machine-speed calibration for the timed runs.

On a few cores of a shared host, the speed of the same Python code can
drift by a quarter or more within minutes, and by more between runs.  A fixed
pure-Python reference slice, interleaved with the workload, measures that
drift while it happens: every SLICE_PERIOD_S of process CPU time a profiling
timer signal runs one slice (between two bytecodes of whatever operation is
running) and records how long it took.  Operation times exclude the slices
that interrupted them.

Every reported time is then scaled to a reference machine, on which one
slice takes NOMINAL_SLICE_S: a time t measured while slices took s on
average reports as t * NOMINAL_SLICE_S / s.  The reference slice is part of
the benchmark, not of the package, so the scale is the same for every
commit of the package.  The slice does not track every kind of code
equally (code with a large working set can speed up or slow down by other
factors than a small integer loop), so the scaling narrows the spread of
the timings without removing it.
"""

import signal
import time

# work of one reference slice, and its duration on the reference machine
SLICE_LOOPS = 16_000
NOMINAL_SLICE_S = 0.0025
# process CPU time between two slices (the slice's own time included)
SLICE_PERIOD_S = 0.02


def reference_slice():
    """Fixed pure-Python work: integer arithmetic and small dict updates."""
    acc = {}
    s = 0
    for i in range(SLICE_LOOPS):
        s += i * i % 7
        acc[i & 63] = s
    return s + len(acc)


def slice_seconds():
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


def scale_of(durations):
    """Factor taking measured times to reference-machine times."""
    return NOMINAL_SLICE_S * len(durations) / sum(durations)


class Calibrator:
    """Runs reference slices on a profiling timer while it is started.

    ``stolen`` is the total time spent in slices; an operation's own time is
    its wall time minus the growth of ``stolen`` across it.  ``slices`` holds
    (start, duration) of every slice.
    """

    def __init__(self):
        self.slices = []
        self.stolen = 0.0
        self._busy = False
        self._mark = (0, 0.0)

    def _on_tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_slice()
            dt = time.perf_counter() - t0
            self.slices.append((t0, dt))
            self.stolen += dt
        finally:
            self._busy = False

    def burst(self, count):
        """Run ``count`` slices now (outside any operation)."""
        for _ in range(count):
            t0 = time.perf_counter()
            dt = slice_seconds()
            self.slices.append((t0, dt))

    def start(self):
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def mark(self):
        """Start the slices that ``scale_since_mark`` uses."""
        self._mark = (len(self.slices), self.stolen)

    def scale_since_mark(self):
        """Scale from the slices since ``mark``; None if there are none."""
        count = len(self.slices) - self._mark[0]
        if not count:
            return None
        return NOMINAL_SLICE_S * count / (self.stolen - self._mark[1])

    def scale_between(self, t_from, t_to, at_least=1):
        """Scale from the slices started in [t_from, t_to]; if fewer than
        ``at_least`` did, from the ``at_least`` slices nearest to it."""
        def distance(s):
            return max(t_from - s[0], s[0] - t_to, 0.0)
        nearest = sorted(self.slices, key=distance)
        inside = [dt for t, dt in nearest if distance((t, dt)) == 0.0]
        if len(inside) < at_least:
            inside = [dt for _, dt in nearest[:at_least]]
        return scale_of(inside)
