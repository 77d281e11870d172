"""Host-speed probe, for rescaling op times by the speed of the host.

The benchmark's host is a few vCPUs of a shared machine, and its speed
drifts by up to 2x within minutes as other tenants come and go; every op of
a run slows with it. While an op runs, ``HostProbe`` times a fixed piece of
work (``probe_work``) every ``PROBE_INTERVAL_S`` from a SIGALRM handler, in
the same thread, and ``factor()`` is the probe's mean time over
``PROBE_REFERENCE_S``. An op's time divided by its factor is its time on a
host of fixed speed; the program does not run the probe, so a change to the
program leaves the factor alone and moves the rescaled time in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds between two probes while an op runs
PROBE_INTERVAL_S = 0.02
#: the probe's typical time during an op on a 2-vCPU Xeon VM (Python 3.11,
#: numpy 2.4): the unit of the rescaled times, which does not affect comparisons
PROBE_REFERENCE_S = 1.6e-4

_MATRIX = np.linspace(0.1, 1.0, 9).reshape(3, 3)


def probe_work():
    """The fixed probe: small numpy products and Python arithmetic, the mix
    of the program's one-point kernels."""
    acc, m = 0.0, _MATRIX
    for i in range(40):
        m = m @ _MATRIX * 0.5 + _MATRIX
        acc += float(m[0, 0]) * 1e-9 + i * 0.5
    return acc


class HostProbe:
    """Times ``probe_work`` every ``PROBE_INTERVAL_S`` from a SIGALRM handler
    while the block runs; the handler and the timer are restored on exit.

    Each sample runs the probe twice and times the second run, so that the
    caches an op has just filled (a 262k-point einsum, say) do not slow the
    probe: the sample follows the host, not the program.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0     # time spent in the handler, both runs

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        probe_work()
        timed = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.busy_s += end - start

    def factor(self):
        """Mean probe time over PROBE_REFERENCE_S; samples once if there is none."""
        if not self.samples:
            self.sample()
        return statistics.fmean(self.samples) / PROBE_REFERENCE_S

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
