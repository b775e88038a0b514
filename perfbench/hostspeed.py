"""Experiment times at one reference speed of the host.

The benchmark host is a shared VM whose speed drifts by up to 1.7x, for
stretches from under a second to minutes, with load from outside it.  A drift
that lasts as long as a run moves every estimator of raw time alike.  So the
worker measures the host's speed while it measures the program: a fixed
reference loop runs right before and right after each experiment and, through
SIGALRM, every INTERVAL_S during it.  The loop mixes small FFTs with
interpreted Python, the two kinds of work bbmlab's experiments spend their
time on, and never calls bbmlab.

An experiment's scaled time is its raw time, less the time the loops inside it
took, times REFERENCE_REP_S over the median seconds per loop repetition of its
samples: the time it would have taken on a host where one repetition takes
REFERENCE_REP_S.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Median seconds per repetition of the loop's samples during the benchmark's
# experiments on the baseline host (2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6), so that scaled times there read about as measured.
REFERENCE_REP_S = 3.3e-5
# Repetitions of the loop around an experiment (about 9 ms) and inside it
# (about 1 ms, so the samples cost about 2% of the experiment's time).
EDGE_REPS = 300
INSIDE_REPS = 30
INTERVAL_S = 0.05

_INPUT = np.random.default_rng(0).standard_normal(256)


def _rep_seconds(reps: int) -> float:
    """Seconds per repetition of the reference loop, run `reps` times now."""
    start = perf_counter()
    acc = 0.0
    for _ in range(reps):
        spectrum = np.fft.rfft(_INPUT)
        acc += float(np.fft.irfft(spectrum * spectrum.conj(), 256)[0])
        for j in range(30):
            acc += j * 0.5
    return (perf_counter() - start) / reps


class HostSpeed:
    """Times calls and scales them to the reference speed.

    Installs a SIGALRM handler for the life of the process; the timer runs
    only while a measured call runs.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self._samples.append(_rep_seconds(INSIDE_REPS))
        self._spent += perf_counter() - start

    def measure(self, fn):
        """Call fn(): its result, raw seconds and seconds at the reference speed."""
        self._samples = [_rep_seconds(EDGE_REPS)]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            outcome = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # A pending alarm is handled before this line, inside `elapsed`.
            elapsed = perf_counter() - start
        raw = elapsed - self._spent
        self._samples.append(_rep_seconds(EDGE_REPS))
        return outcome, raw, raw * REFERENCE_REP_S / statistics.median(self._samples)
