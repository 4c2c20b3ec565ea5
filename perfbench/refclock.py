"""Fixed reference kernels that put timings on a steady scale.

On a shared host the speed of one vCPU changes by 30-50% from one
second to the next and from one minute to the next, so a run's raw
times depend on when it ran.  The benchmark therefore runs a kernel,
which never touches englert_sums, between the timed calls, about every
EVERY_S seconds, and scales the times of the calls between two kernel
runs by REF_S over the kernel's mean duration in those two runs: a time
is reported as it would read with the kernel taking exactly REF_S.

Each workload uses the kernel whose work is most like its own, because
the host slows kinds of work by different amounts: "scalar" mixes exact
Fraction arithmetic, float math and numpy sums over small arrays, like
the closed forms; "array" sums numpy arrays of 2^20 elements, like the
series oracle's chunks.  A change to englert_sums moves the scaled
times as it moves the raw ones; only the host's share is taken out.
"""

from __future__ import annotations

import array
import math
import time
from fractions import Fraction

import numpy as np

REF_S = 0.025  # both kernels take roughly this long on a quiet 2-vCPU Xeon VM
EVERY_S = 0.5
WINDOW = 1 << 14  # calls that wait for the next kernel run, at most

_COEFFS = [Fraction((-1) ** k * (7919 * k + 13), 104729 + 31 * k) for k in range(12)]
_SMALL = np.arange(20_000, dtype=np.float64) * 1e-3
_big = []  # made on first use, so only the "array" workload holds it

clock = time.perf_counter


def scalar_kernel():
    """Fixed scalar work, independent of englert_sums; returns a checksum."""
    exact = Fraction(0)
    for j in range(120):
        x, v = Fraction(j, 97), Fraction(0)
        for c in _COEFFS:
            v = v * x + c
        exact += v
    scalar = 0.0
    for k in range(25_000):
        scalar += math.sin(k * 1e-3) * math.exp(-k * 1e-6)
    vector = 0.0
    for _ in range(20):
        vector += float(np.sum(np.cos(_SMALL)))
    return float(exact) + scalar + vector


def array_kernel():
    """Fixed array work, independent of englert_sums; returns a checksum."""
    if not _big:
        _big.append(np.arange(1 << 20, dtype=np.float64) * 1e-6)
    return float(np.sum(np.cos(_big[0]))) + float(np.sum(np.sin(_big[0])))


KERNELS = {"scalar": scalar_kernel, "array": array_kernel}


def kernel_s(kernel):
    """Duration of one run of kernel, in seconds."""
    t0 = clock()
    kernel()
    return clock() - t0


class RefClock:
    """Busy time and per-input latency of timed calls, raw and at the reference speed.

    Calls are recorded with the index of their input among `n_inputs`
    (taken modulo n_inputs); each input's latency is its mean over the
    calls made on it, so a latency percentile is one over inputs and
    does not rest on the few calls that met a slow moment of the host.
    The kernel runs when the clock is made and then from between() once
    `every` seconds have passed; the calls recorded since its previous
    run are then scaled by REF_S over the mean of the two runs around
    them.  Those calls wait in a buffer of WINDOW slots, which between()
    also empties when it is full, so memory is fixed when the clock is
    made.  between() must be called between two add() calls.
    """

    def __init__(self, n_inputs, kernel="scalar", every=EVERY_S):
        self.every = every
        self._kernel = KERNELS[kernel]
        self.calls = 0
        self.raw_s = self.scaled_s = 0.0
        self.kernel_runs, self.kernel_total_s = 0, 0.0
        self.between_s = 0.0  # time spent inside between(), kernel included
        self._n_inputs = n_inputs
        self._raw = array.array("d", bytes(8 * n_inputs))
        self._scaled = array.array("d", bytes(8 * n_inputs))
        self._count = array.array("q", bytes(8 * n_inputs))
        self._input = array.array("q", bytes(8 * WINDOW))
        self._dt = array.array("d", bytes(8 * WINDOW))
        self._n = 0
        self._last = self._run_kernel()

    def _run_kernel(self):
        dt = kernel_s(self._kernel)
        self.kernel_runs += 1
        self.kernel_total_s += dt
        self._due = clock() + self.every
        return dt

    def _flush(self):
        dt = self._run_kernel()
        factor = 2 * REF_S / (self._last + dt)
        self._last = dt
        for j in range(self._n):
            i, x = self._input[j], self._dt[j]
            self._raw[i] += x
            self._scaled[i] += x * factor
            self._count[i] += 1
            if math.isfinite(x):
                self.raw_s += x
                self.scaled_s += x * factor
        self._n = 0

    def between(self):
        """Call between timed calls: runs the kernel when it is due."""
        if self._n == WINDOW or clock() >= self._due:
            t0 = clock()
            self._flush()
            self.between_s += clock() - t0

    def add(self, i, dt):
        """Record one call on input i of dt seconds; a failed call is an infinite one."""
        self._input[self._n] = i % self._n_inputs
        self._dt[self._n] = dt
        self._n += 1
        self.calls += 1

    def summary(self):
        """Scales the last calls (one more kernel run) and returns the figures."""
        if self._n:
            self._flush()
        return {
            "timed_calls": self.calls,
            "busy_s": self.raw_s,
            "ref_busy_s": self.scaled_s,
            "latency_us": self._percentiles_us(self._raw),
            "ref_latency_us": self._percentiles_us(self._scaled),
            "kernel_runs": self.kernel_runs,
            "kernel_mean_s": self.kernel_total_s / self.kernel_runs,
        }

    def _percentiles_us(self, sums):
        """Inputs reached, and nearest-rank p50 and p99 of their mean latency, in us."""
        means = sorted(s / c for s, c in zip(sums, self._count) if c)
        n = len(means)
        if n == 0:
            return {"n": 0, "p50": math.nan, "p99": math.nan}

        def rank(q):
            return means[min(n - 1, max(0, math.ceil(q * n) - 1))] * 1e6

        return {"n": n, "p50": rank(0.50), "p99": rank(0.99)}
