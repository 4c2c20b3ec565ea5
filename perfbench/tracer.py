"""Spans around the calls into each layer of englert_sums.

The benchmark never edits the library.  It replaces, for the length of a
traced pass, the module attributes through which one layer calls the
next (for example ``sums.li_on_circle``, the name ``sums`` resolves its
polylog calls through).  Each wrapper records a span on a stack; when a
span ends, its duration is added to its parent's child time, so every
layer's self time is its duration minus the time of the spans nested in
it.  Spans are folded into per-key aggregates and fixed-size histograms
as they end instead of being kept one by one, so memory does not grow
with the number of calls.
"""

from __future__ import annotations

import array
import math
import time
from collections import defaultdict
from numbers import Rational

# (module under englert_sums, attribute, layer): the names callers import
# the public functions under.  A name missing here means a caller was
# refactored, and the tracer refuses to run rather than report zero.
TARGETS = (
    ("sums", "li_on_circle", "polylog.li_on_circle"),
    ("sums", "eval_poly", "coeffs.eval_poly"),
    ("polylog", "eval_poly", "coeffs.eval_poly"),
    ("coeffs", "c_table", "coeffs.c_table"),
    ("coeffs", "abs_bernoulli_term", "bernoulli"),
    ("cli", "eval_family", "sums.eval"),
    ("cli", "oracle_eval", "oracle"),
)
# the two calls cli makes per verify point, without the inner layers
CLI_TARGETS = tuple(t for t in TARGETS if t[0] == "cli")


class Histogram:
    """Quantiles of non-negative values in memory fixed when it is made.

    Buckets grow by `ratio` from `lo` to `hi`; each also sums its values,
    so a quantile reads as the mean of the values in its bucket (within
    `ratio` of the exact order statistic).  Values at or below lo share
    the first bucket, values above hi the last one, and non-finite
    values rank above every finite one.
    """

    def __init__(self, lo=1e-7, hi=1e4, ratio=1.005):
        self._lo = lo
        self._scale = 1.0 / math.log(ratio)
        size = int(math.log(hi / lo) * self._scale) + 2
        self._counts = array.array("q", bytes(8 * size))
        self._sums = array.array("d", bytes(8 * size))
        self.n = 0

    def add(self, x):
        self.n += 1
        if not math.isfinite(x):
            return
        i = int(math.log(x / self._lo) * self._scale) + 1 if x > self._lo else 0
        i = min(i, len(self._counts) - 1)
        self._counts[i] += 1
        self._sums[i] += x

    def quantile(self, q):
        """Nearest-rank q-quantile; nan when empty, inf on a non-finite rank."""
        if self.n == 0:
            return math.nan
        rank = min(self.n, max(1, math.ceil(q * self.n)))
        seen = 0
        for count, total in zip(self._counts, self._sums):
            seen += count
            if seen >= rank:
                return total / count
        return math.inf


class TargetMissingError(RuntimeError):
    """A wrapped name is gone from the module its caller imports it into."""


def _oracle_mode(args, report):
    # capped: the series hit its term cap without reaching tol (strict=False)
    if report.mode.startswith("averaged"):
        return "averaged"
    return "absolute-capped" if report.tail_bound > float(args[2]) else "absolute"


class Tracer:
    """Aggregated spans, keyed by layer and sub-key.

    With op_layer set, the outermost spans also time operations for
    op_timer (a refclock.RefClock), numbered from 0 in the order they
    end: each outermost span adds its duration to the current operation,
    and one of layer op_layer ends it (for verify, a point is the
    eval_family call and then the oracle_eval call of that point).
    Between operations, outside every span, the timer may run its kernel.
    """

    def __init__(self, op_layer=None, op_timer=None):
        self._stack = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.li_seconds = defaultdict(Histogram)
        self.exact_poly_args = 0
        self.oracle_terms = 0
        self.envelope_over_tol = 0.0
        self.error_bounds = Histogram(lo=1e-30, hi=1e3)
        self.op_layer = op_layer
        self.op_timer = op_timer
        self._ops = 0
        self._op_s = 0.0
        self._installed = []

    def wrap(self, fn, layer):
        """fn with a span named after layer around every call."""
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                dt = clock() - t0
                stack.pop()
                self._end(layer, "error", dt, frame[0], stack)
                raise
            dt = clock() - t0
            stack.pop()
            self._end(layer, self._observe(layer, args, result), dt, frame[0], stack)
            return result

        return traced

    def _end(self, layer, key, dt, child, stack):
        if stack:
            stack[-1][0] += dt
        elif self.op_layer:
            self._op_s += dt
            if layer == self.op_layer:
                self.op_timer.add(self._ops, self._op_s)
                self._ops += 1
                self._op_s = 0.0
                self.op_timer.between()
        name = f"{layer}[{key}]" if key else layer
        self.calls[name] += 1
        self.busy[name] += dt
        self.self_time[name] += dt - child
        if layer == "polylog.li_on_circle":
            self.li_seconds[key].add(dt)

    def _observe(self, layer, args, result):
        if layer == "polylog.li_on_circle":
            return f"a{args[0]}"
        if layer == "coeffs.eval_poly":
            self.exact_poly_args += isinstance(args[1], Rational)
            return None
        if layer == "sums.eval":
            self.error_bounds.add(result.error_bound)
            return result.path
        if layer == "oracle":
            self.oracle_terms += result.terms_used
            self.envelope_over_tol = max(
                self.envelope_over_tol, result.tail_bound / float(args[2])
            )
            return _oracle_mode(args, result)
        return None

    def install(self, es, targets=TARGETS):
        """Wrap every targets name inside the loaded englert_sums package."""
        for module_name, attr, layer in targets:
            module = getattr(es, module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.uninstall()
                raise TargetMissingError(
                    f"englert_sums.{module_name}.{attr} is gone; the tracer "
                    f"cannot measure layer {layer}"
                )
            setattr(module, attr, self.wrap(original, layer))
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def summary(self):
        """Plain-data aggregates, ready for JSON."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "busy_s": self.busy[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "li_us_p50": {k: h.quantile(0.5) * 1e6 for k, h in self.li_seconds.items()},
            "exact_poly_args": self.exact_poly_args,
            "oracle_terms": self.oracle_terms,
            "envelope_over_tol": self.envelope_over_tol,
            "error_bound_p50": self.error_bounds.quantile(0.5),
        }
