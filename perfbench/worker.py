"""Measures one workload in a fresh interpreter and prints a JSON report.

    python3 perfbench/worker.py '<request as JSON>'

run.py starts this script and waits for it.  The request names the
workload, the seed, the seconds to measure, whether to trace, and the
``src`` directory englert_sums is imported from.  With ``setup_only``
the worker stops after set-up, so run.py can time set-up in several
fresh interpreters.

Set-up is the package import plus one warm-up evaluation of every
(code, order) pair the workload uses.  The measured loop is closed, with
one caller and one thread: each call starts when the previous one has
returned.  Only the calls into the library are timed.  An untraced run
also runs the reference kernel of refclock.py between calls, to scale
its times to a reference speed.  A traced run alternates untraced and
traced rounds of the same calls; the difference in wall time is the
tracing cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import workloads as wl
from refclock import EVERY_S, REF_S, RefClock, kernel_s, scalar_kernel
from tracer import CLI_TARGETS, Tracer

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def load_package(src):
    """Import englert_sums and its cli from src, refusing any other copy."""
    if not os.path.isfile(os.path.join(src, "englert_sums", "__init__.py")):
        raise BenchError(f"no englert_sums package under {src}")
    sys.path.insert(0, src)
    import englert_sums
    import englert_sums.cli  # noqa: F401  (verify and the tracer need it)

    where = os.path.realpath(englert_sums.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"englert_sums was imported from {where}, not {src}")
    return englert_sums


def warm_up(workload, es, call):
    families = [es.SumFamily.from_code(c, n) for c, n in wl.pairs(workload, es)]
    for f in families:
        call(f, wl.WARMUP_Z)
    return families


def run_eval(call, families, ops, sample, seconds, max_calls=None, ref_every=EVERY_S,
             kernel="scalar"):
    """Closed loop over the op list until `seconds` pass or `max_calls` are made.

    Without `max_calls` the loop makes at least one pass over the op
    list, so every sampled op is reached.  Every result is checked for an
    exception or a non-finite value or bound, outside the timed interval.
    A failed call counts as an infinite latency.  The values of the
    sampled ops are kept from their first occurrence for the reference
    check.  Calls are timed by a RefClock, whose kernel runs between
    them every `ref_every` seconds and whose memory is fixed before the
    loop starts.
    """
    timer = RefClock(len(ops), kernel, ref_every)
    samples, failures = {}, []
    n_ops, calls = len(ops), 0
    if max_calls is None:
        min_calls, max_calls = n_ops, math.inf
    else:
        min_calls = max_calls
    start = clock()
    deadline = start + seconds
    while calls < max_calls and (calls < min_calls or clock() < deadline):
        timer.between()
        i = calls % n_ops
        p, z = ops[i]
        t0 = clock()
        try:
            r = call(families[p], z)
        except Exception as exc:  # any exception is a failed op, counted below
            timer.add(i, math.inf)
            failures.append((i, f"{type(exc).__name__}: {exc}"))
        else:
            timer.add(i, clock() - t0)
            if not (math.isfinite(r.value) and math.isfinite(r.error_bound)):
                failures.append((i, f"non-finite value {r.value!r} or bound {r.error_bound!r}"))
            elif calls < n_ops and i in sample:
                samples[i] = (r.value, r.error_bound)
        calls += 1
    wall = clock() - start
    return {"calls": calls, "wall_s": wall, **timer.summary(),
            "samples": samples, "failures": failures}


def run_verify(call, workload, seconds, max_calls=None):
    """Repeated cli.run calls until `seconds` pass or `max_calls` are made."""
    durations, codes, digests, first_text = [], [], [], None
    start = clock()
    while True:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            rc = call(list(workload.argv))
            dt = clock() - t0
        text = out.getvalue()
        durations.append(dt)
        codes.append(rc)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if first_text is None:
            first_text, first_err = text, err.getvalue()
        if len(durations) == max_calls or max_calls is None and clock() - start >= seconds:
            break
    return {"calls": len(durations), "wall_s": clock() - start,
            "busy_s": math.fsum(durations), "durations": durations,
            "exit_codes": codes, "digests": digests, "text": first_text,
            "stderr": first_err}


def measure(req, es=None):
    """Set-up plus the timed passes the request asks for; a JSON-ready dict."""
    t0 = clock()
    es = es or load_package(req["src"])
    workload = wl.WORKLOADS[req["workload"]]
    trace = bool(req.get("trace"))
    report = {"python": sys.version.split()[0],
              "numpy": sys.modules["numpy"].__version__,
              "nproc": os.cpu_count()}
    setup_tracer = Tracer() if trace else None
    call = es.eval_family
    if trace:
        setup_tracer.install(es)
        call = setup_tracer.wrap(call, "sums.eval")
    try:
        families = warm_up(workload, es, call)
    finally:
        if trace:
            setup_tracer.uninstall()
    report["setup_s"] = clock() - t0
    # the host's speed right after set-up, to scale setup_s by
    scalar_kernel()
    report["setup_scale"] = REF_S / statistics.mean(kernel_s(scalar_kernel) for _ in range(3))
    if req.get("setup_only"):
        return report
    if trace:
        report["setup_trace"] = setup_tracer.summary()

    seconds = req["seconds"]
    if workload.kind == "eval":
        ops = wl.make_ops(workload, len(families), req["seed"])
        sample = set(wl.reference_sample(workload, ops, req["seed"]))
        report["ops"] = len(ops)
        entry, layer, round_calls = es.eval_family, "sums.eval", len(ops)

        def one_pass(call, max_calls=None, ref_every=math.inf):
            return run_eval(call, families, ops, sample, seconds, max_calls, ref_every,
                            workload.kernel)
    else:
        entry, layer, round_calls = es.cli.run, "cli", 1

        def one_pass(call, max_calls=None, ref_every=None):  # the point tracer times it
            return run_verify(call, workload, seconds, max_calls)

    if not trace:
        point_tracer = None
        if workload.kind == "verify":
            # a point is timed as its eval_family and oracle_eval calls,
            # and the kernel runs between points, inside cli.run
            timer = RefClock(workload.points, workload.kernel)
            point_tracer = Tracer(op_layer="oracle", op_timer=timer)
            point_tracer.install(es, CLI_TARGETS)
        try:
            main = one_pass(entry, ref_every=EVERY_S)
        finally:
            if point_tracer:
                point_tracer.uninstall()
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if point_tracer:
            # cli.run's time without the timer's, scaled as its points were
            busy = main["busy_s"] - timer.between_s
            points = timer.summary()
            main.update(points, busy_s=busy,
                        ref_busy_s=busy * points["ref_busy_s"] / points["busy_s"])
        passes = [main]
    else:
        # rounds of the same calls, untraced then traced, until `seconds`
        # pass: both halves see the same phases of the host, so their
        # difference in wall time is the tracing cost
        tracer = Tracer()
        traced_entry = tracer.wrap(entry, layer)
        passes, deadline = [], clock() + seconds
        while not passes or clock() < deadline:
            passes.append(one_pass(entry, round_calls))
            tracer.install(es)
            try:
                passes.append(one_pass(traced_entry, round_calls))
            finally:
                tracer.uninstall()
        report["trace"] = tracer.summary()
    report["passes"] = passes
    return report


def main():
    req = json.loads(sys.argv[1])
    json.dump(measure(req), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
