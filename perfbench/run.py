"""Benchmark of englert_sums: closed-form evaluation and `verify`.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; englert_sums is imported from its
``src`` directory.  Each workload runs in fresh worker interpreters, one
at a time, single-threaded, as a closed loop with one caller
(ENGLERT_SUMS_THREADS is removed from their environment).  The seed only
draws the inputs.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  Their times are scaled to a reference speed of the
host, measured by a fixed kernel run between the timed calls (see
refclock.py); the unscaled figures are printed as diagnostics.  The
latency percentiles are over the inputs (eval ops or verify points),
of each input's mean latency.  With ``--trace 1`` the line holds the
per-layer metrics of alternating untraced and traced rounds of the
same calls.  Every metric is also printed as ``metric NAME VALUE
UNIT``, and the whole report, with the Python, numpy and mpmath
versions, nproc, the commit, the seed and the op counts, is written to
``perfbench/results/``.  ``--workload all`` (the default) runs every
workload with and without tracing and ends with a combined JSON line.

Correctness: an exception, a non-finite value or a non-finite
error_bound fails an eval op; a seeded sample of ops is compared with an
independent reference (see reference.py).  A verify call must exit 0,
print one PASS row per point and the PASS summary, and repeat its output
byte for byte.  The sampled-reference failures count once per
occurrence of the op, so ``failed / attempted`` is the fail ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

import reference
import workloads as wl
from worker import BenchError, load_package

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_RUNS = 7  # set-up is timed in this many fresh interpreters; median
WORKER_TIMEOUT_S = 150

# name -> unit of every metric the final JSON line carries; times are at
# the reference speed (refclock.py)
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "peak_rss_mb": "MB",
}
# printed and written to the results, but not in the JSON line: the
# unscaled figures, the scale, and the tracing cost, which on verify is
# smaller than the host's noise and can read below 0
DIAGNOSTIC_UNITS = {
    "trace.overhead_s": "s",
    "raw.setup_s": "s",
    "raw.ops_per_s": "1/s",
    "raw.op_us_p99": "us",
    "ref.scale": "1",
}
LI_ORDERS = range(2, 18)  # Li_1: no workload reaches it (no a1 span in any traced run)
ORACLE_MODES = ("absolute", "absolute-capped", "averaged")
PATHS = ("polynomial", "elementary", "polylog")
LAYER_UNITS = {
    "trace.wall_s": "s",
    "sums.eval.busy_s": "s",
    "sums.eval.self_s": "s",
    "coeffs.eval_poly.busy_s": "s",
    "bernoulli.busy_s": "s",
    "coeffs.c_table.busy_s": "s",
    "bernoulli.calls": "count",
    "coeffs.c_table.calls": "count",
    **{f"sums.eval.self_share.{p}": "1" for p in PATHS},
    "polylog.li_on_circle.busy_share": "1",
    **{f"polylog.li_on_circle.busy_share.a{a}": "1" for a in LI_ORDERS},
    "oracle.busy_share": "1",
    **{f"oracle.busy_share.{m}": "1" for m in ORACLE_MODES},
    "cli.self_share": "1",
    "coeffs.eval_poly.calls_per_op": "1/op",
    "polylog.li_on_circle.calls_per_op": "1/op",
    **{f"oracle.calls_per_op.{m}": "1/op" for m in ORACLE_MODES},
    "oracle.terms_per_op": "1/op",
    "coeffs.eval_poly.exact_share": "1",
    "oracle.envelope_over_tol": "1",
    "sums.eval.error_bound_p50": "1",
    "check.worst_margin": "1",
}


def run_worker(request):
    env = {k: v for k, v in os.environ.items() if k != "ENGLERT_SUMS_THREADS"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _occurrences(i, calls, n_ops):
    return calls // n_ops + (1 if i < calls % n_ops else 0)


def check_eval(es, workload, report, seed):
    """(attempted, failed, worst_margin, problems) of an eval report."""
    pairs = wl.pairs(workload, es)
    ops = wl.make_ops(workload, len(pairs), seed)
    passes = report["passes"]
    attempted = sum(p["calls"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = [f"op {i}: {why}" for p in passes for i, why in p["failures"][:5]]
    samples = {int(i): tuple(v) for i, v in passes[0]["samples"].items()}
    failed_ops = {i for i, _ in passes[0]["failures"]}
    if set(samples) != set(wl.reference_sample(workload, ops, seed)) - failed_ops:
        problems.append("the worker returned other ops than the reference sample")
    checked = reference.check_samples(es, pairs, ops, samples)
    for i, margin, ok in checked:
        if not ok:
            failed += sum(_occurrences(i, p["calls"], len(ops)) for p in passes)
            problems.append(f"op {i} {pairs[ops[i][0]]} z={ops[i][1]!r}: "
                            f"|value - reference| is {margin:.3g} x its allowance")
    worst = max((m for _, m, _ in checked), default=math.inf)
    return attempted, failed, worst, problems


def check_verify_report(workload, report):
    attempted = failed = 0
    worst, problems = 0.0, []
    passes = report["passes"]
    first = passes[0]["digests"][0]
    for p in passes:
        rows_failed, worst_here, found = reference.check_verify(p["text"], workload.points)
        worst = max(worst, worst_here)
        problems += found
        for rc, digest in zip(p["exit_codes"], p["digests"]):
            attempted += workload.points
            failed += rows_failed if digest == first else workload.points
            if rc != 0:
                problems.append(f"verify exited {rc}: {p['stderr'].strip()[:200]}")
    if len({d for p in passes for d in p["digests"]}) > 1:
        problems.append("repeated verify calls printed different output")
    timed = passes[0].get("timed_calls")
    if timed is not None and timed != workload.points * passes[0]["calls"]:
        raise BenchError(f"timed {timed} verify points, expected "
                         f"{workload.points * passes[0]['calls']}: cli no longer calls "
                         "eval_family and oracle_eval once per point")
    return attempted, failed, worst, problems


def e2e_metrics(workload, report, setups):
    """End-to-end metrics at the reference speed of refclock.py, and the raw figures.

    setups holds (setup_s, scale) of each fresh interpreter.
    """
    main = report["passes"][0]
    ops = workload.ops_per_call * main["calls"]
    return {
        "setup_s": statistics.median(s * f for s, f in setups),
        "ops_per_s": ops / main["ref_busy_s"],
        "op_us_p50": main["ref_latency_us"]["p50"],
        "op_us_p99": main["ref_latency_us"]["p99"],
        "peak_rss_mb": report["peak_rss_mb"],
        "raw.setup_s": statistics.median(s for s, _ in setups),
        "raw.ops_per_s": ops / main["busy_s"],
        "raw.op_us_p99": main["latency_us"]["p99"],
        "ref.scale": main["ref_busy_s"] / main["busy_s"],
    }


def _totals(spans, layer):
    names = [n for n in spans if n == layer or n.startswith(layer + "[")]
    return (sum(spans[n]["calls"] for n in names),
            sum(spans[n]["busy_s"] for n in names),
            sum(spans[n]["self_s"] for n in names))


def layer_metrics(workload, report, worst):
    """Per-layer metrics of the traced rounds; raises if a required layer is silent.

    The passes alternate untraced and traced rounds of the same calls.
    """
    untraced, traced = report["passes"][0::2], report["passes"][1::2]
    tr, setup = report["trace"], report["setup_trace"]
    spans, setup_spans = tr["spans"], setup["spans"]
    for layer in workload.layers:
        if _totals(spans, layer)[0] == 0 and _totals(setup_spans, layer)[0] == 0:
            raise BenchError(f"layer {layer} recorded no calls on {workload.name}: "
                             "its caller no longer uses the wrapped name")
    wall = math.fsum(p["wall_s"] for p in traced)
    ops = sum(p["calls"] for p in traced) * workload.ops_per_call

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    poly_calls, poly_busy, _ = _totals(spans, "coeffs.eval_poly")
    li_calls, li_busy, _ = _totals(spans, "polylog.li_on_circle")
    _, oracle_busy, _ = _totals(spans, "oracle")
    _, eval_busy, eval_self = _totals(spans, "sums.eval")
    return {
        "trace.wall_s": wall,
        "trace.overhead_s": wall - math.fsum(p["wall_s"] for p in untraced),
        "sums.eval.busy_s": eval_busy,
        "sums.eval.self_s": eval_self,
        "coeffs.eval_poly.busy_s": poly_busy,
        "bernoulli.busy_s": _totals(setup_spans, "bernoulli")[1],
        "coeffs.c_table.busy_s": _totals(setup_spans, "coeffs.c_table")[1],
        "bernoulli.calls": _totals(setup_spans, "bernoulli")[0],
        "coeffs.c_table.calls": _totals(setup_spans, "coeffs.c_table")[0],
        **{f"sums.eval.self_share.{p}": span(f"sums.eval[{p}]", "self_s") / wall
           for p in PATHS},
        "polylog.li_on_circle.busy_share": li_busy / wall,
        **{f"polylog.li_on_circle.busy_share.a{a}":
           span(f"polylog.li_on_circle[a{a}]", "busy_s") / wall for a in LI_ORDERS},
        "oracle.busy_share": oracle_busy / wall,
        **{f"oracle.busy_share.{m}": span(f"oracle[{m}]", "busy_s") / wall
           for m in ORACLE_MODES},
        "cli.self_share": _totals(spans, "cli")[2] / wall,
        "coeffs.eval_poly.calls_per_op": poly_calls / ops,
        "polylog.li_on_circle.calls_per_op": li_calls / ops,
        **{f"oracle.calls_per_op.{m}": span(f"oracle[{m}]", "calls") / ops
           for m in ORACLE_MODES},
        "oracle.terms_per_op": tr["oracle_terms"] / ops,
        "coeffs.eval_poly.exact_share": tr["exact_poly_args"] / poly_calls,
        "oracle.envelope_over_tol": tr["envelope_over_tol"],
        "sums.eval.error_bound_p50": tr["error_bound_p50"],
        "check.worst_margin": worst,
    }


def run_one(es, name, seed, seconds, trace):
    """Measure, check and print one workload; returns the result object."""
    workload = wl.WORKLOADS[name]
    request = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "src": SRC}
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            r = run_worker({**request, "setup_only": True})
            setups.append((r["setup_s"], r["setup_scale"]))
    report = run_worker(request)
    setups.append((report["setup_s"], report["setup_scale"]))
    if workload.kind == "eval":
        attempted, failed, worst, problems = check_eval(es, workload, report, seed)
    else:
        attempted, failed, worst, problems = check_verify_report(workload, report)
    if trace:
        metrics, units = layer_metrics(workload, report, worst), LAYER_UNITS
    else:
        metrics, units = e2e_metrics(workload, report, setups), E2E_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    diagnostics = {k: metrics[k] for k in DIAGNOSTIC_UNITS if k in metrics}
    info = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": commit(), "python": report["python"],
        "numpy": report["numpy"], "mpmath": reference.mpmath.__version__,
        "nproc": report["nproc"], "machine": platform.machine(),
        "ops_in_list": report.get("ops"),
        "calls": [p["calls"] for p in report["passes"]],
        "setups_s_and_scale": setups,
        "fail_ratio": failed / attempted if attempted else math.nan,
        "worst_margin": worst,
        "diagnostics": diagnostics,
        "problems": problems,
    }
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"commit={info['commit'][:12]} python={info['python']} numpy={info['numpy']} "
          f"mpmath={info['mpmath']} nproc={info['nproc']}")
    print(f"# calls={info['calls']} attempted={attempted} failed={failed} "
          f"fail_ratio={info['fail_ratio']:.6g} worst_margin={worst:.6g}")
    for p in problems:
        print(f"# problem: {p}")
    for k, m in result["metrics"].items():
        print(f"metric {k} {m['value']!r} {m['unit']}")
    for k, v in diagnostics.items():
        print(f"# diagnostic {k} {v!r} {DIAGNOSTIC_UNITS[k]}")
    if trace:
        detail = report["trace"]
        for key, us in sorted(detail["li_us_p50"].items(), key=lambda kv: int(kv[0][1:])):
            print(f"# polylog.li_on_circle.us_p50.{key} {us!r} us")
        for span_name, s in detail["spans"].items():
            print(f"# span {span_name} calls={s['calls']} busy_s={s['busy_s']!r} "
                  f"self_s={s['self_s']!r}")
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    detail = {k: v for k, v in report.items() if k != "passes"}
    detail["passes"] = [{k: v for k, v in p.items() if k != "text"} for p in report["passes"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "worker": detail}, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        es = load_package(SRC)
        if args.workload != "all":
            result = run_one(es, args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            modes = (False, True) if args.trace is None else (bool(args.trace),)
            for name in wl.WORKLOADS:
                for trace in modes:
                    r = run_one(es, name, args.seed, args.seconds, trace)
                    combined["correct"] &= r["correct"]
                    combined["attempted"] += r["attempted"]
                    combined["failed"] += r["failed"]
                    combined["metrics"].update(
                        {f"{name}.{k}": v for k, v in r["metrics"].items()})
            result = combined
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
