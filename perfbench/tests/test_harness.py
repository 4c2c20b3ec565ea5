"""Tests of the benchmark harness itself, at tiny op counts.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import englert_sums as es  # noqa: E402
import englert_sums.cli  # noqa: E402,F401
import reference  # noqa: E402
import refclock  # noqa: E402
from refclock import REF_S, RefClock  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Histogram, TargetMissingError, Tracer  # noqa: E402

TINY_VERIFY = replace(
    wl.WORKLOADS["verify_default"],
    name="tiny_verify",
    argv=("verify", "--families", "S,Sp,Qp", "--orders", "0..1", "--grid", "0.1", "0.9", "4"),
    points=24,
    # set-up layers are left out: earlier tests in this process built the tables
    layers=("cli", "sums.eval", "oracle", "polylog.li_on_circle", "coeffs.eval_poly"),
)


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _assert_metrics(result, specs):
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_json_matches_the_harness(bench):
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()
    }


def test_inputs_depend_only_on_the_seed():
    w = wl.WORKLOADS["eval_polylog"]
    assert wl.make_ops(w, 10, 7) == wl.make_ops(w, 10, 7)
    assert wl.make_ops(w, 10, 7) != wl.make_ops(w, 10, 8)
    ops = wl.make_ops(w, 10, 7)
    assert len(ops) == 10 * w.reps and all(-4 <= z <= 4 for _, z in ops)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["eval_polynomial", "eval_polylog"])
def test_eval_run_emits_every_metric_with_a_unit(bench, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    assert code == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _assert_metrics(result, bench["per_layer"] if trace else bench["end_to_end"])


@pytest.fixture(scope="module")
def tiny_verify_reports(monkeypatch_module):
    monkeypatch_module.setitem(wl.WORKLOADS, TINY_VERIFY.name, TINY_VERIFY)
    request = {"workload": TINY_VERIFY.name, "seed": 1, "seconds": 0.1}
    return {trace: worker.measure({**request, "trace": trace}, es) for trace in (0, 1)}


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_verify_run_emits_every_metric_with_a_unit(tiny_verify_reports):
    untraced, traced = tiny_verify_reports[0], tiny_verify_reports[1]
    attempted, failed, worst, problems = run.check_verify_report(TINY_VERIFY, untraced)
    calls = untraced["passes"][0]["calls"]
    assert (attempted, failed, problems) == (TINY_VERIFY.points * calls, 0, [])
    e2e = run.e2e_metrics(TINY_VERIFY, untraced, [(untraced["setup_s"], untraced["setup_scale"])])
    assert set(e2e) == set(run.E2E_UNITS) | set(run.DIAGNOSTIC_UNITS) - {"trace.overhead_s"}
    assert all(math.isfinite(v) for v in e2e.values())
    layers = run.layer_metrics(TINY_VERIFY, traced, worst)
    assert set(layers) == set(run.LAYER_UNITS) | {"trace.overhead_s"}
    assert layers["oracle.busy_share"] > 0 and layers["cli.self_share"] > 0


def test_injected_wrong_eval_value_counts_as_failed():
    w = wl.WORKLOADS["eval_polynomial"]
    report = worker.measure({"workload": w.name, "seed": 5, "seconds": 0.05}, es)
    attempted, failed, _, problems = run.check_eval(es, w, report, 5)
    assert failed == 0 and not problems
    key = sorted(report["passes"][0]["samples"], key=int)[0]
    value, bound = report["passes"][0]["samples"][key]
    report["passes"][0]["samples"][key] = (value + 1e-9, bound)
    attempted, failed, _, problems = run.check_eval(es, w, report, 5)
    calls, n_ops = report["passes"][0]["calls"], report["ops"]
    assert failed == run._occurrences(int(key), calls, n_ops) >= 1
    assert len(problems) == 1


def test_nan_and_exceptions_from_eval_count_as_failed(monkeypatch):
    real = es.eval_family
    bad = es.SumFamily.from_code("C", 1)

    def faulty(f, z):
        # z < 0 spares set-up, which evaluates every family at WARMUP_Z > 0
        if f == bad and z < 0:
            return es.EvalResult(math.nan, "polynomial", 0.0)
        if f.code == "S" and f.order == 2 and z < 0:
            raise ZeroDivisionError("injected")
        return real(f, z)

    monkeypatch.setattr(es, "eval_family", faulty)
    w = wl.WORKLOADS["eval_polynomial"]
    report = worker.measure({"workload": w.name, "seed": 2, "seconds": 0.05}, es)
    _, failed, _, problems = run.check_eval(es, w, report, 2)
    reasons = [why for _, why in report["passes"][0]["failures"]]
    assert failed == len(reasons) > 0
    assert any("non-finite" in r for r in reasons)
    assert any("ZeroDivisionError" in r for r in reasons)


def test_injected_wrong_verify_row_counts_as_failed(tiny_verify_reports):
    text = tiny_verify_reports[0]["passes"][0]["text"]
    lines = text.splitlines()
    lines[3] = lines[3].replace("PASS", "FAIL")
    failed, _, problems = reference.check_verify("\n".join(lines), TINY_VERIFY.points)
    assert failed == 1 and problems == []
    del lines[5]
    failed, _, problems = reference.check_verify("\n".join(lines), TINY_VERIFY.points)
    assert failed == 2 and f"{TINY_VERIFY.points - 1} rows" in problems[0]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_loop_memory_does_not_grow_with_calls(monkeypatch):
    monkeypatch.setattr(refclock, "kernel_s", lambda kernel: 0.02)
    ops = [(0, 0.01 * i) for i in range(50)]
    result = es.EvalResult(1.0, "polynomial", 0.0)

    def peak(calls):
        return _peak_bytes(
            lambda: worker.run_eval(lambda f, z: result, [None], ops, set(), 60, calls))

    small, large = peak(1_000), peak(50_000)
    assert large - small < 4096, (small, large)


def test_tracer_memory_does_not_grow_with_calls(monkeypatch):
    monkeypatch.setattr(refclock, "kernel_s", lambda kernel: 0.02)

    def peak(calls):
        tracer = Tracer(op_layer="inner", op_timer=RefClock(10, every=math.inf))
        outer = tracer.wrap(lambda: inner(), "outer")
        inner = tracer.wrap(lambda: None, "inner")

        def loop():
            for _ in range(calls):
                outer()
                inner()
            return tracer.summary()
        return _peak_bytes(loop)

    small, large = peak(1_000), peak(30_000)
    assert large - small < 4096, (small, large)


def test_refclock_scales_calls_by_the_kernel_runs_around_them(monkeypatch):
    durations = iter([0.010, 0.030, 0.050, 0.050])
    monkeypatch.setattr(refclock, "kernel_s", lambda kernel: next(durations))
    monkeypatch.setattr(refclock, "WINDOW", 2)
    timer = RefClock(n_inputs=2, every=math.inf)
    timer.between()
    timer.add(0, 1e-3)
    timer.between()
    timer.add(1, 3e-3)
    timer.between()  # full: scales both by REF_S / 0.020
    timer.add(2, 5e-3)  # input 0 again
    s = timer.summary()  # scales the last by REF_S / 0.040
    assert timer.kernel_runs == 3 and s["timed_calls"] == 3
    assert s["busy_s"] == pytest.approx(9e-3)
    assert s["ref_busy_s"] == pytest.approx((4e-3 / 0.020 + 5e-3 / 0.040) * REF_S)
    # input 0: mean of 1 ms and 5 ms; input 1: 3 ms
    assert s["latency_us"] == {"n": 2, "p50": pytest.approx(3e3), "p99": pytest.approx(3e3)}
    assert s["ref_latency_us"]["p50"] == pytest.approx(
        (1e-3 / 0.020 + 5e-3 / 0.040) / 2 * REF_S * 1e6)
    assert s["ref_latency_us"]["p99"] == pytest.approx(3e-3 / 0.020 * REF_S * 1e6)
    timer.add(1, math.inf)
    assert timer.summary()["ref_latency_us"]["p99"] == math.inf


def test_kernels_are_fixed_work():
    for kernel in refclock.KERNELS.values():
        assert kernel() == kernel()


def test_histogram_quantiles():
    h = Histogram()
    values = [1e-6 * k for k in range(1, 1001)]
    for v in reversed(values):
        h.add(v)
    assert h.n == 1000
    assert h.quantile(0.5) == pytest.approx(500e-6, rel=0.005)
    assert h.quantile(0.99) == pytest.approx(990e-6, rel=0.005)
    h.add(math.inf)
    h.add(math.inf)
    assert h.quantile(1.0) == math.inf
    assert math.isnan(Histogram().quantile(0.5))


def test_verify_points_are_timed_through_the_cli_names(tiny_verify_reports):
    main = tiny_verify_reports[0]["passes"][0]
    assert main["timed_calls"] == TINY_VERIFY.points * main["calls"]
    assert main["latency_us"]["n"] == TINY_VERIFY.points
    assert 0 < main["latency_us"]["p50"] <= main["latency_us"]["p99"] < math.inf


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.delattr(es.sums, "li_on_circle")
    before = es.polylog.eval_poly
    with pytest.raises(TargetMissingError, match="englert_sums.sums.li_on_circle"):
        Tracer().install(es)
    assert es.polylog.eval_poly is before


def test_a_silent_layer_is_an_error(tiny_verify_reports):
    traced = json.loads(json.dumps(tiny_verify_reports[1]))
    traced["trace"]["spans"] = {
        k: v for k, v in traced["trace"]["spans"].items() if not k.startswith("oracle")
    }
    with pytest.raises(run.BenchError, match="layer oracle recorded no calls"):
        run.layer_metrics(TINY_VERIFY, traced, 1.0)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_polynomial",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
