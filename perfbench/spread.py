"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1 2 ...] [--out FILE]

Runs run.py once per seed and workload, one run at a time, with the
run length from BENCHMARK.json, and prints for each end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, next to the metric's bound.  One traced run per
workload, on the first seed, adds the per-layer metrics.  With --out the
set of runs is appended to the "sets" of that JSON file, as in
baseline.json, and each median is compared with the same median of
every earlier set there: "worse" is the share by which it is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = [ln for ln in lines if ln.startswith("# ")][:2]
    result = json.loads(lines[-1])
    result["diagnostics"] = {
        name: float(value)
        for _, _, name, value, _ in (ln.split() for ln in lines
                                     if ln.startswith("# diagnostic "))
    }
    return result, info


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            result, info = run_once(name, seed, bench["run_seconds"])
            runs.append(result)
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summarize(values)
            summary[m["name"]] = {**s, "unit": m["unit"], "bound": m["bound"]}
            flag = "ok" if s["spread"] < m["bound"] / 3 else (
                "within bound" if s["spread"] <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:14s} median={s['median']:.6g} {m['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound={m['bound']} {flag}", flush=True)
        for key in runs[0]["diagnostics"]:
            s = summarize([r["diagnostics"][key] for r in runs])
            summary[key] = {**s, "gated": False}
            print(f"  {key:14s} median={s['median']:.6g} spread={s['spread']:.4f} "
                  "(diagnostic)", flush=True)
        traced, _ = run_once(name, args.seeds[0], bench["run_seconds"], trace=1)
        report["workloads"][name] = {"summary": summary, "info": info, "runs": runs,
                                     "traced": traced}
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                sets = json.load(fh)["sets"]
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        for i, old in enumerate(sets):
            for name, w in report["workloads"].items():
                for metric, s in w["summary"].items():
                    if metric not in better:
                        continue
                    before = old["workloads"][name]["summary"][metric]["median"]
                    worse = (s["median"] - before) / before
                    worse = worse if better[metric] == "lower" else -worse
                    print(f"vs set {i + 1}: {name} {metric} worse={worse:+.4f} "
                          f"bound={s['bound']}")
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"sets": sets + [report]}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
