"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py [--workloads mc-null ...] [--seeds 10] [--json FILE]

With no arguments it runs everything: every workload on seeds 0-9 with
tracing off, then once traced on seed 0.  Each run is ``bench/run.py`` in
its own interpreter, one after another, for BENCHMARK.json's run_seconds.
For every metric the summary gives the median, the quartiles and the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles); end-to-end
spreads are printed beside a third of the metric's bound in
BENCHMARK.json, the level below which the benchmark counts as steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result.update(exit=proc.returncode, wall=time.perf_counter() - t0, seed=seed)
    for line in lines:
        for prefix, key in (("env: ", "env"), ("per-layer (all): ", "per_layer_all")):
            if line.startswith(prefix):
                result[key] = json.loads(line[len(prefix):])
    if proc.returncode != 0:
        result["tail"] = (proc.stdout + proc.stderr)[-2000:]
    return result


def summarise(runs) -> dict:
    out = {}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
        values = [v for v in values if v is not None]
        if len(values) == 1:
            out[name] = {"median": values[0], "n": 1}
        elif values:
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "spread": spread(values), "n": len(values)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    ap.add_argument("--json", help="write runs and summaries to this file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, s, 0) for s in range(args.seeds)]
        traced = [run_once(workload, 0, 1)]
        bad = [r for r in runs + traced if r["exit"] != 0 or not r.get("correct")]
        ok &= not bad
        summary = summarise(runs + traced)
        report[workload] = {"runs": runs, "traced_runs": traced, "summary": summary}
        walls = [r["wall"] for r in runs + traced]
        print(f"{workload}: {len(runs)} runs, {len(traced)} traced, {len(bad)} failed, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f}s")
        for r in bad:
            print(f"  seed {r['seed']} exit {r['exit']}: {r.get('tail', '')[-600:]}")
        for name, s in summary.items():
            if s["n"] == 1:
                print(f"  {name:<32} {s['median']:.6g}")
                continue
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "  steady" if s["spread"] < bound / 3 else "  NOT STEADY"
            print(f"  {name:<32} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound}){flag}" if bound is not None else ""))
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
