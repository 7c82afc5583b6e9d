"""Record bench/refs.json, the outputs the benchmark checks every run against.

    python3 bench/record_refs.py

The references hold, for the default seed 0 and the held-out seed 1, the
summary of every validate configuration and the first replicates of each
Monte Carlo workload, computed serially in this process.  Re-record them
only in a change that alters results on purpose; such a change claims no
speed-up, so that a result change is never hidden inside a perf change.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

REF_REPLICATES = {"mc-null": 64, "mc-ties": 64, "mc-mmdem": 12}
CLI_CONFIGS = 36  # every (dataset, method, covariance) triple once


def record_validate(mc) -> dict:
    table: dict = {}
    for seed in wl.REF_SEEDS:
        inputs = wl.write_inputs(mc, seed, wl.OUT / "record" / f"seed{seed}")
        for k in range(CLI_CONFIGS):
            call = wl.run_inproc_call(mc, k, inputs, wl.OUT / "record" / "call", {}, seed)
            if call.problems:
                raise SystemExit(f"validate call {k} at seed {seed} fails its checks: "
                                 f"{call.problems}")
            dataset, method, cov = wl.cli_config(k)
            group = "hemoglobin" if dataset == "hemoglobin" else str(seed)
            table.setdefault(group, {})[wl.ref_key(dataset, method, cov)] = call.summary
    return table


def main() -> int:
    mc = wl.load_program()
    refs = {
        "about": "bench/record_refs.py output; tolerances are ROW_TOL, P_REL_TOL and REPORT_REL_TOL "
                 "in bench/workloads.py",
        "environment": wl.environment(),
        "validate-cli": record_validate(mc),
    }
    for workload, count in REF_REPLICATES.items():
        refs[workload] = {}
        for seed in wl.REF_SEEDS:
            plan = wl.mc_plan(mc, workload, seed)
            refs[workload][str(seed)] = [mc.simulation.evaluate_replicate(plan, 0, ri)
                                         for ri in range(count)]
            print(f"{workload} seed {seed}: {count} replicates", file=sys.stderr)
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
