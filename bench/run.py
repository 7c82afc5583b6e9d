"""Benchmark of mcjoint: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload mc-null --seed 0 --seconds 17 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs the workload serially in this process with every layer
boundary wrapped in a span, and reports the per-layer metrics.  Both
check the program's outputs; the last line of standard output is one
JSON object, and the exit code is 1 when a check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from typing import Callable, List, NamedTuple

from layers import SHARED_LAYERS, instrument, layer_metrics
from stats import FIT_FAILED, Tally, replicate_outcomes, timing
from tracing import Tracer
import workloads as wl

# fresh-interpreter imports per run behind setup_s, spread through the
# run: validate-cli interleaves them with its calls; mc-* runs
# SETUP_BEFORE of them before the worker pool and the rest after it,
# since the pool keeps both cores busy
SETUP_REPEATS = 7
SETUP_BEFORE = 4
# validate calls per run that start a fresh interpreter, as a terminal user
# does; the measured loop calls cli.main in this process (see README.md)
FRESH_CALLS = 2
IMPORT_PROFILE_REPEATS = 3
# validate-cli stops after a whole number of these calls, so that every
# method-covariance pair is timed equally often
PAIRS = len(wl.CLI_METHODS) * len(wl.CLI_COVS)

# (name, unit) of the metrics on the last output line; BENCHMARK.json
# lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    *((f"{layer}.self_s_per_op", "s") for layer in SHARED_LAYERS),
    ("estimators.iters_mean", "count"),
    ("estimators.degenerate_frac", "frac"),
    ("resampling.redraws_per_op", "count"),
    ("resampling.bca_s", "s"),
    ("resampling.bca_fallback_frac", "frac"),
    ("robustcov.cov_s.classic", "s"),
    ("robustcov.fast_mcd_calls", "count"),
    ("robustcov.s_cov_calls", "count"),
    ("robustcov.rocke_cov_calls", "count"),
    ("jetest.je_s", "s"),
    ("jetest.je_fail_frac", "frac"),
    ("trace.op_s", "s"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
)


def _setup_note(setup) -> str:
    return "set-up imports " + " ".join(f"{v:.3f}" for v in setup) + " s"


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# ---------------------------------------------------------------------------
# end-to-end runs (tracing off)
# ---------------------------------------------------------------------------

def e2e_validate_cli(mc, seed: int, seconds: float, env, refs, tally: Tally):
    out = wl.OUT / f"validate-cli-seed{seed}"
    inputs = wl.write_inputs(mc, seed, out / "inputs")
    fresh = [wl.run_cli_call(k, inputs, out / "fresh", env, refs, seed)
             for k in range(FRESH_CALLS)]
    setup, calls = [], []
    t0 = time.perf_counter()
    while True:
        # seconds of the loop spent on calls; a set-up import is due at
        # each SETUP_REPEATS-th of the measuring time
        busy = time.perf_counter() - t0 - sum(setup)
        if len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(wl.setup_wall(env))
            continue
        if busy >= seconds and len(calls) >= FRESH_CALLS and len(calls) % PAIRS == 0:
            break
        call = wl.run_inproc_call(mc, len(calls), inputs, out / "call", refs, seed)
        tally.add([call.outcome], call.problems)
        if call.k >= FRESH_CALLS:
            call.artifacts = {}  # checked already; keeping them would grow peak_rss_mb
        calls.append(call)
    for f in fresh:
        tally.add([f.outcome], f.problems)
        if (f.rc, f.artifacts) != (calls[f.k].rc, calls[f.k].artifacts):
            tally.flag(f"validate call {f.k}: a fresh interpreter and this process "
                       "gave different outputs")
    walls = [c.wall for c in calls]
    t = timing(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": t.p50,
        "ops_per_s": len(calls) / sum(walls),
        "cpu_s_per_op": sum(c.cpu for c in calls) / len(calls),
        "peak_rss_mb": peak_rss_mb(),
    }
    named = [
        ("setup_s", metrics["setup_s"], "s"),
        ("validate_p50_s", t.p50, "s"),
        (f"validate_tail_s (p{t.tail_p:g})" if t.tail_p else "validate_tail_s", t.tail, "s"),
        ("calls_per_s", metrics["ops_per_s"], "1/s"),
        ("cpu_s_per_op", metrics["cpu_s_per_op"], "s"),
        ("validate_fresh_s", statistics.median(f.wall for f in fresh), "s"),
        ("fail_frac", tally.fail_frac, "frac"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
    ]
    return metrics, named, f"{len(calls)} validate calls, {t.describe()}, {_setup_note(setup)}"


def check_replicates(mc, workload: str, seed: int, reps, refs, tally: Tally) -> None:
    plan = wl.mc_plan(mc, workload, seed)
    for r in reps:
        if r.error is not None:
            tally.add([FIT_FAILED] * (len(plan.methods) * len(plan.cov_methods)),
                      [f"replicate {r.master_seed}/{r.ri} raised {r.error}"])
            continue
        problems = []
        ref = wl.mc_reference(refs, workload, r.master_seed, r.ri)
        if ref is not None:
            problems = [f"replicate {r.master_seed}/{r.ri}: {p}"
                        for p in wl.compare_record(r.record, ref)]
        tally.add(replicate_outcomes(r.record, plan.methods, plan.cov_methods), problems)


def e2e_mc(mc, workload: str, seed: int, seconds: float, env, refs, tally: Tally):
    setup = [wl.setup_wall(env) for _ in range(SETUP_BEFORE)]
    reps = wl.run_pool(workload, wl.mc_tasks(mc, workload, seed, probes=2), seconds)
    setup += [wl.setup_wall(env) for _ in range(SETUP_REPEATS - SETUP_BEFORE)]
    check_replicates(mc, workload, seed, reps, refs, tally)
    ok_reps = [r for r in reps if r.error is None]
    probes = [wl.canonical(r.record) for r in ok_reps if r.index < 2]
    if len(probes) != 2 or probes[0] != probes[1]:
        tally.flag("the probe replicate evaluated twice gave different records")
    # a serial replay in this process must give the records of the 2-worker
    # run; mc-mmdem relies on its references, recorded serially, because one
    # of its replicates takes seconds
    seeded = [r for r in ok_reps if r.index >= 2]
    replay = [] if workload == "mc-mmdem" else seeded[:1] + seeded[-1:]
    for r in replay:
        rec = mc.simulation.evaluate_replicate(wl.mc_plan(mc, workload, r.master_seed), 0, r.ri)
        if wl.canonical(rec) != wl.canonical(r.record):
            tally.flag(f"replicate {r.master_seed}/{r.ri}: serial record differs from workers=2")
    plan = wl.mc_plan(mc, workload, seed)
    try:
        mc.simulation.aggregate_curve(plan, {0: [r.record for r in seeded]})
    except Exception as err:  # noqa: BLE001 - any failure to aggregate is a check failure
        tally.flag(f"aggregate_curve failed on the records: {err!r}")
    walls = [r.wall for r in ok_reps]
    t = timing(walls) if walls else None
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": t.p50 if t else None,
        "ops_per_s": wl.pool_rate(reps),
        "cpu_s_per_op": sum(r.cpu for r in ok_reps) / max(1, len(ok_reps)),
        "peak_rss_mb": peak_rss_mb(),
    }
    named = [
        ("setup_s", metrics["setup_s"], "s"),
        ("replicates_per_s", metrics["ops_per_s"], "1/s"),
        ("replicate_p50_s", metrics["op_p50_s"], "s"),
        (f"replicate_tail_s (p{t.tail_p:g})" if t and t.tail_p else "replicate_tail_s",
         t.tail if t else None, "s"),
        ("cpu_s_per_op", metrics["cpu_s_per_op"], "s"),
        ("fail_frac", tally.fail_frac, "frac"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
    ]
    return metrics, named, (f"{len(reps)} replicates at workers={wl.WORKERS}, "
                            f"{t.describe() if t else ''}, {_setup_note(setup)}")


# ---------------------------------------------------------------------------
# traced run (serial, in process)
# ---------------------------------------------------------------------------

class Pair(NamedTuple):
    key: object
    plain: object
    traced: object
    wall: float             # untraced
    cpu: float              # untraced
    traced_wall: float


def _paired(tracer: Tracer, mc, op_name: str, op: Callable, keys, budget: float) -> List[Pair]:
    """Run each operation untraced, then traced, until the budget is spent.

    ``op(key, wrap)`` returns (result, wall, cpu) and calls the program
    through ``wrap(fn)``, which is ``fn`` itself untraced and ``fn`` inside
    the operation's span traced.  Pairing the two runs of one operation
    keeps drift out of the tracing overhead; the first pair also warms
    lazy state and is left out of it.
    """
    pairs: List[Pair] = []
    t_start = time.perf_counter()
    for i, key in enumerate(keys):
        if len(pairs) >= 2 and time.perf_counter() - t_start >= budget:
            break
        plain, wall, cpu = op(key, lambda fn: fn)
        instrument(tracer, mc)
        tracer.op = i
        try:
            traced, traced_wall, _ = op(key, lambda fn: tracer.wrap(op_name, fn))
        finally:
            tracer.unpatch()
            tracer.op = None
        pairs.append(Pair(key, plain, traced, wall, cpu, traced_wall))
    return pairs


def _overhead(pairs: List[Pair]) -> float:
    use = pairs[1:] if len(pairs) > 1 else pairs
    return sum(p.traced_wall for p in use) / sum(p.wall for p in use) - 1.0


def traced_validate_cli(mc, seed: int, seconds: float, refs, tally: Tally, tracer: Tracer):
    out = wl.OUT / f"validate-cli-seed{seed}-trace"
    inputs = wl.write_inputs(mc, seed, out / "inputs")

    def op(k, wrap):
        call = wl.run_inproc_call(mc, k, inputs, out / "call", refs, seed,
                                  main=wrap(mc.cli.main))
        return call, call.wall, call.cpu

    pairs = _paired(tracer, mc, "cli.main", op, itertools.count(), 0.8 * seconds)
    for p in pairs:
        problems = list(p.traced.problems)
        if (p.plain.rc, p.plain.artifacts) != (p.traced.rc, p.traced.artifacts):
            problems.append(f"call {p.key}: traced outputs differ from untraced outputs")
        tally.add([p.traced.outcome], problems)
    return pairs, {}


def traced_mc(mc, workload: str, seed: int, seconds: float, refs, tally: Tally, tracer: Tracer):
    def op(key, wrap):
        ms, ri = key
        plan = wl.mc_plan(mc, workload, ms)
        c0 = time.process_time()
        t0 = time.perf_counter()
        rec = wrap(mc.simulation.evaluate_replicate)(plan, 0, ri)
        return rec, time.perf_counter() - t0, time.process_time() - c0

    pairs = _paired(tracer, mc, "simulation.replicate", op,
                    wl.mc_tasks(mc, workload, seed), 0.6 * seconds)
    plan = wl.mc_plan(mc, workload, seed)
    for p in pairs:
        problems = []
        if wl.canonical(p.plain) != wl.canonical(p.traced):
            problems.append(f"replicate {p.key}: traced record differs from untraced record")
        ref = wl.mc_reference(refs, workload, *p.key)
        if ref is not None:
            problems += [f"replicate {p.key}: {x}" for x in wl.compare_record(p.traced, ref)]
        tally.add(replicate_outcomes(p.traced, plan.methods, plan.cov_methods), problems)
    instrument(tracer, mc)
    try:
        for _ in range(3):
            mc.simulation.aggregate_curve(plan, {0: [p.traced for p in pairs[1:]]})
    finally:
        tracer.unpatch()
    serial = statistics.median(p.wall for p in pairs)
    reps = wl.run_pool(workload, wl.mc_tasks(mc, workload, seed), 0.3 * seconds)
    check_replicates(mc, workload, seed, reps, refs, tally)
    rate = wl.pool_rate(reps)
    extra = {
        "simulation.cpu_wall_ratio": sum(p.cpu for p in pairs) / sum(p.wall for p in pairs),
        "simulation.replicates_per_s_workers2": rate,
        "simulation.parallel_eff": rate / (2.0 / serial),
    }
    return pairs, extra


def traced_run(mc, workload: str, seed: int, seconds: float, env, refs, tally: Tally):
    profiles = [wl.import_profile(env) for _ in range(IMPORT_PROFILE_REPEATS)]
    tracer = Tracer()
    if workload == "validate-cli":
        pairs, extra = traced_validate_cli(mc, seed, seconds, refs, tally, tracer)
    else:
        pairs, extra = traced_mc(mc, workload, seed, seconds, refs, tally, tracer)
    metrics = layer_metrics(tracer.spans)
    metrics["cli.import_s"] = statistics.median(p[0] for p in profiles)
    metrics["cli.import_scipy_s"] = statistics.median(p[1] for p in profiles)
    metrics["trace.overhead_frac"] = _overhead(pairs)
    metrics.update(extra)
    wl.OUT.mkdir(parents=True, exist_ok=True)
    trace_path = wl.OUT / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": metrics,
                                      "spans": tracer.dump()}))
    return metrics, f"{len(pairs)} operations traced, {len(tracer.spans)} spans in {trace_path.name}"


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=17.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def run_workload(mc, args, env, refs, tally: Tally):
    """Run one workload; returns (metric values, printed table, note, reported names)."""
    if args.trace:
        all_metrics, note = traced_run(mc, args.workload, args.seed, args.seconds, env, refs, tally)
        print(f"per-layer (all): {json.dumps(all_metrics, sort_keys=True)}")
        table = [(name, all_metrics.get(name), unit) for name, unit in PER_LAYER]
        return all_metrics, table, note, PER_LAYER
    if args.workload == "validate-cli":
        values, table, note = e2e_validate_cli(mc, args.seed, args.seconds, env, refs, tally)
    else:
        values, table, note = e2e_mc(mc, args.workload, args.seed, args.seconds, env, refs, tally)
    return values, table, note, END_TO_END


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mc = wl.load_program()
    except (OSError, ImportError) as err:
        print(f"bench: cannot load the program: {err}", file=sys.stderr)
        return 2
    env = wl.program_env()
    refs = wl.load_refs()
    print(f"env: {json.dumps(wl.environment(), sort_keys=True)}")
    tally = Tally()
    try:
        values, table, note, reported = run_workload(mc, args, env, refs, tally)
    finally:
        wl.stop_resource_tracker()
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {note}")
    for name, value, unit in table:
        print(f"  {name:<34} {_fmt(value):>12} {unit}")
    print(f"  ops attempted={tally.attempted} failed={tally.failed} "
          f"verdicts={tally.verdicts} fail_frac={tally.fail_frac:.6g} "
          f"outcomes={dict(tally.outcomes)}")
    for problem in tally.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in reported},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
