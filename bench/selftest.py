"""Tests of the benchmark's own logic (not of mcjoint).

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default test
run, which collects only ``test_*.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from stats import (  # noqa: E402
    CLI_EXIT_1, FIT_FAILED, JE_NONE, OK, Tally, nearest_rank, replicate_outcomes,
    tail_percentile, timing,
)
from tracing import Span, Tracer, layer_self_times, self_time, union_length  # noqa: E402


# --- tail percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (0, None), (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_rung_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_timing_reports_tail_at_nearest_rank():
    values = [float(i) for i in range(1, 41)]  # 40 samples -> p75
    t = timing(values)
    assert (t.n, t.tail_p, t.tail) == (40, 75.0, 30.0)
    assert sum(v > t.tail for v in values) == 10
    assert t.p50 == 20.5


def test_timing_without_enough_samples_has_no_tail():
    t = timing([1.0, 2.0, 3.0])
    assert t.tail is None and t.tail_p is None and t.p50 == 2.0
    assert "n/a" in t.describe()


def test_nearest_rank_bounds():
    assert nearest_rank([3.0, 1.0, 2.0], 0.0) == 1.0
    assert nearest_rank([3.0, 1.0, 2.0], 100.0) == 3.0


# --- failure accounting -------------------------------------------------------

def _record(p_classic, p_mcd, ok=True):
    return {"ok": ok, "int_ok": True, "slope_ok": True, "atom": 0.01,
            "je": {} if not ok else {"classic": p_classic, "mcd": p_mcd}}


def test_fail_frac_counts_none_pvalues_and_failed_fits():
    rec = {"dem": _record(0.3, None), "paba": _record(None, None, ok=False)}
    outcomes = replicate_outcomes(rec, ("dem", "paba"), ("classic", "mcd"))
    assert outcomes == [OK, JE_NONE, FIT_FAILED, FIT_FAILED]
    tally = Tally()
    tally.add(outcomes)
    assert (tally.attempted, tally.failed, tally.verdicts, tally.lost) == (1, 0, 4, 3)
    assert tally.fail_frac == 0.75


def test_reference_mismatch_fails_the_operation_and_all_its_verdicts():
    tally = Tally()
    tally.add([OK, OK])
    tally.add([OK, OK], problems=["dem.je.mcd=0.2, reference 0.3"])
    assert (tally.attempted, tally.failed, tally.verdicts, tally.lost) == (2, 1, 4, 2)
    assert tally.fail_frac == 0.5
    assert tally.problems == ["dem.je.mcd=0.2, reference 0.3"]


def test_cli_exit_1_is_a_lost_verdict_not_a_failed_check():
    tally = Tally()
    outcome, problems, summary = wl.check_cli_call(
        1, "mcjoint: validation failed: stage je-test: scatter is singular\n", {})
    tally.add([outcome], problems)
    assert outcome == CLI_EXIT_1 and problems == [] and summary["exit"] == 1
    assert (tally.failed, tally.fail_frac) == (0, 1.0)


def test_cli_traceback_and_exit_2_are_failed_checks():
    _, problems, _ = wl.check_cli_call(1, "Traceback (most recent call last):\n  x\nValueError\n", {})
    assert problems
    _, problems, _ = wl.check_cli_call(2, "mcjoint: bad input\n", {})
    assert problems


def _artifacts(verdict="validated", rows=wl.CLI_B, svg=b"<svg xmlns='http://www.w3.org/2000/svg'/>"):
    report = {"verdict_je": verdict, "verdict_ci": "validated", "je_pvalue": 0.5,
              "mahalanobis_sq": 1.2, "fit": {"intercept": 0.1, "slope": 1.0}}
    ens = "intercept,slope\n" + "0.5,1.25\n" * rows
    return {"report.json": json.dumps(report).encode(), "plot.svg": svg,
            "ensemble.csv": ens.encode()}


def test_cli_outputs_that_agree_pass_and_mismatches_fail():
    outcome, problems, summary = wl.check_cli_call(0, "", _artifacts())
    assert (outcome, problems) == (OK, [])
    assert summary["ensemble_sum"] == [0.5 * wl.CLI_B, 1.25 * wl.CLI_B]
    assert summary["ensemble_scale"] == [1.0 * wl.CLI_B, 1.25 * wl.CLI_B]
    assert wl.compare_cli(summary, dict(summary)) == []
    moved = dict(summary, je_pvalue=0.5 * (1 + 1e-4))
    assert wl.compare_cli(moved, summary) and not wl.compare_cli(
        dict(summary, je_pvalue=0.5 * (1 + 1e-7)), summary)
    assert wl.check_cli_call(3, "", _artifacts())[1]               # exit 3 but validated
    assert wl.check_cli_call(0, "", _artifacts(rows=5))[1]         # short ensemble
    assert wl.check_cli_call(0, "", _artifacts(svg=b"<svg"))[1]    # not XML
    assert wl.check_cli_call(0, "", {"plot.svg": b""})[1]          # no report


def _varied_artifacts():
    arts = _artifacts()
    rows = [(0.01 * (k % 7) - 0.03, 1.0 + 0.001 * k) for k in range(wl.CLI_B)]
    arts["ensemble.csv"] = ("intercept,slope\n"
                            + "".join(f"{a!r},{b!r}\n" for a, b in rows)).encode()
    return arts, rows


def _with_rows(arts, rows):
    return dict(arts, **{"ensemble.csv": ("intercept,slope\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in rows)).encode()})


def test_rows_within_1e10_pass_and_rows_within_1e8_fail():
    arts, rows = _varied_artifacts()
    ref = wl.check_cli_call(0, "", arts)[2]
    assert len(ref["ensemble_head"]) == wl.ROW_SAMPLE
    inside = [(a * (1 + 0.5 * wl.ROW_TOL), b * (1 - 0.5 * wl.ROW_TOL)) for a, b in rows]
    assert wl.compare_cli(wl.check_cli_call(0, "", _with_rows(arts, inside))[2], ref) == []
    outside = [(a * (1 + 1e-8), b * (1 + 1e-8)) for a, b in rows]
    problems = wl.compare_cli(wl.check_cli_call(0, "", _with_rows(arts, outside))[2], ref)
    assert any(p.startswith("ensemble_head") for p in problems)
    assert any(p.startswith("ensemble_sum") for p in problems)
    # rows past the stored head are still covered through the sum
    tail_only = rows[:wl.ROW_SAMPLE] + [(a, b * (1 + 1e-8)) for a, b in rows[wl.ROW_SAMPLE:]]
    problems = wl.compare_cli(wl.check_cli_call(0, "", _with_rows(arts, tail_only))[2], ref)
    assert [p.split()[0] for p in problems] == ["ensemble_scale", "ensemble_sum"]


def test_pvalue_tolerance_passes_rounding_and_fails_a_1e8_row_change():
    mc = wl.load_program()
    sample = mc.generate(mc.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, seed=(0, 1)))
    ens = mc.resampling.bootstrap(sample, "dem", mc.estimators.DemingConfig(), B=999, seed=(0, 1))

    def record(pairs):
        e = replace(ens, pairs=pairs)
        je = {c: mc.jetest.je_test(e, c, seed=3).p_value for c in ("classic", "mcd", "sde")}
        return {"dem": {"ok": True, "int_ok": True, "slope_ok": True, "atom": 0.001, "je": je}}

    ref = record(ens.pairs)
    assert wl.compare_record(record(ens.pairs * (1 + 1e-13)), ref) == []
    assert len(wl.compare_record(record(ens.pairs * (1 + 1e-8)), ref)) == 3


def test_record_comparison_tolerance_and_exact_fields():
    ref = {"dem": _record(0.3, 1e-40)}
    assert wl.compare_record(json.loads(json.dumps(ref)), ref) == []
    near = {"dem": _record(0.3 * (1 + 1e-9), 1e-40)}
    assert wl.compare_record(near, ref) == []
    far = {"dem": _record(0.3 * (1 + 1e-6), 1e-40)}
    assert wl.compare_record(far, ref)
    gone = {"dem": _record(0.3, None)}
    assert wl.compare_record(gone, ref)
    flipped = {"dem": dict(_record(0.3, 1e-40), int_ok=False)}
    assert wl.compare_record(flipped, ref)


# --- spans and self time ------------------------------------------------------

def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert union_length([(0, 4), (1, 2)]) == 4.0


def test_self_time_subtracts_children_once_and_clips_them():
    parent = _span(0, "resampling.bootstrap", 0.0, 10.0)
    kids = [_span(1, "estimators.batch_fit", 1.0, 4.0, 0),
            _span(2, "estimators.batch_fit", 3.0, 5.0, 0),    # overlaps the first
            _span(3, "estimators.batch_fit", 9.0, 12.0, 0)]   # runs past the parent
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_self_times_add_up_to_the_root():
    spans = [_span(0, "simulation.replicate", 0.0, 10.0),
             _span(1, "resampling.bootstrap", 1.0, 7.0, 0),
             _span(2, "estimators.batch_fit", 2.0, 6.0, 1),
             _span(3, "robustcov.cov", 7.0, 9.0, 0),
             _span(4, "robustcov.fast_mcd", 7.5, 8.5, 3)]
    selfs = layer_self_times(spans)
    assert selfs == pytest.approx({"simulation": 2.0, "resampling": 2.0,
                                   "estimators": 4.0, "robustcov": 2.0})
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


# --- the wrapper ----------------------------------------------------------------

class _Boom(Exception):
    pass


def test_wrapper_returns_the_same_object_and_records_a_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    payload = {"x": [1, 2]}
    wrapped = tracer.wrap("estimators.fit", lambda a, b=0: payload,
                          tag=lambda args, kw: {"a": args[0]},
                          annotate=lambda args, kw, res: {"n": len(res)})
    tracer.op = 7
    assert wrapped(5, b=1) is payload
    (s,) = tracer.spans
    assert (s.name, s.parent, s.op, s.error, s.info) == ("estimators.fit", None, 7, None,
                                                        {"a": 5, "n": 1})
    assert s.end > s.start


def test_wrapper_reraises_the_same_exception_and_keeps_nesting():
    tracer = Tracer()
    err = _Boom("no")

    def inner():
        raise err

    winner = tracer.wrap("robustcov.fast_mcd", inner)
    outer = tracer.wrap("robustcov.cov", lambda: winner())
    with pytest.raises(_Boom) as info:
        outer()
    assert info.value is err
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("robustcov.cov", None, "_Boom"), ("robustcov.fast_mcd", 0, "_Boom")]
    assert tracer._stack == []
    assert tracer.wrap("x.y", lambda: 3)() == 3 and tracer.spans[-1].parent is None


def test_patch_replaces_and_unpatch_restores_module_attributes():
    import types

    mod = types.SimpleNamespace(f=lambda v: v * 2)
    original = mod.f
    tracer = Tracer()
    tracer.patch(mod, "f", "dataset.f")
    assert mod.f is not original and mod.f(4) == 8
    tracer.unpatch()
    assert mod.f is original and len(tracer.spans) == 1


# --- importtime parsing, pool rate, declared metrics ------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:        50 |         50 |       scipy._lib
import time:       200 |        250 |     scipy
import time:        30 |         30 |         scipy.special._ufuncs
import time:       400 |        430 |       scipy.special
import time:       300 |       1000 |     scipy.stats
import time:        10 |       1300 |   mcjoint.jetest
import time:         5 |       1500 | mcjoint
"""


def test_parse_importtime_sums_outermost_scipy_imports():
    total, scipy = wl.parse_importtime(IMPORTTIME)
    assert total == pytest.approx(1500e-6)
    assert scipy == pytest.approx((250 + 1000) * 1e-6)


def test_pool_rate_sums_per_worker_rates():
    reps = [wl.Replicate(i, 0, i, pid, {}, 1.0, 1.0, t)
            for i, (pid, t) in enumerate([(1, 1.0), (2, 1.5), (1, 2.0), (2, 3.0), (1, 4.0)])]
    reps.append(wl.Replicate(5, 0, 9, -1, None, float("nan"), 0.0, 5.0, error="boom"))
    assert wl.pool_rate(reps) == pytest.approx(3 / 4.0 + 2 / 3.0)


def test_cli_configs_cover_every_triple_in_36_calls():
    configs = {wl.cli_config(k) for k in range(36)}
    assert len(configs) == 36
    for start in (0, 5, 12):
        pairs = {wl.cli_config(k)[1:] for k in range(start, start + 12)}
        assert len(pairs) == 12


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
