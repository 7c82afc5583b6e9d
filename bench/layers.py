"""Which program names the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<call>``; the layer is the mcjoint module whose
work the call does.  Each name is patched in the namespace of the module
that calls it, so the span sits around the call as that caller makes it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from stats import timing
from tracing import Span, Tracer, children_of, covered, layer_self_times

METHODS = ("dem", "wdem", "mdem", "mmdem", "paba")
COVS = ("classic", "mcd", "sde")
# Layers every workload exercises; their self time per operation is a
# per-layer metric of every run.
SHARED_LAYERS = ("dataset", "estimators", "resampling", "robustcov", "jetest")
OP_SPANS = ("cli.main", "simulation.replicate")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _tag_batch_fit(args, kwargs) -> Dict:
    X = args[0]
    return {"method": _arg(args, kwargs, 2, "method"), "rows": int(X.shape[0]),
            "cols": int(X.shape[1])}


def _ann_batch_fit(args, kwargs, res) -> Dict:
    useful = res.converged & ~res.degenerate
    return {"iters_sum": int(res.iterations.sum()), "bad": int((~useful).sum())}


def _tag_method(args, kwargs) -> Dict:
    return {"method": str(_arg(args, kwargs, 1, "method")).lower()}


def _ann_bca(args, kwargs, res) -> Dict:
    return {"fallback": bool(res.fallback)}


def _ann_cov(args, kwargs, res) -> Dict:
    return {"singular": bool(res.singular)}


def instrument(tracer: Tracer, mc) -> None:
    """Patch the names the calling modules look up (``mc`` is the package)."""
    cli, jetest, simulation = mc.cli, mc.jetest, mc.simulation
    resampling, robustcov = mc.resampling, mc.robustcov
    p = tracer.patch
    p(cli, "read_csv", "dataset.read_csv")
    p(cli, "validate", "jetest.validate")
    p(cli, "report_to_json", "jetest.report_json")
    p(cli, "payload_from_report", "svgplot.payload")
    p(cli, "render_box_ellipse", "svgplot.render")
    p(cli, "_atomic_write", "cli.write")
    p(jetest, "bootstrap", "resampling.bootstrap", _tag_method)
    p(jetest, "bca_ci", "resampling.bca", annotate=_ann_bca)
    p(jetest, "je_test_from_model", "jetest.je")
    p(jetest, "ellipse_from", "jetest.ellipse")
    p(simulation, "generate", "dataset.generate")
    p(simulation, "bootstrap", "resampling.bootstrap", _tag_method)
    p(simulation, "bca_ci", "resampling.bca", annotate=_ann_bca)
    p(simulation, "je_test", "jetest.je_test")
    p(simulation, "aggregate_curve", "simulation.aggregate")
    p(resampling, "fit", "estimators.fit", _tag_method)
    p(resampling, "batch_fit", "estimators.batch_fit", _tag_batch_fit, _ann_batch_fit)
    p(robustcov, "estimate_cov", "robustcov.cov", _tag_method, _ann_cov)
    p(robustcov, "fast_mcd", "robustcov.fast_mcd")
    p(robustcov, "s_cov", "robustcov.s_cov")
    p(robustcov, "rocke_cov", "robustcov.rocke_cov")


def _median(xs: Sequence[float]) -> Optional[float]:
    return statistics.median(xs) if xs else None


def _frac(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _bootstrap_batches(boot: Span, kids: Sequence[Span]):
    """Split a bootstrap's batch_fit children into main, redraws, jackknife.

    ``bootstrap`` fits the B resamples first, then redraw batches, and the
    n leave-one-out rows (shape (n, n-1)) last, when it did not raise.
    """
    fits = [k for k in kids if k.name == "estimators.batch_fit"]
    if not fits:
        return None, [], None
    main, rest = fits[0], fits[1:]
    jack = None
    if boot.error is None and rest and rest[-1].info["rows"] == rest[-1].info["cols"] + 1:
        jack = rest.pop()
    return main, rest, jack


def layer_metrics(spans: Sequence[Span]) -> Dict[str, Optional[float]]:
    """Every per-layer metric the spans support; None where a layer is idle."""
    kids = children_of(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    ops = [s for s in spans if s.name in OP_SPANS]
    n_ops = len(ops)
    m: Dict[str, Optional[float]] = {}

    def durations(name, pred=lambda s: True):
        return [s.duration for s in by_name[name] if pred(s)]

    m["cli.validate_inproc_s"] = _median(durations("cli.main"))
    m["dataset.read_csv_s"] = _median(durations("dataset.read_csv"))
    m["dataset.generate_s"] = _median(durations("dataset.generate"))

    # estimators and resampling, per method
    rows = defaultdict(int)
    iters = defaultdict(int)
    bad = defaultdict(int)
    for s in by_name["estimators.batch_fit"]:
        if s.error is None:
            meth = s.info["method"]
            rows[meth] += s.info["rows"]
            iters[meth] += s.info["iters_sum"]
            bad[meth] += s.info["bad"]
    main_s = defaultdict(list)
    jack_s = defaultdict(list)
    redraws = defaultdict(list)
    for boot in by_name["resampling.bootstrap"]:
        meth = boot.info["method"]
        main, extra, jack = _bootstrap_batches(boot, kids.get(boot.sid, ()))
        if main is not None:
            main_s[meth].append(main.duration)
        if jack is not None:
            jack_s[meth].append(jack.duration)
        redraws[meth].append(sum(k.info["rows"] for k in extra))
    for meth in METHODS:
        m[f"estimators.fit_s.{meth}"] = _median(
            durations("estimators.fit", lambda s, meth=meth: s.info.get("method") == meth))
        m[f"estimators.batch_fit_s.{meth}"] = _median(main_s[meth])
        m[f"estimators.iters_mean.{meth}"] = _frac(iters[meth], rows[meth])
        m[f"estimators.degenerate_frac.{meth}"] = _frac(bad[meth], rows[meth])
        m[f"resampling.bootstrap_s.{meth}"] = _median(durations(
            "resampling.bootstrap", lambda s, meth=meth: s.info.get("method") == meth))
        m[f"resampling.jackknife_s.{meth}"] = _median(jack_s[meth])
        m[f"resampling.redraws.{meth}"] = (statistics.fmean(redraws[meth])
                                           if redraws[meth] else None)
    m["estimators.iters_mean"] = _frac(sum(iters.values()), sum(rows.values()))
    m["estimators.degenerate_frac"] = _frac(sum(bad.values()), sum(rows.values()))
    m["resampling.redraws_per_op"] = _frac(sum(sum(v) for v in redraws.values()), n_ops)
    bca = by_name["resampling.bca"]
    m["resampling.bca_s"] = _median([s.duration for s in bca])
    m["resampling.bca_fallback_frac"] = _frac(
        sum(bool(s.info.get("fallback")) for s in bca), len(bca))

    # robust covariance
    covs = by_name["robustcov.cov"]
    for c in COVS:
        m[f"robustcov.cov_s.{c}"] = _median(
            durations("robustcov.cov", lambda s, c=c: s.info["method"] == c))
    for c in ("mcd", "sde"):
        sel = [s for s in covs if s.info["method"] == c]
        singular = [s for s in sel if s.info.get("singular")
                    or s.error == "SingularCovarianceError"]
        m[f"robustcov.singular_frac.{c}"] = _frac(len(singular), len(sel))
    for fn in ("fast_mcd", "s_cov", "rocke_cov"):
        m[f"robustcov.{fn}_calls"] = _frac(len(by_name[f"robustcov.{fn}"]), n_ops)
    m["robustcov.s_cov_s"] = _median(durations("robustcov.s_cov"))

    # joint test, report, plot
    m["jetest.je_s"] = _median(durations("jetest.je"))
    m["jetest.ellipse_s"] = _median(durations("jetest.ellipse"))
    m["jetest.report_json_s"] = _median(durations("jetest.report_json"))
    je_fail = sum(1 for s in covs if s.error) + sum(1 for s in by_name["jetest.je"] if s.error)
    m["jetest.je_fail_frac"] = _frac(je_fail, len(covs))
    m["svgplot.render_s"] = _median(durations("svgplot.render"))

    # simulation
    reps = durations("simulation.replicate")
    if reps:
        t = timing(reps)
        m["simulation.replicate_s"] = t.p50
        m["simulation.replicate_tail_s"] = t.tail
        m["simulation.replicate_tail_pct"] = t.tail_p
    m["simulation.aggregate_s"] = _median(durations("simulation.aggregate"))

    # self time per layer and per operation; how much of an operation the
    # layer spans under it account for
    selfs = layer_self_times(spans)
    for layer, total in sorted(selfs.items()):
        m[f"{layer}.self_s_per_op"] = _frac(total, n_ops) if n_ops else None
    for layer in SHARED_LAYERS:
        m.setdefault(f"{layer}.self_s_per_op", None)
    m["trace.op_s"] = _median([s.duration for s in ops])
    m["trace.coverage"] = _median([covered(s, kids.get(s.sid, ())) / s.duration for s in ops])
    m["trace.coverage_min"] = min((covered(s, kids.get(s.sid, ())) / s.duration for s in ops),
                                  default=None)
    return m
