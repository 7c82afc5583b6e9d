"""Command-line front end: validation runs, simulation campaigns, power fits.

Exit codes are verdict-coded so shell pipelines can branch on them:
0 validated by the joint test, 3 rejected by the joint test, 2 usage or
input error, 1 runtime failure.  All commands honor --seed and read no
entropy from the clock or the environment.  Without --workers, simulate
runs MCJOINT_THREADS worker processes (an integer; anything else is a
usage error), or one per CPU; the pool never exceeds the number of tasks.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import GeneratorSpec, read_csv
from .errors import McjointError, ValidationError
from .estimators import METHODS, DemingConfig
from .jetest import VALIDATED, report_to_json, validate
from .powerfit import fit_rejection_curve, invert_for_power, type1_at_null
from .resampling import MIN_REPLICATES
from .robustcov import COV_METHODS
from .simulation import (
    SimulationPlan,
    Type1Table,
    _atomic_write,
    aggregate_grid_point,
    default_workers,
    plan_to_dict,
    read_curve_csv,
    run_plan,
    type1_study,
    write_curve_csv,
    write_manifest,
)
from .svgplot import payload_from_report, render_box_ellipse

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcjoint",
        description="Method comparison with joint-ellipse validation.",
        epilog="Exit codes: 0 validated (JE), 3 rejected (JE), 2 usage error, 1 failure.",
    )
    ap.add_argument("--version", action="version", version=f"mcjoint {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate one CSV dataset")
    v.add_argument("--input", required=True, help="two-column CSV (reference, test)")
    v.add_argument("--method", default="paba", choices=METHODS)
    v.add_argument("--cov", default="mcd", choices=COV_METHODS)
    v.add_argument("--b", type=int, default=2000, help="bootstrap replicates")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--je-alpha", type=float, default=0.01)
    v.add_argument("--ci-alpha", type=float, default=0.05)
    v.add_argument("--lam", type=float, default=1.0, help="error variance ratio")
    v.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("simulate", help="run a Monte Carlo plan file")
    s.add_argument("--plan", required=True, help="key=value plan file")
    s.add_argument("--out", required=True)
    s.add_argument("--scale", default="desk", choices=("desk", "paper"),
                   help="paper scale multiplies replicate counts")
    s.add_argument("--workers", type=int, default=None)

    f = sub.add_parser("fit-power", help="fit curves and tabulate power levels")
    f.add_argument("--curves", required=True, help="curve CSV from simulate")
    f.add_argument("--out", required=True)
    f.add_argument("--target", type=float, default=0.2, help="target rejection (power 80%%)")
    f.add_argument("--side", default="above", choices=("above", "below"))
    f.add_argument("--null-value", type=float, default=1.0)
    return ap


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_config(args) -> DemingConfig:
    """Check the numeric flags of ``validate``; raises ValidationError."""
    for flag, alpha in (("--je-alpha", args.je_alpha), ("--ci-alpha", args.ci_alpha)):
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"{flag} must be in (0, 1), got {alpha}")
    if args.b < MIN_REPLICATES:
        raise ValidationError(f"--b must be >= {MIN_REPLICATES}, got {args.b}")
    return DemingConfig(lam=args.lam)


def cmd_validate(args) -> int:
    path = Path(args.input)
    if not path.exists():
        print(f"mcjoint: input file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _validate_config(args)
        sample = read_csv(path)
    except ValidationError as err:
        print(f"mcjoint: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, ensemble = validate(
            sample, args.method, cfg,
            cov_method=args.cov, B=args.b, seed=args.seed,
            je_alpha=args.je_alpha, ci_alpha=args.ci_alpha,
        )
    except McjointError as err:
        print(f"mcjoint: validation failed: {err}", file=sys.stderr)
        return EXIT_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "report.json", report_to_json(report) + "\n")
    _atomic_write(out / "plot.svg", render_box_ellipse(payload_from_report(report, ensemble)))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["intercept", "slope"])
    for b0, b1 in ensemble.pairs:
        w.writerow([repr(float(b0)), repr(float(b1))])
    _atomic_write(out / "ensemble.csv", buf.getvalue())
    print(f"{report.verdict_je} (JE p={report.je_pvalue:.4g}, CI verdict {report.verdict_ci})")
    return EXIT_OK if report.verdict_je == VALIDATED else EXIT_REJECTED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_GEN_KEYS = {"xmin": float, "xmax": float, "n": int, "slope": float, "intercept": float,
             "sigmax": float, "sigmay": float, "error_model": str,
             "precision_x": int, "precision_y": int, "detmin": float}
_RUN_KEYS = {"kind": str, "methods": str, "cov_methods": str, "grid_param": str,
             "grid": str, "replicates": int, "b": int, "ci_alpha": float,
             "je_alphas": str, "master_seed": int, "paper_factor": int}


def parse_plan(path: Path):
    """Parse the flat key=value plan format; collect every bad key."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValidationError(f"plan file not found: {path}")
    problems = []
    gen_kw = {}
    run_kw = {}
    for section, keys, sink in (("generator", _GEN_KEYS, gen_kw), ("run", _RUN_KEYS, run_kw)):
        if not cp.has_section(section):
            problems.append(f"missing [{section}] section")
            continue
        for key, raw in cp.items(section):
            if key not in keys:
                problems.append(f"[{section}] unknown key {key!r}")
                continue
            conv = keys[key]
            if raw.strip() == "":
                continue
            try:
                sink[key] = conv(raw) if conv is not str else raw.strip()
            except ValueError:
                problems.append(f"[{section}] {key}={raw!r} is not a {conv.__name__}")
    if run_kw.get("kind", "power") not in _PLAN_KINDS:
        problems.append(f"[run] kind={run_kw['kind']!r} is not one of {', '.join(_PLAN_KINDS)}")
    if problems:
        raise ValidationError("malformed plan: " + "; ".join(problems))

    kind = run_kw.pop("kind", "power")
    factor = run_kw.pop("paper_factor", 10)

    def split(value, conv):
        return tuple(conv(v.strip()) for v in value.split(",") if v.strip())

    try:
        generator = GeneratorSpec(**gen_kw)
        plan = SimulationPlan(
            generator=generator,
            methods=split(run_kw.get("methods", "dem"), str),
            cov_methods=split(run_kw.get("cov_methods", "mcd"), str),
            grid_param=run_kw.get("grid_param", "slope"),
            grid=split(run_kw.get("grid", "1.0"), float) or (1.0,),
            replicates=run_kw.get("replicates", 200),
            B=run_kw.get("b", 999),
            ci_alpha=run_kw.get("ci_alpha", 0.05),
            je_alphas=split(run_kw.get("je_alphas", "0.05,0.01"), float),
            master_seed=run_kw.get("master_seed", 0),
        )
    except (ValidationError, TypeError) as err:
        raise ValidationError(f"malformed plan: {err}") from err
    return kind, plan, factor


def _write_type1_outputs(out: Path, table: Type1Table):
    plan = table.plan
    rows = [["method", "column", "acceptance", "n_used"]]
    for method in plan.methods:
        for kind, label in (("ci_int", f"int.CI{plan.ci_alpha:.0%}"),
                            ("ci_slope", f"sl.CI{plan.ci_alpha:.0%}"),
                            ("ci_total", f"tot.CI{plan.ci_alpha:.0%}")):
            _, rate, _ = table.curve.series(method, kind, "", plan.ci_alpha)
            n_used = [p.n_used for p in table.curve.points
                      if p.method == method and p.kind == kind][0]
            rows.append([method, label, repr(float(1.0 - rate[0])), n_used])
        for cov in plan.cov_methods:
            for alpha in plan.je_alphas:
                _, rate, _ = table.curve.series(method, "je", cov, alpha)
                n_used = [p.n_used for p in table.curve.points
                          if p.method == method and p.kind == "je"
                          and p.cov == cov and p.alpha == alpha][0]
                rows.append([method, f"JE.{cov.upper()}{alpha:.0%}",
                             repr(float(1.0 - rate[0])), n_used])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _atomic_write(out / "type1_table.csv", buf.getvalue())

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["method", "cov", "nominal_alpha", "empirical_rejection"])
    for (method, cov), _ in table.je_pvalues.items():
        nom, emp = table.pp_curve(method, cov)
        for a, r in zip(nom, emp):
            w.writerow([method, cov, repr(float(a)), repr(float(r))])
    _atomic_write(out / "pp_data.csv", buf.getvalue())


def _chunk_progress(done, total):
    print(f"  chunk {done}/{total}", file=sys.stderr)


def _simulate_type1(plan: SimulationPlan, workers: int, out: Path, completed, points):
    """Acceptance table at the null; always run whole."""
    table = type1_study(plan, workers=workers, progress=_chunk_progress)
    _write_type1_outputs(out, table)
    return table.curve.points, list(range(len(plan.grid)))


def _simulate_power(plan: SimulationPlan, workers: int, out: Path, completed, points):
    """Rejection curve, saved after every grid point so a rerun resumes."""
    completed, points = list(completed), list(points)
    for gi in range(len(plan.grid)):
        if gi in completed:
            continue
        records = run_plan(plan, workers=workers, grid_subset=[gi])
        points.extend(aggregate_grid_point(plan, gi, records[gi]))
        completed.append(gi)
        write_curve_csv(points, out / "curve.csv")
        write_manifest(out / "manifest.json", plan, completed, "power")
        print(f"grid point {len(completed)}/{len(plan.grid)} done", file=sys.stderr)
    return points, completed


# plan kind -> runner(plan, workers, out, completed grid indices, their points)
_PLAN_KINDS = {"type1": _simulate_type1, "power": _simulate_power}


def cmd_simulate(args) -> int:
    try:
        kind, plan, factor = parse_plan(Path(args.plan))
        workers = args.workers if args.workers is not None else default_workers()
    except ValidationError as err:
        print(f"mcjoint: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.scale == "paper":
        plan = replace(plan, replicates=plan.replicates * factor)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    curve_path = out / "curve.csv"

    completed = []
    prior_points = []
    if manifest_path.exists() and curve_path.exists():
        saved = json.loads(manifest_path.read_text())
        if saved.get("plan") == plan_to_dict(plan) and saved.get("kind") == kind:
            completed = list(saved.get("completed", []))
            done_values = {plan.grid[gi] for gi in completed}
            prior_points = [p for p in read_curve_csv(curve_path)
                            if p.grid_value in done_values]
            if completed:
                print(f"resuming: {len(completed)} grid points already done", file=sys.stderr)

    try:
        points, completed = _PLAN_KINDS[kind](plan, workers, out, completed, prior_points)
    except McjointError as err:
        print(f"mcjoint: simulation failed: {err}", file=sys.stderr)
        return EXIT_ERROR
    write_curve_csv(points, curve_path)
    write_manifest(manifest_path, plan, completed, kind)
    print(f"wrote {curve_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-power
# ---------------------------------------------------------------------------

def cmd_fit_power(args) -> int:
    path = Path(args.curves)
    if not path.exists():
        print(f"mcjoint: curve file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    points = read_curve_csv(path)
    groups = {}
    for p in points:
        if p.kind in ("ci_total", "je") and np.isfinite(p.rate):
            groups.setdefault((p.method, p.kind, p.cov, p.alpha), []).append(p)
    fitable = {k: v for k, v in groups.items() if len(v) >= 8}
    if not fitable:
        sizes = {k: len(v) for k, v in groups.items()}
        print(f"mcjoint: no series has the minimum 8 grid points (got {sizes})",
              file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [["method", "kind", "cov", "alpha",
             "p80_lci", "p80_est", "p80_uci", "t1_lci", "t1_est", "t1_uci", "note"]]
    for (method, kind, cov, alpha), pts in sorted(fitable.items()):
        pts.sort(key=lambda p: p.grid_value)
        grid = np.array([p.grid_value for p in pts])
        rate = np.array([p.rate for p in pts])
        note = ""
        try:
            fitp = fit_rejection_curve(grid, rate)
            level = invert_for_power(fitp, target_rejection=args.target, side=args.side)
            t1_est, t1_lo, t1_hi = type1_at_null(fitp, null_value=args.null_value)
            row = [method, kind, cov, repr(alpha),
                   repr(level.lci), repr(level.estimate), repr(level.uci),
                   repr(t1_lo), repr(t1_est), repr(t1_hi), note]
        except McjointError as err:
            row = [method, kind, cov, repr(alpha)] + [""] * 6 + [str(err)]
        rows.append(row)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _atomic_write(out / "power_table.csv", buf.getvalue())
    print(f"wrote {out / 'power_table.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "fit-power":
        return cmd_fit_power(args)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
