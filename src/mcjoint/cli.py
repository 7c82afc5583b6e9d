"""Command-line front end: validation runs, simulation campaigns, power fits.

Exit codes are verdict-coded so shell pipelines can branch on them:
0 validated by the joint test, 3 rejected by the joint test, 2 usage or
input error, 1 runtime failure.  All commands honor --seed and read no
entropy from the clock or the environment.  Without --workers, simulate
runs MCJOINT_THREADS worker processes (an integer; anything else is a
usage error), or one per CPU; the pool never exceeds the number of tasks.

simulate exits 2, before it creates --out, when the plan file is missing,
malformed or out of range, or fails its kind's check.  Only power plans
resume, from the curve.csv and manifest.json saved after each grid point;
unreadable ones exit 2 and are left as they are.  Type-I plans run whole.
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
    check_power_plan,
    check_type1_plan,
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
    v.set_defaults(run=cmd_validate)

    s = sub.add_parser("simulate", help="run a Monte Carlo plan file")
    s.add_argument("--plan", required=True, help="key=value plan file")
    s.add_argument("--out", required=True)
    s.add_argument("--scale", default="desk", choices=("desk", "paper"),
                   help="paper scale multiplies replicate counts")
    s.add_argument("--workers", type=int, default=None)
    s.set_defaults(run=cmd_simulate)

    f = sub.add_parser("fit-power", help="fit curves and tabulate power levels")
    f.add_argument("--curves", required=True, help="curve CSV from simulate")
    f.add_argument("--out", required=True)
    f.add_argument("--target", type=float, default=0.2, help="target rejection (power 80%%)")
    f.add_argument("--side", default="above", choices=("above", "below"))
    f.add_argument("--null-value", type=float, default=1.0)
    f.set_defaults(run=cmd_fit_power)
    return ap


def _write_csv(path: Path, rows) -> None:
    """Write ``rows`` through this module's ``_atomic_write``, which bench/layers.py times."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _atomic_write(path, buf.getvalue())


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
    _write_csv(out / "ensemble.csv", [["intercept", "slope"]]
               + [[repr(float(b0)), repr(float(b1))] for b0, b1 in ensemble.pairs])
    print(f"{report.verdict_je} (JE p={report.je_pvalue:.4g}, CI verdict {report.verdict_ci})")
    return EXIT_OK if report.verdict_je == VALIDATED else EXIT_REJECTED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _listed(conv):
    """Parser of a comma-separated list of ``conv`` values."""
    def parse(raw: str):
        return tuple(conv(v.strip()) for v in raw.split(",") if v.strip())

    parse.__name__ = f"list of {conv.__name__}"
    return parse


# plan-file key -> parser; each key names a GeneratorSpec or SimulationPlan
# field (b names B), apart from [run] kind and paper_factor
_GEN_KEYS = {"xmin": float, "xmax": float, "n": int, "slope": float, "intercept": float,
             "sigmax": float, "sigmay": float, "error_model": str,
             "precision_x": int, "precision_y": int, "detmin": float}
_RUN_KEYS = {"kind": str, "methods": _listed(str), "cov_methods": _listed(str),
             "grid_param": str, "grid": _listed(float), "replicates": int, "b": int,
             "ci_alpha": float, "je_alphas": _listed(float), "master_seed": int,
             "paper_factor": int}


def parse_plan(path: Path):
    """(kind, plan, paper factor) of a key=value plan file; collect every bad key.

    Keys left out or blank take the dataclasses' defaults.
    """
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValidationError(f"plan file not found: {path}")
    problems, gen_kw, run_kw = [], {}, {}
    for section, keys, sink in (("generator", _GEN_KEYS, gen_kw), ("run", _RUN_KEYS, run_kw)):
        if not cp.has_section(section):
            problems.append(f"missing [{section}] section")
            continue
        for key, raw in cp.items(section):
            if key not in keys:
                problems.append(f"[{section}] unknown key {key!r}")
            elif raw.strip():
                try:
                    sink[key] = keys[key](raw.strip())
                except ValueError:
                    problems.append(f"[{section}] {key}={raw!r} is not a {keys[key].__name__}")
    kind = run_kw.pop("kind", "power")
    factor = run_kw.pop("paper_factor", 10)
    if kind not in _PLAN_KINDS:
        problems.append(f"[run] kind={kind!r} is not one of {', '.join(_PLAN_KINDS)}")
    if factor < 1:
        problems.append(f"[run] paper_factor={factor} must be >= 1")
    if problems:
        raise ValidationError("malformed plan: " + "; ".join(problems))

    if "b" in run_kw:
        run_kw["B"] = run_kw.pop("b")
    check, _ = _PLAN_KINDS[kind]
    try:
        plan = SimulationPlan(generator=GeneratorSpec(**gen_kw), **run_kw)
        check(plan)
    except (ValidationError, TypeError) as err:
        raise ValidationError(f"malformed plan: {err}") from err
    return kind, plan, factor


# type1_table.csv column label of each verdict kind
_TYPE1_COLUMNS = {"ci_int": "int.CI{alpha:.0%}", "ci_slope": "sl.CI{alpha:.0%}",
                  "ci_total": "tot.CI{alpha:.0%}", "je": "JE.{cov}{alpha:.0%}"}


def _write_type1_outputs(out: Path, table: Type1Table):
    # the single grid point's curve points are already in the table's row order
    _write_csv(out / "type1_table.csv", [["method", "column", "acceptance", "n_used"]] + [
        [p.method, _TYPE1_COLUMNS[p.kind].format(cov=p.cov.upper(), alpha=p.alpha),
         repr(float(1.0 - p.rate)), p.n_used]
        for p in table.curve.points])
    rows = [["method", "cov", "nominal_alpha", "empirical_rejection"]]
    for method, cov in table.je_pvalues:
        nom, emp = table.pp_curve(method, cov)
        rows += [[method, cov, repr(float(a)), repr(float(r))] for a, r in zip(nom, emp)]
    _write_csv(out / "pp_data.csv", rows)


def _chunk_progress(done, total):
    print(f"  chunk {done}/{total}", file=sys.stderr)


def _simulate_type1(plan: SimulationPlan, workers: int, out: Path):
    """Acceptance table at the null; always run whole."""
    table = type1_study(plan, workers=workers, progress=_chunk_progress)
    _write_type1_outputs(out, table)
    return table.curve.points, list(range(len(plan.grid)))


def _resume(plan: SimulationPlan, out: Path):
    """Grid indices a saved run of this power plan completed, and their points."""
    manifest_path, curve_path = out / "manifest.json", out / "curve.csv"
    if not (manifest_path.exists() and curve_path.exists()):
        return [], []
    try:
        saved = json.loads(manifest_path.read_text())
        if saved.get("plan") != plan_to_dict(plan) or saved.get("kind") != "power":
            return [], []
        completed = list(saved.get("completed", []))
        done_values = {plan.grid[gi] for gi in completed}
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as err:
        raise ValidationError(f"cannot resume from {manifest_path}: "
                              f"{type(err).__name__}: {err}") from None
    points = [p for p in read_curve_csv(curve_path) if p.grid_value in done_values]
    if completed:
        print(f"resuming: {len(completed)} grid points already done", file=sys.stderr)
    return completed, points


def _simulate_power(plan: SimulationPlan, workers: int, out: Path):
    """Rejection curve, saved after every grid point so a rerun resumes."""
    completed, points = _resume(plan, out)
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


# plan kind -> (its check, its runner(plan, workers, out) -> (curve points, completed grid indices))
_PLAN_KINDS = {"type1": (check_type1_plan, _simulate_type1),
               "power": (check_power_plan, _simulate_power)}


def cmd_simulate(args) -> int:
    out = Path(args.out)
    try:
        kind, plan, factor = parse_plan(Path(args.plan))
        workers = args.workers if args.workers is not None else default_workers()
        if args.scale == "paper":
            plan = replace(plan, replicates=plan.replicates * factor)
        out.mkdir(parents=True, exist_ok=True)
        _, runner = _PLAN_KINDS[kind]
        points, completed = runner(plan, workers, out)
    except ValidationError as err:
        print(f"mcjoint: {err}", file=sys.stderr)
        return EXIT_USAGE
    except McjointError as err:
        print(f"mcjoint: simulation failed: {err}", file=sys.stderr)
        return EXIT_ERROR
    write_curve_csv(points, out / "curve.csv")
    write_manifest(out / "manifest.json", plan, completed, kind)
    print(f"wrote {out / 'curve.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-power
# ---------------------------------------------------------------------------

def cmd_fit_power(args) -> int:
    path = Path(args.curves)
    if not path.exists():
        print(f"mcjoint: curve file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        points = read_curve_csv(path)
    except ValidationError as err:
        print(f"mcjoint: {err}", file=sys.stderr)
        return EXIT_USAGE
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
        try:
            fitp = fit_rejection_curve(grid, rate)
            level = invert_for_power(fitp, target_rejection=args.target, side=args.side)
            t1_est, t1_lo, t1_hi = type1_at_null(fitp, null_value=args.null_value)
            row = [method, kind, cov, repr(alpha),
                   repr(level.lci), repr(level.estimate), repr(level.uci),
                   repr(t1_lo), repr(t1_est), repr(t1_hi), ""]
        except McjointError as err:
            row = [method, kind, cov, repr(alpha)] + [""] * 6 + [str(err)]
        rows.append(row)
    _write_csv(out / "power_table.csv", rows)
    print(f"wrote {out / 'power_table.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
