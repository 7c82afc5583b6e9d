"""Command-line front end: validation runs, simulation campaigns, power fits.

Exit codes are verdict-coded so shell pipelines can branch on them:
0 validated by the joint test, 3 rejected by the joint test, 2 usage or
input error, 1 runtime failure.  All commands honor --seed and read no
entropy from the clock or the environment.  Without --workers, simulate
runs MCJOINT_THREADS worker processes, or one per CPU; the flag and the
variable must be an integer >= 1, anything else is a usage error.  Each
simulate call starts one pool, which never exceeds the number of tasks,
and streams the grid points through it; stderr shows the replicates done,
their rate and an ETA.
Each process runs BLAS on one thread: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS default to 1, and a value set in the
environment is kept.

Every command exits 2 with one line when --out names a path that cannot
be made a directory, such as an existing file.  validate exits 2, before
it creates --out, on a negative --seed and on an --input it cannot read
(missing, a directory, or not text); fit-power does so on a --target
outside (0, 1).  simulate exits 2, before it creates --out, when the plan
file is missing, malformed (not key=value text, or a key given twice) or
out of range (a negative master_seed too), or fails its kind's check.
Both plan kinds run through one ``run_plan`` stream, a type-I plan on its
null grid point alone, and curve.csv and manifest.json (for a type-I plan
type1_table.csv and pp_data.csv too) are saved as each grid point is in.
Only power plans resume, from those files; unreadable or inconsistent
ones (a completed index out of range or listed twice, or its points
missing from curve.csv) exit 2 and are left as they are.  Type-I plans
run whole.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import GeneratorSpec, read_csv
from .errors import McjointError, ValidationError
from .estimators import METHODS, DemingConfig
from .jetest import VALIDATED, report_to_json, validate
from .powerfit import MIN_POINTS, fit_rejection_curve, invert_for_power, type1_at_null
from .resampling import MIN_REPLICATES
from .robustcov import COV_METHODS
from .simulation import (
    _NULL_LINE,
    SimulationPlan,
    _atomic_write,
    aggregate_grid_point,
    check_power_plan,
    check_type1_plan,
    check_workers,
    default_workers,
    grid_point_size,
    plan_to_dict,
    read_curve_csv,
    run_plan,
    write_csv,
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


def _pairs_csv(pairs: np.ndarray) -> str:
    """ensemble.csv's text as ``csv.writer`` writes it, in one format pass:
    the header, then each (intercept, slope) row as two float reprs, CRLF-terminated."""
    return "intercept,slope\r\n" + ("%r,%r\r\n" * len(pairs)) % tuple(pairs.ravel().tolist())


def _out_dir(path) -> Path:
    """The --out directory ``path``, made with its parents; ValidationError when it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ValidationError(f"cannot make --out a directory: {err}") from None
    return out


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
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    return DemingConfig(lam=args.lam)


def cmd_validate(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    cfg = _validate_config(args)
    sample = read_csv(path)
    try:
        report, ensemble = validate(
            sample, args.method, cfg,
            cov_method=args.cov, B=args.b, seed=args.seed,
            je_alpha=args.je_alpha, ci_alpha=args.ci_alpha,
        )
    except McjointError as err:
        print(f"mcjoint: validation failed: {err}", file=sys.stderr)
        return EXIT_ERROR
    out = _out_dir(args.out)
    _atomic_write(out / "report.json", report_to_json(report) + "\n")
    _atomic_write(out / "plot.svg", render_box_ellipse(payload_from_report(report, ensemble)))
    _atomic_write(out / "ensemble.csv", _pairs_csv(ensemble.pairs))
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
    import configparser  # only simulate reads a plan file; validate never loads it

    cp = configparser.ConfigParser(interpolation=None)  # no plan key uses interpolation
    try:
        if not cp.read(path):
            raise ValidationError(f"plan file not found: {path}")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ValidationError("malformed plan: " + " ".join(str(err).split())) from None
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
    try:
        plan = SimulationPlan(generator=GeneratorSpec(**gen_kw), **run_kw)
        _PLAN_KINDS[kind](plan)
    except (ValidationError, TypeError) as err:
        raise ValidationError(f"malformed plan: {err}") from err
    return kind, plan, factor


# type1_table.csv column label of each verdict kind
_TYPE1_COLUMNS = {"ci_int": "int.CI{alpha:.0%}", "ci_slope": "sl.CI{alpha:.0%}",
                  "ci_total": "tot.CI{alpha:.0%}", "je": "JE.{cov}{alpha:.0%}"}


def _write_type1_outputs(out: Path, plan: SimulationPlan, points, records):
    """type1_table.csv and pp_data.csv of the null grid point's curve points and records."""
    # the grid point's curve points are already in the table's row order
    write_csv(out / "type1_table.csv", [["method", "column", "acceptance", "n_used"]] + [
        [p.method, _TYPE1_COLUMNS[p.kind].format(cov=p.cov.upper(), alpha=p.alpha),
         repr(float(1.0 - p.rate)), p.n_used]
        for p in points])
    nominal = np.linspace(0.002, 0.2, 100)  # the P-P curve: JE rejection vs nominal alpha
    rows = [["method", "cov", "nominal_alpha", "empirical_rejection"]]
    for method in plan.methods:
        for cov in plan.cov_methods:
            p = np.array([r[method]["je"][cov] for r in records
                          if r[method]["ok"] and r[method]["je"][cov] is not None])
            rows += [[method, cov, repr(float(a)), repr(float((p <= a).mean()))]
                     for a in nominal]
    write_csv(out / "pp_data.csv", rows)


def _progress():
    """A ``run_plan`` progress callback: replicates done, their rate and an ETA.

    Rate and ETA count from the first callback on, so the pool's start-up
    is not taken for work; the first line has neither.
    """
    first = []

    def show(done, total):
        now = time.monotonic()
        first[:] = first or (now, done)
        speed = (done - first[1]) / (now - first[0]) if now > first[0] else 0.0
        rate, eta = (f"{speed:.3g}", f"{(total - done) / speed:.0f}") if speed else ("-", "-")
        print(f"  {done}/{total} replicates, {rate}/s, ETA {eta} s", file=sys.stderr)

    return show


def _resume(plan: SimulationPlan, out: Path):
    """Grid indices a saved run of this power plan completed, and their points.

    Each completed index must be a grid index, listed once, whose points
    are all in curve.csv; anything else raises ValidationError.
    """
    manifest_path, curve_path = out / "manifest.json", out / "curve.csv"
    if not (manifest_path.exists() and curve_path.exists()):
        return [], []
    try:
        saved = json.loads(manifest_path.read_text())
        if saved.get("plan") != plan_to_dict(plan) or saved.get("kind") != "power":
            return [], []
        completed = list(saved.get("completed", []))
        if any(type(gi) is not int or not 0 <= gi < len(plan.grid) for gi in completed):
            raise ValueError(f"completed {completed} names an index outside the grid")
        if len(set(completed)) < len(completed):
            raise ValueError(f"completed {completed} lists an index twice")
        per_value = Counter(plan.grid[gi] for gi in completed)
        points = [p for p in read_curve_csv(curve_path) if p.grid_value in per_value]
        size = grid_point_size(plan)
        if Counter(p.grid_value for p in points) != {v: k * size for v, k in per_value.items()}:
            raise ValueError(f"{curve_path} does not hold the points of completed {completed}")
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as err:
        raise ValidationError(f"cannot resume from {manifest_path}: "
                              f"{type(err).__name__}: {err}") from None
    if completed:
        print(f"resuming: {len(completed)} grid points already done", file=sys.stderr)
    return completed, points


# plan kind -> its check
_PLAN_KINDS = {"type1": check_type1_plan, "power": check_power_plan}


def cmd_simulate(args) -> int:
    """One ``run_plan`` stream over the grid points not yet done, saved per grid point."""
    kind, plan, factor = parse_plan(Path(args.plan))
    workers = default_workers() if args.workers is None else check_workers(args.workers, "--workers")
    if args.scale == "paper":
        plan = replace(plan, replicates=plan.replicates * factor)
    if kind == "type1":
        plan = replace(plan, grid=(_NULL_LINE[plan.grid_param],))
    out = _out_dir(args.out)
    try:
        completed, points = _resume(plan, out) if kind == "power" else ([], [])
        todo = [gi for gi in range(len(plan.grid)) if gi not in completed]
        for gi, records in run_plan(plan, workers=workers, grid_subset=todo, progress=_progress()):
            points.extend(aggregate_grid_point(plan, gi, records))
            completed.append(gi)
            write_curve_csv(points, out / "curve.csv")
            write_manifest(out / "manifest.json", plan, completed, kind)
            if kind == "type1":  # one grid point, so ``points`` are its points
                _write_type1_outputs(out, plan, points, records)
    except ValidationError:
        raise
    except McjointError as err:
        print(f"mcjoint: simulation failed: {err}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {out / 'curve.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-power
# ---------------------------------------------------------------------------

def cmd_fit_power(args) -> int:
    path = Path(args.curves)
    if not path.exists():
        raise ValidationError(f"curve file not found: {path}")
    if not 0.0 < args.target < 1.0:
        raise ValidationError(f"--target must be in (0, 1), got {args.target}")
    points = read_curve_csv(path)
    groups = {}
    for p in points:
        if p.kind in ("ci_total", "je") and np.isfinite(p.rate):
            groups.setdefault((p.method, p.kind, p.cov, p.alpha), []).append(p)
    fitable = {k: v for k, v in groups.items() if len(v) >= MIN_POINTS}
    if not fitable:
        sizes = {k: len(v) for k, v in groups.items()}
        raise ValidationError(f"no series has the minimum {MIN_POINTS} grid points (got {sizes})")
    out = _out_dir(args.out)
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
    write_csv(out / "power_table.csv", rows)
    print(f"wrote {out / 'power_table.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; a ValidationError it raises is a usage error, one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as err:
        print(f"mcjoint: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
