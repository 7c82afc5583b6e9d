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

Every command exits 2 with one line when --out names a path that cannot be
made a directory, such as an existing file.  validate exits 2, before it
creates --out, on a negative --seed and on an --input it cannot read
(missing, a directory, or not text); fit-power does so on a --target
outside (0, 1), a non-finite --null-value and a --curves file it cannot
read (or that names a kind not in VERDICTS, or holds a rate neither nan
nor in [0, 1]).  simulate exits 2, before it
creates --out, when the plan file is missing, malformed (not UTF-8
key=value text, or a repeated key) or out of range (a non-finite
generator value, a negative master_seed, or a list naming a value twice),
or fails its kind's check; and it exits 2, leaving them as they are, on
saved run files it cannot resume from (see ``simulation.simulate``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import read_csv
from .errors import McjointError, ValidationError
from .estimators import METHODS, DemingConfig
from .jetest import VALIDATED, report_to_json, validate
from .powerfit import MIN_POINTS, fit_rejection_curve, invert_for_power, type1_at_null
from .resampling import check_alpha, check_replicates
from .robustcov import COV_METHODS
from .simulation import (
    VERDICTS,
    _atomic_write,
    check_workers,
    default_workers,
    parse_plan,
    read_curve_csv,
    simulate,
    write_csv,
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
    check_alpha("--je-alpha", args.je_alpha)
    check_alpha("--ci-alpha", args.ci_alpha)
    check_replicates("--b", args.b)
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
        report = validate(
            sample, args.method, cfg,
            cov_method=args.cov, B=args.b, seed=args.seed,
            je_alpha=args.je_alpha, ci_alpha=args.ci_alpha,
        )
    except McjointError as err:
        print(f"mcjoint: validation failed: {err}", file=sys.stderr)
        return EXIT_ERROR
    out = _out_dir(args.out)
    _atomic_write(out / "report.json", report_to_json(report) + "\n")
    _atomic_write(out / "plot.svg", render_box_ellipse(payload_from_report(report)))
    _atomic_write(out / "ensemble.csv", _pairs_csv(report.ensemble.pairs))
    print(f"{report.je.verdict} (JE p={report.je.p_value:.4g}, CI verdict {report.verdict_ci})")
    return EXIT_OK if report.je.verdict == VALIDATED else EXIT_REJECTED


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

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


def cmd_simulate(args) -> int:
    """Parse the plan, check --workers before --out exists, and run ``simulation.simulate``."""
    kind, plan, factor = parse_plan(Path(args.plan))
    workers = default_workers() if args.workers is None else check_workers(args.workers, "--workers")
    if args.scale == "paper":
        plan = replace(plan, replicates=plan.replicates * factor)
    out = _out_dir(args.out)
    try:
        simulate(plan, kind, out, workers, _progress())
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
    check_alpha("--target", args.target)
    if not np.isfinite(args.null_value):
        raise ValidationError(f"--null-value must be finite, got {args.null_value}")
    points = read_curve_csv(path)
    groups = {}
    for p in points:
        if VERDICTS[p.kind][1]:  # a joint verdict's series
            groups.setdefault((p.method, p.kind, p.cov, p.alpha), []).append(p)
    # a grid point whose verdicts all failed has rate nan and is not fitted
    rated = {k: [p for p in v if np.isfinite(p.rate)] for k, v in groups.items()}
    fitable = {k: v for k, v in rated.items() if len(v) >= MIN_POINTS}
    if not fitable:
        if groups and not any(rated.values()):
            names = "; ".join(",".join(map(str, k)) for k in sorted(groups))
            raise ValidationError(f"every rate of series {names} is nan: no grid point has a verdict")
        sizes = {k: len(v) for k, v in rated.items()}
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
