"""Monte Carlo harnesses: type-I calibration and power curves.

A plan fixes a generator template, the estimators and covariance methods
to compare, a one-parameter grid, and replicate counts.  Every replicate
draws one sample and evaluates ALL methods on it, recording the classical
interval verdicts and the joint-test p-values per covariance method, plus
diagnostics (largest slope atom, covariance failures).  Seeds derive from
(master seed, grid index, replicate index), so serial and parallel runs
produce bit-identical results.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import GeneratorSpec, generate
from .errors import McjointError, ValidationError
from .estimators import METHODS, DemingConfig
from .jetest import je_test
from .resampling import MIN_REPLICATES, bca_ci, bootstrap
from .robustcov import COV_METHODS

# Classical verdict kind -> whether a replicate's intervals reject the null.
CI_VERDICTS = {
    "ci_int": lambda e: not e["int_ok"],
    "ci_slope": lambda e: not e["slope_ok"],
    "ci_total": lambda e: not (e["int_ok"] and e["slope_ok"]),
}


@dataclass(frozen=True)
class SimulationPlan:
    """One Monte Carlo campaign over a single varied parameter."""

    generator: GeneratorSpec
    methods: Tuple[str, ...]
    cov_methods: Tuple[str, ...] = ("mcd",)
    grid_param: str = "slope"
    grid: Tuple[float, ...] = (1.0,)
    replicates: int = 200
    B: int = 999
    ci_alpha: float = 0.05
    je_alphas: Tuple[float, ...] = (0.05, 0.01)
    master_seed: int = 0
    cfg: DemingConfig = field(default_factory=DemingConfig)

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "cov_methods", tuple(self.cov_methods))
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "je_alphas", tuple(self.je_alphas))
        if self.replicates < 50:
            raise ValidationError("need at least 50 replicates per grid point")
        if self.B < MIN_REPLICATES:
            raise ValidationError(f"B must be >= {MIN_REPLICATES}, got {self.B}")
        if not self.je_alphas or not all(0.0 < a < 1.0 for a in (self.ci_alpha, *self.je_alphas)):
            raise ValidationError("ci_alpha and the je_alphas (at least one) must be in (0, 1)")
        if self.grid_param not in ("slope", "intercept"):
            raise ValidationError("grid_param must be 'slope' or 'intercept'")
        if not self.grid:
            raise ValidationError("grid must not be empty")
        g = np.asarray(self.grid)
        if not np.isfinite(g).all() or not (np.diff(g) >= 0).all():
            raise ValidationError("grid values must be finite and sorted")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"unknown method {m!r}")
        for c in self.cov_methods:
            if c.lower() not in COV_METHODS:
                raise ValidationError(f"unknown covariance method {c!r}")


def _spec_at(plan: SimulationPlan, grid_value: float, gi: int, ri: int) -> GeneratorSpec:
    kw = {plan.grid_param: grid_value, "seed": (plan.master_seed, 0, gi, ri)}
    return replace(plan.generator, **kw)


def evaluate_replicate(plan: SimulationPlan, gi: int, ri: int) -> Dict:
    """All verdicts for one generated dataset; shared across methods."""
    sample = generate(_spec_at(plan, plan.grid[gi], gi, ri))
    rec: Dict = {}
    for mi, method in enumerate(plan.methods):
        entry: Dict = {"ok": False, "je": {}}
        try:
            ens = bootstrap(sample, method, plan.cfg, B=plan.B,
                            seed=(plan.master_seed, 1, gi, ri, mi))
            iv = bca_ci(ens, plan.ci_alpha)
        except McjointError:
            rec[method] = entry
            continue
        entry["ok"] = True
        entry["int_ok"] = bool(iv.int_lo <= 0.0 <= iv.int_hi)
        entry["slope_ok"] = bool(iv.slope_lo <= 1.0 <= iv.slope_hi)
        _, counts = np.unique(ens.slopes, return_counts=True)
        entry["atom"] = float(counts.max() / ens.B)
        for ci_idx, cov in enumerate(plan.cov_methods):
            try:
                jt = je_test(ens, cov, alpha=min(plan.je_alphas),
                             seed=plan.master_seed + 7919 * (gi + 1) + ci_idx)
                entry["je"][cov] = float(jt.p_value)
            except McjointError:
                entry["je"][cov] = None
        rec[method] = entry
    return rec


def _worker(args):
    plan, gi, lo, hi = args
    return gi, lo, [evaluate_replicate(plan, gi, ri) for ri in range(lo, hi)]


def default_workers() -> int:
    """MCJOINT_THREADS when set, else the CPU count."""
    env = os.environ.get("MCJOINT_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValidationError(f"MCJOINT_THREADS must be an integer, got {env!r}") from None


def run_plan(plan: SimulationPlan, workers: Optional[int] = None,
             grid_subset: Optional[Iterable[int]] = None,
             progress=None) -> Dict[int, List[Dict]]:
    """Evaluate the plan; returns records[grid_index] = list over replicates.

    Execution order never affects results: each (grid, replicate) task is
    seeded independently and records are reassembled by index.  The pool
    has at most one worker per task.
    """
    workers = workers if workers is not None else default_workers()
    gis = list(grid_subset) if grid_subset is not None else list(range(len(plan.grid)))
    records: Dict[int, List[Dict]] = {gi: [None] * plan.replicates for gi in gis}
    chunk = max(1, plan.replicates // max(1, 4 * workers))
    tasks = []
    for gi in gis:
        for lo in range(0, plan.replicates, chunk):
            tasks.append((plan, gi, lo, min(lo + chunk, plan.replicates)))
    workers = min(workers, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_worker, tasks) if pool else map(_worker, tasks)
        for done, (gi, lo, chunk_recs) in enumerate(results, 1):
            records[gi][lo:lo + len(chunk_recs)] = chunk_recs
            if progress:
                progress(done, len(tasks))
    return records


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    """Empirical rejection rate of one verdict at one grid value."""

    method: str
    kind: str            # ci_int | ci_slope | ci_total | je
    cov: str             # empty for CI kinds
    alpha: float
    grid_value: float
    rate: float
    se: float
    n_used: int
    failures: int
    replicates: int


@dataclass
class RejectionCurve:
    grid_param: str
    grid: Tuple[float, ...]
    points: List[CurvePoint]
    atom_fraction: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    def series(self, method: str, kind: str, cov: str = "", alpha: Optional[float] = None):
        """(grid, rate, se) arrays for one verdict family."""
        sel = [p for p in self.points
               if p.method == method and p.kind == kind and p.cov == cov
               and (alpha is None or p.alpha == alpha)]
        sel.sort(key=lambda p: p.grid_value)
        return (np.array([p.grid_value for p in sel]),
                np.array([p.rate for p in sel]),
                np.array([p.se for p in sel]))


def _binom_se(rate: float, m: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / m)) if m > 0 else float("nan")


def aggregate_grid_point(plan: SimulationPlan, gi: int, recs: Sequence[Dict]) -> List[CurvePoint]:
    gval = plan.grid[gi]
    out: List[CurvePoint] = []
    R = len(recs)
    for method in plan.methods:
        entries = [r[method] for r in recs]
        okd = [e for e in entries if e["ok"]]
        fails = R - len(okd)
        for kind, rejects in CI_VERDICTS.items():
            rej = [rejects(e) for e in okd]
            rate = float(np.mean(rej)) if okd else float("nan")
            out.append(CurvePoint(method, kind, "", plan.ci_alpha, gval,
                                  rate, _binom_se(rate, len(okd)), len(okd), fails, R))
        for cov in plan.cov_methods:
            ps = [e["je"][cov] for e in okd]
            avail = [p for p in ps if p is not None]
            je_fail = fails + sum(1 for p in ps if p is None)
            for alpha in plan.je_alphas:
                rej = [p <= alpha for p in avail]
                rate = float(np.mean(rej)) if avail else float("nan")
                out.append(CurvePoint(method, "je", cov, alpha, gval,
                                      rate, _binom_se(rate, len(avail)), len(avail), je_fail, R))
    return out


def aggregate_curve(plan: SimulationPlan, records: Dict[int, List[Dict]]) -> RejectionCurve:
    points: List[CurvePoint] = []
    for gi in sorted(records):
        points.extend(aggregate_grid_point(plan, gi, records[gi]))
    atoms: Dict[str, Tuple[float, ...]] = {}
    for method in plan.methods:
        per_point = []
        for gi in sorted(records):
            vals = [r[method].get("atom") for r in records[gi] if r[method]["ok"]]
            per_point.append(float(np.mean(vals)) if vals else float("nan"))
        atoms[method] = tuple(per_point)
    return RejectionCurve(plan.grid_param, plan.grid, points, atoms)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

@dataclass
class Type1Table:
    """Acceptance ratios under the null, in the layout of the type-I table."""

    plan: SimulationPlan
    curve: RejectionCurve
    je_pvalues: Dict[Tuple[str, str], np.ndarray]

    def acceptance(self, method: str, kind: str, cov: str = "", alpha: Optional[float] = None) -> float:
        _, rate, _ = self.curve.series(method, kind, cov, alpha)
        return float(1.0 - rate[0])

    def pp_curve(self, method: str, cov: str, nominal: Optional[np.ndarray] = None):
        """Empirical rejection of the joint test vs nominal alpha."""
        p = self.je_pvalues[(method, cov)]
        if nominal is None:
            nominal = np.linspace(0.002, 0.2, 100)
        emp = np.array([(p <= a).mean() for a in nominal])
        return nominal, emp


def type1_study(plan: SimulationPlan, workers: Optional[int] = None, progress=None) -> Type1Table:
    """Null-hypothesis calibration: one grid point at the true null."""
    if plan.generator.slope != 1.0 or plan.generator.intercept != 0.0:
        raise ValidationError("type-I study requires slope=1 and intercept=0")
    null_value = 1.0 if plan.grid_param == "slope" else 0.0
    plan = replace(plan, grid=(null_value,))
    records = run_plan(plan, workers=workers, progress=progress)
    curve = aggregate_curve(plan, records)
    pvals: Dict[Tuple[str, str], np.ndarray] = {}
    for method in plan.methods:
        for cov in plan.cov_methods:
            vals = [r[method]["je"][cov] for r in records[0]
                    if r[method]["ok"] and r[method]["je"][cov] is not None]
            pvals[(method, cov)] = np.array(vals)
    return Type1Table(plan, curve, pvals)


def power_study(plan: SimulationPlan, workers: Optional[int] = None, progress=None) -> RejectionCurve:
    """Rejection-rate curve over the grid; the other parameter sits at null."""
    other = "intercept" if plan.grid_param == "slope" else "slope"
    null_other = 0.0 if other == "intercept" else 1.0
    if getattr(plan.generator, other) != null_other:
        raise ValidationError(f"power study varies {plan.grid_param}; {other} must be {null_other}")
    if len(plan.grid) < 2:
        raise ValidationError("power study needs a real grid")
    records = run_plan(plan, workers=workers, progress=progress)
    return aggregate_curve(plan, records)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

CSV_HEADER = ["method", "kind", "cov", "alpha", "grid_value", "rate", "se",
              "n_used", "failures", "replicates"]


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def curve_rows(points: Iterable[CurvePoint]) -> List[List]:
    rows = []
    for p in sorted(points, key=lambda p: (p.grid_value, p.method, p.kind, p.cov, p.alpha)):
        rows.append([p.method, p.kind, p.cov, repr(p.alpha), repr(p.grid_value),
                     repr(p.rate), repr(p.se), p.n_used, p.failures, p.replicates])
    return rows


def write_curve_csv(points: Iterable[CurvePoint], path) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(CSV_HEADER)
    w.writerows(curve_rows(points))
    _atomic_write(Path(path), buf.getvalue())


def read_curve_csv(path) -> List[CurvePoint]:
    points = []
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            points.append(CurvePoint(
                method=row["method"], kind=row["kind"], cov=row["cov"],
                alpha=float(row["alpha"]), grid_value=float(row["grid_value"]),
                rate=float(row["rate"]), se=float(row["se"]),
                n_used=int(row["n_used"]), failures=int(row["failures"]),
                replicates=int(row["replicates"]),
            ))
    return points


def plan_to_dict(plan: SimulationPlan) -> Dict:
    gen = plan.generator
    return {
        "generator": {
            "xmin": gen.xmin, "xmax": gen.xmax, "n": gen.n,
            "slope": gen.slope, "intercept": gen.intercept,
            "sigmax": gen.sigmax, "sigmay": gen.sigmay,
            "error_model": gen.error_model,
            "precision_x": gen.precision_x, "precision_y": gen.precision_y,
            "detmin": gen.detmin,
        },
        "methods": list(plan.methods),
        "cov_methods": list(plan.cov_methods),
        "grid_param": plan.grid_param,
        "grid": list(plan.grid),
        "replicates": plan.replicates,
        "B": plan.B,
        "ci_alpha": plan.ci_alpha,
        "je_alphas": list(plan.je_alphas),
        "master_seed": plan.master_seed,
    }


def write_manifest(path, plan: SimulationPlan, completed: List[int], kind: str) -> None:
    from . import __version__

    payload = {
        "kind": kind,
        "plan": plan_to_dict(plan),
        "completed": sorted(completed),
        "version": f"mcjoint-{__version__}",
    }
    _atomic_write(Path(path), json.dumps(payload, indent=2))
