"""Monte Carlo harnesses: type-I calibration and power curves.

A plan fixes a generator template, the estimators and covariance methods
to compare, a one-parameter grid, and replicate counts.  Every replicate
draws one sample and evaluates ALL methods on it, recording the classical
interval verdicts and the joint-test p-values per covariance method, plus
diagnostics (largest slope atom, covariance failures).  Seeds derive from
(master seed, grid index, replicate index), so serial and parallel runs
produce bit-identical results.

``run_plan`` is the one runner of both plan kinds: one worker pool per
call, and a stream of (grid index, records) that yields each grid point
as soon as its last replicate is in.  ``mcjoint simulate`` runs a type-I
plan as the null grid point of the same stream loop as a power plan, so
there is no study wrapper; the check of each plan kind is here.
``aggregate_curve`` aggregates a whole record set in one call and is kept
for the benchmark; ``simulate`` aggregates each grid point as it arrives.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import GeneratorSpec, generate
from .errors import McjointError, ValidationError
from .estimators import METHODS
from .jetest import H0, je_test
from .resampling import MIN_REPLICATES, bca_ci, bootstrap
from .robustcov import COV_METHODS

# Classical verdict kind -> whether a replicate's intervals reject the null.
CI_VERDICTS = {
    "ci_int": lambda e: not e["int_ok"],
    "ci_slope": lambda e: not e["slope_ok"],
    "ci_total": lambda e: not (e["int_ok"] and e["slope_ok"]),
}

_NULL_LINE = {"slope": H0[1], "intercept": H0[0]}  # the null line; a plan's grid varies one of them


@dataclass(frozen=True)
class SimulationPlan:
    """One Monte Carlo campaign over a single varied parameter."""

    generator: GeneratorSpec
    methods: Tuple[str, ...] = ("dem",)
    cov_methods: Tuple[str, ...] = ("mcd",)
    grid_param: str = "slope"
    grid: Tuple[float, ...] = (1.0,)
    replicates: int = 200
    B: int = 999
    ci_alpha: float = 0.05
    je_alphas: Tuple[float, ...] = (0.05, 0.01)
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "cov_methods", tuple(self.cov_methods))
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "je_alphas", tuple(self.je_alphas))
        if not self.methods:
            raise ValidationError("methods must not be empty")
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.replicates < 50:
            raise ValidationError("need at least 50 replicates per grid point")
        if self.B < MIN_REPLICATES:
            raise ValidationError(f"B must be >= {MIN_REPLICATES}, got {self.B}")
        if not self.je_alphas or not all(0.0 < a < 1.0 for a in (self.ci_alpha, *self.je_alphas)):
            raise ValidationError("ci_alpha and the je_alphas (at least one) must be in (0, 1)")
        if self.grid_param not in _NULL_LINE:
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
            ens = bootstrap(sample, method, B=plan.B,
                            seed=(plan.master_seed, 1, gi, ri, mi))
            iv = bca_ci(ens, plan.ci_alpha)
        except McjointError:
            rec[method] = entry
            continue
        entry["ok"] = True
        entry["int_ok"] = bool(iv.int_lo <= H0[0] <= iv.int_hi)
        entry["slope_ok"] = bool(iv.slope_lo <= H0[1] <= iv.slope_hi)
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


def check_workers(value, name: str) -> int:
    """``value`` as a worker count: an integer >= 1, else ValidationError naming ``name``."""
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def default_workers() -> int:
    """MCJOINT_THREADS when set, else the CPU count."""
    env = os.environ.get("MCJOINT_THREADS")
    return check_workers(env, "MCJOINT_THREADS") if env else (os.cpu_count() or 1)


def _process_pool(workers: int):
    """A pool of ``workers`` spawned processes; the pool machinery loads here."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))


def run_plan(plan: SimulationPlan, workers: Optional[int] = None,
             grid_subset: Optional[Iterable[int]] = None,
             progress=None) -> Iterator[Tuple[int, List[Dict]]]:
    """Evaluate the plan; yields (grid index, records over replicates) per grid point.

    One pool serves every requested grid point.  Its tasks are chunks of
    replicates in grid order, mapped in that order, so a grid point is
    yielded as soon as its last chunk returns, in the order of
    ``grid_subset``.  ``progress(done, total)`` counts replicates after
    every chunk.

    Execution order never affects results: each (grid, replicate) task is
    seeded independently.  The pool has at most one worker per task.  Its
    workers are spawned, not forked: each imports numpy afresh under the
    BLAS pin of ``import mcjoint``, where a forked worker would inherit the
    BLAS threads of a caller that imported numpy first.  As with any
    spawned pool, a calling script must guard its entry point with
    ``if __name__ == "__main__":``.  multiprocessing and concurrent.futures
    are imported only when a pool starts (``workers > 1``), so
    ``import mcjoint`` and serial runs never load them.
    """
    workers = default_workers() if workers is None else check_workers(workers, "workers")
    gis = list(grid_subset) if grid_subset is not None else list(range(len(plan.grid)))
    chunk = max(1, plan.replicates // (4 * workers))
    tasks = [(plan, gi, lo, min(lo + chunk, plan.replicates))
             for gi in gis for lo in range(0, plan.replicates, chunk)]
    workers = min(workers, len(tasks))
    total, done, records = len(gis) * plan.replicates, 0, []
    with _process_pool(workers) if workers > 1 else nullcontext() as pool:
        for gi, lo, chunk_recs in pool.map(_worker, tasks) if pool else map(_worker, tasks):
            records.extend(chunk_recs)
            done += len(chunk_recs)
            if progress:
                progress(done, total)
            if lo + len(chunk_recs) == plan.replicates:
                yield gi, records
                records = []


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


def _binom_se(rate: float, m: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / m)) if m > 0 else float("nan")


def grid_point_size(plan: SimulationPlan) -> int:
    """How many curve points ``aggregate_grid_point`` makes for one grid point."""
    return len(plan.methods) * (len(CI_VERDICTS) + len(plan.cov_methods) * len(plan.je_alphas))


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


# kept for the benchmark: bench/run.py checks its records with it and
# bench/layers.py wraps it; simulate aggregates per grid point instead
def aggregate_curve(plan: SimulationPlan, records: Dict[int, List[Dict]]) -> List[CurvePoint]:
    """The curve points of every grid point in ``records``, in grid-index order."""
    return [p for gi in sorted(records) for p in aggregate_grid_point(plan, gi, records[gi])]


# ---------------------------------------------------------------------------
# plan kinds
# ---------------------------------------------------------------------------

def check_type1_plan(plan: SimulationPlan) -> None:
    """A type-I plan draws its data at the null: slope 1, intercept 0."""
    if any(getattr(plan.generator, name) != null for name, null in _NULL_LINE.items()):
        raise ValidationError("type-I study requires slope=1 and intercept=0")


def check_power_plan(plan: SimulationPlan) -> None:
    """A power plan varies one parameter over two or more values; the other sits at null."""
    for name, null in _NULL_LINE.items():
        if name != plan.grid_param and getattr(plan.generator, name) != null:
            raise ValidationError(f"power study varies {plan.grid_param}; {name} must be {null}")
    if len(plan.grid) < 2:
        raise ValidationError("power study needs at least 2 grid values")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

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


def write_csv(path, rows) -> None:
    """Write ``rows`` as CSV text through ``_atomic_write``."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _atomic_write(Path(path), buf.getvalue())


# curve.csv columns: CurvePoint's fields, each with the type its annotation names
_CURVE_COLUMNS = [(f.name, {"str": str, "int": int, "float": float}[f.type])
                  for f in fields(CurvePoint)]


def curve_rows(points: Iterable[CurvePoint]) -> List[List]:
    """curve.csv rows in (grid value, method, kind, cov, alpha) order; floats as repr."""
    rows = []
    for p in sorted(points, key=lambda p: (p.grid_value, p.method, p.kind, p.cov, p.alpha)):
        rows.append([repr(float(getattr(p, name))) if conv is float else getattr(p, name)
                     for name, conv in _CURVE_COLUMNS])
    return rows


def write_curve_csv(points: Iterable[CurvePoint], path) -> None:
    write_csv(path, [[name for name, _ in _CURVE_COLUMNS]] + curve_rows(points))


def read_curve_csv(path) -> List[CurvePoint]:
    """The points of a curve.csv; a file that does not parse raises ValidationError."""
    try:
        with Path(path).open(newline="") as fh:
            return [CurvePoint(**{name: conv(row[name]) for name, conv in _CURVE_COLUMNS})
                    for row in csv.DictReader(fh)]
    except (OSError, ValueError, LookupError, TypeError, csv.Error) as err:
        raise ValidationError(f"unreadable curve file {path}: {type(err).__name__}: {err}") from None


def plan_to_dict(plan: SimulationPlan) -> Dict:
    """The plan's fields as JSON values, tuples as lists, in field order; the
    generator's per-replicate seed, which no plan file sets, is left out."""
    def plain(value):
        if is_dataclass(value):
            return {f.name: plain(getattr(value, f.name))
                    for f in fields(value) if f.name != "seed"}
        return list(value) if isinstance(value, tuple) else value

    return plain(plan)


def write_manifest(path, plan: SimulationPlan, completed: List[int], kind: str) -> None:
    from . import __version__

    payload = {
        "kind": kind,
        "plan": plan_to_dict(plan),
        "completed": sorted(completed),
        "version": f"mcjoint-{__version__}",
    }
    _atomic_write(Path(path), json.dumps(payload, indent=2))
