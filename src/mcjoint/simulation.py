"""Monte Carlo harnesses: type-I calibration and power curves.

A plan fixes a generator template, the estimators and covariance methods
to compare, a one-parameter grid, and replicate counts.  Every replicate
draws one sample and evaluates ALL methods on it, recording the classical
interval verdicts and the joint-test p-values per covariance method, plus
diagnostics (largest slope atom, covariance failures).  A replicate's
sample is seeded from (master seed, 0, grid index, replicate index) and
each method's bootstrap from (master seed, 1, grid index, replicate index,
method index), so serial and parallel runs produce bit-identical results.
The joint test's covariance seed is master seed + 7919 * (grid index + 1)
+ covariance index: it has no replicate or method index, so every
replicate and method at a grid point shares MCD's random starts and SDe's
directions.

``run_plan`` is the one runner of both plan kinds: one worker pool per
call, and a stream of (grid index, records) that yields each grid point
as soon as its last replicate is in.  ``parse_plan`` reads a plan file,
whose keys are the fields of ``GeneratorSpec`` and ``SimulationPlan``; a
type-I plan runs as the null grid point alone.  ``simulate`` runs a plan
into its run directory and saves each grid point as it arrives.
``VERDICTS`` is the one table of verdict kinds; curve.csv, type1_table.csv,
pp_data.csv, the resume check and fit-power all read it.
``aggregate_curve`` turns records per grid index into curve points: for each
grid point simulate saves, for the resume check's count, and for the benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .dataset import GeneratorSpec, generate
from .errors import McjointError, ValidationError
from .estimators import METHODS
from .jetest import H0, je_test
from .resampling import bca_ci, bootstrap, check_alpha, check_replicates
from .robustcov import COV_METHODS

# verdict kind -> (type1_table.csv label, whether it judges intercept and slope together, as
# fit-power fits; its (cov, alpha) series in a plan; whether a replicate's method entry
# rejects the null in a series, None where the entry gives no verdict there)
VERDICTS = {
    "ci_int": ("int.CI{alpha:.0%}", False, lambda plan: [("", plan.ci_alpha)],
               lambda e, cov, alpha: not e["int_ok"]),
    "ci_slope": ("sl.CI{alpha:.0%}", False, lambda plan: [("", plan.ci_alpha)],
                 lambda e, cov, alpha: not e["slope_ok"]),
    "ci_total": ("tot.CI{alpha:.0%}", True, lambda plan: [("", plan.ci_alpha)],
                 lambda e, cov, alpha: not (e["int_ok"] and e["slope_ok"])),
    "je": ("JE.{cov}{alpha:.0%}", True,
           lambda plan: [(cov, alpha) for cov in plan.cov_methods for alpha in plan.je_alphas],
           lambda e, cov, alpha: None if e["je"][cov] is None else e["je"][cov] <= alpha),
}

_NULL_LINE = {"slope": H0[1], "intercept": H0[0]}  # the null line; a plan's grid varies one of them
MAX_PAIRS = 10_000  # a plan's sample size n: a stop for a mistyped size, not a promise of capacity


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
        if self.generator.n > MAX_PAIRS:
            raise ValidationError(f"n must be <= {MAX_PAIRS}, got {self.generator.n}")
        if self.replicates < 50:
            raise ValidationError("need at least 50 replicates per grid point")
        check_replicates("B", self.B)
        if not self.je_alphas:
            raise ValidationError("je_alphas must not be empty")
        check_alpha("ci_alpha", self.ci_alpha)
        for alpha in self.je_alphas:
            check_alpha("je_alphas", alpha)
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
        for name, values in (("methods", self.methods), ("je_alphas", self.je_alphas),
                             ("cov_methods", [c.lower() for c in self.cov_methods])):
            if len(set(values)) < len(values):
                raise ValidationError(f"{name} lists a value twice: {getattr(self, name)}")


def evaluate_replicate(plan: SimulationPlan, gi: int, ri: int) -> Dict:
    """All verdicts for one generated dataset; shared across methods."""
    sample = generate(replace(plan.generator, **{plan.grid_param: plan.grid[gi],
                                                 "seed": (plan.master_seed, 0, gi, ri)}))
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
        entry["int_ok"], entry["slope_ok"] = iv.covers(*H0)
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
    kind: str            # a key of VERDICTS
    cov: str             # empty for CI kinds
    alpha: float
    grid_value: float
    rate: float
    se: float
    n_used: int
    failures: int
    replicates: int


def _rejection_rate(entries: Sequence[Dict], kind: str, cov: str, alpha):
    """(rate, binomial se, count) of one series' rejections over the ok entries with a verdict.

    ``alpha`` may be an array of levels (the je rule compares element-wise);
    the rate and se are then arrays of its shape.
    """
    verdicts = [v for v in (VERDICTS[kind][3](e, cov, alpha) for e in entries if e["ok"])
                if v is not None]
    m = len(verdicts)  # an empty series is nan, with no mean of nothing to warn on stderr
    rate = np.mean(verdicts, axis=0) if m else np.full(np.shape(alpha), np.nan)
    return rate, np.sqrt(rate * (1.0 - rate) / m) if m else rate, m


def aggregate_curve(plan: SimulationPlan, records: Dict[int, List[Dict]]) -> List[CurvePoint]:
    """The curve points of every grid point in ``records``, in grid-index order: one
    per method, VERDICTS kind and series; a replicate with no verdict fails."""
    out: List[CurvePoint] = []
    for gi in sorted(records):
        recs = records[gi]
        for method in plan.methods:
            entries = [r[method] for r in recs]
            for kind, (_, _, series, _) in VERDICTS.items():
                for cov, alpha in series(plan):
                    rate, se, n_used = _rejection_rate(entries, kind, cov, alpha)
                    out.append(CurvePoint(method, kind, cov, alpha, plan.grid[gi], float(rate),
                                          float(se), n_used, len(recs) - n_used, len(recs)))
    return out


# ---------------------------------------------------------------------------
# plan kinds and plan files
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


# plan kind -> its check
_PLAN_KINDS = {"type1": check_type1_plan, "power": check_power_plan}


def _listed(conv):
    """Parser of a comma-separated list of ``conv`` values."""
    def parse(raw: str):
        return tuple(conv(v.strip()) for v in raw.split(",") if v.strip())

    parse.__name__ = f"list of {conv.__name__}"
    return parse


# field annotation -> parser of its plan-file value
_PARSERS = {"float": float, "int": int, "str": str, "Optional[int]": int,
            "Tuple[str, ...]": _listed(str), "Tuple[float, ...]": _listed(float)}

# plan-file section -> key -> (keyword, parser): GeneratorSpec's fields but seed, SimulationPlan's
# but generator, lower-cased as configparser reads keys (b names B); [run] adds kind, paper_factor
_PLAN_KEYS = {section: {f.name.lower(): (f.name, _PARSERS[f.type])
                        for f in fields(cls) if f.name != skip}
              for section, cls, skip in (("generator", GeneratorSpec, "seed"),
                                         ("run", SimulationPlan, "generator"))}
_PLAN_KEYS["run"].update(kind=("kind", str), paper_factor=("paper_factor", int))


def parse_plan(path: Path):
    """(kind, plan, paper factor) of a key=value plan file; collect every bad key.

    Keys left out or blank take the dataclasses' defaults.  The plan has
    passed its kind's check; a type-I plan's grid is its null grid point.
    """
    import configparser  # only simulate reads a plan file; validate never loads it

    cp = configparser.ConfigParser(interpolation=None)  # no plan key uses interpolation
    try:
        cp.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except OSError:
        raise ValidationError(f"plan file not found: {path}") from None
    except UnicodeDecodeError as err:
        raise ValidationError(f"malformed plan: {path} is not UTF-8 text ({err})") from None
    except configparser.Error as err:
        raise ValidationError("malformed plan: " + " ".join(str(err).split())) from None
    problems, kw = [], {section: {} for section in _PLAN_KEYS}
    for section, keys in _PLAN_KEYS.items():
        if not cp.has_section(section):
            problems.append(f"missing [{section}] section")
            continue
        for key, raw in cp.items(section):
            if key not in keys:
                problems.append(f"[{section}] unknown key {key!r}")
            elif raw.strip():
                name, parse = keys[key]
                try:
                    kw[section][name] = parse(raw.strip())
                except ValueError:
                    problems.append(f"[{section}] {key}={raw!r} is not a {parse.__name__}")
    kind = kw["run"].pop("kind", "power")
    factor = kw["run"].pop("paper_factor", 10)
    if kind not in _PLAN_KINDS:
        problems.append(f"[run] kind={kind!r} is not one of {', '.join(_PLAN_KINDS)}")
    if factor < 1:
        problems.append(f"[run] paper_factor={factor} must be >= 1")
    if problems:
        raise ValidationError("malformed plan: " + "; ".join(problems))

    try:
        plan = SimulationPlan(generator=GeneratorSpec(**kw["generator"]), **kw["run"])
        _PLAN_KINDS[kind](plan)
    except (ValidationError, TypeError) as err:
        raise ValidationError(f"malformed plan: {err}") from err
    if kind == "type1":  # a type-I plan runs its null grid point alone
        plan = replace(plan, grid=(_NULL_LINE[plan.grid_param],))
    return kind, plan, factor


# ---------------------------------------------------------------------------
# persistence: the run directory
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
    return [[repr(float(getattr(p, name))) if conv is float else getattr(p, name)
             for name, conv in _CURVE_COLUMNS]
            for p in sorted(points, key=lambda p: (p.grid_value, p.method, p.kind, p.cov, p.alpha))]


def write_curve_csv(points: Iterable[CurvePoint], path) -> None:
    write_csv(path, [[name for name, _ in _CURVE_COLUMNS]] + curve_rows(points))


def read_curve_csv(path) -> List[CurvePoint]:
    """The points of a curve.csv; a row that does not parse, names a kind not in VERDICTS
    or has a rate neither nan nor in [0, 1] raises ValidationError."""
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            points = [CurvePoint(**{name: conv(row[name]) for name, conv in _CURVE_COLUMNS})
                      for row in csv.DictReader(fh)]
        for row, p in enumerate(points, 1):
            if p.kind not in VERDICTS:
                raise ValueError(f"kind {p.kind!r} is not one of {', '.join(VERDICTS)}")
            if not (np.isnan(p.rate) or 0.0 <= p.rate <= 1.0):
                raise ValueError(f"data row {row} has rate {p.rate!r}, not a rejection rate in [0, 1]")
    except (OSError, ValueError, LookupError, TypeError, csv.Error) as err:
        raise ValidationError(f"unreadable curve file {path}: {type(err).__name__}: {err}") from None
    return points


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
    _atomic_write(Path(path), json.dumps({"kind": kind, "plan": plan_to_dict(plan),
                                          "completed": sorted(completed),
                                          "version": f"mcjoint-{__version__}"}, indent=2))


def _write_type1_outputs(out: Path, plan: SimulationPlan, points, records):
    """type1_table.csv and pp_data.csv of the null grid point's curve points and records."""
    # the grid point's curve points are already in the table's row order
    write_csv(out / "type1_table.csv", [["method", "column", "acceptance", "n_used"]] + [
        [p.method, VERDICTS[p.kind][0].format(cov=p.cov.upper(), alpha=p.alpha),
         repr(float(1.0 - p.rate)), p.n_used]
        for p in points])
    nominal = np.linspace(0.002, 0.2, 100)  # the P-P curve: JE rejection vs nominal alpha
    rows = [["method", "cov", "nominal_alpha", "empirical_rejection", "n_used"]]
    for method in plan.methods:
        entries = [r[method] for r in records]
        for cov in plan.cov_methods:
            rates, _, n_used = _rejection_rate(entries, "je", cov, nominal)
            rows += [[method, cov, repr(float(a)), repr(float(r)), n_used]
                     for a, r in zip(nominal, rates)]
    write_csv(out / "pp_data.csv", rows)


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
        if saved.get("plan") != plan_to_dict(plan):
            return [], []
        completed = list(saved.get("completed", []))
        if any(type(gi) is not int or not 0 <= gi < len(plan.grid) for gi in completed):
            raise ValueError(f"completed {completed} names an index outside the grid")
        if len(set(completed)) < len(completed):
            raise ValueError(f"completed {completed} lists an index twice")
        per_value = Counter(plan.grid[gi] for gi in completed)
        points = [p for p in read_curve_csv(curve_path) if p.grid_value in per_value]
        size = len(aggregate_curve(plan, {0: []}))
        if Counter(p.grid_value for p in points) != {v: k * size for v, k in per_value.items()}:
            raise ValueError(f"{curve_path} does not hold the points of completed {completed}")
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as err:
        raise ValidationError(f"cannot resume from {manifest_path}: "
                              f"{type(err).__name__}: {err}") from None
    if completed:
        print(f"resuming: {len(completed)} grid points already done", file=sys.stderr)
    return completed, points


def simulate(plan: SimulationPlan, kind: str, out: Path, workers: int, progress) -> None:
    """Run ``plan`` of ``kind`` into the existing run directory ``out``.

    One ``run_plan`` stream, given ``workers`` and ``progress``, runs the
    grid points not yet done.  curve.csv and manifest.json (for a type-I
    plan type1_table.csv and pp_data.csv too) are saved as each grid point
    is in.  Only power plans resume, from those files; unreadable or
    inconsistent ones (a completed index out of range or listed twice, or
    its points missing from curve.csv) raise ValidationError and are left
    as they are.  Type-I plans run whole.
    """
    completed, points = _resume(plan, out) if kind == "power" else ([], [])
    todo = [gi for gi in range(len(plan.grid)) if gi not in completed]
    for gi, records in run_plan(plan, workers=workers, grid_subset=todo, progress=progress):
        points.extend(aggregate_curve(plan, {gi: records}))
        completed.append(gi)
        write_curve_csv(points, out / "curve.csv")
        write_manifest(out / "manifest.json", plan, completed, kind)
        if kind == "type1":  # one grid point, so ``points`` are its points
            _write_type1_outputs(out, plan, points, records)
