"""The benchmark's workloads: inputs from a seed, operations, and output checks.

Two kinds of operation, the product's two units of work:

* a ``mcjoint validate`` CLI call through ``cli.main`` (validate-cli), in
  this process or, for a few calls per run, in a fresh interpreter;
* one Monte Carlo replicate, ``simulation.evaluate_replicate``: one sample,
  every method, every covariance (mc-null, mc-ties, mc-mmdem).

Every operation's output is checked; see ``check_cli_call`` and
``compare_record``.  The program is imported from ``src/`` of the checkout
the benchmark sits in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from stats import CLI_EXIT_1, CLI_EXIT_2, OK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS_PATH = BENCH / "refs.json"

WORKLOADS = ("validate-cli", "mc-null", "mc-ties", "mc-mmdem")
REF_SEEDS = (0, 1)          # default seed and held-out seed, both with stored references
PROBE_SEED = 0              # every run re-checks one stored operation of this seed
WORKERS = 2                 # Monte Carlo worker processes, one per core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# validate-cli: call k uses METHOD[k % 4], COV[(k // 4) % 3] and
# DATASET[(k + k // 12) % 3], so any 12 consecutive calls use every
# method-covariance pair once and 36 calls use every triple once.
CLI_B = 2000
CLI_METHODS = ("dem", "wdem", "mdem", "paba")
CLI_COVS = ("mcd", "sde", "classic")
DATASETS = ("ties", "continuous", "hemoglobin")
CLI_SEED = 0                # bootstrap seed of every call; the seed varies the CSVs

# Tolerances against the stored references (README.md, *Checks*).
# Bootstrap rows: ROADMAP's per-row rule, each row within ROW_TOL of its
# value, or of 1 for values below 1 (the data's unit scale), checked on the
# first ROW_SAMPLE rows of each validate ensemble and, through the bound
# it implies, on the sum of all rows.  JE p-values amplify row changes
# 10^2-10^3 fold, because the null point sits many bootstrap standard
# errors from the origin; P_REL_TOL is their tolerance.  report.json
# rounds to 6 significant digits, so its numbers may differ in the last.
ROW_TOL = 1e-10
ROW_SAMPLE = 16
P_REL_TOL = 1e-7
REPORT_REL_TOL = 1e-5


def load_program():
    """Import mcjoint from this checkout's src/ and return the package."""
    if not (SRC / "mcjoint" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'mcjoint'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mcjoint
    import mcjoint.cli  # noqa: F401  (submodules the benchmark drives or wraps)
    import mcjoint.simulation  # noqa: F401

    if Path(mcjoint.__file__).resolve().parent != (SRC / "mcjoint").resolve():
        raise ImportError(f"mcjoint imported from {mcjoint.__file__}, not from {SRC}")
    return mcjoint


def program_env() -> Dict[str, str]:
    """The environment as found, plus PYTHONPATH pointing at src/.

    Thread-count variables are passed through untouched: pinning them
    would hide BLAS oversubscription, which is part of what is measured.
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "mcjoint").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> Dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def load_refs() -> Dict:
    return json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}


def close(a, b, rel: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel, abs_tol=0.0) or a == b
    return a == b


def canonical(obj) -> str:
    """Exact text form of a record: equal text means bit-identical floats."""
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_wall(env: Dict[str, str]) -> float:
    """Wall time of one fresh interpreter that imports mcjoint and exits.

    Callers take the median of several, spread through the run, so that
    neither compiling the bytecode cache in the first import of a fresh
    checkout nor a few seconds of a slow host decide the figure.  Output
    is captured so that the wait ends on the child's end of the pipes;
    without pipes, a wait with a timeout polls and rounds the wall time
    up by as much as 50 ms.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mcjoint"], env=env, check=True,
                   capture_output=True, timeout=120, cwd=ROOT)
    return time.perf_counter() - t0


def import_profile(env: Dict[str, str]) -> Tuple[float, float]:
    """(import mcjoint, of which scipy) in seconds, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mcjoint"],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120, cwd=ROOT)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> Tuple[float, float]:
    """Cumulative time of ``mcjoint`` and of the outermost scipy imports.

    ``-X importtime`` prints each module after its children, indented by
    depth; reading the lines backwards visits parents before children.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cum) * 1e-6, name.strip()))
    total = scipy = 0.0
    stack: List[Tuple[int, bool]] = []
    for depth, cum, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside_scipy:
            scipy += cum
        if name == "mcjoint" and depth == 0:
            total = cum
        stack.append((depth, inside_scipy or is_scipy))
    return total, scipy


# ---------------------------------------------------------------------------
# validate-cli
# ---------------------------------------------------------------------------

def write_inputs(mc, seed: int, out: Path) -> Dict[str, Path]:
    """The three input CSVs: bundled hemoglobin, and two n=40 samples.

    The tied CSV is the continuous sample's draws rounded to 2
    significant digits.
    """
    out.mkdir(parents=True, exist_ok=True)
    paths = {"hemoglobin": mc.dataset.hemoglobin_path()}
    for name, prec in (("continuous", None), ("ties", 2)):
        s = mc.generate(mc.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=prec,
                                         precision_y=prec, seed=(seed, 1)))
        p = out / f"{name}.csv"
        p.write_text("reference,test\n"
                     + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(s.x, s.y)))
        paths[name] = p
    return paths


def cli_config(k: int) -> Tuple[str, str, str]:
    """(dataset, method, covariance) of validate call k."""
    return (DATASETS[(k + k // 12) % 3], CLI_METHODS[k % 4], CLI_COVS[(k // 4) % 3])


def cli_argv(k: int, inputs: Dict[str, Path], out_dir: Path) -> List[str]:
    dataset, method, cov = cli_config(k)
    return ["validate", "--input", str(inputs[dataset]), "--method", method, "--cov", cov,
            "--b", str(CLI_B), "--seed", str(CLI_SEED), "--out", str(out_dir)]


def ref_key(dataset: str, method: str, cov: str) -> str:
    return f"{dataset}/{method}/{cov}"


ARTIFACTS = ("report.json", "plot.svg", "ensemble.csv")


def clear_artifacts(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)


def read_artifacts(out_dir: Path) -> Dict[str, bytes]:
    return {n: (out_dir / n).read_bytes() for n in ARTIFACTS if (out_dir / n).exists()}


def check_cli_call(rc: int, stderr: str, artifacts: Dict[str, bytes]) -> Tuple[str, List[str], Dict]:
    """Outcome, check failures and a summary of one validate call's outputs.

    Exit 0/3 must come with a parseable report whose JE verdict agrees
    with the exit code, an SVG that parses as XML and an ensemble of B
    rows.  Exit 1 must be a one-line message: a verdict the program could
    not give (a singular scatter on tied data).  Any other exit code,
    including 2, is a failure, because the benchmark's inputs are valid.
    """
    lines = stderr.strip().splitlines()
    if rc == 1:
        if len(lines) == 1 and lines[0].startswith("mcjoint: "):
            return CLI_EXIT_1, [], {"exit": 1, "message": lines[0]}
        return CLI_EXIT_1, [f"exit 1 without a one-line message: {stderr[-300:]!r}"], {}
    if rc == 2:
        return CLI_EXIT_2, [f"exit 2 on valid input: {stderr[-300:]!r}"], {}
    if rc not in (0, 3):
        return CLI_EXIT_1, [f"exit {rc}: {stderr[-300:]!r}"], {}
    problems: List[str] = []
    try:
        report = json.loads(artifacts["report.json"])
        verdict = report["verdict_je"]
        summary = {"exit": rc, "verdict_je": verdict, "verdict_ci": report["verdict_ci"],
                   "je_pvalue": report["je_pvalue"], "mahalanobis_sq": report["mahalanobis_sq"],
                   "intercept": report["fit"]["intercept"], "slope": report["fit"]["slope"]}
    except (ValueError, KeyError, TypeError) as err:
        return OK, [f"malformed report.json: {err!r}"], {}
    if (rc == 0) != (verdict == "validated") or verdict not in ("validated", "rejected"):
        problems.append(f"exit {rc} disagrees with verdict_je={verdict!r}")
    try:
        root = ET.fromstring(artifacts["plot.svg"])
        if not root.tag.endswith("svg"):
            problems.append(f"plot.svg root is {root.tag!r}")
    except (KeyError, ET.ParseError) as err:
        problems.append(f"malformed plot.svg: {err!r}")
    try:
        rows = list(csv.reader(io.StringIO(artifacts["ensemble.csv"].decode())))
        pairs = [(float(a), float(b)) for a, b in rows[1:]]
        if rows[0] != ["intercept", "slope"] or len(pairs) != CLI_B:
            problems.append(f"ensemble.csv has header {rows[0]} and {len(pairs)} rows, want {CLI_B}")
        elif not all(math.isfinite(a) and math.isfinite(b) for a, b in pairs):
            problems.append("ensemble.csv has non-finite values")
        summary["ensemble_head"] = [list(row) for row in pairs[:ROW_SAMPLE]]
        summary["ensemble_sum"] = [math.fsum(a for a, _ in pairs), math.fsum(b for _, b in pairs)]
        summary["ensemble_scale"] = [math.fsum(max(abs(v), 1.0) for v in col)
                                     for col in zip(*pairs)]
    except (KeyError, ValueError, IndexError) as err:
        problems.append(f"malformed ensemble.csv: {err!r}")
    return OK, problems, summary


def row_close(x: float, ref: float) -> bool:
    """ROADMAP's per-row rule for one bootstrap value."""
    return abs(x - ref) <= ROW_TOL * max(abs(ref), 1.0)


def _ensemble_ok(key: str, a, b, ref: Dict) -> bool:
    """Ensemble fields: rows by the per-row rule, sums by the bound it implies."""
    if key == "ensemble_head":
        return len(a) == len(b) and all(len(r) == len(s) and all(map(row_close, r, s))
                                        for r, s in zip(a, b))
    if key == "ensemble_sum":
        # rows each within ROW_TOL * max(|v|, 1) move the sum by at most
        # ROW_TOL times the reference's ensemble_scale
        scale = ref.get("ensemble_scale") or [0.0] * len(b)
        return len(a) == len(b) == len(scale) and all(
            abs(x - y) <= ROW_TOL * s for x, y, s in zip(a, b, scale))
    return len(a) == len(b) and all(abs(x - y) <= ROW_TOL * y for x, y in zip(a, b))


def compare_cli(summary: Dict, ref: Dict) -> List[str]:
    problems = []
    for key in sorted(set(summary) | set(ref)):
        a, b = summary.get(key), ref.get(key)
        if key.startswith("ensemble_") and isinstance(a, list) and isinstance(b, list):
            ok = _ensemble_ok(key, a, b, ref)
        else:
            ok = close(a, b, REPORT_REL_TOL)
        if not ok:
            shown = "differ" if key == "ensemble_head" else f"={a!r}, reference {b!r}"
            problems.append(f"{key} {shown}")
    return problems


def cli_reference(refs: Dict, seed: int, k: int) -> Optional[Dict]:
    """Stored summary of call k: hemoglobin calls at any seed, others at REF_SEEDS."""
    dataset, method, cov = cli_config(k)
    table = refs.get("validate-cli", {})
    if dataset == "hemoglobin":
        return table.get("hemoglobin", {}).get(ref_key(dataset, method, cov))
    return table.get(str(seed), {}).get(ref_key(dataset, method, cov))


def reference_problems(refs: Dict, seed: int, k: int, summary: Dict,
                       problems: Sequence[str]) -> List[str]:
    ref = cli_reference(refs, seed, k)
    if ref is None or problems:
        return []
    return [f"call {k} {cli_config(k)}: {p}" for p in compare_cli(summary, ref)]


@dataclass
class CliCall:
    k: int
    rc: int
    wall: float
    cpu: float
    outcome: str
    problems: List[str]
    summary: Dict
    artifacts: Dict[str, bytes]


def _checked_call(k: int, rc: int, stderr: str, wall: float, cpu: float, out_dir: Path,
                  refs: Dict, seed: int) -> CliCall:
    artifacts = read_artifacts(out_dir)
    outcome, problems, summary = check_cli_call(rc, stderr, artifacts)
    problems += reference_problems(refs, seed, k, summary, problems)
    return CliCall(k, rc, wall, cpu, outcome, problems, summary, artifacts)


def run_cli_call(k: int, inputs: Dict[str, Path], out_dir: Path, env: Dict[str, str],
                 refs: Dict, seed: int) -> CliCall:
    """One ``mcjoint validate`` in a fresh interpreter, timed and checked."""
    clear_artifacts(out_dir)
    cmd = [sys.executable, "-m", "mcjoint.cli"] + cli_argv(k, inputs, out_dir)
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150, cwd=ROOT)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return _checked_call(k, proc.returncode, proc.stderr, wall, cpu, out_dir, refs, seed)


def run_inproc_call(mc, k: int, inputs: Dict[str, Path], out_dir: Path, refs: Dict, seed: int,
                    main: Optional[Callable] = None) -> CliCall:
    """One validate through ``cli.main`` (or ``main``) in this process, timed and checked."""
    main = main or mc.cli.main
    clear_artifacts(out_dir)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = main(cli_argv(k, inputs, out_dir))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return _checked_call(k, rc, err.getvalue(), wall, cpu, out_dir, refs, seed)


# ---------------------------------------------------------------------------
# Monte Carlo replicates
# ---------------------------------------------------------------------------

def mc_plan(mc, workload: str, master_seed: int):
    """The simulation plan a workload draws replicates from.

    The plan's 200 replicates are a pool; a run evaluates them in index
    order for as long as it measures.
    """
    gen = mc.GeneratorSpec(xmin=3.0, xmax=8.0, n=40)
    if workload == "mc-ties":
        gen = replace(gen, precision_x=2, precision_y=2)
    if workload == "mc-mmdem":
        return mc.SimulationPlan(generator=gen, methods=("mmdem",), cov_methods=("classic",),
                                 replicates=200, B=199, master_seed=master_seed)
    return mc.SimulationPlan(generator=gen, methods=("dem", "wdem", "mdem", "paba"),
                             cov_methods=("classic", "mcd", "sde"),
                             replicates=200, B=999, master_seed=master_seed)


def mc_tasks(mc, workload: str, seed: int, probes: int = 1) -> Iterator[Tuple[int, int]]:
    """(master seed, replicate index) in run order: the stored probe, then the seed's pool.

    With ``probes=2`` both workers start on the probe, so one run
    evaluates the same replicate twice and can compare the two records.
    """
    for _ in range(probes):
        yield PROBE_SEED, 0
    for ri in range(mc_plan(mc, workload, seed).replicates):
        yield seed, ri


def compare_record(rec: Dict, ref: Dict) -> List[str]:
    problems = []
    if sorted(rec) != sorted(ref):
        return [f"methods {sorted(rec)} != reference {sorted(ref)}"]
    for method in sorted(rec):
        a, b = rec[method], ref[method]
        for key in ("ok", "int_ok", "slope_ok", "atom"):
            if a.get(key) != b.get(key):
                problems.append(f"{method}.{key}={a.get(key)!r}, reference {b.get(key)!r}")
        je_a, je_b = a.get("je", {}), b.get("je", {})
        for cov in sorted(set(je_a) | set(je_b)):
            pa, pb = je_a.get(cov), je_b.get(cov)
            if (pa is None) != (pb is None) or (pa is not None and not close(pa, pb, P_REL_TOL)):
                problems.append(f"{method}.je.{cov}={pa!r}, reference {pb!r}")
    return problems


def mc_reference(refs: Dict, workload: str, master_seed: int, ri: int) -> Optional[Dict]:
    stored = refs.get(workload, {}).get(str(master_seed), [])
    return stored[ri] if ri < len(stored) else None


def _worker_init() -> None:
    import mcjoint.simulation  # noqa: F401  (import once per worker, before timing)


def _worker_pid(delay: float) -> int:
    time.sleep(delay)
    return os.getpid()


def _worker_replicate(workload: str, master_seed: int, ri: int):
    import mcjoint
    from mcjoint.simulation import evaluate_replicate

    plan = mc_plan(mcjoint, workload, master_seed)
    c0 = time.process_time()
    t0 = time.perf_counter()
    rec = evaluate_replicate(plan, 0, ri)
    return os.getpid(), rec, time.perf_counter() - t0, time.process_time() - c0


@dataclass
class Replicate:
    index: int              # position in submission order
    master_seed: int
    ri: int
    pid: int
    record: Optional[Dict]
    wall: float
    cpu: float
    done_at: float          # seconds after the measurement started
    error: Optional[str] = None


def run_pool(workload: str, tasks: Iterator[Tuple[int, int]], seconds: float) -> List[Replicate]:
    """Closed loop: keep one replicate in flight per worker until time is up.

    Workers are spawned and import mcjoint before the clock starts.  No
    task is submitted after ``seconds``; those in flight finish.
    """
    ctx = multiprocessing.get_context("spawn")
    done: List[Replicate] = []
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx,
                             initializer=_worker_init) as pool:
        pids = set()
        while len(pids) < WORKERS:
            pids.update(pool.map(_worker_pid, [0.2] * WORKERS))
        t0 = time.perf_counter()
        inflight = {}

        def submit():
            key = next(tasks, None)
            if key is not None:
                fut = pool.submit(_worker_replicate, workload, *key)
                inflight[fut] = (len(done) + len(inflight),) + key

        for _ in range(WORKERS):
            submit()
        while inflight:
            finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
            now = time.perf_counter() - t0
            for fut in finished:
                key = inflight.pop(fut)
                try:
                    pid, rec, wall, cpu = fut.result()
                    done.append(Replicate(*key, pid, rec, wall, cpu, now))
                except Exception as err:  # noqa: BLE001 - a crashing replicate is a failed op
                    done.append(Replicate(*key, -1, None, float("nan"), 0.0, now,
                                          error=f"{type(err).__name__}: {err}"))
                if now < seconds:
                    submit()
    return sorted(done, key=lambda r: r.index)


def stop_resource_tracker() -> None:
    """Stop the helper process spawned pools start, and wait for it to exit."""
    import multiprocessing.resource_tracker as tracker

    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def pool_rate(reps: Sequence[Replicate]) -> float:
    """Replicates per second: each worker's count over its busy span, summed.

    Both workers start at time 0 and stay busy until their last
    completion, so the idle tail after the last submission is excluded.
    """
    ends: Dict[int, List[float]] = {}
    for r in reps:
        if r.error is None:
            ends.setdefault(r.pid, []).append(r.done_at)
    return sum(len(v) / max(v) for v in ends.values())
