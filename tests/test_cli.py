"""Command-line contract: exit codes, artifacts, resume, scale, input errors."""

import concurrent.futures
import csv
import hashlib
import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import cli, simulation
from mcjoint.dataset import GeneratorSpec, hemoglobin_path
from mcjoint.powerfit import MIN_POINTS, SubbotinParams, invert_for_power, subbotin_density
from mcjoint.simulation import CurvePoint, read_curve_csv, write_curve_csv

ARTIFACTS = ("report.json", "plot.svg", "ensemble.csv")
CONTINUOUS = GeneratorSpec(xmin=3.0, xmax=8.0, n=40, seed=(0, 1))
TIED = GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2, seed=(0, 1))


def write_sample(path, spec=CONTINUOUS, header="reference,test"):
    s = mj.generate(spec)
    path.write_text(header + "\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                                            for a, b in zip(s.x, s.y)))
    return path


def write_plan(path, generator=(), **run):
    gen = dict(xmin=3.0, xmax=8.0, n=25)
    gen.update(generator)
    keys = dict(kind="power", methods="dem", cov_methods="classic", grid="0.98, 1.02",
                replicates=50, b=199, master_seed=7)
    keys.update(run)
    path.write_text("[generator]\n" + "".join(f"{k} = {v}\n" for k, v in gen.items())
                    + "\n[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def run(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return rc, out, err


def simulate(capsys, plan, out, *extra):
    return run(capsys, "simulate", "--plan", plan, "--out", out, *extra)


def read_artifacts(out):
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def assert_one_line_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("mcjoint: "), err


# -- validate ----------------------------------------------------------------

@pytest.mark.parametrize("dataset, method, code, verdict", [
    ("continuous", "dem", 0, "validated"),
    ("hemoglobin", "paba", 3, "rejected"),
])
def test_validate_exit_code_and_repeatable_artifacts(tmp_path, capsys, dataset, method, code, verdict):
    src = hemoglobin_path() if dataset == "hemoglobin" else write_sample(tmp_path / "in.csv")
    runs = []
    for name in ("first", "second"):
        rc, out, _ = run(capsys, "validate", "--input", src, "--out", tmp_path / name,
                         "--method", method, "--cov", "mcd", "--b", 199, "--seed", 3)
        assert rc == code
        assert out.startswith(verdict)
        runs.append(read_artifacts(tmp_path / name))
    assert runs[0] == runs[1]
    report = json.loads(runs[0]["report.json"])
    assert report["verdict_je"] == verdict
    assert report["B"] == 199 and report["seed"] == [3]
    assert ET.fromstring(runs[0]["plot.svg"]).tag.endswith("svg")
    rows = runs[0]["ensemble.csv"].decode().splitlines()
    assert rows[0] == "intercept,slope" and len(rows) == 1 + 199


def test_validate_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run(capsys, "validate", "--input", tmp_path / "absent.csv", "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert not (tmp_path / "out").exists()


def test_validate_non_numeric_csv_exits_2_and_leaves_no_directory(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("reference,test\n1.0,2.0\n3.0,abc\n4.0,5.0\n")
    rc, _, err = run(capsys, "validate", "--input", src, "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert "abc" in err
    assert not (tmp_path / "out").exists()


def write_unusable_paths(tmp_path):
    """A directory, a file that is not UTF-8 text, and a plain file, by name."""
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "latin-1.csv").write_bytes("r\xe9f,test\n1,1\n2,2\n3,3\n".encode("latin-1"))
    (tmp_path / "a-file").write_text("")


@pytest.mark.parametrize("flag, value", [
    ("--ci-alpha", 0), ("--ci-alpha", 1.5), ("--je-alpha", 1.5), ("--lam", 0), ("--lam", "inf"),
    ("--b", 10), ("--seed", -1), ("--input", "a-directory"), ("--input", "latin-1.csv"),
    ("--out", "a-file"), ("--ci-alpha", 1e-17), ("--b", 100_000_000_000),
])
def test_validate_bad_flag_value_exits_2(tmp_path, capsys, flag, value):
    write_unusable_paths(tmp_path)
    if flag in ("--input", "--out"):
        value = tmp_path / value
    rc, _, err = run(capsys, "validate", "--input", hemoglobin_path(), "--out", tmp_path / "out",
                     "--method", "dem", "--cov", "classic", "--b", 199, flag, value)
    assert rc == 2
    assert_one_line_error(err)
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "a-file").read_text() == ""


@pytest.mark.parametrize("method", ["dem", "wdem", "mdem", "mmdem"])
@pytest.mark.parametrize("lam", ["1e160", "1e300"])
def test_validate_huge_lam_exits_1_with_one_line_and_no_warning(tmp_path, capsys, method, lam):
    # the closed form's t * t overflowed, and numpy warned on stderr before the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run(capsys, "validate", "--input", hemoglobin_path(), "--out",
                         tmp_path / "out", "--method", method, "--cov", "classic", "--b", 199,
                         "--lam", lam)
    assert rc == 1
    assert_one_line_error(err)
    assert "s_xy = 0)" not in err
    assert not (tmp_path / "out").exists()


def test_validate_bca_acceleration_overflow_exits_1_with_one_line(tmp_path, capsys):
    # hemoglobin with both columns times 1e150: the jackknife deviations' cubes overflow,
    # and the NaN acceleration ended in a ValueError traceback
    header, *rows = hemoglobin_path().read_text().splitlines()
    src = tmp_path / "huge.csv"
    src.write_text("\n".join([header] + [",".join(repr(float(v) * 1e150) for v in row.split(","))
                                          for row in rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run(capsys, "validate", "--input", src, "--out", tmp_path / "out",
                         "--method", "paba", "--cov", "classic", "--b", 199)
    assert rc == 1
    assert_one_line_error(err)
    assert "BCa acceleration is not finite" in err
    assert not (tmp_path / "out").exists()


def test_validate_singular_scatter_on_ties_exits_1(tmp_path, capsys):
    src = write_sample(tmp_path / "ties.csv", TIED)
    rc, _, err = run(capsys, "validate", "--input", src, "--out", tmp_path / "out",
                     "--method", "paba", "--cov", "mcd", "--b", 199)
    assert rc == 1
    assert_one_line_error(err)
    assert "singular" in err


def test_validate_escapes_the_svg_title(tmp_path, capsys):
    src = write_sample(tmp_path / "in.csv", header="A&B,<c>")
    rc, _, _ = run(capsys, "validate", "--input", src, "--out", tmp_path / "out",
                   "--method", "dem", "--cov", "classic", "--b", 199)
    assert rc in (0, 3)
    root = ET.fromstring((tmp_path / "out" / "plot.svg").read_bytes())
    title = next(root.iter("{http://www.w3.org/2000/svg}text")).text
    assert title.startswith("A&B vs <c> [")


# -- simulate ----------------------------------------------------------------

def test_simulate_malformed_plan_exits_2(tmp_path, capsys):
    plan = write_plan(tmp_path / "plan.cfg", replicates="fifty")
    rc, _, err = simulate(capsys, plan, tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert "replicates" in err


@pytest.mark.parametrize("text", [
    b"n = 25\n",
    b"[generator]\nxmin = 3\nxmax = 8\n[run\nkind = type1\n",
    b"[generator]\nxmin = 3\nxmin = 4\nxmax = 8\n\n[run]\nkind = type1\n",
    b"\xff\xfe" + "[generator]\nxmin = 3\n".encode("utf-16-le"),
    None,
], ids=["no-section-header", "unclosed-section", "duplicate-key", "not-utf8", "percent-sign"])
def test_simulate_unparsable_plan_file_exits_2(tmp_path, capsys, text):
    plan = tmp_path / "plan.cfg"
    if text is None:
        write_plan(plan, methods="dem%")
    else:
        plan.write_bytes(text)
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "malformed plan" in err
    if text is not None:  # a file-level error names the file as given
        assert str(plan) in err and "PosixPath" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("b", 100), ("ci_alpha", 0), ("je_alphas", "0.05, 1.5"), ("je_alphas", ","),
    ("methods", ","), ("paper_factor", 0), ("je_alphas", "0.05, abc"), ("master_seed", -1),
    ("methods", "dem, dem"), ("cov_methods", "classic, CLASSIC"), ("je_alphas", "0.05, 0.05"),
    ("ci_alpha", "1e-17"), ("b", 100_000_000_000),
])
def test_simulate_out_of_range_plan_value_exits_2(tmp_path, capsys, key, value):
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0", **{key: value})
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "malformed plan" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("xmax", "inf"), ("sigmay", "nan")])
def test_simulate_non_finite_generator_value_exits_2(tmp_path, capsys, key, value):
    # xmax = inf overflowed numpy's uniform draw after --out existed, and
    # sigmay = nan censored every reading and wrote a table of nan rates
    plan = write_plan(tmp_path / "plan.cfg", {key: value}, kind="type1", grid="1.0")
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "malformed plan" in err and f"{key} must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("generator, run, reason", [
    ({}, {"grid": "1.0"}, "at least 2 grid values"),
    ({"intercept": 0.5}, {}, "intercept must be 0.0"),
    ({"slope": 1.1}, {"kind": "type1", "grid": "1.0"}, "slope=1 and intercept=0"),
], ids=["power-one-grid-value", "power-intercept-off-null", "type1-slope-off-null"])
def test_simulate_plan_failing_its_kind_check_exits_2(tmp_path, capsys, generator, run, reason):
    plan = write_plan(tmp_path / "plan.cfg", generator, **run)
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "malformed plan" in err and reason in err
    assert not (tmp_path / "out").exists()


def test_simulate_out_naming_a_file_exits_2(tmp_path, capsys):
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0")
    (tmp_path / "out").write_text("")
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert (tmp_path / "out").read_text() == ""


def test_simulate_unknown_kind_exits_2(tmp_path, capsys):
    plan = write_plan(tmp_path / "plan.cfg", kind="typo1")
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "typo1" in err
    assert not (tmp_path / "out").exists()


def test_simulate_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    # the flag and the variable go through one check: an integer >= 1
    plan = write_plan(tmp_path / "plan.cfg")
    for env, flag, named in [("abc", None, "MCJOINT_THREADS"), ("0", None, "MCJOINT_THREADS"),
                             ("-2", None, "MCJOINT_THREADS"), (None, -3, "--workers"),
                             (None, 0, "--workers")]:
        if env is None:
            monkeypatch.delenv("MCJOINT_THREADS", raising=False)
        else:
            monkeypatch.setenv("MCJOINT_THREADS", env)
        extra = () if flag is None else ("--workers", flag)
        rc, _, err = simulate(capsys, plan, tmp_path / "out", *extra)
        assert rc == 2, (env, flag)
        assert_one_line_error(err)
        assert named in err and "integer >= 1" in err
        assert not (tmp_path / "out").exists()
    # a valid flag overrides the variable, which is then not read
    monkeypatch.setenv("MCJOINT_THREADS", "abc")
    assert simulate(capsys, plan, tmp_path / "out", "--workers", 1)[0] == 0


@pytest.fixture
def recording_pool(monkeypatch):
    """(size, start method) of every pool ``run_plan`` constructs; tasks run here."""
    pools = []

    class RecordingPool:
        """Stands in for the process pool.  Its ``map`` is lazy and keeps task
        order, as the pool's does, so a task runs when its result is asked for."""

        def __init__(self, max_workers, mp_context):
            pools.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_plan imports the pool class when it starts a pool, so the stand-in
    # replaces it where that import finds it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def test_simulate_caps_the_pool_at_the_task_count(tmp_path, capsys, monkeypatch, recording_pool):
    monkeypatch.setenv("MCJOINT_THREADS", "64")
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0")
    rc, _, _ = simulate(capsys, plan, tmp_path / "out")
    assert rc == 0
    # 64 workers get one-replicate chunks, so 50 replicates make 50 tasks;
    # spawned workers import numpy under mcjoint's BLAS pin, where forked
    # ones would inherit the caller's BLAS threads
    assert recording_pool == [(50, "spawn")]


def test_simulate_power_plan_starts_one_pool(tmp_path, capsys, recording_pool):
    plan = write_plan(tmp_path / "plan.cfg", grid="0.98, 1.0, 1.02")
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 2)
    assert rc == 0
    assert recording_pool == [(2, "spawn")]
    assert len(read_curve_csv(tmp_path / "out" / "curve.csv")) == 3 * 5
    # one progress line per chunk of replicates, with a rate and an ETA
    lines = err.strip().splitlines()
    assert lines[-1].startswith("  150/150 replicates, ") and lines[-1].endswith(", ETA 0 s")
    assert all(" replicates, " in line and "/s, ETA " in line for line in lines)


def test_progress_rate_counts_from_the_first_callback(capsys, monkeypatch):
    # the pool's start-up, before the first chunk returns, is not work done
    ticks = iter([10.0, 12.0, 14.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    show = cli._progress()
    for done in (6, 26, 100):
        show(done, 100)
    assert capsys.readouterr().err.splitlines() == [
        "  6/100 replicates, -/s, ETA - s",
        "  26/100 replicates, 10/s, ETA 7 s",
        "  100/100 replicates, 23.5/s, ETA 0 s"]


def test_simulate_saves_each_grid_point_before_the_next_runs(tmp_path, capsys, monkeypatch,
                                                            recording_pool):
    plan = write_plan(tmp_path / "plan.cfg", grid="0.98, 1.0, 1.02")
    out = tmp_path / "out"
    seen = {}
    evaluate = simulation.evaluate_replicate

    def spy(plan, gi, ri):
        if ri == 0 and gi > 0:
            manifest = json.loads((out / "manifest.json").read_text())
            seen[gi] = (manifest["completed"],
                        sorted({p.grid_value for p in read_curve_csv(out / "curve.csv")}))
        return evaluate(plan, gi, ri)

    monkeypatch.setattr(simulation, "evaluate_replicate", spy)
    assert simulate(capsys, plan, out, "--workers", 2)[0] == 0
    assert seen == {1: ([0], [0.98]), 2: ([0, 1], [0.98, 1.0])}


def test_simulate_resumes_from_the_manifest(tmp_path, capsys, monkeypatch):
    plan = write_plan(tmp_path / "plan.cfg")
    full = tmp_path / "full"
    assert simulate(capsys, plan, full, "--workers", 1)[0] == 0
    want = {name: (full / name).read_bytes() for name in ("curve.csv", "manifest.json")}

    # an interrupted run: grid point 0 saved, grid point 1 not yet
    part = tmp_path / "part"
    part.mkdir()
    manifest = json.loads(want["manifest.json"])
    manifest["completed"] = [0]
    (part / "manifest.json").write_text(json.dumps(manifest))
    write_curve_csv([p for p in read_curve_csv(full / "curve.csv") if p.grid_value == 0.98],
                    part / "curve.csv")

    evaluated = []
    run_plan = simulation.run_plan

    def spy(plan, workers=None, grid_subset=None, progress=None):
        evaluated.extend(grid_subset)
        return run_plan(plan, workers=workers, grid_subset=grid_subset, progress=progress)

    monkeypatch.setattr(simulation, "run_plan", spy)
    rc, _, err = simulate(capsys, plan, part, "--workers", 1)
    assert rc == 0
    assert "resuming: 1 grid points already done" in err
    assert evaluated == [1]
    assert {name: (part / name).read_bytes() for name in want} == want

    # rerunning a finished run evaluates nothing and rewrites the same bytes
    evaluated.clear()
    assert simulate(capsys, plan, full, "--workers", 1)[0] == 0
    assert evaluated == []
    assert {name: (full / name).read_bytes() for name in want} == want


def test_simulate_reruns_a_changed_power_plan_whole(tmp_path, capsys, monkeypatch):
    # a finished run whose manifest holds another plan (another master_seed)
    out = tmp_path / "out"
    assert simulate(capsys, write_plan(tmp_path / "plan.cfg"), out, "--workers", 1)[0] == 0
    changed = write_plan(tmp_path / "changed.cfg", master_seed=8)
    fresh = tmp_path / "fresh"
    assert simulate(capsys, changed, fresh, "--workers", 1)[0] == 0
    want = {name: (fresh / name).read_bytes() for name in ("curve.csv", "manifest.json")}

    evaluated = []
    run_plan = simulation.run_plan

    def spy(plan, workers=None, grid_subset=None, progress=None):
        evaluated.extend(grid_subset)
        return run_plan(plan, workers=workers, grid_subset=grid_subset, progress=progress)

    monkeypatch.setattr(simulation, "run_plan", spy)
    rc, _, err = simulate(capsys, changed, out, "--workers", 1)
    assert rc == 0
    assert "resuming" not in err
    assert evaluated == [0, 1]
    assert {name: (out / name).read_bytes() for name in want} == want


@pytest.fixture(scope="module")
def finished_power_run(tmp_path_factory):
    """The plan file and saved files of a finished two-point power run."""
    base = tmp_path_factory.mktemp("finished")
    plan = write_plan(base / "plan.cfg")
    assert cli.main(["simulate", "--plan", str(plan), "--out", str(base / "out"),
                     "--workers", "1"]) == 0
    return plan, {name: (base / "out" / name).read_bytes() for name in ("curve.csv", "manifest.json")}


@pytest.mark.parametrize("corrupt", ["manifest", "curve", "index-below-grid", "index-above-grid",
                                     "index-twice", "index-not-int", "curve-header-only",
                                     "curve-point-missing", "curve-rows-twice",
                                     "curve-rate-above-one"])
def test_simulate_unreadable_resume_files_exit_2_and_stay(tmp_path, capsys, corrupt,
                                                         finished_power_run):
    # a finished run's files, then corrupted
    plan, files = finished_power_run
    out = tmp_path / "out"
    out.mkdir()
    for name, data in files.items():
        (out / name).write_bytes(data)
    points = read_curve_csv(out / "curve.csv")
    completed = {"index-below-grid": [-1], "index-above-grid": [0, 2], "index-twice": [0, 0],
                 "index-not-int": [0, 1.0]}.get(corrupt)
    if completed is not None:
        manifest = json.loads(files["manifest.json"])
        manifest["completed"] = completed
        (out / "manifest.json").write_text(json.dumps(manifest))
    if corrupt == "manifest":
        (out / "manifest.json").write_text('{"kind": "power", "plan":')
    if corrupt == "curve":
        (out / "curve.csv").write_text("method,kind\ndem,je\n")
    if corrupt == "curve-header-only":
        write_curve_csv([], out / "curve.csv")
    if corrupt == "curve-point-missing":
        write_curve_csv(points[1:], out / "curve.csv")
    if corrupt == "curve-rows-twice":
        write_curve_csv(points + [p for p in points if p.grid_value == 1.02], out / "curve.csv")
    if corrupt == "curve-rate-above-one":
        write_curve_csv([replace(points[0], rate=1.5)] + points[1:], out / "curve.csv")
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    rc, _, err = simulate(capsys, plan, out, "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "cannot resume" in err or "unreadable curve file" in err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_simulate_reruns_a_finished_type1_plan_whole(tmp_path, capsys):
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0")
    out = tmp_path / "out"
    names = ("curve.csv", "manifest.json", "type1_table.csv", "pp_data.csv")
    assert simulate(capsys, plan, out, "--workers", 1)[0] == 0
    first = {name: (out / name).read_bytes() for name in names}
    rc, _, err = simulate(capsys, plan, out, "--workers", 1)
    assert rc == 0
    assert "resuming" not in err
    assert {name: (out / name).read_bytes() for name in names} == first


def test_simulate_type1_manifest_records_the_grid_that_ran(tmp_path, capsys):
    # a type-I plan runs only the null grid point, whatever grid the file gives
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="0.9, 1.1")
    out = tmp_path / "out"
    assert simulate(capsys, plan, out, "--workers", 1)[0] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["plan"]["grid"], manifest["completed"]) == ([1.0], [0])
    assert {p.grid_value for p in read_curve_csv(out / "curve.csv")} == {1.0}


def test_simulate_series_without_je_p_values_writes_nan_without_warnings(tmp_path, capsys):
    # x has no spread once rounded, so every dem replicate fails
    plan = write_plan(tmp_path / "plan.cfg", dict(xmin=5.0, xmax=5.0, n=20, sigmax="1e-9",
                                                   precision_x=2), kind="type1", grid="1.0")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = simulate(capsys, plan, out, "--workers", 1)
    assert rc == 0
    assert "Warning" not in err
    with (out / "pp_data.csv").open(newline="") as fh:
        rates = [row["empirical_rejection"] for row in csv.DictReader(fh)]
    assert len(rates) == 100 and set(rates) == {"nan"}


def test_simulate_pp_data_counts_the_replicates_each_series_rests_on(tmp_path, capsys):
    # on 2-significant-digit data the MCD scatter of some PaBa clouds is singular,
    # so the mcd series rests on fewer replicates than the classic one
    plan = write_plan(tmp_path / "plan.cfg", dict(precision_x=2, precision_y=2), kind="type1",
                      grid="1.0", methods="paba", cov_methods="classic, mcd", master_seed=5)
    out = tmp_path / "out"
    assert simulate(capsys, plan, out, "--workers", 1)[0] == 0
    with (out / "pp_data.csv").open(newline="") as fh:
        pp = list(csv.DictReader(fh))
    with (out / "type1_table.csv").open(newline="") as fh:
        table = {row["column"]: int(row["n_used"]) for row in csv.DictReader(fh)}
    used = {}
    for row in pp:
        used.setdefault(row["cov"], set()).add(int(row["n_used"]))
    assert used == {"classic": {table["JE.CLASSIC5%"]}, "mcd": {table["JE.MCD5%"]}}
    assert table["JE.MCD5%"] < table["JE.CLASSIC5%"] == 50


ARTIFACT_PLANS = {
    "type1": "[generator]\nxmin = 3.0\nxmax = 8.0\nn = 25\n\n[run]\nkind = type1\n"
             "methods = dem, paba\ncov_methods = classic, mcd\nreplicates = 50\nb = 199\n"
             "master_seed = 5\n",
    "power": "[generator]\nxmin = 3.0\nxmax = 8.0\nn = 25\n\n[run]\nkind = power\n"
             "methods = dem\ncov_methods = classic\n"
             "grid = 0.96, 0.97, 0.98, 0.99, 1.0, 1.01, 1.02, 1.03, 1.04\n"
             "replicates = 50\nb = 199\nmaster_seed = 5\n",
}
# sha256 of each simulate artifact of ARTIFACT_PLANS, recorded before the two
# plan kinds shared one stream loop; pp_data.csv's was re-recorded when it
# gained its n_used column, and without that column it keeps the old bytes
ARTIFACT_SHA256 = {
    "type1/curve.csv": "58b3c4489b430e5194c4817561a958630fee7ef11df38b9ffaf43e6cd4c6da13",
    "type1/manifest.json": "72d3b93eb8b745aabe33982e8d67cd619ce764ccde3acce33e6dc9b3f02c6a2f",
    "type1/type1_table.csv": "22ba39c31dc99738f97f9ddb7b03e1931caed1cf7c17a3d48adbe33fa4c14e33",
    "type1/pp_data.csv": "b9115b2e88fd9431591c7c75e921bda882a051cf213ee99de4e22987e9c579e0",
    "power/curve.csv": "fa53ad50655d716f16c0470cbb86a06131a02a4e9da70ccc1c99700e926cbe8e",
    "power/manifest.json": "b86fead07acf55753ab5548b47d73898993b6b8e97e9c1ef83c894f907ecf754",
}
PP_DATA_WITHOUT_N_USED_SHA256 = "d5100639536a94cc3278a2376bea30492c64b3af9052b4fabbc009b69f931e10"
# fit-power on the power plan's curve.csv, recorded with those hashes; compared by
# value, since the fit's 4x4 solve may differ in its last bits between BLAS kernels
POWER_TABLE = [
    ["dem", "ci_total", "", "0.05", "1.0182752181237817", "1.0182752181237817",
     "1.025903616602629", "0.789668469702361", "0.8714690667056408", "0.9532696637089206", ""],
    ["dem", "je", "classic", "0.01", "1.0095039906576588", "1.0105677089130323",
     "1.0117002415906542", "0.9167023516207796", "0.9704922646630557", "1.0242821777053317", ""],
    ["dem", "je", "classic", "0.05", "1.005344192754647", "1.0059956819660618",
     "1.0066158289741596", "0.8890011966718618", "0.9182660410483852", "0.9475308854249085", ""],
]


def test_simulate_and_fit_power_artifacts_keep_their_bytes(tmp_path, capsys):
    for kind, text in ARTIFACT_PLANS.items():
        (tmp_path / f"{kind}.cfg").write_text(text)
        assert simulate(capsys, tmp_path / f"{kind}.cfg", tmp_path / kind, "--workers", 1)[0] == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ARTIFACT_SHA256}
    assert got == ARTIFACT_SHA256
    pp_lines = (tmp_path / "type1" / "pp_data.csv").read_bytes().split(b"\r\n")[:-1]
    assert hashlib.sha256(b"".join(line.rsplit(b",", 1)[0] + b"\r\n" for line in pp_lines)
                          ).hexdigest() == PP_DATA_WITHOUT_N_USED_SHA256
    assert sorted(f.name for f in (tmp_path / "type1").iterdir()) == [
        "curve.csv", "manifest.json", "pp_data.csv", "type1_table.csv"]
    assert sorted(f.name for f in (tmp_path / "power").iterdir()) == ["curve.csv", "manifest.json"]

    rc, _, _ = run(capsys, "fit-power", "--curves", tmp_path / "power" / "curve.csv",
                   "--out", tmp_path / "fit")
    assert rc == 0
    with (tmp_path / "fit" / "power_table.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["method", "kind", "cov", "alpha", "p80_lci", "p80_est", "p80_uci",
                      "t1_lci", "t1_est", "t1_uci", "note"]
    assert [row[:4] + row[-1:] for row in rows] == [row[:4] + row[-1:] for row in POWER_TABLE]
    for row, want in zip(rows, POWER_TABLE):
        assert [float(v) for v in row[4:-1]] == pytest.approx([float(v) for v in want[4:-1]],
                                                              rel=1e-9)


# acceptance bumps of two fittable series; the third has one grid point too few.
# No grid value sits on a peak: there the fit can stall once the shape dips below 1.
POWER_SERIES = {("dem", "je", "classic", 0.05): (SubbotinParams(0.084, 2.0, 0.05, 1.0), 10),
                ("paba", "ci_total", "", 0.05): (SubbotinParams(0.1, 1.5, 0.06, 1.01), 9),
                ("dem", "je", "classic", 0.01): (SubbotinParams(0.084, 2.0, 0.05, 1.0), MIN_POINTS - 1)}


def write_power_curve(path):
    points = []
    for (method, kind, cov, alpha), (params, size) in POWER_SERIES.items():
        grid = np.linspace(0.88, 1.12, size)
        rate = 1.0 - subbotin_density(grid, params)
        points += [CurvePoint(method, kind, cov, alpha, float(g), float(r), 0.01, 200, 0, 200)
                   for g, r in zip(grid, rate)]
    write_curve_csv(points, path)
    return path


def test_fit_power_tabulates_each_fittable_series(tmp_path, capsys):
    curves = write_power_curve(tmp_path / "curve.csv")
    rc, out, _ = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out")
    assert rc == 0 and out == f"wrote {tmp_path / 'out' / 'power_table.csv'}\n"
    with (tmp_path / "out" / "power_table.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    fittable = sorted(key for key, (_, size) in POWER_SERIES.items() if size >= MIN_POINTS)
    assert [(r["method"], r["kind"], r["cov"], float(r["alpha"])) for r in rows] == fittable
    for row, key in zip(rows, fittable):
        params = POWER_SERIES[key][0]
        want = invert_for_power(params).estimate
        assert float(row["p80_est"]) == pytest.approx(want, abs=1e-6)
        assert row["note"] == ""


@pytest.mark.parametrize("flag, value", [("--target", 0), ("--target", 1), ("--target", -0.2),
                                         ("--null-value", "inf"), ("--null-value", "nan"),
                                         ("--out", "a-file")])
def test_fit_power_bad_flag_value_exits_2(tmp_path, capsys, flag, value):
    curves = write_power_curve(tmp_path / "curve.csv")
    write_unusable_paths(tmp_path)
    if flag == "--out":
        value = tmp_path / value
    rc, _, err = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out", flag, value)
    assert rc == 2
    assert_one_line_error(err)
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "a-file").read_text() == ""


def test_fit_power_reads_a_curve_file_with_a_byte_order_mark(tmp_path, capsys):
    curves = write_power_curve(tmp_path / "curve.csv")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + curves.read_bytes())
    for path, out in ((curves, "out"), (bom, "out-bom")):
        rc, _, _ = run(capsys, "fit-power", "--curves", path, "--out", tmp_path / out)
        assert rc == 0
    table = (tmp_path / "out" / "power_table.csv").read_bytes()
    assert (tmp_path / "out-bom" / "power_table.csv").read_bytes() == table


def test_fit_power_unreadable_curve_file_exits_2(tmp_path, capsys):
    curves = tmp_path / "curve.csv"
    curves.write_text("method,kind,cov,alpha,grid_value,rate\ndem,je,classic,0.05,1.0,abc\n")
    rc, _, err = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert not (tmp_path / "out").exists()

    # fittable series beside one row whose kind is not a verdict kind
    curves = write_power_curve(tmp_path / "curve.csv")
    with curves.open("a") as fh:
        fh.write("dem,JE,classic,0.05,1.0,0.1,0.01,200,0,200\r\n")
    rc, _, err = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert "'JE'" in err
    assert not (tmp_path / "out").exists()


def test_fit_power_rate_outside_0_1_exits_2(tmp_path, capsys):
    # a rate of -0.1 was fitted into nonsense power levels, one of 1e10 into overflow warnings
    curves = tmp_path / "curve.csv"
    points = read_curve_csv(write_power_curve(curves))
    write_curve_csv([replace(points[0], rate=1.5), replace(points[1], rate=-0.1)] + points[2:],
                    curves)
    rc, _, err = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert str(curves) in err and "rate 1.5" in err
    assert not (tmp_path / "out").exists()


def test_fit_power_series_with_every_rate_nan_exits_2(tmp_path, capsys):
    # nine grid points of one series, each with every replicate failed
    curves = tmp_path / "curve.csv"
    points = [CurvePoint("dem", "je", "classic", 0.05, g, float("nan"), float("nan"), 0, 100, 100)
              for g in (0.96, 0.97, 0.98, 0.99, 1.0, 1.01, 1.02, 1.03, 1.04)]
    write_curve_csv(points, curves)
    rc, _, err = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert "series dem,je,classic,0.05" in err and "is nan" in err
    assert "minimum" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_paper_scale_multiplies_replicates(tmp_path, capsys):
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0", paper_factor=2)
    out = tmp_path / "out"
    rc, _, _ = simulate(capsys, plan, out, "--scale", "paper", "--workers", 1)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "type1"
    assert manifest["plan"]["replicates"] == 100
    assert (out / "type1_table.csv").exists()
