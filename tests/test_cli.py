"""Command-line contract: exit codes, artifacts, resume, scale, input errors."""

import json
import xml.etree.ElementTree as ET

import pytest

import mcjoint as mj
from mcjoint import cli, simulation
from mcjoint.dataset import GeneratorSpec, hemoglobin_path
from mcjoint.simulation import read_curve_csv, write_curve_csv

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


@pytest.mark.parametrize("flag, value", [
    ("--ci-alpha", 0), ("--ci-alpha", 1.5), ("--je-alpha", 1.5), ("--lam", 0), ("--b", 10),
])
def test_validate_bad_flag_value_exits_2(tmp_path, capsys, flag, value):
    rc, _, err = run(capsys, "validate", "--input", hemoglobin_path(), "--out", tmp_path / "out",
                     "--method", "dem", "--cov", "classic", "--b", 199, flag, value)
    assert rc == 2
    assert_one_line_error(err)
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


@pytest.mark.parametrize("key, value", [
    ("b", 100), ("ci_alpha", 0), ("je_alphas", "0.05, 1.5"), ("je_alphas", ","),
    ("methods", ","), ("paper_factor", 0), ("je_alphas", "0.05, abc"),
])
def test_simulate_out_of_range_plan_value_exits_2(tmp_path, capsys, key, value):
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0", **{key: value})
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "malformed plan" in err
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


def test_simulate_unknown_kind_exits_2(tmp_path, capsys):
    plan = write_plan(tmp_path / "plan.cfg", kind="typo1")
    rc, _, err = simulate(capsys, plan, tmp_path / "out", "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
    assert "typo1" in err
    assert not (tmp_path / "out").exists()


def test_simulate_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MCJOINT_THREADS", "abc")
    plan = write_plan(tmp_path / "plan.cfg")
    rc, _, err = simulate(capsys, plan, tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
    assert "MCJOINT_THREADS" in err


def test_simulate_caps_the_pool_at_the_task_count(tmp_path, capsys, monkeypatch):
    sizes = []
    starts = []

    class RecordingPool:
        """Stands in for the process pool: records its size and start method, runs tasks here."""

        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)
            starts.append(mp_context.get_start_method())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("MCJOINT_THREADS", "64")
    plan = write_plan(tmp_path / "plan.cfg", kind="type1", grid="1.0")
    rc, _, _ = simulate(capsys, plan, tmp_path / "out")
    assert rc == 0
    # 64 workers get one-replicate chunks, so 50 replicates make 50 tasks
    assert sizes == [50]
    # spawned workers import numpy under mcjoint's BLAS pin; forked ones
    # would inherit the caller's BLAS threads
    assert starts == ["spawn"]


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
    run_plan = cli.run_plan

    def spy(plan, workers=None, grid_subset=None, progress=None):
        evaluated.extend(grid_subset)
        return run_plan(plan, workers=workers, grid_subset=grid_subset, progress=progress)

    monkeypatch.setattr(cli, "run_plan", spy)
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


@pytest.mark.parametrize("corrupt", ["manifest", "curve"])
def test_simulate_unreadable_resume_files_exit_2_and_stay(tmp_path, capsys, corrupt):
    plan = write_plan(tmp_path / "plan.cfg")
    out = tmp_path / "out"
    out.mkdir()
    _, parsed, _ = cli.parse_plan(plan)
    simulation.write_manifest(out / "manifest.json", parsed, [0], "power")
    (out / "curve.csv").write_text("method,kind\ndem,je\n")
    if corrupt == "manifest":
        (out / "manifest.json").write_text('{"kind": "power", "plan":')
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    rc, _, err = simulate(capsys, plan, out, "--workers", 1)
    assert rc == 2
    assert_one_line_error(err)
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


def test_fit_power_unreadable_curve_file_exits_2(tmp_path, capsys):
    curves = tmp_path / "curve.csv"
    curves.write_text("method,kind,cov,alpha,grid_value,rate\ndem,je,classic,0.05,1.0,abc\n")
    rc, _, err = run(capsys, "fit-power", "--curves", curves, "--out", tmp_path / "out")
    assert rc == 2
    assert_one_line_error(err)
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
