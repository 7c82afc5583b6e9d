"""Monte Carlo harness: determinism, shared datasets, aggregation, IO."""

import csv
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import cli, simulation
from mcjoint.dataset import GeneratorSpec
from mcjoint.simulation import (
    SimulationPlan,
    aggregate_curve,
    check_power_plan,
    curve_rows,
    evaluate_replicate,
    parse_plan,
    plan_to_dict,
    read_curve_csv,
    run_plan,
    write_curve_csv,
)

GEN = GeneratorSpec(xmin=3, xmax=8, n=25, sigmax=0.12, sigmay=0.12)


def small_plan(**kw):
    base = dict(generator=GEN, methods=("dem",), cov_methods=("classic",),
                grid_param="slope", grid=(1.0,), replicates=50, B=199,
                master_seed=99)
    base.update(kw)
    return SimulationPlan(**base)


def power_curve(plan, workers):
    """The curve points of a power plan over its whole grid."""
    check_power_plan(plan)
    return aggregate_curve(plan, dict(run_plan(plan, workers=workers)))


def series(points, method, kind, cov, alpha):
    """(grid, rate) arrays of one verdict family, in grid order."""
    sel = sorted((p.grid_value, p.rate) for p in points
                 if (p.method, p.kind, p.cov, p.alpha) == (method, kind, cov, alpha))
    return np.array([g for g, _ in sel]), np.array([r for _, r in sel])


def test_plan_validation():
    with pytest.raises(mj.ValidationError):
        small_plan(replicates=10)
    with pytest.raises(mj.ValidationError):
        small_plan(grid=())
    with pytest.raises(mj.ValidationError):
        small_plan(grid=(1.2, 1.0))  # unsorted
    with pytest.raises(mj.ValidationError):
        small_plan(methods=("nope",))
    with pytest.raises(mj.ValidationError):
        small_plan(methods=())
    with pytest.raises(mj.ValidationError):
        small_plan(cov_methods=("nope",))
    with pytest.raises(mj.ValidationError):
        small_plan(grid_param="sigma")
    with pytest.raises(mj.ValidationError, match="je_alphas must not be empty"):
        small_plan(je_alphas=())
    for name, bad in (("ci_alpha", 0.0), ("ci_alpha", 1.5), ("je_alphas", (0.05, 2.0)),
                      ("je_alphas", (-1.0,))):
        with pytest.raises(mj.ValidationError, match=rf"^{name} must be in \(0, 1\)"):
            small_plan(**{name: bad})
    # a value listed twice would give two series of one name
    for repeat in (dict(methods=("dem", "dem")), dict(cov_methods=("classic", "CLASSIC")),
                   dict(je_alphas=(0.05, 0.05))):
        with pytest.raises(mj.ValidationError, match="twice"):
            small_plan(**repeat)


def test_plan_rejects_a_level_whose_upper_quantile_rounds_to_1_and_a_huge_B():
    for name, bad in (("ci_alpha", 1e-17), ("je_alphas", (0.05, 1e-17))):
        with pytest.raises(mj.ValidationError, match=rf"^{name} must exceed 2\*\*-53"):
            small_plan(**{name: bad})
    for B in (100, 100_001, 100_000_000_000):
        with pytest.raises(mj.ValidationError, match=r"^B must be in \[199, 100000\], got"):
            small_plan(B=B)


def test_serial_parallel_identical():
    plan = small_plan(grid=(0.9, 1.0, 1.1), replicates=50, methods=("dem", "paba"))
    serial = dict(run_plan(plan, workers=1))
    parallel = dict(run_plan(plan, workers=2))
    assert serial == parallel
    assert curve_rows(aggregate_curve(plan, serial)) == curve_rows(aggregate_curve(plan, parallel))


def test_run_plan_streams_grid_points_in_request_order():
    plan = small_plan(grid=(0.9, 1.0, 1.1), replicates=50)
    counts = []
    got = list(run_plan(plan, workers=1, grid_subset=[2, 0],
                        progress=lambda done, total: counts.append((done, total))))
    assert [gi for gi, _ in got] == [2, 0]
    assert all(len(recs) == 50 for _, recs in got)
    assert counts == sorted(counts) and counts[-1] == (100, 100)
    # a grid point's records do not depend on the other points requested
    assert dict(got)[0] == dict(run_plan(plan, workers=1, grid_subset=[0]))[0]


def test_mmdem_replicates_repeatable_serial_and_spawned():
    plan = small_plan(generator=GeneratorSpec(xmin=3, xmax=8, n=40), methods=("mmdem",))
    tasks = [(plan, 0, 0), (plan, 0, 1)]
    first = [repr(evaluate_replicate(*t)) for t in tasks]
    second = [repr(evaluate_replicate(*t)) for t in tasks]
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        spawned = [repr(rec) for rec in pool.map(evaluate_replicate, *zip(*tasks))]
    assert first == second == spawned
    assert all("'ok': True" in rec and "'classic': None" not in rec for rec in first)


def test_same_datasets_across_method_sets():
    # per-replicate samples depend only on (seed, grid, replicate): a plan
    # with more methods sees the identical data, so shared columns agree
    p1 = small_plan(methods=("dem",))
    p2 = small_plan(methods=("dem", "paba"))
    r1 = dict(run_plan(p1, workers=1))
    r2 = dict(run_plan(p2, workers=1))
    for rec1, rec2 in zip(r1[0], r2[0]):
        assert rec1["dem"] == rec2["dem"]


def read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_type1_plan_reasonable_acceptance(tmp_path):
    # small_plan(replicates=60) as a plan file, run by ``mcjoint simulate``
    plan = tmp_path / "plan.cfg"
    plan.write_text("[generator]\nxmin = 3\nxmax = 8\nn = 25\nsigmax = 0.12\nsigmay = 0.12\n"
                    "[run]\nkind = type1\nmethods = dem\ncov_methods = classic\n"
                    "replicates = 60\nb = 199\nmaster_seed = 99\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--plan", str(plan), "--out", str(out), "--workers", "2"]) == 0
    table = {row["column"]: float(row["acceptance"]) for row in read_rows(out / "type1_table.csv")}
    acc = table["tot.CI5%"]
    assert 0.7 <= acc <= 1.0
    pp = read_rows(out / "pp_data.csv")
    assert {(row["method"], row["cov"]) for row in pp} == {("dem", "classic")}
    emp = np.array([float(row["empirical_rejection"]) for row in pp])
    assert emp[0] <= emp[-1]  # empirical rejection grows with nominal alpha
    assert np.all((emp >= 0) & (emp <= 1))


@pytest.mark.parametrize("methods", [("dem",), ("dem", "paba")])
@pytest.mark.parametrize("covs", [(), ("classic",), ("classic", "mcd"), ("classic", "mcd", "sde")])
@pytest.mark.parametrize("alphas", [(0.05,), (0.05, 0.01)])
def test_grid_point_has_one_point_per_method_kind_and_series(methods, covs, alphas):
    plan = small_plan(methods=methods, cov_methods=covs, je_alphas=alphas)
    points = aggregate_curve(plan, {0: []})
    assert len(points) == len(methods) * (3 + len(covs) * len(alphas))
    assert all(np.isnan(p.rate) and p.n_used == 0 for p in points)
    per_method = [("ci_int", "", 0.05), ("ci_slope", "", 0.05), ("ci_total", "", 0.05)] + [
        ("je", cov, alpha) for cov in covs for alpha in alphas]
    assert [(p.method, p.kind, p.cov, p.alpha) for p in points] == [
        (m, *series) for m in methods for series in per_method]


def test_type1_table_has_one_labelled_column_per_method_and_series(tmp_path, monkeypatch):
    # every replicate: intercept CI covers 0, slope CI misses 1, JE p 0.03 on classic, none on mcd
    plan = small_plan(methods=("dem", "paba"), cov_methods=("classic", "mcd"),
                      ci_alpha=0.1, je_alphas=(0.05, 0.01))
    entry = {"ok": True, "int_ok": True, "slope_ok": False, "atom": 0.01,
             "je": {"classic": 0.03, "mcd": None}}
    records = [{"dem": entry, "paba": entry}] * 50
    monkeypatch.setattr(simulation, "run_plan", lambda *args, **kw: iter([(0, records)]))
    simulation.simulate(plan, "type1", tmp_path, 1, None)
    columns = [("int.CI10%", "1.0", "50"), ("sl.CI10%", "0.0", "50"), ("tot.CI10%", "0.0", "50"),
               ("JE.CLASSIC5%", "0.0", "50"), ("JE.CLASSIC1%", "1.0", "50"),
               ("JE.MCD5%", "nan", "0"), ("JE.MCD1%", "nan", "0")]
    assert [tuple(row.values()) for row in read_rows(tmp_path / "type1_table.csv")] == [
        (method, *column) for method in plan.methods for column in columns]
    pp = read_rows(tmp_path / "pp_data.csv")
    assert {(row["cov"], row["empirical_rejection"]) for row in pp} == {
        ("classic", "0.0"), ("classic", "1.0"), ("mcd", "nan")}


def test_power_study_extreme_slopes_reject():
    plan = small_plan(grid=(0.5, 1.0, 2.0), replicates=50,
                      generator=GeneratorSpec(xmin=3, xmax=8, n=30,
                                              sigmax=0.12, sigmay=0.12))
    curve = power_curve(plan, workers=2)
    grid, rate = series(curve, "dem", "ci_total", "", 0.05)
    assert list(grid) == [0.5, 1.0, 2.0]
    assert rate[0] > 0.9 and rate[-1] > 0.9
    assert rate[1] < 0.4
    grid, rate = series(curve, "dem", "je", "classic", 0.01)
    assert rate[0] > 0.9 and rate[-1] > 0.9


def test_power_study_needs_other_param_at_null():
    with pytest.raises(mj.ValidationError):
        power_curve(small_plan(
            grid=(0.9, 1.0, 1.1),
            generator=GeneratorSpec(xmin=3, xmax=8, n=25, intercept=0.5,
                                    sigmax=0.12, sigmay=0.12)), workers=1)


def test_every_shipped_plan_parses_under_its_kind():
    shipped = sorted((Path(mj.__file__).parent / "plans").glob("*.cfg"))
    assert shipped
    for path in shipped:
        kind, plan, factor = parse_plan(path)
        assert kind in ("type1", "power") and factor >= 1, path
        assert isinstance(plan, SimulationPlan)


def test_plan_file_round_trips_every_field(tmp_path):
    # every field off its default but slope, which a power plan over the
    # intercept holds at the null, and the per-replicate seed, not a plan key
    generator = GeneratorSpec(xmin=2.5, xmax=9.5, n=31, intercept=0.3, sigmax=0.2, sigmay=0.25,
                              error_model="mixed", precision_x=3, precision_y=4, detmin=0.05)
    plan = SimulationPlan(generator, methods=("paba", "mdem"), cov_methods=("classic", "sde"),
                          grid_param="intercept", grid=(-0.5, 0.25, 1.5), replicates=60, B=299,
                          ci_alpha=0.1, je_alphas=(0.1,), master_seed=11)
    for value in (generator, plan):
        assert [f.name for f in fields(value) if getattr(value, f.name) == f.default
                and f.name not in ("slope", "seed")] == []

    def section(values):
        return "".join(f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
                       for key, v in values.items())

    run = plan_to_dict(plan)
    gen = run.pop("generator")
    path = tmp_path / "plan.cfg"
    path.write_text(f"[generator]\n{section(gen)}\n[run]\n{section(run)}"
                    "kind = power\npaper_factor = 3\n")
    assert parse_plan(path) == ("power", plan, 3)


def test_binomial_se_formula():
    plan = small_plan(grid=(0.8, 1.0, 1.25), replicates=50)
    curve = power_curve(plan, workers=1)
    for p in curve:
        if np.isfinite(p.rate):
            assert p.se == pytest.approx(
                np.sqrt(p.rate * (1 - p.rate) / p.n_used), abs=1e-12)


def test_curve_csv_roundtrip(tmp_path):
    plan = small_plan(grid=(0.9, 1.0, 1.1), replicates=50)
    curve = power_curve(plan, workers=1)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    points = read_curve_csv(path)
    assert len(points) == len(curve)
    orig = {(p.method, p.kind, p.cov, p.alpha, p.grid_value): p for p in curve}
    for p in points:
        q = orig[(p.method, p.kind, p.cov, p.alpha, p.grid_value)]
        assert p == q


def test_atom_fraction_diagnostic_tracks_precision():
    rough = small_plan(
        methods=("paba",),
        generator=GeneratorSpec(xmin=3, xmax=8, n=25, sigmax=0.12, sigmay=0.12,
                                precision_x=2, precision_y=2),
        replicates=50)
    smooth = small_plan(methods=("paba",), replicates=50)
    atom_rough = mean_atom(_with_grid(rough))
    atom_smooth = mean_atom(_with_grid(smooth))
    assert atom_rough > 2 * atom_smooth


def mean_atom(plan):
    """Mean over grid points of the per-point mean largest PaBa slope atom."""
    per_point = []
    for _, recs in run_plan(plan, workers=1):
        atoms = [rec["paba"]["atom"] for rec in recs if rec["paba"]["ok"]]
        per_point.append(np.mean(atoms) if atoms else np.nan)
    return np.nanmean(per_point)


def _with_grid(plan):
    return replace(plan, grid=(0.95, 1.0, 1.05))
