"""Monte Carlo harness: determinism, shared datasets, aggregation, IO."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import mcjoint as mj
from mcjoint.dataset import GeneratorSpec
from mcjoint.simulation import (
    SimulationPlan,
    aggregate_curve,
    curve_rows,
    evaluate_replicate,
    read_curve_csv,
    run_plan,
    type1_study,
    power_study,
    write_curve_csv,
)

GEN = GeneratorSpec(xmin=3, xmax=8, n=25, sigmax=0.12, sigmay=0.12)


def small_plan(**kw):
    base = dict(generator=GEN, methods=("dem",), cov_methods=("classic",),
                grid_param="slope", grid=(1.0,), replicates=50, B=199,
                master_seed=99)
    base.update(kw)
    return SimulationPlan(**base)


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


def test_serial_parallel_identical():
    plan = small_plan(grid=(0.9, 1.0, 1.1), replicates=50, methods=("dem", "paba"))
    serial = run_plan(plan, workers=1)
    parallel = run_plan(plan, workers=2)
    assert serial == parallel
    c1 = aggregate_curve(plan, serial)
    c2 = aggregate_curve(plan, parallel)
    assert curve_rows(c1.points) == curve_rows(c2.points)


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
    r1 = run_plan(p1, workers=1)
    r2 = run_plan(p2, workers=1)
    for rec1, rec2 in zip(r1[0], r2[0]):
        assert rec1["dem"] == rec2["dem"]


def test_type1_study_requires_null_generator():
    with pytest.raises(mj.ValidationError):
        type1_study(small_plan(generator=GeneratorSpec(
            xmin=3, xmax=8, n=25, slope=1.1, sigmax=0.12, sigmay=0.12)))


def test_type1_study_reasonable_acceptance():
    table = type1_study(small_plan(replicates=60, methods=("dem",)), workers=2)
    acc = table.acceptance("dem", "ci_total", "", 0.05)
    assert 0.7 <= acc <= 1.0
    nom, emp = table.pp_curve("dem", "classic")
    assert emp[0] <= emp[-1]  # empirical rejection grows with nominal alpha
    assert np.all((emp >= 0) & (emp <= 1))


def test_power_study_extreme_slopes_reject():
    plan = small_plan(grid=(0.5, 1.0, 2.0), replicates=50,
                      generator=GeneratorSpec(xmin=3, xmax=8, n=30,
                                              sigmax=0.12, sigmay=0.12))
    curve = power_study(plan, workers=2)
    grid, rate, se = curve.series("dem", "ci_total", "", 0.05)
    assert rate[0] > 0.9 and rate[-1] > 0.9
    assert rate[1] < 0.4
    grid, rate, _ = curve.series("dem", "je", "classic", 0.01)
    assert rate[0] > 0.9 and rate[-1] > 0.9


def test_power_study_needs_other_param_at_null():
    with pytest.raises(mj.ValidationError):
        power_study(small_plan(
            grid=(0.9, 1.0, 1.1),
            generator=GeneratorSpec(xmin=3, xmax=8, n=25, intercept=0.5,
                                    sigmax=0.12, sigmay=0.12)))


def test_binomial_se_formula():
    plan = small_plan(grid=(0.8, 1.0, 1.25), replicates=50)
    curve = power_study(plan, workers=1)
    for p in curve.points:
        if np.isfinite(p.rate):
            assert p.se == pytest.approx(
                np.sqrt(p.rate * (1 - p.rate) / p.n_used), abs=1e-12)


def test_curve_csv_roundtrip(tmp_path):
    plan = small_plan(grid=(0.9, 1.0, 1.1), replicates=50)
    curve = power_study(plan, workers=1)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve.points, path)
    points = read_curve_csv(path)
    assert len(points) == len(curve.points)
    orig = {(p.method, p.kind, p.cov, p.alpha, p.grid_value): p for p in curve.points}
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
    atom_rough = power_study(_with_grid(rough), workers=1).atom_fraction["paba"]
    atom_smooth = power_study(_with_grid(smooth), workers=1).atom_fraction["paba"]
    assert np.nanmean(atom_rough) > 2 * np.nanmean(atom_smooth)


def _with_grid(plan):
    from dataclasses import replace

    return replace(plan, grid=(0.95, 1.0, 1.05))
