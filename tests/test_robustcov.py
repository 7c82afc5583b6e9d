"""Covariance estimators: oracles, contamination, calibration, geometry."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.special import gammaincinv
from scipy.stats import chi2

import mcjoint as mj
from mcjoint.robustcov import (
    classic_cov,
    ellipse_from,
    ellipse_points,
    estimate_cov,
    fast_mcd,
    mahalanobis_sq,
    rocke_cov,
    s_cov,
    stahel_donoho,
)


def gaussian_cloud(B, seed, transform=None, center=(0.0, 0.0)):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(B, 2))
    if transform is not None:
        Z = Z @ np.asarray(transform).T
    return Z + np.asarray(center)


# -- classic -----------------------------------------------------------------

def test_classic_hand_computed():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    m = classic_cov(pts)
    np.testing.assert_allclose(m.center, [0.5, 0.5])
    np.testing.assert_allclose(m.scatter, np.eye(2) / 3.0, atol=1e-15)


def test_classic_identical_points_singular():
    with pytest.raises(mj.SingularCovarianceError):
        classic_cov(np.ones((20, 2)))


def test_classic_large_cloud_matches_sigma():
    Z = gaussian_cloud(10_000, 3, transform=np.diag([1.7, 0.6]))
    m = classic_cov(Z)
    assert abs(m.scatter[0, 0] - 1.7**2) / 1.7**2 < 0.05
    assert abs(m.scatter[1, 1] - 0.6**2) / 0.6**2 < 0.05


# -- FAST-MCD ----------------------------------------------------------------

def _mcd_exhaustive(Z, h):
    """Enumerate every h-subset; smallest covariance determinant wins."""
    idx = np.array(list(combinations(range(len(Z)), h)))
    best = math.inf
    for chunk in np.array_split(idx, max(1, len(idx) // 20000)):
        s0 = Z[:, 0][chunk]
        s1 = Z[:, 1][chunk]
        d0 = s0 - s0.mean(axis=1, keepdims=True)
        d1 = s1 - s1.mean(axis=1, keepdims=True)
        sxx = (d0 * d0).sum(axis=1)
        syy = (d1 * d1).sum(axis=1)
        sxy = (d0 * d1).sum(axis=1)
        det = (sxx * syy - sxy * sxy) / (h - 1) ** 2
        best = min(best, float(det.min()))
    return best


@pytest.mark.slow
def test_mcd_objective_matches_exhaustive_search():
    rng = np.random.default_rng(2024)
    sizes = list(rng.integers(10, 17, 170)) + list(rng.integers(17, 21, 30))
    for trial, B in enumerate(sizes):
        B = int(B)
        Z = rng.normal(size=(B, 2)) * rng.uniform(0.5, 2.0, 2)
        if trial % 3 == 0:  # sprinkle outliers
            Z[: B // 5] += rng.normal(0, 10, (B // 5, 2))
        model = fast_mcd(Z, seed=trial)
        assert model.raw_det is not None
        oracle = _mcd_exhaustive(Z, model.h)
        assert model.raw_det == pytest.approx(oracle, rel=1e-9, abs=1e-300)


def test_mcd_center_close_to_mean_on_clean_data():
    Z = gaussian_cloud(800, 9)
    m = fast_mcd(Z, seed=1)
    se = 1.0 / math.sqrt(800)
    assert np.all(np.abs(m.center - Z.mean(axis=0)) < 3 * se / 0.5)


def test_mcd_resists_gross_contamination():
    Z = gaussian_cloud(500, 10)
    dirty = Z.copy()
    dirty[:100] = gaussian_cloud(100, 11, center=(10.0, 10.0))
    clean_eigs = np.linalg.eigvalsh(fast_mcd(Z, seed=2).scatter)
    dirty_eigs = np.linalg.eigvalsh(fast_mcd(dirty, seed=2).scatter)
    classic_eigs = np.linalg.eigvalsh(classic_cov(dirty).scatter)
    assert np.all(np.abs(dirty_eigs - clean_eigs) / clean_eigs < 0.30)
    assert classic_eigs[-1] > 2.0 * clean_eigs[-1]


def test_mcd_exact_fit_reported_not_inverted():
    t = np.linspace(0, 1, 30)
    line = np.column_stack([t, 2.0 * t + 1.0])
    m = fast_mcd(line, seed=0)
    assert m.singular
    assert m.raw_det == 0.0
    with pytest.raises(mj.SingularCovarianceError):
        mahalanobis_sq(m, np.array([0.0, 1.0]))


@pytest.mark.parametrize("k", [1e-100, 1e-150, 1e-160])
def test_mcd_of_a_cloud_whose_squares_underflow_is_singular(k):
    # the subset guess divided by its trace's underflowed square: ZeroDivisionError
    assert fast_mcd(gaussian_cloud(199, 0) * k).singular


def test_mcd_deterministic_per_seed():
    Z = gaussian_cloud(300, 12)
    a = fast_mcd(Z, seed=5)
    b = fast_mcd(Z, seed=5)
    np.testing.assert_array_equal(a.scatter, b.scatter)


# -- Stahel-Donoho ------------------------------------------------------------

def test_sde_center_exact_for_point_symmetric_cloud():
    rng = np.random.default_rng(21)
    half = rng.normal(size=(60, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]])
    c = np.array([3.0, -2.0])
    Z = np.vstack([c + half, c - half])  # exactly symmetric about c
    m = stahel_donoho(Z, seed=2)
    np.testing.assert_allclose(m.center, c, atol=1e-6)


def test_sde_close_to_classic_on_clean_data():
    Z = gaussian_cloud(2000, 22, transform=[[1.3, 0.5], [0.0, 0.8]])
    sde = stahel_donoho(Z, seed=3)
    cls = classic_cov(Z)
    assert np.all(np.abs(sde.scatter - cls.scatter) < 0.10 * np.abs(cls.scatter).max())


def test_sde_resists_contamination_like_mcd():
    Z = gaussian_cloud(500, 23)
    dirty = Z.copy()
    dirty[:100] = gaussian_cloud(100, 24, center=(10.0, 10.0))
    clean_eigs = np.linalg.eigvalsh(stahel_donoho(Z, seed=4).scatter)
    dirty_eigs = np.linalg.eigvalsh(stahel_donoho(dirty, seed=4).scatter)
    assert np.all(np.abs(dirty_eigs - clean_eigs) / clean_eigs < 0.35)


def test_sde_at_b199_projects_in_blocks():
    # at validate's least B, as at any B, the projections are formed one
    # block of the 1000 directions at a time, so no (B, directions) matrix
    # is held whole: about 0.6 MB at peak
    cloud = mj.bootstrap(mj.load_hemoglobin(), "dem", B=199, seed=0).pairs
    tracemalloc.start()
    try:
        stahel_donoho(cloud, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# -- S estimators -------------------------------------------------------------

def test_s_cov_close_to_classic_on_clean_data():
    Z = gaussian_cloud(200, 31, transform=[[1.0, 0.2], [0.0, 0.6]])
    s = s_cov(Z)
    c = classic_cov(Z)
    scale = np.abs(c.scatter).max()
    assert np.all(np.abs(s.scatter - c.scatter) < 0.25 * scale)


def test_s_cov_collinear_fails_loudly():
    t = np.linspace(0, 1, 40)
    line = np.column_stack([t, t])
    with pytest.raises(mj.McjointError):
        s_cov(line)


def test_rocke_cov_runs_and_resists():
    Z = gaussian_cloud(200, 32)
    dirty = Z.copy()
    dirty[:30] += np.array([8.0, -8.0])
    m = rocke_cov(dirty)
    eigs = np.linalg.eigvalsh(m.scatter)
    assert eigs[-1] < 3.0  # classic would blow far past this


def test_mm_start_slope_from_s_cov():
    rng = np.random.default_rng(33)
    x = rng.uniform(0, 10, 300)
    y = 2.0 * x + rng.normal(0, 0.5, 300)
    m = s_cov(np.column_stack([x, y]))
    sxx, sxy, syy = m.scatter[0, 0], m.scatter[0, 1], m.scatter[1, 1]
    slope = 0.5 * (sxy / sxx + syy / sxy)
    assert 1.8 <= slope <= 2.2


# -- calibration and invariance ------------------------------------------------

@pytest.mark.parametrize("method", ["classic", "mcd", "sde"])
def test_gaussian_calibration_fraction(method):
    Z = gaussian_cloud(5000, 40, transform=[[1.0, 0.3], [0.0, 0.7]])
    m = estimate_cov(Z, method, seed=7)
    frac = float((mahalanobis_sq(m, Z) > chi2.ppf(0.95, 2)).mean())
    assert 0.03 <= frac <= 0.08, (method, frac)


@pytest.mark.parametrize("method", ["mcd", "sde"])
def test_seeded_estimators_reject_a_negative_seed(method):
    with pytest.raises(mj.ValidationError, match="seeds must be >= 0"):
        estimate_cov(gaussian_cloud(200, 3), method, seed=-1)


def test_sest_calibration_fraction():
    Z = gaussian_cloud(5000, 41)
    m = s_cov(Z)
    frac = float((mahalanobis_sq(m, Z) > chi2.ppf(0.95, 2)).mean())
    assert 0.03 <= frac <= 0.08


def test_classic_affine_equivariance_exact():
    Z = gaussian_cloud(400, 50)
    A = np.array([[2.0, 0.5], [-0.3, 1.2]])
    b = np.array([1.0, -4.0])
    m0 = classic_cov(Z)
    m1 = classic_cov(Z @ A.T + b)
    np.testing.assert_allclose(m1.center, A @ m0.center + b, atol=1e-12)
    np.testing.assert_allclose(m1.scatter, A @ m0.scatter @ A.T, atol=1e-12)


def test_mahalanobis_affine_invariance_classic():
    Z = gaussian_cloud(400, 51)
    A = np.array([[1.5, 0.2], [0.1, 0.9]])
    b = np.array([0.3, 0.7])
    pt = np.array([0.5, -0.5])
    d0 = mahalanobis_sq(classic_cov(Z), pt)
    d1 = mahalanobis_sq(classic_cov(Z @ A.T + b), A @ pt + b)
    assert d1 == pytest.approx(d0, rel=1e-10)


def test_mcd_affine_equivariance_seeded():
    # same subset seed sequence on both sides; tolerance per the contract
    Z = gaussian_cloud(300, 52)
    A = np.array([[1.4, 0.3], [0.0, 0.8]])
    b = np.array([2.0, -1.0])
    m0 = fast_mcd(Z, seed=9)
    m1 = fast_mcd(Z @ A.T + b, seed=9)
    np.testing.assert_allclose(m1.center, A @ m0.center + b, atol=1e-8)
    np.testing.assert_allclose(m1.scatter, A @ m0.scatter @ A.T, atol=1e-8)


# -- ellipse geometry -----------------------------------------------------------

def test_chi2_quantile_value():
    # independent oracle: regularized gamma inverse; chi2(2) is gamma(1, 2)
    q = 2.0 * gammaincinv(1.0, 0.95)
    assert q == pytest.approx(5.991, abs=1e-3)
    assert chi2.ppf(0.95, 2) == pytest.approx(q, rel=1e-12)


def test_ellipse_unit_circle():
    m = mj.CovarianceModel(np.zeros(2), np.eye(2), "Classic")
    alpha = float(chi2.sf(1.0, 2))  # level chosen so the quantile is 1
    e = ellipse_from(m, alpha)
    np.testing.assert_allclose(e.semi_axes, [1.0, 1.0], rtol=1e-12)


def test_ellipse_diag_scatter():
    m = mj.CovarianceModel(np.zeros(2), np.diag([4.0, 1.0]), "Classic")
    alpha = float(chi2.sf(1.0, 2))
    e = ellipse_from(m, alpha)
    np.testing.assert_allclose(e.semi_axes, [2.0, 1.0], rtol=1e-12)
    assert e.rotation == pytest.approx(0.0)


def test_ellipse_rotation_range_and_boundary_distance():
    rng = np.random.default_rng(60)
    A = rng.normal(size=(2, 2))
    scatter = A @ A.T + 0.5 * np.eye(2)
    m = mj.CovarianceModel(np.array([1.0, 2.0]), scatter, "Classic")
    e = ellipse_from(m, 0.05)
    assert -math.pi / 2 <= e.rotation < math.pi / 2
    ring = ellipse_points(e)
    d2 = mahalanobis_sq(m, ring)
    np.testing.assert_allclose(d2, chi2.ppf(0.95, 2), rtol=1e-9)
