"""Joint test verdicts, classical CI verdicts, report assembly and JSON."""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

import mcjoint as mj
from mcjoint import jetest
from mcjoint.estimators import DemingConfig
from mcjoint.jetest import (
    REJECTED,
    VALIDATED,
    ci_verdict,
    je_test,
    je_test_from_model,
    report_to_dict,
    report_to_json,
    validate,
)
from mcjoint.resampling import IntervalPair
from mcjoint.robustcov import CovarianceModel, estimate_cov

CFG = DemingConfig()


def model_at(center, scatter=None):
    return CovarianceModel(np.asarray(center, float),
                           np.eye(2) if scatter is None else np.asarray(scatter, float),
                           "Classic")


def test_je_centered_on_null_validates():
    r = je_test_from_model(model_at([0.0, 1.0]), alpha=0.01)
    assert r.mahalanobis_sq == 0.0
    assert r.p_value == 1.0
    assert r.verdict == VALIDATED


def test_je_pvalue_chi2_oracle():
    delta = math.sqrt(5.991464547107979)
    r = je_test_from_model(model_at([0.0, 1.0 + delta]), alpha=0.01)
    # chi-square(2) survival has the closed form exp(-x/2)
    assert r.p_value == pytest.approx(math.exp(-5.991464547107979 / 2.0), rel=1e-12)
    assert r.p_value == pytest.approx(0.05, abs=1e-4)


def test_je_pvalue_monotone_along_ray():
    direction = np.array([0.3, -0.8])
    last = 1.1
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        center = np.array([0.0, 1.0]) + t * direction
        p = je_test_from_model(model_at(center)).p_value
        assert p < last or t == 0.0
        last = p


def test_je_nested_rejection_levels():
    r = je_test_from_model(model_at([0.0, 1.35]))
    if r.p_value <= 0.01:
        assert r.p_value <= 0.05  # rejection at 1% implies rejection at 5%


def test_je_affine_invariance_classic():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(500, 2)) * [0.05, 0.03] + [0.1, 1.05]
    d0 = je_test(_ens(pts), "classic").mahalanobis_sq
    # affine map applied to points AND the null keeps the distance
    A = np.array([[1.2, 0.4], [-0.2, 0.9]])
    b = np.array([0.5, -0.3])
    mapped = pts @ A.T + b
    from mcjoint.robustcov import classic_cov, mahalanobis_sq

    h0 = A @ np.array([0.0, 1.0]) + b
    d1 = float(mahalanobis_sq(classic_cov(mapped), h0))
    assert d1 == pytest.approx(d0, rel=1e-10)


def _ens(pairs):
    """Minimal ensemble stand-in for covariance-level tests."""
    from mcjoint.resampling import BootstrapEnsemble

    return BootstrapEnsemble(
        pairs=np.asarray(pairs, float), jack=np.full((10, 2), np.nan),
        point=mj.RegressionFit(0.0, 1.0, "dem"), failed=0,
        indices=np.zeros((len(pairs), 10), dtype=int), seed=(0,),
    )


def test_je_singular_scatter_guidance():
    pts = np.column_stack([np.linspace(0, 1, 300), np.linspace(0, 1, 300)])
    with pytest.raises(mj.SingularCovarianceError, match="precision"):
        je_test(_ens(pts), "mcd")


def test_ci_verdict_containment_and_boundary():
    ok = IntervalPair(slope_lo=0.9, slope_hi=1.1, int_lo=-1.0, int_hi=1.0, alpha=0.05)
    assert ci_verdict(ok) == VALIDATED
    boundary = IntervalPair(slope_lo=0.82, slope_hi=1.0, int_lo=-0.3, int_hi=0.7, alpha=0.05)
    assert ci_verdict(boundary) == VALIDATED  # endpoint on the null counts
    bad = IntervalPair(slope_lo=0.83, slope_hi=0.98, int_lo=-0.3, int_hi=0.7, alpha=0.05)
    assert ci_verdict(bad) == REJECTED
    assert (boundary.covers(0.0, 1.0), bad.covers(0.0, 1.0), bad.covers(0.8, 0.9)) == (
        (True, True), (True, False), (False, True))


# -- full pipeline -------------------------------------------------------------

def test_validate_identity_data():
    x = np.linspace(1.0, 9.0, 15)
    noise = np.sin(np.arange(15)) * 1e-4  # deterministic tiny jitter
    s = mj.PairedSample(x=x, y=x + noise)
    report = validate(s, "dem", CFG, cov_method="classic", B=499, seed=2)
    assert report.verdict_ci == VALIDATED
    assert report.je.verdict == VALIDATED
    assert report.je.p_value > 0.5


@pytest.mark.parametrize("cov", ["classic", "mcd", "sde"])
def test_validate_hemoglobin_paba_discordance(cov):
    s = mj.load_hemoglobin()
    report = validate(s, "paba", CFG, cov_method=cov, B=2000, seed=17)
    assert report.verdict_ci == VALIDATED
    assert report.je.verdict == REJECTED
    assert report.je.p_value < 0.01


def test_validate_hemoglobin_mdem_coherent_rejection():
    s = mj.load_hemoglobin()
    report = validate(s, "mdem", CFG, cov_method="mcd", B=2000, seed=17)
    assert report.verdict_ci == REJECTED
    assert report.je.verdict == REJECTED


def test_validate_stage_label_on_error():
    pts = np.column_stack([np.round(np.linspace(1, 2, 20), 1),
                           np.round(np.linspace(1, 2, 20), 1)])
    s = mj.PairedSample(x=pts[:, 0], y=pts[:, 1])
    with pytest.raises(mj.McjointError, match="stage"):
        validate(s, "paba", CFG, cov_method="mcd", B=499, seed=0)


def test_validate_rejects_a_negative_seed():
    with pytest.raises(mj.ValidationError, match="stage fit: seeds must be >= 0"):
        validate(mj.load_hemoglobin(), "dem", CFG, cov_method="classic", B=199, seed=-1)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -1.0, math.nan])
def test_je_test_rejects_an_alpha_outside_0_1(alpha):
    with pytest.raises(mj.ValidationError, match=r"^alpha must be in \(0, 1\)"):
        je_test_from_model(model_at([0.0, 1.0]), alpha)


@pytest.mark.parametrize("alphas", [dict(ci_alpha=0.0), dict(ci_alpha=1.5), dict(je_alpha=2.0),
                                    dict(je_alpha=-1.0)])
def test_validate_rejects_an_alpha_outside_0_1_before_its_bootstrap(alphas, monkeypatch):
    monkeypatch.setattr(jetest, "bootstrap", lambda *args, **kw: pytest.fail("bootstrapped"))
    name, value = next(iter(alphas.items()))
    with pytest.raises(mj.ValidationError, match=rf"^{name} must be in \(0, 1\), got {value}$"):
        validate(mj.load_hemoglobin(), "dem", CFG, cov_method="classic", B=199, seed=0, **alphas)


def test_report_json_six_significant_digits():
    s = mj.load_hemoglobin()
    report = validate(s, "paba", CFG, cov_method="classic", B=499, seed=3)
    payload = json.loads(report_to_json(report))
    slope = payload["fit"]["slope"]
    assert slope == float(f"{report.ensemble.point.slope:.6g}")
    assert payload["verdict_ci"] in (VALIDATED, REJECTED)
    assert payload["h0"] == [0.0, 1.0]
    ax = payload["ellipse05"]["semi_axes"]
    assert len(ax) == 2 and ax[0] >= ax[1] > 0
    assert payload["ellipse05"]["level"] == pytest.approx(5.99146, abs=1e-4)
    # serialization is non-lossy beyond the 6-digit rounding
    rep2 = report_to_dict(report)
    assert payload == json.loads(json.dumps(rep2))


def test_validate_deterministic_per_seed():
    s = mj.load_hemoglobin()
    r1 = validate(s, "dem", CFG, cov_method="mcd", B=499, seed=21)
    r2 = validate(s, "dem", CFG, cov_method="mcd", B=499, seed=21)
    assert r1.ensemble.pairs.tobytes() == r2.ensemble.pairs.tobytes()
    assert r1.je.p_value == r2.je.p_value
    assert r1.je.mahalanobis_sq == r2.je.mahalanobis_sq


def test_validate_seeds_the_covariance_with_the_run_seed():
    report = validate(mj.load_hemoglobin(), "dem", CFG, cov_method="sde", B=199, seed=5)
    want = estimate_cov(report.ensemble.pairs, "sde", seed=5)
    np.testing.assert_array_equal(report.je.model.center, want.center)
    np.testing.assert_array_equal(report.je.model.scatter, want.scatter)
    # SDe draws random directions, so a covariance seeded with 0 differs
    assert not np.array_equal(report.je.model.scatter, estimate_cov(report.ensemble.pairs, "sde", seed=0).scatter)
