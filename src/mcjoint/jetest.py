"""Joint-ellipse validation test and the classical two-interval verdict.

The joint test places the null point (intercept 0, slope 1) in the
Mahalanobis metric of the bootstrapped coefficient cloud; the squared
distance is referred to a chi-square with 2 degrees of freedom, so slope
and intercept are judged once, together.  The classical verdict checks the
two confidence intervals separately; an endpoint exactly on the null value
counts as containment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import robustcov
from .dataset import PairedSample
from .errors import McjointError
from .estimators import DemingConfig, RegressionFit
from .resampling import BootstrapEnsemble, IntervalPair, bca_ci, bootstrap
from .robustcov import CovarianceModel, EllipseGeometry, _chi2_2_sf, ellipse_from, mahalanobis_sq

H0 = (0.0, 1.0)
VALIDATED = "validated"
REJECTED = "rejected"


@dataclass(frozen=True)
class JETestResult:
    mahalanobis_sq: float
    p_value: float
    verdict: str
    alpha: float
    model: CovarianceModel


def je_test(e: BootstrapEnsemble, cov_method: str = "mcd", alpha: float = 0.01,
            seed: int = 0) -> JETestResult:
    """Chi-square(2) test of the null point against the bootstrap cloud."""
    model = robustcov.estimate_cov(e.pairs, cov_method, seed=seed)
    return je_test_from_model(model, alpha)


def je_test_from_model(model: CovarianceModel, alpha: float = 0.01) -> JETestResult:
    d2 = float(mahalanobis_sq(model, np.array(H0)))
    p = _chi2_2_sf(d2)
    verdict = VALIDATED if p > alpha else REJECTED
    return JETestResult(d2, p, verdict, alpha, model)


def ci_verdict(iv: IntervalPair) -> str:
    """Validated iff 0 is in the intercept CI and 1 in the slope CI."""
    return VALIDATED if iv.contains(H0[0], H0[1]) else REJECTED


@dataclass(frozen=True)
class ValidationReport:
    """Everything a validation run produces, numbers plus plot geometry."""

    fit: RegressionFit
    intervals: IntervalPair
    je_pvalue: float
    je_alpha: float
    ci_alpha: float
    mahalanobis_sq: float
    cov: CovarianceModel
    cov_method: str
    verdict_ci: str
    verdict_je: str
    ellipse05: EllipseGeometry
    ellipse01: EllipseGeometry
    method: str
    B: int
    seed: Tuple[int, ...]
    label: str = ""


def validate(s: PairedSample, method: str, cfg: DemingConfig = DemingConfig(),
             cov_method: str = "mcd", B: int = 2000, seed=0,
             je_alpha: float = 0.01, ci_alpha: float = 0.05,
             ) -> Tuple[ValidationReport, BootstrapEnsemble]:
    """Full pipeline: fit, bootstrap, BCa interval, covariance, joint test.

    Returns the report together with the ensemble (the CLI dumps the
    replicate pairs next to the report).  ``seed`` drives both the
    bootstrap and the covariance, so the run is deterministic per seed.
    """
    stage = "fit"
    try:
        ensemble = bootstrap(s, method, cfg, B=B, seed=seed)
        stage = "interval"
        iv = bca_ci(ensemble, ci_alpha)
        stage = f"covariance[{cov_method}]"
        model = robustcov.estimate_cov(ensemble.pairs, cov_method, seed=seed)
        stage = "je-test"
        jt = je_test_from_model(model, je_alpha)
        stage = "ellipse"
        e05 = ellipse_from(model, 0.05)
        e01 = ellipse_from(model, 0.01)
    except McjointError as err:
        raise type(err)(f"stage {stage}: {err}") from err
    report = ValidationReport(
        fit=ensemble.point,
        intervals=iv,
        je_pvalue=jt.p_value,
        je_alpha=je_alpha,
        ci_alpha=ci_alpha,
        mahalanobis_sq=jt.mahalanobis_sq,
        cov=model,
        cov_method=cov_method,
        verdict_ci=ci_verdict(iv),
        verdict_je=jt.verdict,
        ellipse05=e05,
        ellipse01=e01,
        method=method,
        B=B,
        seed=ensemble.seed,
        label=s.label,
    )
    return report, ensemble


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _sig6(x):
    """Numbers in reports carry 6 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.6g}")
    if isinstance(x, np.ndarray):
        return [_sig6(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    return x


def _ellipse_dict(e: EllipseGeometry) -> Dict:
    return {
        "center": list(e.center),
        "semi_axes": list(e.semi_axes),
        "rotation": e.rotation,
        "level": e.level,
    }


def report_to_dict(r: ValidationReport) -> Dict:
    return _sig6({
        "label": r.label,
        "method": r.method,
        "fit": {
            "intercept": r.fit.intercept,
            "slope": r.fit.slope,
            "iterations": r.fit.iterations,
            "converged": r.fit.converged,
        },
        "intervals": {
            "kind": "bca",
            "level": r.intervals.level,
            "int_lo": r.intervals.int_lo,
            "int_hi": r.intervals.int_hi,
            "slope_lo": r.intervals.slope_lo,
            "slope_hi": r.intervals.slope_hi,
            "fallback": r.intervals.fallback,
        },
        "je_pvalue": r.je_pvalue,
        "je_alpha": r.je_alpha,
        "ci_alpha": r.ci_alpha,
        "mahalanobis_sq": r.mahalanobis_sq,
        "cov": {
            "method": r.cov_method,
            "estimator": r.cov.estimator,
            "center": list(r.cov.center),
            "scatter": [list(row) for row in r.cov.scatter],
            "correction": r.cov.correction,
        },
        "verdict_ci": r.verdict_ci,
        "verdict_je": r.verdict_je,
        "ellipse05": _ellipse_dict(r.ellipse05),
        "ellipse01": _ellipse_dict(r.ellipse01),
        "h0": list(H0),
        "B": r.B,
        "seed": list(r.seed),
    })


def report_to_json(r: ValidationReport) -> str:
    return json.dumps(report_to_dict(r), indent=2, sort_keys=False)
