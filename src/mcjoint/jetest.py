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
from typing import Dict

import numpy as np

from . import robustcov
from .dataset import PairedSample
from .errors import McjointError
from .estimators import DemingConfig
from .resampling import BootstrapEnsemble, IntervalPair, bca_ci, bootstrap, check_alpha
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
    check_alpha("alpha", alpha)
    d2 = float(mahalanobis_sq(model, np.array(H0)))
    p = _chi2_2_sf(d2)
    verdict = VALIDATED if p > alpha else REJECTED
    return JETestResult(d2, p, verdict, alpha, model)


def ci_verdict(iv: IntervalPair) -> str:
    """Validated iff 0 is in the intercept CI and 1 in the slope CI."""
    return VALIDATED if all(iv.covers(*H0)) else REJECTED


@dataclass(frozen=True)
class ValidationReport:
    """What a validation run computed: the bootstrap ensemble (point fit, pairs,
    B, seed path), the BCa intervals and the JE result (covariance model and
    verdict), each with its alpha, the two coverage ellipses, the covariance
    method and the sample's label.  report.json and plot.svg read them all."""

    ensemble: BootstrapEnsemble
    intervals: IntervalPair
    je: JETestResult
    cov_method: str
    ellipse05: EllipseGeometry
    ellipse01: EllipseGeometry
    label: str

    @property
    def verdict_ci(self) -> str:
        return ci_verdict(self.intervals)


def validate(s: PairedSample, method: str, cfg: DemingConfig = DemingConfig(),
             cov_method: str = "mcd", B: int = 2000, seed=0,
             je_alpha: float = 0.01, ci_alpha: float = 0.05) -> ValidationReport:
    """Full pipeline: fit, bootstrap, BCa interval, covariance, joint test.

    Returns the report, which holds the ensemble (the CLI dumps its
    replicate pairs next to the report).  ``seed`` drives both the
    bootstrap and the covariance, so the run is deterministic per seed.
    """
    check_alpha("je_alpha", je_alpha)
    check_alpha("ci_alpha", ci_alpha)
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
    return ValidationReport(ensemble=ensemble, intervals=iv, je=jt, cov_method=cov_method,
                            ellipse05=e05, ellipse01=e01, label=s.label)


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
    fit, iv, je = r.ensemble.point, r.intervals, r.je
    return _sig6({
        "label": r.label,
        "method": fit.method,
        "fit": {
            "intercept": fit.intercept,
            "slope": fit.slope,
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
        "intervals": {
            "kind": "bca",
            "level": 1.0 - iv.alpha,
            "int_lo": iv.int_lo,
            "int_hi": iv.int_hi,
            "slope_lo": iv.slope_lo,
            "slope_hi": iv.slope_hi,
            "fallback": iv.fallback,
        },
        "je_pvalue": je.p_value,
        "je_alpha": je.alpha,
        "ci_alpha": iv.alpha,
        "mahalanobis_sq": je.mahalanobis_sq,
        "cov": {
            "method": r.cov_method,
            "estimator": je.model.estimator,
            "center": list(je.model.center),
            "scatter": [list(row) for row in je.model.scatter],
            "correction": je.model.correction,
        },
        "verdict_ci": r.verdict_ci,
        "verdict_je": je.verdict,
        "ellipse05": _ellipse_dict(r.ellipse05),
        "ellipse01": _ellipse_dict(r.ellipse01),
        "h0": list(H0),
        "B": r.ensemble.B,
        "seed": list(r.ensemble.seed),
    })


def report_to_json(r: ValidationReport) -> str:
    return json.dumps(report_to_dict(r), indent=2, sort_keys=False)
