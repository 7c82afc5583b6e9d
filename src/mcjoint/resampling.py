"""Pairs bootstrap of any estimator, and its BCa confidence interval.

Replicate i always draws from substream i of the given seed, so ensembles
are bit-identical however the replicates are scheduled, and a failed
replicate redraws from its own substream only.  One rule bounds the
failures: an ensemble whose failed fits, first draws and redraws
together, exceed 5% of B raises EnsembleQualityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dataset import PairedSample
from .errors import ConvergenceError, DegenerateDataError, EnsembleQualityError, ValidationError
from .estimators import DemingConfig, RegressionFit, batch_fit, check_sample, row_fit
# imported only for the traced benchmark run (bench/layers.py), which wraps ``resampling.fit``
from .estimators import fit  # noqa: F401
from .rng import seed_path, task_rng

MIN_REPLICATES = 199
MAX_REPLICATES = 100_000  # 50 times the paper's B = 2000
MAX_FAIL_FRACTION = 0.05


@dataclass(frozen=True)
class IntervalPair:
    """Confidence bounds for intercept and slope at a common level, 1 - alpha."""

    slope_lo: float
    slope_hi: float
    int_lo: float
    int_hi: float
    alpha: float
    fallback: bool = False

    def __post_init__(self):
        if self.slope_lo > self.slope_hi or self.int_lo > self.int_hi:
            raise ValidationError("interval bounds out of order")

    def covers(self, intercept: float, slope: float) -> Tuple[bool, bool]:
        """Whether each interval holds its value; a bound exactly on the value counts."""
        return (bool(self.int_lo <= intercept <= self.int_hi),
                bool(self.slope_lo <= slope <= self.slope_hi))


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Bootstrapped (intercept, slope) pairs plus jackknife estimates."""

    pairs: np.ndarray           # (B, 2): column 0 intercept, column 1 slope
    jack: np.ndarray            # (n, 2), NaN rows for failed leave-one-out fits
    point: RegressionFit
    failed: int
    indices: np.ndarray         # (B, n) resample index matrix
    seed: Tuple[int, ...]

    @property
    def B(self) -> int:
        return len(self.pairs)

    @property
    def slopes(self) -> np.ndarray:
        return self.pairs[:, 1]


def bootstrap(s: PairedSample, method: str, cfg: DemingConfig = DemingConfig(),
              B: int = 2000, seed=0) -> BootstrapEnsemble:
    """Pairs bootstrap: B resamples with replacement, each refit.

    The full sample is row 0 of the resamples' batch: it takes the
    method's pre-checks and becomes ``point`` through ``row_fit``, so
    ``point`` and every exception are what ``fit`` gives.  The ensemble
    keeps rows 1..B.  Replicates whose fit fails are redrawn from their own
    substream, round after round, until every one has a fit; every failed
    fit counts, and once more than 5% of B have failed the ensemble raises
    EnsembleQualityError before the next round.
    """
    check_replicates("B", B)
    check_sample(s, method)
    n = s.n
    path = seed_path(seed)
    # all initial index rows come from one stream; replicate i redraws (if
    # its fit fails) from its own substream, so scheduling cannot matter
    rows = np.empty((B + 1, n), dtype=np.intp)
    rows[0] = np.arange(n)
    rows[1:] = task_rng(*path).integers(0, n, (B, n))
    res = batch_fit(s.x[rows], s.y[rows], method, cfg)
    point = row_fit(method, res)
    if not point.converged:
        raise ConvergenceError(f"{method}: full-sample fit did not converge")
    idx = rows[1:]
    pairs = np.column_stack([res.intercept[1:], res.slope[1:]])
    pending = np.flatnonzero(~res.converged[1:])
    failed = pending.size
    redraw_rngs = {}
    while pending.size and failed <= MAX_FAIL_FRACTION * B:
        for i in pending:
            if i not in redraw_rngs:
                redraw_rngs[i] = task_rng(*path, int(i))
            idx[i] = redraw_rngs[i].integers(0, n, n)
        r2 = batch_fit(s.x[idx[pending]], s.y[idx[pending]], method, cfg)
        pairs[pending] = np.column_stack([r2.intercept, r2.slope])
        failed += int((~r2.converged).sum())
        pending = pending[~r2.converged]
    if failed > MAX_FAIL_FRACTION * B:
        raise EnsembleQualityError(
            f"{method}: {failed} failed replicates exceeds {MAX_FAIL_FRACTION:.0%} of B={B}"
        )

    jack = _jackknife(s, method, cfg)
    return BootstrapEnsemble(
        pairs=pairs, jack=jack, point=point, failed=failed, indices=idx, seed=path,
    )


def check_replicates(name: str, B: int) -> None:
    """The one rule for a bootstrap size: ``B`` in [MIN_REPLICATES,
    MAX_REPLICATES], else ValidationError naming ``name``.  The upper bound
    stops a mistyped size (say 1e11) before its (B, n) index matrix is allocated."""
    if not MIN_REPLICATES <= B <= MAX_REPLICATES:
        raise ValidationError(f"{name} must be in [{MIN_REPLICATES}, {MAX_REPLICATES}], got {B}")


def _jackknife(s: PairedSample, method: str, cfg: DemingConfig) -> np.ndarray:
    n = s.n
    keep = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)
    res = batch_fit(s.x[keep], s.y[keep], method, cfg)
    jack = np.column_stack([res.intercept, res.slope])
    jack[~res.converged] = np.nan
    return jack


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def check_alpha(name: str, alpha: float) -> None:
    """The one rule for a test or interval level: ``alpha`` in (0, 1) and
    above 2**-53, else ValidationError naming ``name``.  At or below 2**-53,
    1 - alpha/2 rounds to 1, whose normal quantile is infinite."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValidationError(f"{name} must exceed 2**-53 (at or below it, 1 - alpha/2 "
                              f"rounds to 1), got {alpha}")


def _bca_levels(z0: float, a: float, alpha: float) -> Tuple[float, float]:
    """Adjusted quantile levels from the bias and acceleration constants."""
    from statistics import NormalDist  # off the import path: it loads fractions and decimal
    normal = NormalDist()
    out = []
    for z in (normal.inv_cdf(alpha / 2.0), normal.inv_cdf(1.0 - alpha / 2.0)):
        den = 1.0 - a * (z0 + z)
        if den <= 0:
            out.append(1.0 if (z0 + z) > 0 else 0.0)
        else:
            out.append(normal.cdf(z0 + (z0 + z) / den))
    return out[0], out[1]


def _acceleration(jack_col: np.ndarray) -> float:
    """BCa's acceleration from the finite jackknife values; DegenerateDataError
    where their squared or cubed deviations overflow and it is not finite."""
    vals = jack_col[np.isfinite(jack_col)]
    if len(vals) < 3:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        dev = vals.mean() - vals
        denom = (dev ** 2).sum() ** 1.5
        if denom == 0.0:
            return 0.0
        a = float((dev ** 3).sum() / (6.0 * denom))
    if not math.isfinite(a):
        raise DegenerateDataError("BCa acceleration is not finite: the jackknife values overflow")
    return a


def _linear_quantiles(values: np.ndarray, levels) -> list:
    """``np.quantile(values, levels)`` of 1-D ``values``, bit for bit.

    numpy's default ('linear') rule: level q sits at virtual index
    v = (n - 1) q, between the order statistics of ranks floor(v) and
    floor(v) + 1 at weight t = v - floor(v).  At v >= n - 1 both ranks are
    the largest value's and the lower rank counts as -1 in t.  Every level
    is in [0, 1] (BCa's are normal cdf values or exactly 0.0 or 1.0, the
    fallback's alpha/2 and 1 - alpha/2), so v is never negative.  One
    partition places every rank, and the smallest and largest values as
    numpy's does, so equal values (0.0 and -0.0) land where they land in
    numpy's; a NaN, which sorts last, makes every quantile NaN.  The interpolation is numpy's ``_lerp``: a + (b - a) t,
    or b - (b - a)(1 - t) for t >= 0.5.  This keeps ``np.quantile`` off
    the path, which loads numpy.ma through ``np.unique``.
    """
    n = values.size
    ranks = []
    for q in levels:
        v = (n - 1) * q
        if v >= n - 1:
            ranks.append((n - 1, n - 1, v + 1.0))
        else:
            lo = math.floor(v)
            ranks.append((lo, lo + 1, v - lo))
    part = np.partition(values, sorted({0, n - 1}.union(*(r[:2] for r in ranks))))
    if math.isnan(part[-1]):
        return [math.nan] * len(ranks)
    out = []
    for lo, hi, t in ranks:
        a, b = float(part[lo]), float(part[hi])
        out.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def bca_ci(e: BootstrapEnsemble, alpha: float = 0.05) -> IntervalPair:
    """Bias-corrected and accelerated interval per parameter (Efron 1987).

    When every replicate falls on one side of the point estimate the bias
    correction is infinite; that parameter falls back to the percentile
    interval and the result is flagged.  Both endpoints are the
    replicates' quantiles at the adjusted levels (at alpha/2 and
    1 - alpha/2 for the fallback) by numpy's default linear rule, read
    through ``_linear_quantiles``, so they equal ``np.quantile``'s bit for bit.
    """
    from statistics import NormalDist  # off the import path: it loads fractions and decimal
    check_alpha("alpha", alpha)
    theta = np.array([e.point.intercept, e.point.slope])
    bounds = np.empty((2, 2))
    fallback = False
    for col in range(2):
        frac = float((e.pairs[:, col] < theta[col]).mean())
        if frac <= 0.0 or frac >= 1.0:
            fallback = True
            lo, hi = _linear_quantiles(e.pairs[:, col], (alpha / 2.0, 1.0 - alpha / 2.0))
        else:
            z0 = NormalDist().inv_cdf(frac)
            a = _acceleration(e.jack[:, col])
            a1, a2 = _bca_levels(z0, a, alpha)
            lo, hi = _linear_quantiles(e.pairs[:, col], (a1, a2))
        bounds[col] = (lo, hi)
    return IntervalPair(
        slope_lo=float(bounds[1, 0]), slope_hi=float(bounds[1, 1]),
        int_lo=float(bounds[0, 0]), int_hi=float(bounds[0, 1]),
        alpha=alpha, fallback=fallback,
    )
