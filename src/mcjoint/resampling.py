"""Pairs bootstrap of any estimator with percentile, BCa, and bootstrap-t CIs.

Replicate i always draws from substream i of the given seed, so ensembles
are bit-identical however the replicates are scheduled, and a failed
replicate redraws from its own substream only.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Tuple

import numpy as np

from .dataset import PairedSample
from .errors import ConvergenceError, EnsembleQualityError, ValidationError
from .estimators import DemingConfig, RegressionFit, batch_fit, check_sample, row_fit
# imported only for the traced benchmark run (bench/layers.py), which wraps ``resampling.fit``
from .estimators import fit  # noqa: F401
from .rng import task_rng

MIN_REPLICATES = 199
MAX_FAIL_FRACTION = 0.05
REDRAW_FRACTION = 0.2
_NORMAL = NormalDist()
_INNER_MAX_REFITS = 20  # refits per replicate of the inner delete-d jackknife


@dataclass(frozen=True)
class IntervalPair:
    """Confidence bounds for intercept and slope at a common level."""

    slope_lo: float
    slope_hi: float
    int_lo: float
    int_hi: float
    level: float
    kind: str
    fallback: bool = False
    dropped: int = 0

    def __post_init__(self):
        if self.slope_lo > self.slope_hi or self.int_lo > self.int_hi:
            raise ValidationError("interval bounds out of order")

    def contains(self, intercept: float, slope: float) -> bool:
        """Inclusive containment: a bound exactly on the value counts."""
        return (self.int_lo <= intercept <= self.int_hi) and (self.slope_lo <= slope <= self.slope_hi)


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Bootstrapped (intercept, slope) pairs plus jackknife estimates."""

    pairs: np.ndarray           # (B, 2): column 0 intercept, column 1 slope
    jack: np.ndarray            # (n, 2), NaN rows for failed leave-one-out fits
    point: RegressionFit
    failed: int
    method: str
    indices: np.ndarray         # (B, n) resample index matrix
    sample: PairedSample
    cfg: DemingConfig
    seed: Tuple[int, ...]

    @property
    def B(self) -> int:
        return len(self.pairs)

    @property
    def slopes(self) -> np.ndarray:
        return self.pairs[:, 1]

    @property
    def intercepts(self) -> np.ndarray:
        return self.pairs[:, 0]


def _seed_path(seed) -> Tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(v) for v in seed)
    return (int(seed),)


def bootstrap(s: PairedSample, method: str, cfg: DemingConfig = DemingConfig(),
              B: int = 2000, seed=0) -> BootstrapEnsemble:
    """Pairs bootstrap: B resamples with replacement, each refit.

    The full sample is row 0 of the resamples' batch: it takes the
    method's pre-checks and becomes ``point`` through ``row_fit``, so
    ``point`` and every exception are what ``fit`` gives.  The ensemble
    keeps rows 1..B.  Non-convergent replicates are redrawn from their own
    substream up to a total budget of 0.2*B redraws; every failed attempt
    counts toward the ensemble quality limit of 5% of B.
    """
    if B < MIN_REPLICATES:
        raise ValidationError(f"B must be >= {MIN_REPLICATES}")
    check_sample(s, method)
    n = s.n
    path = _seed_path(seed)
    # all initial index rows come from one stream; replicate i redraws (if
    # its fit fails) from its own substream, so scheduling cannot matter
    rows = np.empty((B + 1, n), dtype=np.intp)
    rows[0] = np.arange(n)
    rows[1:] = task_rng(*path).integers(0, n, (B, n))
    res = batch_fit(s.x[rows], s.y[rows], method, cfg)
    point = row_fit(s, method, res)
    if not point.converged:
        raise ConvergenceError(f"{method}: full-sample fit did not converge")
    idx = rows[1:]
    ok = (res.converged & ~res.degenerate)[1:]
    pairs = np.column_stack([res.intercept[1:], res.slope[1:]])

    failed = int((~ok).sum())
    budget = int(REDRAW_FRACTION * B)
    redraw_rngs = {}
    pending = np.flatnonzero(~ok)
    while pending.size and budget > 0:
        take = pending[: min(budget, pending.size)]
        for i in take:
            if i not in redraw_rngs:
                redraw_rngs[i] = task_rng(*path, int(i))
            idx[i] = redraw_rngs[i].integers(0, n, n)
        budget -= take.size
        r2 = batch_fit(s.x[idx[take]], s.y[idx[take]], method, cfg)
        good = r2.converged & ~r2.degenerate
        pairs[take] = np.column_stack([r2.intercept, r2.slope])
        ok[take] = good
        failed += int((~good).sum())
        pending = np.flatnonzero(~ok)

    if pending.size:
        raise EnsembleQualityError(
            f"{method}: {pending.size} replicates unrecoverable after redraw budget"
        )
    if failed > MAX_FAIL_FRACTION * B:
        raise EnsembleQualityError(
            f"{method}: {failed} failed replicates exceeds {MAX_FAIL_FRACTION:.0%} of B={B}"
        )

    jack = _jackknife(s, method, cfg)
    return BootstrapEnsemble(
        pairs=pairs, jack=jack, point=point, failed=failed, method=method,
        indices=idx, sample=s, cfg=cfg, seed=path,
    )


def _jackknife(s: PairedSample, method: str, cfg: DemingConfig) -> np.ndarray:
    n = s.n
    keep = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)
    res = batch_fit(s.x[keep], s.y[keep], method, cfg)
    jack = np.column_stack([res.intercept, res.slope])
    bad = ~(res.converged & ~res.degenerate)
    jack[bad] = np.nan
    return jack


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def percentile_ci(e: BootstrapEnsemble, alpha: float = 0.05) -> IntervalPair:
    """Empirical alpha/2 and 1-alpha/2 quantiles (type-7 interpolation)."""
    lo, hi = np.quantile(e.pairs, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return IntervalPair(
        slope_lo=float(lo[1]), slope_hi=float(hi[1]),
        int_lo=float(lo[0]), int_hi=float(hi[0]),
        level=1.0 - alpha, kind="percentile",
    )


def _bca_levels(z0: float, a: float, alpha: float) -> Tuple[float, float]:
    """Adjusted quantile levels from the bias and acceleration constants."""
    out = []
    for z in (_NORMAL.inv_cdf(alpha / 2.0), _NORMAL.inv_cdf(1.0 - alpha / 2.0)):
        den = 1.0 - a * (z0 + z)
        if den <= 0:
            out.append(1.0 if (z0 + z) > 0 else 0.0)
        else:
            out.append(_NORMAL.cdf(z0 + (z0 + z) / den))
    return out[0], out[1]


def _acceleration(jack_col: np.ndarray) -> float:
    vals = jack_col[np.isfinite(jack_col)]
    if len(vals) < 3:
        return 0.0
    dev = vals.mean() - vals
    denom = (dev ** 2).sum() ** 1.5
    if denom == 0.0:
        return 0.0
    return float((dev ** 3).sum() / (6.0 * denom))


def bca_ci(e: BootstrapEnsemble, alpha: float = 0.05) -> IntervalPair:
    """Bias-corrected and accelerated interval per parameter.

    When every replicate falls on one side of the point estimate the bias
    correction is infinite; that parameter falls back to the percentile
    interval and the result is flagged.
    """
    theta = np.array([e.point.intercept, e.point.slope])
    bounds = np.empty((2, 2))
    fallback = False
    for col in range(2):
        frac = float((e.pairs[:, col] < theta[col]).mean())
        if frac <= 0.0 or frac >= 1.0:
            fallback = True
            lo, hi = np.quantile(e.pairs[:, col], [alpha / 2.0, 1.0 - alpha / 2.0])
        else:
            z0 = _NORMAL.inv_cdf(frac)
            a = _acceleration(e.jack[:, col])
            a1, a2 = _bca_levels(z0, a, alpha)
            lo, hi = np.quantile(e.pairs[:, col], [a1, a2])
        bounds[col] = (lo, hi)
    return IntervalPair(
        slope_lo=float(bounds[1, 0]), slope_hi=float(bounds[1, 1]),
        int_lo=float(bounds[0, 0]), int_hi=float(bounds[0, 1]),
        level=1.0 - alpha, kind="bca", fallback=fallback,
    )


def _delete_d_groups(n: int):
    """Contiguous index groups for the inner delete-d jackknife.

    Group count is capped so each replicate costs at most ``_INNER_MAX_REFITS``
    refits; the remainder spills into slightly larger groups.
    """
    g = min(_INNER_MAX_REFITS, n)
    d, r = divmod(n, g)
    groups, start = [], 0
    for i in range(g):
        size = d + (1 if i < r else 0)
        groups.append(np.arange(start, start + size))
        start += size
    return groups


def _inner_se(e: BootstrapEnsemble, col: int) -> np.ndarray:
    """Delete-d jackknife SE of each replicate's estimate."""
    n = e.sample.n
    groups = _delete_d_groups(n)
    g = len(groups)
    # one batched fit per distinct deleted-group size
    by_size = {}
    for j, grp in enumerate(groups):
        by_size.setdefault(len(grp), []).append((j, grp))
    B = e.B
    est = np.full((B, g), np.nan)
    for size, members in by_size.items():
        sel = np.array([np.delete(np.arange(n), grp) for _, grp in members])
        stack = np.concatenate([e.indices[:, s] for s in sel])  # (B*len(members), n-size)
        res = batch_fit(e.sample.x[stack], e.sample.y[stack], e.method, e.cfg)
        vals = (res.intercept if col == 0 else res.slope).reshape(len(members), B)
        ok = (res.converged & ~res.degenerate).reshape(len(members), B)
        for k, (j, _) in enumerate(members):
            est[:, j] = np.where(ok[k], vals[k], np.nan)
    d_bar = n / g
    mean = np.nanmean(est, axis=1, keepdims=True)
    var = (n - d_bar) / (d_bar * g) * np.nansum((est - mean) ** 2, axis=1)
    return np.sqrt(var)


def studentized_ci(e: BootstrapEnsemble, alpha: float = 0.05) -> IntervalPair:
    """Bootstrap-t interval with inner delete-d jackknife SEs.

    Replicates whose inner SE is zero (or undefined) are dropped from the
    pivot distribution and counted in ``dropped``.
    """
    theta = np.array([e.point.intercept, e.point.slope])
    bounds = np.empty((2, 2))
    dropped = 0
    for col in range(2):
        vals = e.pairs[:, col]
        se_outer = float(vals.std(ddof=1))
        if se_outer == 0.0:
            bounds[col] = (theta[col], theta[col])
            continue
        se_inner = _inner_se(e, col)
        good = np.isfinite(se_inner) & (se_inner > 0.0)
        dropped += int((~good).sum())
        if good.sum() < MIN_REPLICATES // 2:
            raise EnsembleQualityError("too few replicates with a usable inner SE")
        t = (vals[good] - theta[col]) / se_inner[good]
        q_lo, q_hi = np.quantile(t, [alpha / 2.0, 1.0 - alpha / 2.0])
        bounds[col] = (theta[col] - q_hi * se_outer, theta[col] - q_lo * se_outer)
    return IntervalPair(
        slope_lo=float(bounds[1, 0]), slope_hi=float(bounds[1, 1]),
        int_lo=float(bounds[0, 0]), int_hi=float(bounds[0, 1]),
        level=1.0 - alpha, kind="studentized", dropped=dropped,
    )

