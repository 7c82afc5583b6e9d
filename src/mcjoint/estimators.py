"""Regression estimators for method comparison.

Five line fits are provided: classical errors-in-variables (Deming) with a
known error-variance ratio, its inverse-squared-level weighted variant, two
robustified variants (Huber weights, and Tukey bisquare with a robust
covariance start), and the nonparametric pairwise-slope median estimator
with its rank-based analytic confidence interval.

The variance ratio ``lam`` follows the Linnet convention: ratio of the x
and y error variances.  All iterative fits are deterministic and converge
on the change in slope.

Every fit runs through a batched engine operating on (m, n) row-stacked
samples.  A single-sample fit is the m=1 case: ``check_sample`` raises
for samples no fit is tried on, and ``row_fit`` turns a row into a
``RegressionFit`` or its exception.  A row's fit does not depend on the
rows batched with it, so the bootstrap fits the full sample as row 0 of
its resamples' batch.  The three iterative Deming fits (WDem, MDem,
MMDem) share one IRWLS driver and differ only in their starting line and
weight function; MMDem's robust covariance start is itself batched over
rows (``robustcov.mcd_rows`` and ``s_rows``).

``DemingConfig`` carries only ``lam``.  The tuning values no caller varies
are the module constants ``TOL``, ``MAX_ITER``, ``MAX_ITER_MM``,
``HUBER_K`` and ``BISQUARE_C`` (formerly the config fields ``tol``,
``max_iter``, ``max_iter_mm``, ``huber_k`` and ``bisquare_c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dataset import PairedSample
from .errors import DegenerateDataError, InsufficientDataError, StartFailureError, ValidationError
from .robustcov import _BLOCK_ELEMS, median_rows


TOL = 1e-10            # IRWLS stops once the slope moves less than this
MAX_ITER = 100         # refit budget of WDem and MDem
MAX_ITER_MM = 500      # refit budget of the MMDem bisquare step
HUBER_K = 1.345        # Huber cutoff of MDem (95% Gaussian efficiency)
BISQUARE_C = 4.685     # Tukey bisquare cutoff of MMDem (95% Gaussian efficiency)
_PABA_BLOCK_SLOPES = 2 * _BLOCK_ELEMS  # pairwise slopes PaBa forms and sorts per block of rows


@dataclass(frozen=True)
class DemingConfig:
    """The x/y error-variance ratio the Deming-family fits assume."""

    lam: float = 1.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValidationError(f"lam must be > 0, got {self.lam}")


@dataclass(frozen=True)
class RegressionFit:
    """A fitted line plus convergence diagnostics."""

    intercept: float
    slope: float
    method: str
    iterations: int = 1
    converged: bool = True
    weights: Optional[np.ndarray] = None

    @property
    def label(self) -> str:
        entry = _METHOD_TABLE.get(self.method)
        return entry.label if entry else self.method


class BatchFit(NamedTuple):
    """Row-wise fit results from a batched engine."""

    intercept: np.ndarray
    slope: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    weights: Optional[np.ndarray]
    degenerate: np.ndarray


# ---------------------------------------------------------------------------
# batched weighted Deming closed form
# ---------------------------------------------------------------------------

def _weighted_deming(X, Y, W, lam):
    """Closed-form weighted Deming slope/intercept per row.

    Minimizes sum(w * (d^2 + lam * e^2)) at the optimal decomposition,
    lam being the x/y error-variance ratio.  Returns (b0, b1, ok); rows
    with an indeterminate slope (s_xy = 0) get ok=False.
    """
    sw = W.sum(axis=1)
    xm = (W * X).sum(axis=1) / sw
    ym = (W * Y).sum(axis=1) / sw
    cx = X - xm[:, None]
    cy = Y - ym[:, None]
    sxx = (W * cx * cx).sum(axis=1) / sw
    syy = (W * cy * cy).sum(axis=1) / sw
    sxy = (W * cx * cy).sum(axis=1) / sw
    t = lam * syy - sxx
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (t + np.sqrt(t * t + 4.0 * lam * sxy * sxy)) / (2.0 * lam * sxy)
    ok = (sxy != 0.0) & np.isfinite(b1) & (b1 != 0.0)
    b0 = ym - b1 * xm
    return b0, b1, ok


def _deming_levels(X, Y, b0, b1, lam):
    """Optimal true-level estimates under the Deming error geometry."""
    return (X + lam * b1[:, None] * (Y - b0[:, None])) / (1.0 + lam * b1[:, None] ** 2)


def _deming_residuals(X, Y, b0, b1, lam):
    """Per-point (d, e) residuals of the optimal decomposition."""
    xhat = _deming_levels(X, Y, b0, b1, lam)
    d = X - xhat
    e = Y - (b0[:, None] + b1[:, None] * xhat)
    return d, e


def deming_objective(x, y, b0, b1, lam=1.0):
    """Sum of d_i^2 + lam * e_i^2 at the optimal decomposition.

    This is the quantity the closed form minimizes; kept public so tests
    can check the closed form against a grid search.
    """
    d, e = _deming_residuals(x[None, :], y[None, :], np.atleast_1d(float(b0)), np.atleast_1d(float(b1)), lam)
    return float((d * d + lam * e * e).sum())


def _huber_weight(Z, k):
    return k / np.maximum(np.abs(Z), k)


def _bisquare_weight(Z, c):
    u = Z / c
    w = (1.0 - u * u)
    w = np.where(np.abs(u) < 1.0, w * w, 0.0)
    return w


def _robust_scale(R):
    """1.4826 * median(|r|) per row, with mean(|r|) fallback when zero.

    A zero result means every residual in the row is exactly zero; the
    caller treats that as a perfect fit (weight one), so zeros map to inf
    to make r/scale collapse to 0.
    """
    s = 1.4826 * median_rows(np.abs(R))
    zero = s == 0.0
    if zero.any():
        s = np.where(zero, np.abs(R).mean(axis=1), s)
    return np.where(s > 0.0, s, np.inf)


def batch_dem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Vectorized plain Deming over row-stacked samples."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    b0, b1, ok = _weighted_deming(X, Y, np.ones_like(X), cfg.lam)
    m = X.shape[0]
    return BatchFit(b0, b1, ok, np.ones(m, dtype=int), None, ~ok)


def _iterate_weighted(X, Y, lam, weight_fn, max_iter, start) -> BatchFit:
    """Shared IRWLS driver: refit weighted Deming until the slope settles.

    ``start`` is the starting line per row, ``(b0, b1, ok)``; rows with
    ``ok`` False are not iterated and come back degenerate.
    ``weight_fn(rows, Xa, Ya, b0, b1)`` gets the indices and data of the
    active rows and returns their per-point weights plus a boolean mask of
    rows to flag degenerate.
    """
    m, _ = X.shape
    b0, b1, ok = start
    iters = np.ones(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    degenerate = ~ok
    weights = np.ones_like(X)
    active = np.flatnonzero(ok)
    for _ in range(max_iter):
        if active.size == 0:
            break
        Xa, Ya = X[active], Y[active]
        Wa, bad = weight_fn(active, Xa, Ya, b0[active], b1[active])
        if bad.any():
            degenerate[active[bad]] = True
            keep = ~bad
            active, Xa, Ya, Wa = active[keep], Xa[keep], Ya[keep], Wa[keep]
            if active.size == 0:
                break
        nb0, nb1, ok = _weighted_deming(Xa, Ya, Wa, lam)
        if (~ok).any():
            degenerate[active[~ok]] = True
        delta = np.abs(nb1 - b1[active])
        weights[active] = Wa
        b0[active] = nb0
        b1[active] = nb1
        iters[active] += 1
        done = ok & (delta < TOL)
        converged[active[done]] = True
        active = active[ok & ~done]
    degenerate |= ~np.isfinite(b1) | ~np.isfinite(b0)
    converged &= ~degenerate
    return BatchFit(b0, b1, converged, iters, weights, degenerate)


def batch_wdem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Vectorized weighted Deming (inverse squared level weights)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)

    def weight_fn(rows, Xa, Ya, b0, b1):
        level = 0.5 * (Xa + (Ya - b0[:, None]) / b1[:, None])
        bad = (level <= 0.0).any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            W = 1.0 / (level * level)
        return W, bad

    start = _weighted_deming(X, Y, np.ones_like(X), cfg.lam)
    return _iterate_weighted(X, Y, cfg.lam, weight_fn, MAX_ITER, start)


def batch_mdem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Vectorized Huber-weighted Deming (weights applied on both axes)."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    lam = cfg.lam

    def weight_fn(rows, Xa, Ya, b0, b1):
        d, e = _deming_residuals(Xa, Ya, b0, b1, lam)
        sd = _robust_scale(d)
        se = _robust_scale(e)
        W = _huber_weight(d / sd[:, None], HUBER_K) * _huber_weight(e / se[:, None], HUBER_K)
        return W, np.zeros(len(Xa), dtype=bool)

    start = _weighted_deming(X, Y, np.ones_like(X), lam)
    return _iterate_weighted(X, Y, lam, weight_fn, MAX_ITER, start)


def _mean_distance(X, Y, b0, b1, lam):
    """Mean Euclidean (d, e) residual per row; NaN where the line is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        d, e = _deming_residuals(X, Y, b0, b1, lam)
        return np.hypot(d, e).mean(axis=1)


def batch_mmdem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Bisquare Deming from a robust covariance start, scale fixed per row.

    Rows that the closed-form line already fits exactly keep that line.
    The others start from the S-covariance line (Rocke fallback), all
    rows at once, and are refit with bisquare weights at the start's mean
    residual distance.  Rows whose covariance starters both fail are
    flagged degenerate; the scalar API turns that into a start-failure
    error.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    lam = cfg.lam
    # (near-)collinear rows defeat the covariance starters but are simply a
    # perfect fit; they keep the closed-form line
    b0, b1, ok = _weighted_deming(X, Y, np.ones_like(X), lam)
    spread = X.std(axis=1) + Y.std(axis=1)
    final = ok & (_mean_distance(X, Y, b0, b1, lam) <= 1e-12 * np.maximum(spread, 1.0))
    started = np.zeros_like(final)
    rows = np.flatnonzero(~final)
    if rows.size:
        start_b0, start_b1, start_ok, _ = _mm_starts(X[rows], Y[rows])
        rows = rows[start_ok]
        b0[rows], b1[rows], started[rows] = start_b0[start_ok], start_b1[start_ok], True
    sigma = _mean_distance(X, Y, b0, b1, lam)
    final |= started & (sigma == 0.0)  # the start itself fits exactly

    def weight_fn(rows, Xa, Ya, b0, b1):
        d, e = _deming_residuals(Xa, Ya, b0, b1, lam)
        s = sigma[rows, None]
        W = _bisquare_weight(d / s, BISQUARE_C) * _bisquare_weight(e / s, BISQUARE_C)
        return W, (W.sum(axis=1) <= 0.0) | ((W > 0.0).sum(axis=1) < 3)

    res = _iterate_weighted(X, Y, lam, weight_fn, MAX_ITER_MM, (b0, b1, started & ~final))
    # a covariance start is no fit, so the refits alone count as iterations
    return res._replace(converged=res.converged | final, degenerate=res.degenerate & ~final,
                        iterations=np.where(final, 1, res.iterations - 1))


def _mm_starts(X, Y):
    """Robust starting lines per row: S-covariance slope, Rocke covariance fallback.

    Both S-estimators start a row from the same MCD, so a row whose MCD is
    singular fails both.  Returns ``(b0, b1, ok, error)``; where ``ok`` is
    False, ``error`` holds the last starter failure (None when the
    starters converged to a line that is not finite).
    """
    from . import robustcov

    m = len(X)
    b0, b1 = np.full(m, np.nan), np.full(m, np.nan)
    todo = np.ones(m, dtype=bool)
    error = np.full(m, None, dtype=object)
    try:
        start = robustcov.s_start(X, Y)
    except ValidationError as err:
        error.fill(err)
        return b0, b1, ~todo, error
    for estimator in (robustcov.S_BISQUARE, robustcov.S_ROCKE):
        rows = np.flatnonzero(todo)
        center, scatter, failed = robustcov.s_rows(X[rows], Y[rows], start.take(rows), estimator)
        sxx, sxy, syy = scatter[:, 0, 0], scatter[:, 0, 1], scatter[:, 1, 1]
        usable = np.equal(failed, None)
        flat = usable & ((sxx <= 0.0) | (sxy == 0.0))
        if flat.any():
            failed[flat] = DegenerateDataError("covariance start gives indeterminate slope")
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = 0.5 * (sxy / sxx + syy / sxy)
            c0 = center[:, 1] - c1 * center[:, 0]
        good = usable & ~flat & np.isfinite(c0) & np.isfinite(c1) & (c1 != 0.0)
        hit = ~np.equal(failed, None)
        error[rows[hit]] = failed[hit]
        b0[rows[good]], b1[rows[good]], todo[rows[good]] = c0[good], c1[good], False
    return b0, b1, ~todo, error


def _mm_start(x, y):
    """Robust starting line of one sample; StartFailureError when both starters fail."""
    b0, b1, ok, error = _mm_starts(x[None, :], y[None, :])
    if not ok[0]:
        raise StartFailureError(f"both covariance starters failed: {error[0]}")
    return b0[0], b1[0]


# ---------------------------------------------------------------------------
# Passing-Bablok
# ---------------------------------------------------------------------------

def _pairwise_slopes(X, Y):
    """Sorted pairwise slope matrix plus per-row valid count and offset.

    Pairs with tied x produce signed infinite slopes; identical points are
    excluded, as are slopes exactly equal to -1 (the classical convention,
    so that the estimator is invariant under swapping the axes).  K counts
    slopes below -1 and shifts the median rank.
    """
    n = X.shape[1]
    I, J = np.triu_indices(n, 1)
    dx = X[:, J]
    dx -= X[:, I]
    S = Y[:, J]
    S -= Y[:, I]
    # IEEE division encodes the conventions directly: a tied x gives
    # sign(dy)*inf (dx is +0.0), an identical point gives nan (excluded)
    with np.errstate(divide="ignore", invalid="ignore"):
        S /= dx
    S[S == -1.0] = np.nan
    K = (S < -1.0).sum(axis=1)
    N = S.shape[1] - np.isnan(S).sum(axis=1)
    S.sort(axis=1)
    return S, N, K


def _rank_value(S, ranks):
    """Row-wise 1-based order statistics from a pre-sorted matrix."""
    idx = np.clip(ranks - 1, 0, S.shape[1] - 1)
    return np.take_along_axis(S, idx[:, None], axis=1)[:, 0]


def batch_paba(X, Y) -> BatchFit:
    """Vectorized shifted-median pairwise-slope fit over stacked samples.

    The slopes are formed, sorted and ranked ``_PABA_BLOCK_SLOPES // pairs``
    rows at a time, so the (rows, pairs) temporaries of B=2000 bootstrap
    rows never exist at once; each row's slopes do not depend on the others.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    m, n = X.shape
    rows = max(1, _PABA_BLOCK_SLOPES // max(1, n * (n - 1) // 2))
    b1 = np.empty(m)
    ok = np.empty(m, dtype=bool)
    for lo in range(0, m, rows):
        S, N, K = _pairwise_slopes(X[lo:lo + rows], Y[lo:lo + rows])
        odd = (N % 2) == 1
        r_lo = np.where(odd, (N + 1) // 2, N // 2) + K
        r_hi = np.where(odd, r_lo, r_lo + 1)
        ok[lo:lo + rows] = (N >= 1) & (r_lo >= 1) & (r_hi <= N)
        b1[lo:lo + rows] = 0.5 * (_rank_value(S, r_lo) + _rank_value(S, r_hi))
    ok &= np.isfinite(b1) & (b1 != 0.0)
    b1 = np.where(ok, b1, np.nan)
    with np.errstate(invalid="ignore"):
        b0 = median_rows(Y - b1[:, None] * X)
    return BatchFit(b0, b1, ok, np.ones(m, dtype=int), None, ~ok)


# ---------------------------------------------------------------------------
# public single-sample API
# ---------------------------------------------------------------------------

def _check_dem(s: PairedSample):
    if np.var(s.x) == 0.0:
        raise DegenerateDataError("dem: x has zero variance")


def _check_wdem(s: PairedSample):
    if (s.x <= 0).any() or (s.y <= 0).any():
        raise DegenerateDataError("wdem: requires positive measurements")


def _explain_mmdem(s: PairedSample):
    _mm_start(s.x, s.y)  # raises the starters' failure when that was the cause


class _Method(NamedTuple):
    label: str
    batch: Callable[..., BatchFit]          # (X, Y, cfg) over row-stacked samples
    check: Optional[Callable[[PairedSample], None]]  # raises for a sample not worth fitting
    no_fit: str                             # the message of a degenerate fit
    explain: Optional[Callable[[PairedSample], None]]  # raises a degenerate fit's cause first


_METHOD_TABLE = {
    "dem": _Method("Dem", batch_dem, _check_dem, "dem: slope indeterminate (s_xy = 0)", None),
    "wdem": _Method("WDem", batch_wdem, _check_wdem, "wdem: data admit no determinate fit", None),
    "mdem": _Method("MDem", batch_mdem, None, "mdem: data admit no determinate fit", None),
    "mmdem": _Method("MMDem", batch_mmdem, None, "mmdem: data admit no determinate fit",
                     _explain_mmdem),
    "paba": _Method("PaBa", lambda X, Y, cfg: batch_paba(X, Y), None,
                    "paba: no determinate pairwise-slope median", None),
}
METHODS = tuple(_METHOD_TABLE)


def _method(method: str) -> _Method:
    try:
        return _METHOD_TABLE[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None


def check_sample(s: PairedSample, method: str):
    """Raise what ``fit`` raises before it fits: Dem's zero-variance x and
    WDem's non-positive measurements are DegenerateDataError."""
    check = _method(method).check
    if check is not None:
        check(s)


def row_fit(s: PairedSample, method: str, res: BatchFit) -> RegressionFit:
    """The fit of the sample ``s`` from row 0 of the batched fit ``res``, as ``fit`` gives it.

    A degenerate row raises DegenerateDataError; for MMDem, a failed
    covariance start raises its StartFailureError instead.  A row's fit
    does not depend on the rows batched with it, so ``bootstrap`` fits the
    full sample as row 0 of its resamples' batch.
    """
    entry = _method(method)
    if res.degenerate[0]:
        if entry.explain is not None:
            entry.explain(s)
        raise DegenerateDataError(entry.no_fit)
    return RegressionFit(
        intercept=float(res.intercept[0]),
        slope=float(res.slope[0]),
        method=method,
        iterations=int(res.iterations[0]),
        converged=bool(res.converged[0]),
        weights=None if res.weights is None else res.weights[0].copy(),
    )


def fit(s: PairedSample, method: str, cfg: DemingConfig = DemingConfig()) -> RegressionFit:
    """Dispatch by method name, one of ``METHODS``."""
    check_sample(s, method)
    return row_fit(s, method, batch_fit(s.x[None, :], s.y[None, :], method, cfg))


def batch_fit(X, Y, method: str, cfg: DemingConfig = DemingConfig()) -> BatchFit:
    """Batched dispatch over row-stacked samples (bootstrap fast path)."""
    return _method(method).batch(X, Y, cfg)


def fit_deming(s: PairedSample, cfg: DemingConfig = DemingConfig()) -> RegressionFit:
    """Closed-form Deming fit for a known error-variance ratio."""
    return fit(s, "dem", cfg)


def fit_wdeming(s: PairedSample, cfg: DemingConfig = DemingConfig()) -> RegressionFit:
    """Weighted Deming: inverse squared estimated level as weight."""
    return fit(s, "wdem", cfg)


def fit_mdeming(s: PairedSample, cfg: DemingConfig = DemingConfig()) -> RegressionFit:
    """Huber-weighted Deming; the weights hit both coordinates."""
    return fit(s, "mdem", cfg)


def fit_mmdeming(s: PairedSample, cfg: DemingConfig = DemingConfig()) -> RegressionFit:
    """Redescending (bisquare) Deming with robust covariance start."""
    return fit(s, "mmdem", cfg)


def fit_paba(s: PairedSample) -> RegressionFit:
    """Passing-Bablok shifted-median fit."""
    return fit(s, "paba")


def paba_analytic_ci(s: PairedSample, alpha: float = 0.05):
    """Rank-based confidence intervals for the pairwise-slope fit.

    The slope bounds are order statistics of the sorted slopes at ranks
    derived from the Kendall-type variance, shifted by the same offset as
    the estimator; the intercept bounds are the residual medians at the
    opposite slope bounds.
    """
    from .resampling import IntervalPair

    fitted = fit_paba(s)
    S, N, K = _pairwise_slopes(s.x[None, :], s.y[None, :])
    S, N, K = S[0], int(N[0]), int(K[0])
    n = s.n
    w = NormalDist().inv_cdf(1.0 - alpha / 2.0) * np.sqrt(n * (n - 1) * (2 * n + 5) / 18.0)
    M1 = int(np.round((N - w) / 2.0))
    M2 = N - M1 + 1
    if M1 < 1 or M1 + K < 1 or M2 + K > N:
        raise InsufficientDataError(
            f"paba CI: sample too small for alpha={alpha} (N={N}, M1={M1})"
        )
    b_lo = float(S[M1 + K - 1])
    b_hi = float(S[M2 + K - 1])
    a_at_hi = float(median_rows(s.y - b_hi * s.x))
    a_at_lo = float(median_rows(s.y - b_lo * s.x))
    return IntervalPair(
        slope_lo=b_lo,
        slope_hi=b_hi,
        int_lo=min(a_at_hi, a_at_lo),
        int_hi=max(a_at_hi, a_at_lo),
        level=1.0 - alpha,
        kind="analytic",
    )
