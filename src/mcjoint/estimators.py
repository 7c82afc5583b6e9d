"""Regression estimators for method comparison.

Five line fits are provided: classical errors-in-variables (Deming) with a
known error-variance ratio, its inverse-squared-level weighted variant, two
robustified variants (Huber weights, and Tukey bisquare with a robust
covariance start), and the nonparametric pairwise-slope median estimator
(Passing-Bablok).  ``fit(s, method)`` fits one sample by method name.

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
rows (``robustcov.mcd_rows`` and ``s_rows``), and the batch carries each
row's start failure for ``row_fit`` to raise.  ``_iterate_weighted``
allocates five (m, n) work arrays once per call, and each step, weight
function and weighted-moment pass writes into their leading rows in
place of new temporaries: the same operations on the same values in the
same order, so a row's fit is bit for bit what per-step temporaries give.
The unit-weight closed forms (Dem, and the starts of the iterative fits)
weigh every point by a broadcast view of 1.0, with no (m, n) array
behind it: 1.0 * x is x and a row of n ones sums to n, exactly.

``DemingConfig`` carries only ``lam``.  The tuning values no caller varies
are the module constants ``TOL``, ``MAX_ITER``, ``MAX_ITER_MM``,
``HUBER_K`` and ``BISQUARE_C``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dataset import PairedSample
from .errors import DegenerateDataError, StartFailureError, ValidationError
from .robustcov import _BLOCK_ELEMS, _weight_bisquare, _weighted_moments, median_rows


TOL = 1e-10            # IRWLS stops once the slope moves less than this
MAX_ITER = 100         # refit budget of WDem and MDem
MAX_ITER_MM = 500      # refit budget of the MMDem bisquare step
HUBER_K = 1.345        # Huber cutoff of MDem (95% Gaussian efficiency)
BISQUARE_C = 4.685     # Tukey bisquare cutoff of MMDem (95% Gaussian efficiency)
_PABA_BLOCK_SLOPES = 2 * _BLOCK_ELEMS  # pairwise slopes PaBa forms and sorts per block of rows
_TINY = np.finfo(float).tiny  # a square below it has underflowed


@dataclass(frozen=True)
class DemingConfig:
    """The x/y error-variance ratio the Deming-family fits assume."""

    lam: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"lam must be finite and > 0, got {self.lam}")


@dataclass(frozen=True)
class RegressionFit:
    """A fitted line plus convergence diagnostics."""

    intercept: float
    slope: float
    method: str
    iterations: int = 1
    converged: bool = True

    @property
    def label(self) -> str:
        entry = _METHOD_TABLE.get(self.method)
        return entry.label if entry else self.method


class BatchFit(NamedTuple):
    """Row-wise fit results from a batched engine.  No engine marks a degenerate
    row converged, so ``converged`` alone marks the rows that hold a usable line."""

    intercept: np.ndarray
    slope: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    degenerate: np.ndarray
    start_failure: Optional[np.ndarray] = None  # MMDem's only: per row, None or a StartFailureError


# ---------------------------------------------------------------------------
# batched weighted Deming closed form
# ---------------------------------------------------------------------------

def _weighted_deming(X, Y, W, lam, scratch=None):
    """Closed-form weighted Deming slope/intercept per row.

    Minimizes sum(w * (d^2 + lam * e^2)) at the optimal decomposition,
    lam being the x/y error-variance ratio.  Returns (b0, b1, ok); rows
    with no finite line (s_xy = 0, or a form that overflows at a huge lam
    or data scale, or whose s_xy^2 or non-zero t^2 underflows, at a tiny
    one) get ok=False.  ``scratch`` is the moments' two work arrays of
    X's shape (``_weighted_moments``).
    """
    sw, T, C = _weighted_moments(X, Y, W, scratch)
    xm, ym = T[:, 0], T[:, 1]
    sxx, syy, sxy = C[:, 0, 0] / sw, C[:, 1, 1] / sw, C[:, 0, 1] / sw
    t = lam * syy - sxx
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tt = t * t
        b1 = (t + np.sqrt(tt + 4.0 * lam * sxy * sxy)) / (2.0 * lam * sxy)
    b0 = ym - b1 * xm
    ok = (sxy * sxy >= _TINY) & ((tt >= _TINY) | (t == 0.0)) & np.isfinite(b1) & (b1 != 0.0) \
        & np.isfinite(b0)
    return b0, b1, ok


def _deming_residuals(X, Y, b0, b1, lam, out=None):
    """Per-point (d, e) residuals of the optimal decomposition.

    The optimal true level is xhat = (X + lam b1 (Y - b0)) / (1 + lam b1^2);
    d = X - xhat and e = Y - (b0 + b1 xhat).  ``out`` is a pair of arrays
    of X's shape that take d and e (xhat is formed in e's), else new ones.
    """
    d, e = (np.empty_like(X), np.empty_like(X)) if out is None else out
    b0c, b1c = b0[:, None], b1[:, None]
    xhat = np.subtract(Y, b0c, out=e)
    xhat *= lam * b1c
    xhat += X
    xhat /= 1.0 + lam * b1c ** 2
    np.subtract(X, xhat, out=d)
    xhat *= b1c
    xhat += b0c
    np.subtract(Y, xhat, out=e)
    return d, e


def _huber_weight(U, k):
    """Huber weights k / max(u, k) of the absolute scaled residuals U, in U."""
    return np.divide(k, np.maximum(U, k, out=U), out=U)


def _robust_scale(A, scratch):
    """1.4826 * median(|r|) per row of A = |r|, with mean(|r|) fallback when zero.

    A zero result means every residual in the row is exactly zero; the
    caller treats that as a perfect fit (weight one), so zeros map to inf
    to make r/scale collapse to 0.  The scale is positive or inf, so
    |r|/scale is |r/scale| bit for bit.  ``scratch`` is ``median_rows``' copy of A.
    """
    s = 1.4826 * median_rows(A, scratch)
    zero = s == 0.0
    if zero.any():
        s = np.where(zero, A.mean(axis=1), s)
    return np.where(s > 0.0, s, np.inf)


def batch_dem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Vectorized plain Deming over row-stacked samples."""
    b0, b1, ok = _weighted_deming(X, Y, np.broadcast_to(1.0, X.shape), cfg.lam)
    m = X.shape[0]
    return BatchFit(b0, b1, ok, np.ones(m, dtype=int), ~ok)


def _iterate_weighted(X, Y, lam, weight_fn, max_iter, start) -> BatchFit:
    """Shared IRWLS driver: refit weighted Deming until the slope settles.

    ``start`` is the starting line per row, ``(b0, b1, ok)``, finite where
    ``ok``; rows with ``ok`` False are not iterated and come back degenerate.
    ``weight_fn(rows, Xa, Ya, b0, b1, W, scratch)`` gets the indices and
    data of the k active rows, writes their per-point weights into the
    (k, n) array ``W`` and returns a boolean mask of rows to flag
    degenerate; ``scratch`` is two more (k, n) arrays it may overwrite.

    Each call allocates five (m, n) buffers once, for the active rows' data,
    weights and two scratch; a step works in their leading k rows, which are
    C-contiguous, so every row sum adds the values a new array would hold
    in the same order, and a row's fit is that of per-step temporaries.
    The data are gathered again only when rows have left.  Flagged rows
    leave before the step's fit, which restarts on the rows left; ``max_iter``
    counts the fits.
    """
    m, n = X.shape
    b0, b1, ok = start
    iters = np.ones(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    degenerate = ~ok
    active = np.flatnonzero(ok)
    work = np.empty((5, m, n))
    held = 0  # the active rows only shrink, so the buffers hold them while their count stands
    steps = 0
    while active.size and steps < max_iter:
        k = active.size
        Xa, Ya, Wa, *scratch = work[:, :k]
        if k != held:
            np.take(X, active, axis=0, out=Xa, mode="clip")
            np.take(Y, active, axis=0, out=Ya, mode="clip")
            held = k
        bad = weight_fn(active, Xa, Ya, b0[active], b1[active], Wa, scratch)
        if bad.any():
            degenerate[active[bad]] = True
            active = active[~bad]
            continue
        steps += 1
        nb0, nb1, ok = _weighted_deming(Xa, Ya, Wa, lam, scratch)
        degenerate[active[~ok]] = True
        delta = np.abs(nb1 - b1[active])
        b0[active] = nb0
        b1[active] = nb1
        iters[active] += 1
        done = ok & (delta < TOL)
        converged[active[done]] = True
        active = active[ok & ~done]
    return BatchFit(b0, b1, converged, iters, degenerate)


def batch_wdem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Vectorized weighted Deming (inverse squared level weights)."""

    def weight_fn(rows, Xa, Ya, b0, b1, W, scratch):
        level = np.subtract(Ya, b0[:, None], out=W)  # 0.5 * (x + (y - b0) / b1)
        level /= b1[:, None]
        level += Xa
        level *= 0.5
        bad = (level <= 0.0).any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, np.multiply(level, level, out=W), out=W)
        return bad

    start = _weighted_deming(X, Y, np.broadcast_to(1.0, X.shape), cfg.lam)
    return _iterate_weighted(X, Y, cfg.lam, weight_fn, MAX_ITER, start)


def batch_mdem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Vectorized Huber-weighted Deming (weights applied on both axes)."""
    lam = cfg.lam

    def weight_fn(rows, Xa, Ya, b0, b1, W, scratch):
        e, part = scratch  # d is weighted in W, e in its own array, part holds the MAD's copy
        for r in _deming_residuals(Xa, Ya, b0, b1, lam, (W, e)):
            np.abs(r, out=r)
            r /= _robust_scale(r, part)[:, None]
            _huber_weight(r, HUBER_K)
        W *= e
        return np.zeros(len(rows), dtype=bool)

    start = _weighted_deming(X, Y, np.broadcast_to(1.0, X.shape), lam)
    return _iterate_weighted(X, Y, lam, weight_fn, MAX_ITER, start)


def _mean_distance(X, Y, b0, b1, lam):
    """Mean Euclidean (d, e) residual per row; NaN where the line is not finite."""
    d, e = _deming_residuals(X, Y, b0, b1, lam)
    return np.hypot(d, e).mean(axis=1)


def batch_mmdem(X, Y, cfg: DemingConfig) -> BatchFit:
    """Bisquare Deming from a robust covariance start, scale fixed per row.

    Rows that the closed-form line already fits exactly keep that line.
    The others start from the S-covariance line (Rocke fallback), all
    rows at once, and are refit with bisquare weights at the start's mean
    residual distance.  Rows whose covariance starters both fail are
    flagged degenerate, and their start failures are returned as
    ``start_failure``.
    """
    lam = cfg.lam
    # (near-)collinear rows defeat the covariance starters but are simply a
    # perfect fit; they keep the closed-form line
    b0, b1, ok = _weighted_deming(X, Y, np.broadcast_to(1.0, X.shape), lam)
    spread = X.std(axis=1) + Y.std(axis=1)
    final = ok & (_mean_distance(X, Y, b0, b1, lam) <= 1e-12 * spread)
    started = np.zeros_like(final)
    start_failure = np.full(len(X), None, dtype=object)
    rows = np.flatnonzero(~final)
    if rows.size:
        start_b0, start_b1, start_ok, start_failure[rows] = _mm_starts(X[rows], Y[rows])
        rows = rows[start_ok]
        b0[rows], b1[rows], started[rows] = start_b0[start_ok], start_b1[start_ok], True
    sigma = _mean_distance(X, Y, b0, b1, lam)
    final |= started & (sigma == 0.0)  # the start itself fits exactly

    def weight_fn(rows, Xa, Ya, b0, b1, W, scratch):
        e = scratch[0]  # d is weighted in W, e in its own array
        s = sigma[rows, None]
        for r in _deming_residuals(Xa, Ya, b0, b1, lam, (W, e)):
            r /= s
            _weight_bisquare(r, BISQUARE_C, out=r)
        W *= e
        return (W.sum(axis=1) <= 0.0) | ((W > 0.0).sum(axis=1) < 3)

    res = _iterate_weighted(X, Y, lam, weight_fn, MAX_ITER_MM, (b0, b1, started & ~final))
    # a covariance start is no fit, so the refits alone count as iterations
    return res._replace(converged=res.converged | final, degenerate=res.degenerate & ~final,
                        iterations=np.where(final, 1, res.iterations - 1), start_failure=start_failure)


def _mm_starts(X, Y):
    """Robust starting lines per row: S-covariance slope, Rocke covariance fallback.

    Both S-estimators start a row from the same MCD, so a row whose MCD is
    singular fails both.  Returns ``(b0, b1, ok, failure)``; where ``ok`` is
    False, ``failure`` holds a StartFailureError naming why the row's last
    starter failed: its S failure, an indeterminate slope, or a line that is
    not finite.  An MCD start that cannot be taken at all is every row's cause.
    """
    from . import robustcov

    m = len(X)
    b0, b1 = np.full(m, np.nan), np.full(m, np.nan)
    todo = np.ones(m, dtype=bool)
    cause = np.full(m, None, dtype=object)
    starters = (robustcov.S_BISQUARE, robustcov.S_ROCKE)
    try:
        start = robustcov.s_start(X, Y)
    except ValidationError as err:
        cause.fill(err)
        starters = ()
    for estimator in starters:
        rows = np.flatnonzero(todo)
        center, scatter, code = robustcov.s_rows(X[rows], Y[rows], start.take(rows), estimator)
        sxx, sxy, syy = scatter[:, 0, 0], scatter[:, 0, 1], scatter[:, 1, 1]
        indeterminate = (code == 0) & ((sxx <= 0.0) | (sxy == 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = 0.5 * (sxy / sxx + syy / sxy)
            c0 = center[:, 1] - c1 * center[:, 0]
        good = (code == 0) & ~indeterminate & np.isfinite(c0) & np.isfinite(c1) & (c1 != 0.0)
        cause[rows[code != 0]] = [robustcov.s_failure(c, estimator) for c in code[code != 0]]
        cause[rows[(code == 0) & ~good]] = DegenerateDataError(
            "covariance start gives a line that is not finite")
        cause[rows[indeterminate]] = DegenerateDataError("covariance start gives indeterminate slope")
        b0[rows[good]], b1[rows[good]], todo[rows[good]] = c0[good], c1[good], False
    failure = np.full(m, None, dtype=object)
    failure[todo] = [StartFailureError(f"both covariance starters failed: {c}") for c in cause[todo]]
    return b0, b1, ~todo, failure


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
    b0 = median_rows(Y - b1[:, None] * X)
    ok &= np.isfinite(b0)
    return BatchFit(b0, b1, ok, np.ones(m, dtype=int), ~ok)


# ---------------------------------------------------------------------------
# public single-sample API
# ---------------------------------------------------------------------------

def _check_wdem(s: PairedSample):
    if (s.x <= 0).any() or (s.y <= 0).any():
        raise DegenerateDataError("wdem: requires positive measurements")


class _Method(NamedTuple):
    label: str
    batch: Callable[..., BatchFit]          # (X, Y, cfg) over row-stacked float arrays
    check: Optional[Callable[[PairedSample], None]]  # raises for a sample not worth fitting
    no_fit: str                             # the message of a degenerate fit


_METHOD_TABLE = {
    "dem": _Method("Dem", batch_dem, None, "dem: slope indeterminate (s_xy = 0, or the closed "
                   "form underflows or overflows at this lam or data scale)"),
    "wdem": _Method("WDem", batch_wdem, _check_wdem, "wdem: data admit no determinate fit"),
    "mdem": _Method("MDem", batch_mdem, None, "mdem: data admit no determinate fit"),
    "mmdem": _Method("MMDem", batch_mmdem, None, "mmdem: data admit no determinate fit"),
    "paba": _Method("PaBa", lambda X, Y, cfg: batch_paba(X, Y), None,
                    "paba: no determinate pairwise-slope median, or the intercept overflows"),
}
METHODS = tuple(_METHOD_TABLE)


def _method(method: str) -> _Method:
    try:
        return _METHOD_TABLE[method]
    except KeyError:
        raise ValidationError(f"unknown method {method!r}; choose from {METHODS}") from None


def check_sample(s: PairedSample, method: str):
    """Raise what ``fit`` raises before it fits: WDem's non-positive
    measurements are DegenerateDataError."""
    check = _method(method).check
    if check is not None:
        check(s)


def row_fit(method: str, res: BatchFit) -> RegressionFit:
    """The fit of row 0 of the batched fit ``res``, as ``fit`` gives it.

    A degenerate row raises DegenerateDataError, or, where the batch holds
    a start failure for it (MMDem), that StartFailureError.  A row's fit
    does not depend on the rows batched with it, so ``bootstrap`` fits the
    full sample as row 0 of its resamples' batch.
    """
    entry = _method(method)
    if res.degenerate[0]:
        if res.start_failure is not None and res.start_failure[0] is not None:
            raise res.start_failure[0]
        raise DegenerateDataError(entry.no_fit)
    return RegressionFit(
        intercept=float(res.intercept[0]),
        slope=float(res.slope[0]),
        method=method,
        iterations=int(res.iterations[0]),
        converged=bool(res.converged[0]),
    )


def fit(s: PairedSample, method: str, cfg: DemingConfig = DemingConfig()) -> RegressionFit:
    """Dispatch by method name, one of ``METHODS``."""
    check_sample(s, method)
    return row_fit(method, batch_fit(s.x[None, :], s.y[None, :], method, cfg))


def batch_fit(X, Y, method: str, cfg: DemingConfig = DemingConfig()) -> BatchFit:
    """Batched dispatch over row-stacked samples; the engines receive them as float arrays.

    Overflow inside a fit raises no numpy warning: every engine flags a
    row whose line is not finite as degenerate, or as a start failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _method(method).batch(np.asarray(X, float), np.asarray(Y, float), cfg)
