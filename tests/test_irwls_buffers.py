"""The IRWLS loop in reused buffers against the per-step temporaries it replaced.

The functions below are the shipped WDem, MDem and MMDem engines as they
stood when every step allocated its own arrays: the IRWLS loop, the Deming
residuals, the robust scale, the Huber and bisquare weights, the
weighted moments and the row median, frozen as the reference.  The
buffered engines do the same per-row arithmetic, so every ``BatchFit``
array must be equal byte for byte, NaN for NaN, and MMDem's start
failures equal in type and message.  MMDem's covariance start
runs through ``robustcov``, whose moments, median and bisquare kernels
are swapped for the frozen ones when the reference runs.
"""

from pathlib import Path

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import estimators as est
from mcjoint import robustcov
from mcjoint.dataset import GeneratorSpec, PairedSample, generate, read_csv
from mcjoint.rng import task_rng

CFG = est.DemingConfig()
HEMOGLOBIN = Path(mj.__file__).resolve().parent / "data" / "hemoglobin.csv"


# -- the reference: per-step temporaries ---------------------------------------

def median_rows(A):
    A = np.asarray(A, dtype=float)
    h = A.shape[-1] // 2
    part = np.partition(A, h, axis=-1)
    med = part[..., h]
    if A.shape[-1] % 2 == 0:
        med = (part[..., :h].max(axis=-1) + med) / 2
    return np.where(np.isnan(part[..., h:]).any(axis=-1), np.nan, med)


def _weighted_moments(Z0, Z1, w):
    sw = w.sum(axis=1)
    T = np.stack([(w * Z0).sum(axis=1), (w * Z1).sum(axis=1)], axis=-1) / sw[:, None]
    D0 = Z0 - T[:, 0, None]
    D1 = Z1 - T[:, 1, None]
    wD0 = w * D0
    C = np.empty((len(w), 2, 2))
    C[:, 0, 0] = (wD0 * D0).sum(axis=1)
    C[:, 1, 1] = (w * D1 * D1).sum(axis=1)
    C[:, 0, 1] = C[:, 1, 0] = (wD0 * D1).sum(axis=1)
    return sw, T, C


def _weight_bisquare(u, c):
    t = (u / c) ** 2
    return np.where(np.abs(u) <= c, (1.0 - t) ** 2, 0.0)


def _weighted_deming(X, Y, W, lam):
    sw, T, C = _weighted_moments(X, Y, W)
    xm, ym = T[:, 0], T[:, 1]
    sxx, syy, sxy = C[:, 0, 0] / sw, C[:, 1, 1] / sw, C[:, 0, 1] / sw
    t = lam * syy - sxx
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (t + np.sqrt(t * t + 4.0 * lam * sxy * sxy)) / (2.0 * lam * sxy)
    ok = (sxy != 0.0) & np.isfinite(b1) & (b1 != 0.0)
    b0 = ym - b1 * xm
    return b0, b1, ok


def _deming_residuals(X, Y, b0, b1, lam):
    xhat = (X + lam * b1[:, None] * (Y - b0[:, None])) / (1.0 + lam * b1[:, None] ** 2)
    d = X - xhat
    e = Y - (b0[:, None] + b1[:, None] * xhat)
    return d, e


def _huber_weight(Z, k):
    return k / np.maximum(np.abs(Z), k)


def _robust_scale(R):
    s = 1.4826 * median_rows(np.abs(R))
    zero = s == 0.0
    if zero.any():
        s = np.where(zero, np.abs(R).mean(axis=1), s)
    return np.where(s > 0.0, s, np.inf)


def _iterate_weighted(X, Y, lam, weight_fn, max_iter, start):
    m, _ = X.shape
    b0, b1, ok = start
    iters = np.ones(m, dtype=int)
    converged = np.zeros(m, dtype=bool)
    degenerate = ~ok
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
        b0[active] = nb0
        b1[active] = nb1
        iters[active] += 1
        done = ok & (delta < est.TOL)
        converged[active[done]] = True
        active = active[ok & ~done]
    degenerate |= ~np.isfinite(b1) | ~np.isfinite(b0)
    converged &= ~degenerate
    return est.BatchFit(b0, b1, converged, iters, degenerate)


def batch_wdem(X, Y, cfg):
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)

    def weight_fn(rows, Xa, Ya, b0, b1):
        level = 0.5 * (Xa + (Ya - b0[:, None]) / b1[:, None])
        bad = (level <= 0.0).any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            W = 1.0 / (level * level)
        return W, bad

    start = _weighted_deming(X, Y, np.ones_like(X), cfg.lam)
    return _iterate_weighted(X, Y, cfg.lam, weight_fn, est.MAX_ITER, start)


def batch_mdem(X, Y, cfg):
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    lam = cfg.lam

    def weight_fn(rows, Xa, Ya, b0, b1):
        d, e = _deming_residuals(Xa, Ya, b0, b1, lam)
        sd = _robust_scale(d)
        se = _robust_scale(e)
        W = _huber_weight(d / sd[:, None], est.HUBER_K) * _huber_weight(e / se[:, None], est.HUBER_K)
        return W, np.zeros(len(Xa), dtype=bool)

    start = _weighted_deming(X, Y, np.ones_like(X), lam)
    return _iterate_weighted(X, Y, lam, weight_fn, est.MAX_ITER, start)


def _mean_distance(X, Y, b0, b1, lam):
    with np.errstate(invalid="ignore", over="ignore"):
        d, e = _deming_residuals(X, Y, b0, b1, lam)
        return np.hypot(d, e).mean(axis=1)


def batch_mmdem(X, Y, cfg):
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    lam = cfg.lam
    b0, b1, ok = _weighted_deming(X, Y, np.ones_like(X), lam)
    spread = X.std(axis=1) + Y.std(axis=1)
    final = ok & (_mean_distance(X, Y, b0, b1, lam) <= 1e-12 * np.maximum(spread, 1.0))
    started = np.zeros_like(final)
    start_failure = np.full(len(X), None, dtype=object)
    rows = np.flatnonzero(~final)
    if rows.size:
        start_b0, start_b1, start_ok, start_failure[rows] = est._mm_starts(X[rows], Y[rows])
        rows = rows[start_ok]
        b0[rows], b1[rows], started[rows] = start_b0[start_ok], start_b1[start_ok], True
    sigma = _mean_distance(X, Y, b0, b1, lam)
    final |= started & (sigma == 0.0)

    def weight_fn(rows, Xa, Ya, b0, b1):
        d, e = _deming_residuals(Xa, Ya, b0, b1, lam)
        s = sigma[rows, None]
        W = _weight_bisquare(d / s, est.BISQUARE_C) * _weight_bisquare(e / s, est.BISQUARE_C)
        return W, (W.sum(axis=1) <= 0.0) | ((W > 0.0).sum(axis=1) < 3)

    res = _iterate_weighted(X, Y, lam, weight_fn, est.MAX_ITER_MM, (b0, b1, started & ~final))
    return res._replace(converged=res.converged | final, degenerate=res.degenerate & ~final,
                        iterations=np.where(final, 1, res.iterations - 1), start_failure=start_failure)


REFERENCE = {"wdem": batch_wdem, "mdem": batch_mdem, "mmdem": batch_mmdem}


def _frozen(mp: pytest.MonkeyPatch):
    """Put ``robustcov``'s moments, median and bisquare kernels back as they
    were, for the covariance start of the reference MMDem."""
    mp.setattr(robustcov, "_weighted_moments", _weighted_moments)
    mp.setattr(robustcov, "median_rows", median_rows)
    mp.setattr(robustcov, "_weight_bisquare", _weight_bisquare)


# -- inputs ---------------------------------------------------------------------

def _bootstrap_rows(s: PairedSample, B: int, seed: int):
    """The full sample and B resamples, as ``bootstrap`` stacks them."""
    rows = np.empty((B + 1, s.n), dtype=np.intp)
    rows[0] = np.arange(s.n)
    rows[1:] = task_rng(seed).integers(0, s.n, (B, s.n))
    return s.x[rows], s.y[rows]


def _jackknife_rows(s: PairedSample):
    keep = np.array([[j for j in range(s.n) if j != i] for i in range(s.n)], dtype=np.intp)
    return s.x[keep], s.y[keep]


def _synthetic(seed: int, digits=None):
    return generate(GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=digits,
                                  precision_y=digits, seed=seed))


def _degenerate_rows():
    """Rows that stop early or sit near an edge: two exact fits (MDem's zero
    scale: the median and the mean of |r| are 0), a half-exact fit (median
    0, mean > 0), a constant y (s_xy = 0 from the start), levels at or below
    zero (WDem drops the row), and noisy levels just above zero."""
    x = np.arange(1.0, 21.0)
    rng = np.random.default_rng(5)
    half = x.copy()
    half[::2] += rng.normal(0.0, 0.5, 10)
    X = np.stack([x, x, x, x, x - 10.0, 0.05 * x])
    Y = np.stack([x, 2.0 * x + 3.0, half, np.full(20, 4.0),
                  x - 10.0 + rng.normal(0.0, 0.3, 20), 0.05 * x + rng.normal(0.0, 0.2, 20)])
    return X, Y


def assert_same_fit(got: est.BatchFit, want: est.BatchFit):
    for name, g, w in zip(est.BatchFit._fields, got, want):
        if name == "start_failure":  # None, or per row None or a StartFailureError
            assert (g is None) == (w is None), name
            if g is not None:
                assert [repr(e) for e in g] == [repr(e) for e in w], name
            continue
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), f"{name} differs in {np.flatnonzero(g != w)[:10]}"


def _check(method, X, Y):
    got = est.batch_fit(X, Y, method, CFG)
    with pytest.MonkeyPatch.context() as mp:
        _frozen(mp)
        want = REFERENCE[method](X, Y, CFG)
    assert_same_fit(got, want)
    return got


# -- the engines against the reference ------------------------------------------

@pytest.mark.parametrize("method", ["wdem", "mdem"])
def test_hemoglobin_bootstrap_rows(method):
    X, Y = _bootstrap_rows(read_csv(HEMOGLOBIN), 2000, 0)
    got = _check(method, X, Y)
    if method == "mdem":  # some rows spend the whole refit budget
        assert (got.iterations == est.MAX_ITER + 1).any()


def test_hemoglobin_bootstrap_rows_mmdem():
    # a row's fit does not depend on its batch; the S-start makes all 2001 rows slow
    X, Y = _bootstrap_rows(read_csv(HEMOGLOBIN), 2000, 0)
    _check("mmdem", X[:150], Y[:150])


@pytest.mark.parametrize("digits", [None, 2])
@pytest.mark.parametrize("method", ["wdem", "mdem", "mmdem"])
def test_n40_bootstrap_and_jackknife_rows(method, digits):
    s = _synthetic(3, digits)
    X, Y = _bootstrap_rows(s, 999 if method != "mmdem" else 99, 11)
    got = _check(method, X, Y)
    if method == "mdem":
        assert (got.iterations == est.MAX_ITER + 1).any()
    X, Y = _jackknife_rows(s)  # n=39: an odd width takes the odd median
    assert X.shape == (40, 39)
    _check(method, X, Y)


@pytest.mark.parametrize("seed", range(4))
def test_more_mdem_seeds(seed):
    for digits in (None, 2, 3):
        s = _synthetic(seed, digits)
        _check("mdem", *_bootstrap_rows(s, 999, seed))
        _check("mdem", *_jackknife_rows(s))


@pytest.mark.parametrize("method", ["wdem", "mdem", "mmdem"])
def test_degenerate_rows(method):
    X, Y = _degenerate_rows()
    got = _check(method, X, Y)
    if method == "wdem":
        assert got.degenerate[3:5].all() and not got.degenerate[5]
    if method == "mdem":  # the exact fits stop on their first refit
        assert got.converged[:2].all() and (got.iterations[:2] == 2).all()


def test_degenerate_rows_among_ordinary_ones():
    # rows that leave the batch mid-way make _iterate_weighted compact its buffers
    X0, Y0 = _bootstrap_rows(read_csv(HEMOGLOBIN), 300, 2)
    Xd, Yd = _degenerate_rows()
    X = np.concatenate([X0[:150], Xd, X0[150:]])
    Y = np.concatenate([Y0[:150], Yd, Y0[150:]])
    for method in ("wdem", "mdem"):
        _check(method, X, Y)


@pytest.mark.parametrize("method", ["wdem", "mdem", "mmdem"])
def test_bootstrap_of_tied_sample(method):
    s = _synthetic(1, 2)
    B = 999 if method != "mmdem" else 199
    got = mj.resampling.bootstrap(s, method, B=B, seed=(0, 1, 0, 1, 2))
    with pytest.MonkeyPatch.context() as mp:
        _frozen(mp)
        mp.setitem(est._METHOD_TABLE, method,
                   est._METHOD_TABLE[method]._replace(batch=REFERENCE[method]))
        want = mj.resampling.bootstrap(s, method, B=B, seed=(0, 1, 0, 1, 2))
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.jack.tobytes() == want.jack.tobytes()
    assert got.failed == want.failed and got.point == want.point
    atoms = [np.unique(e.slopes, return_counts=True)[1].max() / e.B for e in (got, want)]
    assert atoms[0] == atoms[1]
