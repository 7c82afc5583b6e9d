"""Passing-Bablok in row blocks against the single-block code it replaced.

``batch_paba`` below is the shipped estimator as it stood when it formed
the (rows, pairs) slope matrix of every row at once, frozen as the
reference.  The blocked estimator does the same per-row arithmetic, so
intercepts, slopes and flags must be exactly equal, NaN for NaN.
"""

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import estimators as est
from mcjoint.robustcov import median_rows


def _pairwise_slopes(X, Y):
    n = X.shape[1]
    I, J = np.triu_indices(n, 1)
    dx = X[:, J] - X[:, I]
    dy = Y[:, J] - Y[:, I]
    with np.errstate(divide="ignore", invalid="ignore"):
        S = dy / dx
    S[S == -1.0] = np.nan
    K = (S < -1.0).sum(axis=1)
    N = S.shape[1] - np.isnan(S).sum(axis=1)
    S.sort(axis=1)
    return S, N, K


def _rank_value(S, ranks):
    idx = np.clip(ranks - 1, 0, S.shape[1] - 1)
    return np.take_along_axis(S, idx[:, None], axis=1)[:, 0]


def batch_paba(X, Y):
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    S, N, K = _pairwise_slopes(X, Y)
    odd = (N % 2) == 1
    lo = np.where(odd, (N + 1) // 2, N // 2) + K
    hi = np.where(odd, lo, lo + 1)
    ok = (N >= 1) & (lo >= 1) & (hi <= N)
    b1 = 0.5 * (_rank_value(S, lo) + _rank_value(S, hi))
    ok &= np.isfinite(b1) & (b1 != 0.0)
    b1 = np.where(ok, b1, np.nan)
    with np.errstate(invalid="ignore"):
        b0 = median_rows(Y - b1[:, None] * X)
    return b0, b1, ok, ~ok


def block_rows(n):
    return max(1, est._PABA_BLOCK_SLOPES // (n * (n - 1) // 2))


def assert_same_fit(X, Y):
    got = est.batch_paba(X, Y)
    want = batch_paba(X, Y)
    for name, g, w in zip(("intercept", "slope", "converged", "degenerate"),
                          (got.intercept, got.slope, got.converged, got.degenerate), want):
        assert g.shape == w.shape, name
        assert np.array_equal(g, w, equal_nan=True), name
        if g.dtype.kind == "f":
            assert (np.signbit(g) == np.signbit(w)).all(), name
    return want


def bootstrap_rows(s, B, seed=0):
    idx = np.random.default_rng(seed).integers(0, s.n, size=(B, s.n))
    return s.x[idx], s.y[idx]


@pytest.mark.parametrize("precision", [None, 2], ids=["continuous", "tied"])
@pytest.mark.parametrize("B", [41, 999, 2000])
def test_blocked_paba_matches_single_block(B, precision):
    s = mj.generate(mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=precision,
                                     precision_y=precision, seed=7))
    X, Y = bootstrap_rows(s, B)
    assert B % block_rows(40) != 0
    b0, b1, ok, _ = assert_same_fit(X, Y)
    if precision == 2:
        # tied x gives signed infinite slopes and identical points NaN ones
        S = _pairwise_slopes(X, Y)[0]
        assert np.isposinf(S).any() and np.isneginf(S).any() and np.isnan(S).any()


def test_blocked_paba_matches_single_block_on_special_rows():
    s = mj.generate(mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, seed=8))
    X, Y = bootstrap_rows(s, 300, seed=1)
    X, Y = X.copy(), Y.copy()
    X[5, :2], Y[5, :2] = (1.0, 2.0), (3.0, 2.0)   # one pair of slope exactly -1
    X[100], Y[100] = 4.0, s.y                     # every x identical: no determinate slope
    X[299], Y[299] = s.x, 2.0 - s.x               # every slope -1: none left
    assert (_pairwise_slopes(X[5:6], Y[5:6])[1] < 780).all()
    _, _, ok, _ = assert_same_fit(X, Y)
    assert not ok[100] and not ok[299] and ok[5]


def test_blocked_paba_with_one_row_per_block():
    # more pairs per row than one block holds: every block is one row
    s = mj.generate(mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=400, precision_x=3, precision_y=3,
                                     seed=2))
    assert block_rows(400) == 1
    X, Y = bootstrap_rows(s, 3)
    assert_same_fit(X, Y)
