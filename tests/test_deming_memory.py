"""The Deming-family fits' memory plan and the two-array weighted moments.

``_weighted_moments`` forms its products in two work arrays; the frozen
copy below is the three-array form it replaced, and both must give the
same bytes on every kind of weight row the fits and the covariance
estimators feed it.  Unit weights are a broadcast view of 1.0, which must
give the bytes of an all-ones array.  The peak of a batched fit of
bootstrap size, traced in units of one input array, pins the plan.
"""

import tracemalloc

import numpy as np
import pytest

from mcjoint import estimators as est
from mcjoint.dataset import GeneratorSpec, generate
from mcjoint.robustcov import _weighted_moments
from mcjoint.rng import task_rng


def _three_array_moments(Z0, Z1, w, scratch=None):
    a, b, c = np.empty((3,) + w.shape) if scratch is None else scratch
    sw = w.sum(axis=1)
    T = np.stack([np.multiply(w, Z0, out=a).sum(axis=1),
                  np.multiply(w, Z1, out=a).sum(axis=1)], axis=-1) / sw[:, None]
    D0 = np.subtract(Z0, T[:, 0, None], out=a)
    D1 = np.subtract(Z1, T[:, 1, None], out=b)
    wD0 = np.multiply(w, D0, out=c)
    C = np.empty((len(w), 2, 2))
    C[:, 0, 0] = np.multiply(wD0, D0, out=a).sum(axis=1)
    C[:, 1, 1] = np.multiply(np.multiply(w, D1, out=a), D1, out=a).sum(axis=1)
    C[:, 0, 1] = C[:, 1, 0] = np.multiply(wD0, D1, out=b).sum(axis=1)
    return sw, T, C


def _round(A, digits):
    """A to ``digits`` significant digits, as the generator's precision does."""
    return np.array([[float(f"{v:.{digits - 1}e}") for v in row] for row in A])


def _rows(m=60, n=40, seed=0):
    rng = np.random.default_rng(seed)
    Z0 = rng.uniform(3.0, 8.0, (m, n))
    return Z0, Z0 + rng.normal(0.0, 0.3, (m, n))


def _weights(kind, shape, seed=1):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return rng.uniform(0.0, 1.0, shape)
    if kind == "zeros":  # some points weigh nothing, as bisquare's far points do
        return np.where(rng.uniform(size=shape) < 0.3, 0.0, rng.uniform(0.0, 1.0, shape))
    return (rng.uniform(size=shape) < 0.8).astype(float)  # MCD reweighting keeps or drops a point


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("data", ["continuous", "2-digit", "1e-150", "1e150"])
@pytest.mark.parametrize("weights", ["continuous", "zeros", "zero-one", "ones"])
def test_two_array_moments_equal_the_three_array_form(data, weights):
    Z0, Z1 = _rows()
    if data == "2-digit":
        Z0, Z1 = _round(Z0, 2), _round(Z1, 2)
    elif data != "continuous":
        Z0, Z1 = Z0 * float(data), Z1 * float(data)
    w = np.ones(Z0.shape) if weights == "ones" else _weights(weights, Z0.shape)
    want = _three_array_moments(Z0, Z1, w)
    _assert_same_bytes(_weighted_moments(Z0, Z1, w), want)
    # in the leading rows of larger buffers, as the IRWLS loop passes them
    k = len(w)
    work = np.full((2, k + 7, Z0.shape[1]), np.nan)
    _assert_same_bytes(_weighted_moments(Z0, Z1, w, work[:, :k]), want)


def test_a_row_of_zero_weights_gives_the_same_nan_bytes():
    Z0, Z1 = _rows(m=4)
    w = _weights("zeros", Z0.shape)
    w[2] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = _weighted_moments(Z0, Z1, w), _three_array_moments(Z0, Z1, w)
    assert np.isnan(got[1][2]).all()
    _assert_same_bytes(got, want)


def test_broadcast_unit_weights_give_the_bytes_of_ones():
    Z0, Z1 = _rows()
    unit = np.broadcast_to(1.0, Z0.shape)
    assert unit.strides == (0, 0)
    want = _three_array_moments(Z0, Z1, np.ones(Z0.shape))
    _assert_same_bytes(_weighted_moments(Z0, Z1, unit), want)
    _assert_same_bytes(est._weighted_deming(Z0, Z1, unit, 1.0),
                       est._weighted_deming(Z0, Z1, np.ones(Z0.shape), 1.0))


def _bootstrap_batch():
    s = generate(GeneratorSpec(xmin=3.0, xmax=8.0, n=40, seed=0))
    idx = task_rng(0).integers(0, s.n, (2001, s.n))
    return s.x[idx], s.y[idx]


def _traced_fit(X, Y, method):
    """``batch_fit``'s result and its traced peak, in units of X.nbytes."""
    tracemalloc.start()
    try:
        res = est.batch_fit(X, Y, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak / X.nbytes


@pytest.mark.parametrize("method, most", [("dem", 3.0), ("wdem", 6.0), ("mdem", 6.0)])
def test_batch_fit_peak_of_bootstrap_size(method, most):
    # Dem holds the moments' two work arrays; WDem and MDem the IRWLS loop's
    # five and the moments' scratch within them, plus the start's two
    X, Y = _bootstrap_batch()
    assert _traced_fit(X, Y, method)[1] <= most


def test_batch_fit_peak_with_a_flagged_wdem_row():
    # a row shifted below zero has levels <= 0, so WDem flags it at its first
    # step; the rows left are gathered again into the same five arrays
    X, Y = _bootstrap_batch()
    X[1] -= 10.0
    Y[1] -= 10.0
    res, peak = _traced_fit(X, Y, "wdem")
    assert peak <= 6.0
    assert np.flatnonzero(res.degenerate).tolist() == [1]
