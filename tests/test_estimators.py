"""Estimator correctness: oracles, paper anchors, and invariance properties."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcjoint as mj
from mcjoint import estimators as est
from mcjoint import resampling, robustcov
from mcjoint.dataset import GeneratorSpec, PairedSample, generate, round_significant
from mcjoint.estimators import DemingConfig, fit

CFG = DemingConfig()


def sample(x, y):
    return PairedSample(x=np.asarray(x, float), y=np.asarray(y, float))


def deming_objective(x, y, b0, b1, lam=1.0):
    """Sum of d_i^2 + lam * e_i^2 at the optimal decomposition of each point.

    Point i's residual r = y - b0 - b1 x splits into x and y errors d and e;
    the split that minimizes d^2 + lam e^2 leaves lam r^2 / (1 + lam b1^2).
    """
    r = np.asarray(y) - b0 - b1 * np.asarray(x)
    return float((lam * r * r / (1.0 + lam * b1 * b1)).sum())


def line_sample(slope, intercept, n=12, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = np.linspace(1.0, 10.0, n) + rng.normal(0, 0.01, n)
    y = slope * x + intercept + rng.normal(0, noise, n)
    return sample(x, y)


# -- Deming ------------------------------------------------------------------

def test_deming_identity_line():
    s = line_sample(1.0, 0.0)
    f = fit(s, "dem")
    assert f.slope == pytest.approx(1.0, abs=1e-12)
    assert f.intercept == pytest.approx(0.0, abs=1e-12)
    assert f.iterations == 1 and f.converged


def test_deming_exact_affine():
    f = fit(line_sample(2.0, 3.0), "dem")
    assert f.slope == pytest.approx(2.0, abs=1e-10)
    assert f.intercept == pytest.approx(3.0, abs=1e-10)


def test_deming_matches_grid_search_oracle():
    rng = np.random.default_rng(7)
    x = np.array([1.0, 2.0, 3.5, 5.0, 7.0]) + rng.normal(0, 0.3, 5)
    y = 1.4 * x + 0.7 + rng.normal(0, 0.3, 5)
    s = sample(x, y)
    f = fit(s, "dem", CFG)
    # brute force over a fine (intercept, slope) grid around the answer
    b0g = np.linspace(f.intercept - 0.3, f.intercept + 0.3, 241)
    b1g = np.linspace(f.slope - 0.3, f.slope + 0.3, 241)
    best = (np.inf, None, None)
    for b0 in b0g:
        for b1 in b1g:
            val = deming_objective(s.x, s.y, b0, b1, CFG.lam)
            if val < best[0]:
                best = (val, b0, b1)
    assert f.intercept == pytest.approx(best[1], abs=1.5e-3)
    assert f.slope == pytest.approx(best[2], abs=1.5e-3)
    assert deming_objective(s.x, s.y, f.intercept, f.slope, CFG.lam) <= best[0] + 1e-12


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_deming_minimizes_objective_any_lambda(lam):
    rng = np.random.default_rng(11)
    x = rng.uniform(1, 10, 20)
    y = 1.6 * x + 0.5 + rng.normal(0, 0.5, 20)
    s = sample(x, y)
    f = fit(s, "dem", DemingConfig(lam=lam))
    base = deming_objective(s.x, s.y, f.intercept, f.slope, lam)
    # profile intercept out; scan the slope finely around the answer
    for b1 in np.linspace(f.slope - 0.2, f.slope + 0.2, 4001):
        b0 = np.average(y) - b1 * np.average(x)
        assert base <= deming_objective(s.x, s.y, b0, b1, lam) + 1e-9


def test_deming_degenerate_sxy_zero():
    s = sample([1, 1, 2, 2], [1, 2, 1, 2])  # s_xy = 0, s_yy = s_xx
    with pytest.raises(mj.DegenerateDataError):
        fit(s, "dem")


def test_deming_constant_x_fails_with_its_no_fit_message():
    # the closed form's s_xy = 0 rejects a constant x, with no pre-check
    s = sample(np.full(20, 5.0), mj.load_hemoglobin().y)
    no_fit = "^dem: slope indeterminate \\(s_xy = 0, "
    with pytest.raises(mj.DegenerateDataError, match=no_fit):
        fit(s, "dem")
    with pytest.raises(mj.DegenerateDataError, match=no_fit):
        mj.bootstrap(s, "dem", CFG, B=199, seed=0)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("inf"), float("nan")])
def test_deming_config_requires_a_finite_positive_lam(lam):
    with pytest.raises(mj.ValidationError, match="lam must be finite and > 0"):
        DemingConfig(lam=lam)


def test_an_unknown_method_is_a_validation_error():
    s = line_sample(1.0, 0.0)
    for call in (lambda: fit(s, "foo"), lambda: mj.bootstrap(s, "foo", B=199),
                 lambda: mj.validate(s, "foo", B=199)):
        with pytest.raises(mj.ValidationError, match="unknown method 'foo'"):
            call()


def test_deming_symmetry_under_swap():
    s = line_sample(1.8, -0.5, noise=0.4, seed=3)
    f_xy = fit(s, "dem")
    f_yx = fit(sample(s.y, s.x), "dem")
    assert f_xy.slope == pytest.approx(1.0 / f_yx.slope, abs=1e-10)
    # fitted lines coincide: y = a + b x  <=>  x = -a/b + y/b
    assert f_yx.intercept == pytest.approx(-f_xy.intercept / f_xy.slope, abs=1e-9)


# -- weighted Deming ---------------------------------------------------------

def test_wdem_exact_identity_two_iterations():
    s = line_sample(1.0, 0.0)
    f = fit(s, "wdem")
    assert f.slope == pytest.approx(1.0, abs=1e-12)
    assert f.intercept == pytest.approx(0.0, abs=1e-12)
    assert f.iterations <= 2 and f.converged


def test_wdem_beats_dem_under_proportional_error():
    # bootstrap SE of the slope under constant-CV noise
    spec = GeneratorSpec(xmin=1.0, xmax=100.0, n=60, sigmax=1.0, sigmay=1.0,
                         error_model="multiplicative", seed=21)
    s = generate(spec)
    se = {}
    for method in ("dem", "wdem"):
        ens = mj.bootstrap(s, method, CFG, B=200, seed=5)
        se[method] = ens.slopes.std(ddof=1)
    assert se["wdem"] < se["dem"]


def test_wdem_low_value_outlier_pulls_fit():
    # a point at the detection floor drags WDem much more than MDem
    rng = np.random.default_rng(3)
    x = np.linspace(1.0, 10.0, 30)
    y = x + rng.normal(0, 0.05, 30)
    x = np.append(x, 0.05)
    y = np.append(y, 1.2)
    s = sample(x, y)
    dem = fit(s, "dem").slope
    wdem = fit(s, "wdem").slope
    mdem = fit(s, "mdem").slope
    assert abs(wdem - dem) > abs(mdem - dem)


def test_wdem_requires_positive_values():
    with pytest.raises(mj.DegenerateDataError):
        fit(sample([-1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]), "wdem")


# -- M-Deming ----------------------------------------------------------------

def test_mdem_exact_identity_all_weights_one():
    f = fit(line_sample(1.0, 0.0), "mdem")
    assert f.slope == pytest.approx(1.0, abs=1e-12)
    assert f.intercept == pytest.approx(0.0, abs=1e-12)


def test_mdem_hemoglobin_anchor():
    s = mj.load_hemoglobin()
    f = fit(s, "mdem")
    assert f.converged
    assert f.slope == pytest.approx(0.92743, abs=0.02)
    assert f.intercept == pytest.approx(0.10586, abs=0.02)


def test_mdem_resists_gross_outlier():
    # vertical (low-leverage) gross outlier: the design case for a
    # monotone M weight; an extreme-leverage outlier needs the MM variant
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1, 10, 40)
        y = x + rng.normal(0, 0.1, 40)
        mid = int(np.argmin(np.abs(x - x.mean())))
        y[mid] *= 10.0
        s = sample(x, y)
        dem = fit(s, "dem").slope
        mdem = fit(s, "mdem").slope
        hits += abs(mdem - 1.0) < abs(dem - 1.0)
    assert hits >= 95


def test_mmdem_resists_leverage_outlier():
    # the redescending fit with a robust start handles what MDem cannot
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1, 10, 40)
        y = x + rng.normal(0, 0.1, 40)
        y[0] *= 10.0
        s = sample(x, y)
        try:
            mm = fit(s, "mmdem").slope
        except mj.McjointError:
            continue
        hits += abs(mm - 1.0) < abs(fit(s, "dem").slope - 1.0)
    assert hits >= 45


# -- MM-Deming ---------------------------------------------------------------

def test_mmdem_exact_affine():
    f = fit(line_sample(2.0, 3.0), "mmdem")
    assert f.slope == pytest.approx(2.0, abs=1e-9)
    assert f.intercept == pytest.approx(3.0, abs=1e-9)
    assert f.converged


def test_mmdem_hemoglobin_in_reported_band():
    f = fit(mj.load_hemoglobin(), "mmdem")
    assert f.converged
    assert 0.83 <= f.slope <= 0.99


def test_mmdem_resists_clustered_contamination():
    # ~17% tight high-leverage blob: breaks the Huber fit, not the MM one
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(1, 10, 40)
        y = x + rng.normal(0, 0.1, 40)
        k = 8
        x = np.concatenate([x, rng.normal(16.0, 0.05, k)])
        y = np.concatenate([y, rng.normal(3.0, 0.05, k)])
        s = sample(x, y)
        try:
            mm = fit(s, "mmdem").slope
        except mj.McjointError:
            continue
        md = fit(s, "mdem").slope
        hits += abs(mm - 1.0) < abs(md - 1.0)
    assert hits >= 80


# The per-row engine MMDem ran on before it joined the shared IRWLS driver,
# kept as the reference the batched engine must reproduce bit for bit, with
# the bisquare weight it had then.

def _bisquare_weight(Z, c):
    u = Z / c
    w = (1.0 - u * u)
    w = np.where(np.abs(u) < 1.0, w * w, 0.0)
    return w


def _mmdem_single_reference(x, y, lam=1.0):
    X, Y = x[None, :], y[None, :]
    pre = est.batch_dem(X, Y, DemingConfig(lam))
    if not pre.degenerate[0]:
        d, e = est._deming_residuals(X, Y, pre.intercept, pre.slope, lam)
        spread = float(np.std(x) + np.std(y))
        if float(np.hypot(d, e).mean()) <= 1e-12 * max(spread, 1.0):
            return float(pre.intercept[0]), float(pre.slope[0]), 1, True
    B0, B1, ok, failure = est._mm_starts(x[None, :], y[None, :])
    if not ok[0]:
        raise failure[0]
    b0, b1 = B0[0], B1[0]
    d, e = est._deming_residuals(X, Y, B0, B1, lam)
    sigma = float(np.hypot(d, e).mean())
    if sigma == 0.0:
        return b0, b1, 1, True
    for it in range(1, 501):
        d, e = est._deming_residuals(X, Y, B0, B1, lam)
        w = (_bisquare_weight(d / sigma, 4.685) * _bisquare_weight(e / sigma, 4.685))[0]
        if w.sum() <= 0.0 or (w > 0).sum() < 3:
            raise mj.DegenerateDataError("all points rejected by the bisquare weights")
        nb0, nb1, ok = est._weighted_deming(X, Y, w[None, :], lam)
        if not ok[0]:
            raise mj.DegenerateDataError("indeterminate slope during MM iteration")
        delta = abs(nb1[0] - B1[0])
        B0, B1 = nb0, nb1
        if delta < 1e-10:
            return float(B0[0]), float(B1[0]), it, True
    return float(B0[0]), float(B1[0]), 500, False


def _batch_mmdem_reference(X, Y, lam=1.0):
    m = len(X)
    b0, b1 = np.zeros(m), np.zeros(m)
    conv = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=int)
    degen = np.zeros(m, dtype=bool)
    for i in range(m):
        try:
            b0[i], b1[i], iters[i], conv[i] = _mmdem_single_reference(X[i], Y[i], lam)
        except (mj.StartFailureError, mj.DegenerateDataError):
            degen[i] = True
    return est.BatchFit(b0, b1, conv, iters, degen)


COLLINEAR, TIED, COINCIDENT = -3, -2, -1


@pytest.fixture(scope="module")
def mm_rows():
    """Bootstrap rows of a contaminated n=40 sample, then three special rows.

    The special rows are an exactly collinear sample (the perfect-fit
    screen), the contaminated sample tied to 2 significant digits, and a
    sample whose points mostly coincide (both covariance starters fail).
    """
    rng = np.random.default_rng(40)
    x = rng.uniform(3.0, 8.0, 40)
    y = x + rng.normal(0.0, 0.12, 40)
    y[0] *= 3.0
    x[1:4] += 6.0
    idx = rng.integers(0, 40, (24, 40))
    line = np.linspace(3.0, 8.0, 40)
    same = np.where(np.arange(40) < 25, 5.0, x)
    X = np.vstack([x[idx], line, round_significant(x, 2), same])
    Y = np.vstack([y[idx], 2.0 * line, round_significant(y, 2), np.where(np.arange(40) < 25, 5.0, y)])
    return X, Y, _batch_mmdem_reference(X, Y)


def test_batch_mmdem_matches_per_row_reference(mm_rows):
    X, Y, ref = mm_rows
    got = est.batch_mmdem(X, Y, CFG)
    np.testing.assert_array_equal(got.degenerate, ref.degenerate)
    ok = ~ref.degenerate
    for field in ("intercept", "slope", "converged", "iterations"):
        np.testing.assert_array_equal(getattr(got, field)[ok], getattr(ref, field)[ok], err_msg=field)
    # the fixture reaches the screen, the iteration and the start failure
    assert got.iterations[COLLINEAR] == 1 and got.converged[COLLINEAR]
    assert ok[TIED] and (got.iterations[:COLLINEAR] > 1).all()
    assert ref.degenerate[COINCIDENT]


def test_fit_mmdeming_start_failure(mm_rows):
    X, Y, _ = mm_rows
    with pytest.raises(mj.StartFailureError, match="^both covariance starters failed: "):
        fit(sample(X[COINCIDENT], Y[COINCIDENT]), "mmdem")


def test_mmdem_start_whose_line_is_not_finite_names_its_cause(monkeypatch):
    # a starter that converges to an infinite center left the cause None,
    # and the message read "both covariance starters failed: None"
    s_rows = robustcov.s_rows

    def infinite_center(*args):
        center, scatter, code = s_rows(*args)
        return np.full_like(center, np.inf), scatter, np.zeros_like(code)

    monkeypatch.setattr(robustcov, "s_rows", infinite_center)
    with pytest.raises(mj.StartFailureError, match="^both covariance starters failed: "
                       "covariance start gives a line that is not finite$"):
        fit(mj.load_hemoglobin(), "mmdem")


def test_failed_mmdem_start_is_searched_once(mm_rows, monkeypatch):
    # the batch carries each row's start failure, so no second start explains it
    X, Y, _ = mm_rows
    s = sample(X[COINCIDENT], Y[COINCIDENT])
    rows = []
    s_start = robustcov.s_start

    def counted(Z0, Z1):
        rows.append(len(Z0))
        return s_start(Z0, Z1)

    monkeypatch.setattr(robustcov, "s_start", counted)
    with pytest.raises(mj.StartFailureError):
        fit(s, "mmdem")
    assert rows == [1]
    rows.clear()
    with pytest.raises(mj.StartFailureError):
        mj.bootstrap(s, "mmdem", CFG, B=199, seed=0)
    assert rows == [200]


def test_hemoglobin_mmdem_start_failures_by_cause(monkeypatch):
    # why `validate --method mmdem --b 199 --seed 1` on hemoglobin fails:
    # 14 of the first batch's 200 rows find no covariance start
    batches = []
    batch_fit = resampling.batch_fit

    def kept(*args):
        batches.append(batch_fit(*args))
        return batches[-1]

    monkeypatch.setattr(resampling, "batch_fit", kept)
    with pytest.raises(mj.EnsembleQualityError, match="^mmdem: 14 failed replicates "):
        mj.bootstrap(mj.load_hemoglobin(), "mmdem", CFG, B=199, seed=1)
    first = batches[0]
    assert len(first.start_failure) == 200 and first.degenerate.sum() == 14
    assert Counter(str(err) for err in first.start_failure if err is not None) == {
        "both covariance starters failed: M-scale iteration did not settle": 9,
        "both covariance starters failed: initial scatter is singular": 5}


def test_mmdem_bootstrap_repeatable_and_equal_to_single_fits():
    s = line_sample(1.1, 0.2, n=14, noise=0.3, seed=14)
    a = mj.bootstrap(s, "mmdem", CFG, B=199, seed=3)
    b = mj.bootstrap(s, "mmdem", CFG, B=199, seed=3)
    np.testing.assert_array_equal(a.pairs, b.pairs)
    np.testing.assert_array_equal(a.indices, b.indices)
    for pair, idx in zip(a.pairs, a.indices):
        f = fit(sample(s.x[idx], s.y[idx]), "mmdem")
        assert (f.intercept, f.slope) == (pair[0], pair[1])


# -- Passing-Bablok ----------------------------------------------------------

def test_paba_hemoglobin_exact():
    s = mj.load_hemoglobin()
    f = fit(s, "paba")
    assert round(f.slope, 5) == 0.90625
    assert round(f.intercept, 5) == 0.24844


def test_paba_exact_identity():
    f = fit(line_sample(1.0, 0.0), "paba")
    assert f.slope == 1.0
    assert f.intercept == pytest.approx(0.0, abs=1e-12)


def _paba_oracle(x, y):
    """Direct-from-definition shifted median, coded independently."""
    slopes = []
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[j] - x[i], y[j] - y[i]
            if dx == 0.0 and dy == 0.0:
                continue
            slopes.append(np.inf if (dx == 0.0 and dy > 0) else
                          -np.inf if (dx == 0.0 and dy < 0) else dy / dx)
    slopes = [v for v in slopes if v != -1.0]
    K = sum(1 for v in slopes if v < -1.0)
    S = sorted(slopes)
    N = len(S)
    if N == 0:
        return None
    if N % 2 == 1:
        rank_lo = rank_hi = (N + 1) // 2 + K
    else:
        rank_lo, rank_hi = N // 2 + K, N // 2 + K + 1
    if rank_lo < 1 or rank_hi > N:
        return None  # shifted median out of range: estimator undefined
    b = 0.5 * (S[rank_lo - 1] + S[rank_hi - 1])
    if not np.isfinite(b):
        return None
    a = float(np.median(np.asarray(y) - b * np.asarray(x)))
    return a, b


def test_paba_equals_bruteforce_oracle_small_n():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(3, 16))
        x = np.round(rng.uniform(0, 10, n), 1)  # one decimal: provokes ties
        y = np.round(x * rng.uniform(0.5, 2.0) + rng.normal(0, 1, n), 1)
        expected = _paba_oracle(x, y)
        if expected is None:
            with pytest.raises(mj.McjointError):
                fit(sample(x, y), "paba")
            continue
        f = fit(sample(x, y), "paba")
        assert f.intercept == expected[0] and f.slope == expected[1]
        checked += 1
    assert checked > 300


def test_paba_all_x_identical_degenerate():
    with pytest.raises(mj.DegenerateDataError):
        fit(sample([2, 2, 2, 2], [1, 2, 3, 4]), "paba")


def test_paba_intercept_overflow_is_degenerate():
    # slopes near 1e304 at x near 1e10: the median of y - b1 x is -inf, which was a fit
    x = 1e10 + np.arange(20) * 1e-5
    with pytest.raises(mj.DegenerateDataError, match="intercept overflows"):
        fit(sample(x, np.arange(20) * 1e299), "paba")


# -- shared properties -------------------------------------------------------

@pytest.mark.parametrize("method", ["dem", "wdem", "mdem", "mmdem", "paba"])
def test_shift_equivariance(method):
    s = line_sample(1.3, 0.5, n=25, noise=0.3, seed=11)
    c = 2.75
    f0 = fit(s, method, CFG)
    f1 = fit(sample(s.x, s.y + c), method, CFG)
    assert f1.slope == pytest.approx(f0.slope, abs=1e-8)
    assert f1.intercept == pytest.approx(f0.intercept + c, abs=1e-8)


@pytest.mark.parametrize("method", ["dem", "wdem", "mdem", "paba"])
def test_scale_equivariance(method):
    # Deming family needs the variance ratio rescaled along with y
    s = line_sample(1.3, 0.5, n=25, noise=0.3, seed=12)
    c = 1.8
    f0 = fit(s, method, CFG)
    cfg2 = DemingConfig(lam=CFG.lam / c**2)
    f1 = fit(sample(s.x, c * s.y), method, cfg2 if method != "paba" else CFG)
    assert f1.slope == pytest.approx(c * f0.slope, rel=1e-8)
    assert f1.intercept == pytest.approx(c * f0.intercept, abs=1e-7)


@pytest.mark.parametrize("k", [1e-60, 1e-13, 1e13, 1e60])
@pytest.mark.parametrize("method", est.METHODS)
def test_unit_scale_equivariance_on_hemoglobin(method, k):
    # MMDem took every row under 1e-12 units for an exact fit and returned Dem's line
    s = mj.load_hemoglobin()
    f0, f1 = fit(s, method), fit(sample(k * s.x, k * s.y), method)
    assert f1.slope == pytest.approx(f0.slope, rel=1e-9)
    assert f1.intercept / k == pytest.approx(f0.intercept, rel=1e-7)


def test_fits_whose_squares_underflow_fail_and_paba_holds():
    # at 1e-100 units the closed form's squares underflow: its root was 0, and
    # Dem returned slope -0.0897 as a fit; the MCD start divided by zero
    s = mj.load_hemoglobin()
    tiny = sample(1e-100 * s.x, 1e-100 * s.y)
    for method in ("dem", "wdem", "mdem"):
        with pytest.raises(mj.DegenerateDataError):
            fit(tiny, method)
    with pytest.raises(mj.StartFailureError):
        fit(tiny, "mmdem")
    f0, f1 = fit(s, "paba"), fit(tiny, "paba")
    assert f1.slope == pytest.approx(f0.slope, rel=1e-9)
    assert f1.intercept / 1e-100 == pytest.approx(f0.intercept, rel=1e-7)


def _row_kinds():
    """Rows of n=20: hemoglobin, hemoglobin's y at a constant x, and a sample
    that fails MMDem's start (12 points on y = x make its MCD an exact fit)."""
    h = mj.load_hemoglobin()
    line = np.arange(1.0, 13.0)
    x = np.concatenate([line, np.arange(13.0, 21.0)])
    y = np.concatenate([line, [13.7, 13.5, 16.1, 15.1, 17.4, 16.7, 19.8, 19.4]])
    return np.vstack([h.x, np.full(20, 5.0), x]), np.vstack([h.y, h.y, y])


def test_converged_rows_are_never_degenerate(monkeypatch):
    # bootstrap and the jackknife read ``converged`` alone as a usable line
    X, Y = _row_kinds()
    seen = Counter()
    for budget in (None, 2):
        if budget:  # the iterative fits stop at their budget, unconverged
            monkeypatch.setattr(est, "MAX_ITER", budget)
            monkeypatch.setattr(est, "MAX_ITER_MM", budget)
        for method in est.METHODS:
            res = est.batch_fit(X, Y, method)
            assert not (res.converged & res.degenerate).any(), (method, budget)
            seen["degenerate"] += res.degenerate[1]
            seen["capped"] += (~res.converged & ~res.degenerate)[0]
            if res.start_failure is not None:
                seen["start failure"] += res.start_failure[2] is not None
    assert seen == {"degenerate": 10, "capped": 3, "start failure": 2}


@pytest.mark.parametrize("method", ["wdem", "mdem", "mmdem"])
def test_iterative_fits_deterministic(method):
    s = line_sample(0.9, 0.2, n=30, noise=0.4, seed=13)
    f0, f1 = fit(s, method, CFG), fit(s, method, CFG)
    assert f0.slope == f1.slope and f0.intercept == f1.intercept


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_paba_matches_oracle_hypothesis(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    x = rng.uniform(0, 5, n)
    y = rng.uniform(0, 5, n)
    expected = _paba_oracle(x, y)
    if expected is None:
        return
    a, b = expected
    if b == 0.0:
        return
    f = fit(sample(x, y), "paba")
    assert f.slope == b and f.intercept == a


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000),
       p=st.floats(-5.0, 5.0), q=st.floats(0.2, 5.0), q_sign=st.sampled_from([-1.0, 1.0]),
       r=st.floats(-5.0, 5.0), t=st.floats(0.2, 5.0), t_sign=st.sampled_from([-1.0, 1.0]))
def test_deming_affine_equivariance_hypothesis(seed, p, q, q_sign, r, t, t_sign):
    # x -> p + q x and y -> r + t y map the fit when lam becomes lam q^2 / t^2
    q, t = q * q_sign, t * t_sign
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    x = rng.uniform(1.0, 10.0, n)
    y = rng.uniform(0.5, 2.0) * x + rng.normal(0.0, 0.5, n)
    lam = float(rng.choice([0.25, 1.0, 4.0]))
    f0 = fit(sample(x, y), "dem", DemingConfig(lam))
    f1 = fit(sample(p + q * x, r + t * y), "dem", DemingConfig(lam * q**2 / t**2))
    b = t / q * f0.slope
    a = r + t * f0.intercept - b * p
    assert f1.slope == pytest.approx(b, rel=1e-9)
    assert f1.intercept == pytest.approx(a, abs=1e-9 * (abs(r) + abs(t * f0.intercept) + abs(b * p) + 1.0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_paba_swap_symmetry_hypothesis(seed):
    # exact only for an odd count N of usable slopes: an even N averages
    # two order statistics, and 1/mean differs from the mean of reciprocals
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    x = rng.uniform(1.0, 10.0, n)
    y = rng.uniform(0.5, 2.0) * x + rng.normal(0.0, 0.5, n)
    _, N, _ = est._pairwise_slopes(x[None, :], y[None, :])
    assume(N[0] % 2 == 1)
    f = fit(sample(x, y), "paba")
    g = fit(sample(y, x), "paba")
    assert g.slope == pytest.approx(1.0 / f.slope, rel=1e-12)
    assert g.intercept == pytest.approx(-f.intercept / f.slope, abs=1e-9 * (abs(f.intercept / f.slope) + 10.0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(-64, 64), k=st.integers(-4, 4))
def test_paba_affine_equivariance_hypothesis(seed, p, k):
    # the same map x -> p + q x, y -> p + q y on both axes, q = 2^k > 0;
    # on a dyadic grid every pairwise slope is exact, so the slope is unchanged
    p, q = p / 4.0, 2.0 ** k
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    x = rng.integers(8, 80, n) / 8.0
    y = (np.round(8.0 * rng.uniform(0.5, 2.0) * x) + rng.integers(-4, 5, n)) / 8.0
    mapped = sample(p + q * x, p + q * y)
    try:
        f0 = fit(sample(x, y), "paba")
    except mj.DegenerateDataError:
        with pytest.raises(mj.DegenerateDataError):
            fit(mapped, "paba")
        return
    f1 = fit(mapped, "paba")
    assert f1.slope == f0.slope
    a = p + q * f0.intercept - f0.slope * p
    assert f1.intercept == pytest.approx(a, abs=1e-9 * (abs(p) + abs(q * f0.intercept) + abs(f0.slope * p) + 1.0))
