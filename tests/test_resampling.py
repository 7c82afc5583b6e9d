"""Bootstrap machinery: reproducibility, interval math, textbook oracles."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import mcjoint as mj
from mcjoint.dataset import GeneratorSpec, PairedSample, generate
from mcjoint.estimators import DemingConfig
from mcjoint import resampling
from mcjoint.resampling import (
    MAX_REPLICATES,
    BootstrapEnsemble,
    IntervalPair,
    _bca_levels,
    _linear_quantiles,
    bca_ci,
    bootstrap,
)
from mcjoint.rng import task_rng

CFG = DemingConfig()


@pytest.fixture(scope="module")
def clean_sample():
    return generate(GeneratorSpec(xmin=3, xmax=8, n=40, sigmax=0.12, sigmay=0.12, seed=77))


@pytest.fixture(scope="module")
def clean_ensemble(clean_sample):
    return bootstrap(clean_sample, "dem", CFG, B=999, seed=5)


def identity_sample(n=12):
    x = np.linspace(1.0, 9.0, n)
    return PairedSample(x=x, y=x.copy())


def test_bootstrap_rejects_small_B(clean_sample):
    with pytest.raises(mj.ValidationError):
        bootstrap(clean_sample, "dem", CFG, B=100, seed=0)


def test_bootstrap_rejects_a_B_above_the_bound_before_it_allocates(clean_sample):
    # B = 1e11 raised numpy's _ArrayMemoryError from the (B + 1, n) index matrix
    for B in (MAX_REPLICATES + 1, 100_000_000_000):
        with pytest.raises(mj.ValidationError, match=rf"^B must be in \[199, {MAX_REPLICATES}\]"):
            bootstrap(clean_sample, "dem", CFG, B=B, seed=0)


@pytest.mark.parametrize("seed", [-1, (0, -1)])
def test_bootstrap_rejects_a_negative_seed(clean_sample, seed):
    with pytest.raises(mj.ValidationError, match="seeds must be >= 0"):
        bootstrap(clean_sample, "dem", CFG, B=199, seed=seed)


def test_bit_reproducible(clean_sample):
    a = bootstrap(clean_sample, "mdem", CFG, B=299, seed=9)
    b = bootstrap(clean_sample, "mdem", CFG, B=299, seed=9)
    assert a.pairs.tobytes() == b.pairs.tobytes()
    assert a.jack.tobytes() == b.jack.tobytes()
    c = bootstrap(clean_sample, "mdem", CFG, B=299, seed=10)
    assert c.pairs.tobytes() != a.pairs.tobytes()


def test_exact_data_all_replicates_identical():
    s = identity_sample()
    e = bootstrap(s, "dem", CFG, B=199, seed=1)
    assert np.allclose(e.pairs[:, 1], 1.0, atol=1e-12)
    assert np.allclose(e.pairs[:, 0], 0.0, atol=1e-12)


def test_ensemble_mean_near_point_estimate(clean_ensemble):
    se = clean_ensemble.slopes.std(ddof=1)
    assert abs(clean_ensemble.slopes.mean() - clean_ensemble.point.slope) < 3 * se


def test_jackknife_consistency(clean_ensemble):
    jack_slope = clean_ensemble.jack[:, 1]
    se = clean_ensemble.slopes.std(ddof=1)
    assert abs(np.nanmean(jack_slope) - clean_ensemble.point.slope) < 5 * se


def test_hemoglobin_paba_slope_atom_at_one():
    s = mj.load_hemoglobin()
    e = bootstrap(s, "paba", CFG, B=2000, seed=3)
    frac_at_one = float((e.slopes == 1.0).mean())
    assert frac_at_one > 0.02   # a visible accumulation point, not noise


# -- percentile, BCa's fallback ----------------------------------------------

def test_percentile_quantile_formula():
    # 999 synthetic values 1..999, all above the point estimate 0, so BCa
    # falls back to the percentile interval: type-7 bounds 25.95 and 974.05
    pairs = np.column_stack([np.arange(1.0, 1000.0), np.arange(1.0, 1000.0)])
    e = BootstrapEnsemble(pairs=pairs, jack=np.full((10, 2), np.nan),
                          point=mj.RegressionFit(0.0, 0.0, "dem"),
                          failed=0, indices=np.zeros((999, 10), dtype=int), seed=(0,))
    iv = bca_ci(e, alpha=0.05)
    assert iv.fallback
    assert iv.slope_lo == pytest.approx(25.95, abs=1e-9)
    assert iv.slope_hi == pytest.approx(974.05, abs=1e-9)
    assert iv.int_lo == pytest.approx(25.95, abs=1e-9)
    assert iv.int_hi == pytest.approx(974.05, abs=1e-9)


def test_percentile_degenerate_zero_width():
    e = bootstrap(identity_sample(), "paba", CFG, B=199, seed=0)
    iv = bca_ci(e, 0.05)
    assert iv.fallback
    assert iv.slope_lo == iv.slope_hi == 1.0


# -- BCa ---------------------------------------------------------------------

def _bca_oracle(boot, point, jack, alpha):
    """Independent BCa implementation straight from the textbook formulas."""
    B = len(boot)
    z0 = norm.ppf(np.sum(boot < point) / B)
    jm = np.mean(jack)
    num = np.sum((jm - jack) ** 3)
    den = 6.0 * (np.sum((jm - jack) ** 2)) ** 1.5
    a = num / den if den != 0 else 0.0
    lo_hi = []
    for z in (norm.ppf(alpha / 2), norm.ppf(1 - alpha / 2)):
        adj = norm.cdf(z0 + (z0 + z) / (1 - a * (z0 + z)))
        lo_hi.append(np.quantile(boot, adj))
    return tuple(lo_hi)


def test_bca_matches_textbook_oracle():
    s = generate(GeneratorSpec(xmin=2, xmax=9, n=25, sigmax=0.3, sigmay=0.3,
                               slope=1.2, intercept=0.5, seed=8))
    e = bootstrap(s, "dem", CFG, B=999, seed=4)
    iv = bca_ci(e, alpha=0.05)
    lo, hi = _bca_oracle(e.slopes, e.point.slope, e.jack[:, 1], 0.05)
    assert iv.slope_lo == pytest.approx(lo, abs=1e-12)
    assert iv.slope_hi == pytest.approx(hi, abs=1e-12)
    lo0, hi0 = _bca_oracle(e.pairs[:, 0], e.point.intercept, e.jack[:, 0], 0.05)
    assert iv.int_lo == pytest.approx(lo0, abs=1e-12)
    assert iv.int_hi == pytest.approx(hi0, abs=1e-12)


def test_bca_reduces_to_percentile_with_injected_constants():
    alpha = 0.07
    lo, hi = _bca_levels(z0=0.0, a=0.0, alpha=alpha)
    assert lo == pytest.approx(alpha / 2, abs=1e-12)
    assert hi == pytest.approx(1 - alpha / 2, abs=1e-12)


def test_bca_symmetric_ensemble_close_to_percentile(clean_ensemble):
    p_lo, p_hi = np.quantile(clean_ensemble.slopes, [0.025, 0.975])
    b = bca_ci(clean_ensemble, 0.05)
    width = p_hi - p_lo
    assert abs(b.slope_lo - p_lo) < 0.35 * width
    assert abs(b.slope_hi - p_hi) < 0.35 * width


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05])
def test_bca_rejects_an_alpha_outside_0_1(clean_ensemble, alpha):
    with pytest.raises(mj.ValidationError, match=r"^alpha must be in \(0, 1\)"):
        bca_ci(clean_ensemble, alpha)


@pytest.mark.parametrize("alpha", [1e-17, 2.0 ** -53, 5e-324])
def test_bca_rejects_an_alpha_whose_upper_level_rounds_to_1(clean_ensemble, alpha):
    # 1 - alpha/2 == 1.0 had NormalDist.inv_cdf raise StatisticsError
    assert 1.0 - alpha / 2.0 == 1.0
    with pytest.raises(mj.ValidationError, match=r"^alpha must exceed 2\*\*-53"):
        bca_ci(clean_ensemble, alpha)
    assert bca_ci(clean_ensemble, 2.0 ** -52).alpha == 2.0 ** -52


def test_bca_raises_a_package_error_when_the_acceleration_overflows(clean_ensemble):
    # jackknife intercepts near 1e150: their cubed deviations overflow, and the NaN
    # acceleration ended in ValueError (a NaN quantile level) before
    e = clean_ensemble
    jack = e.jack.copy()
    jack[:, 0] = 1e150 * (1.0 + e.jack[:, 0])
    with pytest.raises(mj.DegenerateDataError, match="BCa acceleration is not finite"):
        bca_ci(replace(e, jack=jack), 0.05)
    jack[:, 0] = 1e100 * (1.0 + e.jack[:, 0])  # finite cubes, and the acceleration is scale-free
    got, want = bca_ci(replace(e, jack=jack), 0.05), bca_ci(e, 0.05)
    assert (got.int_lo, got.int_hi) == pytest.approx((want.int_lo, want.int_hi), rel=1e-9)


def test_linear_quantiles_equal_np_quantile_bit_for_bit():
    rng = np.random.default_rng(2105)
    cases = 0
    for _ in range(2600):
        n = int(np.exp(rng.uniform(np.log(3), np.log(3001))))
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        if rng.random() < 0.4:  # ties, and signed zeros among them
            values = np.round(values, int(rng.integers(0, 2)))
        if rng.random() < 0.02:
            values[rng.integers(n)] = np.nan
        k = int(rng.integers(n))
        levels = [0.0, 1.0,                               # the ends
                  rng.uniform(0.0, 1.0 / (n - 1)),        # below the second order statistic
                  k / (n - 1), 0.5,                       # integer virtual indexes
                  1.0 - rng.uniform(0.0, 1.0 / (n - 1)),  # above the second-largest
                  5e-324, 1.0 - 2.0 ** -53,               # a virtual index at a rounding edge
                  *rng.random(8), *rng.uniform(0.0, 0.05, 4), *rng.uniform(0.95, 1.0, 4)]
        rng.shuffle(levels)
        for lo, hi in zip(levels[::2], levels[1::2]):
            got = np.array(_linear_quantiles(values, (lo, hi)))
            assert got.tobytes() == np.quantile(values, [lo, hi]).tobytes(), (n, lo, hi)
            cases += 1
    assert cases >= 10_000


def test_bca_monotone_nesting(clean_ensemble):
    wide = bca_ci(clean_ensemble, alpha=0.01)
    narrow = bca_ci(clean_ensemble, alpha=0.10)
    assert wide.slope_lo <= narrow.slope_lo <= narrow.slope_hi <= wide.slope_hi
    assert wide.int_lo <= narrow.int_lo <= narrow.int_hi <= wide.int_hi


def test_bca_fallback_flag_for_one_sided_ensemble():
    e = bootstrap(identity_sample(), "dem", CFG, B=199, seed=0)
    iv = bca_ci(e, 0.05)
    assert iv.fallback  # all replicates equal the point estimate
    assert iv.slope_lo == iv.slope_hi == 1.0


def test_bca_contains_point_estimate_hemoglobin():
    s = mj.load_hemoglobin()
    e = bootstrap(s, "paba", CFG, B=999, seed=11)
    iv = bca_ci(e, 0.05)
    assert iv.slope_lo <= e.point.slope <= iv.slope_hi
    assert iv.int_lo <= e.point.intercept <= iv.int_hi


# -- invariants ---------------------------------------------------------------

def test_interval_bounds_ordered(clean_ensemble):
    iv = bca_ci(clean_ensemble, 0.05)
    assert iv.slope_lo <= iv.slope_hi
    assert iv.int_lo <= iv.int_hi


def doomed_sample():
    # a sample engineered so some resamples are degenerate for Deming:
    # duplicate x values mean a resample of one repeated point fails
    x = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
    y = np.array([1.1, 0.9, 1.0, 1.05, 2.0, 3.0])
    return PairedSample(x=x, y=y)


def test_failed_counter_and_quality_gate():
    with pytest.raises(mj.EnsembleQualityError):
        bootstrap(doomed_sample(), "dem", CFG, B=199, seed=2)


def test_doomed_ensemble_raises_before_any_redraw(monkeypatch):
    # 17 of its 199 first draws fail, over 5% of B: no redraw round runs
    rows = []
    batch_fit = resampling.batch_fit

    def counting(X, Y, method, cfg):
        rows.append(len(X))
        return batch_fit(X, Y, method, cfg)

    monkeypatch.setattr(resampling, "batch_fit", counting)
    with pytest.raises(mj.EnsembleQualityError, match="^dem: 17 failed replicates exceeds 5% of B=199$"):
        bootstrap(doomed_sample(), "dem", CFG, B=199, seed=2)
    assert rows == [199 + 1]


def _bootstrap_redraw_budget_reference(s, method, B, seed):
    """(pairs, indices, failed) as the bootstrap made them with a redraw budget
    of 0.2*B next to the 5% cap, kept as the reference of its accepted ensembles."""
    n = s.n
    rows = np.empty((B + 1, n), dtype=np.intp)
    rows[0] = np.arange(n)
    rows[1:] = task_rng(seed).integers(0, n, (B, n))
    res = mj.estimators.batch_fit(s.x[rows], s.y[rows], method, CFG)
    idx = rows[1:]
    ok = (res.converged & ~res.degenerate)[1:]
    pairs = np.column_stack([res.intercept[1:], res.slope[1:]])
    failed = int((~ok).sum())
    budget = int(0.2 * B)
    redraw_rngs = {}
    pending = np.flatnonzero(~ok)
    while pending.size and budget > 0:
        take = pending[: min(budget, pending.size)]
        for i in take:
            if i not in redraw_rngs:
                redraw_rngs[i] = task_rng(seed, int(i))
            idx[i] = redraw_rngs[i].integers(0, n, n)
        budget -= take.size
        r2 = mj.estimators.batch_fit(s.x[idx[take]], s.y[idx[take]], method, CFG)
        good = r2.converged & ~r2.degenerate
        pairs[take] = np.column_stack([r2.intercept, r2.slope])
        ok[take] = good
        failed += int((~good).sum())
        pending = np.flatnonzero(~ok)
    if pending.size:
        raise mj.EnsembleQualityError(f"{method}: {pending.size} replicates unrecoverable")
    if failed > 0.05 * B:
        raise mj.EnsembleQualityError(f"{method}: {failed} failed replicates")
    return pairs, idx, failed


@pytest.mark.parametrize("ties, redrawn, second_round", [(4, 23, 0), (5, 40, 2)])
def test_accepted_ensembles_match_the_redraw_budget_reference(ties, redrawn, second_round):
    # ties tied x values out of 8: a resample drawing only them is degenerate
    x = np.concatenate([np.ones(ties), np.arange(2.0, 10.0 - ties)])
    s = PairedSample(x=x, y=x + np.random.default_rng(0).normal(0.0, 0.05, 8))
    with_redraws = with_second_round = 0
    for seed in range(40):
        pairs, idx, failed = _bootstrap_redraw_budget_reference(s, "dem", 199, seed)
        got = bootstrap(s, "dem", CFG, B=199, seed=seed)
        assert got.pairs.tobytes() == pairs.tobytes(), seed
        assert got.indices.tobytes() == idx.tobytes(), seed
        assert got.failed == failed, seed
        first = int((got.indices != task_rng(seed).integers(0, 8, (199, 8))).any(axis=1).sum())
        with_redraws += 1 <= first <= failed
        with_second_round += failed > first
    assert (with_redraws, with_second_round) == (redrawn, second_round)


# ---------------------------------------------------------------------------
# the full-sample fit, row 0 of the bootstrap batch
# ---------------------------------------------------------------------------

def point_samples():
    spec = GeneratorSpec(xmin=3, xmax=8, n=40, sigmax=0.12, sigmay=0.12, seed=21)
    tied = GeneratorSpec(xmin=3, xmax=8, n=40, sigmax=0.12, sigmay=0.12, precision_x=2,
                         precision_y=2, seed=21)
    return {"hemoglobin": mj.load_hemoglobin(), "continuous": generate(spec), "tied": generate(tied)}


@pytest.mark.parametrize("method", mj.estimators.METHODS)
def test_bootstrap_point_is_the_full_sample_fit(method):
    for name, s in point_samples().items():
        got = bootstrap(s, method, CFG, B=199, seed=0).point
        want = mj.fit(s, method, CFG)
        for field in ("intercept", "slope", "method", "iterations", "converged"):
            assert getattr(got, field) == getattr(want, field), (name, field)


@pytest.mark.parametrize("method, x, y", [
    ("dem", [2.0] * 12, np.linspace(1.0, 4.0, 12)),
    ("wdem", np.linspace(-1.0, 4.0, 12), np.linspace(1.0, 4.0, 12)),
    ("mmdem", [1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.9]),
])
def test_bootstrap_raises_what_the_full_sample_fit_raises(method, x, y):
    s = PairedSample(x=np.asarray(x, float), y=np.asarray(y, float))
    with pytest.raises(mj.McjointError) as want:
        mj.fit(s, method, CFG)
    with pytest.raises(mj.McjointError) as got:
        bootstrap(s, method, CFG, B=199, seed=0)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    if method == "mmdem":
        assert type(want.value) is mj.StartFailureError
        assert "need at least 10 points" in str(want.value)
    else:
        assert type(want.value) is mj.DegenerateDataError
