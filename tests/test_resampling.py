"""Bootstrap machinery: reproducibility, interval math, textbook oracles."""

import numpy as np
import pytest
from scipy.stats import norm

import mcjoint as mj
from mcjoint.dataset import GeneratorSpec, PairedSample, generate
from mcjoint.estimators import DemingConfig
from mcjoint.resampling import (
    BootstrapEnsemble,
    IntervalPair,
    _bca_levels,
    bca_ci,
    bootstrap,
    percentile_ci,
    studentized_ci,
)

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


# -- percentile --------------------------------------------------------------

def test_percentile_quantile_formula():
    # 999 synthetic slope values 1..999 -> type-7 bounds 25.95 and 974.05
    pairs = np.column_stack([np.arange(1.0, 1000.0), np.arange(1.0, 1000.0)])
    e = BootstrapEnsemble(pairs=pairs, jack=np.full((10, 2), np.nan),
                          point=mj.RegressionFit(500.0, 500.0, "dem"),
                          failed=0, method="dem", indices=np.zeros((999, 10), dtype=int),
                          sample=identity_sample(10), cfg=CFG, seed=(0,))
    iv = percentile_ci(e, alpha=0.05)
    assert iv.slope_lo == pytest.approx(25.95, abs=1e-9)
    assert iv.slope_hi == pytest.approx(974.05, abs=1e-9)


def test_percentile_degenerate_zero_width():
    e = bootstrap(identity_sample(), "paba", CFG, B=199, seed=0)
    iv = percentile_ci(e, 0.05)
    assert iv.slope_lo == iv.slope_hi == 1.0


def test_percentile_monotone_nesting(clean_ensemble):
    wide = percentile_ci(clean_ensemble, alpha=0.01)
    narrow = percentile_ci(clean_ensemble, alpha=0.10)
    assert wide.slope_lo <= narrow.slope_lo <= narrow.slope_hi <= wide.slope_hi
    assert wide.int_lo <= narrow.int_lo <= narrow.int_hi <= wide.int_hi


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
    lo0, hi0 = _bca_oracle(e.intercepts, e.point.intercept, e.jack[:, 0], 0.05)
    assert iv.int_lo == pytest.approx(lo0, abs=1e-12)
    assert iv.int_hi == pytest.approx(hi0, abs=1e-12)


def test_bca_reduces_to_percentile_with_injected_constants():
    alpha = 0.07
    lo, hi = _bca_levels(z0=0.0, a=0.0, alpha=alpha)
    assert lo == pytest.approx(alpha / 2, abs=1e-12)
    assert hi == pytest.approx(1 - alpha / 2, abs=1e-12)


def test_bca_symmetric_ensemble_close_to_percentile(clean_ensemble):
    p = percentile_ci(clean_ensemble, 0.05)
    b = bca_ci(clean_ensemble, 0.05)
    width = p.slope_hi - p.slope_lo
    assert abs(b.slope_lo - p.slope_lo) < 0.35 * width
    assert abs(b.slope_hi - p.slope_hi) < 0.35 * width


def test_bca_fallback_flag_for_one_sided_ensemble():
    e = bootstrap(identity_sample(), "dem", CFG, B=199, seed=0)
    iv = bca_ci(e, 0.05)
    assert iv.fallback  # all replicates equal the point estimate
    assert iv.slope_lo == iv.slope_hi == 1.0


def test_bca_contains_point_estimate_hemoglobin():
    s = mj.load_hemoglobin()
    e = bootstrap(s, "paba", CFG, B=999, seed=11)
    for iv in (bca_ci(e, 0.05), percentile_ci(e, 0.05)):
        assert iv.slope_lo <= e.point.slope <= iv.slope_hi
        assert iv.int_lo <= e.point.intercept <= iv.int_hi


# -- studentized -------------------------------------------------------------

def test_studentized_degenerate_zero_width():
    e = bootstrap(identity_sample(), "dem", CFG, B=199, seed=0)
    iv = studentized_ci(e, 0.05)
    assert iv.slope_lo == iv.slope_hi == 1.0


def test_studentized_close_to_percentile_for_gaussian(clean_ensemble):
    p = percentile_ci(clean_ensemble, 0.05)
    t = studentized_ci(clean_ensemble, 0.05)
    width = p.slope_hi - p.slope_lo
    assert abs((t.slope_hi - t.slope_lo) - width) < 0.5 * width
    assert t.slope_lo <= clean_ensemble.point.slope <= t.slope_hi


# -- invariants ---------------------------------------------------------------

def test_interval_bounds_ordered(clean_ensemble):
    for kind, ci in (("percentile", percentile_ci), ("bca", bca_ci), ("studentized", studentized_ci)):
        iv = ci(clean_ensemble, 0.05)
        assert iv.slope_lo <= iv.slope_hi
        assert iv.int_lo <= iv.int_hi
        assert iv.kind == kind


def test_failed_counter_and_quality_gate():
    # a sample engineered so some resamples are degenerate for Deming:
    # duplicate x values mean a resample of one repeated point fails
    x = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
    y = np.array([1.1, 0.9, 1.0, 1.05, 2.0, 3.0])
    s = PairedSample(x=x, y=y)
    with pytest.raises(mj.EnsembleQualityError):
        bootstrap(s, "dem", CFG, B=199, seed=2)


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
        if want.weights is None:
            assert got.weights is None
        else:
            assert got.weights.tobytes() == want.weights.tobytes(), name
        assert (method in ("dem", "paba")) == (want.weights is None)


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
