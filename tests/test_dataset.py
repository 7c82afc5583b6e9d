"""Generator, CSV ingestion, and rounding behavior."""

import decimal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcjoint as mj
from mcjoint.dataset import GeneratorSpec, generate, hemoglobin_path, round_significant

SHORT = dict(xmin=3.0, xmax=8.0, sigmax=0.12, sigmay=0.12)
LONG = dict(xmin=0.0, xmax=110.0, sigmax=1.2, sigmay=1.2)


def test_degenerate_range_zero_noise():
    spec = GeneratorSpec(xmin=5, xmax=5, n=4, slope=1, intercept=0,
                         sigmax=1e-12, sigmay=1e-12, seed=1)
    s = generate(spec)
    assert np.allclose(s.x, 5.0) and np.allclose(s.y, 5.0)


def test_detection_cutoff_maps_to_half_detmin():
    # long-range with a slope pushing y below the limit often enough
    spec = GeneratorSpec(n=500, slope=1.0, intercept=-1.0, seed=3, **LONG)
    s = generate(spec)
    assert (s.y >= 0.05).all()
    assert ((s.y <= 0.1) == (s.y == 0.05)).all()  # nothing in (detmin/2, detmin]
    assert (s.y == 0.05).any()


def test_cutoff_exact_boundary():
    # raw value of exactly detmin is also substituted
    spec = GeneratorSpec(n=100, seed=0, **LONG)
    s = generate(spec)
    assert not ((s.x > 0.05) & (s.x <= 0.1)).any()


def test_reproducible_bitwise():
    spec = GeneratorSpec(n=50, seed=42, **SHORT)
    a, b = generate(spec), generate(spec)
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
    c = generate(replace(spec, seed=43))
    assert c.x.tobytes() != a.x.tobytes()


def test_recovery_with_vanishing_noise():
    spec = GeneratorSpec(n=40, slope=1.7, intercept=0.4,
                         sigmax=1e-13, sigmay=1e-13, seed=5, **{k: SHORT[k] for k in ("xmin", "xmax")})
    s = generate(spec)
    for method in ("dem", "wdem", "mdem", "mmdem", "paba"):
        f = mj.fit(s, method)
        assert f.slope == pytest.approx(1.7, abs=1e-6), method
        assert f.intercept == pytest.approx(0.4, abs=1e-6), method


@pytest.mark.parametrize("model", ["mixed", "multiplicative"])
def test_error_sd_matches_additive_at_center(model):
    # at the data center the scaled error reduces to the raw normal draw,
    # so generated values nearly coincide with the additive ones there
    n = 200_000
    sa = generate(GeneratorSpec(n=n, seed=11, error_model="additive", **LONG))
    sm = generate(GeneratorSpec(n=n, seed=11, error_model=model, **LONG))
    band = np.abs(sa.x - 55.0) < 2.0
    gap = np.std(sm.x[band] - sa.x[band])
    assert gap < 0.12  # an order of magnitude under sigma = 1.2


def test_multiplicative_error_grows_with_level():
    n = 100_000
    spec = GeneratorSpec(n=n, seed=7, error_model="multiplicative", **LONG)
    add = GeneratorSpec(n=n, seed=7, error_model="additive", **LONG)
    sm, sa = generate(spec), generate(add)
    hi = sa.x > 90
    lo = (sa.x > 5) & (sa.x < 20)
    dev = np.abs(sm.x - sa.x)  # |scaled - raw| error gap grows with level
    assert dev[hi].mean() > dev[lo].mean()


def test_round_significant_examples():
    assert round_significant(np.array([5.6789]), 2)[0] == pytest.approx(5.7)
    assert round_significant(np.array([5.6789]), 3)[0] == pytest.approx(5.68)
    assert round_significant(np.array([0.034567]), 2)[0] == pytest.approx(0.035)
    assert round_significant(np.array([123456.0]), 2)[0] == pytest.approx(120000.0)


def _decimal_signif(value: float, digits: int) -> float:
    """Independent oracle: round-half-even on the decimal mantissa."""
    if value == 0:
        return 0.0
    d = decimal.Decimal(value)
    exp = d.adjusted()  # floor(log10(|d|))
    quantum = decimal.Decimal(1).scaleb(exp - digits + 1)
    return float(d.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))


def test_round_significant_against_decimal_oracle():
    rng = np.random.default_rng(123)
    vals = np.concatenate([
        rng.uniform(0.001, 1000.0, 800),
        rng.uniform(-1000.0, -0.001, 200),
    ])
    for digits in (2, 3, 4):
        ours = round_significant(vals, digits)
        oracle = np.array([_decimal_signif(v, digits) for v in vals])
        np.testing.assert_allclose(ours, oracle, rtol=0, atol=0)


def test_precision_rounding_only_above_detmin():
    spec = GeneratorSpec(n=2000, slope=1.0, intercept=-1.0, seed=9,
                         precision_x=2, precision_y=2, **LONG)
    s = generate(spec)
    low = s.y == 0.05
    assert low.any()
    # everything above the limit carries at most 2 significant digits
    above = s.y[~low]
    rounded = round_significant(above, 2)
    np.testing.assert_array_equal(above, rounded)


def test_generated_values_positive():
    spec = GeneratorSpec(n=5000, slope=1.0, intercept=-2.0, seed=13, **LONG)
    s = generate(spec)
    assert (s.x > 0).all() and (s.y > 0).all()


@pytest.mark.parametrize("bad", [
    dict(xmin=8, xmax=3),
    dict(sigmax=0.0),
    dict(detmin=0.0),
    dict(error_model="weird"),
    dict(precision_x=5),
    dict(n=2),
    dict(xmax=np.inf),
    dict(xmin=-np.inf),
    dict(xmax=np.nan),
    dict(sigmax=np.inf),
    dict(sigmay=np.nan),
    dict(detmin=np.inf),
    dict(detmin=np.nan),
    dict(slope=np.nan),
    dict(intercept=np.inf),
])
def test_invalid_spec_rejected(bad):
    kw = dict(xmin=3.0, xmax=8.0, n=40)
    kw.update(bad)
    with pytest.raises(mj.ValidationError):
        GeneratorSpec(**kw)


# -- CSV ---------------------------------------------------------------------

def test_bundled_hemoglobin():
    s = mj.load_hemoglobin()
    assert s.n == 20
    assert s.x[0] == 6.4 and s.y[0] == 6.0
    assert s.label == "D10 vs Cobas"


def test_read_csv_single_row(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(mj.ValidationError, match="at least 3"):
        mj.read_csv(p)


def test_read_csv_trailing_blank_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("m1,m2\n1,2\n3,4\n5,6\n\n")
    s = mj.read_csv(p)
    assert s.n == 3


def test_read_csv_non_numeric_reports_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("m1,m2\n1,2\n3,oops\n5,6\n")
    with pytest.raises(mj.ValidationError, match=r"row 3, column 2"):
        mj.read_csv(p)


def test_read_csv_reads_past_a_utf8_byte_order_mark(tmp_path):
    # spreadsheets save "CSV UTF-8" with a byte-order mark before the header
    text = hemoglobin_path().read_bytes()
    (tmp_path / "plain.csv").write_bytes(text)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
    plain, bom = mj.read_csv(tmp_path / "plain.csv"), mj.read_csv(tmp_path / "bom.csv")
    assert bom.label == plain.label == "D10 vs Cobas"
    assert np.array_equal(bom.x, plain.x) and np.array_equal(bom.y, plain.y)


def test_read_csv_missing_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("m1,m2\n1,2\n3\n5,6\n")
    with pytest.raises(mj.ValidationError, match="missing column"):
        mj.read_csv(p)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generator_never_emits_forbidden_band(seed):
    spec = GeneratorSpec(n=60, slope=1.0, intercept=-0.5, seed=seed, **LONG)
    s = generate(spec)
    for v in (s.x, s.y):
        assert (v >= 0.05).all()
        assert not ((v > 0.05) & (v <= 0.1)).any()
