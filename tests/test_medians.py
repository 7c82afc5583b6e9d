"""``robustcov.median_rows`` against ``np.median``, and Stahel-Donoho against
the code it replaced.

``stahel_donoho`` below is the shipped estimator as it stood before its
medians went through ``median_rows`` and its projections were formed one
block of directions at a time and laid out one direction per row, frozen as
the reference; its ``directions`` are the shipped ones, the 1000 random
directions of the seed at every B.  The arithmetic is unchanged, so
centers, scatters and calibration factors must be exactly equal, and the
failures must be the same.
"""

import math

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import robustcov as rc
from mcjoint.errors import SingularCovarianceError, ValidationError
from mcjoint.rng import task_rng
from mcjoint.robustcov import CovarianceModel, _chi2_2_ppf, _is_singular, mahalanobis_sq, median_rows


# ---------------------------------------------------------------------------
# median_rows
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert (np.signbit(got) == np.signbit(want)).all()


@pytest.mark.parametrize("width", [999, 998, 65, 64, 41, 40])
def test_median_rows_equals_np_median(width):
    # rows of at most 64 values are sorted, longer ones partitioned
    rng = np.random.default_rng(width)
    A = rng.normal(size=(50, width))
    assert_same_bits(median_rows(A), np.median(A, axis=-1))
    assert_same_bits(median_rows(A[:1]), np.median(A[:1], axis=-1))  # one row
    tied = np.round(np.abs(A), 1)  # few distinct values, many ties
    assert_same_bits(median_rows(tied), np.median(tied, axis=-1))
    huge = rng.uniform(0.9, 1.0, size=(50, width)) * 1.7e308  # the middle pair's sum overflows
    with np.errstate(over="ignore"):
        assert_same_bits(median_rows(huge), np.median(huge, axis=-1))


@pytest.mark.parametrize("width", [999, 998, 41, 40, 2, 1])
def test_median_rows_1d(width):
    a = np.random.default_rng(width).normal(size=width)
    got = median_rows(a)
    assert got.shape == ()
    assert_same_bits(got, np.median(a))


@pytest.mark.parametrize("width", [999, 998, 41, 40])
def test_median_rows_nan_and_inf(width):
    rng = np.random.default_rng(width + 1)
    A = rng.normal(size=(12, width))
    A[0, 3] = np.nan                      # one NaN
    A[1, :] = np.nan                      # all NaN
    A[2, : width // 2 + 1] = np.inf       # median at +inf
    A[3, : width // 2 + 1] = -np.inf      # median at -inf
    A[4, : width // 2] = -np.inf          # even widths: -inf and a finite value
    A[4, width // 2:] = np.inf            # or -inf and +inf in the middle pair
    A[5, ::7] = np.inf
    A[6, ::5] = -np.inf
    A[7, 1], A[7, 2] = np.inf, np.nan     # a NaN beside an inf
    with np.errstate(invalid="ignore"):  # -inf + inf in the middle pair
        got, want = median_rows(A), np.median(A, axis=-1)
    assert_same_bits(got, want)
    assert np.isnan(got[[0, 1, 7]]).all()
    assert np.isnan(got[4]) == (width % 2 == 0)


def test_median_rows_zero_median_may_differ_only_in_sign():
    # np.median's choice among signed zeros follows its selection's
    # arrangement; the value is the same
    A = np.random.default_rng(3).choice([0.0, -0.0, 1.0, -1.0], size=(200, 41))
    got, want = median_rows(A), np.median(A, axis=-1)
    assert np.array_equal(got, want)
    differs = np.signbit(got) != np.signbit(want)
    assert (want[differs] == 0.0).all()


def median_rows_by_row_max(A):
    """``median_rows`` as it stood when it took an even width's lower middle
    value as one row reduction, ``part[..., :h].max(axis=-1)``."""
    A = np.asarray(A, dtype=float)
    h = A.shape[-1] // 2
    part = A.copy()
    part.partition(h, axis=-1)
    med = part[..., h]
    if A.shape[-1] % 2 == 0:
        med = (part[..., :h].max(axis=-1) + med) / 2
    nan = np.isnan(part).any() and np.isnan(part[..., h:]).any(axis=-1)
    return np.where(nan, np.nan, med)


@pytest.mark.parametrize("shape", [(2001, 20), (2001, 40), (999, 40), (320, 20), (200, 40), (16, 2000)])
def test_even_width_median_equals_the_row_reduction(shape):
    # MDem's residual medians (n=20 and n=40 over bootstrap rows) are sorted;
    # rows longer than 64 values take the row reduction
    rows, width = shape
    rng = np.random.default_rng(rows + width)
    A = rng.normal(size=shape)
    tied = np.round(np.abs(A), 1)  # few distinct values, many ties
    tied[3, 5] = np.nan            # one NaN row
    zeros = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)  # tied signed zeros
    for M in (A, tied, zeros):
        assert_same_bits(median_rows(M), median_rows_by_row_max(M))
    assert np.isnan(median_rows(tied)[3]) and not np.isnan(np.delete(median_rows(tied), 3)).any()
    assert_same_bits(median_rows(tied), np.median(tied, axis=-1))


# ---------------------------------------------------------------------------
# frozen Stahel-Donoho reference
# ---------------------------------------------------------------------------

def directions(seed: int) -> np.ndarray:
    theta = task_rng(seed).uniform(0.0, np.pi, 1000)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def stahel_donoho(points: np.ndarray, seed: int = 0) -> CovarianceModel:
    """Projection-outlyingness weighted mean and covariance."""
    Z = np.asarray(points, float)
    if Z.ndim != 2 or Z.shape[1] != 2:
        raise ValidationError("need a (B, 2) array")
    B = len(Z)
    if B < 10:
        raise ValidationError("need at least 10 points")
    D = directions(seed)

    proj = Z @ D.T  # (B, ndir)
    med = np.median(proj, axis=0)
    mad = 1.4826 * np.median(np.abs(proj - med), axis=0)
    usable = mad > 0
    if not usable.any():
        raise SingularCovarianceError("all projection directions are degenerate")
    out = np.max(np.abs(proj[:, usable] - med[usable]) / mad[usable], axis=1)

    cutoff = math.sqrt(_chi2_2_ppf(0.95))
    reject = math.sqrt(_chi2_2_ppf(0.999))
    w = np.minimum(1.0, (cutoff / np.maximum(out, cutoff)) ** 2)
    w[out > reject] = 0.0
    sw = w.sum()
    center = (w[:, None] * Z).sum(axis=0) / sw
    diff = Z - center
    scatter = (w[:, None] * diff).T @ diff / sw
    if _is_singular(scatter):
        raise SingularCovarianceError("weighted scatter is singular")
    model = CovarianceModel(center, scatter, "SDe")
    d2 = mahalanobis_sq(model, Z[w > 0.0])
    c2 = float(np.median(d2) / _chi2_2_ppf(0.5))
    return CovarianceModel(center, scatter * c2, "SDe", correction=c2)


def _outcome(points, seed, fn):
    try:
        return fn(points, seed=seed)
    except SingularCovarianceError as err:
        return err


def assert_same_sde(points, seed):
    got, want = _outcome(points, seed, rc.stahel_donoho), _outcome(points, seed, stahel_donoho)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert np.array_equal(got.center, want.center)
    assert np.array_equal(got.scatter, want.scatter)
    assert got.correction == want.correction


@pytest.mark.parametrize("precision, data_seed", [(None, 7), (None, 8), (2, 7), (2, 8)],
                         ids=["continuous-7", "continuous-8", "tied-7", "tied-8"])
@pytest.mark.parametrize("method", ["dem", "paba"])
def test_sde_matches_reference_on_bootstrap_cloud(method, precision, data_seed):
    # the covariance of the joint test on B=999 bootstrap clouds of n=40
    # samples; 2 significant digits give ties and PaBa slope atoms
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=precision, precision_y=precision,
                            seed=data_seed)
    cloud = mj.bootstrap(mj.generate(spec), method, B=999, seed=5).pairs
    for seed in (0, 11):
        assert_same_sde(cloud, seed)


def test_sde_matches_reference_on_hemoglobin_cloud():
    cloud = mj.bootstrap(mj.load_hemoglobin(), "dem", B=2000, seed=0).pairs
    assert_same_sde(cloud, 0)


def test_sde_raises_the_reference_failures():
    rng = np.random.default_rng(9)
    coincident = rng.normal(size=(999, 2))
    coincident[:600] = (1.0, 2.0)  # over half the points at one place: every MAD is 0
    t = rng.uniform(3.0, 8.0, 999)
    line = np.column_stack([t, 2.0 * t + 1.0])  # usable directions, collinear weighted scatter
    for cloud, message in ((coincident, "all projection directions are degenerate"),
                           (line, "weighted scatter is singular")):
        with pytest.raises(SingularCovarianceError, match=message):
            rc.stahel_donoho(cloud)
        assert_same_sde(cloud, 0)


def block_mads(cloud, seed):
    """The MAD of every direction, in ``stahel_donoho``'s blocks of directions."""
    proj = cloud @ directions(seed).T
    mad = np.median(np.abs(proj - np.median(proj, axis=0)), axis=0)
    k = rc._BLOCK_ELEMS // len(cloud)
    return [mad[lo:lo + k] for lo in range(0, len(mad), k)]


def test_sde_matches_reference_when_whole_blocks_are_degenerate():
    # 101 of 200 points at (2^58, t) with t in (-1, 1), and 99 within 3
    # ulps of x = 2^58 with y in (-1, 1): a projection onto (cos a, sin a)
    # rounds to a multiple of ulp(2^58 cos a), so the 101 coincide, and
    # the MAD is 0, unless the direction is within about 0.03 rad of
    # vertical; of direction seed 1's 1000, the 16 usable ones all fall in
    # the first five blocks, so the last two have no usable direction
    # while the first one does
    rng = np.random.default_rng(6)
    C = 2.0 ** 58
    cloud = np.vstack([np.column_stack([np.full(101, C), rng.uniform(-1.0, 1.0, 101)]),
                       np.column_stack([C + np.spacing(C) * rng.integers(-3, 4, 99),
                                        rng.uniform(-1.0, 1.0, 99)])])
    blocks = block_mads(cloud, 1)
    assert (blocks[0] > 0).any() and (blocks[-1] == 0).all()
    assert sum((b == 0).all() for b in blocks) > 1
    assert not isinstance(_outcome(cloud, 1, stahel_donoho), Exception)
    assert_same_sde(cloud, 1)


@pytest.mark.parametrize("B", [150, 199, 200, 999])
def test_sde_matches_reference_with_a_partial_last_block(B):
    # the 1000 random directions are not a multiple of the block at any of
    # these B; 199 and 200 are the only B <= 200 that validate and
    # simulate accept
    rng = np.random.default_rng(B)
    cloud = rng.normal(size=(B, 2)) @ np.array([[1.0, 0.6], [0.0, 0.4]])
    cloud[:7] += 8.0  # a few outliers
    n_dirs = sum(len(b) for b in block_mads(cloud, 1))
    assert n_dirs % (rc._BLOCK_ELEMS // B) != 0 and n_dirs > rc._BLOCK_ELEMS // B
    assert_same_sde(cloud, 1)


@pytest.mark.parametrize("data_seed", [7, 8])
def test_sde_matches_reference_on_tied_paba_cloud_at_b2000(data_seed):
    # validate's default B on a 2-significant-digit sample: PaBa's slope
    # atoms stack the cloud on few values, some directions' MADs are
    # rounding noise, and the weights follow the projections' last bits
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2, seed=data_seed)
    cloud = mj.bootstrap(mj.generate(spec), "paba", B=2000, seed=5).pairs
    for seed in (0, 11):
        assert_same_sde(cloud, seed)


@pytest.mark.parametrize("B", [201, 999, 2000, 4999])
def test_block_projections_equal_the_columns_of_one_gemm(B):
    # stahel_donoho forms Z @ D[lo:hi].T per block of its 1000 random
    # directions and the reference forms the whole Z @ D.T; above 200
    # points each block must be bit for bit the matching columns of the
    # whole product
    rng = np.random.default_rng(B)
    Z = rng.normal(size=(B, 2)) @ np.array([[1.0, 0.6], [0.0, 0.4]]) + (3.0, 1.0)
    D = directions(4)
    assert len(D) == rc._SDE_DIRS
    whole = Z @ D.T
    k = max(1, min(len(D), rc._BLOCK_ELEMS // B))
    assert len(D) % k != 0  # a partial last block
    for lo in range(0, len(D), k):
        assert_same_bits(Z @ D[lo:lo + k].T, whole[:, lo:lo + k])
