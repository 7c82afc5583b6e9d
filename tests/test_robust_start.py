"""The batched robust start of MMDem against the per-row code it replaced.

``_mm_start``, ``_s_fixed_point``, ``_m_scale``, ``fast_mcd`` and
``_finish_mcd`` below are the per-row implementations the batched MCD and
S engines replaced, frozen as the reference.  The batched engines sum in
another order, so they must agree within 1e-10 * max(|v|, 1), and exactly
on which rows fail and why.  ``_m_scale`` takes the batched solver's
safeguarded Newton step, since this checks the batching, not the
algorithm; test_m_scale.py checks the step against the fixed point.
"""

import math
from itertools import combinations

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import estimators as est
from mcjoint import robustcov as rc
from mcjoint.dataset import round_significant
from mcjoint.errors import (
    ConvergenceError,
    DegenerateDataError,
    SingularCovarianceError,
    StartFailureError,
    ValidationError,
)
from mcjoint.rng import task_rng
from mcjoint.robustcov import (
    _BISQUARE_S_CONSTANTS,
    _MCD_INITIAL_STEPS,
    _MCD_KEEP,
    _MCD_MAX_STEPS,
    _REL_SINGULAR,
    _ROCKE_CONSTANTS,
    CovarianceModel,
    _chi2_2_ppf,
    _chi2_4_cdf,
    _is_singular,
    _rho_translated,
    _weight_translated,
    mahalanobis_sq,
)


# ---------------------------------------------------------------------------
# frozen per-row reference
# ---------------------------------------------------------------------------

def _subset_stats(Z: np.ndarray, support: np.ndarray):
    """Mean, covariance (ddof=1) and determinant per candidate subset."""
    h = support.shape[1]
    s0 = Z[:, 0][support]
    s1 = Z[:, 1][support]
    mx = s0.mean(axis=1)
    my = s1.mean(axis=1)
    s0 -= mx[:, None]
    s1 -= my[:, None]
    denom = h - 1
    sxx = np.einsum("ch,ch->c", s0, s0) / denom
    syy = np.einsum("ch,ch->c", s1, s1) / denom
    sxy = np.einsum("ch,ch->c", s0, s1) / denom
    T = np.column_stack([mx, my])
    S = np.empty((len(support), 2, 2))
    S[:, 0, 0] = sxx
    S[:, 1, 1] = syy
    S[:, 0, 1] = S[:, 1, 0] = sxy
    det = sxx * syy - sxy * sxy
    return T, S, det


def _candidate_dists(Z: np.ndarray, T: np.ndarray, S: np.ndarray, det: np.ndarray):
    """Squared Mahalanobis distances of all points per candidate: (c, B)."""
    a = (S[:, 1, 1] / det)[:, None]
    b = (-2.0 * S[:, 0, 1] / det)[:, None]
    c = (S[:, 0, 0] / det)[:, None]
    D0 = Z[None, :, 0] - T[:, 0, None]
    D1 = Z[None, :, 1] - T[:, 1, None]
    d2 = D0 * D0
    d2 *= a
    cross = D0
    cross *= D1
    cross *= b
    d2 += cross
    D1 *= D1
    D1 *= c
    d2 += D1
    return d2


def _c_step(Z: np.ndarray, T, S, det, h: int):
    d2 = _candidate_dists(Z, T, S, det)
    support = np.argpartition(d2, h - 1, axis=1)[:, :h]
    return _subset_stats(Z, support) + (support,)


def _det_floor(S: np.ndarray) -> np.ndarray:
    half_trace = 0.5 * (S[..., 0, 0] + S[..., 1, 1])
    return _REL_SINGULAR * half_trace * half_trace


def fast_mcd(points: np.ndarray, seed: int = 0, n_starts: int = 500) -> CovarianceModel:
    """Minimum covariance determinant scatter via concentration steps.

    The subset size is h = (B + 3) // 2 of the B points, the maximal
    breakdown choice.  Elemental (p+1)-subsets seed the search (all of
    them when few enough, otherwise ``n_starts`` random ones); each start
    takes two concentration steps; the 10 candidates with the smallest
    determinants are iterated to a fixed point (at most 60 steps).  An
    exactly collinear best subset is reported as a singular model, never
    inverted.
    """
    Z = np.asarray(points, float)
    if Z.ndim != 2 or Z.shape[1] != 2:
        raise ValidationError("need a (B, 2) array")
    B = len(Z)
    if B < 10:
        raise ValidationError("need at least 10 points")
    h = (B + 3) // 2
    rng = task_rng(seed)
    n_elemental = B * (B - 1) * (B - 2) // 6
    if n_elemental <= max(n_starts, 1200):
        starts = np.array(list(combinations(range(B), 3)), dtype=np.intp)
    else:
        starts = rng.integers(0, B, size=(n_starts, 3)).astype(np.intp)
        dup = (
            (starts[:, 0] == starts[:, 1])
            | (starts[:, 0] == starts[:, 2])
            | (starts[:, 1] == starts[:, 2])
        )
        for i in np.flatnonzero(dup):
            while len(set(starts[i])) < 3:
                starts[i] = rng.integers(0, B, size=3)

    T, S, det = _subset_stats(Z, starts)
    # grow singular elemental subsets until their covariance is invertible
    bad = np.flatnonzero(det <= _det_floor(S))
    if bad.size:
        for idx in bad:
            members = list(starts[idx])
            while True:
                extra = int(rng.integers(0, B))
                if extra in members:
                    continue
                members.append(extra)
                Ti, Si, di = _subset_stats(Z, np.array(members)[None, :])
                if di[0] > _det_floor(Si)[0]:
                    T[idx], S[idx], det[idx] = Ti[0], Si[0], di[0]
                    break
                if len(members) >= h:
                    # h collinear points: the objective's true minimum is 0
                    return _finish_mcd(Z, Ti[0], Si[0], 0.0, h, exact=True)

    for _ in range(_MCD_INITIAL_STEPS):
        T, S, det, _ = _c_step(Z, T, S, det, h)
        exact = det <= _det_floor(S)
        if exact.any():
            i = int(np.argmax(exact))
            return _finish_mcd(Z, T[i], S[i], 0.0, h, exact=True)

    order = np.argsort(det, kind="stable")[:_MCD_KEEP]
    T, S, det = T[order], S[order], det[order]
    active = np.arange(len(det))
    for _ in range(_MCD_MAX_STEPS):
        T2, S2, det2, _ = _c_step(Z, T[active], S[active], det[active], h)
        exact = det2 <= _det_floor(S2)
        if exact.any():
            i = int(np.argmax(exact))
            return _finish_mcd(Z, T2[i], S2[i], 0.0, h, exact=True)
        improved = det2 < det[active]
        T[active] = T2
        S[active] = S2
        det[active] = det2
        active = active[improved]
        if active.size == 0:
            break

    best = int(np.argmin(det))
    return _finish_mcd(Z, T[best], S[best], float(det[best]), h)


def _finish_mcd(Z: np.ndarray, T: np.ndarray, S: np.ndarray, raw_det: float, h: int, exact: bool = False) -> CovarianceModel:
    """Consistency-correct the raw optimum, then one-step reweighting.

    The raw subset scatter gets the asymptotic trimming factor and an
    empirical median factor (small-sample correction); the usual
    reweighted estimate (drop points beyond the 97.5% quantile, rescale
    for the truncation) recovers efficiency the raw optimum lacks.
    """
    B = len(Z)
    if exact or _is_singular(S):
        return CovarianceModel(T, S, "MCD", h=h, correction=1.0, singular=True, raw_det=raw_det)
    alpha = h / B
    c1 = alpha / _chi2_4_cdf(_chi2_2_ppf(alpha))
    scatter = S * c1
    model = CovarianceModel(T, scatter, "MCD", h=h)
    d2 = mahalanobis_sq(model, Z)
    c2 = float(np.median(d2) / _chi2_2_ppf(0.5))
    if c2 <= 0 or not np.isfinite(c2):
        c2 = 1.0
    raw_model = CovarianceModel(T, scatter * c2, "MCD", h=h, correction=c1 * c2, raw_det=raw_det)

    q = _chi2_2_ppf(0.975)
    keep = (d2 / c2) <= q
    if keep.sum() < max(3, B // 4):
        return raw_model
    sub = Z[keep]
    T_rw = sub.mean(axis=0)
    S_rw = np.cov(sub, rowvar=False, ddof=1) / (_chi2_4_cdf(q) / 0.975)
    if _is_singular(S_rw):
        return raw_model
    return CovarianceModel(T_rw, S_rw, "MCD", h=h, correction=c1 * c2, raw_det=raw_det)


# ---------------------------------------------------------------------------
# Stahel-Donoho


def _rho_bisquare(u: np.ndarray, c: float) -> np.ndarray:
    u = np.abs(u)
    inside = u <= c
    v = np.where(inside, u, c)
    val = v * v / 2.0 - v ** 4 / (2.0 * c * c) + v ** 6 / (6.0 * c ** 4)
    return np.where(inside, val, c * c / 6.0)


def _weight_bisquare(u: np.ndarray, c: float) -> np.ndarray:
    t = (u / c) ** 2
    return np.where(np.abs(u) <= c, (1.0 - t) ** 2, 0.0)


def _m_scale(d: np.ndarray, rho, weight, b0: float, s_init: float) -> float:
    """Solve mean rho(d/s) = b0 by a Newton step in log s where q >= v/2.

    v = mean rho(u) and q = mean u^2 w(u) at u = d/s; elsewhere the step
    is the multiplicative fixed point s sqrt(v/b0).
    """
    s = s_init
    for _ in range(200):
        u = d / s
        val = float(np.mean(rho(u)))
        if val <= 0.0:
            raise SingularCovarianceError("scale target unattainable (all distances zero)")
        q = float(np.mean(u * u * weight(u)))
        step = (val - b0) / q if q >= 0.5 * val else 0.5 * math.log(val / b0)
        s_new = s * math.exp(step)
        if abs(s_new - s) <= 1e-12 * s:
            return s_new
        s = s_new
    raise ConvergenceError("M-scale iteration did not settle")


def _s_fixed_point(Z: np.ndarray, rho, weight, b0: float, estimator: str, max_iter: int = 200) -> CovarianceModel:
    n = len(Z)
    if n < 5:
        raise ValidationError("need at least 5 points")
    start = fast_mcd(Z, seed=0, n_starts=120)
    if start.singular:
        raise SingularCovarianceError("initial scatter is singular")
    T = start.center.copy()
    G = start.scatter / math.sqrt(np.linalg.det(start.scatter))
    s = None
    for _ in range(max_iter):
        model = CovarianceModel(T, G, estimator)
        d = np.sqrt(mahalanobis_sq(model, Z))
        med = np.median(d)
        if med <= 0:
            med = float(np.mean(d))
        if med <= 0:
            raise SingularCovarianceError("over half of the points coincide with the center")
        s_new = _m_scale(d, rho, weight, b0, med / math.sqrt(_chi2_2_ppf(0.5)) if s is None else s)
        w = weight(d / s_new)
        sw = w.sum()
        if sw <= 0 or (w > 0).sum() < 3:
            raise SingularCovarianceError("all points rejected by the weight function")
        T_new = (w[:, None] * Z).sum(axis=0) / sw
        diff = Z - T_new
        C = (w[:, None] * diff).T @ diff
        detC = np.linalg.det(C)
        if detC <= 0 or _is_singular(C):
            raise SingularCovarianceError("weighted shape collapsed")
        G_new = C / math.sqrt(detC)
        shift = abs(s_new - s) / s_new if s is not None else np.inf
        T, G = T_new, G_new
        if shift <= 1e-10:
            scatter = s_new * s_new * G
            return CovarianceModel(T, scatter, estimator)
        s = s_new
    raise ConvergenceError(f"{estimator} fixed point did not converge in {max_iter} iterations")


def s_cov(points: np.ndarray) -> CovarianceModel:
    """Bisquare S-estimate of location and scatter (breakdown 0.5)."""
    c, b0 = _BISQUARE_S_CONSTANTS
    return _s_fixed_point(
        np.asarray(points, float),
        rho=lambda u: _rho_bisquare(u, c),
        weight=lambda u: _weight_bisquare(u, c),
        b0=b0,
        estimator="Sest",
    )


def rocke_cov(points: np.ndarray) -> CovarianceModel:
    """Translated-bisquare S-estimate; fallback starter for the MM fit."""
    M, c, b0 = _ROCKE_CONSTANTS
    return _s_fixed_point(
        np.asarray(points, float),
        rho=lambda u: _rho_translated(u, M, c),
        weight=lambda u: _weight_translated(u, M, c),
        b0=b0,
        estimator="Rocke",
    )


def _mm_start(x, y):
    """Robust starting line: S-covariance slope, Rocke covariance fallback."""
    pts = np.column_stack([x, y])
    last_err = None
    for estimator in (s_cov, rocke_cov):
        try:
            model = estimator(pts)
        except Exception as err:  # noqa: BLE001 - any starter failure falls through
            last_err = err
            continue
        sxx = model.scatter[0, 0]
        sxy = model.scatter[0, 1]
        syy = model.scatter[1, 1]
        if sxx <= 0.0 or sxy == 0.0:
            last_err = DegenerateDataError("covariance start gives indeterminate slope")
            continue
        b1 = 0.5 * (sxy / sxx + syy / sxy)
        b0 = model.center[1] - b1 * model.center[0]
        if np.isfinite(b0) and np.isfinite(b1) and b1 != 0.0:
            return b0, b1
    raise StartFailureError(f"both covariance starters failed: {last_err}")


# ---------------------------------------------------------------------------
# batched engines against the reference
# ---------------------------------------------------------------------------

TOL = 1e-10


def assert_close(got, want, what):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert np.all(np.abs(got - want) <= TOL * np.maximum(np.abs(want), 1.0)), (what, got, want)


def contaminated():
    """The contaminated n=40 sample behind ``mm_rows`` in test_estimators."""
    rng = np.random.default_rng(40)
    x = rng.uniform(3.0, 8.0, 40)
    y = x + rng.normal(0.0, 0.12, 40)
    y[0] *= 3.0
    x[1:4] += 6.0
    return x, y, rng


def mm_rows():
    x, y, rng = contaminated()
    idx = rng.integers(0, 40, (24, 40))
    line = np.linspace(3.0, 8.0, 40)
    same = np.arange(40) < 25
    X = np.vstack([x[idx], line, round_significant(x, 2), np.where(same, 5.0, x)])
    Y = np.vstack([y[idx], 2.0 * line, round_significant(y, 2), np.where(same, 5.0, y)])
    return X, Y


def jackknife_rows():
    x, y, _ = contaminated()
    keep = ~np.eye(40, dtype=bool)
    return np.tile(x, (40, 1))[keep].reshape(40, 39), np.tile(y, (40, 1))[keep].reshape(40, 39)


def bootstrap_rows(x, y, seed, m=60):
    idx = np.random.default_rng(seed).integers(0, len(x), (m, len(x)))
    return x[idx], y[idx]


def hemoglobin_rows():
    s = mj.load_hemoglobin()
    return bootstrap_rows(s.x, s.y, seed=2)


def tied_rows():
    rng = np.random.default_rng(1)
    x = rng.uniform(3.0, 8.0, 40)
    y = x + rng.normal(0.0, 0.12, 40)
    return bootstrap_rows(round_significant(x, 2), round_significant(y, 2), seed=3)


ROW_SETS = {"mm_rows": mm_rows, "jackknife": jackknife_rows,
            "hemoglobin": hemoglobin_rows, "tied": tied_rows}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except mj.McjointError as err:
        return err


@pytest.fixture(scope="module", params=list(ROW_SETS))
def row_set(request):
    X, Y = ROW_SETS[request.param]()
    ref = []
    for x, y in zip(X, Y):
        Z = np.column_stack([x, y])
        ref.append({"mcd": fast_mcd(Z, seed=0, n_starts=120), "Sest": _outcome(s_cov, Z),
                    "Rocke": _outcome(rocke_cov, Z), "start": _outcome(_mm_start, x, y)})
    return request.param, X, Y, ref


def assert_same_failure(got, want):
    assert type(got) is type(want) and str(got) == str(want)


def test_s_start_matches_reference(row_set):
    name, X, Y, ref = row_set
    start = rc.s_start(X, Y)
    singular = np.array([r["mcd"].singular for r in ref])
    np.testing.assert_array_equal(start.singular, singular)
    for i, r in enumerate(ref):
        mcd = r["mcd"]
        assert start.h == mcd.h
        for field in ("center", "scatter", "correction", "raw_det"):
            assert_close(getattr(start, field)[i], getattr(mcd, field), (name, i, field))
    # the tied rows reach the exact-fit branch and singular elemental subsets
    if name == "tied":
        assert 0 < singular.sum() < len(ref)
        starts, _ = rc._elemental_starts(X.shape[1], 0, 120)
        _, S, det = rc._subset_stats(X[:, starts], Y[:, starts])
        assert rc._is_singular(S).any(axis=1).all()


@pytest.mark.parametrize("estimator", [rc.S_BISQUARE, rc.S_ROCKE], ids=["Sest", "Rocke"])
def test_s_rows_match_reference(row_set, estimator):
    name, X, Y, ref = row_set
    center, scatter, code = rc.s_rows(X, Y, rc.s_start(X, Y), estimator)
    for i, r in enumerate(ref):
        want = r[estimator.name]
        if isinstance(want, Exception):
            assert code[i] != 0, (name, i)
            assert_same_failure(rc.s_failure(code[i], estimator), want)
        else:
            assert code[i] == 0, (name, i, code[i])
            assert_close(center[i], want.center, (name, i, "center"))
            assert_close(scatter[i], want.scatter, (name, i, "scatter"))


def test_mm_starts_match_reference(row_set):
    name, X, Y, ref = row_set
    b0, b1, ok, failure = est._mm_starts(X, Y)
    np.testing.assert_array_equal(ok, [not isinstance(r["start"], Exception) for r in ref])
    for i, r in enumerate(ref):
        if ok[i]:
            assert_close((b0[i], b1[i]), r["start"], (name, i, "start line"))
        else:
            assert_same_failure(failure[i], r["start"])
    if name == "mm_rows":  # the collinear and the coincident rows
        assert np.flatnonzero(~ok).tolist() == [len(ok) - 3, len(ok) - 1]


@pytest.mark.parametrize("precision, data_seed", [(None, 7), (2, 7), (2, 8)],
                         ids=["continuous", "tied", "tied-exact-fit"])
def test_fast_mcd_matches_reference_on_bootstrap_cloud(precision, data_seed):
    # the covariance of the joint test: one B=999 bootstrap cloud; slope
    # atoms of the tied data give singular elemental subsets, and with
    # seed 8 the best subset is collinear
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=precision, precision_y=precision,
                            seed=data_seed)
    cloud = mj.bootstrap(mj.generate(spec), "paba", B=999, seed=5).pairs
    for seed in (0, 5):
        got, want = rc.fast_mcd(cloud, seed=seed), fast_mcd(cloud, seed=seed)
        assert (got.h, got.singular, got.raw_det) == (want.h, want.singular, want.raw_det)
        for field in ("center", "scatter", "correction"):
            assert_close(getattr(got, field), getattr(want, field), field)
        if precision:
            starts, _ = rc._elemental_starts(len(cloud), seed, 500)
            _, S, det = rc._subset_stats(cloud[None, starts, 0], cloud[None, starts, 1])
            assert rc._is_singular(S).any()
        assert want.singular == (data_seed == 8 and precision == 2)


def test_s_cov_and_rocke_cov_raise_the_reference_failure():
    line = np.column_stack([np.linspace(0.0, 1.0, 30), np.linspace(0.0, 2.0, 30)])
    for got_fn, want_fn in ((rc.s_cov, s_cov), (rc.rocke_cov, rocke_cov)):
        for Z in (line, line[:8]):
            assert_same_failure(_outcome(got_fn, Z), _outcome(want_fn, Z))
        # under 5 points the reference stopped at its own "need at least 5
        # points"; the MCD start's check now speaks for every short sample
        assert_same_failure(_outcome(got_fn, line[:4]), _outcome(want_fn, line[:8]))


def test_robust_start_is_row_independent():
    # a row's S-estimates and MMDem start, failures included, do not depend
    # on the rows batched with it: the tied rows and mm_rows' collinear and
    # coincident rows give the same bits reversed and split into two batches
    X, Y = (np.vstack(pair) for pair in zip(mm_rows(), tied_rows()))
    start = rc.s_start(X, Y)

    def run(rows):
        out = [a for estimator in (rc.S_BISQUARE, rc.S_ROCKE)
               for a in rc.s_rows(X[rows], Y[rows], start.take(rows), estimator)]
        b0, b1, ok, failure = est._mm_starts(X[rows], Y[rows])
        return out + [b0, b1, ok, np.array([repr(f) for f in failure])]

    whole = run(np.arange(len(X)))
    assert (whole[2] != 0).any() and (whole[5] != 0).any() and not whole[-2].all()
    cut = len(X) // 3
    rev = [a[::-1] for a in run(np.arange(len(X))[::-1])]
    split = [np.concatenate(pair) for pair in zip(run(np.arange(cut)), run(np.arange(cut, len(X))))]
    for got in (rev, split):
        for g, w in zip(got, whole):
            assert g.shape == w.shape and np.ascontiguousarray(g).tobytes() == w.tobytes()
