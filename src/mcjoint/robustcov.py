"""Classical and robust 2x2 location/scatter estimation plus ellipse geometry.

The joint test needs a covariance of bootstrapped (intercept, slope) pairs
that stays calibrated when the cloud carries atoms, skew, or outliers.
Implemented estimators: sample covariance, the fast minimum covariance
determinant search (elemental starts, concentration steps, determinant
ranking), projection-outlyingness downweighting, and two S-estimators
(bisquare, and a translated-bisquare fallback) used to start the
redescending regression.

All estimators rescale their scatter so that squared Mahalanobis distances
of clean Gaussian data are approximately chi-square with 2 degrees of
freedom: an asymptotic factor where the estimator calls for one, then an
empirical factor matching the distance median to the chi-square median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import ConvergenceError, SingularCovarianceError, ValidationError
from .rng import task_rng

_REL_SINGULAR = 1e-15  # det <= tol * (trace/2)^2  <=>  eigenvalue ratio collapse
_ELLIPSE_POINTS = 181  # vertices of the plotted ellipse polyline
_MCD_KEEP = 10         # lowest-determinant starts iterated to a fixed point
_MCD_INITIAL_STEPS = 2  # concentration steps every start takes
_MCD_MAX_STEPS = 60    # cap on the concentration steps of the kept starts
_SDE_DIRS = 1000       # random projection directions of Stahel-Donoho


@dataclass(frozen=True)
class CovarianceModel:
    """Center and positive-definite scatter defining a Mahalanobis metric."""

    center: np.ndarray
    scatter: np.ndarray
    estimator: str
    h: Optional[int] = None
    correction: float = 1.0
    singular: bool = False
    raw_det: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, float))
        object.__setattr__(self, "scatter", np.asarray(self.scatter, float))


@dataclass(frozen=True)
class EllipseGeometry:
    """Axis-aligned description of a covariance ellipse."""

    center: np.ndarray
    semi_axes: np.ndarray
    rotation: float
    level: float


def _chi2_2_ppf(q: float) -> float:
    """Chi-square(2) quantile; the distribution is exponential with mean 2."""
    return -2.0 * math.log1p(-q)


def _chi2_2_sf(x: float) -> float:
    """Chi-square(2) upper tail probability."""
    return math.exp(-0.5 * max(x, 0.0))


def _chi2_4_cdf(x: float) -> float:
    """Chi-square(4) distribution function."""
    return 1.0 - math.exp(-0.5 * x) * (1.0 + 0.5 * x)


def _is_singular(scatter: np.ndarray) -> bool:
    det = scatter[0, 0] * scatter[1, 1] - scatter[0, 1] ** 2
    half_trace = 0.5 * (scatter[0, 0] + scatter[1, 1])
    return not (det > _REL_SINGULAR * half_trace * half_trace and half_trace > 0)


def mahalanobis_sq(model: CovarianceModel, points: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of one point or many."""
    if model.singular or _is_singular(model.scatter):
        raise SingularCovarianceError(
            "scatter is singular; distances undefined (heavy ties or collinear "
            "bootstrap pairs, e.g. from low measurement precision)"
        )
    pts = np.atleast_2d(np.asarray(points, float))
    diff = pts - model.center
    s = model.scatter
    det = s[0, 0] * s[1, 1] - s[0, 1] ** 2
    d2 = (diff[:, 0] ** 2 * s[1, 1] - 2.0 * diff[:, 0] * diff[:, 1] * s[0, 1] + diff[:, 1] ** 2 * s[0, 0]) / det
    return d2 if np.asarray(points).ndim > 1 else float(d2[0])


def ellipse_from(model: CovarianceModel, alpha: float) -> EllipseGeometry:
    """Coverage ellipse of the model at level 1 - alpha."""
    if model.singular or _is_singular(model.scatter):
        raise SingularCovarianceError("cannot build an ellipse from a singular scatter")
    q = _chi2_2_ppf(1.0 - alpha)
    evals, evecs = np.linalg.eigh(model.scatter)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    lead = evecs[:, order[0]]
    rot = math.atan2(lead[1], lead[0])
    if rot >= math.pi / 2:
        rot -= math.pi
    elif rot < -math.pi / 2:
        rot += math.pi
    return EllipseGeometry(
        center=model.center.copy(),
        semi_axes=np.sqrt(evals * q),
        rotation=rot,
        level=q,
    )


def ellipse_points(geom: EllipseGeometry) -> np.ndarray:
    """Closed polyline of 181 points on the ellipse boundary (for plotting)."""
    t = np.linspace(0.0, 2.0 * np.pi, _ELLIPSE_POINTS)
    a, b = geom.semi_axes
    xy = np.column_stack([a * np.cos(t), b * np.sin(t)])
    c, s = math.cos(geom.rotation), math.sin(geom.rotation)
    rot = np.array([[c, -s], [s, c]])
    return xy @ rot.T + geom.center


# ---------------------------------------------------------------------------
# classic covariance
# ---------------------------------------------------------------------------

def classic_cov(points: np.ndarray) -> CovarianceModel:
    """Sample mean and unbiased sample covariance."""
    Z = np.asarray(points, float)
    if Z.ndim != 2 or Z.shape[1] != 2 or len(Z) < 3:
        raise ValidationError("need a (B, 2) array with B >= 3")
    center = Z.mean(axis=0)
    scatter = np.cov(Z, rowvar=False, ddof=1)
    if _is_singular(scatter):
        raise SingularCovarianceError("point cloud is (nearly) collinear")
    return CovarianceModel(center, scatter, "Classic")


# ---------------------------------------------------------------------------
# FAST-MCD
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
# ---------------------------------------------------------------------------

def stahel_donoho(points: np.ndarray, seed: int = 0) -> CovarianceModel:
    """Projection-outlyingness weighted mean and covariance.

    Outlyingness is the worst standardized deviation from the projection
    median over 1000 random unit directions drawn from ``seed``, plus every
    pairwise point-to-point direction when the cloud is small enough
    (B <= 200) for that to be exact.
    """
    Z = np.asarray(points, float)
    if Z.ndim != 2 or Z.shape[1] != 2:
        raise ValidationError("need a (B, 2) array")
    B = len(Z)
    if B < 10:
        raise ValidationError("need at least 10 points")
    rng = task_rng(seed)
    theta = rng.uniform(0.0, np.pi, _SDE_DIRS)
    dirs = [np.column_stack([np.cos(theta), np.sin(theta)])]
    if B <= 200:
        I, J = np.triu_indices(B, 1)
        diff = Z[J] - Z[I]
        norms = np.hypot(diff[:, 0], diff[:, 1])
        keep = norms > 0
        dirs.append(diff[keep] / norms[keep, None])
    D = np.vstack(dirs)

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
    # calibrate on the retained points only; rejected ones would drag the
    # median factor up under heavy contamination
    d2 = mahalanobis_sq(model, Z[w > 0.0])
    c2 = float(np.median(d2) / _chi2_2_ppf(0.5))
    return CovarianceModel(center, scatter * c2, "SDe", correction=c2)


# ---------------------------------------------------------------------------
# S-estimators (bisquare, and translated bisquare for the fallback)
# ---------------------------------------------------------------------------

def _rho_bisquare(u: np.ndarray, c: float) -> np.ndarray:
    u = np.abs(u)
    inside = u <= c
    v = np.where(inside, u, c)
    val = v * v / 2.0 - v ** 4 / (2.0 * c * c) + v ** 6 / (6.0 * c ** 4)
    return np.where(inside, val, c * c / 6.0)


def _weight_bisquare(u: np.ndarray, c: float) -> np.ndarray:
    t = (u / c) ** 2
    return np.where(np.abs(u) <= c, (1.0 - t) ** 2, 0.0)


# Tuning constant c and scale target b0 = E[rho(|z|)] of the bisquare
# S-estimator for bivariate standard normal z at breakdown 0.5; the target
# is half the rho maximum c^2/6.
_BISQUARE_S_CONSTANTS = (2.660803392808706, 0.58998955793186)


def _rho_translated(u: np.ndarray, M: float, c: float) -> np.ndarray:
    """Integral of t * w(t) for the flat-then-bisquare weight."""
    u = np.abs(np.asarray(u, float))
    a = np.clip(u - M, 0.0, c)
    low = np.minimum(u, M) ** 2 / 2.0
    mid = (
        a * a / 2.0
        - a ** 4 / (2.0 * c * c)
        + a ** 6 / (6.0 * c ** 4)
        + M * (a - 2.0 * a ** 3 / (3.0 * c * c) + a ** 5 / (5.0 * c ** 4))
    )
    return low + mid


def _weight_translated(u: np.ndarray, M: float, c: float) -> np.ndarray:
    u = np.abs(np.asarray(u, float))
    t = np.clip((u - M) / c, 0.0, 1.0)
    return (1.0 - t * t) ** 2


# (M, c, b0) of the translated-bisquare rho: weights reach zero at
# M + c, the chi-square(2) 0.95 quantile's root, and the scale target b0,
# E[rho(|z|)] for bivariate standard normal z, is 0.45 times the rho
# maximum M^2/2 + c^2/6 + 8Mc/15 (breakdown 0.45).
_ROCKE_CONSTANTS = (1.2436729193400209, 1.2040739113407952, 0.8161408610557107)


def _m_scale(d: np.ndarray, rho, b0: float, s_init: float) -> float:
    """Solve mean rho(d/s) = b0 by the multiplicative fixed point."""
    s = s_init
    for _ in range(200):
        val = float(np.mean(rho(d / s)))
        if val <= 0.0:
            raise SingularCovarianceError("scale target unattainable (all distances zero)")
        s_new = s * math.sqrt(val / b0)
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
        s_new = _m_scale(d, rho, b0, med / math.sqrt(_chi2_2_ppf(0.5)) if s is None else s)
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


# The covariance of the joint test, by name.  Each entry looks its
# estimator up when called, so a rebound module attribute takes effect.
_COV_TABLE = {
    "classic": lambda points, seed: classic_cov(points),
    "mcd": lambda points, seed: fast_mcd(points, seed=seed),
    "sde": lambda points, seed: stahel_donoho(points, seed=seed),
}
COV_METHODS = tuple(_COV_TABLE)


def estimate_cov(points: np.ndarray, method: str, seed: int = 0) -> CovarianceModel:
    """Dispatch by case-insensitive name, one of ``COV_METHODS``.

    ``seed`` drives the random starts of 'mcd' and the random directions of
    'sde'; 'classic' ignores it.
    """
    try:
        estimator = _COV_TABLE[method.lower()]
    except KeyError:
        raise ValidationError(f"unknown covariance method {method!r}") from None
    return estimator(points, seed)
