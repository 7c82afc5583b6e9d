"""Classical and robust 2x2 location/scatter estimation plus ellipse geometry.

The joint test needs a covariance of bootstrapped (intercept, slope) pairs
that stays calibrated when the cloud carries atoms, skew, or outliers.
Implemented estimators: sample covariance, the fast minimum covariance
determinant search (elemental starts, concentration steps, determinant
ranking), projection-outlyingness downweighting, and two S-estimators
(bisquare, and a translated-bisquare fallback) used to start the
redescending regression.

The MCD search and the S fixed point each run on a leading row axis:
``mcd_rows`` and ``s_rows`` take row-stacked (m, B) coordinates, so the
MM fit starts every bootstrap row in one call, and ``fast_mcd``,
``s_cov`` and ``rocke_cov`` are their one-row cases.  A row's arithmetic
does not depend on the rows it is batched with.

The two bulk passes work in cache-sized blocks of about ``_BLOCK_ELEMS``
elements: every MCD concentration step runs over a flat list of
candidates (start subsets of any rows), and Stahel-Donoho takes its
projection medians over blocks of directions; above 200 points, where
the directions are the 1000 random ones, it also forms the projections
one GEMM per block, so the (B, directions) matrix never exists whole.
Blocking changes no arithmetic, only where the temporaries live.

All estimators rescale their scatter so that squared Mahalanobis distances
of clean Gaussian data are approximately chi-square with 2 degrees of
freedom: an asymptotic factor where the estimator calls for one, then an
empirical factor matching the distance median to the chi-square median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError, SingularCovarianceError, ValidationError
from .rng import task_rng

_REL_SINGULAR = 1e-15  # det <= tol * (trace/2)^2  <=>  eigenvalue ratio collapse
_ELLIPSE_POINTS = 181  # vertices of the plotted ellipse polyline
_MCD_KEEP = 10         # lowest-determinant starts iterated to a fixed point
_MCD_INITIAL_STEPS = 2  # concentration steps every start takes
_MCD_MAX_STEPS = 60    # cap on the concentration steps of the kept starts
_MCD_BLOCK = 16        # rows searched at once; bounds the (rows x starts) candidate stacks
_BLOCK_ELEMS = 1 << 15  # elements of one (candidates or directions, B) block; keeps it in L2
_MCD_STARTS = 500      # random elemental starts of fast_mcd
_S_MCD_STARTS = 120    # random elemental starts of the MCD the S-estimators start from
_S_MAX_ITER = 200      # S fixed-point iterations before giving up
_S_TOL = 1e-10         # relative scale shift that ends the S fixed point
_M_SCALE_MAX_ITER = 200  # M-scale iterations before giving up
_M_SCALE_TOL = 1e-12   # relative scale step that ends the M-scale iteration
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


def median_rows(A: np.ndarray) -> np.ndarray:
    """Median along the last axis: ``np.median(A, axis=-1)``, bit for bit.

    ``np.median`` partitions at the middle and at the end (to catch NaNs),
    which takes numpy's slow multi-kth path; one partition point takes its
    vectorised selection.  Only the sign of a zero median may differ.
    """
    A = np.asarray(A, dtype=float)
    h = A.shape[-1] // 2
    part = np.partition(A, h, axis=-1)
    med = part[..., h]
    if A.shape[-1] % 2 == 0:
        med = (part[..., :h].max(axis=-1) + med) / 2
    # NaNs sort after every number, so any NaN lies at or beyond the partition point
    return np.where(np.isnan(part[..., h:]).any(axis=-1), np.nan, med)


def _is_singular(scatter: np.ndarray):
    """Whether a 2x2 scatter, or each of a stack of them, is (nearly) singular."""
    det = scatter[..., 0, 0] * scatter[..., 1, 1] - scatter[..., 0, 1] ** 2
    half_trace = 0.5 * (scatter[..., 0, 0] + scatter[..., 1, 1])
    return ~((det > _REL_SINGULAR * half_trace * half_trace) & (half_trace > 0))


def mahalanobis_sq(model: CovarianceModel, points: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of one point or many."""
    if model.singular or _is_singular(model.scatter):
        raise SingularCovarianceError(
            "scatter is singular; distances undefined (heavy ties or collinear "
            "bootstrap pairs, e.g. from low measurement precision)"
        )
    pts = np.atleast_2d(np.asarray(points, float))
    d2 = _mahalanobis_rows(pts[None, :, 0], pts[None, :, 1], model.center[None], model.scatter[None])[0]
    return d2 if np.asarray(points).ndim > 1 else float(d2[0])


def _mahalanobis_rows(Z0: np.ndarray, Z1: np.ndarray, T: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of each row's points under that row's (T, V): (m, B)."""
    D0 = Z0 - T[:, 0, None]
    D1 = Z1 - T[:, 1, None]
    v00, v01, v11 = V[:, 0, 0, None], V[:, 0, 1, None], V[:, 1, 1, None]
    det = v00 * v11 - v01 ** 2
    return (D0 ** 2 * v11 - 2.0 * D0 * D1 * v01 + D1 ** 2 * v00) / det


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

def _points(points: np.ndarray) -> np.ndarray:
    Z = np.asarray(points, float)
    if Z.ndim != 2 or Z.shape[1] != 2:
        raise ValidationError("need a (B, 2) array")
    return Z


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

class McdRows(NamedTuple):
    """FAST-MCD results of row-stacked samples, one entry per row."""

    center: np.ndarray      # (m, 2)
    scatter: np.ndarray     # (m, 2, 2)
    singular: np.ndarray    # (m,) exact fit or collinear optimum
    correction: np.ndarray  # (m,) consistency factor applied to the raw scatter
    raw_det: np.ndarray     # (m,) determinant of the raw optimum
    h: int

    def take(self, rows: np.ndarray) -> "McdRows":
        return McdRows(self.center[rows], self.scatter[rows], self.singular[rows],
                       self.correction[rows], self.raw_det[rows], self.h)


def _subset_stats(s0: np.ndarray, s1: np.ndarray):
    """Mean, covariance (ddof=1) and determinant of each subset.

    ``s0`` and ``s1`` hold the subsets' x and y coordinates along the last
    axis; they are centered in place.
    """
    h = s0.shape[-1]
    mx = s0.sum(axis=-1) / h  # mean(axis=-1), bit for bit, without its overhead
    my = s1.sum(axis=-1) / h
    T = np.empty(mx.shape + (2,))
    T[..., 0] = mx
    T[..., 1] = my
    s0 -= mx[..., None]
    s1 -= my[..., None]
    denom = h - 1
    sxx = np.einsum("...h,...h->...", s0, s0) / denom
    syy = np.einsum("...h,...h->...", s1, s1) / denom
    sxy = np.einsum("...h,...h->...", s0, s1) / denom
    S = np.empty(mx.shape + (2, 2))
    S[..., 0, 0] = sxx
    S[..., 1, 1] = syy
    S[..., 0, 1] = S[..., 1, 0] = sxy
    det = sxx * syy - sxy * sxy
    return T, S, det


def _c_step_buffers(B: int, h: int) -> list:
    """Block buffers of ``_c_step`` for B points and subsets of h: three
    (k, B) and three (k, h), with k = ``_BLOCK_ELEMS // B``.

    ``mcd_rows`` allocates them once for all its steps: fresh buffers on
    every step are faulted in again, page by page (18,000 minor faults per
    MMDem start over 199 rows of n=40, against 270 with shared ones).
    """
    k = max(1, _BLOCK_ELEMS // B)
    return [np.empty((k, B)) for _ in range(3)] + [np.empty((k, h)), np.empty((k, h)),
                                                   np.empty((k, h), dtype=np.intp)]


def _c_step(Z0: np.ndarray, Z1: np.ndarray, rid: np.ndarray, T: np.ndarray, S: np.ndarray,
            det: np.ndarray, h: int, bufs: list):
    """One concentration step of each candidate: the stats of its h nearest points.

    Candidate ``i`` is the (T[i], S[i], det[i]) of row ``rid[i]`` of the
    (m, B) coordinates ``Z0``/``Z1``.  Candidates run k at a time through
    the (k, B) buffers of ``_c_step_buffers``, so the distances, the
    selection and the gathered support stay in cache.  Each candidate's
    arithmetic does not depend on the others in its block.
    """
    N, B = len(rid), Z0.shape[1]
    k = len(bufs[0])
    a = S[:, 1, 1] / det
    b = -2.0 * S[:, 0, 1] / det
    c = S[:, 0, 0] / det
    T_out, S_out, det_out = np.empty((N, 2)), np.empty((N, 2, 2)), np.empty(N)
    for lo in range(0, N, k):
        hi = min(lo + k, N)
        r = rid[lo:hi]
        D0, D1, d2, s0, s1, idx = (buf[:hi - lo] for buf in bufs)
        # the indices are in range by construction; "clip" writes straight
        # into ``out`` where the default "raise" buffers it
        np.take(Z0, r, axis=0, out=D0, mode="clip")
        np.take(Z1, r, axis=0, out=D1, mode="clip")
        D0 -= T[lo:hi, 0, None]
        D1 -= T[lo:hi, 1, None]
        np.multiply(D0, D0, out=d2)
        d2 *= a[lo:hi, None]
        D0 *= D1
        D0 *= b[lo:hi, None]
        d2 += D0
        D1 *= D1
        D1 *= c[lo:hi, None]
        d2 += D1
        np.add(np.argpartition(d2, h - 1, axis=1)[:, :h], (r * B)[:, None], out=idx)
        np.take(Z0, idx, out=s0, mode="clip")  # flat indices into C-ordered rows
        np.take(Z1, idx, out=s1, mode="clip")
        T_out[lo:hi], S_out[lo:hi], det_out[lo:hi] = _subset_stats(s0, s1)
    return T_out, S_out, det_out


def _elemental_starts(B: int, seed: int, n_starts: int):
    """Elemental 3-subsets seeding the search, and the generator that drew them.

    All of them when few enough, otherwise ``n_starts`` random ones.  They
    depend on (B, seed, n_starts) alone, so every row of a batch shares them.
    """
    rng = task_rng(seed)
    n_elemental = B * (B - 1) * (B - 2) // 6
    if n_elemental <= max(n_starts, 1200):
        return np.array(list(combinations(range(B), 3)), dtype=np.intp), rng
    starts = rng.integers(0, B, size=(n_starts, 3)).astype(np.intp)
    dup = (
        (starts[:, 0] == starts[:, 1])
        | (starts[:, 0] == starts[:, 2])
        | (starts[:, 1] == starts[:, 2])
    )
    for i in np.flatnonzero(dup):
        while len(set(starts[i])) < 3:
            starts[i] = rng.integers(0, B, size=3)
    return starts, rng


def _mcd_search(Z0: np.ndarray, Z1: np.ndarray, seed: int, n_starts: int, h: int, bufs: list):
    """Raw MCD optimum of each row: center, scatter, determinant, exact-fit flag.

    The elemental starts are drawn once, and so are the random points that
    grow singular starts: every row reads the same sequence, the draws of
    the generator after the starts, extended as a row needs more.  The rows
    are then searched ``_MCD_BLOCK`` at a time by ``_search_rows``, all
    through the block buffers ``bufs``.  A row's result does not depend on
    the rows searched with it.
    """
    B = Z0.shape[1]
    starts, rng = _elemental_starts(B, seed, n_starts)
    draws = rng.integers(0, B, size=64).tolist()
    blocks = [_search_rows(Z0[lo:lo + _MCD_BLOCK], Z1[lo:lo + _MCD_BLOCK], starts, draws, rng, h, bufs)
              for lo in range(0, len(Z0), _MCD_BLOCK)]
    return tuple(np.concatenate(part) for part in zip(*blocks))


class _Growth:
    """One row's growth: its singular starts left (last first), the start
    growing, its members (flat indices into the row-major (m, B)
    coordinates) and the row's next position in the shared draws."""

    __slots__ = ("row", "left", "start", "members", "next")

    def __init__(self, row: int, starts: list, start_lists: list, B: int):
        self.row, self.left, self.next = row, starts[::-1], 0
        self.begin(start_lists, B)

    def begin(self, start_lists: list, B: int):
        self.start = self.left.pop()
        self.members = [self.row * B + i for i in start_lists[self.start]]


def _grow_singular(Z0: np.ndarray, Z1: np.ndarray, starts: np.ndarray, draws: list,
                   rng: np.random.Generator, h: int, T, S, det, best_T, best_S, exact):
    """Grow each row's singular elemental starts by random points, all rows in lockstep.

    A row takes its singular starts in order and reads the shared sequence
    ``draws`` from its beginning through one pointer: each start adds the
    next drawn point not already in it, until its scatter can be inverted
    (it then replaces the start's stats in ``T``/``S``/``det``) or it holds
    h collinear points (an exact fit, which ends the row).  Each step adds
    one point to every growing row's current start, then takes the stats of
    all subsets of one length in one ``_subset_stats`` call.  When the rows
    have read all of ``draws``, ``rng`` extends it in place; array draws of
    ``Generator.integers`` equal its scalar draws, so the sequence is the
    one each row would draw alone.
    """
    B = Z0.shape[1]
    flat0, flat1 = Z0.ravel(), Z1.ravel()
    singular = {}
    for r, j in zip(*np.nonzero(_is_singular(S))):
        singular.setdefault(int(r), []).append(int(j))
    start_lists = starts.tolist()
    growing = [_Growth(r, js, start_lists, B) for r, js in singular.items()]
    while growing:
        by_length = {}
        for g in growing:
            base, p = g.row * B, g.next
            while True:
                if p == len(draws):
                    draws.extend(rng.integers(0, B, size=len(draws)).tolist())
                extra = base + draws[p]
                p += 1
                if extra not in g.members:
                    break
            g.members.append(extra)
            g.next = p
            by_length.setdefault(len(g.members), []).append(g)
        growing = []
        for length, group in by_length.items():
            idx = [g.members for g in group]
            Ti, Si, di = _subset_stats(flat0[idx], flat1[idx])
            # _is_singular's test per subset, on Python floats: a step has few subsets
            for k, (s00, s01, _, s11) in enumerate(Si.reshape(-1, 4).tolist()):
                g = group[k]
                half_trace = 0.5 * (s00 + s11)
                if s00 * s11 - s01 * s01 > _REL_SINGULAR * half_trace * half_trace and half_trace > 0:
                    T[g.row, g.start], S[g.row, g.start], det[g.row, g.start] = Ti[k], Si[k], di[k]
                    if g.left:
                        g.begin(start_lists, B)
                        growing.append(g)
                elif length >= h:
                    # h collinear points: the objective's true minimum is 0
                    best_T[g.row], best_S[g.row], exact[g.row] = Ti[k], Si[k], True
                else:
                    growing.append(g)


def _search_rows(Z0: np.ndarray, Z1: np.ndarray, starts: np.ndarray, draws: list,
                 rng: np.random.Generator, h: int, bufs: list):
    """The MCD search of a block of rows from the elemental ``starts``.

    Every row runs the same search: two concentration steps from every
    elemental start, then the ``_MCD_KEEP`` lowest determinants iterated
    until none improves; a candidate that did not improve is not stepped
    again.  A row ends early, with an exact fit, as soon as a candidate's h
    points are collinear.  Singular elemental starts first grow by the
    random points of ``draws`` (``_grow_singular``), all rows in lockstep.
    """
    Z0, Z1 = np.ascontiguousarray(Z0), np.ascontiguousarray(Z1)
    m, B = Z0.shape
    best_T = np.empty((m, 2))
    best_S = np.empty((m, 2, 2))
    best_det = np.zeros(m)
    exact = np.zeros(m, dtype=bool)

    def finish_exact(rows, hit, T, S):
        done = hit.any(axis=1)
        first = hit.argmax(axis=1)[done]
        best_T[rows[done]] = T[done, first]
        best_S[rows[done]] = S[done, first]
        exact[rows[done]] = True
        return done

    T, S, det = _subset_stats(Z0[:, starts], Z1[:, starts])
    _grow_singular(Z0, Z1, starts, draws, rng, h, T, S, det, best_T, best_S, exact)

    rows = np.flatnonzero(~exact)
    T, S, det = T[rows], S[rows], det[rows]
    for _ in range(_MCD_INITIAL_STEPS):
        shape = det.shape  # (rows, starts), flattened for the kernel
        T, S, det = _c_step(Z0, Z1, np.repeat(rows, shape[1]), T.reshape(-1, 2), S.reshape(-1, 2, 2),
                            det.ravel(), h, bufs)
        T, S, det = T.reshape(shape + (2,)), S.reshape(shape + (2, 2)), det.reshape(shape)
        keep = ~finish_exact(rows, _is_singular(S), T, S)
        rows, T, S, det = rows[keep], T[keep], S[keep], det[keep]

    order = np.argsort(det, axis=1, kind="stable")[:, :_MCD_KEEP]
    T = np.take_along_axis(T, order[..., None], axis=1)
    S = np.take_along_axis(S, order[..., None, None], axis=1)
    det = np.take_along_axis(det, order, axis=1)
    # only the candidates that improved on their last step take another
    active = np.ones(det.shape, dtype=bool)
    for _ in range(_MCD_MAX_STEPS):
        r, j = np.nonzero(active)
        if r.size == 0:
            break
        T2, S2, det2 = _c_step(Z0, Z1, rows[r], T[r, j], S[r, j], det[r, j], h, bufs)
        active[r, j] = det2 < det[r, j]
        T[r, j], S[r, j], det[r, j] = T2, S2, det2
        hit = np.zeros(det.shape, dtype=bool)
        hit[r, j] = _is_singular(S2)
        active[finish_exact(rows, hit, T, S)] = False

    left = ~exact[rows]
    best = np.argmin(det[left], axis=1)
    best_T[rows[left]] = T[left, best]
    best_S[rows[left]] = S[left, best]
    best_det[rows[left]] = det[left, best]
    return best_T, best_S, best_det, exact


def mcd_rows(Z0: np.ndarray, Z1: np.ndarray, seed: int, n_starts: int) -> McdRows:
    """FAST-MCD of every row of row-stacked coordinates ``Z0``/``Z1`` (m, B).

    One ``_mcd_search`` draws the elemental starts and searches the rows
    ``_MCD_BLOCK`` at a time through one set of block buffers.  Inside a
    block, the singular elemental starts of all rows grow in lockstep, one
    random point per step, every row reading the same draws from its own
    pointer (``_grow_singular``).  The concentration steps run in
    cache-sized blocks of candidates whatever the row count, so the row
    blocks only bound the per-candidate stacks (rows x starts) and the
    growth's per-step overhead: searching the 200 rows of an MMDem
    bootstrap at once holds about 3 MB more.
    """
    B = Z0.shape[1]
    if B < 10:
        raise ValidationError("need at least 10 points")
    h = (B + 3) // 2
    T, S, raw_det, exact = _mcd_search(Z0, Z1, seed, n_starts, h, _c_step_buffers(B, h))
    return _finish_mcd(Z0, Z1, T, S, raw_det, exact, h)


def fast_mcd(points: np.ndarray, seed: int = 0) -> CovarianceModel:
    """Minimum covariance determinant scatter via concentration steps.

    The subset size is h = (B + 3) // 2 of the B points, the maximal
    breakdown choice.  Elemental (p+1)-subsets seed the search (all of
    them when few enough, otherwise ``_MCD_STARTS`` random ones); each start
    takes two concentration steps; the 10 candidates with the smallest
    determinants are iterated until none improves (at most 60 steps), each
    candidate only while its own determinant still falls.  Every step runs
    in cache-sized blocks of candidates.  An exactly collinear best subset
    is reported as a singular model, never inverted.  This is the one-row
    case of ``mcd_rows``.
    """
    Z = _points(points)
    r = mcd_rows(Z[None, :, 0], Z[None, :, 1], seed, _MCD_STARTS)
    return CovarianceModel(r.center[0], r.scatter[0], "MCD", h=r.h, correction=float(r.correction[0]),
                           singular=bool(r.singular[0]), raw_det=float(r.raw_det[0]))


def _weighted_moments(Z0: np.ndarray, Z1: np.ndarray, w: np.ndarray):
    """Per row: the weight total, the weighted mean, and the weighted sums of
    centered cross products (the scatter before normalisation)."""
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


def _finish_mcd(Z0, Z1, T, S, raw_det, exact, h: int) -> McdRows:
    """Consistency-correct each row's raw optimum, then one-step reweighting.

    The raw subset scatter gets the asymptotic trimming factor and an
    empirical median factor (small-sample correction); the usual
    reweighted estimate (drop points beyond the 97.5% quantile, rescale
    for the truncation) recovers efficiency the raw optimum lacks.  Exact
    fits and collinear optima come back as they are, flagged singular.
    """
    B = Z0.shape[1]
    singular = exact | _is_singular(S)
    alpha = h / B
    c1 = alpha / _chi2_4_cdf(_chi2_2_ppf(alpha))
    V = S * c1
    q = _chi2_2_ppf(0.975)
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = _mahalanobis_rows(Z0, Z1, T, V)
        c2 = median_rows(d2) / _chi2_2_ppf(0.5)
        c2 = np.where((c2 > 0) & np.isfinite(c2), c2, 1.0)
        k, T_rw, S_rw = _weighted_moments(Z0, Z1, (d2 / c2[:, None] <= q).astype(float))
        S_rw /= (k - 1)[:, None, None]
        S_rw /= _chi2_4_cdf(q) / 0.975
    # rows keeping too few points, or a singular reweighted scatter, keep the raw estimate
    raw = (k < max(3, B // 4)) | _is_singular(S_rw)
    reweighted = ~singular & ~raw
    center = np.where(reweighted[:, None], T_rw, T)
    scatter = np.where(singular[:, None, None], S,
                       np.where(raw[:, None, None], V * c2[:, None, None], S_rw))
    correction = np.where(singular, 1.0, c1 * c2)
    return McdRows(center, scatter, singular, correction, raw_det, h)


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
    Z = _points(points)
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

    # The projections are GEMMs, Z @ D.T: elementwise products round
    # otherwise, D @ Z.T too, and on tied clouds the weights follow the
    # projections' last bits.  The random directions alone are projected
    # block by block, Z @ D[lo:hi].T, equal to the columns of the whole
    # product; with the pairwise ones it stays one product, because the BLAS
    # may round a large product's last columns differently from a block's
    # (OpenBLAS does at some direction counts).  Each block is copied out one
    # direction per row, so every median runs along contiguous memory in
    # cache; the deviations are formed in place, and the MAD is taken from
    # them.
    P = Z @ D.T if len(D) > _SDE_DIRS else None  # (B, ndir)
    k = max(1, min(len(D), _BLOCK_ELEMS // B))
    buf = np.empty((k, B))
    out = None
    for lo in range(0, len(D), k):
        dev = buf[:min(k, len(D) - lo)]
        dev[...] = (Z @ D[lo:lo + k].T if P is None else P[:, lo:lo + k]).T
        dev -= median_rows(dev)[:, None]
        np.abs(dev, out=dev)
        mad = 1.4826 * median_rows(dev)
        usable = mad > 0
        if not usable.all():
            dev, mad = dev[usable], mad[usable]
        if mad.size:
            dev /= mad[:, None]
            out = dev.max(axis=0) if out is None else np.maximum(out, dev.max(axis=0), out=out)
    if out is None:
        raise SingularCovarianceError("all projection directions are degenerate")

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
    c2 = float(median_rows(d2) / _chi2_2_ppf(0.5))
    return CovarianceModel(center, scatter * c2, "SDe", correction=c2)


# ---------------------------------------------------------------------------
# S-estimators (bisquare, and translated bisquare for the fallback)
# ---------------------------------------------------------------------------

def _rho_bisquare(u: np.ndarray, c: float) -> np.ndarray:
    """v^2/2 - v^4/(2c^2) + v^6/(6c^4) at v = min(|u|, c), in Horner form."""
    t = np.minimum(np.abs(u), c)
    t *= t
    # t * (0.5 + t * (t / (6c^4) - 0.5/c^2)), in place, in the same order
    r = t / (6.0 * c ** 4)
    r -= 0.5 / (c * c)
    r *= t
    r += 0.5
    r *= t
    return r


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


class SEstimator(NamedTuple):
    """An S-estimator: its name, rho and weight functions, and scale target b0."""

    name: str
    rho: Callable[[np.ndarray], np.ndarray]
    weight: Callable[[np.ndarray], np.ndarray]
    b0: float


S_BISQUARE = SEstimator(
    "Sest",
    rho=lambda u: _rho_bisquare(u, _BISQUARE_S_CONSTANTS[0]),
    weight=lambda u: _weight_bisquare(u, _BISQUARE_S_CONSTANTS[0]),
    b0=_BISQUARE_S_CONSTANTS[1],
)
S_ROCKE = SEstimator(
    "Rocke",
    rho=lambda u: _rho_translated(u, *_ROCKE_CONSTANTS[:2]),
    weight=lambda u: _weight_translated(u, *_ROCKE_CONSTANTS[:2]),
    b0=_ROCKE_CONSTANTS[2],
)

# Why an S fixed point fails, by the code ``s_rows`` works with (0: it converged).
_S_FAILURES = (
    None,
    (SingularCovarianceError, "initial scatter is singular"),
    (SingularCovarianceError, "over half of the points coincide with the center"),
    (SingularCovarianceError, "scale target unattainable (all distances zero)"),
    (ConvergenceError, "M-scale iteration did not settle"),
    (SingularCovarianceError, "all points rejected by the weight function"),
    (SingularCovarianceError, "weighted shape collapsed"),
    (ConvergenceError, "{name} fixed point did not converge in {max_iter} iterations"),
)
_SINGULAR_START, _COINCIDENT, _UNATTAINABLE, _UNSETTLED, _REJECTED, _COLLAPSED, _NOT_CONVERGED = range(1, 8)


def s_start(Z0: np.ndarray, Z1: np.ndarray) -> McdRows:
    """The MCD (seed 0, 120 random starts) both S-estimators start each row from."""
    return mcd_rows(Z0, Z1, seed=0, n_starts=_S_MCD_STARTS)


def _m_scale(d: np.ndarray, rho, b0: float, s: np.ndarray, run: np.ndarray):
    """Solve mean rho(d/s) = b0 per row by the multiplicative fixed point.

    ``s`` holds the starting scales; only rows with ``run`` set iterate.
    Returns the scales and a failure code per row.  A row's scale is
    written back when it stops, so an iteration in which every row moves
    on costs only the step itself.
    """
    s = s.copy()
    code = np.zeros(len(d), dtype=np.intp)
    rows = np.flatnonzero(run)
    d_run, s_run = d[rows], s[rows]
    n = d.shape[1]
    for _ in range(_M_SCALE_MAX_ITER):
        if rows.size == 0:
            return s, code
        val = np.add.reduce(rho(d_run / s_run[:, None]), axis=1) / n
        zero = val <= 0.0
        s_new = s_run * np.sqrt(val / b0)
        stop = zero | (np.abs(s_new - s_run) <= _M_SCALE_TOL * s_run)
        if stop.any():
            s[rows[stop]] = s_new[stop]
            code[rows[zero]] = _UNATTAINABLE
            moving = ~stop
            rows, d_run, s_new = rows[moving], d_run[moving], s_new[moving]
        s_run = s_new
    s[rows] = s_run
    code[rows] = _UNSETTLED
    return s, code


def s_rows(Z0: np.ndarray, Z1: np.ndarray, start: McdRows, est: SEstimator):
    """S-estimates of location and scatter of every row, from its MCD start.

    Each row iterates: distances under the current determinant-one shape,
    the M-scale s solving mean rho(d/s) = b0, weights w(d/s), and the
    weighted mean and shape; it stops once s moves by at most
    ``_S_TOL`` relative.  Returns centers (m, 2), scatters (m, 2, 2) and a
    failure per row: None where the row converged, otherwise the exception
    ``_s_fixed_point`` raises for it.
    """
    m = len(Z0)
    T = start.center.copy()
    s = np.zeros(m)
    code = np.where(start.singular, _SINGULAR_START, 0)
    rows = np.flatnonzero(code == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        V = start.scatter
        G = V / np.sqrt(V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] ** 2)[:, None, None]
        for it in range(_S_MAX_ITER):
            if rows.size == 0:
                break
            Za0, Za1 = Z0[rows], Z1[rows]
            d = np.sqrt(_mahalanobis_rows(Za0, Za1, T[rows], G[rows]))
            med = median_rows(d)
            med = np.where(med > 0, med, d.mean(axis=1))
            status = np.where(med > 0, 0, _COINCIDENT)
            s_init = med / math.sqrt(_chi2_2_ppf(0.5)) if it == 0 else s[rows]
            s_new, scale_status = _m_scale(d, est.rho, est.b0, s_init, status == 0)
            status = np.where(status == 0, scale_status, status)
            w = est.weight(d / s_new[:, None])
            sw, T_new, C = _weighted_moments(Za0, Za1, w)
            status[(status == 0) & ((sw <= 0) | ((w > 0).sum(axis=1) < 3))] = _REJECTED
            detC = C[:, 0, 0] * C[:, 1, 1] - C[:, 0, 1] ** 2
            status[(status == 0) & _is_singular(C)] = _COLLAPSED
            ok = status == 0
            shift = np.abs(s_new - s[rows]) / s_new if it else np.full(len(rows), np.inf)
            code[rows] = status
            done, moving = rows[ok], ok & ~(shift <= _S_TOL)
            T[done] = T_new[ok]
            G[done] = C[ok] / np.sqrt(detC[ok])[:, None, None]
            s[done] = s_new[ok]
            rows = rows[moving]
        scatter = (s * s)[:, None, None] * G
    code[rows] = _NOT_CONVERGED
    failure = np.full(m, None, dtype=object)
    for k in np.unique(code[code > 0]):
        cls, msg = _S_FAILURES[k]
        failure[code == k] = cls(msg.format(name=est.name, max_iter=_S_MAX_ITER))
    return T, scatter, failure


def _s_fixed_point(points: np.ndarray, est: SEstimator) -> CovarianceModel:
    """S-estimate of one (B, 2) sample: the one-row case of ``s_rows``."""
    Z = _points(points)
    Z0, Z1 = Z[None, :, 0], Z[None, :, 1]
    T, V, failure = s_rows(Z0, Z1, s_start(Z0, Z1), est)
    if failure[0] is not None:
        raise failure[0]
    return CovarianceModel(T[0], V[0], est.name)


def s_cov(points: np.ndarray) -> CovarianceModel:
    """Bisquare S-estimate of location and scatter (breakdown 0.5)."""
    return _s_fixed_point(points, S_BISQUARE)


def rocke_cov(points: np.ndarray) -> CovarianceModel:
    """Translated-bisquare S-estimate; fallback starter for the MM fit."""
    return _s_fixed_point(points, S_ROCKE)


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
