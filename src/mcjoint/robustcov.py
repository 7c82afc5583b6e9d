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
does not depend on which rows it is batched with; the MCD's depends only
on whether there are any (see ``_mcd_search``).

The two bulk passes work in cache-sized blocks of about ``_BLOCK_ELEMS``
elements: every MCD concentration step runs over a flat list of
candidates (start subsets of any rows), and Stahel-Donoho forms its
projections and takes their medians one block of its 1000 random
directions at a time, one GEMM per block, so the (B, directions) matrix
never exists whole.  Blocking changes no arithmetic, only where the
temporaries live.

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
_BLOCK_ELEMS = 1 << 15  # elements of one (candidates or directions, B) block; keeps it in L2
_MCD_STARTS = 500      # random elemental starts of fast_mcd
_S_MCD_STARTS = 120    # random elemental starts of the MCD the S-estimators start from
_S_MAX_ITER = 200      # S fixed-point iterations before giving up
_S_TOL = 1e-10         # relative scale shift that ends the S fixed point
_M_SCALE_MAX_ITER = 200  # M-scale iterations before giving up
_M_SCALE_TOL = 1e-12   # relative scale step that ends the M-scale iteration
_NEWTON_SLOPE = 0.5    # least q/v at which the M-scale takes a Newton step
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


def median_rows(A: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Median along the last axis: ``np.median(A, axis=-1)``, bit for bit.

    ``np.median`` partitions at the middle and at the end (to catch NaNs),
    which takes numpy's slow multi-kth path.  A row of at most 64 values is
    sorted, which gives both middle values; a longer one takes one partition
    point, numpy's vectorised selection.  Only the sign of a zero median may
    differ.  This runs on a copy of ``A``: in ``scratch`` when given (A's
    shape, overwritten), else in a new array; a median is an order statistic,
    so where the copy lives cannot change it.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    h = n // 2
    part = np.empty_like(A) if scratch is None else scratch
    np.copyto(part, A)
    if n <= 64:
        part.sort(axis=-1)
    else:
        part.partition(h, axis=-1)
    med = part[..., h]
    if n % 2 == 0:
        # the lower middle value is the largest of the h before the middle
        low = part[..., h - 1] if n <= 64 else part[..., :h].max(axis=-1)
        med = (low + med) / 2
    # NaNs sort after every number: a sorted row holds one iff its last value
    # is NaN, and a partitioned row's NaN lies at or beyond its middle, so
    # one pass over the whole copy rules them all out first
    if n <= 64:
        nan = np.isnan(part[..., -1])
    else:
        nan = np.isnan(part).any() and np.isnan(part[..., h:]).any(axis=-1)
    return np.where(nan, np.nan, med)


def _regular(s00, s01, s11):
    """Whether 2x2 scatter entries can be inverted: the one singularity rule,
    on floats or on arrays of entries.  A NaN entry makes it False."""
    half_trace = 0.5 * (s00 + s11)
    return (s00 * s11 - s01 * s01 > _REL_SINGULAR * half_trace * half_trace) & (half_trace > 0)


def _is_singular(scatter: np.ndarray):
    """Whether a 2x2 scatter, or each of a stack of them, is (nearly) singular."""
    return ~_regular(scatter[..., 0, 0], scatter[..., 0, 1], scatter[..., 1, 1])


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
    Z = _points(points)
    if len(Z) < 3:
        raise ValidationError("need at least 3 points")
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
    singular: np.ndarray    # (m,) exact fit: the raw optimum is singular
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
    """One concentration step of each candidate, in place: the stats of its h nearest points.

    Candidate ``i`` is the (T[i], S[i], det[i]) of row ``rid[i]`` of the
    (m, B) coordinates ``Z0``/``Z1``, and its new stats are written over
    it.  Candidates run k at a time through the (k, B) buffers of
    ``_c_step_buffers``, so the distances, the selection and the gathered
    support stay in cache, and so do the block's quadratic-form
    coefficients.  Each candidate's arithmetic does not depend on the
    others in its block.
    """
    N, B = len(rid), Z0.shape[1]
    k = len(bufs[0])
    for lo in range(0, N, k):
        hi = min(lo + k, N)
        r = rid[lo:hi]
        D0, D1, d2, s0, s1, idx = (buf[:hi - lo] for buf in bufs)
        Sb, db = S[lo:hi], det[lo:hi]
        a = Sb[:, 1, 1] / db
        b = -2.0 * Sb[:, 0, 1] / db
        c = Sb[:, 0, 0] / db
        # the indices are in range by construction; "clip" writes straight
        # into ``out`` where the default "raise" buffers it
        np.take(Z0, r, axis=0, out=D0, mode="clip")
        np.take(Z1, r, axis=0, out=D1, mode="clip")
        D0 -= T[lo:hi, 0, None]
        D1 -= T[lo:hi, 1, None]
        np.multiply(D0, D0, out=d2)
        d2 *= a[:, None]
        D0 *= D1
        D0 *= b[:, None]
        d2 += D0
        D1 *= D1
        D1 *= c[:, None]
        d2 += D1
        np.add(np.argpartition(d2, h - 1, axis=1)[:, :h], (r * B)[:, None], out=idx)
        np.take(Z0, idx, out=s0, mode="clip")  # flat indices into C-ordered rows
        np.take(Z1, idx, out=s1, mode="clip")
        T[lo:hi], S[lo:hi], det[lo:hi] = _subset_stats(s0, s1)


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


# Where running moments cannot call a subset singular or not: det/ht^2 (ht
# its scatter's half trace) inside the band, whose lower end sits above the
# rounding noise of collinear points (under 1e-14); or a spread below
# _GUESS_SPREAD of the squared mean, where rounding the mean can move
# det/ht^2 past _REL_SINGULAR; or a trace whose square underflows (units
# below about 1e-77)
_GUESS_BAND = (1e-14, 1e-10)
_GUESS_SPREAD = 1e-14


def _guess_singular(n: int, mx: float, my: float, cxx: float, cyy: float, cxy: float):
    """``_regular``'s verdict on an n-point subset, guessed from its running mean
    (mx, my) and sums of centered cross products: True where the subset is
    singular, False where it is not, None where rounding may decide."""
    trace = cxx + cyy
    if trace == 0.0:
        return True  # n equal points
    if trace < _GUESS_SPREAD * n * (mx * mx + my * my) or trace * trace == 0.0:
        return None
    q = 4.0 * (cxx * cyy - cxy * cxy) / (trace * trace)
    return True if q < _GUESS_BAND[0] else False if q > _GUESS_BAND[1] else None


def _grow_singular(Z0: np.ndarray, Z1: np.ndarray, starts: np.ndarray, draws: list,
                   rng: np.random.Generator, h: int, T, S, det):
    """Grow each row's singular elemental starts by random points until they can be inverted.

    A row takes its singular starts in order and reads the shared sequence
    ``draws`` from its beginning through one pointer: each start adds the
    next drawn point not already in it, until its scatter is ``_regular``
    or it holds h collinear points (an exact fit, which ends the row's
    growth).  Each grown start's final stats replace its own in
    ``T``/``S``/``det``, an exact fit's included.  When the rows
    have read all of ``draws``, ``rng`` extends it in place; array draws of
    ``Generator.integers`` equal its scalar draws, so the sequence is the
    one each row would draw alone.

    Every row first grows in Python on decisions guessed from running
    moments (``_guess_singular``); a subset the guess cannot call is
    settled by ``_subset_stats`` at once.  Every grown subset is then
    checked with ``_subset_stats`` and ``_is_singular``, one call per subset
    length over all rows and starts, and a start's stats are stored from
    the call of its final length.  A row whose check contradicts a guess
    grows once more, from its first singular start, on exact decisions
    alone, and its stats are stored through the same check.  So every
    stored stat and every decision is the exact test's: a C-ordered (g, L)
    gather gives each subset the bits of its own (1, L) gather.
    """
    rs, cs = np.nonzero(_is_singular(S))
    if rs.size == 0:
        return
    m, B = Z0.shape
    flat0, flat1 = Z0.ravel(), Z1.ravel()
    start_lists = starts.tolist()
    # row r's singular starts are cs[bounds[r]:bounds[r + 1]]; the guesses
    # start from their means and sums of centered cross products (twice the
    # scatter of 3 points)
    bounds = np.searchsorted(rs, np.arange(m + 1))
    rows = np.flatnonzero(np.diff(bounds)).tolist()  # the rows with a singular start
    bounds = bounds.tolist()
    moments = np.column_stack([T[rs, cs], 2.0 * S[rs, cs, 0, 0], 2.0 * S[rs, cs, 1, 1],
                               2.0 * S[rs, cs, 0, 1]])
    for guessed in (True, False):
        # a run is one start's growth: (row, start, length, whether it ends in
        # an exact fit), four entries of ``runs``; its members follow the
        # previous run's in ``members``
        runs, members = [], []
        for row in rows:
            js = cs[bounds[row]:bounds[row + 1]].tolist()
            moms = moments[bounds[row]:bounds[row + 1]].tolist()
            xs, ys = Z0[row].tolist(), Z1[row].tolist()
            p = 0
            for j, (mx, my, cxx, cyy, cxy) in zip(js, moms):
                mem = list(start_lists[j])
                n = 3
                while True:
                    while True:
                        if p == len(draws):
                            draws.extend(rng.integers(0, B, size=len(draws)).tolist())
                        e = draws[p]
                        p += 1
                        if e not in mem:
                            break
                    mem.append(e)
                    x, y = xs[e], ys[e]
                    n += 1
                    dx, dy = x - mx, y - my
                    mx += dx / n
                    my += dy / n
                    cxx += dx * (x - mx)
                    cyy += dy * (y - my)
                    cxy += dx * (y - my)
                    singular_now = _guess_singular(n, mx, my, cxx, cyy, cxy) if guessed else None
                    if singular_now is None:
                        _, Si, _ = _subset_stats(Z0[row, [mem]], Z1[row, [mem]])
                        s00, s01, _, s11 = Si.ravel().tolist()
                        singular_now = not _regular(s00, s01, s11)
                    if not singular_now or n >= h:
                        break
                runs += (row, j, n, singular_now)
                members += mem
                if singular_now:
                    break

        # check the runs one length at a time; a run's subsets are singular
        # up to its last, which is regular unless the run ends in an exact
        # fit.  A run is stored at its last length unless a check has
        # contradicted its row, whose second growth overwrites what it stored
        # up to its own end; an exact fit has the greatest length, so it is
        # stored only for a row that no check contradicts
        row_a, col_a, len_a, fit_a = np.array(runs).reshape(-1, 4).T
        fit_a = fit_a.astype(bool)
        members = np.array(members)
        off = np.cumsum(len_a) - len_a
        wrong = np.zeros(m, dtype=bool)
        for L in range(4, len_a.max() + 1):
            act = np.flatnonzero(len_a >= L)
            r = row_a[act]
            idx = members[off[act, None] + np.arange(L)] + (B * r)[:, None]
            Ti, Si, di = _subset_stats(flat0[idx], flat1[idx])
            last, fit = len_a[act] == L, fit_a[act]
            wrong[r[_is_singular(Si) != (fit | ~last)]] = True
            done = last & ~wrong[r]
            rr, cc = r[done], col_a[act[done]]
            T[rr, cc], S[rr, cc], det[rr, cc] = Ti[done], Si[done], di[done]
        rows = np.flatnonzero(wrong).tolist()
        if not rows:
            break


def _mcd_search(Z0: np.ndarray, Z1: np.ndarray, seed: int, n_starts: int, h: int, bufs: list):
    """Raw MCD optimum of each row: center, scatter and determinant.

    Every row runs the same search from the same elemental starts: two
    concentration steps from every start, then the ``_MCD_KEEP`` lowest
    determinants stepped until none improves (at most ``_MCD_MAX_STEPS``),
    each candidate only while its own determinant falls.  Singular starts
    first grow by random points (``_grow_singular``); every row reads the
    same draws, those of the generator after the starts, from its own
    pointer.  A row's exact fit (h collinear points) is its first singular
    candidate after growth or after any step, since growth leaves no
    earlier start singular and every candidate is checked after each of
    its steps; it ends the row, with determinant 0.  Rows are searched in
    blocks of as many as keep rows x starts within ``_BLOCK_ELEMS``, the
    budget of the (rows, starts) candidate stacks, all through the block
    buffers ``bufs``.
    """
    Z0, Z1 = np.ascontiguousarray(Z0), np.ascontiguousarray(Z1)
    m, B = Z0.shape
    starts, rng = _elemental_starts(B, seed, n_starts)
    draws = rng.integers(0, B, size=64).tolist()
    best_T, best_S, best_det = np.empty((m, 2)), np.empty((m, 2, 2)), np.zeros(m)

    def end_exact(rows, T, S, *more):
        # each row's first singular candidate is its exact fit; drop its row
        hit = _is_singular(S)
        done = hit.any(axis=1)
        if not done.any():
            return (rows, T, S) + more
        first = hit.argmax(axis=1)[done]
        best_T[rows[done]], best_S[rows[done]] = T[done, first], S[done, first]
        return tuple(a[~done] for a in (rows, T, S) + more)

    c = len(starts)
    step = max(1, _BLOCK_ELEMS // c)
    for lo in range(0, m, step):
        block = slice(lo, lo + step)
        rows = np.arange(m)[block]
        n = len(rows)
        # the starts' stats into C-contiguous (rows, starts) stacks, a slice
        # of starts at a time so the gathered subsets (6 values per row and
        # start) stay within _BLOCK_ELEMS; each slice takes every row, since
        # einsum rounds the sums of a one-row gather otherwise than those of
        # several (the row axis lies innermost)
        T, S, det = np.empty((n, c, 2)), np.empty((n, c, 2, 2)), np.empty((n, c))
        per = max(1, _BLOCK_ELEMS // (6 * n))
        for k in range(0, c, per):
            j = slice(k, k + per)
            T[:, j], S[:, j], det[:, j] = _subset_stats(Z0[block, starts[j]], Z1[block, starts[j]])
        _grow_singular(Z0[block], Z1[block], starts, draws, rng, h, T, S, det)
        rows, T, S, det = end_exact(rows, T, S, det)

        # the kernel steps the stacks in place through flat views; they are
        # copied only to drop rows that have ended
        for _ in range(_MCD_INITIAL_STEPS):
            _c_step(Z0, Z1, np.repeat(rows, c), T.reshape(-1, 2), S.reshape(-1, 2, 2),
                    det.reshape(-1), h, bufs)
            rows, T, S, det = end_exact(rows, T, S, det)

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
            T2, S2, det2 = T[r, j], S[r, j], det[r, j]  # copies: det keeps the last step's
            _c_step(Z0, Z1, rows[r], T2, S2, det2, h, bufs)
            active[r, j] = det2 < det[r, j]
            T[r, j], S[r, j], det[r, j] = T2, S2, det2
            rows, T, S, det, active = end_exact(rows, T, S, det, active)

        best = np.argmin(det, axis=1)
        i = np.arange(len(rows))
        best_T[rows], best_S[rows], best_det[rows] = T[i, best], S[i, best], det[i, best]
    return best_T, best_S, best_det


def mcd_rows(Z0: np.ndarray, Z1: np.ndarray, seed: int, n_starts: int) -> McdRows:
    """FAST-MCD of every row of row-stacked coordinates ``Z0``/``Z1`` (m, B).

    Each row's raw optimum over subsets of h = (B + 3) // 2 of its B >= 10
    points is searched from ``n_starts`` elemental starts drawn from
    ``seed`` (``_mcd_search``), then consistency-corrected and reweighted
    (``_finish_mcd``).
    """
    B = Z0.shape[1]
    if B < 10:
        raise ValidationError("need at least 10 points")
    h = (B + 3) // 2
    T, S, raw_det = _mcd_search(Z0, Z1, seed, n_starts, h, _c_step_buffers(B, h))
    return _finish_mcd(Z0, Z1, T, S, raw_det, h)


def fast_mcd(points: np.ndarray, seed: int = 0) -> CovarianceModel:
    """Minimum covariance determinant location and scatter of a (B, 2) cloud.

    The one-row case of ``mcd_rows`` with ``_MCD_STARTS`` starts: subsets
    of h = (B + 3) // 2 points, the maximal breakdown choice.  An exactly
    collinear best subset is reported as a singular model, never inverted.
    """
    Z = _points(points)
    r = mcd_rows(Z[None, :, 0], Z[None, :, 1], seed, _MCD_STARTS)
    return CovarianceModel(r.center[0], r.scatter[0], "MCD", h=r.h, correction=float(r.correction[0]),
                           singular=bool(r.singular[0]), raw_det=float(r.raw_det[0]))


def _weighted_moments(Z0: np.ndarray, Z1: np.ndarray, w: np.ndarray, scratch=None):
    """Per row: the weight total, the weighted mean, and the weighted sums of
    centered cross products (the scatter before normalisation).

    The products are formed in two C-contiguous arrays of w's shape:
    ``scratch`` when given (overwritten), else new ones.  The one array
    that holds w*D0 gives C00 and C01, D1 is written over D0's array once
    C00 has read it, and (w*D1)*D1 takes the other; either way each row
    sum adds the same contiguous values in the same order.  ``w`` is only
    read, so unit weights may be a broadcast view of 1.0.
    """
    a, b = np.empty((2,) + w.shape) if scratch is None else scratch
    sw = w.sum(axis=1)
    T = np.stack([np.multiply(w, Z0, out=a).sum(axis=1),
                  np.multiply(w, Z1, out=a).sum(axis=1)], axis=-1) / sw[:, None]
    D0 = np.subtract(Z0, T[:, 0, None], out=a)
    wD0 = np.multiply(w, D0, out=b)
    C = np.empty((len(w), 2, 2))
    C[:, 0, 0] = np.multiply(wD0, D0, out=a).sum(axis=1)
    D1 = np.subtract(Z1, T[:, 1, None], out=a)
    C[:, 0, 1] = C[:, 1, 0] = np.multiply(wD0, D1, out=b).sum(axis=1)
    C[:, 1, 1] = np.multiply(np.multiply(w, D1, out=b), D1, out=b).sum(axis=1)
    return sw, T, C


def _finish_mcd(Z0, Z1, T, S, raw_det, h: int) -> McdRows:
    """Consistency-correct each row's raw optimum, then one-step reweighting.

    The raw subset scatter gets the asymptotic trimming factor and an
    empirical median factor (small-sample correction); the usual
    reweighted estimate (drop points beyond the 97.5% quantile, rescale
    for the truncation) recovers efficiency the raw optimum lacks.  A
    singular optimum (an exact fit) comes back as it is, flagged singular.
    """
    B = Z0.shape[1]
    singular = _is_singular(S)
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
    median over 1000 random unit directions drawn from ``seed``.
    """
    Z = _points(points)
    B = len(Z)
    if B < 10:
        raise ValidationError("need at least 10 points")
    theta = task_rng(seed).uniform(0.0, np.pi, _SDE_DIRS)
    D = np.column_stack([np.cos(theta), np.sin(theta)])

    # The projections are GEMMs, one Z @ D[lo:hi].T per block of directions,
    # so the (B, directions) matrix never exists whole; elementwise products
    # round otherwise, D @ Z.T too, and on tied clouds the weights follow
    # the projections' last bits.  Each block is copied out one direction
    # per row, so every median runs along contiguous memory in cache; the
    # deviations are formed in place, and the MAD is taken from them.
    k = max(1, min(_SDE_DIRS, _BLOCK_ELEMS // B))
    buf = np.empty((k, B))
    out = None
    for lo in range(0, _SDE_DIRS, k):
        dev = buf[:min(k, _SDE_DIRS - lo)]
        dev[...] = (Z @ D[lo:lo + k].T).T
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

def _rho_upsi_bisquare(u: np.ndarray, c: float):
    """rho(u) and u psi(u) = u^2 w(u) of the bisquare at u >= 0, from t = min(u, c)^2.

    rho = t/2 - t^2/(2c^2) + t^3/(6c^4), in Horner form, and u psi = t (1 - t/c^2)^2.
    """
    t = np.minimum(u, c) ** 2
    g = 1.0 - t / (c * c)
    return t * (0.5 + t * (t / (6.0 * c ** 4) - 0.5 / (c * c))), t * g * g


def _weight_bisquare(u: np.ndarray, c: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(1 - (u/c)^2)^2 where |u| <= c, else 0; in ``out`` (which may be ``u``) when given."""
    far = ~(np.abs(u) <= c)
    t = np.divide(u, c, out=out)
    np.square(t, out=t)
    np.subtract(1.0, t, out=t)
    np.square(t, out=t)
    t[far] = 0.0
    return t


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
    """An S-estimator: its name, rho(u) with u psi(u) at u >= 0, weight function and target b0."""

    name: str
    rho_upsi: Callable[[np.ndarray], tuple]
    weight: Callable[[np.ndarray], np.ndarray]
    b0: float


S_BISQUARE = SEstimator(
    "Sest",
    rho_upsi=lambda u: _rho_upsi_bisquare(u, _BISQUARE_S_CONSTANTS[0]),
    weight=lambda u: _weight_bisquare(u, _BISQUARE_S_CONSTANTS[0]),
    b0=_BISQUARE_S_CONSTANTS[1],
)
S_ROCKE = SEstimator(
    "Rocke",
    rho_upsi=lambda u: (_rho_translated(u, *_ROCKE_CONSTANTS[:2]),
                        u * u * _weight_translated(u, *_ROCKE_CONSTANTS[:2])),
    weight=lambda u: _weight_translated(u, *_ROCKE_CONSTANTS[:2]),
    b0=_ROCKE_CONSTANTS[2],
)

# Why an S fixed point fails, by the code ``s_rows`` returns (0: it converged).
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


def _m_scale(d: np.ndarray, rho_upsi, b0: float, s: np.ndarray):
    """Solve mean rho(d/s) = b0 for every row by a safeguarded Newton step in log s.

    With u = d/s, v = mean rho(u) and q = mean u psi(u), the slope of v in
    -log s, a row steps to s exp((v - b0)/q) where q >= v/2, and otherwise
    takes the fixed-point step s sqrt(v/b0): rows near breakdown, which the
    fixed point cannot settle, so still fail as unsettled.  ``s`` holds the
    starting scales.  Returns the scales and a failure code per row.  A row
    leaves when it stops, its scale written then, so an iteration in which
    every row moves on costs only the step.
    """
    out = np.empty(len(d))
    code = np.zeros(len(d), dtype=np.intp)
    rows = np.arange(len(d))
    target = d.shape[1] * b0  # sums over the row stand for the means
    for _ in range(_M_SCALE_MAX_ITER):
        if rows.size == 0:
            return out, code
        r, g = rho_upsi(d / s[:, None])
        val, q = np.add.reduce(r, axis=1), np.add.reduce(g, axis=1)
        zero = val <= 0.0
        step = np.where(q >= _NEWTON_SLOPE * val, (val - target) / q, 0.5 * np.log(val / target))
        s_new = s * np.exp(step)
        stop = zero | (np.abs(s_new - s) <= _M_SCALE_TOL * s)
        if stop.any():
            out[rows[stop]] = s_new[stop]
            code[rows[zero]] = _UNATTAINABLE
            rows, d, s_new = rows[~stop], d[~stop], s_new[~stop]
        s = s_new
    out[rows] = s
    code[rows] = _UNSETTLED
    return out, code


def s_rows(Z0: np.ndarray, Z1: np.ndarray, start: McdRows, est: SEstimator):
    """S-estimates of location and scatter of every row, from its MCD start.

    Each row iterates: distances under the current determinant-one shape,
    the M-scale s solving mean rho(d/s) = b0 (``_m_scale``, from the
    previous s after the first step), weights w(d/s), and the weighted
    mean and shape.  The live rows' data, center, shape and s are gathered
    once and stepped in place.  A row leaves at its first failure, with the
    state it failed from, or once s moves by at most ``_S_TOL`` relative;
    only then are its state and code written back.  Returns centers (m, 2),
    scatters (m, 2, 2) and a failure code per row: 0 where the row
    converged, else the code ``s_failure`` turns into its exception.
    """
    T = start.center.copy()
    s = np.zeros(len(Z0))
    code = np.where(start.singular, _SINGULAR_START, 0)
    rows = np.flatnonzero(code == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        V = start.scatter
        G = V / np.sqrt(V[:, 0, 0] * V[:, 1, 1] - V[:, 0, 1] ** 2)[:, None, None]
        z0, z1, t, g, sv = Z0[rows], Z1[rows], T[rows], G[rows], s[rows]

        def leave(out, why):  # write the live rows ``out`` back with code ``why``
            nonlocal rows, z0, z1, t, g, sv
            T[rows[out]], G[rows[out]], s[rows[out]], code[rows[out]] = t[out], g[out], sv[out], why
            rows, z0, z1, t, g, sv = rows[~out], z0[~out], z1[~out], t[~out], g[~out], sv[~out]

        for it in range(_S_MAX_ITER):
            if rows.size == 0:
                break
            d = np.sqrt(_mahalanobis_rows(z0, z1, t, g))
            mean = d.mean(axis=1)
            live = mean > 0  # coincident: no positive mean or median; read the median only there
            if not live.all():
                live[~live] = median_rows(d[~live]) > 0
                leave(~live, _COINCIDENT)
                d, mean = d[live], mean[live]
            if it == 0:  # the first M-scale starts from the median distance, or the mean where it is 0
                med = median_rows(d)
                s_first = np.where(med > 0, med, mean) / math.sqrt(_chi2_2_ppf(0.5))
            s_new, status = _m_scale(d, est.rho_upsi, est.b0, sv if it else s_first)
            w = est.weight(d / s_new[:, None])
            sw, t_new, C = _weighted_moments(z0, z1, w)
            status[(status == 0) & ((sw <= 0) | ((w > 0).sum(axis=1) < 3))] = _REJECTED
            detC = C[:, 0, 0] * C[:, 1, 1] - C[:, 0, 1] ** 2
            status[(status == 0) & _is_singular(C)] = _COLLAPSED
            ok = status == 0
            out = ~ok | (np.abs(s_new - sv) / s_new <= _S_TOL)  # never in the first step: sv is 0
            t[ok], g[ok], sv[ok] = t_new[ok], C[ok] / np.sqrt(detC[ok])[:, None, None], s_new[ok]
            if out.any():
                leave(out, status[out])
        leave(np.ones(rows.size, dtype=bool), _NOT_CONVERGED)
        scatter = (s * s)[:, None, None] * G
    return T, scatter, code


def s_failure(code: int, est: SEstimator) -> Exception:
    """The exception ``_S_FAILURES`` names for a nonzero failure code of ``s_rows``."""
    cls, msg = _S_FAILURES[code]
    return cls(msg.format(name=est.name, max_iter=_S_MAX_ITER))


def _s_fixed_point(points: np.ndarray, est: SEstimator) -> CovarianceModel:
    """S-estimate of one (B, 2) sample: the one-row case of ``s_rows``."""
    Z = _points(points)
    Z0, Z1 = Z[None, :, 0], Z[None, :, 1]
    T, V, code = s_rows(Z0, Z1, s_start(Z0, Z1), est)
    if code[0]:
        raise s_failure(code[0], est)
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
