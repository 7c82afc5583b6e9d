"""Exponential-power fit of acceptance bumps and power-level calibration.

Empirical acceptance curves (one minus the rejection rate) peak at the
null value and fall off with a platykurtic shape; a four-parameter
exponential-power density with a free amplitude models them well:

    f(x) = amplitude * shape / (2 * scale * Gamma(1/shape))
               * exp(-(|x - location| / scale) ** shape)

Fitting is damped Gauss-Newton with the analytic Jacobian; the absolute
value is removed for gradient purposes by working on one side of the peak
and taking the one-sided limit at the peak itself.  Standard errors come
from the Gauss-Newton covariance, and the level where rejection reaches a
target power is found by numerically inverting the fitted curve and its
pointwise confidence band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, NoSolutionError, ValidationError

MIN_POINTS = 8
_MAX_ITER = 200        # Gauss-Newton steps of the curve fit
_BAND_LEVEL = 0.95     # confidence level of the pointwise band
_BISECT_TOL = 1e-10    # bracket width that ends a bisection
_BRACKET_SPAN = 64.0   # widest bracket searched, in fitted scales from the peak


@dataclass(frozen=True)
class SubbotinParams:
    """Amplitude-scaled exponential-power parameters and fit diagnostics."""

    amplitude: float
    shape: float
    scale: float
    location: float
    covariance: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.amplitude <= 0 or self.shape <= 0 or self.scale <= 0:
            raise ValidationError("amplitude, shape and scale must be > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.amplitude, self.shape, self.scale, self.location])


@dataclass(frozen=True)
class PowerLevel:
    """Parameter level reaching the target rejection power, with CI."""

    estimate: float
    lci: float
    uci: float

    def __post_init__(self):
        if not (self.lci <= self.estimate <= self.uci):
            raise ValidationError("power level bounds out of order")


def subbotin_density(x, p: SubbotinParams) -> np.ndarray:
    """Evaluate the four-parameter exponential-power form."""
    from scipy.special import gamma

    x = np.asarray(x, float)
    u = np.abs(x - p.location) / p.scale
    norm_const = p.shape / (2.0 * p.scale * gamma(1.0 / p.shape))
    out = p.amplitude * norm_const * np.exp(-(u ** p.shape))
    return out if out.ndim else float(out)


def subbotin_gradient(x, p: SubbotinParams) -> np.ndarray:
    """Analytic gradient wrt (amplitude, shape, scale, location).

    Away from the peak this is the gradient of the one-sided form carried
    back by symmetry (a sign on the location component); at the peak each
    component takes its one-sided limit from above, except location's.
    Its one-sided limits there are +-f b u^(b-1) / s: both 0 for shape > 1,
    but +-f/s at shape 1 and +-inf below it, where the curve has a cusp.
    So a point on the peak takes their mean, 0, at any shape, and a fit
    whose location sits on a grid value goes on when its shape dips to 1
    or below.
    """
    from scipy.special import digamma

    x = np.atleast_1d(np.asarray(x, float))
    a, b, s, mu = p.amplitude, p.shape, p.scale, p.location
    u = np.abs(x - mu) / s
    f = subbotin_density(x, p)
    ub = u ** b
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.where(u > 0.0, np.log(np.where(u > 0.0, u, 1.0)), 0.0)
    g = np.empty((len(x), 4))
    g[:, 0] = f / a
    g[:, 1] = f * (1.0 / b + digamma(1.0 / b) / (b * b) - ub * log_u)
    g[:, 2] = f * (b * ub - 1.0) / s
    with np.errstate(divide="ignore", invalid="ignore"):
        dmu_mag = np.where(u > 0.0, f * b * u ** (b - 1.0) / s, 0.0)
    g[:, 3] = np.where(x >= mu, dmu_mag, -dmu_mag)
    return g


def _start_values(x: np.ndarray, y: np.ndarray) -> SubbotinParams:
    """Data-driven starting point; only the scale start needs care."""
    from scipy.special import gamma

    smooth = np.convolve(y, np.ones(3) / 3.0, mode="same")
    mu0 = float(x[int(np.argmax(smooth))])
    peak = float(max(y.max(), 1e-6))
    half = peak / 2.0
    above = y >= half
    if above.any():
        hw = 0.5 * (x[above].max() - x[above].min())
    else:
        hw = 0.0
    if hw <= 0.0:
        hw = (x.max() - x.min()) / 4.0
    s0 = hw / np.sqrt(np.log(2.0))
    b0 = 2.0
    a0 = peak * 2.0 * s0 * gamma(1.0 / b0) / b0
    return SubbotinParams(a0, b0, s0, mu0)


def fit_rejection_curve(grid, rejection) -> SubbotinParams:
    """Fit the acceptance bump (one minus the rejection rate).

    Levenberg-damped Gauss-Newton on the four parameters with the
    analytic Jacobian, from data-driven start values.  Raises on
    non-convergence, carrying a hint that the scale start is the usual
    culprit.
    """
    x = np.asarray(grid, float)
    y = 1.0 - np.asarray(rejection, float)
    if len(x) < MIN_POINTS:
        raise ValidationError(f"need at least {MIN_POINTS} grid points, got {len(x)}")
    if x.ndim != 1 or x.shape != y.shape:
        raise ValidationError("grid and rejection must be equal-length vectors")
    order = np.argsort(x)
    x, y = x[order], y[order]
    theta = _start_values(x, y).as_array()
    lam = 1e-3
    sse = float(((y - subbotin_density(x, _params(theta))) ** 2).sum())
    converged = False
    for _ in range(_MAX_ITER):
        pc = _params(theta)
        r = y - subbotin_density(x, pc)
        J = subbotin_gradient(x, pc)
        if not np.isfinite(J).all():
            raise ConvergenceError("gradient blew up; try a different scale start")
        JtJ = J.T @ J
        gvec = J.T @ r
        if float(np.abs(gvec).max()) < 1e-12:
            converged = True
            break
        stepped = False
        for _ in range(60):
            A = JtJ + lam * np.diag(np.diag(JtJ).clip(min=1e-12))
            try:
                delta = np.linalg.solve(A, gvec)
            except np.linalg.LinAlgError:
                lam *= 4.0
                continue
            cand = theta + delta
            if cand[0] <= 0 or cand[1] <= 0 or cand[2] <= 0:
                lam *= 4.0
                continue
            cand_sse = float(((y - subbotin_density(x, _params(cand))) ** 2).sum())
            if cand_sse <= sse:
                rel_step = float(np.max(np.abs(delta) / (np.abs(theta) + 1e-12)))
                theta, sse = cand, cand_sse
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                if rel_step < 1e-10:
                    converged = True
                break
            lam *= 4.0
        if not stepped:
            converged = float(np.abs(gvec).max()) < 1e-8
            break
        if converged:
            break
    if not converged:
        raise ConvergenceError(
            f"exponential-power fit did not converge (last params {theta}); "
            "a too-low or too-high scale start is the usual cause"
        )
    pc = _params(theta)
    J = subbotin_gradient(x, pc)
    dof = max(len(x) - 4, 1)
    s2 = sse / dof
    try:
        cov = s2 * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = None
    return replace(pc, covariance=cov)


def _params(theta: np.ndarray) -> SubbotinParams:
    return SubbotinParams(float(theta[0]), float(theta[1]), float(theta[2]), float(theta[3]))


def pointwise_band(p: SubbotinParams, x) -> Tuple[np.ndarray, np.ndarray]:
    """Delta-method 95% confidence band of the fitted curve at x."""
    from statistics import NormalDist  # off the import path: it loads fractions and decimal
    if p.covariance is None:
        raise ValidationError("fit carries no parameter covariance")
    x = np.atleast_1d(np.asarray(x, float))
    g = subbotin_gradient(x, p)
    var = np.einsum("ij,jk,ik->i", g, p.covariance, g).clip(min=0.0)
    half = NormalDist().inv_cdf(0.5 + _BAND_LEVEL / 2.0) * np.sqrt(var)
    f = subbotin_density(x, p)
    return f - half, f + half


def _bisect(fn, lo: float, hi: float) -> float:
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoSolutionError("no sign change in bracket")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _bracket(fn, mu: float, scale: float, side: str):
    sgn = 1.0 if side == "above" else -1.0
    span = scale
    while span <= _BRACKET_SPAN * scale:
        edge = mu + sgn * span
        if fn(edge) < 0:
            lo, hi = (mu, edge) if side == "above" else (edge, mu)
            return lo, hi
        span *= 2.0
    raise NoSolutionError("target level not reached within the search span")


def invert_for_power(p: SubbotinParams, target_rejection: float = 0.2,
                     side: str = "above") -> PowerLevel:
    """Level at which the fitted rejection reaches the target power.

    Solves acceptance(x) = 1 - target_rejection on the requested side of
    the peak by bisection; the CI comes from inverting the pointwise
    band (calibration approach).
    """
    if side not in ("above", "below"):
        raise ValidationError("side must be 'above' or 'below'")
    target_acc = 1.0 - target_rejection
    peak = subbotin_density(p.location, p)
    if peak <= target_acc:
        raise NoSolutionError(
            f"peak acceptance {peak:.4f} never reaches the target {target_acc:.4f}"
        )
    mu, s = p.location, p.scale

    def centered(x):
        return subbotin_density(x, p) - target_acc

    lo, hi = _bracket(centered, mu, s, side)
    est = _bisect(centered, lo, hi)

    if p.covariance is None:
        return PowerLevel(est, est, est)

    bounds = [est]
    for edge in range(2):  # lower edge, then upper; ``band`` is called only in its own turn
        def band(x):
            return pointwise_band(p, x)[edge][0] - target_acc
        try:
            bounds.append(_bisect(band, *_bracket(band, mu, s, side)))
        except NoSolutionError:
            pass  # this edge never reaches the target; the estimate bounds that side
    return PowerLevel(est, min(bounds), max(bounds))


def type1_at_null(p: SubbotinParams, null_value: float = 1.0) -> Tuple[float, float, float]:
    """Fitted acceptance and band at the null level (reported untrimmed;
    the upper bound may exceed one)."""
    est = float(subbotin_density(null_value, p))
    if p.covariance is None:
        return est, est, est
    lo, hi = pointwise_band(p, null_value)
    return est, float(lo[0]), float(hi[0])
