"""Exponential-power fitting: density identities, gradients, calibration."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma
from scipy.stats import norm

import mcjoint as mj
from mcjoint.powerfit import (
    PowerLevel,
    _digamma,
    SubbotinParams,
    fit_rejection_curve,
    invert_for_power,
    pointwise_band,
    subbotin_density,
    subbotin_gradient,
    type1_at_null,
)


def params(a=1.0, b=2.0, s=1.0, mu=0.0, **kw):
    return SubbotinParams(amplitude=a, shape=b, scale=s, location=mu, **kw)


def test_density_peak_value():
    p = params(a=0.9, b=3.0, s=0.5, mu=1.0)
    expected = 0.9 * 3.0 / (2.0 * 0.5 * math.gamma(1.0 / 3.0))
    assert subbotin_density(1.0, p) == pytest.approx(expected, rel=1e-14)


def test_density_gaussian_reduction():
    # shape 2 with scale sqrt(2) and unit amplitude is the standard normal
    p = params(a=1.0, b=2.0, s=math.sqrt(2.0), mu=0.0)
    assert subbotin_density(0.0, p) == pytest.approx(0.3989422804014327, rel=1e-12)
    for x in (-2.0, -0.7, 0.3, 1.9):
        assert subbotin_density(x, p) == pytest.approx(norm.pdf(x), rel=1e-12)


def test_density_symmetry():
    p = params(a=2.0, b=3.7, s=0.8, mu=0.4)
    for t in (0.1, 0.5, 2.0, 7.0):
        assert subbotin_density(p.location + t, p) == subbotin_density(p.location - t, p)


def test_density_integrates_to_amplitude():
    for a, b, s, mu in ((1.0, 2.0, 1.0, 0.0), (0.7, 3.5, 0.4, 1.0), (2.0, 1.2, 2.0, -3.0)):
        p = params(a=a, b=b, s=s, mu=mu)
        val, _ = quad(lambda x: subbotin_density(x, p), -np.inf, np.inf)
        assert val == pytest.approx(a, abs=1e-6)


def test_digamma_matches_scipy():
    # both sides of the switch to the series at 10, and the root near 1.4616
    xs = np.concatenate([np.geomspace(1e-3, 1e6, 2001), np.linspace(9.99, 10.01, 101),
                         np.linspace(1.45, 1.48, 61), [1.4616321449683623]])
    for x in xs:
        want = digamma(x)
        assert abs(_digamma(float(x)) - want) <= 1e-13 * max(1.0, abs(want)), x


def test_tiny_shape_gives_zero_density_and_gradient():
    # Gamma(1 / 0.005) overflows a float: the curve is 0 there, not an OverflowError
    p = params(a=1.0, b=0.005, s=1.0, mu=0.0)
    xs = np.linspace(-2.0, 2.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (subbotin_density(xs, p) == 0.0).all()
        assert (subbotin_gradient(xs, p) == 0.0).all()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = params(a=0.95, b=2.6, s=0.04, mu=1.0)
    xs = p.location + rng.uniform(-4, 4, 100) * p.scale
    xs = xs[xs != p.location]
    h = 1e-6
    g = subbotin_gradient(xs, p)
    theta = p.as_array()
    for k in range(4):
        dp = theta.copy()
        dm = theta.copy()
        step = h * max(abs(theta[k]), 1.0)
        dp[k] += step
        dm[k] -= step
        fp = subbotin_density(xs, SubbotinParams(*dp))
        fm = subbotin_density(xs, SubbotinParams(*dm))
        fd = (fp - fm) / (2 * step)
        np.testing.assert_allclose(g[:, k], fd, rtol=1e-4, atol=1e-10)


def test_gradient_limit_at_peak():
    p = params(a=0.9, b=2.4, s=0.05, mu=1.0)
    g_at_mu = subbotin_gradient(np.array([p.location]), p)[0]
    # one-sided finite difference from above must approach the limit
    eps = 1e-9 * p.scale
    g_near = subbotin_gradient(np.array([p.location + eps]), p)[0]
    np.testing.assert_allclose(g_at_mu, g_near, rtol=1e-4, atol=1e-8)
    assert g_at_mu[3] == 0.0  # location gradient limit vanishes for shape > 1


@pytest.mark.parametrize("shape", [0.6, 1.0])
def test_gradient_at_a_cusp_peak_is_finite_and_zero_in_location(shape):
    # at shape <= 1 the one-sided location limits are +-f/s or +-inf; their mean is 0
    p = params(a=0.9, b=shape, s=0.05, mu=1.0)
    g = subbotin_gradient(np.array([0.95, 1.0, 1.05]), p)
    assert np.isfinite(g).all()
    assert g[1, 3] == 0.0
    assert g[0, 3] == -g[2, 3] != 0.0


@pytest.mark.parametrize("k", range(9, 14))
@pytest.mark.parametrize("lo, hi", [(0.88, 1.12), (0.9, 1.1)])
def test_fit_recovers_exact_curves_whatever_grid_holds_the_peak(lo, hi, k):
    # the start location is a grid value; on an odd grid it is the peak itself
    true = params(a=0.084, b=2.0, s=0.05, mu=1.0)
    x = np.linspace(lo, hi, k)
    fit = fit_rejection_curve(x, 1.0 - subbotin_density(x, true))
    np.testing.assert_allclose(fit.as_array(), true.as_array(), rtol=1e-6)


def test_fit_from_a_start_location_on_the_grid():
    from mcjoint.powerfit import _start_values

    true = params(a=0.084, b=2.0, s=0.05, mu=1.0)
    x = np.linspace(0.88, 1.12, 11)
    acc = subbotin_density(x, true)
    start = _start_values(x, acc)
    assert start.location == 1.0 and start.location in x
    # at this start a damped step takes the shape below 1 while the location stays put
    fit = fit_rejection_curve(x, 1.0 - acc)
    assert fit.location == pytest.approx(1.0, abs=1e-12)
    assert fit.shape == pytest.approx(2.0, rel=1e-6)


def synthetic_curve(p, noise=0.0, n=13, span=4.0, seed=0):
    x = p.location + np.linspace(-span, span, n) * p.scale
    acc = subbotin_density(x, p)
    if noise:
        acc = np.clip(acc + np.random.default_rng(seed).normal(0, noise, n), 0.0, 1.0)
    return x, 1.0 - acc


def test_fit_recovers_noisefree_parameters():
    true = params(a=0.93 * 2 * 0.05 * math.gamma(0.5) / 2, b=2.0, s=0.05, mu=1.0)
    x, rej = synthetic_curve(true, n=15)
    fit = fit_rejection_curve(x, rej)
    assert fit.location == pytest.approx(true.location, abs=1e-6)
    assert fit.shape == pytest.approx(true.shape, rel=1e-4)
    assert fit.scale == pytest.approx(true.scale, rel=1e-4)
    assert fit.amplitude == pytest.approx(true.amplitude, rel=1e-4)


def test_fit_recovers_within_three_se_under_noise():
    true = params(a=0.05, b=2.8, s=0.06, mu=1.0)
    x, rej = synthetic_curve(true, noise=0.01, n=15, seed=5)
    fit = fit_rejection_curve(x, rej)
    assert fit.covariance is not None
    se = np.sqrt(np.diag(fit.covariance))
    for est, tru, s in zip(fit.as_array(), true.as_array(), se):
        assert abs(est - tru) <= 3.5 * max(s, 1e-9)


def test_fit_requires_eight_points():
    x = np.linspace(0.9, 1.1, 7)
    with pytest.raises(mj.ValidationError, match="8"):
        fit_rejection_curve(x, np.zeros(7))


def test_fit_residual_signs_have_no_long_runs():
    true = params(a=0.05, b=2.5, s=0.05, mu=1.0)
    x, rej = synthetic_curve(true, noise=0.008, n=13, seed=11)
    fit = fit_rejection_curve(x, rej)
    resid = (1.0 - rej) - subbotin_density(x, fit)
    signs = np.sign(resid[resid != 0])
    longest = max(len(list(run)) for run in _runs(signs))
    # P(a run of 7+ among 13 signs) is far below 5% for structureless noise
    assert longest <= 6


def _runs(signs):
    start = 0
    for i in range(1, len(signs) + 1):
        if i == len(signs) or signs[i] != signs[start]:
            yield signs[start:i]
            start = i


def test_beta2_fit_matches_gaussian_least_squares():
    # with shape fixed at 2 the model is a scaled Gaussian bump; compare
    # the converged SSE against an independent Gaussian-bump fit
    from scipy.optimize import curve_fit

    true = params(a=0.05, b=2.0, s=0.06, mu=1.0)
    x, rej = synthetic_curve(true, noise=0.004, n=15, seed=21)
    acc = 1.0 - rej
    fit = fit_rejection_curve(x, rej)

    def gauss(x, A, s, mu):
        return A * np.exp(-((x - mu) / s) ** 2)

    popt, _ = curve_fit(gauss, x, acc, p0=[acc.max(), 0.06, 1.0])
    sse_gauss = float(((acc - gauss(x, *popt)) ** 2).sum())
    sse_fit = float(((acc - subbotin_density(x, fit)) ** 2).sum())
    # the exponential-power family nests the Gaussian, so its SSE can
    # only be lower (up to optimizer tolerance)
    assert sse_fit <= sse_gauss + 1e-8


# -- inversion ----------------------------------------------------------------

def fitted_synthetic(peak=0.95, b=2.5, s=0.05, mu=1.0, noise=0.0, seed=0):
    a = peak * 2 * s * math.gamma(1 / b) / b
    true = params(a=a, b=b, s=s, mu=mu)
    x, rej = synthetic_curve(true, noise=noise, n=15, seed=seed)
    return fit_rejection_curve(x, rej)


def test_invert_symmetric_sides_equidistant():
    fit = fitted_synthetic()
    above = invert_for_power(fit, 0.2, side="above")
    below = invert_for_power(fit, 0.2, side="below")
    assert (above.estimate - fit.location) == pytest.approx(
        fit.location - below.estimate, rel=1e-9)


def test_invert_idempotent_on_noisefree_curve():
    fit = fitted_synthetic(peak=0.96, b=2.2, s=0.04)
    lvl = invert_for_power(fit, 0.2, side="above")
    assert subbotin_density(lvl.estimate, fit) == pytest.approx(0.8, abs=1e-9)
    assert lvl.lci <= lvl.estimate <= lvl.uci


def test_invert_unreachable_target():
    fit = fitted_synthetic(peak=0.10)
    with pytest.raises(mj.NoSolutionError):
        invert_for_power(fit, target_rejection=0.2)


def test_invert_band_ordering_with_noise():
    fit = fitted_synthetic(peak=0.95, noise=0.01, seed=9)
    lvl = invert_for_power(fit, 0.2, side="above")
    assert lvl.lci < lvl.estimate < lvl.uci
    lo, hi = pointwise_band(fit, lvl.estimate)
    assert lo[0] < 0.8 < hi[0]


def test_type1_at_null_perfect_acceptance():
    fit = fitted_synthetic(peak=0.9999999)
    est, lo, hi = type1_at_null(fit, null_value=fit.location)
    assert est == pytest.approx(1.0, abs=1e-3)


def test_type1_at_null_band_may_exceed_one():
    fit = fitted_synthetic(peak=0.99, noise=0.01, seed=4)
    est, lo, hi = type1_at_null(fit, null_value=1.0)
    assert lo <= est <= hi
    # the band is reported untrimmed even when it passes 1


def test_power_level_invariant():
    with pytest.raises(mj.ValidationError):
        PowerLevel(estimate=1.0, lci=1.1, uci=1.2)
