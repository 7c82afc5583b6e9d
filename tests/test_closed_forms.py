"""Closed-form distributions and literal S-estimator constants against scipy."""

import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.stats import chi2, norm

from mcjoint.robustcov import (
    _BISQUARE_S_CONSTANTS,
    _ROCKE_CONSTANTS,
    _chi2_2_ppf,
    _chi2_2_sf,
    _chi2_4_cdf,
    _rho_translated,
    _rho_upsi_bisquare,
)

SRC = Path(__file__).resolve().parents[1] / "src"
LEVELS = np.concatenate([[1e-9, 1e-6, 1e-4], np.linspace(0.001, 0.999, 999), [1 - 1e-6]])


def test_chi2_2_sf_matches_scipy():
    for x in np.concatenate([np.linspace(0.0, 60.0, 601), [1e-9, 1e-3, 200.0]]):
        assert _chi2_2_sf(x) == pytest.approx(chi2.sf(x, 2), rel=1e-12, abs=0.0)


def test_chi2_2_sf_is_one_below_zero():
    # a rounding-level negative distance must not give p > 1
    assert _chi2_2_sf(-1e-15) == 1.0


def test_chi2_2_ppf_matches_scipy():
    for q in LEVELS:
        assert _chi2_2_ppf(q) == pytest.approx(chi2.ppf(q, 2), rel=1e-12, abs=0.0)


def test_chi2_4_cdf_matches_scipy():
    # the MCD consistency factors evaluate it at x >= ppf(0.5) = 1.386; below
    # x = 0.5 the subtraction loses relative accuracy
    for x in np.linspace(0.5, 60.0, 600):
        assert _chi2_4_cdf(x) == pytest.approx(chi2.cdf(x, 4), rel=1e-12, abs=0.0)


def test_normal_ppf_matches_scipy():
    n = NormalDist()
    for q in LEVELS:
        if q != 0.5:
            assert n.inv_cdf(q) == pytest.approx(norm.ppf(q), rel=1e-12, abs=0.0)
    assert n.inv_cdf(0.5) == norm.ppf(0.5) == 0.0


def test_normal_cdf_matches_scipy():
    # relative accuracy holds down to z = -4; further out 1 + erf(z) leaves
    # only absolute accuracy, which is what the BCa quantile levels need
    n = NormalDist()
    for z in np.linspace(-4.0, 8.0, 1201):
        assert n.cdf(z) == pytest.approx(norm.cdf(z), rel=1e-12, abs=0.0)
    for z in np.linspace(-12.0, -4.0, 81):
        assert abs(n.cdf(z) - norm.cdf(z)) <= 1e-16


# -- S-estimator constants, recomputed by quadrature and root finding ---------

def _rayleigh_expect(fn) -> float:
    """E[fn(|z|)] for bivariate standard normal z."""
    val, _ = integrate.quad(lambda r: fn(r) * r * np.exp(-r * r / 2.0), 0.0, np.inf)
    return val


def _rho_bisquare(u: np.ndarray, c: float) -> np.ndarray:
    return _rho_upsi_bisquare(np.abs(u), c)[0]


def _solve_bisquare(bdp=0.5):
    def gap(c):
        return _rayleigh_expect(lambda r: _rho_bisquare(np.asarray(r), c)) - bdp * c * c / 6.0

    c = optimize.brentq(gap, 0.5, 20.0, xtol=1e-12)
    return c, bdp * c * c / 6.0


def _solve_rocke(bdp=0.45, arp=0.05):
    reach = math.sqrt(chi2.ppf(1.0 - arp, 2))

    def rho_max(M, c):
        return M * M / 2.0 + c * c / 6.0 + 8.0 * M * c / 15.0

    def gap(M):
        c = reach - M
        return _rayleigh_expect(lambda r: _rho_translated(np.asarray(r), M, c)) - bdp * rho_max(M, c)

    M = optimize.brentq(gap, 1e-6, reach - 1e-6, xtol=1e-12)
    c = reach - M
    return M, c, bdp * rho_max(M, c)


def test_bisquare_s_constants_match_solver():
    np.testing.assert_allclose(_BISQUARE_S_CONSTANTS, _solve_bisquare(), rtol=1e-10, atol=0.0)


def test_rocke_constants_match_solver():
    np.testing.assert_allclose(_ROCKE_CONSTANTS, _solve_rocke(), rtol=1e-10, atol=0.0)


# -- import footprint ---------------------------------------------------------

# modules that only the SVG title escape (xml.sax, which pulls in urllib,
# http, email, ssl and socket), a process pool, the normal distribution of
# the BCa interval and the power band (statistics, which pulls in fractions
# and decimal), or the plan-file reader (configparser) would load
_OFF_IMPORT_PATH = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket",
                    "multiprocessing", "concurrent.futures", "statistics", "fractions", "decimal",
                    "configparser")

# after the import, fit-power on a nine-point acceptance bump, which takes
# the gamma function and digamma in its fit
_FIT_POWER = """
import contextlib, csv, io, math, tempfile
from pathlib import Path
from mcjoint.simulation import CurvePoint, write_curve_csv
with tempfile.TemporaryDirectory() as tmp:
    grid = [0.96 + 0.01 * i for i in range(9)]
    rates = [1.0 - 0.95 * math.exp(-abs((g - 1.0) / 0.02) ** 2.5) for g in grid]
    write_curve_csv([CurvePoint("dem", "je", "classic", 0.05, g, r, 0.01, 100, 0, 100)
                     for g, r in zip(grid, rates)], Path(tmp) / "curve.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = mcjoint.cli.main(["fit-power", "--curves", str(Path(tmp) / "curve.csv"),
                               "--out", str(Path(tmp) / "fit")])
    row, = csv.DictReader((Path(tmp) / "fit" / "power_table.csv").read_text().splitlines())
    assert rc == 0 and row["note"] == "" and float(row["p80_est"]) > 1.0, (rc, row)
"""


def test_import_loads_no_scipy():
    code = ("import sys, mcjoint, mcjoint.cli\n"
            f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') "
            f"for p in {_OFF_IMPORT_PATH!r})))\n"
            + _FIT_POWER
            + "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    off_path, scipy_modules = out.stdout.splitlines()
    assert off_path == "[]"
    assert scipy_modules == "[]"


# every validate method x covariance on hemoglobin and on a 2-significant-digit
# sample (whose MCD starts grow through singular subsets), then one replicate of
# each benchmark plan kind: continuous, tied, and MMDem
_RUN_EVERY_PATH = """
import contextlib, io, sys, tempfile
from dataclasses import replace
from pathlib import Path
import mcjoint as mj
from mcjoint import cli
from mcjoint.estimators import METHODS
from mcjoint.robustcov import COV_METHODS
from mcjoint.simulation import SimulationPlan, evaluate_replicate

gen = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40)
tied = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2)
with tempfile.TemporaryDirectory() as tmp:
    s = mj.generate(replace(tied, seed=(0, 1)))
    csv = Path(tmp) / "tied.csv"
    csv.write_text("reference,test\\n"
                   + "".join(f"{a!r},{b!r}\\n" for a, b in zip(s.x.tolist(), s.y.tolist())))
    quiet = io.StringIO()
    for src in (mj.dataset.hemoglobin_path(), csv):
        for method in METHODS:
            for cov in COV_METHODS:
                with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                    cli.main(["validate", "--input", str(src), "--method", method, "--cov", cov,
                              "--b", "199", "--out", str(Path(tmp) / "out")])
four = dict(methods=("dem", "wdem", "mdem", "paba"), cov_methods=("classic", "mcd", "sde"), B=999)
for plan in (SimulationPlan(generator=gen, **four), SimulationPlan(generator=tied, **four),
             SimulationPlan(generator=gen, methods=("mmdem",), cov_methods=("classic",), B=199)):
    evaluate_replicate(plan, 0, 0)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_validate_and_replicates_load_no_numpy_ma():
    # np.quantile and np.unique load numpy.ma, which nothing here uses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _RUN_EVERY_PATH], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.splitlines() == ["[]"]
