"""The safeguarded Newton M-scale against the multiplicative fixed point it replaced.

``_m_scale_fixed_point`` is the old solver of one row, kept as an oracle.
Where the fixed point contracts fast, both solve mean rho(d/s) = b0 to
within their stop rule.  Where it contracts so slowly that 200 steps do
not settle it (rows near breakdown, q/v <= 1/4 at the root), the
safeguard keeps the Newton solver on the same fixed-point steps, so those
rows still fail as unsettled.
"""

import math

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import robustcov as rc
from mcjoint import simulation


def _m_scale_fixed_point(d: np.ndarray, rho, b0: float, s: float):
    """s <- s sqrt(mean rho(d/s) / b0) until the step is 1e-12 relative; None after 200 steps."""
    for _ in range(200):
        s_new = s * math.sqrt(float(np.mean(rho(d / s))) / b0)
        if abs(s_new - s) <= 1e-12 * s:
            return s_new
        s = s_new
    return None


@pytest.fixture(scope="module")
def hemoglobin_solves():
    """Every row's M-scale solve in both S-estimators on 60 hemoglobin bootstrap rows.

    Each is (d, rho_upsi, b0, starting s, solved s, failure code).
    """
    s = mj.load_hemoglobin()
    idx = np.random.default_rng(2).integers(0, len(s.x), (60, len(s.x)))
    X, Y = s.x[idx], s.y[idx]
    start = rc.s_start(X, Y)
    solves = []
    m_scale = rc._m_scale

    def record(d, rho_upsi, b0, s_init):
        s_out, code = m_scale(d, rho_upsi, b0, s_init)
        solves.extend((d[i], rho_upsi, b0, s_init[i], s_out[i], code[i]) for i in range(len(d)))
        return s_out, code

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "_m_scale", record)
        for est in (rc.S_BISQUARE, rc.S_ROCKE):
            rc.s_rows(X, Y, start, est)
    return [(solve, _m_scale_fixed_point(solve[0], lambda u, f=solve[1]: f(u)[0], *solve[2:4]))
            for solve in solves]


def test_newton_lands_on_the_fixed_point_where_it_contracts_fast(hemoglobin_solves):
    checked = 0
    for (d, rho_upsi, b0, _, got, code), want in hemoglobin_solves:
        if want is None:
            continue
        rho, upsi = rho_upsi(d / want)
        # the fixed point contracts by 1 - q/(2v) per step: at most 3/4 here
        if upsi.mean() >= 0.5 * rho.mean():
            assert code == 0 and abs(got - want) <= 1e-11 * want, (got, want)
            checked += 1
    assert checked > 0.75 * len(hemoglobin_solves)  # 1286 of 1597


def test_rows_the_fixed_point_cannot_settle_stay_unsettled(hemoglobin_solves):
    stalled = [want is None for _, want in hemoglobin_solves]
    unsettled = [solve[-1] == rc._UNSETTLED for solve, _ in hemoglobin_solves]
    assert unsettled == stalled
    # 4 rows of the bisquare and 6 of the Rocke S-estimator
    assert sum(stalled) == 10


def test_mc_mmdem_replicates_take_few_m_scale_steps(monkeypatch):
    # 6.6 steps per call; the fixed point took 27.2 on these replicates
    steps = []
    m_scale = rc._m_scale

    def counting(d, rho_upsi, *rest):
        steps.append(0)

        def step(u):
            steps[-1] += 1
            return rho_upsi(u)

        return m_scale(d, step, *rest)

    monkeypatch.setattr(rc, "_m_scale", counting)
    plan = mj.SimulationPlan(generator=mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40),
                             methods=("mmdem",), cov_methods=("classic",), replicates=200, B=199,
                             master_seed=0)
    for ri in range(4):
        simulation.evaluate_replicate(plan, 0, ri)
    assert np.mean(steps) <= 8
