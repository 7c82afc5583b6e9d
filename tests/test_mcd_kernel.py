"""The blocked MCD concentration step against the per-row-stack code it replaced.

``_candidate_dists``, ``_c_step`` and ``_mcd_search`` below are the MCD
search as it stood before its concentration steps ran over a flat list of
candidates in cache-sized blocks, frozen as the reference (with
``_subset_stats`` and ``_elemental_starts``, which it calls).  The blocked
kernel does the same arithmetic in the same order on every candidate, so
centers, scatters, determinants and exact-fit flags must be exactly equal.
"""

from itertools import combinations

import numpy as np
import pytest

import mcjoint as mj
from mcjoint import robustcov as rc
from mcjoint.dataset import round_significant
from mcjoint.rng import task_rng
from mcjoint.robustcov import _MCD_INITIAL_STEPS, _MCD_KEEP, _MCD_MAX_STEPS, _is_singular


# ---------------------------------------------------------------------------
# frozen reference
# ---------------------------------------------------------------------------

def _subset_stats(s0: np.ndarray, s1: np.ndarray):
    h = s0.shape[-1]
    mx = s0.sum(axis=-1) / h
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


def _candidate_dists(Z0, Z1, T, S, det):
    """Squared Mahalanobis distances of each row's points per candidate: (m, c, B)."""
    a = (S[..., 1, 1] / det)[..., None]
    b = (-2.0 * S[..., 0, 1] / det)[..., None]
    c = (S[..., 0, 0] / det)[..., None]
    D0 = Z0[:, None, :] - T[..., 0, None]
    D1 = Z1[:, None, :] - T[..., 1, None]
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


def _c_step(Z0, Z1, T, S, det, h: int):
    support = np.argpartition(_candidate_dists(Z0, Z1, T, S, det), h - 1, axis=-1)[..., :h]
    return _subset_stats(np.take_along_axis(Z0[:, None, :], support, axis=-1),
                         np.take_along_axis(Z1[:, None, :], support, axis=-1))


def _elemental_starts(B: int, seed: int, n_starts: int):
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


def _mcd_search(Z0, Z1, seed: int, n_starts: int, h: int, kept_masks=None, growths=None):
    """Raw MCD optimum of each row; ``kept_masks`` collects each kept step's
    activity mask of the running rows, and ``growths`` the (row, final size,
    exact) of each grown singular start (probes; they change nothing)."""
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

    starts, rng = _elemental_starts(B, seed, n_starts)
    after_starts = rng.bit_generator.state
    T, S, det = _subset_stats(Z0[:, starts], Z1[:, starts])
    grown = -1
    for r, j in zip(*np.nonzero(_is_singular(S))):
        if exact[r]:
            continue
        if r != grown:
            grown, rng.bit_generator.state = r, after_starts
        members = list(starts[j])
        while True:
            extra = int(rng.integers(0, B))
            if extra in members:
                continue
            members.append(extra)
            Ti, Si, di = _subset_stats(Z0[r, members][None], Z1[r, members][None])
            if not _is_singular(Si[0]):
                T[r, j], S[r, j], det[r, j] = Ti[0], Si[0], di[0]
                break
            if len(members) >= h:
                best_T[r], best_S[r], exact[r] = Ti[0], Si[0], True
                break
        if growths is not None:
            growths.append((r, len(members), bool(exact[r])))

    rows = np.flatnonzero(~exact)
    T, S, det = T[rows], S[rows], det[rows]
    for _ in range(_MCD_INITIAL_STEPS):
        T, S, det = _c_step(Z0[rows], Z1[rows], T, S, det, h)
        keep = ~finish_exact(rows, _is_singular(S), T, S)
        rows, T, S, det = rows[keep], T[keep], S[keep], det[keep]

    order = np.argsort(det, axis=1, kind="stable")[:, :_MCD_KEEP]
    T = np.take_along_axis(T, order[..., None], axis=1)
    S = np.take_along_axis(S, order[..., None, None], axis=1)
    det = np.take_along_axis(det, order, axis=1)
    active = np.ones(det.shape, dtype=bool)
    run = np.arange(len(rows))
    for _ in range(_MCD_MAX_STEPS):
        if run.size == 0:
            break
        T2, S2, det2 = _c_step(Z0[rows[run]], Z1[rows[run]], T[run], S[run], det[run], h)
        act = active[run]
        if kept_masks is not None:
            kept_masks.append(act.copy())
        done = finish_exact(rows[run], act & _is_singular(S2), T2, S2)
        improved = act & (det2 < det[run])
        T[run] = np.where(act[..., None], T2, T[run])
        S[run] = np.where(act[..., None, None], S2, S[run])
        det[run] = np.where(act, det2, det[run])
        active[run] = improved
        run = run[~done & improved.any(axis=1)]

    left = ~exact[rows]
    best = np.argmin(det[left], axis=1)
    best_T[rows[left]] = T[left, best]
    best_S[rows[left]] = S[left, best]
    best_det[rows[left]] = det[left, best]
    return best_T, best_S, best_det, exact


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def bootstrap_cloud(method, B, precision=None, data_seed=7):
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=precision, precision_y=precision,
                            seed=data_seed)
    return mj.bootstrap(mj.generate(spec), method, B=B, seed=5).pairs


def exact_fit_cloud():
    # 600 of 999 points on one line: more than h = 501 collinear points
    rng = np.random.default_rng(12)
    t = rng.uniform(3.0, 8.0, 600)
    return np.vstack([np.column_stack([t, 2.0 * t + 1.0]), rng.normal(5.0, 2.0, size=(399, 2))])


def late_exact_fit_cloud(seed):
    # h = 21 of 40 points on one line among wide noise; with seeds 11 and
    # 134 and 120 starts, the search reaches the line only in a kept step
    rng = np.random.default_rng(seed)
    t = rng.uniform(-3.0, 3.0, 21)
    noise = rng.normal(0.0, rng.choice([0.3, 1.0, 3.0]), size=(19, 2))
    return np.vstack([np.column_stack([t, 0.5 * t]), noise])[rng.permutation(40)]


def small_cloud():
    # B = 10 has 120 elemental 3-subsets, so every one of them is a start
    return np.random.default_rng(3).normal(size=(10, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]])


CLOUDS = {
    "all-starts-B10": small_cloud,
    "continuous-B999": lambda: bootstrap_cloud("dem", 999),
    "continuous-B2000": lambda: bootstrap_cloud("dem", 2000),
    "tied-paba-B999": lambda: bootstrap_cloud("paba", 999, precision=2),
    "tied-paba-exact-fit": lambda: bootstrap_cloud("paba", 999, precision=2, data_seed=8),
    "exact-fit": exact_fit_cloud,
    "late-exact-fit": lambda: late_exact_fit_cloud(11),
}


def mmdem_rows():
    """Continuous and tied bootstrap rows of an n=40 sample, two rows whose
    search reaches an exact fit in a kept step, and one collinear row."""
    rng = np.random.default_rng(1)
    x = rng.uniform(3.0, 8.0, 40)
    y = x + rng.normal(0.0, 0.12, 40)
    idx = rng.integers(0, 40, (18, 40))
    late = [late_exact_fit_cloud(seed) for seed in (11, 134)]
    X = np.vstack([x[idx[:9]], late[0][:, 0], round_significant(x, 2)[idx[9:]], late[1][:, 0],
                   np.linspace(3.0, 8.0, 40)])
    Y = np.vstack([y[idx[:9]], late[0][:, 1], round_significant(y, 2)[idx[9:]], late[1][:, 1],
                   np.linspace(3.0, 8.0, 40) * 2.0])
    return X, Y


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(CLOUDS))
def test_mcd_search_matches_reference(name):
    cloud = CLOUDS[name]()
    Z0, Z1 = cloud[None, :, 0], cloud[None, :, 1]
    B = len(cloud)
    h = (B + 3) // 2
    n_starts = rc._S_MCD_STARTS if name == "late-exact-fit" else rc._MCD_STARTS
    for seed in (0, 5):
        masks = []
        want = _mcd_search(Z0, Z1, seed, n_starts, h, masks)
        assert_same_bits(rc._mcd_search(Z0, Z1, seed, n_starts, h, rc._c_step_buffers(B, h)), want)
        if name.startswith("continuous"):
            # some kept candidates stop improving while others go on
            assert any(mask.any() and not mask.all() for mask in masks)
        if name == "late-exact-fit" and seed == 0:
            assert masks and want[3][0]
    starts, _ = _elemental_starts(B, 0, n_starts)
    if name == "all-starts-B10":
        assert len(starts) == 120
    if name.startswith("tied"):
        _, S, _ = _subset_stats(Z0[:, starts], Z1[:, starts])
        assert _is_singular(S).any()
    assert want[3][0] == name.endswith("exact-fit")


def test_mcd_rows_matches_reference_across_blocks():
    # 21 rows of n=40 with 120 starts: two row blocks, the second one
    # short; inside each, the candidates of a full block fill kernel blocks
    # of 819 and part of the next, so kernel blocks mix rows
    X, Y = mmdem_rows()
    B = X.shape[1]
    h = (B + 3) // 2
    k, per_block = rc._BLOCK_ELEMS // B, rc._MCD_BLOCK * rc._S_MCD_STARTS
    assert k < per_block and per_block % k != 0
    want = [_mcd_search(X[lo:lo + rc._MCD_BLOCK], Y[lo:lo + rc._MCD_BLOCK], 0, rc._S_MCD_STARTS, h)
            for lo in range(0, len(X), rc._MCD_BLOCK)]
    T, S, raw_det, exact = (np.concatenate(part) for part in zip(*want))
    assert exact.any() and not exact.all()
    got = rc.mcd_rows(X, Y, seed=0, n_starts=rc._S_MCD_STARTS)
    assert_same_bits(got[:5], rc._finish_mcd(X, Y, T, S, raw_det, exact, h)[:5])
    # all rows in one search: the same bits per row
    assert_same_bits(rc._mcd_search(X, Y, 0, rc._S_MCD_STARTS, h, rc._c_step_buffers(B, h)),
                     (T, S, raw_det, exact))


@pytest.mark.parametrize("B", [40, 999])
def test_c_step_matches_reference_on_shuffled_candidates(B):
    # candidates of several rows in no particular order, and a count that
    # is not a multiple of the kernel's block
    rng = np.random.default_rng(B)
    m = 7
    Z0 = rng.normal(size=(m, B))
    Z1 = 0.5 * Z0 + rng.normal(size=(m, B))
    h = (B + 3) // 2
    starts, _ = _elemental_starts(B, 0, 120)
    T, S, det = _subset_stats(Z0[:, starts], Z1[:, starts])  # (m, 120)
    want = _c_step(Z0, Z1, T, S, det, h)
    r, j = np.nonzero(np.ones(det.shape, dtype=bool))
    perm = rng.permutation(len(r))[:len(r) - 3]
    r, j = r[perm], j[perm]
    assert len(r) % max(1, rc._BLOCK_ELEMS // B) != 0
    got = rc._c_step(Z0, Z1, r, T[r, j], S[r, j], det[r, j], h, rc._c_step_buffers(B, h))
    assert_same_bits(got, tuple(w[r, j] for w in want))


# ---------------------------------------------------------------------------
# singular starts, grown in lockstep over rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("B", [10, 39, 40, 999, 2000])
def test_array_draws_equal_scalar_draws(B):
    # every row's growth reads one shared sequence drawn in arrays and
    # extended on demand; the frozen reference draws it one scalar at a time
    for seed in range(3):
        rng = task_rng(seed)
        state = rng.bit_generator.state
        arrays = rng.integers(0, B, size=37).tolist() + rng.integers(0, B, size=64).tolist()
        rng.bit_generator.state = state
        assert arrays == [int(rng.integers(0, B)) for _ in range(101)]


def tied_mmdem_rows(m):
    """m bootstrap rows (after the full sample) of a 2-significant-digit n=40 sample."""
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2, seed=4)
    s = mj.generate(spec)
    idx = np.vstack([np.arange(40), np.random.default_rng(2).integers(0, 40, (m - 1, 40))])
    return s.x[idx], s.y[idx]


def collinear_growth_rows():
    """Rows of n=40 with 38 points on a line: their singular starts grow to
    h = 21 collinear points (an exact fit) before the concentration steps."""
    rng = np.random.default_rng(6)
    X, Y = [], []
    for _ in range(3):
        t = rng.uniform(3.0, 8.0, 40)
        u = 0.5 * t + 1.0
        u[rng.choice(40, 2, replace=False)] += rng.normal(0.0, 1.0, 2)
        X.append(t)
        Y.append(u)
    return np.array(X), np.array(Y)


def search_both(X, Y, seed=0, n_starts=rc._S_MCD_STARTS):
    B = X.shape[1]
    h = (B + 3) // 2
    grown = []
    want = _mcd_search(X, Y, seed, n_starts, h, growths=grown)
    assert_same_bits(rc._mcd_search(X, Y, seed, n_starts, h, rc._c_step_buffers(B, h)), want)
    return want, grown, h


def test_lockstep_growth_matches_reference_on_tied_rows():
    # a row count that is not a multiple of the row block
    m = 2 * rc._MCD_BLOCK + 5
    X, Y = tied_mmdem_rows(m)
    assert m % rc._MCD_BLOCK
    want, grown, _ = search_both(X, Y)
    # many singular starts in every row, some needing several extra points
    assert {r for r, _, _ in grown} == set(range(m))
    assert max(size for _, size, _ in grown) >= 7
    assert sum(size > 4 for _, size, _ in grown) > m


def test_lockstep_growth_reaches_an_exact_fit():
    (X, Y), (Xt, Yt) = collinear_growth_rows(), tied_mmdem_rows(4)
    want, grown, h = search_both(np.vstack([X, Xt]), np.vstack([Y, Yt]))
    grown_exact = {r for r, size, exact in grown if exact and size == h}
    assert grown_exact == {0, 1, 2}
    assert want[3][:3].all() and not want[3][3:].any()


def test_mcd_rows_equals_one_row_calls():
    (Xt, Yt), (Xc, Yc) = tied_mmdem_rows(rc._MCD_BLOCK + 3), collinear_growth_rows()
    X, Y = np.vstack([Xt, Xc]), np.vstack([Yt, Yc])
    got = rc.mcd_rows(X, Y, seed=0, n_starts=rc._S_MCD_STARTS)
    rows = [rc.mcd_rows(X[i:i + 1], Y[i:i + 1], seed=0, n_starts=rc._S_MCD_STARTS)
            for i in range(len(X))]
    assert_same_bits(got[:5], [np.concatenate(part) for part in zip(*(r[:5] for r in rows))])
    assert got.singular.any() and not got.singular.all()
