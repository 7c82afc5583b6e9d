"""The blocked MCD concentration step and the guessed growth against the code they replaced.

``_candidate_dists``, ``_c_step``, ``_grow`` and ``_mcd_search`` below are
the MCD search as it stood before its concentration steps ran over a flat
list of candidates in cache-sized blocks, and before its singular starts
grew on guessed decisions, frozen as the reference (with ``_subset_stats``
and ``_elemental_starts``, which it calls).  The blocked kernel does the
same arithmetic in the same order on every candidate, and the growth takes
every decision and every stored stat from the reference's test, so
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


def _grow(Z0, Z1, starts, rng, h: int, T, S, det, best_T, best_S, exact, growths=None):
    """Grow each row's singular starts one point and one subset at a time,
    each row drawing from ``rng`` as it stands after the starts."""
    B = Z0.shape[1]
    after_starts = rng.bit_generator.state
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
    T, S, det = _subset_stats(Z0[:, starts], Z1[:, starts])
    _grow(Z0, Z1, starts, rng, h, T, S, det, best_T, best_S, exact, growths)

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
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def assert_same_search(got, want):
    """``robustcov._mcd_search``'s (T, S, det) equal the reference's, and its
    singular scatters are the reference's exact fits."""
    assert_same_bits(got, want[:3])
    assert np.array_equal(_is_singular(got[1]), want[3])


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


def ties_paba_cloud(master_seed, ri):
    """The PaBa cloud of mc-ties replicate ``ri`` (n=40 at 2 significant digits, B=999)."""
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2,
                            seed=(master_seed, 0, 0, ri))
    return mj.bootstrap(mj.generate(spec), "paba", B=999, seed=(master_seed, 1, 0, ri, 3)).pairs


def mc_ties_mcd_seed(master_seed):
    """The seed of the JE test's MCD in an mc-ties replicate."""
    return master_seed + 7919 + 1


CLOUDS = {
    "all-starts-B10": small_cloud,
    "continuous-B999": lambda: bootstrap_cloud("dem", 999),
    "continuous-B2000": lambda: bootstrap_cloud("dem", 2000),
    "tied-paba-B999": lambda: bootstrap_cloud("paba", 999, precision=2),
    "tied-paba-exact-fit": lambda: bootstrap_cloud("paba", 999, precision=2, data_seed=8),
    "exact-fit": exact_fit_cloud,
    "late-exact-fit": lambda: late_exact_fit_cloud(11),
    # 753 of its 999 points lie within 1e-12 of (0, 1), PaBa fits of (0, 1)
    # up to rounding: 572 copies of one point, the rest a few 1e-15 from it
    "near-duplicate-exact-fit": lambda: ties_paba_cloud(0, 2),
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

def count_guesses(monkeypatch) -> list:
    """A list that gets one entry per call of ``robustcov._guess_singular``,
    whose verdicts stay as they are."""
    calls, guess = [], rc._guess_singular
    monkeypatch.setattr(rc, "_guess_singular", lambda *moments: calls.append(None) or guess(*moments))
    return calls


@pytest.mark.parametrize("name", list(CLOUDS))
def test_mcd_search_matches_reference(name, monkeypatch):
    cloud = CLOUDS[name]()
    Z0, Z1 = cloud[None, :, 0], cloud[None, :, 1]
    B = len(cloud)
    h = (B + 3) // 2
    n_starts = rc._S_MCD_STARTS if name == "late-exact-fit" else rc._MCD_STARTS
    near = name == "near-duplicate-exact-fit"
    for seed in (0, 5, mc_ties_mcd_seed(0)) if near else (0, 5):
        masks, grown = [], []
        want = _mcd_search(Z0, Z1, seed, n_starts, h, masks, grown)
        assert_same_search(rc._mcd_search(Z0, Z1, seed, n_starts, h, rc._c_step_buffers(B, h)), want)
        if near:
            # subsets of points a few 1e-15 apart pass the exact test as
            # regular, on moments that are rounding noise; guessed from such
            # moments (no spread guard), the guess is wrong, and growth
            # regrows each contradicted row on exact decisions to the same
            # result
            with monkeypatch.context() as patch:
                patch.setattr(rc, "_GUESS_SPREAD", 0.0)
                calls = count_guesses(patch)
                got = rc._mcd_search(Z0, Z1, seed, n_starts, h, rc._c_step_buffers(B, h))
            assert_same_search(got, want)
            assert len(calls) > sum(size - 3 for _, size, _ in grown)
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


def rows_per_search(B, n_starts):
    """Rows one ``_mcd_search`` block takes: rows x starts within ``_BLOCK_ELEMS``."""
    return max(1, rc._BLOCK_ELEMS // len(_elemental_starts(B, 0, n_starts)[0]))


def hemoglobin_rows(m, seed=3):
    """The full hemoglobin sample and m - 1 of its bootstrap rows (n=20)."""
    s = mj.load_hemoglobin()
    idx = np.vstack([np.arange(len(s.x)), np.random.default_rng(seed).integers(0, len(s.x), (m - 1, len(s.x)))])
    return s.x[idx], s.y[idx]


def test_mcd_rows_matches_reference_across_blocks():
    # rows of n=20 take all 1,140 elemental starts, so a search takes 28
    # rows; 61 rows are three row blocks, the last one short, and the
    # candidates of a full block fill kernel blocks of 1,638 and part of
    # the next, so kernel blocks mix rows
    X, Y = hemoglobin_rows(61)
    B = X.shape[1]
    h = (B + 3) // 2
    n_starts = rc._S_MCD_STARTS
    step = rows_per_search(B, n_starts)
    k, per_block = rc._BLOCK_ELEMS // B, step * len(_elemental_starts(B, 0, n_starts)[0])
    assert step == 28 and len(X) > 2 * step and len(X) % step
    assert k < per_block and per_block % k != 0
    want = [_mcd_search(X[lo:lo + step], Y[lo:lo + step], 0, n_starts, h)
            for lo in range(0, len(X), step)]
    T, S, raw_det, exact = (np.concatenate(part) for part in zip(*want))
    assert np.array_equal(_is_singular(S), exact)
    got = rc.mcd_rows(X, Y, seed=0, n_starts=n_starts)
    assert_same_bits(got[:5], rc._finish_mcd(X, Y, T, S, raw_det, h)[:5])
    # all rows in one search: the same bits per row
    assert_same_search(rc._mcd_search(X, Y, 0, n_starts, h, rc._c_step_buffers(B, h)),
                       (T, S, raw_det, exact))


def test_start_stats_of_a_search_are_those_of_one_gather():
    # a gather of two or more rows lays the row axis innermost, and einsum
    # rounds the starts' sums differently there than on a one-row gather;
    # row 3 of these 28 is an exact fit whose center shows it.  The search
    # slices the starts, never the rows, so every row keeps the bits of
    # the reference's one gather of all rows
    X, Y = hemoglobin_rows(301, seed=0)
    X, Y = X[140:168], Y[140:168]
    B = X.shape[1]
    h = (B + 3) // 2
    want = _mcd_search(X, Y, 0, rc._S_MCD_STARTS, h)
    assert_same_search(rc._mcd_search(X, Y, 0, rc._S_MCD_STARTS, h, rc._c_step_buffers(B, h)), want)
    alone = _mcd_search(X[3:4], Y[3:4], 0, rc._S_MCD_STARTS, h)
    assert want[3][3] and not np.array_equal(alone[0][0], want[0][3])


def test_mcd_rows_matches_reference_on_mmdem_rows():
    # the 21 rows of n=40 with 120 starts are one search; its 2,520
    # candidates fill kernel blocks of 819 and part of a fourth, and some
    # rows end in an exact fit
    X, Y = mmdem_rows()
    B = X.shape[1]
    h = (B + 3) // 2
    assert rows_per_search(B, rc._S_MCD_STARTS) >= len(X)
    assert (len(X) * rc._S_MCD_STARTS) % (rc._BLOCK_ELEMS // B) != 0
    T, S, raw_det, exact = _mcd_search(X, Y, 0, rc._S_MCD_STARTS, h)
    assert exact.any() and not exact.all()
    assert np.array_equal(_is_singular(S), exact)
    got = rc.mcd_rows(X, Y, seed=0, n_starts=rc._S_MCD_STARTS)
    assert_same_bits(got[:5], rc._finish_mcd(X, Y, T, S, raw_det, h)[:5])


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
    got = T[r, j], S[r, j], det[r, j]
    rc._c_step(Z0, Z1, r, *got, h, rc._c_step_buffers(B, h))
    assert_same_bits(got, tuple(w[r, j] for w in want))


@pytest.mark.parametrize("B", [20, 40])
def test_c_step_in_place_equals_fresh_copies(B):
    # the search steps its (rows, starts) stacks in place through flat
    # views; each candidate's new stats must equal those of a step on
    # fresh copies of the same candidates, and leave the inputs of the
    # copies alone
    rng = np.random.default_rng(B + 1)
    m = 5
    Z0 = rng.normal(size=(m, B))
    Z1 = 0.5 * Z0 + rng.normal(size=(m, B))
    h = (B + 3) // 2
    starts, _ = _elemental_starts(B, 0, 120)
    # C-contiguous (m, starts) stacks, as the search lays them out
    T, S, det = (np.ascontiguousarray(a) for a in _subset_stats(Z0[:, starts], Z1[:, starts]))
    fresh = T.reshape(-1, 2).copy(), S.reshape(-1, 2, 2).copy(), det.reshape(-1).copy()
    inputs = tuple(a.copy() for a in fresh)
    bufs = rc._c_step_buffers(B, h)
    rid = np.repeat(np.arange(m), len(starts))
    rc._c_step(Z0, Z1, rid, T.reshape(-1, 2), S.reshape(-1, 2, 2), det.reshape(-1), h, bufs)
    stepped = tuple(a.copy() for a in fresh)
    rc._c_step(Z0, Z1, rid, *stepped, h, bufs)
    assert_same_bits((T.reshape(-1, 2), S.reshape(-1, 2, 2), det.reshape(-1)), stepped)
    assert_same_bits(fresh, inputs)
    assert not np.array_equal(det.reshape(-1), inputs[2])
    assert_same_bits((T, S, det), _c_step(Z0, Z1, *(a.reshape(d.shape) for a, d in zip(inputs, (T, S, det))), h))


# ---------------------------------------------------------------------------
# singular starts, grown on guessed decisions and checked over all rows
# ---------------------------------------------------------------------------

def test_gathered_subset_stats_equal_one_row_gathers():
    # the growth takes the stats of g subsets of one length L from one
    # C-ordered (g, L) gather; each must hold the bits of the subset's own
    # (1, L) gather, which the reference takes, on tied points and on points
    # a few 1e-15 apart
    rng = np.random.default_rng(4)
    for cloud in (ties_paba_cloud(0, 2), bootstrap_cloud("paba", 999, precision=2)):
        x, y = cloud[:, 0].copy(), cloud[:, 1].copy()
        for L in range(4, 61):
            idx = rng.integers(0, len(cloud), (300, L))
            alone = [rc._subset_stats(x[idx[i:i + 1]], y[idx[i:i + 1]]) for i in range(300)]
            for g in (1, 2, 3, 17, 64, 299, 300):
                want = [np.concatenate(part) for part in zip(*alone[:g])]
                assert_same_bits(rc._subset_stats(x[idx[:g]], y[idx[:g]]), want)


def validate_ties_cloud():
    """The PaBa cloud of ``validate --b 2000 --seed 0`` on the benchmark's tied
    CSV: an n=40 sample at 2 significant digits drawn from seed (0, 1)."""
    spec = mj.GeneratorSpec(xmin=3.0, xmax=8.0, n=40, precision_x=2, precision_y=2, seed=(0, 1))
    return mj.bootstrap(mj.generate(spec), "paba", B=2000, seed=0).pairs


def first_singular(S):
    """Index of the first singular scatter of one row's stack."""
    return np.flatnonzero(_is_singular(S))[0]


def grow_both(X, Y, seed, n_starts, grown=None):
    """The (T, S, det) stacks after the reference's growth, each exact fit
    written at its row's first still-singular start, and the reference's
    exact-fit flags; then the stacks after ``robustcov._grow_singular``,
    from the same elemental starts and draws.  ``grown`` collects the
    reference's grown starts as ``_grow`` does."""
    m, B = X.shape
    h = (B + 3) // 2
    starts, rng = _elemental_starts(B, seed, n_starts)
    state = rng.bit_generator.state
    stats = _subset_stats(X[:, starts], Y[:, starts])
    assert _is_singular(stats[1]).any()
    want, got = [a.copy() for a in stats], [a.copy() for a in stats]
    best_T, best_S, exact = np.zeros((m, 2)), np.zeros((m, 2, 2)), np.zeros(m, dtype=bool)
    _grow(X, Y, starts, rng, h, *want, best_T, best_S, exact, growths=grown)
    T, S, det = want
    for r in np.flatnonzero(exact):
        # the det of _subset_stats, bit for bit
        (s00, s01), (_, s11) = best_S[r]
        j = first_singular(S[r])
        T[r, j], S[r, j], det[r, j] = best_T[r], best_S[r], s00 * s11 - s01 * s01
    rng.bit_generator.state = state
    rc._grow_singular(X, Y, starts, rng.integers(0, B, size=64).tolist(), rng, h, *got)
    return want, exact, got


def single_row(points):
    """(Z0, Z1) of one row of points."""
    return np.ascontiguousarray(points[None, :, 0]), np.ascontiguousarray(points[None, :, 1])


GROWTH_INPUTS = {
    **{f"mc-ties-{s}-{ri}": (lambda s=s, ri=ri: single_row(ties_paba_cloud(s, ri)) + (mc_ties_mcd_seed(s), rc._MCD_STARTS))
       for s in (0, 1) for ri in range(4)},
    "validate-ties-B2000": lambda: single_row(validate_ties_cloud()) + (0, rc._MCD_STARTS),
    "tied-mmdem-rows": lambda: tied_mmdem_rows(40) + (0, rc._S_MCD_STARTS),
    "collinear-growth-rows": lambda: collinear_growth_rows() + (0, rc._S_MCD_STARTS),
    "hemoglobin-rows": lambda: hemoglobin_rows(28) + (0, rc._S_MCD_STARTS),
}


@pytest.mark.parametrize("name", list(GROWTH_INPUTS))
def test_grown_starts_match_reference(name):
    # every grown start's stats, every untouched start's, and each row's
    # exact fit, not only the search's result
    want, exact, got = grow_both(*GROWTH_INPUTS[name]())
    assert_same_bits(got, want)
    assert exact.any() == (name == "collinear-growth-rows")


def test_wrong_guesses_rerun_to_the_reference(monkeypatch):
    # guesses left to the exact test or wrong at random: every contradicted
    # row grows again from its first singular start on exact decisions
    # alone.  With this draw the contradictions include a regular subset
    # guessed singular (before h points and at h), a singular one guessed
    # regular (before h, and at h, an exact fit), and exact fits a
    # contradiction drops.  The rows that go on keep the reference's grown
    # starts.  An exact row's fit sits at the reference's first singular
    # start, after the reference's grown starts; the later starts may keep
    # stats of the discarded guessed growth, which the search never reads
    (X, Y), (Xt, Yt) = collinear_growth_rows(), tied_mmdem_rows(8)
    X, Y = np.vstack([X, Xt]), np.vstack([Y, Yt])
    rng, guess = np.random.default_rng(9), rc._guess_singular

    def wrong(*moments):
        call = guess(*moments)
        return None if rng.random() < 0.1 else call if rng.random() < 0.7 else not call

    monkeypatch.setattr(rc, "_guess_singular", wrong)
    calls, grown = count_guesses(monkeypatch), []
    want, exact, got = grow_both(X, Y, 0, rc._S_MCD_STARTS, grown)
    on = ~exact
    assert_same_bits([a[on] for a in got], [a[on] for a in want])
    for r in np.flatnonzero(exact):
        j = first_singular(want[1][r])
        assert first_singular(got[1][r]) == j
        assert_same_bits([a[r, :j + 1] for a in got], [a[r, :j + 1] for a in want])
    assert exact[:3].all() and on[3:].all()
    assert len(calls) > sum(size - 3 for _, size, _ in grown)

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
    assert_same_search(rc._mcd_search(X, Y, seed, n_starts, h, rc._c_step_buffers(B, h)), want)
    return want, grown, h


def test_lockstep_growth_matches_reference_on_tied_rows():
    # n=40 rows with 120 starts, all in one search
    m = 37
    X, Y = tied_mmdem_rows(m)
    assert rows_per_search(X.shape[1], rc._S_MCD_STARTS) >= m
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
    (Xt, Yt), (Xc, Yc) = tied_mmdem_rows(19), collinear_growth_rows()
    X, Y = np.vstack([Xt, Xc]), np.vstack([Yt, Yc])
    got = rc.mcd_rows(X, Y, seed=0, n_starts=rc._S_MCD_STARTS)
    rows = [rc.mcd_rows(X[i:i + 1], Y[i:i + 1], seed=0, n_starts=rc._S_MCD_STARTS)
            for i in range(len(X))]
    assert_same_bits(got[:5], [np.concatenate(part) for part in zip(*(r[:5] for r in rows))])
    assert got.singular.any() and not got.singular.all()


@pytest.mark.parametrize("rows", [lambda: tied_mmdem_rows(40), collinear_growth_rows,
                                  lambda: hemoglobin_rows(28), lambda: hemoglobin_rows(301, seed=0)],
                         ids=["tied", "collinear", "hemoglobin", "hemoglobin-exact-fits"])
def test_mcd_rows_flags_a_row_singular_where_its_scatter_is(rows):
    # an exact fit comes back as its raw scatter, and every other row's
    # finished scatter is regular
    X, Y = rows()
    got = rc.mcd_rows(X, Y, seed=0, n_starts=rc._S_MCD_STARTS)
    assert np.array_equal(got.singular, _is_singular(got.scatter))


def test_mcd_rows_equals_one_row_calls_across_row_blocks():
    # hemoglobin-size rows: 28 per search, so 31 rows are two searches
    X, Y = hemoglobin_rows(31)
    assert rows_per_search(X.shape[1], rc._S_MCD_STARTS) < len(X)
    got = rc.mcd_rows(X, Y, seed=0, n_starts=rc._S_MCD_STARTS)
    rows = [rc.mcd_rows(X[i:i + 1], Y[i:i + 1], seed=0, n_starts=rc._S_MCD_STARTS)
            for i in range(len(X))]
    assert_same_bits(got[:5], [np.concatenate(part) for part in zip(*(r[:5] for r in rows))])
