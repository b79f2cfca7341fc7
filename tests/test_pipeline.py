"""Refinement: the memo-backed move descent against the scalar loop it
replaced, the per-call column memo, candidate de-duplication, centroids of
zero-weight groups, and the farthest-state split and Lloyd reseed against
their loop forms; aggregate_fixed_k against the pipeline; end-to-end runs
under stationary weights."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mcagg.klgeom as klgeom
import mcagg.pipeline as pipeline
from mcagg.anneal import AnnealConfig, _lloyd, anneal
from mcagg.core import stationary_distribution
from mcagg.errors import BadParameter, DimensionMismatch
from mcagg.generators import gen_ncd
from mcagg.io import parse_matrix
from mcagg.klgeom import _kl_rows, _self_entropy, hard_centroids
from mcagg.pipeline import (_move_descent, aggregate_fixed_k, refine_per_k,
                            run_pipeline)
from mcagg.selection import select_k
from test_klgeom import _group_mean

DATA = Path(__file__).resolve().parents[1] / "data"


def contrib(Sg, Mg, SEg):
    """One group's distortion term SE_g - S_g . log(S_g / M_g)."""
    if Mg <= 0.0:
        return 0.0
    z = Sg / Mg
    lz = np.log(np.maximum(z, 1e-300))
    return SEg - float(Sg @ lz)


# The scalar descent the table-driven one replaced, kept as the reference:
# every move is scored by one Python-level contrib call.
def reference_move_descent(rows, rho, assign, max_passes=50):
    """Single-state relocation descent with immediate centroid updates.

    Batch reassignment (Lloyd) stalls on stale centroids; moving one state
    at a time escapes those plateaus. Total distortion decomposes per group
    as SE_g - S_g . log(S_g / M_g), with S_g the rho-weighted row sum, M_g
    the group mass and SE_g the weighted self-entropies, so each candidate
    move is evaluated in O(n) from the group sums. After a move the two
    changed groups' sums are summed afresh over their members.
    """
    assign = np.asarray(assign, dtype=int).copy()
    n = rows.shape[0]
    k = int(assign.max()) + 1
    if k == 1:
        return assign
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)), 0.0)
    se = plogp.sum(axis=1) * rho
    wrows = rho[:, None] * rows

    S = np.zeros((k, rows.shape[1]))
    M = np.zeros(k)
    SE = np.zeros(k)

    def resum(j):
        m = assign == j
        S[j] = wrows[m].sum(axis=0)
        M[j] = rho[m].sum()
        SE[j] = se[m].sum()

    for j in range(k):
        resum(j)
    cur = np.array([contrib(S[j], M[j], SE[j]) for j in range(k)])
    counts = np.bincount(assign, minlength=k)
    for _ in range(max_passes):
        improved = False
        for i in range(n):
            a = assign[i]
            if counts[a] <= 1:
                continue
            Sa, Ma, SEa = S[a] - wrows[i], M[a] - rho[i], SE[a] - se[i]
            ca = contrib(Sa, Ma, SEa)
            best_gain, best_j, best_cb = 0.0, a, None
            for j in range(k):
                if j == a:
                    continue
                cb = contrib(S[j] + wrows[i], M[j] + rho[i], SE[j] + se[i])
                gain = (cur[a] + cur[j]) - (ca + cb)
                if gain > best_gain + 1e-14:
                    best_gain, best_j, best_cb = gain, j, cb
            if best_j != a:
                cur[a], cur[best_j] = ca, best_cb
                counts[a] -= 1
                counts[best_j] += 1
                assign[i] = best_j
                resum(a)
                resum(best_j)
                improved = True
        if not improved:
            break
    return assign


def _sparse_chain(rng, n, zero_frac):
    """Random rows with exact zeros, like data/courtois.csv; the diagonal
    keeps every row supported."""
    rows = rng.random((n, n)) ** 3
    rows[rng.random((n, n)) < zero_frac] = 0.0
    rows[np.arange(n), np.arange(n)] += 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def _problem(n, k, seed, zero_frac, zero_rho):
    """A random chain, weights and a start using every one of k groups."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    rows = _sparse_chain(rng, n, zero_frac)
    rho = rng.random(n) + 0.05
    if zero_rho:
        # stationary weights put no mass on transient states
        rho[rng.random(n) < 0.3] = 0.0
        rho[0] = 1.0
    rho /= rho.sum()
    assign = rng.integers(0, k, size=n)
    assign[rng.permutation(n)[:k]] = np.arange(k)   # every group used
    return rows, rho, assign


def best_move_gain(rows, rho, assign):
    """Largest gain of any single-state move at assign, every group term
    recomputed from sums over the group's members."""
    se = _self_entropy(rows) * rho
    wrows = rho[:, None] * rows
    k = int(assign.max()) + 1
    sums = [(wrows[assign == g].sum(axis=0), rho[assign == g].sum(),
             se[assign == g].sum()) for g in range(k)]
    cur = [contrib(*sums[g]) for g in range(k)]
    counts = np.bincount(assign, minlength=k)
    best = -np.inf
    for i, a in enumerate(assign):
        if counts[a] <= 1:
            continue
        Sa, Ma, SEa = sums[a]
        ca = contrib(Sa - wrows[i], Ma - rho[i], SEa - se[i])
        for g in range(k):
            if g != a:
                Sg, Mg, SEg = sums[g]
                cg = contrib(Sg + wrows[i], Mg + rho[i], SEg + se[i])
                best = max(best, (cur[a] + cur[g]) - (ca + cg))
    return best


# scan block sizes: one row at a time, blocks that split the chains
# unevenly, and the module's own
BLOCKS = [1, 3, 7, pipeline._BLOCK]


def descend_each_block(rows, rho, assign, memo=None):
    """_move_descent's result at every block size in BLOCKS, each call with
    a fresh memo unless memo is given."""
    saved = pipeline._BLOCK
    try:
        out = []
        for block in BLOCKS:
            pipeline._BLOCK = block
            out.append(_move_descent(rows, rho, assign, _self_entropy(rows),
                                     {} if memo is None else memo))
        return out
    finally:
        pipeline._BLOCK = saved


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(2, 8), seed=st.integers(0, 10_000),
       zero_frac=st.sampled_from([0.0, 0.5, 0.8]), zero_rho=st.booleans())
@example(n=100, k=8, seed=1, zero_frac=0.0, zero_rho=False)
@example(n=100, k=8, seed=2, zero_frac=0.8, zero_rho=True)
@example(n=100, k=8, seed=3, zero_frac=0.5, zero_rho=False)
def test_move_descent_matches_scalar_reference(n, k, seed, zero_frac,
                                               zero_rho):
    rows, rho, assign = _problem(n, k, seed, zero_frac, zero_rho)
    want = reference_move_descent(rows, rho, assign)
    for got in descend_each_block(rows, rho, assign):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(2, 8), seed=st.integers(0, 10_000),
       zero_frac=st.sampled_from([0.0, 0.5, 0.8]), zero_rho=st.booleans())
def test_move_descent_ends_with_no_improving_move(n, k, seed, zero_frac,
                                                  zero_rho):
    rows, rho, assign = _problem(n, k, seed, zero_frac, zero_rho)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_MAX_PASSES", 10_000)
        got_each = descend_each_block(rows, rho, assign)
    for got in got_each:
        assert best_move_gain(rows, rho, got) <= 1e-14


def test_move_descent_one_group_and_max_passes(monkeypatch):
    rng = np.random.default_rng(3)
    rows = _sparse_chain(rng, 12, 0.5)
    rho = np.full(12, 1 / 12)
    for got in descend_each_block(rows, rho, np.zeros(12, dtype=int)):
        np.testing.assert_array_equal(got, 0)
    start = np.arange(12) % 4
    for passes in (1, 2):
        want = reference_move_descent(rows, rho, start, max_passes=passes)
        monkeypatch.setattr(pipeline, "_MAX_PASSES", passes)
        for got in descend_each_block(rows, rho, start):
            np.testing.assert_array_equal(got, want)


def _nearby_starts(n, k, seed, count=6):
    """A start that uses every one of k groups and variants of it with one
    to three states relabelled, so descents share many group states."""
    rng = np.random.default_rng(seed)
    base = np.arange(n) % k
    rng.shuffle(base)
    starts = [base]
    while len(starts) < count:
        s = base.copy()
        moved = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        s[moved] = rng.integers(0, k, size=len(moved))
        if np.bincount(s, minlength=k).min() > 0:
            starts.append(s)
    return starts


@pytest.mark.parametrize("seed", range(4))
def test_move_descent_shared_memo_matches_memo_free(seed):
    rows, rho, _ = _problem(50, 5, seed, [0.0, 0.5, 0.8][seed % 3],
                            zero_rho=seed % 2 == 1)
    memo = {}
    for start in _nearby_starts(50, 5, seed):
        want = reference_move_descent(rows, rho, start)
        free = descend_each_block(rows, rho, start)
        shared = descend_each_block(rows, rho, start, memo=memo)
        for got in free + shared:
            np.testing.assert_array_equal(got, want)
        # re-descending from a result is a fixed point read from the memo
        for got in descend_each_block(rows, rho, want, memo=memo):
            np.testing.assert_array_equal(got, want)
    assert memo


def _twin_chain(seed, n=9):
    """A chain whose states 1 and 2 have the same row and the same weight."""
    rng = np.random.default_rng(seed)
    rows = _sparse_chain(rng, n, 0.3)
    rows[2] = rows[1]
    rho = rng.random(n) + 0.05
    rho[2] = rho[1]
    return rows, rho / rho.sum()


def test_move_descent_writes_back_only_changed_entries():
    # a descent from a settled partition hits complete columns and makes no
    # move, so it leaves every memo entry as it found it
    rows, rho, assign = _problem(40, 4, 5, 0.5, True)
    ent = _self_entropy(rows)
    memo = {}
    settled = _move_descent(rows, rho, assign, ent, memo)
    entries = {key: id(entry) for key, entry in memo.items()}
    np.testing.assert_array_equal(_move_descent(rows, rho, settled, ent, memo),
                                  settled)
    assert {key: id(entry) for key, entry in memo.items()} == entries


@pytest.mark.parametrize("seed", range(8))
def test_move_descent_memo_keys_on_members(seed):
    # swapping the twins 1 and 2 between their groups gives groups with the
    # same S, M and SE bytes but different members; a member row holds a
    # removal and any other row an addition, so the entries must stay apart
    rows, rho = _twin_chain(seed)
    a = np.array([0, 0, 1, 1, 2, 0, 1, 2, 2])
    b = a.copy()
    b[[1, 2]] = a[[2, 1]]
    memo = {}
    for start in (a, b, a, b):
        want = reference_move_descent(rows, rho, start)
        for got in descend_each_block(rows, rho, start, memo=memo):
            np.testing.assert_array_equal(got, want)
    # the case is exercised: two entries hold the same sums under
    # different member masks
    sums = {(S.tobytes(), M.tobytes(), SE.tobytes())
            for S, M, SE, _, _ in memo.values()}
    assert len(sums) < len(memo)


def test_refine_memo_sums_are_fresh_member_sums(monkeypatch):
    # each entry's sums are a function of its key's members alone: the sums
    # taken over the members, bit for bit, however the descents reached it
    rows, rho, sweep = _sweep()
    memos = []
    descend = pipeline._move_descent

    def keep_memo(rows, rho, assign, self_ent, memo=None):
        memos.append(memo)
        return descend(rows, rho, assign, self_ent, memo)

    monkeypatch.setattr(pipeline, "_move_descent", keep_memo)
    refine_per_k(rows, rho, sweep, 6)
    memo = memos[0]
    assert memo and all(m is memo for m in memos)
    se = _self_entropy(rows) * rho
    wrows = rho[:, None] * rows
    for key, (S, M, SE, _, _) in memo.items():
        m = np.frombuffer(key, dtype=bool)
        assert S.tobytes() == wrows[m].sum(axis=0).tobytes()
        assert M == rho[m].sum() and SE == se[m].sum()


def _sweep(n_blocks=4, size=6, eps=0.05, seed=2, k_max=6):
    pi, _ = gen_ncd(blocks=[size] * n_blocks, eps=eps, seed=seed)
    rows = pi.rows
    rho = np.full(rows.shape[0], 1 / rows.shape[0])
    res = anneal(rows, rho, AnnealConfig(k_max=k_max))
    return rows, rho, {part.k: part.assign for part in res.entries}


def _memo_free(monkeypatch):
    """Make every descent in refine_per_k start from an empty memo."""
    descend = pipeline._move_descent

    def fresh(rows, rho, assign, self_ent, memo):
        return descend(rows, rho, assign, self_ent, {})
    monkeypatch.setattr(pipeline, "_move_descent", fresh)


def test_refine_memo_stays_within_one_call(monkeypatch):
    # the second call weights states 2, 6 and 18 ten times as much and
    # leaves the rest of rho as it is, so every group keeps its key while
    # its entries in their rows change
    rows, rho, sweep = _sweep()
    heavy = rho.copy()
    heavy[[2, 6, 18]] *= 10.0
    got = [refine_per_k(rows, w, sweep, 6) for w in (rho, heavy)]
    _memo_free(monkeypatch)
    want = [refine_per_k(rows, w, sweep, 6) for w in (rho, heavy)]
    for g, w in zip(got, want):
        assert sorted(g) == sorted(w)
        for k in w:
            np.testing.assert_array_equal(g[k], w[k])


def test_refine_memo_saves_kernel_rows(monkeypatch):
    rows, rho, sweep = _sweep()
    counted = []
    terms = pipeline._group_terms

    def counting_terms(Sg, Mg, SEg):
        counted[-1] += len(Mg)
        return terms(Sg, Mg, SEg)

    monkeypatch.setattr(pipeline, "_group_terms", counting_terms)
    counted.append(0)
    shared = refine_per_k(rows, rho, sweep, 6)
    _memo_free(monkeypatch)
    counted.append(0)
    free = refine_per_k(rows, rho, sweep, 6)
    for k in free:
        np.testing.assert_array_equal(shared[k], free[k])
    assert 0 < counted[0] < counted[1]


def test_refine_returns_every_k_up_to_n():
    # k_max above n: one partition per k in 1..n, the last all singletons
    rows, _ = gen_ncd(blocks=[2, 2], eps=0.05, seed=1)
    rows = rows.rows
    rho = np.full(4, 0.25)
    sweep = {p.k: p.assign for p in anneal(rows, rho).entries}
    chosen = refine_per_k(rows, rho, sweep, 6)
    assert sorted(chosen) == [1, 2, 3, 4]
    for k, a in chosen.items():
        assert sorted(set(a.tolist())) == list(range(k))


def test_refine_scores_each_candidate_once(monkeypatch):
    rows, rho, sweep = _sweep()
    scored = []
    score = pipeline._score

    def recording_score(rows, rho, assign, *geom):
        scored.append((int(assign.max()) + 1, assign.tobytes()))
        return score(rows, rho, assign, *geom)

    monkeypatch.setattr(pipeline, "_score", recording_score)
    chosen = refine_per_k(rows, rho, sweep, 6)
    assert len(scored) == len(set(scored))
    assert sorted({k for k, _ in scored}) == list(range(1, 7))
    # k = 1 is scored once, for the distances its split reads
    assert sum(j == 1 for j, _ in scored) == 1
    for k in range(2, 7):
        assert int(chosen[k].max()) + 1 == k
        # the polished snapshot and one polished split per group of the
        # previous choice with at least 2 states
        splittable = int((np.bincount(chosen[k - 1]) >= 2).sum())
        assert sum(j == k for j, _ in scored) <= 1 + splittable


def test_refine_builds_centroids_only_to_score(monkeypatch):
    # the split reads the winner's scored distances, so outside Lloyd's
    # steps every centroid bank refinement builds is one _score call's:
    # the premise of the benchmark's candidates_scored count, which wraps
    # mcagg.pipeline.hard_centroids
    rows, rho, sweep = _sweep()
    calls = []
    score, centroids = pipeline._score, pipeline.hard_centroids

    def recording_score(*args):
        calls.append("score")
        return score(*args)

    def recording_centroids(*args):
        calls.append("centroids")
        return centroids(*args)

    monkeypatch.setattr(pipeline, "_score", recording_score)
    monkeypatch.setattr(pipeline, "hard_centroids", recording_centroids)
    monkeypatch.setattr(klgeom, "hard_centroids", recording_centroids)
    refine_per_k(rows, rho, sweep, 6)
    assert calls.count("score") > 6
    assert calls == ["score", "centroids"] * calls.count("score")


# two closed 2-state classes and two transient states that lead into them;
# under the stationary rho the transient states weigh exactly 0
ZERO_WEIGHT_ROWS = np.array([[0.5, 0.5, 0, 0, 0, 0],
                             [0.3, 0.7, 0, 0, 0, 0],
                             [0, 0, 0.4, 0.6, 0, 0],
                             [0, 0, 0.8, 0.2, 0, 0],
                             [0.2, 0.3, 0.4, 0.1, 0, 0],
                             [0.1, 0.3, 0.5, 0.1, 0, 0]])


def test_refine_zero_weight_states_score_finite(monkeypatch):
    rows = ZERO_WEIGHT_ROWS
    rho = stationary_distribution(rows)
    assert np.array_equal(rho[4:], [0.0, 0.0]) and (rho[:4] > 0).all()
    res = anneal(rows, rho, AnnealConfig(k_max=5))
    sweep = {part.k: part.assign for part in res.entries}
    scores = []
    score = pipeline._score

    def recording_score(rows, rho, assign, *geom):
        s = score(rows, rho, assign, *geom)
        scores.append((int(assign.max()) + 1, s[0]))
        return s

    monkeypatch.setattr(pipeline, "_score", recording_score)
    chosen = refine_per_k(rows, rho, sweep, 5)
    assert sorted({k for k, _ in scores}) == [1, 2, 3, 4, 5]
    assert all(np.isfinite(s) for _, s in scores)
    a = chosen[2]
    assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]



def test_zero_weight_group_gets_plain_mean_centroid():
    # the transient states 4 and 5 weigh 0 and form group 2 on their own
    rows = ZERO_WEIGHT_ROWS
    rho = stationary_distribution(rows)
    ent, pos = _self_entropy(rows), rows > 0
    start = np.array([0, 0, 1, 1, 2, 2])
    np.testing.assert_array_equal(_lloyd(rows, rho, start, ent, pos), start)
    # the farthest member of the zero-weight pair, from their plain mean
    idx = np.array([4, 5])
    z = rows[idx].mean(axis=0)
    d = [float(r[r > 0] @ np.log(r[r > 0] / z[r > 0])) for r in rows[idx]]
    far = pipeline._farthest(start, pipeline._score(rows, rho, start, ent,
                                                    pos)[1])
    assert far[2] == idx[int(np.argmax(d))]


# The per-group split selection that _farthest replaced, kept
# verbatim as its reference (with test_klgeom's verbatim _group_mean).
def _loop_farthest(rows, rho, self_ent, positive, idx):
    """Position within idx of the member farthest, in KL, from the
    rho-weighted mean of the rows in idx."""
    z = _group_mean(rows[idx], rho[idx])
    d = _kl_rows(rows[idx], self_ent[idx], positive[idx], z[None, :])[:, 0]
    return int(np.argmax(d))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(1, 8), seed=st.integers(0, 10_000),
       zero_frac=st.sampled_from([0.0, 0.5, 0.8]),
       zero_group=st.booleans(), dup=st.booleans())
def test_farthest_members_match_group_loop(n, k, seed, zero_frac, zero_group,
                                           dup):
    # zero-weight states, a whole group of zero weight, singletons (k near
    # n), and duplicated rows. Members at equal distance in exact arithmetic
    # (copies of a row, or disjoint rows around a plain mean) may get
    # distances an ulp apart from the loop and from the kernel, so there
    # the kernel's pick need only be one of them
    rows, rho, assign = _problem(n, k, seed, zero_frac, True)
    rng = np.random.default_rng(seed + 1)
    if zero_group:
        rho[assign == 0] = 0.0
    if dup:
        rows[rng.integers(0, n, n // 2)] = rows[rng.integers(0, n, n // 2)]
    ent, pos = _self_entropy(rows), rows > 0
    far = pipeline._farthest(assign, pipeline._score(rows, rho, assign, ent,
                                                     pos)[1])
    assert len(far) == assign.max() + 1
    for g in range(len(far)):
        idx = np.flatnonzero(assign == g)
        assert assign[far[g]] == g
        if len(idx) >= 2:
            want = idx[_loop_farthest(rows, rho, ent, pos, idx)]
            z = _group_mean(rows[idx], rho[idx])
            d = _kl_rows(rows[idx], ent[idx], pos[idx], z[None, :])[:, 0]
            tied = idx[np.isclose(d, d.max(), rtol=1e-12, atol=1e-14)]
            if len(tied) == 1:
                assert far[g] == want
            else:
                assert far[g] in tied


def test_farthest_members_tie_goes_to_the_first_member():
    # states 1 and 3 hold the same row, farthest from their group's mean
    rows = np.array([[0.4, 0.3, 0.3], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3],
                     [0.1, 0.1, 0.8], [0.0, 0.0, 1.0]])
    rho = np.full(5, 0.2)
    assign = np.array([0, 0, 0, 0, 1])
    far = pipeline._farthest(assign, pipeline._score(
        rows, rho, assign, _self_entropy(rows), rows > 0)[1])
    np.testing.assert_array_equal(far, [1, 4])


# The Lloyd loop before its reseed ran only on an empty group, kept
# verbatim as the reference of _lloyd.
def _loop_lloyd(rows, rho, assign, self_ent, positive, max_iter=200):
    assign = np.asarray(assign, dtype=int).copy()
    k = int(assign.max()) + 1
    live = rho > 0
    for _ in range(max_iter):
        W = hard_centroids(rows, assign, rho)
        D = _kl_rows(rows, self_ent, positive, W)
        new = np.where(live, np.argmin(D, axis=1), assign)
        # reseed empties deterministically
        for j in range(k):
            if not np.any(new == j):
                cur = D[np.arange(len(new)), new]
                donors = np.where(live
                                  & (np.bincount(new, minlength=k)[new] > 1))[0]
                if len(donors) == 0:
                    break
                far = donors[np.argmax(cur[donors])]
                new[far] = j
        if np.array_equal(new, assign):
            break
        assign = new
    return assign


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), k=st.integers(2, 8), seed=st.integers(0, 10_000),
       zero_frac=st.sampled_from([0.0, 0.5, 0.8]), zero_rho=st.booleans())
@example(n=6, k=3, seed=0, zero_frac=0.0, zero_rho=False)
def test_lloyd_matches_reseed_loop(n, k, seed, zero_frac, zero_rho):
    rows, rho, assign = _problem(n, k, seed, zero_frac, zero_rho)
    ent, pos = _self_entropy(rows), rows > 0
    np.testing.assert_array_equal(_lloyd(rows, rho, assign, ent, pos),
                                  _loop_lloyd(rows, rho, assign, ent, pos))


@pytest.mark.parametrize("start", [[0, 1, 0, 2, 1, 2], [0, 1, 1, 2, 0, 0]])
def test_lloyd_reseed_matches_reseed_loop(start):
    # from these starts a group empties on the first reassignment
    rows = ZERO_WEIGHT_ROWS
    rho = stationary_distribution(rows)
    ent, pos = _self_entropy(rows), rows > 0
    start = np.array(start)
    W = hard_centroids(rows, start, rho)
    first = np.where(rho > 0, np.argmin(_kl_rows(rows, ent, pos, W), axis=1),
                     start)
    assert len(set(first.tolist())) < start.max() + 1
    np.testing.assert_array_equal(_lloyd(rows, rho, start, ent, pos),
                                  _loop_lloyd(rows, rho, start, ent, pos))


@pytest.mark.parametrize("start", [[0, 0, 1, 1, 1, 0], [0, 0, 1, 1, 0, 1],
                                   [0, 1, 2, 2, 2, 1], [0, 1, 0, 2, 1, 2]])
def test_lloyd_keeps_zero_weight_states(start):
    # the transient states 4 and 5 weigh 0 and start in different groups;
    # they add nothing to the distortion wherever they sit, so they stay.
    # From the last start group 0 empties, and the reseed refills it with a
    # positive-weight state, not with state 4 at infinite distance
    rows = ZERO_WEIGHT_ROWS
    rho = stationary_distribution(rows)
    start = np.array(start)
    got = _lloyd(rows, rho, start, _self_entropy(rows), rows > 0)
    np.testing.assert_array_equal(got[4:], start[4:])
    assert sorted(set(got.tolist())) == sorted(set(start.tolist()))


@pytest.mark.parametrize("seed", range(1, 11))
def test_pipeline_absorbing_chain_under_stationary_rho(seed):
    # a (3,3,3) NCD chain whose state 0 is absorbing: all the weight sits on
    # state 0, and every other member of its superstate weighs 0 and may
    # deviate over coordinates its centroid lacks
    rows = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=seed)[0].rows.copy()
    rows[0] = np.eye(9)[0]
    rho = stationary_distribution(rows)
    assert rho.tolist() == [1.0] + [0.0] * 8
    res = run_pipeline(rows, rho, k_max=6)
    assert sorted(res.partitions) == list(range(1, 7))
    assert all(np.isfinite(t) and t >= 0 for t in res.report.t_bars.values())
    # the steady state is a point mass on state 0, so every partition has
    # distortion 0 and every superstate is homogeneous at its one weighted
    # member; polishing must leave the zero-weight states in the groups the
    # splits put them in: gathered into one group, which selection weighs
    # uniformly, they would lift t_bar to 8.5-11
    assert res.report.exact_fit
    assert all(t == 0.0 for t in res.report.t_bars.values())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_aggregate_fixed_k_is_the_pipeline_partition(k):
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    part, model = aggregate_fixed_k(pi.rows, None, k)
    want = run_pipeline(pi.rows, k_max=k).partitions[k]
    np.testing.assert_array_equal(part.assign, want.assign)
    np.testing.assert_array_equal(model.partition.assign, want.assign)


@pytest.mark.parametrize("k_max", [0, -3])
def test_run_pipeline_rejects_k_max_below_one(k_max):
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    with pytest.raises(DimensionMismatch, match="below 1"):
        run_pipeline(pi.rows, k_max=k_max)


def test_pipeline_courtois_three_blocks():
    rows = parse_matrix(str(DATA / "courtois.csv")).rows
    res = run_pipeline(rows, stationary_distribution(rows), k_max=6)
    groups = sorted(sorted(int(i) for i in g)
                    for g in res.partitions[3].groups())
    assert groups == [[0, 1, 2], [3, 4], [5, 6, 7]]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 10_000),
       zero_frac=st.sampled_from([0.0, 0.5, 0.8]),
       tiny=st.lists(st.floats(1e-14, 1e-10), min_size=1, max_size=3))
@example(n=3, seed=0, zero_frac=0.5, tiny=[5e-11])
def test_pipeline_scores_chains_with_entries_at_the_floor(n, seed, zero_frac,
                                                          tiny):
    # an entry near klgeom._FLOOR in an otherwise empty column leaves a
    # centroid coordinate below it while a member deviates there; every
    # superstate eigen-solve drops such a coordinate, so each chain is
    # scored in full
    rng = np.random.default_rng(seed)
    rows = _sparse_chain(rng, n, zero_frac)
    at = rng.choice(n * n, size=len(tiny), replace=False)
    rows.flat[at] = tiny
    rows /= rows.sum(axis=1, keepdims=True)
    for rho in (None, stationary_distribution(rows)):
        res = run_pipeline(rows, rho)
        # selection does not feed back into aggregation, so whiten mode
        # scores the same partitions
        whiten = select_k(rows, res.partitions, rho, "whiten")
        for report in (res.report, whiten):
            t_bars = np.array(list(report.t_bars.values()))
            assert len(t_bars) == min(n, 8)
            assert np.isfinite(t_bars).all() and (t_bars >= 0).all()


@pytest.mark.parametrize("mode", ["odds", "Plain", None])
def test_run_pipeline_rejects_an_unknown_mode_before_annealing(monkeypatch,
                                                               mode):
    # the mode is checked up front: no annealing or refinement runs, and
    # the error is typed (BadParameter is a ValueError too)
    rows = gen_ncd([40] * 5, 0.02, seed=1)[0].rows

    def fail(*args, **kwargs):
        raise AssertionError("annealed before checking the mode")

    monkeypatch.setattr(pipeline, "anneal", fail)
    with pytest.raises(BadParameter, match="is not one of"):
        run_pipeline(rows, k_max=8, mode=mode)
