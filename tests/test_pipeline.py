"""Refinement: the table-driven move descent against the scalar loop it
replaced, the per-call polish memo, and candidate de-duplication."""
import numpy as np
from hypothesis import given, settings, strategies as st

import mcagg.pipeline as pipeline
from mcagg.anneal import AnnealConfig, anneal
from mcagg.core import stationary_distribution
from mcagg.generators import gen_ncd
from mcagg.klgeom import _self_entropy
from mcagg.pipeline import _move_descent, refine_per_k


# The scalar descent the table-driven one replaced, kept verbatim as the
# reference: every move is scored by one Python-level contrib call.
def reference_move_descent(rows, rho, assign, max_passes=50):
    """Single-state relocation descent with immediate centroid updates.

    Batch reassignment (Lloyd) stalls on stale centroids; moving one state
    at a time escapes those plateaus. Total distortion decomposes per group
    as SE_g - S_g . log(S_g / M_g), with S_g the rho-weighted row sum, M_g
    the group mass and SE_g the weighted self-entropies, so each candidate
    move is evaluated in O(n) from running sums.
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
    for j in range(k):
        m = assign == j
        S[j] = wrows[m].sum(axis=0)
        M[j] = rho[m].sum()
        SE[j] = se[m].sum()

    def contrib(Sg, Mg, SEg):
        if Mg <= 0.0:
            return 0.0
        z = Sg / Mg
        lz = np.log(np.maximum(z, 1e-300))
        return SEg - float(Sg @ lz)

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
                S[a], M[a], SE[a], cur[a] = Sa, Ma, SEa, ca
                S[best_j] += wrows[i]
                M[best_j] += rho[i]
                SE[best_j] += se[i]
                cur[best_j] = best_cb
                counts[a] -= 1
                counts[best_j] += 1
                assign[i] = best_j
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


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(2, 8), st.integers(0, 10_000),
       st.sampled_from([0.0, 0.5, 0.8]), st.booleans())
def test_move_descent_matches_scalar_reference(n, k, seed, zero_frac,
                                               zero_rho):
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
    want = reference_move_descent(rows, rho, assign)
    got = _move_descent(rows, rho, assign, _self_entropy(rows))
    np.testing.assert_array_equal(got, want)


def test_move_descent_one_group_and_max_passes():
    rng = np.random.default_rng(3)
    rows = _sparse_chain(rng, 12, 0.5)
    rho = np.full(12, 1 / 12)
    ent = _self_entropy(rows)
    np.testing.assert_array_equal(
        _move_descent(rows, rho, np.zeros(12, dtype=int), ent), 0)
    start = np.arange(12) % 4
    for passes in (1, 2):
        np.testing.assert_array_equal(
            _move_descent(rows, rho, start, ent, max_passes=passes),
            reference_move_descent(rows, rho, start, max_passes=passes))


def _sweep(n_blocks=4, size=6, eps=0.05, seed=2, k_max=6):
    pi, _ = gen_ncd(blocks=[size] * n_blocks, eps=eps, seed=seed)
    rows = pi.rows
    rho = np.full(rows.shape[0], 1 / rows.shape[0])
    res = anneal(rows, rho, AnnealConfig(k_max=k_max))
    return rows, rho, {k: part.assign for k, part, _ in res.entries}


def test_refine_memo_descends_each_lloyd_output_once(monkeypatch):
    rows, rho, sweep = _sweep()
    want = refine_per_k(rows, rho, sweep, 6)

    starts = []
    descended = []
    lloyd = pipeline._lloyd

    def recording_lloyd(*args, **kwargs):
        out = lloyd(*args, **kwargs)
        starts.append(out.tobytes())
        return out

    def reference(rows, rho, assign, self_ent):
        descended.append(assign.tobytes())
        return reference_move_descent(rows, rho, assign)

    monkeypatch.setattr(pipeline, "_lloyd", recording_lloyd)
    monkeypatch.setattr(pipeline, "_move_descent", reference)
    got = refine_per_k(rows, rho, sweep, 6)

    assert sorted(got) == sorted(want)
    for k in want:
        np.testing.assert_array_equal(got[k], want[k])
    assert sorted(descended) == sorted(set(starts))
    assert len(starts) > len(set(starts))   # the memo saved descents


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
    assert sorted({k for k, _ in scored}) == list(range(2, 7))
    for k in range(2, 7):
        assert int(chosen[k].max()) + 1 == k


def test_refine_zero_weight_states_score_finite(monkeypatch):
    # two closed 2-state classes and two transient states that lead into
    # them; under the stationary rho the transient states weigh exactly 0
    rows = np.array([[0.5, 0.5, 0, 0, 0, 0],
                     [0.3, 0.7, 0, 0, 0, 0],
                     [0, 0, 0.4, 0.6, 0, 0],
                     [0, 0, 0.8, 0.2, 0, 0],
                     [0.2, 0.3, 0.4, 0.1, 0, 0],
                     [0.1, 0.3, 0.5, 0.1, 0, 0]])
    rho = stationary_distribution(rows).rho
    assert np.array_equal(rho[4:], [0.0, 0.0]) and (rho[:4] > 0).all()
    res = anneal(rows, rho, AnnealConfig(k_max=5))
    sweep = {k: part.assign for k, part, _ in res.entries}
    scores = []
    score = pipeline._score

    def recording_score(rows, rho, assign, *geom):
        s = score(rows, rho, assign, *geom)
        scores.append((int(assign.max()) + 1, s))
        return s

    monkeypatch.setattr(pipeline, "_score", recording_score)
    chosen = refine_per_k(rows, rho, sweep, 5)
    assert sorted({k for k, _ in scores}) == [2, 3, 4, 5]
    assert all(np.isfinite(s) for _, s in scores)
    a = chosen[2]
    assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
