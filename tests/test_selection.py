import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcagg import klgeom, selection
from mcagg.anneal import _critical_full
from mcagg.core import as_rho, make_partition
from mcagg.errors import BadParameter, DimensionMismatch, NonConsecutiveK
from mcagg.generators import gen_ncd
from mcagg.pipeline import run_pipeline
from mcagg.selection import (covariance_matrix, hard_membership,
                             heterogeneity, marginal_return, select_k)

from conftest import floored_chain

PI2 = np.array([[0.9, 0.1], [0.1, 0.9]])


def _random_chain_and_partition(n, k, seed):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=n)
    assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assign)
    return rows, make_partition(assign, k=k)


def _profile(rows, part, rho=None, mode="plain"):
    """Each superstate's t under part, as select_k scores it."""
    rep = select_k(rows, {part.k: part}, rho, mode)
    return np.array(rep.per_superstate[part.k])


def test_selection_rejects_an_unknown_mode_before_scoring(monkeypatch):
    # select_k, heterogeneity and covariance_matrix check the mode against
    # MODES before any superstate is scored
    rows, part = _random_chain_and_partition(6, 2, 0)
    monkeypatch.setattr(selection, "_profile", None)
    monkeypatch.setattr(selection, "simplex_basis", None)
    for call in (lambda: select_k(rows, {2: part}, mode="odds"),
                 lambda: heterogeneity(rows, part, mode="odds"),
                 lambda: covariance_matrix(rows, rows[0], np.ones(6) / 6,
                                           mode="odds")):
        with pytest.raises(BadParameter, match="'odds' is not one of"):
            call()
    assert selection.MODES == ("plain", "whiten")


# --- hard_membership ---

def test_membership_normalized_columns():
    part = make_partition([0, 0, 1])
    Q = hard_membership(part)
    assert np.allclose(Q[:, 0], [0.5, 0.5, 0.0], atol=1e-15)
    assert np.allclose(Q[:, 1], [0.0, 0.0, 1.0], atol=1e-15)


def test_membership_singletons_identity():
    Q = hard_membership(make_partition([0, 1]))
    assert np.allclose(Q, np.eye(2), atol=1e-15)


def test_membership_gives_stochastic_w():
    rows, part = _random_chain_and_partition(7, 3, seed=0)
    Q = hard_membership(part)
    W = Q.T @ rows
    assert np.abs(W.sum(axis=1) - 1.0).max() < 1e-12


# hard_membership before klgeom._member_weights carried its zero-weight
# rule, kept verbatim as the reference
def _reference_membership(partition, rho=None):
    n, k = partition.n, partition.k
    Q = np.zeros((n, k))
    Q[np.arange(n), partition.assign] = 1.0
    rho = as_rho(rho, n)
    R = Q * rho[:, None]
    R += Q * (R.sum(axis=0) == 0.0)
    return R / R.sum(axis=0, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 6), seed=st.integers(0, 10_000),
       zero_frac=st.sampled_from([0.0, 0.5, 1.0]), zero_group=st.booleans(),
       uniform=st.booleans())
@example(n=40, k=1, seed=2, zero_frac=0.0, zero_group=False, uniform=False)
@example(n=40, k=3, seed=4, zero_frac=0.5, zero_group=True, uniform=False)
def test_membership_bytes_match_reference(n, k, seed, zero_frac, zero_group,
                                          uniform):
    # k = 1 (one n x 1 column sum), groups of zero weight, and groups of 8
    # or more members when n is large against k
    k = min(k, n)
    rng = np.random.default_rng(seed)
    assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assign)
    part = make_partition(assign, k=k)
    rho = rng.random(n)
    rho[rng.random(n) < zero_frac] = 0.0
    if zero_group:
        rho[assign == 0] = 0.0
    rho = None if uniform else rho
    assert (hard_membership(part, rho).tobytes()
            == _reference_membership(part, rho).tobytes())


# --- covariance_matrix ---

def test_covariance_two_state_plain():
    C = covariance_matrix(PI2, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert C.shape == (1, 1)
    assert C[0, 0] == pytest.approx(1.28, rel=1e-12)


def test_covariance_two_state_whiten():
    C = covariance_matrix(PI2, np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                          mode="whiten")
    assert C[0, 0] == pytest.approx(0.64, rel=1e-12)


def test_covariance_zero_deviation():
    w = np.array([0.3, 0.7])
    C = covariance_matrix(w[None, :], w, np.array([1.0]))
    assert np.abs(C).max() < 1e-15


@pytest.mark.parametrize("mode", ["plain", "whiten"])
def test_covariance_drops_floored_coordinate_with_a_deviation(mode):
    # the member deviates by 0.1 where the centroid sits below _FLOOR: the
    # coordinate is dropped, as the annealer drops it from t_cr
    members = np.array([[0.5, 0.4, 0.1], [0.6, 0.4, 0.0]])
    w = np.array([0.55, 0.45, 1e-15])
    q = np.array([0.5, 0.5])
    C = covariance_matrix(members, w, q, mode=mode)
    assert np.array_equal(C, covariance_matrix(members[:, :2], w[:2], q,
                                               mode=mode))
    assert selection._top_eigenvalue(members, w, q, mode) == pytest.approx(
        np.linalg.eigvalsh(C).max(), rel=1e-12)


def test_covariance_drops_dead_coordinate():
    # centroid and members both vanish on a coordinate: it is dropped
    members = np.array([[0.5, 0.5, 0.0]])
    w = np.array([0.5, 0.5, 0.0])
    C = covariance_matrix(members, w, np.array([1.0]))
    assert C.shape == (1, 1)
    assert abs(C[0, 0]) < 1e-15


@pytest.mark.parametrize("mode", ["plain", "whiten"])
def test_covariance_ignores_zero_weight_member_on_floored_coordinate(mode):
    # an absorbing state of weight 0 deviates on the centroid's floored
    # coordinate: it adds nothing to the covariance, which equals that of
    # the weighted members alone
    members = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
    q = np.array([0.5, 0.5, 0.0])
    w = q @ members
    C = covariance_matrix(members, w, q, mode=mode)
    C2 = covariance_matrix(members[:2], w, q[:2], mode=mode)
    assert np.array_equal(C, C2)
    t = _profile(members, make_partition([0, 0, 0]), q, mode=mode)[0]
    assert t == pytest.approx(np.linalg.eigvalsh(C).max(), rel=1e-12)


# --- heterogeneity ---

def test_heterogeneity_two_state_k1():
    t = heterogeneity(PI2, make_partition([0, 0]))
    assert t == pytest.approx(1.28, rel=1e-12)


def test_heterogeneity_two_state_whiten():
    t = heterogeneity(PI2, make_partition([0, 0]), mode="whiten")
    assert t == pytest.approx(0.64, rel=1e-12)


def test_heterogeneity_singletons_zero():
    rows, _ = _random_chain_and_partition(5, 2, seed=1)
    t = heterogeneity(rows, make_partition(np.arange(5)))
    assert t == pytest.approx(0.0, abs=1e-14)


def test_heterogeneity_profile_length():
    rows, part = _random_chain_and_partition(8, 3, seed=2)
    prof = _profile(rows, part)
    assert prof.shape == (3,)
    assert (prof >= 0).all()


# --- marginal_return ---

def test_marginal_return_log_arithmetic():
    nus = marginal_return({1: np.e ** 2, 2: np.e})
    assert set(nus) == {2}
    assert nus[2] == pytest.approx(1.0, rel=1e-12)


def test_marginal_return_constant_is_zero():
    nus = marginal_return({1: 3.3, 2: 3.3, 3: 3.3})
    assert nus[2] == 0.0 and nus[3] == 0.0


def test_marginal_return_exact_fit_sentinel():
    nus = marginal_return({1: 1.0, 2: 0.0, 3: 0.0})
    assert nus[2] == np.inf
    assert nus[3] == np.inf
    # heterogeneity recovering after an exact fit yields no further return
    assert marginal_return({1: 0.0, 2: 1.0}) == {2: 0.0}


def test_marginal_return_skips_missing_predecessor():
    nus = marginal_return({1: 2.0, 3: 1.0})
    assert nus == {}


# --- select_k ---

def test_select_rejects_gaps():
    rows, _ = _random_chain_and_partition(6, 2, seed=3)
    parts = {1: make_partition([0] * 6),
             3: make_partition([0, 0, 1, 1, 2, 2])}
    with pytest.raises(NonConsecutiveK) as exc:
        select_k(rows, parts)
    assert exc.value.gaps == [2]


def test_select_rejects_an_empty_family():
    rows, _ = _random_chain_and_partition(4, 2, seed=3)
    with pytest.raises(DimensionMismatch, match="no partitions"):
        select_k(rows, {})


def test_select_exact_fit_smallest_k():
    rows = np.tile([0.2, 0.8], (4, 1))
    parts = {1: make_partition([0] * 4),
             2: make_partition([0, 0, 1, 1]),
             3: make_partition([0, 0, 1, 2])}
    rep = select_k(rows, parts)
    assert rep.exact_fit
    assert rep.k_t == 2
    assert rep.nus[2] == np.inf


def test_select_ncd_recovers_three_blocks():
    pi, truth = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=42)
    res = run_pipeline(pi.rows, k_max=6)
    assert res.k_t == 3
    got = res.partitions[3].assign
    pairs = set(zip(got.tolist(), truth.assign.tolist()))
    assert len(pairs) == 3   # bijective relabeling of the blocks
    # report internals agree with a direct re-selection
    rep = select_k(pi.rows, res.partitions)
    assert rep.k_t == 3
    assert rep.t_bars == res.report.t_bars


def test_select_report_per_superstate():
    rows, _ = _random_chain_and_partition(6, 2, seed=4)
    parts = {1: make_partition([0] * 6),
             2: make_partition([0, 0, 0, 1, 1, 1])}
    rep = select_k(rows, parts)
    assert len(rep.per_superstate[2]) == 2
    assert max(rep.per_superstate[2]) == pytest.approx(rep.t_bars[2],
                                                       rel=1e-12)


def test_select_rejects_wrong_length_partitions():
    rows, _ = _random_chain_and_partition(9, 2, seed=5)
    parts = {1: make_partition([0] * 9),
             2: make_partition([0] * 4 + [1] * 4),
             3: make_partition([0, 1, 2] * 3 + [0])}
    with pytest.raises(DimensionMismatch, match=r"k=2: n=8.*k=3: n=10"):
        select_k(rows, parts)


def _planted_partitions(blocks, k_max, seed):
    """Nested partitions around planted blocks: for k <= B the last blocks
    are merged into one group, for k > B single states are split off."""
    truth = np.repeat(np.arange(len(blocks)), blocks)
    B = len(blocks)
    singles = np.random.default_rng(seed).permutation(len(truth))[:k_max - B]
    parts = {}
    for k in range(1, k_max + 1):
        assign = np.minimum(truth, k - 1)
        if k > B:
            assign[singles[:k - B]] = B + np.arange(k - B)
        parts[k] = make_partition(assign, k=k)
    return parts


def _memo_cases():
    pi, _ = gen_ncd(blocks=[80] * 5, eps=0.02, seed=11)
    yield pi.rows, _planted_partitions([80] * 5, 8, seed=11), None
    small, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=42)
    res = run_pipeline(small.rows, k_max=6)
    yield small.rows, res.partitions, None
    rho = np.random.default_rng(3).dirichlet(np.ones(9))
    yield small.rows, res.partitions, rho


@pytest.mark.parametrize("mode", ["plain", "whiten"])
def test_select_memo_bit_identical_to_profile_loop(mode):
    for rows, parts, rho in _memo_cases():
        rep = select_k(rows, parts, rho, mode)
        profiles = {k: _profile(rows, p, rho, mode) for k, p in parts.items()}
        t_bars = {k: float(p.max(initial=0.0)) for k, p in profiles.items()}
        nus = marginal_return(t_bars)
        assert not rep.exact_fit
        assert rep.t_bars == t_bars
        assert rep.nus == nus
        assert rep.per_superstate == {k: [float(v) for v in p]
                                      for k, p in profiles.items()}
        assert rep.k_t == min(k for k, v in nus.items()
                              if v == max(nus.values()))


def test_select_scores_each_distinct_superstate_once(monkeypatch):
    calls = []
    original = selection._top_eigenvalue

    def counting(members, *args):
        calls.append(len(members))
        return original(members, *args)
    monkeypatch.setattr(selection, "_top_eigenvalue", counting)
    for case, (rows, parts, rho) in enumerate(_memo_cases()):
        calls.clear()
        select_k(rows, parts, rho)
        # a superstate's weights and centroid follow from its members, so
        # each distinct member set is solved once, whatever k it recurs at
        distinct = {np.flatnonzero(p.assign == j).tobytes()
                    for p in parts.values() for j in range(p.k)}
        assert len(calls) == len(distinct)
        assert len(calls) < sum(p.k for p in parts.values())
        if case == 0:
            # the 400-state chain: 36 superstates over k = 1..8, 15 of them
            # distinct, one of which Q^T rows used to round differently
            assert len(calls) == 15


# --- invariants ---

@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9), st.integers(2, 4), st.integers(0, 10_000))
def test_covariance_psd(n, k, seed):
    k = min(k, n)
    rows, part = _random_chain_and_partition(n, k, seed)
    prof = _profile(rows, part)
    Q = hard_membership(part)
    W = Q.T @ rows
    for j in range(k):
        idx = np.where(part.assign == j)[0]
        C = covariance_matrix(rows[idx], W[j], Q[idx, j])
        vals = np.linalg.eigvalsh(C)
        assert vals[0] >= -1e-10 * max(1.0, vals[-1])
    assert prof.max() >= 0


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9), st.integers(2, 4), st.integers(0, 10_000))
def test_heterogeneity_permutation_equivariant(n, k, seed):
    k = min(k, n)
    rows, part = _random_chain_and_partition(n, k, seed)
    t = heterogeneity(rows, part)
    perm = np.random.default_rng(seed + 1).permutation(n)
    rows_p = rows[perm][:, perm]
    part_p = make_partition(part.assign[perm], k=k)
    t_p = heterogeneity(rows_p, part_p)
    assert t_p == pytest.approx(t, abs=1e-10, rel=1e-10)


def test_telescoping_sum():
    rng = np.random.default_rng(6)
    t_bars = {k: float(rng.uniform(0.1, 5.0)) for k in range(1, 9)}
    nus = marginal_return(t_bars)
    total = 0.0
    for k in range(2, 9):
        total += nus[k]
    assert total == pytest.approx(np.log(t_bars[1]) - np.log(t_bars[8]),
                                  abs=1e-12)


def _reference_profile(rows, part, rho, mode):
    """Top eigenvalue of every superstate's covariance_matrix, with a
    superstate of fewer than 2 kept coordinates scoring 0."""
    Q = hard_membership(part, rho)
    W = Q.T @ rows
    out = np.zeros(part.k)
    for j in range(part.k):
        idx = np.where(part.assign == j)[0]
        try:
            C = covariance_matrix(rows[idx], W[j], Q[idx, j], mode=mode)
        except DimensionMismatch:
            continue
        out[j] = max(float(np.linalg.eigvalsh(C)[-1]), 0.0)
    return out


def _near_degenerate_chain(n, seed):
    """n states deviating from the uniform row along two orthogonal
    zero-sum directions with equal spread, plus a little noise, so the
    top two covariance eigenvalues are nearly equal."""
    rng = np.random.default_rng(seed)
    pairs = n // 2
    M = rng.standard_normal((n, 2))
    xy = np.linalg.qr(M - M.mean(axis=0))[0]
    ab = np.linalg.qr(rng.standard_normal((pairs, 2)))[0]
    Z = rng.standard_normal((pairs, n))
    c = ab @ xy.T + 1e-8 * (Z - Z.mean(axis=1, keepdims=True))
    c *= 0.45 / np.abs(c).max()
    return np.concatenate([1 + c, 1 - c]) / n


@pytest.mark.parametrize("mode", ["plain", "whiten"])
def test_profile_large_superstate_near_degenerate_top_pair(mode):
    # one superstate with 240 kept coordinates, where an iterative
    # eigensolver converges slowly; the profile must be exact
    rows = _near_degenerate_chain(240, seed=9)
    part = make_partition(np.zeros(240, dtype=int))
    ev = np.linalg.eigvalsh(covariance_matrix(rows, rows.mean(axis=0),
                                              np.full(240, 1 / 240),
                                              mode=mode))
    assert len(ev) > 200
    assert (ev[-1] - ev[-2]) / ev[-1] < 1e-6
    prof = _profile(rows, part, mode=mode)
    assert prof[0] == pytest.approx(ev[-1], rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 30), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 0.8]),
       st.sampled_from(["uniform", "dirichlet", "zeros"]))
def test_profile_matches_covariance_eigvalsh(n, k, seed, zero_frac,
                                             rho_kind):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=n)
    rows[rng.random((n, n)) < zero_frac] = 0.0
    empty = rows.sum(axis=1) == 0.0
    rows[empty, rng.integers(0, n, size=empty.sum())] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assign)
    part = make_partition(assign, k=k)
    rho = None
    if rho_kind != "uniform":
        rho = rng.dirichlet(np.ones(n))
        if rho_kind == "zeros":
            rho[rng.random(n) < 0.5] = 0.0
            rho[rng.integers(n)] += 1.0
            rho /= rho.sum()
    # whiten gets a looser tolerance because the Cholesky route of the
    # reference loses digits when w has a coordinate near the floor (see
    # the closed-form test below)
    for mode, tol in (("plain", 1e-12), ("whiten", 1e-6)):
        ref = _reference_profile(rows, part, rho, mode)
        prof = _profile(rows, part, rho, mode)
        scale = max(float(ref.max()), 1e-300)
        err = np.abs(prof - ref) / np.maximum(ref, 1e-12 * scale)
        assert err.max() <= tol, (mode, prof, ref)


def _whiten_t_and_t_cr(members, q):
    """Whiten-mode t of a hard group and the annealer's t_cr of its centroid
    at the posterior q (ROADMAP item 17: one kernel, one floor rule)."""
    w = q @ members
    t = selection._top_eigenvalue(members, w, q, "whiten")
    assoc = klgeom.SoftAssociation(p=np.ones((len(q), 1)),
                                   posterior=q[:, None])
    return t, _critical_full(members, q, w[None], assoc)[0][0]


def test_whiten_t_is_the_annealers_t_cr(acceptance_runs):
    runs, _ = acceptance_runs
    checked = 0
    for r in runs.values():
        for part in r.partitions.values():
            Q = hard_membership(part, r.rho)
            for j in range(part.k):
                idx = np.flatnonzero(part.assign == j)
                t, t_cr = _whiten_t_and_t_cr(r.rows[idx], Q[idx, j])
                if t > 1e-10:
                    assert abs(t - t_cr) <= 1e-14 * t, (t, t_cr)
                    checked += 1
    assert checked > 1000
    # the floored group of the 11-state chain, where the member deviates
    members, q = floored_chain()[:10], np.full(10, 0.1)
    w = q @ members
    assert w[10] < klgeom._FLOOR < members[0, 10] - w[10]
    t, t_cr = _whiten_t_and_t_cr(members, q)
    assert t > 0 and abs(t - t_cr) <= 1e-14 * t, (t, t_cr)


def test_whiten_two_members_closed_form_ill_conditioned():
    # Two members a, b with equal weight have the whiten-mode value
    # sum_c (a_c - b_c)^2 / (2 (a_c + b_c)). A coordinate just above the
    # floor makes the whitening form badly conditioned: the Cholesky route
    # of covariance_matrix is off by about 2e-6 here, while the Gram-side
    # profile stays exact.
    a = np.array([4e-12, 0.3, 0.5, 0.2 - 4e-12, 0.0])
    b = np.array([0.0, 0.6, 0.1, 0.3, 0.0])
    rows = np.array([a, b, [0.2, 0.2, 0.2, 0.2, 0.2]])
    part = make_partition([0, 0, 1])
    keep = (a + b) > 0
    exact = float(np.sum((a - b)[keep] ** 2 / (2 * (a + b)[keep])))
    prof = _profile(rows, part, mode="whiten")
    assert prof[0] == pytest.approx(exact, rel=1e-12)
    assert prof[1] == 0.0


def test_heterogeneity_point_mass_singleton_is_zero():
    # an absorbing row alone in its superstate keeps one coordinate, so its
    # deviation covariance is empty (covariance_matrix cannot form it)
    rows = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
    part = make_partition([0, 1, 1])
    with pytest.raises(DimensionMismatch):
        covariance_matrix(rows[:1], rows[0], np.array([1.0]))
    for mode in ("plain", "whiten"):
        prof = _profile(rows, part, mode=mode)
        assert prof[0] == 0.0
        assert prof[1] > 0.0


def test_pipeline_identity_chain():
    # every state absorbing: k = n is an exact fit
    res = run_pipeline(np.eye(6))
    assert sorted(res.partitions) == list(range(1, 7))
    assert all(np.isfinite(t) and t >= 0 for t in res.report.t_bars.values())
    assert res.report.t_bars[6] == 0.0
    assert res.report.exact_fit and res.k_t == 6


def test_membership_zero_weight_group_uniform():
    part = make_partition([0, 0, 1, 1, 1])
    Q = hard_membership(part, np.array([0.25, 0.75, 0.0, 0.0, 0.0]))
    assert np.allclose(Q[:, 0], [0.25, 0.75, 0, 0, 0], atol=1e-15)
    assert np.allclose(Q[:, 1], [0, 0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)


# --- _top_deviation split directions ---

# factors whose smaller side is above the cutoff take the Lanczos path
_BIG = klgeom._DENSE_MAX + 12

def _factor(members, w, q, s):
    """The deviation factor A of _top_deviation, built directly, and its
    unit direction u along w / s."""
    U = (members - w) / s
    u = w / s
    u = u / np.linalg.norm(u)
    return np.sqrt(q)[:, None] * (U - np.outer(U @ u, u)), u


def _check_direction(members, w, q, s):
    """(t, x) of the vector path: t equal to the temperature-only path, x
    unit, orthogonal to u and with Rayleigh quotient t within 1e-12."""
    with np.errstate(all="raise"):
        t, x = klgeom._top_deviation(members, w, q, s, vectors=True)
        t_only = klgeom._top_deviation(members, w, q, s)
    A, un = _factor(members, w, q, s)
    assert t == t_only
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert abs(x @ un) < 1e-12
    assert np.linalg.norm(A @ x) ** 2 == pytest.approx(t, rel=1e-12)
    return t, x, A


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 15), st.integers(0, 15), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_top_deviation_direction_matches_eigh(d, extra, tall, seed):
    # tall factors (m > d) solve on A^T A, wide ones (m <= d) on A A^T
    m = d + 1 + extra if tall else max(1, d - extra)
    rng = np.random.default_rng(seed)
    members = rng.dirichlet(np.ones(d), size=m)
    q = rng.dirichlet(np.ones(m))
    # s and the direction u = w / s each an arbitrary positive vector
    s = rng.uniform(0.1, 1.0, size=d)
    w = s * rng.uniform(0.1, 1.0, size=d)
    t, x, A = _check_direction(members, w, q, s)
    vals, vecs = np.linalg.eigh(A.T @ A)
    assert t == pytest.approx(max(vals[-1], 0.0), rel=1e-10, abs=1e-15)
    if vals[-1] - vals[-2] > 1e-6 * vals[-1]:
        assert abs(x @ vecs[:, -1]) >= 1 - 1e-9


def test_top_deviation_single_member():
    # m = 1: a 1 x 1 Gram, whose top eigenvector is the member's own
    # projected deviation
    members = np.array([[0.5, 0.2, 0.3]])
    w = np.array([0.2, 0.3, 0.5])
    q, s = np.ones(1), np.sqrt(w)
    t, x, A = _check_direction(members, w, q, s)
    assert t == pytest.approx(float(A[0] @ A[0]), rel=1e-14)
    assert abs(x @ A[0]) / np.linalg.norm(A[0]) == pytest.approx(1.0,
                                                                 abs=1e-15)


@pytest.mark.parametrize("m, d", [(5, 7), (9, 4), (_BIG, _BIG + 11),
                                  (_BIG + 11, _BIG)])
def test_top_deviation_rank_one(m, d):
    # every member deviates from w along the same vector v, so A has rank 1
    # and its top eigenvector is v / s with the u component removed
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(d))
    v = rng.standard_normal(d)
    c = rng.uniform(-1.0, 1.0, size=m) * 1e-3
    members = w + c[:, None] * v
    q = rng.dirichlet(np.ones(m))
    s = np.sqrt(w)
    t, x, _ = _check_direction(members, w, q, s)
    un = w / s / np.linalg.norm(w / s)
    e = v / s - (v / s @ un) * un
    assert t == pytest.approx(float(q @ c**2) * float(e @ e), rel=1e-12)
    assert abs(x @ e) / np.linalg.norm(e) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("m, d", [(4, 6), (8, 3), (_BIG, _BIG + 9),
                                  (_BIG + 9, _BIG)])
def test_top_deviation_tiny_deviations(m, d):
    # deviations near 1e-150 give a Gram near 1e-300: the scaled solve (or
    # the Lanczos run on A over its largest entry) neither overflows nor
    # underflows, and the direction is that of the same deviations at unit
    # scale. s = 1, so u is along w at both scales; w's entries stay above
    # 0.1, so that u = 1e-150 w / s squares to normal numbers
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 1.0, size=d)
    dev = rng.uniform(0.5, 1.5, size=(m, d)) * rng.choice([-1.0, 1.0],
                                                          size=(m, d))
    q = rng.dirichlet(np.ones(m))
    s = np.ones(d)
    t, x, _ = _check_direction(1e-150 * (w + dev), 1e-150 * w, q, s)
    with np.errstate(all="raise"):
        t1, x1 = klgeom._top_deviation(w + dev, w, q, s, vectors=True)
    assert 0.0 < t < 1e-290
    assert t == pytest.approx(1e-300 * t1, rel=1e-12)
    assert abs(x @ x1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_top_deviation_identical_rows_zero_vector(m):
    w = np.array([0.1, 0.2, 0.3, 0.4])
    members = np.tile(w, (m, 1))
    with np.errstate(all="raise"):
        t, x = klgeom._top_deviation(members, w, np.full(m, 1.0 / m),
                                     np.sqrt(w), vectors=True)
    assert t == 0.0 and x.shape == (4,) and not x.any()


# --- the Lanczos path: Grams whose smaller side is above _DENSE_MAX ---
# (the rank-one and 1e-150 cases above take it too, at _BIG)

def _top_gram_eigenvalue(A):
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return float(np.linalg.eigvalsh(G)[-1])


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 80), st.booleans(), st.integers(0, 2**32 - 1))
def test_top_deviation_lanczos_matches_eigvalsh(extra, tall, seed):
    r = klgeom._DENSE_MAX + 1 + extra % 40
    m, d = (r + 1 + extra, r) if tall else (r, r + extra)
    rng = np.random.default_rng(seed)
    members = rng.dirichlet(np.ones(d), size=m)
    w = rng.dirichlet(np.ones(d))
    q = rng.dirichlet(np.ones(m))
    # s and the direction u = w / s each an arbitrary positive vector
    s = rng.uniform(0.1, 1.0, size=d)
    w = s * rng.uniform(0.1, 1.0, size=d)
    t, x, A = _check_direction(members, w, q, s)
    assert t == pytest.approx(_top_gram_eigenvalue(A), rel=1e-12)


@pytest.mark.parametrize("m, d", [(_BIG, _BIG + 7), (_BIG + 7, _BIG)])
def test_top_deviation_lanczos_double_top_eigenvalue(m, d):
    # members = sqrt(m) L diag(sv) R^T with R orthogonal to u, w = u, s = 1
    # and uniform q, so A = sqrt(q) members has singular values sv: the top
    # eigenvalue 4 is exactly double, and the direction is a vector of its
    # 2-dimensional eigenspace, the same on every call
    rng = np.random.default_rng(8)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    r = min(m, d) - 1
    L, _ = np.linalg.qr(rng.standard_normal((m, r)))
    R = rng.standard_normal((d, r))
    R, _ = np.linalg.qr(R - np.outer(u, u @ R))
    sv = np.concatenate([[2.0, 2.0], np.linspace(1.5, 0.1, r - 2)])
    members = np.sqrt(m) * (L * sv) @ R.T
    q = np.full(m, 1.0 / m)
    w, s = u, np.ones(d)
    t, x, _ = _check_direction(members, w, q, s)
    t2, x2 = klgeom._top_deviation(members, w, q, s, vectors=True)
    assert t == t2 and np.array_equal(x, x2)
    assert t == pytest.approx(4.0, rel=1e-12)
    assert np.linalg.norm(R[:, :2].T @ x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m, d", [(_BIG, _BIG + 5), (_BIG + 5, _BIG)])
def test_top_deviation_lanczos_identical_rows_zero_vector(m, d):
    w = np.random.default_rng(4).dirichlet(np.ones(d))
    members = np.tile(w, (m, 1))
    q = np.full(m, 1.0 / m)
    with np.errstate(all="raise"):
        t, x = klgeom._top_deviation(members, w, q, np.sqrt(w),
                                     vectors=True)
        t_only = klgeom._top_deviation(members, w, q, np.sqrt(w))
    assert t == 0.0 and t_only == 0.0
    assert x.shape == (d,) and not x.any()


@pytest.mark.parametrize("mode", ["plain", "whiten"])
def test_heterogeneity_lanczos_on_400_state_superstates(mode):
    # k = 1..3 of a select-400 style chain hold superstates of 400, 320 and
    # 240 states, the sizes the old power iteration stopped short on; each
    # scores the top eigenvalue of its Gram within 1e-12
    pi, _ = gen_ncd(blocks=[80] * 5, eps=0.02, seed=11)
    rows = pi.rows
    parts = _planted_partitions([80] * 5, 8, seed=11)
    large = 0
    for k in (1, 2, 3):
        prof = _profile(rows, parts[k], mode=mode)
        Q = hard_membership(parts[k])
        for j in range(k):
            idx = np.flatnonzero(parts[k].assign == j)
            members, q = rows[idx], Q[idx, j]
            w = q @ members
            s = w if mode == "plain" else np.sqrt(q @ members)
            A, _ = _factor(members, w, q, s)
            assert prof[j] == pytest.approx(_top_gram_eigenvalue(A),
                                            rel=1e-12)
            large += len(idx) > klgeom._DENSE_MAX
    assert large == 3
