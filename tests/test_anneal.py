import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcagg.anneal import (AnnealConfig, anneal, critical_temperature,
                          extract_hard_partition, fixed_point,
                          hessian_quadratic_form)
from mcagg.core import simplex_basis, stationary_distribution
from mcagg.errors import (DimensionMismatch, InadmissiblePerturbation,
                          NoConvergence, NonPositiveTemperature)
from mcagg.generators import gen_ncd
from mcagg.klgeom import (_FLOOR, _TINY, SoftAssociation, _Gibbs, _kl_rows,
                          _self_entropy, _softmin, distance_matrix,
                          free_energy, gibbs_weights, posterior_and_centroids)
from mcagg.pipeline import aggregate_fixed_k

anneal_module = importlib.import_module("mcagg.anneal")
klgeom_module = importlib.import_module("mcagg.klgeom")

PI2 = np.array([[0.9, 0.1], [0.1, 0.9]])


def _groups_equal(a, b):
    """Same partition up to superstate relabeling."""
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) \
        == len(set(b.tolist()))


# --- critical_temperature ---

def test_critical_temperature_two_state():
    assoc = SoftAssociation(p=np.ones((2, 1)))
    rep = critical_temperature(PI2, None, np.array([[0.5, 0.5]]), assoc)
    assert rep.t_cr == pytest.approx(0.64, rel=1e-12)
    assert rep.per_superstate.shape == (1,)
    assert rep.t_cr == rep.per_superstate.max()


def test_critical_temperature_zero_deviation():
    rows = np.tile([0.3, 0.7], (3, 1))
    assoc = SoftAssociation(p=np.ones((3, 1)))
    rep = critical_temperature(rows, None, rows[:1], assoc)
    assert rep.t_cr == pytest.approx(0.0, abs=1e-12)


def test_critical_temperature_nonnegative_entries():
    rng = np.random.default_rng(11)
    rows = rng.dirichlet(np.ones(5), size=5)
    Z = rng.dirichlet(np.ones(5), size=2)
    assoc = gibbs_weights(distance_matrix(rows, Z), T=0.5)
    rep = critical_temperature(rows, None, Z, assoc)
    assert (rep.per_superstate >= 0).all()


def _whiten_eigs(rows, rho, z, p_given_j, floor):
    """Reference: the Helmert-basis, Cholesky-whitened eigensolve that
    _critical_full replaced, kept verbatim except that a failed Cholesky
    raises numpy's LinAlgError and the full spectrum is returned as well.

    Returns (t_cr, direction in the full space, ascending eigenvalues).
    """
    n = rows.shape[1]
    sup = np.where(z > floor)[0]
    if len(sup) < 2:
        return 0.0, np.zeros(n), np.zeros(1)
    zs = z[sup]
    pis = rows[:, sup]
    Y = simplex_basis(len(sup))
    lam = (p_given_j @ pis) / zs**2
    H0 = Y.T @ (lam[:, None] * Y)
    V = (pis - zs) / zs
    B = V @ Y
    H1 = B.T @ (p_given_j[:, None] * B)
    L = np.linalg.cholesky(H0)
    C = np.linalg.solve(L, np.linalg.solve(L, H1).T).T
    C = 0.5 * (C + C.T)
    vals, vecs = np.linalg.eigh(C)
    tcr = float(max(vals[-1], 0.0))
    w = np.linalg.solve(L.T, vecs[:, -1])
    d = Y @ w
    full = np.zeros(n)
    full[sup] = d
    nrm = np.linalg.norm(full)
    if nrm > 0:
        full = full / nrm
    return tcr, full, vals


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_critical_full_matches_whitened_reference(n, k, seed):
    # well-conditioned chains: every entry, centroid coordinate and
    # posterior-weighted mass is at least 1e-3
    rng = np.random.default_rng(seed)
    rows = (1 - n * 1e-3) * rng.dirichlet(np.ones(n), size=n) + 1e-3
    rho = rng.dirichlet(np.ones(n))
    Z = (1 - n * 1e-3) * rng.dirichlet(np.ones(n), size=k) + 1e-3
    p = rng.dirichlet(np.ones(k), size=n)
    posterior = rho[:, None] * p
    posterior /= posterior.sum(axis=0)
    assoc = SoftAssociation(p=p, posterior=posterior)
    tcrs, dirs, sigmas = anneal_module._critical_full(rows, rho, Z, assoc)
    t_only = critical_temperature(rows, rho, Z, assoc).per_superstate
    for j in range(k):
        t_ref, d_ref, vals = _whiten_eigs(rows, rho, Z[j], posterior[:, j],
                                          1e-12)
        assert tcrs[j] == pytest.approx(t_ref, rel=1e-10)
        assert t_only[j] == tcrs[j]
        # the spread is the members' posterior-weighted RMS along dirs[j]
        spread = np.sqrt(posterior[:, j] @ ((rows - Z[j]) @ dirs[j]) ** 2)
        assert sigmas[j] == pytest.approx(spread, rel=1e-12)
        assert np.linalg.norm(dirs[j]) == pytest.approx(1.0, abs=1e-12)
        assert abs(dirs[j].sum()) < 1e-12
        if len(vals) < 2 or vals[-1] - vals[-2] > 1e-6 * vals[-1]:
            assert abs(dirs[j] @ d_ref) >= 1 - 1e-9


def test_critical_full_two_members_closed_form_near_floor():
    # Two equal-weight members a, b: the whitened covariance has rank 1 and
    # t_cr = sum_c (a_c - b_c)^2 / (2 (a_c + b_c)) over the kept coordinates.
    # Coordinate 0 of the centroid sits just above the floor, where the
    # Cholesky whitening of the reference loses accuracy.
    a = np.array([4e-12, 0.3, 0.5, 0.2 - 4e-12, 0.0])
    b = np.array([0.0, 0.6, 0.1, 0.3, 0.0])
    rows = np.array([a, b])
    z = 0.5 * (a + b)
    keep = z > 0
    exact = float(np.sum((a - b)[keep] ** 2 / (2 * (a + b)[keep])))
    ones = SoftAssociation(p=np.ones((2, 1)), posterior=np.full((2, 1), 0.5))
    tcrs, dirs, sigmas = anneal_module._critical_full(
        rows, np.full(2, 0.5), z[None, :], ones)
    assert tcrs[0] == pytest.approx(exact, rel=1e-12)
    rep = critical_temperature(rows, None, z[None, :], ones)
    assert rep.t_cr == pytest.approx(exact, rel=1e-12)
    # the split direction of a rank-1 form is along the whitened deviation
    d = (a - b)[keep]
    assert abs(dirs[0][keep] @ d) / np.linalg.norm(d) == pytest.approx(
        1.0, abs=1e-9)
    assert dirs[0][~keep] == 0.0
    # the members sit at z +/- (a - b) / 2, so their spread along the
    # direction is half the distance between them
    assert sigmas[0] == pytest.approx(abs((a - b) @ dirs[0]) / 2, rel=1e-12)


def test_critical_full_zero_posterior_mass_coordinates():
    # The centroid is positive everywhere, but the posterior puts all its
    # mass on rows 0 and 1, which are zero on coordinates 2 and 3. Those
    # coordinates have no curvature, so they are dropped with the floored
    # ones instead of being divided by zero; the Cholesky-whitened
    # reference cannot factor this form.
    rows = np.array([[0.6, 0.4, 0.0, 0.0],
                     [0.2, 0.8, 0.0, 0.0],
                     [0.1, 0.1, 0.4, 0.4],
                     [0.0, 0.2, 0.3, 0.5]])
    Z = np.full((1, 4), 0.25)
    assoc = SoftAssociation(p=np.ones((4, 1)),
                            posterior=np.array([[0.5], [0.5], [0.0], [0.0]]))
    with np.errstate(all="raise"):
        tcrs, dirs, _ = anneal_module._critical_full(rows, np.full(4, 0.25),
                                                     Z, assoc)
    assert np.isfinite(tcrs[0]) and tcrs[0] >= 0.0
    assert np.isfinite(dirs[0]).all()
    assert np.linalg.norm(dirs[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(dirs[0].sum()) < 1e-12
    assert (dirs[0][2:] == 0.0).all()
    rep = critical_temperature(rows, None, Z, assoc)
    assert rep.t_cr == tcrs[0]
    with pytest.raises(np.linalg.LinAlgError):
        _whiten_eigs(rows, None, Z[0], assoc.posterior[:, 0], 1e-12)


def test_critical_full_identical_rows_zero_direction():
    # a zero top eigenvalue gives a zero direction and spread; a centroid
    # with one gets two coincident shadow copies, which merge back
    rows = np.tile([0.3, 0.7], (3, 1))
    assoc = SoftAssociation(p=np.ones((3, 1)), posterior=np.full((3, 1), 1 / 3))
    tcrs, dirs, sigmas = anneal_module._critical_full(rows, np.full(3, 1 / 3),
                                                      rows[:1], assoc)
    assert tcrs[0] == 0.0 and not dirs.any() and sigmas[0] == 0.0


def test_critical_full_multiple_top_eigenvalue_deterministic():
    # Three closed classes of equal stationary mass: the first critical
    # temperature is a double eigenvalue (1), so the split direction is a
    # vector of a 2-dimensional eigenspace. It is the same on every call,
    # unit, tangent, and its Rayleigh quotient of the whitened form is t.
    pi, _ = gen_ncd(blocks=[4] * 3, eps=0.0, seed=0)
    rows = pi.rows
    rho = stationary_distribution(rows)
    z = rho @ rows
    ones = SoftAssociation(p=np.ones((12, 1)), posterior=rho[:, None])
    with np.errstate(all="raise"):
        t1, d1, _ = anneal_module._critical_full(rows, rho, z[None, :], ones)
        t2, d2, _ = anneal_module._critical_full(rows, rho, z[None, :], ones)
    _, _, vals = _whiten_eigs(rows, rho, z, rho, 1e-12)
    assert vals[-2] == pytest.approx(vals[-1], rel=1e-12)
    assert np.array_equal(t1, t2) and np.array_equal(d1, d2)
    d = d1[0]
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    assert abs(d.sum()) < 1e-12
    V = (rows - z) / z
    num = float(rho @ (V @ d) ** 2)
    den = float(d @ ((rho @ rows) / z**2 * d))
    assert num / den == pytest.approx(t1[0], rel=1e-12)



# --- the stacked critical-temperature solve against the per-centroid one ---

def _reference_top_deviation(members, w, q, s, u):
    """klgeom._top_deviation(members, w, q, s, u, vectors=True) for one
    superstate as it was before batching, kept verbatim."""
    U = (members - w) / s
    u = u / np.linalg.norm(u)
    A = np.sqrt(q)[:, None] * (U - np.outer(U @ u, u))
    wide = A.shape[0] <= A.shape[1]
    if min(A.shape) > klgeom_module._DENSE_MAX:
        t, y = klgeom_module._lanczos_top(A, wide)
    else:
        G = A @ A.T if wide else A.T @ A
        t = np.linalg.eigvalsh(G).max(initial=0.0)
        if not t > 0:
            return 0.0, np.zeros(A.shape[1])
        G = G / t
        rhs = G @ klgeom_module._start_vector(G.shape[0])
        G.flat[::G.shape[0] + 1] -= 1.0 + 2.0**-36   # the diagonal
        y = np.linalg.solve(G, rhs)
    x = A.T @ y if wide else y
    nrm = np.linalg.norm(x)
    if not nrm > 0:
        return 0.0, np.zeros(A.shape[1])
    return float(t), x / nrm


def _reference_critical_full(rows, rho, Z, assoc):
    """anneal._critical_full as it was before batching, one solve per
    centroid, kept verbatim but for the name of the kernel it calls."""
    k = Z.shape[0]
    posterior = anneal_module._posterior_from(rows, rho, assoc)
    tcrs = np.zeros(k)
    dirs = np.zeros((k, rows.shape[1]))
    sigmas = np.zeros(k)
    for j in range(k):
        mass = float((rho * assoc.p[:, j]).sum())
        if mass < _TINY:
            continue
        q = posterior[:, j]
        s2 = q @ rows
        keep = np.flatnonzero((Z[j] > _FLOOR) & (s2 > 0))
        if len(keep) < 2:
            continue
        sub, z, s = rows[:, keep], Z[j, keep], np.sqrt(s2[keep])
        tcrs[j], x = _reference_top_deviation(sub, z, q, s, z / s)
        d = x * z / s
        nrm = np.linalg.norm(d)
        if nrm > 0:
            d = d / nrm
            dirs[j, keep] = d
            sigmas[j] = math.sqrt(q @ ((sub - z) @ d) ** 2)
    return tcrs, dirs, sigmas


def _assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()   # signed zeros too


def _sparse_rows(rng, n, d, zero_frac):
    """n rows on the simplex in d coordinates, each entry zero with
    probability zero_frac, and at least one entry of each row positive."""
    rows = rng.dirichlet(np.ones(d), size=n)
    rows[rng.random((n, d)) < zero_frac] = 0.0
    rows[np.arange(n), rng.integers(0, d, size=n)] += 0.5
    return rows / rows.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8), st.sampled_from([0.0, 0.5, 0.8]),
       st.sampled_from(["plain", "dead", "identical", "multiple"]),
       st.integers(0, 2**32 - 1))
def test_critical_full_matches_per_centroid_reference(n, k, zero_frac, case,
                                                      seed):
    # Centroids are mixtures of a few rows, so with zero entries their keep
    # patterns differ within a bank: batches of one and of several mix.
    # "dead" zeroes one centroid's weights, "identical" puts some centroids
    # on the rows' common value (t = 0) and "multiple" solves copies of the
    # centroid of three closed classes of equal mass (a double top
    # eigenvalue).
    rng = np.random.default_rng(seed)
    if case == "multiple":
        pi, _ = gen_ncd(blocks=[max(2, n // 3)] * 3, eps=0.0, seed=seed % 97)
        rows = pi.rows
        n = len(rows)
        rho = stationary_distribution(rows)
        Z = np.tile(rho @ rows, (k, 1))
    else:
        rows = _sparse_rows(rng, n, n, zero_frac)
        if case == "identical":
            rows[:] = rows[0]
        rho = rng.dirichlet(np.ones(n))
        W = rng.dirichlet(np.ones(n), size=k)
        W[rng.random((k, n)) < zero_frac] = 0.0
        W[np.arange(k), rng.integers(0, n, size=k)] += 0.5
        Z = W @ rows / W.sum(axis=1, keepdims=True)
        if case == "identical":
            Z[rng.random(k) < 0.5] = rows[0]
    p = rng.dirichlet(np.ones(k), size=n)
    p[rng.random((n, k)) < zero_frac / 2] = 0.0
    p[np.arange(n), rng.integers(0, k, size=n)] += 0.5
    if case == "dead":
        p[:, rng.integers(0, k)] = 0.0
    p = p / np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
    assoc = SoftAssociation(p=p)
    ref = _reference_critical_full(rows, rho, Z, assoc)
    for got, want in zip(anneal_module._critical_full(rows, rho, Z, assoc),
                         ref):
        _assert_same_bits(got, want)
    if case == "identical":
        assert (ref[0][(Z == rows[0]).all(axis=1)] == 0.0).all()


# just above the cutoff, where each item takes Lanczos
_JUST_ABOVE = klgeom_module._DENSE_MAX + 1


@pytest.mark.parametrize("m, d", [(6, 11), (11, 6),
                                  (_JUST_ABOVE, _JUST_ABOVE + 6),
                                  (_JUST_ABOVE + 6, _JUST_ABOVE)])
def test_top_deviation_batch_matches_its_one_item_calls(m, d):
    # a batch of four superstates over the same members: each item has the
    # bits of its own 1-D call, which has those of the kernel before
    # batching; the item with no posterior weight (A = 0, t = 0) returns
    # zeros
    rng = np.random.default_rng(m * d)
    members = rng.dirichlet(np.ones(d), size=m)
    w = rng.dirichlet(np.ones(d), size=4)
    q = rng.dirichlet(np.ones(m), size=4)
    q[2] = 0.0
    s = rng.uniform(0.1, 1.0, size=(4, d))
    u = rng.uniform(0.1, 1.0, size=(4, d))
    top = klgeom_module._top_deviation
    t, x = top(members, w, q, s, u, vectors=True)
    _assert_same_bits(top(members, w, q, s, u), t)
    assert t.shape == (4,) and x.shape == (4, d)
    for i in range(4):
        t1, x1 = top(members, w[i], q[i], s[i], u[i], vectors=True)
        t_ref, x_ref = _reference_top_deviation(members, w[i], q[i], s[i],
                                                u[i])
        assert t[i] == t1 == t_ref
        _assert_same_bits(x[i], x1)
        _assert_same_bits(x1, x_ref)
    assert t[2] == 0.0 and not x[2].any() and (t[[0, 1, 3]] > 0).all()


# --- fixed_point ---

def test_fixed_point_k1_is_weighted_mean():
    Z, assoc = fixed_point(PI2, None, np.array([[0.6, 0.4]]), T=1.0)
    assert np.allclose(Z[0], [0.5, 0.5], atol=1e-12)
    assert np.allclose(assoc.p, 1.0, atol=1e-15)


def test_fixed_point_identical_rows():
    rows = np.tile([0.25, 0.75], (4, 1))
    Z0 = np.array([[0.5, 0.5], [0.9, 0.1]])
    Z, _ = fixed_point(rows, None, Z0, T=0.2)
    assert np.allclose(Z, [0.25, 0.75], atol=1e-8)


def test_fixed_point_splits_below_critical():
    # below T_cr = 0.64 the symmetric solution is unstable
    Z0 = np.array([[0.501, 0.499], [0.499, 0.501]])
    Z, _ = fixed_point(PI2, None, Z0, T=0.05)
    assert np.allclose(np.sort(Z[:, 0]), [0.1, 0.9], atol=1e-3)


@pytest.mark.parametrize("T", [0.0, -1.0])
def test_fixed_point_rejects_non_positive_temperature(T):
    Z0 = np.array([[0.501, 0.499], [0.499, 0.501]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonPositiveTemperature):
            fixed_point(PI2, None, Z0, T=T)


def test_fixed_point_free_energy_monotone():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(5), size=5)
    Z = rng.dirichlet(np.ones(5), size=3)
    rho = np.full(5, 0.2)
    prev = free_energy(rows, Z, rho, T=0.3)
    for _ in range(60):
        assoc = gibbs_weights(distance_matrix(rows, Z), T=0.3)
        _, Z = posterior_and_centroids(rows, assoc.p, rho)
        cur = free_energy(rows, Z, rho, T=0.3)
        assert cur <= prev + 1e-10
        prev = cur


def test_fixed_point_no_convergence_carries_last():
    Z0 = np.array([[0.501, 0.499], [0.499, 0.501]])
    with pytest.raises(NoConvergence) as exc:
        fixed_point(PI2, None, Z0, T=0.05, tol=1e-15, max_iter=1)
    Z, assoc = exc.value.last
    assert Z.shape == (2, 2)
    assert assoc.p.shape == (2, 2)


def _plain_fixed_point(rows, rho, Z, T, tol=1e-13, max_iter=200_000):
    """Reference: the unaccelerated Gibbs-weight / centroid iteration."""
    for _ in range(max_iter):
        assoc = gibbs_weights(distance_matrix(rows, Z), T)
        _, Znew = posterior_and_centroids(rows, assoc.p, rho)
        if np.abs(Znew - Z).max() < tol:
            return Znew
        Z = Znew
    raise AssertionError("reference iteration did not converge")


def _plain_residual(rows, rho, Z, T):
    assoc = gibbs_weights(distance_matrix(rows, Z), T)
    return np.abs(posterior_and_centroids(rows, assoc.p, rho)[1] - Z).max()


# Temperatures are multiples of the chain's first critical temperature t_cr,
# kept away from it: at T = t_cr the plain iteration converges sublinearly.
# Above t_cr both iterations must reach the merged bank. Below it, the
# extrapolation may settle in another local minimum than the plain
# iteration does, so only the fixed-point and free-energy properties are
# checked there. A bank one step past convergence moves by
# the contraction rate times the last step, and that rate nears 1 close to a
# critical temperature, hence the factor 2 on the residual.
@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10_000),
       st.one_of(st.floats(0.25, 0.8), st.floats(1.1, 4.0)))
def test_fixed_point_accelerated_matches_plain(n, k, seed, ratio):
    rng = np.random.default_rng(seed)
    rows = 0.9 * rng.dirichlet(np.ones(n), size=n) + 0.1 / n
    rho = rng.dirichlet(np.ones(n))
    Z0 = rng.dirichlet(np.ones(n), size=k) @ rows
    ones = SoftAssociation(p=np.ones((n, 1)), posterior=rho[:, None])
    t_cr = critical_temperature(rows, rho, (rho @ rows)[None, :], ones).t_cr
    T = ratio * t_cr
    tol = 1e-10
    Z, _ = fixed_point(rows, rho, Z0, T, tol=tol, max_iter=20_000)
    assert _plain_residual(rows, rho, Z, T) < 2 * tol
    assert free_energy(rows, Z, rho, T) <= free_energy(rows, Z0, rho, T) + 1e-10
    if ratio > 1:
        ref = _plain_fixed_point(rows, rho, Z0, T)
        assert np.abs(Z - ref).max() < 1e-5


def test_fixed_point_sparse_rows_keep_exact_zeros():
    # two blocks with disjoint supports; two centroids share block A and one
    # sits on block B, so every step meets +inf cross-block distances
    rng = np.random.default_rng(4)
    rows = np.zeros((6, 6))
    rows[:4, :3] = rng.dirichlet(np.ones(3), size=4)
    rows[4:, 3:] = rng.dirichlet(np.ones(3), size=2)
    rho = np.full(6, 1 / 6)
    Z0 = np.vstack([rng.dirichlet(np.ones(4), size=2) @ rows[:4],
                    rows[4:].mean(axis=0)])
    T = 0.1     # soft enough within block A that extrapolation engages
    Z, assoc = fixed_point(rows, rho, Z0, T, tol=1e-10, max_iter=20_000)
    ref = _plain_fixed_point(rows, rho, Z0, T)
    assert np.abs(Z - ref).max() < 1e-5
    assert np.array_equal(Z == 0, ref == 0)
    assert np.array_equal(Z == 0, Z0 == 0)
    assert np.isinf(distance_matrix(rows, Z)).sum() == 8
    assert np.all(assoc.p[:4, 2] == 0) and np.all(assoc.p[4:, :2] == 0)


def test_anneal_fixed_points_never_raise_free_energy(monkeypatch):
    # An extrapolation that raises the free energy above its cycle's start is
    # not taken, so across whole sweeps no map output of a fixed-point call
    # rises above the free energy of the bank that call started from.
    outputs, rises = [], []

    def recording(*args, **kwargs):
        out = posterior_and_centroids(*args, **kwargs)
        outputs.append(out[1])
        return out

    fp_iterate = anneal_module._fp_iterate

    def checked(rows, self_ent, positive, rho, Z0, T, tol, max_iter):
        outputs.clear()
        result = fp_iterate(rows, self_ent, positive, rho, Z0, T, tol,
                            max_iter)
        f0 = free_energy(rows, Z0, rho, T)
        rises.append(max(free_energy(rows, Z, rho, T) for Z in outputs) - f0)
        return result

    monkeypatch.setattr(anneal_module, "posterior_and_centroids", recording)
    monkeypatch.setattr(anneal_module, "_fp_iterate", checked)
    for seed in range(3):
        pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=seed)
        anneal(pi.rows, cfg=AnnealConfig(k_max=6))
    assert len(rises) > 10
    assert max(rises) <= 1e-10


# Two closed 2-state classes and two transient states that lead into them;
# under the stationary rho the transient states weigh exactly 0.
ZERO_WEIGHT_ROWS = np.array([[0.5, 0.5, 0, 0, 0, 0],
                             [0.3, 0.7, 0, 0, 0, 0],
                             [0, 0, 0.4, 0.6, 0, 0],
                             [0, 0, 0.8, 0.2, 0, 0],
                             [0.2, 0.3, 0.4, 0.1, 0, 0],
                             [0.1, 0.3, 0.5, 0.1, 0, 0]])


def _no_runtime_warnings(fn, caught):
    def wrapped(*args, **kwargs):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = fn(*args, **kwargs)
        caught.extend(w for w in seen
                      if issubclass(w.category, RuntimeWarning))
        return out
    return wrapped


def test_anneal_zero_weight_states_free_energy_finite(monkeypatch):
    # The transient states are at +inf from every centroid that lives on one
    # class, so their log-sum-exp is -inf; weighing 0, they must add nothing
    # to the free energy instead of 0 * -inf = NaN.
    rho = stationary_distribution(ZERO_WEIGHT_ROWS)
    assert np.array_equal(rho[4:], [0.0, 0.0])
    caught = []
    monkeypatch.setattr(anneal_module, "_fp_iterate", _no_runtime_warnings(
        anneal_module._fp_iterate, caught))
    monkeypatch.setattr(_Gibbs, "__call__", _no_runtime_warnings(
        _Gibbs.__call__, caught))
    res = anneal(ZERO_WEIGHT_ROWS, rho, AnnealConfig(k_max=5))
    assert not caught, [str(w.message) for w in caught]
    assert all(np.isfinite(f) for _, f, _ in res.trace)


# A bank for that chain at which the transient rows are at +inf from every
# centroid: two centroids over the first class and one on the second.
ZERO_WEIGHT_Z0 = np.array([[0.4, 0.4, 0.2, 0, 0, 0],
                           [0.3, 0.5, 0.2, 0, 0, 0],
                           [0, 0, 0.5, 0.5, 0, 0]])


def _jump_run(monkeypatch, rho, T, jump, banks=None):
    """_fp_iterate from ZERO_WEIGHT_Z0 with the first SQUAREM extrapolation
    replaced by jump. Returns the Gibbs weights of every map evaluation;
    a banks list, if given, receives every bank the Gibbs evaluator sees."""
    seen, jumps = [], [jump]
    monkeypatch.setattr(anneal_module, "_squarem",
                        lambda *cycle: jumps.pop() if jumps else None)
    if banks is not None:
        call = _Gibbs.__call__
        monkeypatch.setattr(_Gibbs, "__call__", lambda self, Z, energy=True:
                            banks.append(Z.copy()) or call(self, Z, energy))
    monkeypatch.setattr(anneal_module, "posterior_and_centroids",
                        lambda r, p, w: seen.append(p) or
                        posterior_and_centroids(r, p, w))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, _, ok = anneal_module._fp_iterate(
            ZERO_WEIGHT_ROWS, _self_entropy(ZERO_WEIGHT_ROWS),
            ZERO_WEIGHT_ROWS > 0, rho, ZERO_WEIGHT_Z0, T, 1e-12, 10_000)
    monkeypatch.undo()
    assert ok and not jumps
    return seen


def test_fixed_point_jump_accept_and_reject_with_zero_weight_states(
        monkeypatch):
    rows = ZERO_WEIGHT_ROWS
    rho = stationary_distribution(rows)
    T = 0.05
    f0 = free_energy(rows, ZERO_WEIGHT_Z0, rho, T)
    # a jump to the fixed point lowers the free energy and is taken: two
    # plain steps, then one step that confirms convergence
    Zfix = _plain_fixed_point(rows, rho, ZERO_WEIGHT_Z0, T)
    assert free_energy(rows, Zfix, rho, T) <= f0
    assert len(_jump_run(monkeypatch, rho, T, Zfix)) == 3
    # a jump that raises the free energy is dropped: no map is ever
    # evaluated at its Gibbs weights
    Zbad = np.array([[0.99, 0.01, 0, 0, 0, 0], [0.01, 0.99, 0, 0, 0, 0],
                     [0, 0, 0.5, 0.5, 0, 0]])
    assert free_energy(rows, Zbad, rho, T) > f0
    p_bad = gibbs_weights(distance_matrix(rows, Zbad), T).p
    seen = _jump_run(monkeypatch, rho, T, Zbad)
    assert not any(np.allclose(p, p_bad) for p in seen)


@pytest.mark.parametrize("where", ["negative entry", "zero where Z2 > 0"])
def test_fixed_point_drops_a_jump_off_the_simplex(monkeypatch, where):
    rows = ZERO_WEIGHT_ROWS
    rho = stationary_distribution(rows)
    T = 0.05
    jump = _plain_fixed_point(rows, rho, ZERO_WEIGHT_Z0, T)
    if where == "negative entry":
        jump[0, 0] += jump[0, 1] + 0.01
        jump[0, 1] = -0.01
    else:
        jump[0, 1] += jump[0, 0]
        jump[0, 0] = 0.0
    banks = []
    seen = _jump_run(monkeypatch, rho, T, jump, banks)
    # the evaluator's calls: the start, the middle plain step, then Z2,
    # where the cycle goes on in place of the jump
    assert banks[2][0, 0] > 0
    assert not any(np.array_equal(Z, jump) for Z in banks)
    if where != "negative entry":
        p_jump = gibbs_weights(distance_matrix(rows, jump), T).p
        assert not any(np.allclose(p, p_jump) for p in seen)


class _GeneralPathGibbs:
    """klgeom._Gibbs without its fast path: every bank goes through
    _kl_rows and _softmin, and the free energy sums over rho > 0."""

    def __init__(self, rows, self_ent, positive, rho, T):
        self.kernel_args = rows, self_ent, positive
        self.rho, self.T = rho, T

    def __call__(self, Z, energy=True):
        p, lse = _softmin(_kl_rows(*self.kernel_args, Z), self.T, energy)
        if not energy:
            return p, None
        live = self.rho > 0
        return p, -self.T * float(self.rho[live] @ lse[live])


def _gibbs_cases():
    """(rows, rho, bank, T, fast): a bank strictly above _TINY, a bank with
    an exact zero coordinate, and a rho with zero-weight states under each
    kind of bank."""
    rng = np.random.default_rng(8)
    rows = rng.dirichlet(np.ones(5), size=7)
    rho = rng.dirichlet(np.ones(7))
    Z = rng.dirichlet(np.ones(5), size=3)
    Zzero = Z.copy()
    Zzero[1, 1] += Zzero[1, 2]
    Zzero[1, 2] = 0.0
    zw_rho = stationary_distribution(ZERO_WEIGHT_ROWS)
    Zpos = rng.dirichlet(np.ones(6), size=3)
    return {"positive": (rows, rho, Z, 0.3, True),
            "zero coordinate": (rows, rho, Zzero, 0.3, False),
            "zero weight, positive bank": (ZERO_WEIGHT_ROWS, zw_rho, Zpos,
                                           0.05, True),
            "zero weight, zero coordinates": (ZERO_WEIGHT_ROWS, zw_rho,
                                              ZERO_WEIGHT_Z0, 0.05, False)}


@pytest.mark.parametrize("case", list(_gibbs_cases()))
def test_gibbs_fast_path_matches_general_path(monkeypatch, case):
    rows, rho, Z, T, fast = _gibbs_cases()[case]
    assert (Z.min() > _TINY) == fast
    kernel = (rows, _self_entropy(rows), rows > 0, rho, T)
    want = _GeneralPathGibbs(*kernel)
    calls = []
    monkeypatch.setattr(klgeom_module, "_kl_rows",
                        lambda *a: calls.append(1) or _kl_rows(*a))
    gibbs = _Gibbs(*kernel)
    p, f = gibbs(Z)
    q, _ = gibbs(Z, energy=False)
    assert len(calls) == (0 if fast else 2)
    p_want, f_want = want(Z)
    assert np.array_equal(p, p_want) and np.array_equal(q, p_want)
    assert f == f_want
    assert free_energy(rows, Z, rho, T) == f_want


@pytest.mark.parametrize("case", ["positive", "zero weight, positive bank",
                                  "zero weight, zero coordinates"])
def test_fixed_point_fast_path_matches_general_path(monkeypatch, case):
    rows, rho, Z0, T, _ = _gibbs_cases()[case]
    Z, assoc = fixed_point(rows, rho, Z0, T)
    monkeypatch.setattr(anneal_module, "_Gibbs", _GeneralPathGibbs)
    Z_want, assoc_want = fixed_point(rows, rho, Z0, T)
    assert np.array_equal(Z, Z_want)
    assert np.array_equal(assoc.p, assoc_want.p)
    assert np.array_equal(assoc.posterior, assoc_want.posterior)


def test_anneal_fast_path_matches_general_path(monkeypatch):
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=4)
    res = anneal(pi.rows, cfg=AnnealConfig(k_max=6))
    monkeypatch.setattr(anneal_module, "_Gibbs", _GeneralPathGibbs)
    want = anneal(pi.rows, cfg=AnnealConfig(k_max=6))
    assert res.trace == want.trace
    assert [e.assign.tolist() for e in res.entries] == \
        [e.assign.tolist() for e in want.entries]


@pytest.mark.parametrize("max_iter", [1, 2, 3, 7])
def test_fixed_point_max_iter_counts_map_evaluations(monkeypatch, max_iter):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return posterior_and_centroids(*args, **kwargs)

    monkeypatch.setattr(anneal_module, "posterior_and_centroids", counting)
    Z0 = np.array([[0.501, 0.499], [0.499, 0.501]])
    with pytest.raises(NoConvergence):
        fixed_point(PI2, None, Z0, T=0.5, tol=1e-15, max_iter=max_iter)
    assert len(calls) == max_iter


# --- hessian_quadratic_form ---

def _dup_assoc():
    return SoftAssociation(p=np.full((2, 2), 0.5))


def test_hessian_zero_perturbation():
    Zd = np.array([[0.5, 0.5], [0.5, 0.5]])
    v = hessian_quadratic_form(PI2, None, Zd, _dup_assoc(), 1.0,
                               np.zeros((2, 2)))
    assert v == 0.0


def test_hessian_rejects_inadmissible():
    Zd = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InadmissiblePerturbation):
        hessian_quadratic_form(PI2, None, Zd, _dup_assoc(), 1.0,
                               np.full((2, 2), 0.1))
    with pytest.raises(InadmissiblePerturbation):
        hessian_quadratic_form(PI2, None, Zd, _dup_assoc(), 1.0,
                               np.zeros((1, 2)))


def test_hessian_positive_for_identical_rows():
    rows = np.tile([0.4, 0.6], (3, 1))
    assoc = SoftAssociation(p=np.ones((3, 1)))
    v = hessian_quadratic_form(rows, None, rows[:1], assoc, 0.5,
                               np.array([[0.01, -0.01]]))
    assert v > 0.0


def test_hessian_sign_flip_around_critical():
    # duplicated centroid at the k=1 fixed point; t_cr = 0.64
    Zd = np.array([[0.5, 0.5], [0.5, 0.5]])
    rng = np.random.default_rng(5)
    for _ in range(100):
        raw = rng.standard_normal((2, 2))
        raw -= raw.mean(axis=1, keepdims=True)
        assert hessian_quadratic_form(PI2, None, Zd, _dup_assoc(),
                                      0.8, raw) > 0.0
    d = np.array([1.0, -1.0]) / np.sqrt(2)
    psi = 0.01 * np.stack([d, -d])
    assert hessian_quadratic_form(PI2, None, Zd, _dup_assoc(),
                                  0.60, psi) <= 0.0


# --- extract_hard_partition ---

def test_extract_tie_breaks_low():
    assoc = SoftAssociation(p=np.array([[0.5, 0.5]]))
    part = extract_hard_partition(assoc)
    assert part.assign[0] == 0


def test_extract_hard_rows_identity():
    assoc = SoftAssociation(p=np.eye(3))
    part = extract_hard_partition(assoc)
    assert np.array_equal(part.assign, [0, 1, 2])


def test_extract_matches_argmax_oracle():
    rng = np.random.default_rng(7)
    p = rng.dirichlet(np.ones(3), size=10)
    part = extract_hard_partition(SoftAssociation(p=p))
    raw = np.argmax(p, axis=1)
    used, compact = np.unique(raw, return_inverse=True)
    assert np.array_equal(part.assign, compact)


def test_extract_merge_map_groups_columns():
    p = np.array([[0.4, 0.4, 0.2], [0.1, 0.1, 0.8]])
    part = extract_hard_partition(SoftAssociation(p=p),
                                  merge_map={0: 0, 1: 0, 2: 1})
    # columns 0+1 merge to weight 0.8 > 0.2 for the first state
    assert np.array_equal(part.assign, [0, 1])


def test_extract_rho_scale_invariance():
    rng = np.random.default_rng(8)
    rows = rng.dirichlet(np.ones(4), size=6)
    rho = rng.uniform(0.5, 2.0, size=6)
    Z = rows[:2]
    D = distance_matrix(rows, Z)
    p = gibbs_weights(D, T=0.3).p
    post1, _ = posterior_and_centroids(rows, p, rho)
    post2, _ = posterior_and_centroids(rows, p, 13.0 * rho)
    a1 = extract_hard_partition(SoftAssociation(p=p, posterior=post1))
    a2 = extract_hard_partition(SoftAssociation(p=p, posterior=post2))
    assert np.array_equal(a1.assign, a2.assign)


def _loop_extract_hard_partition(assoc, merge_map=None):
    """extract_hard_partition with the per-column Python loop it had before
    np.add.at, kept verbatim as the reference."""
    p = assoc.p
    n, kb = p.shape
    if merge_map is None:
        merge_map = {j: j for j in range(kb)}
    n_distinct = len(set(merge_map.values()))
    grouped = np.zeros((n, n_distinct))
    for b in range(kb):
        grouped[:, merge_map[b]] += p[:, b]
    raw = np.argmax(grouped, axis=1)
    used, compact = np.unique(raw, return_inverse=True)
    return compact, len(used)


@pytest.mark.parametrize("seed", range(20))
def test_extract_matches_column_loop(seed):
    # merged columns summed in the same order give the same bytes, so the
    # same argmax, ties included (weights rounded to 0.1 make many)
    rng = np.random.default_rng(seed)
    kb, n = int(rng.integers(1, 13)), int(rng.integers(1, 20))
    p = rng.dirichlet(np.ones(kb), size=n)
    if seed % 2:
        p = np.round(p, 1)
    groups = rng.integers(0, kb, kb)
    _, index = np.unique(groups, return_inverse=True)
    for merge_map in (None, dict(enumerate(index.tolist()))):
        part = extract_hard_partition(SoftAssociation(p=p), merge_map)
        assign, k = _loop_extract_hard_partition(SoftAssociation(p=p),
                                                 merge_map)
        assert part.k == k
        assert part.assign.tobytes() == assign.tobytes()


# --- _merge_bank ---

def _loop_merge_bank(Z, tol):
    """_merge_bank with the pairwise O(k^2) Python loop it had before the
    broadcast test, kept verbatim as the reference."""
    k = Z.shape[0]
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(k):
        for b in range(a + 1, k):
            if np.abs(Z[a] - Z[b]).max() < tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(a) for a in range(k)})
    index = {r: i for i, r in enumerate(roots)}
    merge_map = {a: index[find(a)] for a in range(k)}
    Zm = np.stack([Z[[a for a in range(k) if find(a) == r]].mean(axis=0)
                   for r in roots])
    return Zm, merge_map


def _bank_with_near_duplicates(rng, k, n, tol):
    """k rows on the simplex where some rows sit within tol/2 of an earlier
    row, some chains a -> b -> c step by 0.6 tol, so c can be farther than
    tol from a and still join a through b, and some rows match an earlier
    row except for one coordinate 2 tol away, so they stay apart."""
    Z = rng.dirichlet(np.ones(n), size=k)
    for i in range(1, k):
        r = rng.random()
        step = np.zeros(n)
        step[rng.integers(0, n)] = tol
        if r < 0.3:
            Z[i] = Z[rng.integers(0, i)] + rng.uniform(-tol / 2, tol / 2, n)
        elif r < 0.5:
            Z[i] = Z[i - 1] + 0.6 * step
        elif r < 0.65:
            Z[i] = Z[rng.integers(0, i)] + 2 * step
    return Z


@pytest.mark.parametrize("seed", range(40))
def test_merge_bank_matches_pairwise_loop(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-6
    k, n = int(rng.integers(1, 17)), int(rng.integers(2, 12))
    Z = _bank_with_near_duplicates(rng, k, n, tol)
    Zm, merge_map = anneal_module._merge_bank(Z, tol)
    Zr, ref_map = _loop_merge_bank(Z, tol)
    assert merge_map == ref_map
    assert Zm.tobytes() == Zr.tobytes()


def test_merge_bank_chain_joins_through_middle():
    Z = np.array([[0.5, 0.5], [0.5 + 6e-7, 0.5], [0.5 + 1.2e-6, 0.5],
                  [0.1, 0.9], [0.5 + 1.2e-6, 0.5]])
    Zm, merge_map = anneal_module._merge_bank(Z, 1e-6)
    assert merge_map == {0: 0, 1: 0, 2: 0, 3: 1, 4: 0}
    assert merge_map == _loop_merge_bank(Z, 1e-6)[1]
    assert Zm.shape == (2, 2)


# --- anneal ---

def test_anneal_identical_rows_only_k1():
    common = np.array([0.1, 0.2, 0.3, 0.4])
    rows = np.tile(common, (4, 1))
    res = anneal(rows, cfg=AnnealConfig(k_max=4))
    assert [part.k for part in res.entries] == [1]


def test_anneal_exact_blocks_recovers_partition():
    proto = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
    rows = np.zeros((6, 6))
    for b in range(3):
        rows[2 * b:2 * b + 2, 2 * b:2 * b + 2] = proto[b]
    res = anneal(rows, cfg=AnnealConfig(k_max=3))
    by_k = {part.k: part for part in res.entries}
    assert 3 in by_k
    truth = np.repeat(np.arange(3), 2)
    assert _groups_equal(by_k[3].assign, truth)


def test_anneal_k_sequence_and_trace():
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=0)
    res = anneal(pi.rows, cfg=AnnealConfig(k_max=6))
    ks = [part.k for part in res.entries]
    assert ks[0] == 1
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert max(ks) <= 6
    Ts = [t for t, _, _ in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(Ts, Ts[1:]))


def test_anneal_deterministic():
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=2)
    cfg = AnnealConfig(k_max=5)
    r1 = anneal(pi.rows, cfg=cfg)
    r2 = anneal(pi.rows, cfg=cfg)
    assert [p.k for p in r1.entries] == [p.k for p in r2.entries]
    for p1, p2 in zip(r1.entries, r2.entries):
        assert np.array_equal(p1.assign, p2.assign)


@pytest.mark.parametrize("blocks, eps, rho_mode", [
    ([3, 3, 3], 0.05, "uniform"), ([4] * 3, 0.0, "stationary")])
def test_anneal_bit_identical_twice_in_one_process(blocks, eps, rho_mode):
    # the split directions' start vector is fixed and shared between calls,
    # so a second sweep repeats the first bit for bit; the equal-mass chain
    # has a double first critical temperature
    pi, _ = gen_ncd(blocks=blocks, eps=eps, seed=2)
    rho = stationary_distribution(pi.rows) if rho_mode == "stationary" \
        else None
    r1 = anneal(pi.rows, rho, AnnealConfig(k_max=6))
    r2 = anneal(pi.rows, rho, AnnealConfig(k_max=6))
    assert r1.trace == r2.trace
    assert len(r1.entries) == len(r2.entries)
    for p1, p2 in zip(r1.entries, r2.entries):
        assert p1.k == p2.k and np.array_equal(p1.assign, p2.assign)


def test_anneal_one_solve_per_temperature(monkeypatch):
    # The starting centroid is solved once, with its direction. Then each
    # temperature makes one fixed point and, unless the bank has reached
    # k_max, one solve of the merged bank, at that temperature.
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=2)
    events = []
    plain_full = anneal_module._critical_full
    plain_converge = anneal_module._converge
    plain_top = anneal_module._top_deviation

    def spying_full(rows, rho, Z, assoc):
        events.append(["solve", Z.shape[0], 0])
        return plain_full(rows, rho, Z, assoc)

    def spying_converge(rows, self_ent, positive, rho, Z, T, *args):
        events.append(["fp", T])
        return plain_converge(rows, self_ent, positive, rho, Z, T, *args)

    def counting_top(*args, **kwargs):
        events[-1][2] += 1
        return plain_top(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(anneal_module, "_critical_full", spying_full)
        m.setattr(anneal_module, "_converge", spying_converge)
        m.setattr(anneal_module, "_top_deviation", counting_top)
        res = anneal(pi.rows, cfg=AnnealConfig(k_max=6))
    temps = [t for t, _, _ in res.trace]
    ks = [k for _, _, k in res.trace]
    assert events[0] == ["solve", 1, 1]
    expected = []
    for t, k in zip(temps, ks):
        expected.append(["fp", t])
        if k < 6:
            expected.append(["solve", k])
    assert [e[:2] for e in events[1:]] == expected
    assert len(temps) > 5 and ks[-1] == 6


def _spy_fp(monkeypatch):
    """Record the bank size of every _fp_iterate call."""
    calls = []
    plain = anneal_module._fp_iterate

    def spying(rows, self_ent, positive, rho, Z, *args):
        calls.append(np.atleast_2d(Z).shape[0])
        return plain(rows, self_ent, positive, rho, Z, *args)
    monkeypatch.setattr(anneal_module, "_fp_iterate", spying)
    return calls


@pytest.mark.parametrize("case", ["absorbing", "identical-rows"])
def test_anneal_returns_k1_when_the_start_cannot_split(monkeypatch, case):
    # a starting centroid whose t_cr is below selection's exact-fit
    # threshold never splits: its posterior is rho at every T. The
    # absorbing chain's steady state is a point mass on state 0, and three
    # identical rows leave a t_cr of rounding noise (about 5e-33)
    if case == "absorbing":
        rows = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)[0].rows.copy()
        rows[0] = np.eye(9)[0]
        rho, k_max = stationary_distribution(rows), 6
    else:
        rows, rho, k_max = np.tile([0.604, 0.0, 0.396], (3, 1)), None, 3
    calls = _spy_fp(monkeypatch)
    res = anneal(rows, rho, AnnealConfig(k_max=k_max))
    assert calls == []
    assert [p.k for p in res.entries] == [1]
    assert not res.entries[0].assign.any()


def test_anneal_stops_once_no_centroid_can_split(monkeypatch):
    # two absorbing states, each the row of two states: once the bank
    # splits into them, both centroids have a single coordinate and t_cr 0,
    # and the sweep stops short of k_max, with one fixed point per
    # temperature and no dead shadow to drop
    rows = np.repeat(np.eye(4)[:2], 2, axis=0)
    calls = _spy_fp(monkeypatch)
    res = anneal(rows, cfg=AnnealConfig(k_max=4))
    assert [p.k for p in res.entries] == [1, 2]
    assert res.trace[-1][2] == 2
    assert calls == [2] + [2 * k for _, _, k in res.trace[:-1]]
    assert len(calls) < 20


def test_converge_drops_a_dead_bank_row():
    # row 1 lacks coordinate 0, which every state has, so every state is at
    # +inf from it and _fp_iterate raises EmptySuperstate; _converge drops
    # the row and settles the rest
    rows = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)[0].rows
    assert (rows[:, 0] > 0).all()
    rho = np.full(9, 1 / 9)
    z = rho @ rows
    dead = z.copy()
    dead[0] = 0.0
    dead /= dead.sum()
    warnings = []
    Z, assoc = anneal_module._converge(rows, _self_entropy(rows), rows > 0,
                                       rho, np.stack([z, dead]), 0.5,
                                       warnings)
    assert Z.shape == (1, 9) and assoc.p.shape == (9, 1)
    np.testing.assert_allclose(Z[0], z, rtol=0, atol=1e-15)
    assert warnings == []


# --- shadow offsets ---

def _loop_shadow_bank(Z, dirs, offsets):
    """_shadow_bank with the per-row Python loop it had before it was
    vectorized, kept verbatim as the reference."""
    out = []
    for j in range(Z.shape[0]):
        d = dirs[j]
        for s in (+1.0, -1.0):
            z = Z[j] + s * offsets[j] * d
            z = np.maximum(z, 1e-15)
            out.append(z / z.sum())
    return np.stack(out)


@pytest.mark.parametrize("seed", range(20))
def test_shadow_bank_matches_row_loop(seed):
    # offsets from _DELTA to ones large enough to clip coordinates at 1e-15,
    # and a zero direction, which gives two coincident copies
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 9)), int(rng.integers(2, 300))
    Z = rng.dirichlet(np.full(n, 0.3), size=k)
    dirs = rng.standard_normal((k, n))
    dirs -= dirs.mean(axis=1, keepdims=True)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs[rng.random(k) < 0.2] = 0.0
    offsets = rng.choice([anneal_module._DELTA, 0.01, 0.3, 2.0], size=k)
    bank = anneal_module._shadow_bank(Z, dirs, offsets)
    assert bank.tobytes() == _loop_shadow_bank(Z, dirs, offsets).tobytes()


def test_stable_centroid_keeps_delta_offsets_bit_for_bit():
    # centroids with t_cr <= T (the last one has t_cr 0 and no direction)
    # get exactly +/- _DELTA, so their shadow rows are those of a
    # constant-offset bank; only the unstable centroid's rows move, by an
    # offset sigma m in (_DELTA, sigma]
    rng = np.random.default_rng(3)
    Z = rng.dirichlet(np.ones(6), size=4)
    dirs = rng.standard_normal((4, 6))
    dirs -= dirs.mean(axis=1, keepdims=True)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs[3] = 0.0
    tcrs = np.array([0.3, 0.5, 0.8, 0.0])
    sigmas = np.array([0.2, 0.3, 0.25, 0.0])
    offsets = anneal_module._shadow_offsets(tcrs, sigmas, 0.5)
    delta = anneal_module._DELTA
    assert offsets[[0, 1, 3]].tolist() == [delta] * 3
    assert delta < offsets[2] <= sigmas[2]
    bank = anneal_module._shadow_bank(Z, dirs, offsets)
    plain = anneal_module._shadow_bank(Z, dirs, np.full(4, delta))
    stable = [0, 1, 2, 3, 6, 7]
    assert np.array_equal(bank[stable], plain[stable])
    assert not np.array_equal(bank[4:6], plain[4:6])


@pytest.mark.parametrize("beta", [1 + 1e-12, 1 + 1e-6, 1.001, 1 / 0.95, 1.5,
                                  3.0, 50.0, 1e6])
def test_split_amplitude_is_the_positive_mean_field_root(beta):
    m = anneal_module._split_amplitude(beta)
    assert 0.0 < m <= 1.0
    assert m - np.tanh(beta * m) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("beta", [1.0, 0.95, 0.5, 0.0])
def test_split_amplitude_is_zero_where_the_split_is_stable(beta):
    assert anneal_module._split_amplitude(beta) == 0.0


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_split_amplitude_near_the_transition(eps):
    # m = tanh(beta m) gives m^2 = 3 (beta - 1) to first order in beta - 1
    # (the next term is -0.9 (beta - 1) relative)
    m = anneal_module._split_amplitude(1.0 + eps)
    assert abs(m / np.sqrt(3 * eps) - 1.0) <= eps


def test_first_split_starts_at_its_amplitude(monkeypatch):
    # the first split of a two-block chain settles in fewer map evaluations
    # from its mean-field offset than from +/- _DELTA, and both starts merge
    # to the same two centroids
    rows = gen_ncd(blocks=[5, 5], eps=0.05)[0].rows
    count = [0]
    shadows, runs = [], []
    plain_step = anneal_module.posterior_and_centroids
    plain_shadow = anneal_module._shadow_bank
    plain_converge = anneal_module._converge

    def counting_step(*args):
        count[0] += 1
        return plain_step(*args)

    def spying_shadow(Z, dirs, offsets):
        shadows.append((Z, dirs, offsets))
        return plain_shadow(Z, dirs, offsets)

    def spying_converge(rows, self_ent, positive, rho, Z, T, warnings):
        start = count[0]
        out = plain_converge(rows, self_ent, positive, rho, Z, T, warnings)
        runs.append(((self_ent, positive, rho, T), count[0] - start, out[0]))
        return out

    monkeypatch.setattr(anneal_module, "posterior_and_centroids",
                        counting_step)
    monkeypatch.setattr(anneal_module, "_shadow_bank", spying_shadow)
    monkeypatch.setattr(anneal_module, "_converge", spying_converge)
    res = anneal(rows, cfg=AnnealConfig(k_max=2))
    assert [p.k for p in res.entries] == [1, 2]
    (self_ent, positive, rho, T), evals, bank = runs[-1]
    Z, dirs, offsets = shadows[-1]
    start = count[0]
    delta_bank = plain_shadow(Z, dirs, np.full(1, anneal_module._DELTA))
    plain, _ = plain_converge(rows, self_ent, positive, rho, delta_bank, T,
                              [])
    assert evals < count[0] - start
    assert offsets[0] > anneal_module._DELTA
    merged, _ = anneal_module._merge_bank(bank, anneal_module._MERGE_TOL)
    merged_plain, _ = anneal_module._merge_bank(plain,
                                                anneal_module._MERGE_TOL)
    assert merged.shape == merged_plain.shape == (2, 10)
    assert np.abs(merged - merged_plain).max() < anneal_module._MERGE_TOL


@pytest.mark.parametrize("seed", range(8))
def test_near_critical_pairs_merge_below_t_cr_split_above(seed):
    # the coupling of _FP_TOL and _MERGE_TOL: the starting centroid's shadow
    # pair, settled at _FP_TOL, must merge under _MERGE_TOL just above its
    # critical temperature, where the pair converges slowly onto one
    # centroid, and stay two centroids below it
    rows = gen_ncd(blocks=[5, 5], eps=0.05, seed=seed)[0].rows
    rho = np.full(10, 0.1)
    z0 = (rho @ rows)[None, :]
    ones = SoftAssociation(p=np.ones((10, 1)),
                           posterior=(rho / rho.sum())[:, None])
    tcrs, dirs, sigmas = anneal_module._critical_full(rows, rho, z0, ones)
    sizes = {}
    for ratio in (0.9, 0.95, 1.005, 1.01, 1.02, 1.05, 1.2):
        T = ratio * tcrs[0]
        bank = anneal_module._shadow_bank(
            z0, dirs, anneal_module._shadow_offsets(tcrs, sigmas, T))
        Z, _, ok = anneal_module._fp_iterate(
            rows, _self_entropy(rows), rows > 0, rho, bank, T,
            anneal_module._FP_TOL, anneal_module._FP_MAX_ITER)
        merged, _ = anneal_module._merge_bank(Z, anneal_module._MERGE_TOL)
        sizes[ratio] = merged.shape[0]
    assert sizes == {0.9: 2, 0.95: 2, 1.005: 1, 1.01: 1, 1.02: 1, 1.05: 1,
                     1.2: 1}


# --- aggregate_fixed_k ---

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_aggregate_fixed_k_structure(k):
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    part, model = aggregate_fixed_k(pi.rows, None, k)
    assert part.k == k
    assert np.abs(model.psi.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(model.distributions.sum(axis=1) - 1.0).max() < 1e-9


@pytest.mark.parametrize("k", [0, -1, 10, 12])
def test_aggregate_fixed_k_rejects_k_outside_one_to_n(k):
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    with pytest.raises(DimensionMismatch, match=f"k = {k} is outside 1..9"):
        aggregate_fixed_k(pi.rows, None, k)


@pytest.mark.parametrize("k_max", [0, -3])
def test_anneal_rejects_k_max_below_one(k_max):
    pi, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    with pytest.raises(DimensionMismatch, match=f"k_max = {k_max} is below 1"):
        anneal(pi.rows, cfg=AnnealConfig(k_max=k_max))
