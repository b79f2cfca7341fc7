import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcagg
from mcagg.core import (Partition, StochasticMatrix, _closure, as_rows,
                        make_partition, simplex_basis,
                        stationary_distribution, validate_stochastic)
from mcagg.errors import (DimensionMismatch, NegativeEntry, NonSquare,
                          RowSumViolation)
from mcagg.io import parse_matrix

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def test_validate_identity():
    m = validate_stochastic(np.eye(2))
    assert isinstance(m, StochasticMatrix)
    assert np.array_equal(m.rows, np.eye(2))


def test_validate_exact_rows_kept():
    rows = np.array([[0.7, 0.3], [0.2, 0.8]])
    m = validate_stochastic(rows)
    assert np.allclose(m.rows, rows, atol=1e-15)


def test_validate_row_sum_violation():
    with pytest.raises(RowSumViolation) as exc:
        validate_stochastic(np.array([[0.5, 0.6], [0.5, 0.5]]), tol=1e-9)
    assert exc.value.row == 0
    assert exc.value.total == pytest.approx(1.1)


def test_validate_clamps_tiny_negative():
    rows = np.array([[1.0 + 1e-12, -1e-12], [0.5, 0.5]])
    m = validate_stochastic(rows, tol=1e-9)
    assert (m.rows >= 0).all()
    assert np.allclose(m.rows.sum(axis=1), 1.0, atol=1e-15)


def test_validate_rejects_real_negative():
    with pytest.raises(NegativeEntry) as exc:
        validate_stochastic(np.array([[1.001, -0.001], [0.5, 0.5]]))
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_validate_nonsquare():
    with pytest.raises(NonSquare):
        validate_stochastic(np.ones((2, 3)) / 3)


def test_validate_label_count():
    with pytest.raises(DimensionMismatch):
        validate_stochastic(np.eye(2), labels=["a", "b", "c"])


def test_simplex_basis_n2():
    th = simplex_basis(2)
    assert np.allclose(th[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)],
                       atol=1e-15)


def test_simplex_basis_n3():
    th = simplex_basis(3)
    want = np.array([[1 / np.sqrt(2), 1 / np.sqrt(6)],
                     [-1 / np.sqrt(2), 1 / np.sqrt(6)],
                     [0.0, -2 / np.sqrt(6)]])
    assert np.allclose(th, want, atol=1e-15)


@pytest.mark.parametrize("n", list(range(2, 20)) + [50, 128, 256, 512])
def test_simplex_basis_orthonormal_zero_sum(n):
    th = simplex_basis(n)
    assert np.abs(th.T @ th - np.eye(n - 1)).max() < 1e-12
    assert np.abs(th.sum(axis=0)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 9, 10, 200, 419])
def test_simplex_basis_matches_column_definition(n):
    # column m (1-indexed): 1/sqrt(m(m+1)) on the first m coordinates,
    # -m/sqrt(m(m+1)) on coordinate m+1, zero below
    want = np.zeros((n, n - 1))
    for m in range(1, n):
        c = 1.0 / np.sqrt(m * (m + 1))
        want[:m, m - 1] = c
        want[m, m - 1] = -m * c
    assert np.array_equal(simplex_basis(n), want)


def test_simplex_basis_needs_two_states():
    with pytest.raises(DimensionMismatch):
        simplex_basis(1)


def _bfs_reach(adj):
    """Reference closure: a breadth-first search from every node."""
    n = len(adj)
    reach = np.zeros((n, n), dtype=bool)
    for s in range(n):
        reach[s, s] = True
        frontier = [s]
        while frontier:
            nxt = []
            for a in frontier:
                for b in np.flatnonzero(adj[a]):
                    if not reach[s, b]:
                        reach[s, b] = True
                        nxt.append(b)
            frontier = nxt
    return reach


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 0.4), st.integers(0, 10_000))
def test_closure_matches_breadth_first_search(n, density, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < density
    got = _closure(adj)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, _bfs_reach(adj))


def test_closure_of_a_long_path():
    # 0 -> 1 -> ... -> 39 needs six squarings; nothing reaches back
    adj = np.eye(40, k=1, dtype=bool)
    np.testing.assert_array_equal(_closure(adj),
                                  np.triu(np.ones((40, 40), dtype=bool)))


def test_stationary_identity_is_uniform():
    w = stationary_distribution(np.eye(3))
    assert np.allclose(w, 1 / 3, atol=1e-15)


def test_stationary_swap():
    w = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, 0.5, atol=1e-15)


def test_stationary_two_state():
    w = stationary_distribution(np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert np.allclose(w, [2 / 3, 1 / 3], atol=1e-10)


def test_stationary_periodic():
    # period 3 through {0} -> {1} -> {2, 3} -> {0}: power iteration never
    # settles, the Cesaro limit is exact
    rows = np.array([[0, 1, 0, 0], [0, 0, .5, .5], [1, 0, 0, 0],
                     [1, 0, 0, 0]], dtype=float)
    w = stationary_distribution(rows)
    assert np.allclose(w, [1 / 3, 1 / 3, 1 / 6, 1 / 6], atol=1e-15)


def test_stationary_courtois_residual():
    rows = parse_matrix(str(DATA / "courtois.csv")).rows
    rho = stationary_distribution(rows)
    assert np.abs(rho @ rows - rho).max() <= 1e-16
    assert abs(rho.sum() - 1.0) <= 1e-15


def test_stationary_absorbing_two_state():
    w = stationary_distribution(np.array([[1.0, 0.0], [0.3, 0.7]]))
    assert w.tolist() == [1.0, 0.0]


def test_stationary_splits_by_absorption():
    # state 2 is transient and falls into {0} or {1} with probability 1/4
    # and 3/4; the start puts 1/3 on each state
    rows = np.array([[1.0, 0, 0], [0, 1.0, 0], [0.25, 0.75, 0]])
    rho = stationary_distribution(rows)
    assert np.allclose(rho, [(1 + 0.25) / 3, (1 + 0.75) / 3, 0.0],
                       atol=1e-15)
    assert rho[2] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_stationary_residual(n, seed):
    rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
    w = stationary_distribution(rows)
    assert np.abs(w @ rows - w).max() <= 1e-11


def _power_iteration(pi, tol=1e-12, max_iter=100000):
    """Left fixed vector of Pi by power iteration from the uniform start, or
    None when a step still moves tol or more after max_iter steps."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = rho @ rows
        nxt = nxt / nxt.sum()
        if np.abs(nxt - rho).max() < tol:
            return nxt
        rho = nxt
    return None


def _transient(rows):
    """States from which some reachable state cannot reach back, by a
    Warshall closure of the support."""
    n = len(rows)
    reach = [[i == j or rows[i, j] > 0 for j in range(n)] for i in range(n)]
    for m in range(n):
        for i in range(n):
            if reach[i][m]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[m][j]
    return [i for i in range(n)
            if any(reach[i][j] and not reach[j][i] for j in range(n))]


def _weights(rng, mask):
    """Row-normalized weights in [0.1, 1] on a support mask."""
    rows = np.where(mask, rng.uniform(0.1, 1.0, mask.shape), 0.0)
    return rows / rows.sum(axis=1, keepdims=True)


def _degenerate_chain(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "periodic":
        # states cycle through d >= 2 groups; each row lives on the next one
        d = int(rng.integers(2, max(n, 2) + 1))
        n = max(n, d)
        group = np.concatenate([np.arange(d), rng.integers(0, d, n - d)])
        nxt = group[None, :] == (group[:, None] + 1) % d
        mask = nxt & (rng.random((n, n)) < 0.7)
        mask[np.arange(n), np.argmax(nxt, axis=1)] = True
        return _weights(rng, mask)
    mask = rng.random((n, n)) < 0.4
    mask[np.arange(n), rng.integers(0, n, n)] = True
    rows = _weights(rng, mask)
    if kind == "absorbing":
        for i in rng.choice(n, size=rng.integers(1, n + 1), replace=False):
            rows[i] = np.eye(n)[i]
    elif kind == "duplicate":
        rows[rng.integers(0, n, n // 2 + 1)] = rows[rng.integers(0, n)]
    elif kind == "reducible":
        # label -1 states reach everything and leak into a labelled state;
        # a labelled state stays within its label
        label = rng.integers(-1, 2, n)
        label[0] = 0
        inside = label >= 0
        mask[inside] &= label[inside, None] == label[None, :]
        idx = np.flatnonzero(inside)
        mask[idx, idx] = True
        mask[np.arange(n), rng.choice(idx, n)] |= ~inside
        rows = _weights(rng, mask)
    return rows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["sparse", "absorbing", "duplicate", "periodic",
                        "reducible"]),
       st.one_of(st.sampled_from([1, 2]), st.integers(1, 12)),
       st.integers(0, 2**32 - 1))
def test_stationary_degenerate_chains(kind, n, seed):
    rows = _degenerate_chain(kind, n, seed)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-15)
    rho = stationary_distribution(rows)
    assert np.abs(rho @ rows - rho).max() <= 1e-15
    assert (rho >= 0).all()
    assert abs(rho.sum() - 1.0) <= 1e-15
    assert (rho[_transient(rows)] == 0.0).all()
    ref = _power_iteration(rows, max_iter=20000)
    if ref is None:
        return
    assert np.abs(rho - ref).max() <= 1e-9


def test_make_partition_groups_roundtrip():
    p = make_partition([0, 1, 0, 2])
    assert (p.n, p.k) == (4, 3)
    groups = p.groups()
    assert [g.tolist() for g in groups] == [[0, 2], [1], [3]]


def test_make_partition_rejects_gaps():
    with pytest.raises(DimensionMismatch):
        make_partition([0, 2], k=3)          # superstate 1 empty
    with pytest.raises(DimensionMismatch):
        make_partition([0, 2], k=2)          # index out of range


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_revalidation_after_products(n, seed):
    # chain powers stay valid: row-stochasticity survives multiplication
    rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
    m = validate_stochastic(rows, tol=1e-12)
    sq = validate_stochastic(m.rows @ m.rows, tol=1e-12)
    assert np.allclose(sq.rows.sum(axis=1), 1.0, atol=1e-12)


def test_public_names_are_documented():
    # README's "Library" section lists every exported name by its user, so
    # a name that gains no user is seen to have none
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = {word for span in re.findall(r"`([^`]+)`", prose)
             for word in re.findall(r"\w+", span)}
    assert sorted(set(mcagg.__all__) - named) == []
