import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcagg.core import (Partition, StochasticMatrix, make_partition,
                        simplex_basis, stationary_distribution,
                        uniform_weights, validate_stochastic)
from mcagg.errors import (DimensionMismatch, NegativeEntry, NoConvergence,
                          NonSquare, RowSumViolation)


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
    th = simplex_basis(2).theta
    assert np.allclose(th[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)],
                       atol=1e-15)


def test_simplex_basis_n3():
    th = simplex_basis(3).theta
    want = np.array([[1 / np.sqrt(2), 1 / np.sqrt(6)],
                     [-1 / np.sqrt(2), 1 / np.sqrt(6)],
                     [0.0, -2 / np.sqrt(6)]])
    assert np.allclose(th, want, atol=1e-15)


@pytest.mark.parametrize("n", list(range(2, 20)) + [50, 128, 256, 512])
def test_simplex_basis_orthonormal_zero_sum(n):
    th = simplex_basis(n).theta
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
    assert np.array_equal(simplex_basis(n).theta, want)


def test_simplex_basis_needs_two_states():
    with pytest.raises(DimensionMismatch):
        simplex_basis(1)


def test_stationary_identity_is_uniform():
    w = stationary_distribution(np.eye(3))
    assert np.allclose(w.rho, 1 / 3, atol=1e-15)


def test_stationary_swap():
    w = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w.rho, 0.5, atol=1e-15)


def test_stationary_two_state():
    w = stationary_distribution(np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert np.allclose(w.rho, [2 / 3, 1 / 3], atol=1e-10)


def test_stationary_no_convergence_carries_last():
    with pytest.raises(NoConvergence) as exc:
        stationary_distribution(np.array([[0.9, 0.1], [0.2, 0.8]]),
                                max_iter=0)
    assert np.allclose(exc.value.last.rho, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_stationary_residual(n, seed):
    rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
    w = stationary_distribution(rows, tol=1e-12)
    assert np.abs(w.rho @ rows - w.rho).max() <= 1e-11


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


def test_uniform_weights():
    assert np.allclose(uniform_weights(4).rho, 0.25, atol=1e-16)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_revalidation_after_products(n, seed):
    # chain powers stay valid: row-stochasticity survives multiplication
    rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=n)
    m = validate_stochastic(rows, tol=1e-12)
    sq = validate_stochastic(m.rows @ m.rows, tol=1e-12)
    assert np.allclose(sq.rows.sum(axis=1), 1.0, atol=1e-12)
