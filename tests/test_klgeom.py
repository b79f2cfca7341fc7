import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcagg import klgeom, selection

from mcagg.errors import (DimensionMismatch, EmptySuperstate,
                          NonPositiveTemperature)
from mcagg.klgeom import (aggregate_transitions, build_model, distance_matrix,
                          distortion, free_energy, gibbs_weights,
                          hard_centroids, kl_divergence,
                          posterior_and_centroids)
from mcagg.core import make_partition

PI2 = np.array([[0.9, 0.1], [0.1, 0.9]])
# the package exports the function anneal under the module's name
anneal_module = importlib.import_module("mcagg.anneal")


def _simplex_pair(n, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


# --- kl_divergence ---

def test_kl_self_is_zero():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_kl_log2():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
        0.6931471805599453, rel=1e-14)


def test_kl_quarter():
    assert kl_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(
        0.13081203594113697, rel=1e-12)


def test_kl_infinite_without_floor():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf


def test_kl_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kl_divergence([1.0], [0.5, 0.5])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_kl_nonnegative_zero_iff_equal(n, seed):
    p, q = _simplex_pair(n, seed)
    d = kl_divergence(p, q)
    assert d >= -1e-12
    if np.abs(p - q).max() > 1e-6:
        assert d > 0.0
    assert kl_divergence(p, p) == 0.0


def test_distance_matrix_matches_kl():
    rng = np.random.default_rng(1)
    rows = rng.dirichlet(np.ones(4), size=5)
    Z = rng.dirichlet(np.ones(4), size=3)
    D = distance_matrix(rows, Z)
    for i in range(5):
        for j in range(3):
            assert D[i, j] == pytest.approx(
                kl_divergence(rows[i], Z[j]), abs=1e-12)


def test_distance_matrix_honest_inf():
    D = distance_matrix(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert D[0, 0] == np.inf


# --- distortion ---

def test_distortion_two_state():
    model = build_model(PI2, [0, 0], bank=np.array([[0.5, 0.5]]))
    # 0.5*KL((0.9,0.1)||(0.5,0.5)) + 0.5*KL((0.1,0.9)||(0.5,0.5))
    assert distortion(PI2, model) == pytest.approx(0.3680642071684971,
                                                   rel=1e-12)


def test_distortion_zero_for_identical_rows():
    rows = np.tile([0.1, 0.2, 0.3, 0.4], (4, 1))
    model = build_model(rows, [0, 0, 0, 0])
    assert distortion(rows, model) == pytest.approx(0.0, abs=1e-14)


def test_distortion_positive_on_blocks():
    rows = np.zeros((4, 4))
    rows[0, :2] = [0.6, 0.4]
    rows[1, :2] = [0.2, 0.8]
    rows[2, 2:] = [0.5, 0.5]
    rows[3, 2:] = [0.9, 0.1]
    model = build_model(rows, [0, 0, 1, 1])
    assert distortion(rows, model) > 0.0


def test_distortion_skips_zero_weight_state_at_infinite_distance():
    # state 1 has no mass under rho and puts mass where its centroid has
    # none: its infinite distance must not turn the total into NaN
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = build_model(rows, np.array([0, 0]), np.array([1.0, 0.0]))
    assert np.array_equal(model.distributions, [[1.0, 0.0]])
    assert distortion(rows, model, np.array([1.0, 0.0])) == 0.0


def test_hard_centroids_zero_weight_group_plain_mean():
    rows = np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.6], [0.0, 1.0, 0.0]])
    W = hard_centroids(rows, np.array([0, 1, 1]), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(W[0], rows[0], atol=1e-15)
    assert np.allclose(W[1], [0.1, 0.6, 0.3], atol=1e-15)


# The per-group loop forms that hard_centroids and aggregate_transitions
# replaced, kept verbatim as references for the whole-array kernels.
def _group_mean(R, w):
    """w-weighted mean of the rows R; their plain mean when w sums to 0, as
    for a group of states that all have zero stationary weight."""
    if w.sum() == 0.0:
        w = np.ones(len(w))
    return (w @ R) / w.sum()


def _loop_hard_centroids(rows, assign, rho):
    k = int(np.max(assign)) + 1
    W = np.zeros((k, rows.shape[1]))
    for j in range(k):
        idx = np.where(assign == j)[0]
        W[j] = _group_mean(rows[idx], rho[idx])
    return W


def _loop_aggregate_transitions(Z, partition):
    k = partition.k
    psi = np.zeros((k, k))
    for m, idx in enumerate(partition.groups()):
        psi[:, m] = Z[:, idx].sum(axis=1)
    return psi


def _zero_weight_case(n, k, seed):
    """Rows with some zero entries, a shuffled partition into k groups
    (singletons among them when k is near n), and rho with zero entries,
    group 0's all of them."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(n), size=n)
    rows[rng.random((n, n)) < 0.2] = 0.0
    rows[np.arange(n), np.arange(n)] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(assign)
    rho = rng.dirichlet(np.ones(n))
    rho[rng.random(n) < 0.3] = 0.0
    rho[assign == 0] = 0.0
    return rows, assign, rho


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_hard_centroids_match_group_loop(n, k, seed):
    k = min(k, n)
    rows, assign, rho = _zero_weight_case(n, k, seed)
    W = hard_centroids(rows, assign, rho)
    ref = _loop_hard_centroids(rows, assign, rho)
    np.testing.assert_allclose(W, ref, rtol=1e-14, atol=0.0)
    # a zero-weight group gets its members' plain mean
    np.testing.assert_allclose(W[0], rows[assign == 0].mean(axis=0),
                               rtol=1e-14, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_aggregate_transitions_match_column_loop(n, k, seed):
    k = min(k, n)
    rows, assign, rho = _zero_weight_case(n, k, seed)
    part = make_partition(assign, k=k)
    Z = hard_centroids(rows, assign, rho)
    np.testing.assert_allclose(aggregate_transitions(Z, part),
                               _loop_aggregate_transitions(Z, part),
                               rtol=1e-14, atol=0.0)


# --- gibbs_weights ---

def test_gibbs_uniform_on_equal_distances():
    p = gibbs_weights(np.array([[2.0, 2.0, 2.0]]), T=0.7).p
    assert np.allclose(p, 1 / 3, atol=1e-15)


def test_gibbs_logistic_value():
    p = gibbs_weights(np.array([[0.0, 1.0]]), T=0.1).p
    want = 1.0 / (1.0 + np.exp(-10.0))
    assert p[0, 0] == pytest.approx(want, rel=1e-12)
    assert p[0, 1] == pytest.approx(1.0 - want, rel=1e-9)


def test_gibbs_high_temperature_limit():
    p = gibbs_weights(np.array([[0.0, 1.0]]), T=1e12).p
    assert np.allclose(p, 0.5, atol=1e-10)


def test_gibbs_dead_row_uniform():
    p = gibbs_weights(np.array([[np.inf, np.inf, np.inf], [0.0, 1.0, 2.0]]),
                      T=0.5).p
    assert np.array_equal(p[0], np.full(3, 1 / 3))
    assert p[1, 0] > p[1, 1] > p[1, 2] > 0


def test_gibbs_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        gibbs_weights(np.zeros((1, 2)), T=0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 10_000),
       st.floats(-6, 6))
def test_gibbs_rows_sum_to_one(n, k, seed, logT):
    D = np.random.default_rng(seed).uniform(0, 100, size=(n, k))
    p = gibbs_weights(D, T=10.0 ** logT).p
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert (p >= 0).all()


# --- posterior_and_centroids ---

def test_posterior_hard_uniform_gives_means():
    rows = np.random.default_rng(2).dirichlet(np.ones(3), size=4)
    p = np.zeros((4, 2))
    p[[0, 1], 0] = 1.0
    p[[2, 3], 1] = 1.0
    _, Z = posterior_and_centroids(rows, p)
    assert np.allclose(Z[0], rows[:2].mean(axis=0), atol=1e-15)
    assert np.allclose(Z[1], rows[2:].mean(axis=0), atol=1e-15)


def test_posterior_k1_weighted_mean():
    rows = PI2
    rho = np.array([0.25, 0.75])
    post, Z = posterior_and_centroids(rows, np.ones((2, 1)), rho)
    assert np.allclose(post[:, 0], rho, atol=1e-15)
    assert np.allclose(Z[0], rho @ rows, atol=1e-15)


def test_posterior_singletons_reproduce_pi():
    _, Z = posterior_and_centroids(PI2, np.eye(2))
    assert np.allclose(Z, PI2, atol=1e-15)


def test_posterior_empty_superstate():
    with pytest.raises(EmptySuperstate) as exc:
        posterior_and_centroids(PI2, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert exc.value.j == 1
    # several empty superstates: the lowest index is reported
    with pytest.raises(EmptySuperstate) as exc:
        posterior_and_centroids(PI2, np.array([[0.0, 1.0, 0.0, 0.0],
                                               [0.0, 1.0, 0.0, 0.0]]))
    assert exc.value.j == 0


def test_posterior_invariant_under_rho_scaling():
    rows = np.random.default_rng(3).dirichlet(np.ones(4), size=4)
    p = gibbs_weights(distance_matrix(rows, rows[:2]), T=0.5).p
    rho = np.array([0.1, 0.2, 0.3, 0.4])
    _, Z1 = posterior_and_centroids(rows, p, rho)
    _, Z2 = posterior_and_centroids(rows, p, 7.0 * rho)
    assert np.allclose(Z1, Z2, atol=1e-15)


# --- free_energy ---

def test_free_energy_zero_for_identical():
    rows = np.tile([0.4, 0.6], (3, 1))
    assert free_energy(rows, rows[:1], T=0.3) == pytest.approx(0.0,
                                                               abs=1e-14)


def test_free_energy_k1_equals_distortion():
    rng = np.random.default_rng(4)
    rows = rng.dirichlet(np.ones(6), size=6)
    z = rng.dirichlet(np.ones(6))
    model = build_model(rows, [0] * 6, bank=z[None, :])
    for T in (0.1, 1.0, 10.0):
        assert free_energy(rows, z[None, :], T=T) == pytest.approx(
            distortion(rows, model), abs=1e-12)


def test_free_energy_two_state_value():
    assert free_energy(PI2, np.array([[0.5, 0.5]]), T=1.0) == pytest.approx(
        0.3680642071684971, rel=1e-12)


def test_free_energy_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        free_energy(PI2, PI2, T=-1.0)


# --- aggregate_transitions / build_model ---

def test_aggregate_k1():
    psi = aggregate_transitions(np.array([[0.2, 0.3, 0.5]]),
                                make_partition([0, 0, 0]))
    assert np.allclose(psi, [[1.0]], atol=1e-15)


def test_aggregate_two_group_sums():
    Z = np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
    psi = aggregate_transitions(Z, make_partition([0, 0, 1]))
    assert np.allclose(psi, [[0.5, 0.5], [0.2, 0.8]], atol=1e-15)


def test_aggregate_block_centroids_identity():
    rows = np.zeros((4, 4))
    rows[:2, :2] = [[0.6, 0.4], [0.3, 0.7]]
    rows[2:, 2:] = [[0.8, 0.2], [0.5, 0.5]]
    part = make_partition([0, 0, 1, 1])
    Z = hard_centroids(rows, part.assign)
    psi = aggregate_transitions(Z, part)
    assert np.allclose(psi, np.eye(2), atol=1e-15)


def test_aggregate_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        aggregate_transitions(np.array([[0.5, 0.5]]), make_partition([0, 1]))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10_000))
def test_aggregate_rows_stochastic(n, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    Z = rng.dirichlet(np.ones(n), size=k)
    assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    psi = aggregate_transitions(Z, make_partition(assign, k=k))
    assert np.abs(psi.sum(axis=1) - 1.0).max() < 1e-12


def test_build_model_consistency():
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.ones(5), size=5)
    model = build_model(rows, [0, 0, 1, 1, 2])
    assert np.abs(model.psi.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(model.distributions.sum(axis=1) - 1.0).max() < 1e-9
    assert (model.distributions >= 0).all()
    # psi consistent with distributions and partition
    for m, idx in enumerate(model.partition.groups()):
        assert np.allclose(model.psi[:, m],
                           model.distributions[:, idx].sum(axis=1),
                           atol=1e-9)


# --- the deviation eigen-kernel's one home ---

def test_anneal_imports_nothing_from_selection():
    # selection scores partitions that annealing produced; the annealer
    # reads the spectral kernel and its thresholds from klgeom
    src = Path(anneal_module.__file__).read_text()
    found = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[-1] == "selection":
                found.append(node.module)
            elif node.module is None or node.module == "mcagg":
                found += [a.name for a in node.names
                          if a.name == "selection"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[-1] == "selection"]
    assert found == []


@pytest.mark.parametrize("name", ["_top_deviation", "_kept", "_EXACT_FIT"])
def test_kernel_names_are_klgeom_objects(name):
    assert getattr(anneal_module, name) is getattr(klgeom, name)
    assert getattr(selection, name) is getattr(klgeom, name)


@pytest.mark.parametrize("name", ["_lanczos_top", "_start_vector",
                                  "_DENSE_MAX", "_RITZ_TOL"])
def test_selection_defines_no_kernel_internals(name):
    assert hasattr(klgeom, name)
    assert not hasattr(selection, name)
