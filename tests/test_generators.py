import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcagg.core import StochasticMatrix, validate_stochastic
from mcagg.errors import BadParameter, BlockTooSmall, CountMismatch
from mcagg.generators import (default_counts, gen_ncd, gen_replicated_rows,
                              perturb)
from mcagg.klgeom import build_model, distortion
from mcagg.selection import heterogeneity


def test_default_counts():
    assert default_counts(10, 3) == (4, 3, 3)
    assert default_counts(10, 4) == (3, 3, 2, 2)
    assert default_counts(9, 3) == (3, 3, 3)


def test_ncd_eps0_block_diagonal():
    pi, truth = gen_ncd(blocks=[3, 2, 4], eps=0.0, seed=5)
    assert pi.rows.shape == (9, 9)
    assert np.array_equal(truth.assign, [0, 0, 0, 1, 1, 2, 2, 2, 2])
    mask = np.ones((9, 9), dtype=bool)
    for idx in truth.groups():
        mask[np.ix_(idx, idx)] = False
    assert np.all(pi.rows[mask] == 0.0)


def test_ncd_large_blocks():
    pi, truth = gen_ncd(blocks=[10, 30, 20, 20, 20], eps=0.02, seed=0)
    assert pi.n == 100
    assert truth.k == 5


def test_ncd_block_too_small():
    with pytest.raises(BlockTooSmall):
        gen_ncd(blocks=[0, 3])
    with pytest.raises(BlockTooSmall):
        gen_ncd(blocks=[1])


def test_generators_positional_call_equals_keyword_call():
    want = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    for got in (gen_ncd([3, 3, 3], eps=0.05, seed=1),
                gen_ncd([3, 3, 3], 0.05, 1)):
        assert np.array_equal(got[0].rows, want[0].rows)
        assert np.array_equal(got[1].assign, want[1].assign)
    want = gen_replicated_rows(n=10, counts=(4, 3, 3), eps=0.1, seed=2)
    for got in (gen_replicated_rows(10, counts=(4, 3, 3), eps=0.1, seed=2),
                gen_replicated_rows(10, None, (4, 3, 3), 0.1, 2)):
        assert np.array_equal(got[0].rows, want[0].rows)
        assert np.array_equal(got[1].assign, want[1].assign)
    a, _ = gen_replicated_rows(10, 3, eps=0.1)
    b, _ = gen_replicated_rows(n=10, k_t=3, eps=0.1)
    assert np.array_equal(a.rows, b.rows)


def test_rows_eps0_distinct_rows():
    pi, truth = gen_replicated_rows(n=10, k_t=3, eps=0.0, seed=1)
    uniq = np.unique(pi.rows, axis=0)
    assert uniq.shape[0] == 3
    assert truth.k == 3
    # truth partition with within-block centroids fits exactly
    model = build_model(pi.rows, truth.assign)
    assert distortion(pi.rows, model) == pytest.approx(0.0, abs=1e-14)
    assert heterogeneity(pi.rows, truth) == pytest.approx(0.0, abs=1e-14)


def test_rows_counts_respected():
    pi, truth = gen_replicated_rows(n=10, k_t=3, counts=[4, 3, 3], eps=0.0,
                                    seed=2)
    assert [len(g) for g in truth.groups()] == [4, 3, 3]


def test_rows_count_mismatch():
    with pytest.raises(CountMismatch):
        gen_replicated_rows(n=10, k_t=3, counts=[5, 5])
    with pytest.raises(CountMismatch):
        gen_replicated_rows(n=10, k_t=2, counts=[5, 4])
    with pytest.raises(CountMismatch):
        gen_replicated_rows(n=10, k_t=3, counts=[10, 0, 0])


def test_rows_without_k_t_or_counts_is_typed():
    with pytest.raises(CountMismatch, match="needs k_t or counts"):
        gen_replicated_rows(10)


def test_perturb_eps0_identity():
    pi, _ = gen_ncd(blocks=[2, 2], eps=0.0, seed=3)
    out = perturb(pi, 0.0, seed=99)
    assert out is pi


def test_perturb_eps1_pure_random():
    pi, _ = gen_ncd(blocks=[2, 2], eps=0.0, seed=3)
    out = perturb(pi, 1.0, seed=123)
    R = np.random.default_rng(123).dirichlet(np.ones(4), size=4)
    assert np.array_equal(out.rows, R)


def test_perturb_bad_eps():
    with pytest.raises(ValueError):
        perturb(np.eye(2), -0.1)
    with pytest.raises(ValueError):
        perturb(np.eye(2), 1.5)


@pytest.mark.parametrize("make", [
    lambda eps: gen_ncd(blocks=[3, 3], eps=eps),
    lambda eps: gen_replicated_rows(6, k_t=2, eps=eps),
    lambda eps: perturb(np.eye(2), eps),
])
@pytest.mark.parametrize("eps", [-1.0, 1.5, float("nan")])
def test_bad_eps_is_a_typed_error(make, eps):
    with pytest.raises(BadParameter, match="eps must lie in"):
        make(eps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000),
       st.floats(0.0, 0.99, allow_nan=False))
def test_perturb_row_sums_exact(seed, eps):
    pi, _ = gen_ncd(blocks=[3, 2], eps=0.0, seed=seed)
    out = perturb(pi, eps, seed=seed + 1)
    assert np.abs(out.rows.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_matrices_validate_tight(seed):
    a, _ = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=seed)
    b, _ = gen_replicated_rows(n=8, k_t=3, eps=0.1, seed=seed)
    for m in (a, b):
        v = validate_stochastic(m.rows, tol=1e-12)
        assert isinstance(v, StochasticMatrix)


def test_determinism_bit_identical():
    a, ta = gen_replicated_rows(n=10, k_t=4, eps=0.1, seed=77)
    b, tb = gen_replicated_rows(n=10, k_t=4, eps=0.1, seed=77)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(ta.assign, tb.assign)
    c, _ = gen_replicated_rows(n=10, k_t=4, eps=0.1, seed=78)
    assert not np.array_equal(a.rows, c.rows)
