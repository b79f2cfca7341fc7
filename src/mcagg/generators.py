"""Synthetic chains with known ground-truth superstate structure.

Two families: nearly-completely-decomposable chains (random block-diagonal
plus a level-eps random stochastic matrix) and replicated-row chains (k_t
prototype rows repeated with multiplicities, same perturbation). Everything
is a pure function of the seed.
"""
import numpy as np

from .core import StochasticMatrix, make_partition
from .errors import BadParameter, BlockTooSmall, CountMismatch

__all__ = ["gen_ncd", "gen_replicated_rows", "perturb"]


def default_counts(n, k_t):
    """Near-equal multiplicities: n // k_t each, remainder spread from the
    front (e.g. n=10, k_t=3 -> (4, 3, 3))."""
    if k_t < 1:
        raise BadParameter(f"k_t must be >= 1, got {k_t}")
    counts = np.full(k_t, n // k_t, dtype=int)
    counts[: n % k_t] += 1
    return tuple(int(c) for c in counts)


def _rng(seed):
    """numpy's generator for seed; a seed it rejects, such as a negative
    integer, is a BadParameter."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise BadParameter(f"seed must be a non-negative integer, got {seed}")


def gen_ncd(blocks, eps=0.0, seed=0):
    """Nearly-completely-decomposable chain.

    Pi* is block-diagonal with independent flat-Dirichlet rows on each
    row's own block; the output is (1-eps)*Pi* + eps*R with R an independent
    random stochastic matrix on all states. Returns (StochasticMatrix,
    truth Partition over blocks).
    """
    blocks = [int(b) for b in blocks]
    if any(b < 1 for b in blocks):
        raise BlockTooSmall(f"block sizes must be >= 1, got {blocks}")
    if not 0.0 <= eps < 1.0:
        raise BadParameter(f"eps must lie in [0, 1), got {eps}")
    n = int(sum(blocks))
    if n < 2:
        raise BlockTooSmall("need at least 2 states in total")
    rng = _rng(seed)
    rows = np.zeros((n, n))
    truth = np.zeros(n, dtype=int)
    start = 0
    for b, size in enumerate(blocks):
        for i in range(start, start + size):
            rows[i, start:start + size] = rng.dirichlet(np.ones(size))
            truth[i] = b
        start += size
    R = rng.dirichlet(np.ones(n), size=n)
    out = (1.0 - eps) * rows + eps * R
    return StochasticMatrix(rows=out), make_partition(truth, k=len(blocks))


def gen_replicated_rows(n, k_t=None, counts=None, eps=0.0, seed=0):
    """Chain whose rows are k_t flat-Dirichlet prototype vectors repeated
    with the given multiplicities, then perturbed. Returns
    (StochasticMatrix, truth Partition)."""
    n = int(n)
    if counts is None:
        if k_t is None:
            raise CountMismatch("gen_replicated_rows needs k_t or counts")
        counts = default_counts(n, int(k_t))
    counts = [int(c) for c in counts]
    if k_t is None:
        k_t = len(counts)
    k_t = int(k_t)
    if len(counts) != k_t:
        raise CountMismatch(f"{len(counts)} counts for k_t={k_t}")
    if any(c < 1 for c in counts):
        raise CountMismatch(f"multiplicities must be >= 1, got {counts}")
    if sum(counts) != n:
        raise CountMismatch(f"counts sum to {sum(counts)}, expected n={n}")
    if not 0.0 <= eps < 1.0:
        raise BadParameter(f"eps must lie in [0, 1), got {eps}")
    rng = _rng(seed)
    protos = rng.dirichlet(np.ones(n), size=k_t)
    truth = np.repeat(np.arange(k_t), counts)
    rows = protos[truth]
    R = rng.dirichlet(np.ones(n), size=n)
    out = (1.0 - eps) * rows + eps * R
    return StochasticMatrix(rows=out), make_partition(truth, k=k_t)


def perturb(pi, eps, seed=0):
    """Convex perturbation (1-eps)*Pi + eps*R with seeded random stochastic
    R; the identity at eps=0, pure R at eps=1."""
    if not 0.0 <= eps <= 1.0:
        raise BadParameter(f"eps must lie in [0, 1], got {eps}")
    if isinstance(pi, StochasticMatrix):
        rows, labels = pi.rows, pi.labels
    else:
        rows, labels = np.asarray(pi, dtype=float), None
    if eps == 0.0:
        return pi if isinstance(pi, StochasticMatrix) else StochasticMatrix(rows=rows, labels=labels)
    rng = _rng(seed)
    R = rng.dirichlet(np.ones(rows.shape[1]), size=rows.shape[0])
    return StochasticMatrix(rows=(1.0 - eps) * rows + eps * R, labels=labels)
