"""Shared domain types: stochastic matrices, partitions and aggregated
models; steady-state weights; the model-size bound k_max; and the
deterministic zero-sum basis used by every spectral computation.
"""
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, DuplicateLabel, NegativeEntry,
                     NonSquare, RowSumViolation)


@dataclass(frozen=True)
class StochasticMatrix:
    """A finite Markov chain: row-stochastic n x n matrix, optional labels."""
    rows: np.ndarray
    labels: Optional[Sequence[str]] = None

    @property
    def n(self):
        return self.rows.shape[0]


@dataclass(frozen=True)
class Partition:
    """Assignment of n states to k superstates; surjective onto range(k)."""
    n: int
    k: int
    assign: np.ndarray

    def groups(self):
        return [np.where(self.assign == j)[0] for j in range(self.k)]


@dataclass(frozen=True)
class AggregatedModel:
    """An aggregated chain: partition, k x k transitions psi, and the bank of
    superstate distribution vectors (rows over the original states)."""
    partition: Partition
    psi: np.ndarray
    distributions: np.ndarray


def as_rows(pi):
    """Accept a StochasticMatrix or a bare ndarray and return the ndarray."""
    if isinstance(pi, StochasticMatrix):
        return pi.rows
    return np.asarray(pi, dtype=float)


def as_rho(rho, n=None):
    """Accept state weights or None (uniform over n states); return the
    ndarray."""
    if rho is None:
        if n is None:
            raise DimensionMismatch("need n to build uniform weights")
        return np.full(n, 1.0 / n)
    return np.asarray(rho, dtype=float)


def resolve_k_max(n, k_max):
    """The largest model size for an n-state chain: min(n, 8) when k_max is
    None, else k_max capped at n. Raises DimensionMismatch when k_max < 1."""
    if k_max is None:
        return min(n, 8)
    if k_max < 1:
        raise DimensionMismatch(f"k_max = {k_max} is below 1")
    return min(int(k_max), n)


def validate_stochastic(rows, tol=1e-9, labels=None):
    """Validate (and lightly repair) a candidate transition matrix.

    Entries in [-tol, 0) are clamped to zero and each row renormalized, so
    ingestion rounding does not get rejected. Genuine violations raise; a
    repeated label raises DuplicateLabel.
    """
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise NonSquare(f"expected square matrix, got shape {rows.shape}")
    n = rows.shape[0]
    neg = np.argwhere(rows < -tol)
    if len(neg):
        i, j = neg[0]
        raise NegativeEntry(int(i), int(j), float(rows[i, j]))
    rows[rows < 0] = 0.0
    sums = rows.sum(axis=1)
    # written so that a NaN sum is a violation too
    bad = np.argwhere(~(np.abs(sums - 1.0) <= tol))
    if len(bad):
        i = int(bad[0][0])
        raise RowSumViolation(i, float(sums[i]))
    rows = rows / sums[:, None]
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise DimensionMismatch(
                f"{len(labels)} labels for {n} states")
        if len(set(labels)) < n:
            dup = next(b for i, b in enumerate(labels) if b in labels[:i])
            raise DuplicateLabel(f"label {dup!r} names more than one state")
    return StochasticMatrix(rows=rows, labels=labels)


def make_partition(assign, k=None):
    """Build a Partition from an assignment array, checking surjectivity."""
    assign = np.asarray(assign, dtype=int)
    n = len(assign)
    if k is None:
        k = int(assign.max()) + 1 if n else 0
    if assign.min(initial=0) < 0 or (n and assign.max() >= k):
        raise DimensionMismatch("assignment indices outside [0, k)")
    used = np.unique(assign)
    if len(used) != k:
        missing = sorted(set(range(k)) - set(used.tolist()))
        raise DimensionMismatch(f"superstates {missing} are empty")
    return Partition(n=n, k=k, assign=assign)


def simplex_basis(n):
    """Helmert basis of the zero-sum hyperplane, as an n x (n-1) array with
    orthonormal columns.

    Column m (1-indexed) carries 1/sqrt(m(m+1)) on the first m coordinates
    and -m/sqrt(m(m+1)) on coordinate m+1. Deterministic, so eigenvalue
    computations are reproducible across runs.
    """
    if n < 2:
        raise DimensionMismatch("simplex basis needs n >= 2")
    m = np.arange(1, n)
    c = 1.0 / np.sqrt(m * (m + 1))
    theta = np.triu(np.broadcast_to(c, (n, n - 1)))
    theta[m, m - 1] = -m * c
    return theta


def _gth(block):
    """Stationary vector of an irreducible chain block by GTH elimination
    (Grassmann, Taksar & Heyman 1985). No step subtracts, so the result stays
    accurate on nearly decomposable and on periodic chains."""
    A = np.array(block, dtype=float)
    for k in range(len(A) - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.ones(len(A))
    for k in range(1, len(A)):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()


def _closure(adj):
    """Reflexive-transitive closure of a square boolean adjacency matrix:
    entry (i, j) is True when j is reachable from i in zero or more steps.
    Squaring doubles the path length covered, until nothing grows."""
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    while True:
        grown = np.sign(reach @ reach)
        if np.array_equal(grown, reach):
            return reach > 0
        reach = grown


def stationary_distribution(pi):
    """The Cesaro limit of uniform @ Pi^t, which is what power iteration from
    the uniform start returns whenever it converges.

    Each closed communicating class is solved by GTH and weighted by its
    share of the start, |C| / n, plus the mean probability that a transient
    state is absorbed into it (one solve on the transient block). Transient
    states weigh exactly 0.
    """
    rows = as_rows(pi)
    n = rows.shape[0]
    reach = _closure(rows > 0)
    closed = ~(reach & ~reach.T).any(axis=1)
    head = np.argmax(reach & reach.T, axis=1)
    classes = [np.flatnonzero(closed & (head == h))
               for h in np.unique(head[closed])]
    mass = np.array([len(c) for c in classes], dtype=float)
    trans = np.flatnonzero(~closed)
    if len(trans):
        into = np.stack([rows[np.ix_(trans, c)].sum(axis=1) for c in classes],
                        axis=1)
        stay = rows[np.ix_(trans, trans)]
        mass += np.linalg.solve(np.eye(len(trans)) - stay, into).sum(axis=0)
    rho = np.zeros(n)
    for c, m in zip(classes, mass):
        rho[c] = m * _gth(rows[np.ix_(c, c)])
    return rho / rho.sum()
