"""KL-divergence geometry: distances, distortion, Gibbs association weights,
centroid updates and aggregated transition construction.

All logarithms are natural. Exponentials are computed with max-subtraction so
small temperatures do not overflow. By default no floor is applied to the
second KL argument: a zero coordinate against positive mass honestly yields
+inf (smoothing at ingestion is the supported way to avoid that).
"""
from dataclasses import dataclass

import numpy as np

from .core import as_rho, as_rows, AggregatedModel, make_partition
from .errors import (DimensionMismatch, EmptySuperstate,
                     NonPositiveTemperature)

_TINY = 1e-300


@dataclass(frozen=True)
class SoftAssociation:
    """Gibbs weights p (rows over superstates, each row sums to 1) and the
    posterior P (columns sum to 1)."""
    p: np.ndarray
    posterior: np.ndarray = None


def kl_divergence(p, q, floor=0.0):
    """Relative entropy sum(p log(p/q)) in nats, with 0 log 0 = 0.

    With floor > 0 the second argument is clipped from below; with floor = 0
    a coordinate where p > 0 but q = 0 gives +inf.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"{p.shape} vs {q.shape}")
    mask = p > 0
    if floor > 0:
        qq = np.maximum(q, floor)
    else:
        if np.any(mask & (q <= 0)):
            return float("inf")
        qq = np.where(mask, q, 1.0)
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(qq[mask]))))


def _self_entropy(rows):
    """Per-row sum p log p, with 0 log 0 = 0."""
    return np.sum(np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)), 0.0), axis=1)


def _kl_rows(rows, self_ent, positive, Z, floor=0.0):
    """The KL kernel behind distance_matrix: n x k distances from rows to the
    bank Z, given the rows' self-entropies and support mask (rows > 0), so a
    caller that evaluates many banks against one set of rows computes those
    two once."""
    if rows.shape[1] != Z.shape[1]:
        raise DimensionMismatch(f"{rows.shape} vs {Z.shape}")
    logz = np.log(np.maximum(Z, floor if floor > 0 else _TINY))
    D = self_ent[:, None] - rows @ logz.T
    if floor <= 0:
        zero = Z <= 0
        if zero.any():
            # honest +inf where a centroid has no mass on a used coordinate
            viol = positive.astype(float) @ zero.T.astype(float)
            D[viol > 0] = np.inf
    return D


def distance_matrix(pi, Z, floor=0.0):
    """n x k matrix of KL distances from every row of pi to every row of Z."""
    rows = as_rows(pi)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return _kl_rows(rows, _self_entropy(rows), rows > 0, Z, floor)


def distortion(pi, model, rho=None):
    """rho-weighted cumulative KL distance of each state to its superstate."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    if isinstance(model, AggregatedModel):
        assign = model.partition.assign
        W = model.distributions
    else:
        assign, W = model  # (assign, bank) for internal callers
    d = distance_matrix(rows, W)[np.arange(rows.shape[0]), assign]
    # a zero-weight state adds nothing, even at an infinite distance
    used = rho > 0
    return float(rho[used] @ d[used])


def _softmin(D, T, with_lse=True):
    """Row-normalized exp(-D/T) and each row's log-sum-exp of -D/T, or None
    in its place with with_lse=False.

    Rows whose distances are all +inf get the uniform association and a
    log-sum-exp of -inf.
    """
    if T <= 0:
        raise NonPositiveTemperature(f"T = {T}")
    A = -D / T
    m = A.max(axis=1, keepdims=True)
    dead = ~np.isfinite(m[:, 0])
    if dead.any():
        m[dead] = 0.0
        E = np.exp(A - m)
        E[dead] = 1.0
    else:
        E = np.exp(A - m)
    s = E.sum(axis=1, keepdims=True)
    if not with_lse:
        return E / s, None
    lse = m[:, 0] + np.log(s[:, 0])
    lse[dead] = -np.inf
    return E / s, lse


def gibbs_weights(distances, T):
    """Soft association weights exp(-d/T) normalized per row.

    Rows whose distances are all +inf fall back to the uniform association
    (every centroid is equally hopeless).
    """
    p, _ = _softmin(np.asarray(distances, dtype=float), T)
    return SoftAssociation(p=p)


def _is_floats(a):
    return type(a) is np.ndarray and a.dtype == np.float64


def posterior_and_centroids(pi, p, rho=None):
    """Posterior column-normalization of rho-weighted p, and Z = P^T Pi."""
    # the annealer's inner loop passes float arrays, which need no unwrapping
    rows = pi if _is_floats(pi) else as_rows(pi)
    p = p if _is_floats(p) else np.asarray(p, dtype=float)
    rho = rho if _is_floats(rho) else as_rho(rho, rows.shape[0])
    weighted = rho[:, None] * p
    col = weighted.sum(axis=0)
    if col.min() < _TINY:
        raise EmptySuperstate(int(np.flatnonzero(col < _TINY)[0]))
    posterior = weighted / col
    Z = posterior.T @ rows
    return posterior, Z


def free_energy(pi, Z, rho=None, T=1.0, floor=0.0):
    """Annealed objective -T sum_i rho_i log sum_j exp(-KL_ij / T)."""
    if T <= 0:
        raise NonPositiveTemperature(f"T = {T}")
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    D = distance_matrix(rows, Z, floor=floor)
    m = D.min(axis=1)
    finite = np.isfinite(m)
    vals = np.full(rows.shape[0], np.inf)
    if np.any(finite):
        shifted = np.exp(-(D[finite] - m[finite][:, None]) / T)
        vals[finite] = m[finite] - T * np.log(shifted.sum(axis=1))
    used = rho > 0
    return float(rho[used] @ vals[used])


def aggregate_transitions(Z, partition):
    """Superstate-level transition matrix: psi_jm sums z_j over group m."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    k = partition.k
    if Z.shape[0] != k or Z.shape[1] != partition.n:
        raise DimensionMismatch(
            f"bank shape {Z.shape} does not match partition ({partition.n}, {k})")
    psi = np.zeros((k, k))
    for m, idx in enumerate(partition.groups()):
        psi[:, m] = Z[:, idx].sum(axis=1)
    return psi


def hard_centroids(pi, assign, rho=None):
    """rho-weighted mean row per group; the hard-partition bank W. A group
    whose states all have zero weight gets their plain mean."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    k = int(np.max(assign)) + 1
    W = np.zeros((k, rows.shape[1]))
    for j in range(k):
        idx = np.where(assign == j)[0]
        W[j] = _group_mean(rows[idx], rho[idx])
    return W


def _group_mean(R, w):
    """w-weighted mean of the rows R; their plain mean when w sums to 0, as
    for a group of states that all have zero stationary weight."""
    if w.sum() == 0.0:
        w = np.ones(len(w))
    return (w @ R) / w.sum()


def build_model(pi, assign, rho=None, bank=None):
    """AggregatedModel from a hard assignment; bank defaults to hard centroids."""
    rows = as_rows(pi)
    part = make_partition(assign)
    if bank is None:
        bank = hard_centroids(rows, part.assign, rho)
    psi = aggregate_transitions(bank, part)
    return AggregatedModel(partition=part, psi=psi, distributions=bank)
