"""Choosing the number of superstates.

For each candidate partition we score how far member rows spread around
their aggregated row (per-superstate heterogeneity, the largest eigenvalue
of a deviation covariance restricted to the simplex tangent basis), then
pick the k whose heterogeneity drop from k-1 is largest on a log scale.
"""
from dataclasses import dataclass, field

import numpy as np

from .core import as_rho, as_rows, simplex_basis
from .errors import DimensionMismatch, NonConsecutiveK
from .klgeom import _EXACT_FIT, _kept, _member_weights, _top_deviation

__all__ = ["SelectionReport", "hard_membership", "covariance_matrix",
           "heterogeneity", "marginal_return", "select_k"]


@dataclass
class SelectionReport:
    k_t: int
    t_bars: dict
    nus: dict
    mode: str = "plain"   # "plain" | "whiten"
    exact_fit: bool = False
    per_superstate: dict = field(default_factory=dict)  # k -> [lambda_max]


def hard_membership(partition, rho=None):
    """Membership matrix Q (n x k): column j holds each state's weight in
    cluster j's centroid, klgeom._member_weights normalized, so W = Q^T Pi
    has stochastic rows."""
    n, k = partition.n, partition.k
    w = _member_weights(partition.assign, as_rho(rho, n), k)
    R = np.zeros((n, k))
    R[np.arange(n), partition.assign] = w
    return R / R.sum(axis=0, keepdims=True)


def _kept_coordinates(members, w):
    """members and w on the coordinates klgeom._kept keeps, with s2 = w as
    for a hard group; the inputs themselves when it keeps every one."""
    keep = _kept(w, w)
    return (members, w) if keep.all() else (members[:, keep], w[keep])


def covariance_matrix(members, w, q, mode="plain"):
    """Deviation covariance of one superstate in the simplex tangent basis,
    formed in full: the oracle for _top_eigenvalue, which never forms it.

    members: rows of the cluster (m x n); w: its aggregated row; q: weights.
    Only the coordinates klgeom._kept keeps enter. Plain mode measures
    relative deviations (pi(i) - w) ./ w directly; whiten mode rescales
    them by the local curvature (Cholesky of the Theta^T Lambda Theta form)
    so the output eigenvalues are comparable to annealing temperatures. That
    Cholesky is ill-conditioned when a kept coordinate of w sits just above
    _FLOOR (Lambda = diag(1/w)): with w near 1e-12, whiten mode is accurate
    only to about 1e-5 relative.
    """
    members = np.atleast_2d(np.asarray(members, dtype=float))
    w = np.asarray(w, dtype=float)
    q = np.asarray(q, dtype=float)
    sub, w = _kept_coordinates(members, w)
    theta = simplex_basis(w.shape[0])
    V = (sub - w) / w
    B = V @ theta
    if mode == "plain":
        C = B.T @ (q[:, None] * B)
        return 0.5 * (C + C.T)
    if mode != "whiten":
        raise ValueError(f"unknown covariance mode {mode!r}")
    qn = q / q.sum()
    lam = (qn @ sub) / w**2
    H0 = theta.T @ (lam[:, None] * theta)
    H1 = B.T @ (qn[:, None] * B)
    L = np.linalg.cholesky(H0)
    C = np.linalg.solve(L, np.linalg.solve(L, H1).T).T
    return 0.5 * (C + C.T)


def _top_eigenvalue(members, w, q, mode):
    """Largest eigenvalue of covariance_matrix(members, w, q, mode) (0 below
    2 kept coordinates), by _top_deviation: s = w and u along 1 in plain
    mode; q normalized, s = sqrt(q @ members) and u along w / s in whiten
    mode, which is the annealer's t_cr at the posterior q."""
    sub, w = _kept_coordinates(members, w)
    if mode == "plain":
        s, u = w, np.ones(len(w))
    elif mode == "whiten":
        q = q / q.sum()
        s = np.sqrt(q @ sub)
        u = w / s
    else:
        raise ValueError(f"unknown covariance mode {mode!r}")
    return _top_deviation(sub, w, q, s, u)


def heterogeneity_profile(pi, partition, rho=None, mode="plain"):
    """Per-superstate largest deviation eigenvalues (length k)."""
    rows = as_rows(pi)
    return _profile(rows, partition, as_rho(rho, rows.shape[0]), mode, {})


def _profile(rows, partition, rho, mode, memo):
    """heterogeneity_profile on validated rows and rho. Each superstate's
    centroid is q @ rows[idx], a function of its members and their weights
    alone, so memo maps those (member indices and q bytes; the mode is
    fixed by the caller) to the _top_eigenvalue result, and a superstate
    that recurs across partitions is scored once."""
    Q = hard_membership(partition, rho)
    out = np.zeros(partition.k)
    for jj in range(partition.k):
        idx = np.flatnonzero(partition.assign == jj)
        q = Q[idx, jj]
        key = (idx.tobytes(), q.tobytes())
        if key not in memo:
            members = rows[idx]
            memo[key] = _top_eigenvalue(members, q @ members, q, mode)
        out[jj] = memo[key]
    return out


def heterogeneity(pi, partition, rho=None, mode="plain"):
    """t_bar: the largest per-superstate deviation eigenvalue under the
    given partition."""
    prof = heterogeneity_profile(pi, partition, rho, mode)
    return float(prof.max(initial=0.0))


def marginal_return(t_bars):
    """nu(k) = log t_bar(k-1) - log t_bar(k) for every k whose predecessor
    is present. A vanishing t_bar(k) is an exact fit: nu(k) = +inf."""
    nus = {}
    for k in sorted(t_bars):
        if (k - 1) not in t_bars:
            continue
        prev, cur = t_bars[k - 1], t_bars[k]
        if cur < _EXACT_FIT:
            nus[k] = np.inf
        elif prev < _EXACT_FIT:
            # already exact at k-1; no further return to gain
            nus[k] = 0.0
        else:
            nus[k] = float(np.log(prev) - np.log(cur))
    return nus


def select_k(pi, partitions, rho=None, mode="plain"):
    """Score a consecutive family of partitions and pick k_t = argmax nu
    (ties to the smallest k). Exact fits short-circuit: the smallest k with
    t_bar = 0 wins. The family must be nonempty and every partition must
    cover the matrix's n states. A superstate that recurs across k with the
    same inputs is scored once."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    if not partitions:
        raise DimensionMismatch("no partitions to select from")
    ks = sorted(partitions)
    gaps = [k for k in range(ks[0], ks[-1] + 1) if k not in partitions]
    if gaps:
        raise NonConsecutiveK(gaps)
    wrong = [f"k={k}: n={partitions[k].n}" for k in ks
             if partitions[k].n != n]
    if wrong:
        raise DimensionMismatch(f"partitions of the wrong length "
                                f"({', '.join(wrong)}); the matrix has {n} "
                                "states")
    memo = {}
    profiles = {k: _profile(rows, partitions[k], rho, mode, memo)
                for k in ks}
    t_bars = {k: float(p.max(initial=0.0)) for k, p in profiles.items()}
    nus = marginal_return(t_bars)
    per = {k: [float(v) for v in p] for k, p in profiles.items()}
    exact = [k for k in ks[1:] if t_bars[k] < _EXACT_FIT]
    if exact:
        k_t = min(exact)
    elif nus:
        best = max(nus.values())
        k_t = min(k for k, v in nus.items() if v == best)
    else:
        k_t = ks[0]
    return SelectionReport(k_t=k_t, t_bars=t_bars, nus=nus, mode=mode,
                           exact_fit=bool(exact), per_superstate=per)
