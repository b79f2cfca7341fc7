"""KL-divergence geometry: distances, distortion, Gibbs association weights,
centroid updates, aggregated transition construction, and the deviation
eigen-kernel _top_deviation. That kernel gives both the annealer's critical
temperatures and selection's heterogeneity t_bar, so the thresholds on its
eigenvalue (_FLOOR, _EXACT_FIT) are defined here, once, for both.

All logarithms are natural. Exponentials are computed with max-subtraction so
small temperatures do not overflow. No KL computation takes a floor: a zero
coordinate against positive mass honestly yields +inf (smoothing at
ingestion is the supported way to avoid that).
"""
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .core import as_rho, as_rows, AggregatedModel, make_partition
from .errors import (DimensionMismatch, EmptySuperstate,
                     NonPositiveTemperature)

_TINY = 1e-300
_FLOOR = 1e-12       # centroid coordinates at or below it leave every
                     # deviation eigen-solve (_kept)
_EXACT_FIT = 1e-14   # t_bar below this is reported as an exact fit; the
                     # sweep stops once every t_cr is below it
_DENSE_MAX = 128     # _top_deviation runs Lanczos above this Gram size
_RITZ_TOL = 1e-13    # Lanczos stops once the top Ritz residual is below
                     # this fraction of the Ritz value


def _kept(z, s2):
    """The floor rule of every deviation eigen-solve, t_cr and t_bar alike:
    keep the coordinates where the centroid z clears _FLOOR and carries
    mass, s2 = q @ rows > 0 (for a hard group s2 = z). The others are
    dropped, whatever the members do there."""
    return (z > _FLOOR) & (s2 > 0)


@dataclass(frozen=True)
class SoftAssociation:
    """Gibbs weights p (rows over superstates, each row sums to 1) and the
    posterior P (columns sum to 1)."""
    p: np.ndarray
    posterior: np.ndarray = None


def kl_divergence(p, q):
    """Relative entropy sum(p log(p/q)) in nats, with 0 log 0 = 0; a
    coordinate where p > 0 but q = 0 gives +inf."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"{p.shape} vs {q.shape}")
    mask = p > 0
    if np.any(mask & (q <= 0)):
        return float("inf")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _self_entropy(rows):
    """Per-row sum p log p, with 0 log 0 = 0."""
    return np.sum(np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)), 0.0), axis=1)


def _check_bank(rows, Z):
    if rows.shape[1] != Z.shape[1]:
        raise DimensionMismatch(f"{rows.shape} vs {Z.shape}")


def _kl_rows(rows, self_ent, positive, Z):
    """The KL kernel behind distance_matrix: n x k distances from rows to the
    bank Z, given the rows' self-entropies and support mask (rows > 0), so a
    caller that evaluates many banks against one set of rows computes those
    two once."""
    _check_bank(rows, Z)
    D = self_ent[:, None] - rows @ np.log(np.maximum(Z, _TINY)).T
    zero = Z <= 0
    if zero.any():
        # honest +inf where a centroid has no mass on a used coordinate
        viol = positive.astype(float) @ zero.T.astype(float)
        D[viol > 0] = np.inf
    return D


def distance_matrix(pi, Z):
    """n x k matrix of KL distances from every row of pi to every row of Z."""
    rows = as_rows(pi)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return _kl_rows(rows, _self_entropy(rows), rows > 0, Z)


def distortion(pi, model, rho=None):
    """rho-weighted cumulative KL distance of each state to its superstate's
    distribution in model, an AggregatedModel."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    d = distance_matrix(rows, model.distributions)[
        np.arange(rows.shape[0]), model.partition.assign]
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
    A = D / -T   # one pass over D; negating T instead of D is exact
    m = np.maximum.reduce(A, axis=1, keepdims=True)
    dead = ~np.isfinite(m[:, 0])
    if dead.any():
        m[dead] = 0.0
        E = np.exp(A - m)
        E[dead] = 1.0
    else:
        E = np.exp(A - m)
    s = np.add.reduce(E, axis=1, keepdims=True)
    if not with_lse:
        return E / s, None
    lse = m[:, 0] + np.log(s[:, 0])
    lse[dead] = -np.inf
    return E / s, lse


class _Gibbs:
    """Gibbs weights of banks against fixed rows, rho and T, and the free
    energy -T sum_i rho_i lse_i there: the map evaluation of the annealer's
    fixed point and the one free-energy kernel. Built once per (rows, rho,
    T), so the temperature check and the rho > 0 mask run once; self_ent
    and positive are the rows' self-entropies and support mask (see
    _kl_rows). A state with rho = 0 adds nothing to the free energy, even
    where its log-sum-exp is -inf.

    A bank whose entries all exceed _TINY (at T > _TINY) takes a fast path:
    its distances, and their quotients by T, are finite, so the clamp, the
    +inf scan and the dead-row fix-up cannot fire and are skipped. Any other
    bank goes through _kl_rows and _softmin. Both paths give the same bits.
    """

    def __init__(self, rows, self_ent, positive, rho, T):
        if T <= 0:
            raise NonPositiveTemperature(f"T = {T}")
        self.rows, self.self_ent, self.positive = rows, self_ent, positive
        self.T = T
        self.live = rho > 0
        # where every weight is live, the free energy is rho @ lse as is
        self.all_live = bool(self.live.all())
        self.rho_live = rho if self.all_live else rho[self.live]
        # a bank above _TINY has D <= -log(_TINY) < 700, so D / T stays
        # finite for T > _TINY
        self.fast = T > _TINY

    def __call__(self, Z, energy=True):
        """Gibbs weights at the bank Z and, with energy=True, the free
        energy there (None otherwise)."""
        if self.fast and np.minimum.reduce(Z, axis=None) > _TINY:
            # one buffer, in _softmin's order: (self_ent - rows log Z^T) / -T,
            # less the row max, exp, normalized
            p = self.rows @ np.log(Z).T
            np.subtract(self.self_ent[:, None], p, out=p)
            p /= -self.T
            m = np.maximum.reduce(p, axis=1, keepdims=True)
            p -= m
            np.exp(p, out=p)
            s = np.add.reduce(p, axis=1, keepdims=True)
            p /= s
            lse = m[:, 0] + np.log(s[:, 0]) if energy else None
        else:
            D = _kl_rows(self.rows, self.self_ent, self.positive, Z)
            p, lse = _softmin(D, self.T, energy)
        if not energy:
            return p, None
        if not self.all_live:
            lse = lse[self.live]
        return p, -self.T * float(self.rho_live @ lse)


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
    # the ufunc reductions the ndarray methods call, without their dispatch
    col = np.add.reduce(weighted, axis=0)
    if np.minimum.reduce(col) < _TINY:
        raise EmptySuperstate(int(np.flatnonzero(col < _TINY)[0]))
    posterior = weighted / col
    Z = posterior.T @ rows
    return posterior, Z


def free_energy(pi, Z, rho=None, T=1.0):
    """Annealed objective -T sum_i rho_i log sum_j exp(-KL_ij / T)."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    _check_bank(rows, Z)
    return _Gibbs(rows, _self_entropy(rows), rows > 0, rho, T)(Z)[1]


def aggregate_transitions(Z, partition):
    """Superstate-level transition matrix: psi_jm sums z_j over group m."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n, k = partition.n, partition.k
    if Z.shape[0] != k or Z.shape[1] != n:
        raise DimensionMismatch(
            f"bank shape {Z.shape} does not match partition ({n}, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), partition.assign] = 1.0
    return Z @ onehot


def _member_weights(assign, rho, k):
    """rho, except 1 for each member of a group of zero total weight."""
    return np.where(np.bincount(assign, rho, k)[assign] == 0.0, 1.0, rho)


def hard_centroids(pi, assign, rho=None):
    """rho-weighted mean row per group; the hard-partition bank W, as one
    product Q @ rows (Q: k x n member weights) over each group's mass. A
    group whose states all have zero weight gets their plain mean."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    k = int(np.max(assign)) + 1
    w = _member_weights(assign, rho, k)
    Q = np.zeros((k, n))
    Q[assign, np.arange(n)] = w
    return (Q @ rows) / np.bincount(assign, w, k)[:, None]


def build_model(pi, assign, rho=None, bank=None):
    """AggregatedModel from a hard assignment; bank defaults to hard centroids."""
    rows = as_rows(pi)
    part = make_partition(assign)
    if bank is None:
        bank = hard_centroids(rows, part.assign, rho)
    psi = aggregate_transitions(bank, part)
    return AggregatedModel(partition=part, psi=psi, distributions=bank)


@lru_cache(maxsize=128)
def _start_vector(m):
    """Fixed start vector of length m for _top_deviation's inverse
    iteration and Lanczos runs, drawn from its own generator so that no
    caller's random stream moves. Read-only, because it is shared between
    calls; a vector the cache dropped is drawn again, bit for bit."""
    b = np.random.default_rng(0).standard_normal(m)
    b.flags.writeable = False
    return b


def _lanczos_top(A, wide):
    """Top eigenpair (t, y) of the Gram G = A A^T (wide) or A^T A, by
    Lanczos with full reorthogonalisation (Golub & Van Loan, sec. 10.1) on
    products with A and A^T; G is never formed. A is first divided by its
    largest entry, so no product can under- or overflow, and t is scaled
    back. The first Lanczos vector is G b for the fixed start vector b, so
    every vector lies in range(G).

    The run stops at the first check where the top Ritz pair (theta, Q s)
    of the tridiagonal T has residual beta_j |s_j| <= _RITZ_TOL theta, and
    in any case at step r = size of G, where the Krylov space is all of it
    and the pair is exact; there is no other limit. Each check is a dense
    eigh of T, so checks come at steps 8, 10, 12, 15, ..., each a quarter
    past the last, and at any step whose beta_j alone meets the bound (an
    invariant subspace). y is the unit Ritz vector, or zero when A is zero
    (t = 0).
    """
    r = min(A.shape)
    scale = np.abs(A).max(initial=0.0)
    if not scale > 0:
        return 0.0, np.zeros(r)
    A = A / scale
    gram = (lambda v: A @ (v @ A)) if wide else (lambda v: (A @ v) @ A)
    basis = np.empty((r, r))
    T = np.zeros((r, r))   # tridiagonal, kept in its lower triangle
    v = gram(_start_vector(r))
    v /= np.linalg.norm(v)
    top, check = 0.0, 8    # top: largest alpha, a lower bound on theta
    for j in range(r):
        basis[j] = v
        g = gram(v)
        T[j, j] = alpha = v @ g
        top = max(top, alpha)
        V = basis[:j + 1]
        g -= (V @ g) @ V
        g -= (V @ g) @ V
        beta = np.linalg.norm(g)
        last = j == r - 1 or beta <= _RITZ_TOL * top
        if last or j + 1 == check:
            theta, S = np.linalg.eigh(T[:j + 1, :j + 1])
            if last or beta * abs(S[-1, -1]) <= _RITZ_TOL * theta[-1]:
                break
            check += check // 4
        T[j + 1, j] = beta
        v = g / beta
    return float(theta[-1]) * scale * scale, S[:, -1] @ V


def _lengths(x):
    """sqrt(v.dot(v)) as np.linalg.norm takes it, of a vector or each row."""
    if x.ndim == 1:
        return math.sqrt(x.dot(x))
    x = np.ascontiguousarray(x)
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]


def _top_deviation(members, w, q, s, u, vectors=False):
    """Largest eigenvalue t of A^T A for the m x d deviation factor
    A = sqrt(q) (U - (U u) u^T), with U = (members - w) / s and u scaled to
    unit length.

    The eigensolve runs on the smaller Gram G, A A^T or A^T A, of size
    r = min(m, d). Up to r = _DENSE_MAX, t is the top eigenvalue from
    eigvalsh (0 when G has none above 0); above it, t and its vector come
    from _lanczos_top, which never forms G. With vectors=True it returns
    (t, x), x the unit top eigenvector of A^T A (A^T y normalized on the
    A A^T side), or zeros when t is 0. On the dense path the eigenvector
    comes from one step of inverse iteration at the known t (Golub & Van
    Loan, sec. 8.2): solve (G / t - (1 + 2^-36) I) y = G b / t for a fixed
    start vector b. The matrix is negative definite, so the solve never
    meets a singular matrix and y stays near 2^36 in size. On both paths y
    lies in range(G), so x stays orthogonal to u, and on a multiple top
    eigenvalue x is the projection of A^T b (or b) onto that eigenspace,
    the same on every call.

    w, q, s and u may carry a leading batch axis of superstates over the
    same members. t and x then come back stacked, each item with the bits of
    its 1-D call: stacked products, eigvalsh, solve and Lanczos run item-wise.
    """
    U = (members - w[..., None, :]) / s[..., None, :]
    u = u / _lengths(u)
    A = np.sqrt(q)[..., None] * (U - (U @ u[..., None]) * u[..., None, :])
    At = A.swapaxes(-1, -2)
    wide, r = A.shape[-2] <= A.shape[-1], min(A.shape[-2:])
    if r > _DENSE_MAX:
        t, y = (_lanczos_top(A, wide) if A.ndim == 2 else
                map(np.array, zip(*[_lanczos_top(a, wide) for a in A])))
        if not vectors:
            return t
    else:
        G = A @ At if wide else At @ A
        t = np.linalg.eigvalsh(G).max(axis=-1, initial=0.0)
        if not vectors:
            return t
        G /= (t + (t <= 0))[..., None, None]   # a t of 0 divides by 1
        rhs = G @ _start_vector(r)[:, None]
        G.reshape(-1, r * r)[:, ::r + 1] -= 1.0 + 2.0**-36   # the diagonals
        y = np.linalg.solve(G, rhs)[..., 0]
    x = (At @ y[..., None])[..., 0] if wide else y
    nrm = _lengths(x)
    if x.ndim == 1:
        return (float(t), x / nrm) if t > 0 < nrm else (0.0, np.zeros(len(x)))
    ok = (t > 0)[:, None] & (nrm > 0)
    return np.where(ok[:, 0], t, 0.0), np.divide(x, nrm, out=np.zeros_like(x),
                                                 where=ok)
