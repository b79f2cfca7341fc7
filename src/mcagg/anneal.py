"""Deterministic-annealing aggregation.

The annealer keeps a bank of superstate distribution vectors. At every
temperature each distinct centroid carries a shadow copy offset along its most
unstable direction; above the critical temperature the copies re-merge, below
it they separate, which is how phase transitions are detected without explicit
scheduling. A centroid that is stable at the new temperature is offset by the
small _DELTA; an unstable one starts at the mean-field amplitude of its split,
so its fixed point does not have to grow the split from _DELTA. Hard
partitions are recorded each time the number of distinct centroids grows.
"""
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import _closure, as_rho, as_rows, make_partition, resolve_k_max
from .errors import EmptySuperstate, InadmissiblePerturbation
from .klgeom import (_DENSE_MAX, _EXACT_FIT, _TINY, SoftAssociation, _Gibbs,
                     _kept, _kl_rows, _lengths, _self_entropy,
                     _top_deviation, hard_centroids, posterior_and_centroids)

# The annealing recipe, one for every run (Rose, Proc. IEEE 1998). The
# function named in each comment reads the constant when called, not as a
# default argument, so a script may patch it for a null run; anneal also
# reads klgeom's _EXACT_FIT, and _critical_full klgeom's _FLOOR via _kept.
_ALPHA = 0.9            # anneal: cooling factor, T <- at most _ALPHA * T
_T0_FACTOR = 2.0        # anneal: T0 = _T0_FACTOR * the starting t_cr
_T_MIN_FACTOR = 1e-8    # anneal: stop once T < _T_MIN_FACTOR * T0
_MERGE_TOL = 1e-3       # anneal: inf-norm under which centroids coincide
_DELTA = 1e-4           # _shadow_offsets: least shadow offset amplitude
_FP_TOL = 1e-6          # _fp_iterate: sup-norm step that ends a fixed point
# The merge test reads the settled bank at _MERGE_TOL only, so a fixed point
# settles to _FP_TOL and no finer. _MERGE_TOL > 2 _DELTA puts a stable
# centroid's two shadows inside the merge radius from the start, and the
# factor 1000 between the two leaves every near-critical stable pair merged
# (tests/test_anneal.py::test_near_critical_pairs_merge_below_t_cr_split_above)
_FP_MAX_ITER = 500      # _fp_iterate: map evaluations per fixed point
_LLOYD_MAX_ITER = 200   # _lloyd: reassignment rounds of refinement's polish


@dataclass(frozen=True)
class AnnealConfig:
    k_max: Optional[int] = None   # resolved by core.resolve_k_max


@dataclass(frozen=True)
class CriticalReport:
    per_superstate: np.ndarray
    t_cr: float


@dataclass
class AnnealResult:
    """The sweep's partitions, one per k it reached, in increasing k (each
    Partition carries its k), plus the (T, free_energy, effective_count)
    trace and any convergence warnings. The trace holds one entry per
    temperature swept, one fixed point each, with the merged bank's free
    energy and size there; a starting centroid that cannot split returns
    k = 1 with an empty trace."""
    entries: list
    trace: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _fp_iterate(rows, self_ent, positive, rho, Z0, T):
    """Settle the bank at temperature T by the Gibbs-weight / centroid map,
    accelerated by SQUAREM-S3 (Varadhan & Roland 2008). self_ent and
    positive are the rows' self-entropies and support mask (see
    klgeom._kl_rows); one klgeom._Gibbs evaluator, built here, gives every
    Gibbs weight and free energy of the fixed point.

    Each cycle makes two plain steps Z -> Z1 -> Z2 and extrapolates to
    Z - 2a r + a^2 v, with r = Z1 - Z, v = Z2 - Z1 - r and
    a = min(-|r|/|v|, -1). The next cycle starts from Z2 instead when the
    extrapolated bank leaves the simplex (a negative entry, or a zero where
    Z2 is positive) or when its free energy exceeds that at the cycle start.
    Convergence is a plain step moving less than _FP_TOL in sup-norm, so
    the returned (Z, assoc) always come from a plain step; _FP_MAX_ITER
    caps the map evaluations. Returns (Z, assoc, converged). Dead bank rows
    raise EmptySuperstate.
    """
    weights = _Gibbs(rows, self_ent, positive, rho, T)
    Z = np.atleast_2d(np.asarray(Z0, dtype=float)).copy()
    p, f_start = weights(Z)
    base, mid = Z, None   # the cycle's start and its first plain step
    Znew, last = Z, None
    for _ in range(_FP_MAX_ITER):
        posterior, Znew = posterior_and_centroids(rows, p, rho)
        last = (p, posterior)
        if np.maximum.reduce(np.abs(Znew - Z), axis=None) < _FP_TOL:
            return Znew, SoftAssociation(*last), True
        Z = Znew
        if mid is None:
            mid = Z
            p, _ = weights(Z, energy=False)
            continue
        Zx = _squarem(base, mid, Z)
        base, mid = Z, None
        # one min-reduce clears a jump inside the simplex's interior
        if Zx is not None and (np.minimum.reduce(Zx, axis=None) > 0 or not (
                (Zx < 0).any() or ((Zx == 0) & (Z > 0)).any())):
            px, fx = weights(Zx)
            if fx <= f_start:
                Z, p, f_start, base = Zx, px, fx, Zx
                continue
        p, f_start = weights(Z)
    return Znew, (SoftAssociation(*last) if last else None), False


def _squarem(Z, Z1, Z2):
    """SQUAREM-S3 extrapolation from two plain steps, or None when the step
    length clips to -1 (the extrapolation is Z2 itself)."""
    r = Z1 - Z
    v = Z2 - Z1 - r
    # np.linalg.norm's own path for a 2-D array, without its dispatch
    rf, vf = r.ravel(order="K"), v.ravel(order="K")
    nv = np.sqrt(vf.dot(vf))
    if not nv > 0:
        return None
    a = -np.sqrt(rf.dot(rf)) / nv
    if a >= -1.0:
        return None
    return Z - 2.0 * a * r + a * a * v


def _posterior_from(rows, rho, assoc):
    if assoc.posterior is not None:
        return assoc.posterior
    weighted = rho[:, None] * assoc.p
    return weighted / np.maximum(weighted.sum(axis=0), _TINY)


def _critical_full(rows, rho, Z, assoc):
    """Per-centroid critical temperatures, split directions and spreads, as
    (tcrs, dirs, sigmas).

    Centroid j's critical temperature is the top eigenvalue of its
    posterior-weighted deviation covariance, whitened by the curvature
    diag((p_j @ rows) / z^2) on the simplex tangent space (Rose 1998). That
    is klgeom._top_deviation with q = p_j and s = sqrt(p_j @ rows), on the
    coordinates where z clears _FLOOR and p_j puts mass; the others are
    dropped, never raised over. Centroids that keep the same coordinates
    are solved as one stacked _top_deviation batch; a lone one, or one whose
    factor takes Lanczos (smaller side above _DENSE_MAX), alone. Each keeps
    the bits of its own 1-D solve. The split direction is x z / s for the
    top eigenvector x, unit-normalized. The spread is the
    posterior-weighted RMS sqrt(sum_i q_i ((rows_i - z) . d)^2) of the
    members along that direction d; it scales the split's shadow offset
    (_shadow_offsets). A centroid with no mass, fewer than 2 kept
    coordinates or a zero top eigenvalue gets t_cr 0, a zero direction and
    spread 0.
    """
    n, k = rows.shape[0], Z.shape[0]
    Q = _posterior_from(rows, rho, assoc).T   # row j: p_j
    tcrs, dirs, proj2 = np.zeros(k), np.zeros(Z.shape), np.zeros((k, n))
    # masses, p_j @ rows and spreads keep 1-D bits: C-ordered row sums and
    # stacked vector-matrix products
    mass = np.multiply(assoc.p.T, rho, order="C").sum(axis=1)
    S2 = (Q[:, None, :] @ rows)[:, 0]
    keep = _kept(Z, S2) & ~(mass < _TINY)[:, None]
    kept, batches = keep.sum(axis=1), {}   # keep pattern -> centroids
    for j in (kept >= 2).nonzero()[0].tolist():
        big = min(n, kept[j]) > _DENSE_MAX   # Lanczos: stacking adds memory
        batches.setdefault(j if big else keep[j].tobytes(), []).append(j)
    for js in batches.values():
        cols = keep[js[0]].nonzero()[0]
        sub = rows[:, cols]
        # a lone centroid keeps the 1-D calls, cheaper than a batch of one
        # with the same bits; a batch, C-ordered items
        js, i = (js[0],) * 2 if len(js) == 1 else (js, np.array(js)[:, None])
        z, s = Z[i, cols], np.sqrt(S2[i, cols])
        tcrs[js], x = _top_deviation(sub, z, Q[js], s, vectors=True)
        d = x * z / s
        nrm = _lengths(d)
        d /= nrm + (nrm == 0)   # nrm is 0 only where x, and so d, is
        dirs[i, cols] = d
        proj2[js] = ((sub - z[..., None, :]) @ d[..., None])[..., 0] ** 2
    sigmas = np.sqrt(Q[:, None, :] @ proj2[..., None])[:, 0, 0]
    return tcrs, dirs, sigmas


def critical_temperature(pi, rho, Z, assoc):
    """Critical temperatures of the current bank: per superstate, the top
    eigenvalue of its posterior-weighted deviation covariance whitened by the
    local KL curvature, on the coordinates where the centroid clears _FLOOR
    and carries posterior mass (see _critical_full); t_cr is the largest."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    tcrs, _, _ = _critical_full(rows, rho, Z, assoc)
    return CriticalReport(per_superstate=tcrs, t_cr=float(tcrs.max()))


def hessian_quadratic_form(pi, rho, Z, assoc, T, perturbation):
    """Second-order variation of the free energy along an admissible
    perturbation of the distribution bank.

    The implemented closed form is the one that matches finite differences
    of the free energy: its coupling term is rho-weighted and scaled by 1/T.
    The printed form, with a leading T on an unweighted coupling term, does
    not match them.
    """
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    psi = np.atleast_2d(np.asarray(perturbation, dtype=float))
    if psi.shape != Z.shape:
        raise InadmissiblePerturbation(
            f"perturbation shape {psi.shape} does not match bank {Z.shape}")
    sums = np.abs(psi.sum(axis=1))
    if sums.max() > 1e-10:
        raise InadmissiblePerturbation(
            f"perturbation rows must sum to zero (max |sum| = {sums.max():g})")
    k = Z.shape[0]
    posterior = _posterior_from(rows, rho, assoc)
    q = (rho[:, None] * assoc.p).sum(axis=0)
    zsafe = np.maximum(Z, _TINY)

    first = 0.0
    for j in range(k):
        pj = posterior[:, j]
        lam = (pj @ rows) / zsafe[j] ** 2
        U = (rows - Z[j]) / zsafe[j]
        Upsi = U @ psi[j]
        quad_c = float(pj @ Upsi**2)
        quad_lam = float(psi[j] @ (lam * psi[j]))
        first += q[j] * (quad_lam - quad_c / T)

    # coupling term: s_i = sum_j p_{j|i} (pi(i)./z(j))^T psi_j
    S = np.zeros(rows.shape[0])
    for j in range(k):
        S += assoc.p[:, j] * ((rows / zsafe[j]) @ psi[j])
    return first + float(rho @ S**2) / T


def extract_hard_partition(assoc, merge_map=None):
    """Assign each state to its heaviest association weight after grouping
    bank column b into merge_map[b] (None: each column its own group). Ties
    break toward the lowest group; groups are compacted into range(k)."""
    p = assoc.p
    n, kb = p.shape
    cols = np.arange(kb) if merge_map is None else np.asarray(merge_map)
    grouped = np.zeros((n, cols.max() + 1))
    # adds the bank's columns into their groups in increasing column order
    np.add.at(grouped.T, cols, p.T)
    raw = np.argmax(grouped, axis=1)
    used, compact = np.unique(raw, return_inverse=True)
    return make_partition(compact, k=len(used))


def _merge_bank(Z, tol):
    """Merge coincident rows: rows linked by a chain of inf-distances below
    tol form one group, indexed in order of its lowest row. Returns the
    distinct bank (mean of each group) and the array of each bank row's
    distinct index."""
    close = np.abs(Z[:, None] - Z[None]).max(axis=2) < tol
    root = np.argmax(_closure(close), axis=1)
    _, index = np.unique(root, return_inverse=True)
    # each group's rows summed in increasing row order, then divided by
    # their count: the bytes of the group's .mean(axis=0)
    Zm = np.zeros((index.max() + 1, Z.shape[1]))
    np.add.at(Zm, index, Z)
    Zm /= np.bincount(index)[:, None]
    return Zm, index


def _split_amplitude(beta):
    """The positive root m of m = tanh(beta m): the mean-field magnetisation
    of a symmetric two-point split at beta = t_cr / T (Rose 1998, Sec. III).
    It is 0 for beta <= 1, where the split is stable. m - tanh(beta m) is
    convex on m > 0, so Newton from m = 1 falls monotonically onto the root;
    it stops at the first step that does not fall."""
    if not beta > 1.0:
        return 0.0
    m = 1.0
    while True:
        t = math.tanh(beta * m)
        nxt = m - (m - t) / (1.0 - beta * (1.0 - t * t))
        if not 0.0 < nxt < m:
            return m
        m = nxt


def _shadow_offsets(tcrs, sigmas, T):
    """Per-centroid shadow offsets at T: max(_DELTA, sigma m), with m the
    split amplitude at beta = t_cr / T. A centroid with t_cr <= T gets
    exactly _DELTA."""
    return np.array([max(_DELTA, s * _split_amplitude(t / T))
                     for t, s in zip(tcrs, sigmas)])


def _shadow_bank(Z, dirs, offsets):
    """Two copies per distinct centroid j, offset +/- offsets[j] along its
    most unstable direction, clipped positive and renormalized. Rows 2j
    and 2j + 1 are centroid j's + and - copies."""
    step = np.repeat(offsets, 2) * np.tile([1.0, -1.0], len(offsets))
    z = np.repeat(Z, 2, axis=0) + step[:, None] * np.repeat(dirs, 2, axis=0)
    z = np.maximum(z, 1e-15)
    return z / z.sum(axis=1, keepdims=True)


def _converge(rows, self_ent, positive, rho, Z, T, warnings):
    """Fixed point with dead-centroid recovery; never raises."""
    while True:
        try:
            Z2, assoc, ok = _fp_iterate(rows, self_ent, positive, rho, Z, T)
            if not ok:
                warnings.append((T, "shadow", "max_iter"))
            return Z2, assoc
        except EmptySuperstate as e:
            if Z.shape[0] <= 1:
                raise
            Z = np.delete(Z, e.j, axis=0)


def anneal(pi, rho=None, cfg=AnnealConfig()):
    """Full annealing sweep, by the module's fixed recipe, up to cfg.k_max
    centroids, resolved by resolve_k_max. The sweep stops, too, once the
    largest critical temperature is below _EXACT_FIT: then no centroid can
    split (a starting centroid that cannot returns k = 1 with no trace).
    Returns AnnealResult whose entries hold at most one Partition per k, in
    increasing k order."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    k_max = resolve_k_max(n, cfg.k_max)

    self_ent, positive = _self_entropy(rows), rows > 0
    entries = {1: make_partition(np.zeros(n, dtype=int), k=1)}
    trace = []
    warnings = []

    z0 = (rho @ rows)[None, :]
    ones = SoftAssociation(p=np.ones((n, 1)),
                           posterior=(rho / rho.sum())[:, None])
    tcrs, dirs, sigmas = _critical_full(rows, rho, z0, ones)
    if tcrs[0] < _EXACT_FIT:
        # a one-centroid bank's posterior is rho at every T, so its t_cr
        # does not depend on T: it never splits
        return AnnealResult(entries=[entries[1]])
    t0 = _T0_FACTOR * tcrs[0]
    t_min = _T_MIN_FACTOR * t0
    T = t0
    Z = z0

    while T > t_min and Z.shape[0] < k_max:
        # shadow copies of the distinct bank along the directions solved at
        # the previous temperature (or for the starting centroid), offset by
        # the split amplitudes that their t_cr give at T, settled once at T.
        # A centroid with a zero direction gets two coincident copies, which
        # merge back
        bank = _shadow_bank(Z, dirs, _shadow_offsets(tcrs, sigmas, T))
        bank, assoc = _converge(rows, self_ent, positive, rho, bank, T,
                                warnings)
        Zm, merge_map = _merge_bank(bank, _MERGE_TOL)
        if Zm.shape[0] > Z.shape[0]:
            # a jump past k_max is recorded too; AnnealResult drops entries
            # above k_max. In practice such jumps are rare under adaptive
            # cooling
            part = extract_hard_partition(assoc, merge_map)
            entries.setdefault(part.k, part)
        Z = Zm
        # the merged bank's Gibbs weights at T give the trace its free
        # energy and, unless the bank is full, one solve gives the critical
        # temperatures for cooling and the next directions
        p, f = _Gibbs(rows, self_ent, positive, rho, T)(Z)
        trace.append((T, f, Z.shape[0]))
        if Z.shape[0] >= k_max:
            break
        tcrs, dirs, sigmas = _critical_full(rows, rho, Z,
                                            SoftAssociation(p=p))
        tmax = float(tcrs.max())
        if tmax < _EXACT_FIT:
            # every centroid sits on its members' rows: cooling splits none
            break
        nxt = _ALPHA * T
        if tmax < T:
            nxt = min(nxt, 0.95 * tmax)
        T = nxt

    return AnnealResult(entries=[entries[k] for k in sorted(entries)
                                 if k <= k_max],
                        trace=trace, warnings=warnings)


def _lloyd(rows, rho, assign, self_ent, positive):
    """Zero-temperature polish: reassign every state with rho > 0 to the
    nearest hard centroid until stable. A state with rho = 0 adds nothing
    to the distortion wherever it sits, so it keeps its group. Keeps the
    group count by reseeding empty groups with the positive-weight row
    farthest from its current centroid. self_ent and positive are the rows'
    self-entropies and support mask (see klgeom._kl_rows)."""
    assign = np.asarray(assign, dtype=int).copy()
    k = int(assign.max()) + 1
    live = rho > 0
    for _ in range(_LLOYD_MAX_ITER):
        W = hard_centroids(rows, assign, rho)
        D = _kl_rows(rows, self_ent, positive, W)
        new = np.where(live, np.argmin(D, axis=1), assign)
        # reseed empties in group order (a donor's group keeps a member)
        for j in np.flatnonzero(np.bincount(new, minlength=k) == 0):
            cur = D[np.arange(len(new)), new]
            donors = np.where(live
                              & (np.bincount(new, minlength=k)[new] > 1))[0]
            if len(donors) == 0:
                break
            far = donors[np.argmax(cur[donors])]
            new[far] = j
        if np.array_equal(new, assign):
            break
        assign = new
    return assign
