"""Deterministic-annealing aggregation.

The annealer keeps a bank of superstate distribution vectors. At every
temperature each distinct centroid carries a shadow copy offset by a small
perturbation along its most unstable direction; above the critical temperature
the copies re-merge, below it they separate, which is how phase transitions
are detected without explicit scheduling. Hard partitions are recorded each
time the number of distinct centroids grows.
"""
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import as_rho, as_rows, make_partition, simplex_basis
from .errors import EmptySuperstate, InadmissiblePerturbation, NoConvergence
from .klgeom import (SoftAssociation, _group_mean, _kl_rows, _self_entropy,
                     _softmin, aggregate_transitions, build_model,
                     distance_matrix, free_energy, gibbs_weights,
                     posterior_and_centroids)
from .selection import _top_deviation

log = logging.getLogger(__name__)

_TINY = 1e-300


@dataclass(frozen=True)
class AnnealConfig:
    alpha: float = 0.9            # geometric cooling factor
    t0_factor: float = 2.0        # T0 = t0_factor * t_cr(single centroid)
    t_min_factor: float = 1e-8    # stop when T < t_min_factor * T0
    merge_tol: float = 1e-6       # inf-norm for identifying coincident centroids
    delta: float = 1e-4           # shadow offset amplitude
    fp_tol: float = 1e-8
    fp_max_iter: int = 500        # map evaluations per fixed point
    k_max: Optional[int] = None   # defaults to n
    seed: int = 0
    schedule: str = "adaptive"    # "adaptive" hugs critical temperatures,
                                  # "geometric" is plain T <- alpha*T
    per_k: bool = False           # fill skipped k values with fixed-k runs
    floor: float = 1e-12


@dataclass(frozen=True)
class CriticalReport:
    per_superstate: np.ndarray
    t_cr: float


@dataclass
class AnnealResult:
    """Entries (k, Partition, AggregatedModel) in increasing k, plus the
    (T, free_energy, effective_count) trace and any convergence warnings."""
    entries: list
    trace: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _fp_iterate(rows, rho, Z0, T, tol, max_iter):
    """Settle the bank at temperature T by the Gibbs-weight / centroid map,
    accelerated by SQUAREM-S3 (Varadhan & Roland 2008).

    Each cycle makes two plain steps Z -> Z1 -> Z2 and extrapolates to
    Z - 2a r + a^2 v, with r = Z1 - Z, v = Z2 - Z1 - r and
    a = min(-|r|/|v|, -1). The next cycle starts from Z2 instead when the
    extrapolated bank leaves the simplex (a negative entry, or a zero where
    Z2 is positive) or when its free energy exceeds that at the cycle start.
    Convergence is a plain step moving less than tol in sup-norm, so the
    returned (Z, assoc) always come from a plain step; max_iter counts map
    evaluations. Returns (Z, assoc, converged). Dead bank rows raise
    EmptySuperstate.
    """
    self_ent = _self_entropy(rows)
    positive = rows > 0
    # a zero-weight state adds nothing, even where its log-sum-exp is -inf
    live = rho > 0
    rho_live = rho[live]

    def weights(Z, energy=True):
        """Gibbs weights at Z and, with energy=True, the free energy there."""
        p, lse = _softmin(_kl_rows(rows, self_ent, positive, Z), T, energy)
        return p, (-T * float(rho_live @ lse[live]) if energy else None)

    Z = np.atleast_2d(np.asarray(Z0, dtype=float)).copy()
    p, f_start = weights(Z)
    cycle = [Z]
    Znew, last = Z, None
    for _ in range(max_iter):
        posterior, Znew = posterior_and_centroids(rows, p, rho)
        last = (p, posterior)
        if np.abs(Znew - Z).max() < tol:
            return Znew, SoftAssociation(*last), True
        Z = Znew
        cycle.append(Z)
        if len(cycle) < 3:
            p, _ = weights(Z, energy=False)
            continue
        Zx = _squarem(*cycle)
        cycle = [Z]
        if Zx is not None and not ((Zx < 0).any()
                                   or ((Zx == 0) & (Z > 0)).any()):
            px, fx = weights(Zx)
            if fx <= f_start:
                Z, p, f_start, cycle = Zx, px, fx, [Zx]
                continue
        p, f_start = weights(Z)
    return Znew, (SoftAssociation(*last) if last else None), False


def _squarem(Z, Z1, Z2):
    """SQUAREM-S3 extrapolation from two plain steps, or None when the step
    length clips to -1 (the extrapolation is Z2 itself)."""
    r = Z1 - Z
    v = Z2 - Z1 - r
    nv = np.linalg.norm(v)
    if not nv > 0:
        return None
    a = -np.linalg.norm(r) / nv
    if a >= -1.0:
        return None
    return Z - 2.0 * a * r + a * a * v


def fixed_point(pi, rho, Z0, T, tol=1e-8, max_iter=500):
    """Converge the Eq.-style alternating update at temperature T.

    Raises NoConvergence (carrying the last iterate) if max_iter is hit;
    the iterate is still usable.
    """
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    Z, assoc, ok = _fp_iterate(rows, rho, Z0, T, tol, max_iter)
    if not ok:
        raise NoConvergence(
            f"fixed point at T={T:g} moved more than {tol:g} after "
            f"{max_iter} iterations", last=(Z, assoc))
    return Z, assoc


def _posterior_from(rows, rho, assoc):
    if assoc.posterior is not None:
        return assoc.posterior
    weighted = rho[:, None] * assoc.p
    col = weighted.sum(axis=0)
    col = np.maximum(col, _TINY)
    return weighted / col


def _critical_full(rows, rho, Z, assoc, floor, vectors=False):
    """Per-centroid critical temperatures, and with vectors=True also the
    split directions as (tcrs, dirs).

    Centroid j's critical temperature is the top eigenvalue of its
    posterior-weighted deviation covariance, whitened by the curvature
    diag((p_j @ rows) / z^2) on the simplex tangent space (Rose 1998). That
    is selection._top_deviation with q = p_j, s = sqrt(p_j @ rows) and u
    along z / s, on the coordinates where z clears the floor and p_j puts
    mass; the others are dropped, never raised over. The split direction is
    x z / s for the top eigenvector x, unit-normalized. A centroid with no
    mass, fewer than 2 kept coordinates or a zero top eigenvalue gets t_cr 0
    and a zero direction.
    """
    k = Z.shape[0]
    posterior = _posterior_from(rows, rho, assoc)
    tcrs = np.zeros(k)
    dirs = np.zeros((k, rows.shape[1])) if vectors else None
    for j in range(k):
        mass = float((rho * assoc.p[:, j]).sum())
        if mass < _TINY:
            continue
        q = posterior[:, j]
        s2 = q @ rows
        keep = np.flatnonzero((Z[j] > floor) & (s2 > 0))
        if len(keep) < 2:
            continue
        z, s = Z[j, keep], np.sqrt(s2[keep])
        out = _top_deviation(rows[:, keep], z, q, s, z / s, vectors)
        if not vectors:
            tcrs[j] = out
            continue
        tcrs[j], x = out
        d = x * z / s
        nrm = np.linalg.norm(d)
        if nrm > 0:
            dirs[j, keep] = d / nrm
    return (tcrs, dirs) if vectors else tcrs


def critical_temperature(pi, rho, Z, assoc, floor=1e-12):
    """Critical temperatures of the current bank: per superstate, the top
    eigenvalue of its posterior-weighted deviation covariance whitened by the
    local KL curvature, on the coordinates where the centroid clears the
    floor and carries posterior mass (see _critical_full); t_cr is the
    largest."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    tcrs = _critical_full(rows, rho, Z, assoc, floor)
    return CriticalReport(per_superstate=tcrs, t_cr=float(tcrs.max()))


_hessian_form_warned = False


def hessian_quadratic_form(pi, rho, Z, assoc, T, perturbation):
    """Second-order variation of the free energy along an admissible
    perturbation of the distribution bank.

    The implemented closed form is the one that matches finite differences
    of the free energy (the printed form with a leading T on the coupling
    term does not; the mismatch is logged once for reference).
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
    coupling = float(rho @ S**2) / T
    literal = T * float(np.sum(S**2))

    global _hessian_form_warned
    if not _hessian_form_warned:
        lit_total = first + literal
        cor_total = first + coupling
        if not np.isclose(lit_total, cor_total,
                          rtol=1e-6, atol=1e-12):
            log.warning(
                "quadratic-form coupling term uses the finite-difference-"
                "consistent scaling (1/T, rho-weighted); the printed T-scaled "
                "variant differs here (%.6g vs %.6g)", lit_total, cor_total)
            _hessian_form_warned = True
    return first + coupling


def extract_hard_partition(assoc, merge_map=None):
    """Assign each state to its heaviest association weight after identifying
    merged centroids. Ties break toward the lowest distinct index; distinct
    indices are compacted into range(k)."""
    p = assoc.p
    n, kb = p.shape
    if merge_map is None:
        merge_map = {j: j for j in range(kb)}
    n_distinct = len(set(merge_map.values()))
    grouped = np.zeros((n, n_distinct))
    for b in range(kb):
        grouped[:, merge_map[b]] += p[:, b]
    raw = np.argmax(grouped, axis=1)
    used, compact = np.unique(raw, return_inverse=True)
    return make_partition(compact, k=len(used))


def _merge_bank(Z, tol):
    """Union coincident rows (inf-distance below tol). Returns the distinct
    bank (mean of each group) and the bank-row -> distinct-index map."""
    k = Z.shape[0]
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(k):
        for b in range(a + 1, k):
            if np.abs(Z[a] - Z[b]).max() < tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(a) for a in range(k)})
    index = {r: i for i, r in enumerate(roots)}
    merge_map = {a: index[find(a)] for a in range(k)}
    Zm = np.stack([Z[[a for a in range(k) if find(a) == r]].mean(axis=0)
                   for r in roots])
    return Zm, merge_map


def _shadow_bank(Z, dirs, delta):
    """Two copies per distinct centroid, offset +/- delta along its most
    unstable direction, clipped positive and renormalized."""
    out = []
    owner = []
    for j in range(Z.shape[0]):
        d = dirs[j]
        for s in (+1.0, -1.0):
            z = Z[j] + s * delta * d
            z = np.maximum(z, 1e-15)
            out.append(z / z.sum())
            owner.append(j)
    return np.stack(out), owner


def _converge(rows, rho, Z, T, cfg, warnings, label):
    """Fixed point with dead-centroid recovery; never raises."""
    while True:
        try:
            Z2, assoc, ok = _fp_iterate(rows, rho, Z, T,
                                        cfg.fp_tol, cfg.fp_max_iter)
            if not ok:
                warnings.append((T, label, "max_iter"))
            return Z2, assoc
        except EmptySuperstate as e:
            if Z.shape[0] <= 1:
                raise
            Z = np.delete(Z, e.j, axis=0)


def _record(entries, seen, rows, rho, Z, assoc, merge_map):
    part = extract_hard_partition(assoc, merge_map)
    k = part.k
    if k in seen:
        return
    # distinct bank rows, reindexed to the partition's compacted superstates
    grouped = np.zeros((assoc.p.shape[0], len(set(merge_map.values()))))
    for b, d in merge_map.items():
        grouped[:, d] += assoc.p[:, b]
    raw = np.argmax(grouped, axis=1)
    used = np.unique(raw)
    bank = Z[used]
    if bank.shape[0] != k:
        bank = Z[:k]
    psi = aggregate_transitions(bank, part)
    from .core import AggregatedModel
    entries[k] = (part, AggregatedModel(partition=part, psi=psi,
                                        distributions=bank))
    seen.add(k)


def anneal(pi, rho=None, cfg=AnnealConfig()):
    """Full annealing sweep. Returns AnnealResult whose entries hold at most
    one (k, Partition, AggregatedModel) per k, in increasing k order."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    k_max = cfg.k_max if cfg.k_max is not None else n
    k_max = min(k_max, n)
    rng = np.random.default_rng(cfg.seed)

    entries = {}
    seen = set()
    trace = []
    warnings = []

    z0 = (rho @ rows)[None, :]
    ones = SoftAssociation(p=np.ones((n, 1)),
                           posterior=(rho / rho.sum())[:, None])
    tcrs = _critical_full(rows, rho, z0, ones, cfg.floor)
    _record(entries, seen, rows, rho, z0, ones, {0: 0})
    t0 = cfg.t0_factor * max(tcrs[0], 1e-12)
    t_min = cfg.t_min_factor * t0
    T = t0
    Z = z0
    trace.append((T, free_energy(rows, Z, rho, T), 1))

    while T > t_min and Z.shape[0] < k_max:
        # settle the distinct bank, then probe with shadow copies
        Z, assoc = _converge(rows, rho, Z, T, cfg, warnings, "settle")
        Z, mm = _merge_bank(Z, cfg.merge_tol)
        tcrs, dirs = _critical_full(rows, rho, Z, assoc if Z.shape[0] == assoc.p.shape[1] else
                                    gibbs_weights(distance_matrix(rows, Z), T),
                                    cfg.floor, vectors=True)
        for j in range(Z.shape[0]):
            if not dirs[j].any():
                theta = simplex_basis(n).theta
                d = theta @ rng.standard_normal(n - 1)
                dirs[j] = d / np.linalg.norm(d)
        bank, owner = _shadow_bank(Z, dirs, cfg.delta)
        bank, assoc = _converge(rows, rho, bank, T, cfg, warnings, "shadow")
        Zm, merge_map = _merge_bank(bank, cfg.merge_tol)
        if Zm.shape[0] > Z.shape[0]:
            # a jump past k_max is recorded too; AnnealResult drops entries
            # above k_max. In practice such jumps are rare under adaptive
            # cooling
            _record(entries, seen, rows, rho, Zm, assoc, merge_map)
        Z = Zm
        trace.append((T, free_energy(rows, Z, rho, T), Z.shape[0]))
        if Z.shape[0] >= k_max:
            break
        # cooling
        if cfg.schedule == "adaptive":
            probe = gibbs_weights(distance_matrix(rows, Z), T)
            tcrs = _critical_full(rows, rho, Z, probe, cfg.floor)
            tmax = float(tcrs.max()) if len(tcrs) else 0.0
            nxt = cfg.alpha * T
            if tmax > 0 and tmax < T:
                nxt = min(nxt, 0.95 * tmax)
            T = nxt
        else:
            T = cfg.alpha * T

    result = AnnealResult(entries=[(k, entries[k][0], entries[k][1])
                                   for k in sorted(entries) if k <= k_max],
                          trace=trace, warnings=warnings)
    if cfg.per_k:
        have = {k for k, _, _ in result.entries}
        for k in range(1, k_max + 1):
            if k not in have:
                part, model = aggregate_fixed_k(rows, rho, k, cfg)
                result.entries.append((k, part, model))
        result.entries.sort(key=lambda e: e[0])
    return result


def _lloyd(rows, rho, assign, self_ent, positive, max_iter=200):
    """Zero-temperature polish: reassign to the nearest hard centroid until
    stable. Keeps the group count by reseeding empty groups with the farthest
    row from its current centroid. self_ent and positive are the rows'
    self-entropies and support mask (see klgeom._kl_rows)."""
    assign = np.asarray(assign, dtype=int).copy()
    k = int(assign.max()) + 1
    for _ in range(max_iter):
        W = np.zeros((k, rows.shape[1]))
        for j in range(k):
            idx = np.where(assign == j)[0]
            if len(idx) == 0:
                continue
            W[j] = _group_mean(rows[idx], rho[idx])
        D = _kl_rows(rows, self_ent, positive, W)
        new = np.argmin(D, axis=1)
        # reseed empties deterministically
        for j in range(k):
            if not np.any(new == j):
                cur = D[np.arange(len(new)), new]
                donors = np.where(np.bincount(new, minlength=k)[new] > 1)[0]
                if len(donors) == 0:
                    break
                far = donors[np.argmax(cur[donors])]
                new[far] = j
        if np.array_equal(new, assign):
            break
        assign = new
    return assign


def aggregate_fixed_k(pi, rho, k, cfg=AnnealConfig()):
    """Independent annealing run targeting exactly k superstates: seeded
    perturbed initialization around the global centroid, plain cooling, then
    a zero-temperature polish."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    if k == 1:
        part = make_partition(np.zeros(n, dtype=int), k=1)
        return part, build_model(rows, part.assign, rho)
    rng = np.random.default_rng(cfg.seed + 7919 * k)
    theta = simplex_basis(rows.shape[1]).theta
    z0 = rho @ rows
    bank = []
    for _ in range(k):
        d = theta @ rng.standard_normal(rows.shape[1] - 1)
        d = d / np.linalg.norm(d)
        z = np.maximum(z0 + cfg.delta * d, 1e-15)
        bank.append(z / z.sum())
    Z = np.stack(bank)
    ones = SoftAssociation(p=np.ones((n, 1)),
                           posterior=(rho / rho.sum())[:, None])
    tcrs = _critical_full(rows, rho, z0[None, :], ones, cfg.floor)
    T = cfg.t0_factor * max(tcrs[0], 1e-12)
    t_min = cfg.t_min_factor * T
    warnings = []
    prev = Z.copy()
    still = 0
    while T > t_min:
        Z, assoc = _converge(rows, rho, Z, T, cfg, warnings, "fixed_k")
        if Z.shape[0] < k:
            # a centroid died; respawn near the heaviest one
            while Z.shape[0] < k:
                d = theta @ rng.standard_normal(rows.shape[1] - 1)
                z = np.maximum(Z[0] + cfg.delta * d / np.linalg.norm(d), 1e-15)
                Z = np.vstack([Z, z / z.sum()])
        if Z.shape == prev.shape and np.abs(Z - prev).max() < cfg.fp_tol:
            still += 1
            if still >= 3:
                break
        else:
            still = 0
        prev = Z.copy()
        T = cfg.alpha * T
    D = distance_matrix(rows, Z)
    assign = np.argmin(D, axis=1)
    # force k nonempty groups before polishing
    for j in range(k):
        if not np.any(assign == j):
            counts = np.bincount(assign, minlength=k)
            donors = np.where(counts[assign] > 1)[0]
            far = donors[np.argmax(D[donors, assign[donors]])]
            assign[far] = j
    assign = _lloyd(rows, rho, assign, _self_entropy(rows), rows > 0)
    used, compact = np.unique(assign, return_inverse=True)
    part = make_partition(compact, k=len(used))
    return part, build_model(rows, part.assign, rho)
