"""End-to-end aggregation: anneal, refine per-k partitions, select k.

The annealing sweep gives one partition per k it passes through. Refinement
gives one partition for every k in 1..min(k_max, n), deterministically: at
each k the candidates are the sweep partition, if the sweep reached k, and
the chosen (k-1)-partition with the farthest state of one group split off,
for each group of at least 2 states, each polished. Polishing is a Lloyd
pass and then a single-state move descent. Lloyd reassigns, and the
descent moves, only states of positive weight: a state of zero weight adds
nothing to the distortion wherever it sits. The candidate with the
lowest distortion wins. Selection then scores the chosen family.
aggregate_fixed_k returns the partition and model at one k of that family.
"""
from dataclasses import dataclass, field

import numpy as np

from .anneal import AnnealConfig, _lloyd, anneal
from .core import as_rho, as_rows, make_partition, resolve_k_max
from .errors import DimensionMismatch
from .klgeom import (_TINY, _kl_rows, _self_entropy, build_model,
                     hard_centroids)
from .selection import SelectionReport, select_k

__all__ = ["PipelineResult", "aggregate_fixed_k", "aggregate_per_k",
           "run_pipeline", "refine_per_k"]


@dataclass
class PipelineResult:
    partitions: dict            # k -> Partition, consecutive from 1
    models: dict                # k -> AggregatedModel
    report: SelectionReport
    trace: list = field(default_factory=list)

    @property
    def k_t(self):
        return self.report.k_t


def _score(rows, rho, assign, self_ent, positive):
    """(distortion, each state's KL distance to its group's hard centroid)."""
    W = hard_centroids(rows, assign, rho)
    d = _kl_rows(rows, self_ent, positive, W)[np.arange(rows.shape[0]), assign]
    used = rho > 0
    return float(rho[used] @ d[used]), d


def _group_terms(Sg, Mg, SEg):
    """Per-group distortion terms SE_g - S_g . log(S_g / M_g), one per row
    of Sg; an empty group (M_g <= 0) contributes 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(np.maximum(Sg / Mg[:, None], _TINY))
        return np.where(Mg > 0.0, SEg - np.einsum("ij,ij->i", Sg, lz), 0.0)


# rows per scan block of _move_descent: the rows of a block that a current
# group column lacks are computed just before the scan reads the block
_BLOCK = 32


def _move_descent(rows, rho, assign, self_ent, memo=None, max_passes=50):
    """Single-state relocation descent with immediate centroid updates.

    Batch reassignment (Lloyd) stalls on stale centroids; moving one state
    at a time escapes those plateaus. Total distortion decomposes per group
    as SE_g - S_g . log(S_g / M_g), with S_g the rho-weighted row sum, M_g
    the group mass and SE_g the weighted self-entropies (the Bregman
    information form of KL hard clustering), so the value of every move is
    read from per-group columns: entry i of group g's column is g's term
    with state i added, or, for a member i, with i removed.

    A group's state is a function of its member set: S_g, M_g and SE_g
    are summed over the members when the set is first met, and memo maps
    the bytes of the member mask to those sums, the column and a mask of
    the rows computed so far. Every state-side input (rho_i, row i,
    self-entropy i) is fixed for given rows, rho and self_ent, so a memo
    may be shared by descents on the same chain and weights, and a hit
    holds the bytes a fresh computation would give. It must not be shared
    across chains or weights. memo=None uses a fresh dict.

    S[g], M[g], SE[g], tab[:, g] and have[:, g] hold group g's memo entry
    while g keeps its members; the entry goes back to the memo when g
    changes and when the descent ends, if it changed: a miss, or a column
    that gained rows. The scan reads the rows from the current state to
    the end of its block of _BLOCK rows and, just before, computes the
    rows of that block that a current column lacks.

    States are visited in index order, one pass after another, and a state
    moves to the first group whose gain beats the best so far by more than
    1e-14. The scan goes straight to the first state in visit order that
    has such a gain: every state in between stays put, because no group it
    depends on has changed since it was last scored.
    """
    assign = np.asarray(assign, dtype=int).copy()
    n = rows.shape[0]
    k = int(assign.max()) + 1
    if k == 1:
        return assign
    if memo is None:
        memo = {}
    se = self_ent * rho
    wrows = rho[:, None] * rows
    # additions in rows 0..n-1, removals (the negated inputs) in n..2n-1
    dw = np.concatenate([wrows, -wrows])
    drho = np.concatenate([rho, -rho])
    dse = np.concatenate([se, -se])

    S = np.empty((k, rows.shape[1]))
    M = np.empty(k)
    SE = np.empty(k)
    tab = np.empty((n, k))
    have = np.empty((n, k), dtype=bool)
    keys = [None] * k
    changed = np.empty(k, dtype=bool)

    def look_up(g):
        m = assign == g
        keys[g] = key = m.tobytes()
        hit = memo.get(key)
        changed[g] = hit is None
        if hit is None:
            S[g] = wrows[m].sum(axis=0)
            M[g] = rho[m].sum()
            SE[g] = se[m].sum()
            have[:, g] = False
        else:
            S[g], M[g], SE[g], tab[:, g], have[:, g] = hit

    def store(g):
        if changed[g]:
            memo[keys[g]] = (S[g].copy(), M[g], SE[g], tab[:, g].copy(),
                             have[:, g].copy())

    for g in range(k):
        look_up(g)
    cur = _group_terms(S, M, SE)
    counts = np.bincount(assign, minlength=k)
    for _ in range(max_passes):
        improved = False
        i = 0
        while i < n:
            hi = min((i // _BLOCK + 1) * _BLOCK, n)   # the end of i's block
            own = assign[i:hi]
            r, c = np.nonzero(~have[i:hi])
            if len(r):
                # S_g + w_i, or S_g - w_i = S_g + (-w_i) for a member row,
                # summed in one buffer as w + S (addition commutes exactly)
                r += i
                d = r + n * (assign[r] == c)
                Sg = dw.take(d, axis=0)
                Sg += S.take(c, axis=0)
                tab[r, c] = _group_terms(Sg, M[c] + drho[d], SE[c] + dse[d])
                have[r, c] = True
                changed[c] = True
            t = tab[i:hi]
            idx = np.arange(hi - i)
            # gain of moving each state to each group, in the tie rule's
            # order: (cur[a] + cur[j]) - (tab[i, a] + tab[i, j])
            gain = (cur[own][:, None] + cur) - (t[idx, own][:, None] + t)
            gain[idx, own] = -np.inf
            gain[counts[own] <= 1] = -np.inf
            hits = np.flatnonzero((gain > 1e-14).any(axis=1))
            if len(hits) == 0:
                i = hi
                continue
            i += int(hits[0])
            g = gain[hits[0]]
            a = assign[i]
            best_gain, b = 0.0, a
            for j in range(k):
                if j != a and g[j] > best_gain + 1e-14:
                    best_gain, b = g[j], j
            cur[a], cur[b] = tab[i, a], tab[i, b]
            store(a)
            store(b)
            counts[a] -= 1
            counts[b] += 1
            assign[i] = b
            look_up(a)
            look_up(b)
            improved = True
            i += 1
        if not improved:
            break
    for g in range(k):
        store(g)
    return assign


def _farthest(assign, d):
    """Per group of assign, the member of largest d, the first on a tie."""
    order = np.lexsort((-d, assign))   # stable: by group, then farthest
    return order[np.searchsorted(assign[order], np.arange(assign.max() + 1))]


def refine_per_k(pi, rho, sweep_parts, k_max):
    """Consecutive k -> assignment map for k in 1..min(k_max, n), each the
    lowest-distortion candidate among the polished sweep snapshot and the
    polished farthest-state splits of the previous choice. The first of
    equal scores wins."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    ent, pos = _self_entropy(rows), rows > 0
    # group state -> column of group terms, shared by this call's descents
    # (one chain, one rho) and dropped with the call
    memo = {}

    def polish(assign):
        return _move_descent(rows, rho, _lloyd(rows, rho, assign, ent, pos),
                             ent, memo)

    # every candidate at k has k groups: Lloyd reseeds an empty group, the
    # descent never empties one, and for k <= n the previous choice has a
    # group of at least 2 states to split
    chosen = {1: np.zeros(n, dtype=int)}
    # d: the latest choice's scored distances, which its splits read
    _, d = _score(rows, rho, chosen[1], ent, pos)
    for k in range(2, min(k_max, n) + 1):
        cands = []
        if k in sweep_parts:
            cands.append(polish(np.asarray(sweep_parts[k], dtype=int)))
        prev = chosen[k - 1]
        far = _farthest(prev, d)
        for g in np.flatnonzero(np.bincount(prev) >= 2):
            a = prev.copy()
            a[far[g]] = k - 1
            cands.append(polish(a))
        # a repeat scores the same, so it can never be the first minimum
        unique = {}
        for a in cands:
            unique.setdefault(a.tobytes(), a)
        cands = list(unique.values())
        scores = [_score(rows, rho, a, ent, pos) for a in cands]
        best = int(np.argmin([s for s, _ in scores]))
        chosen[k], d = cands[best], scores[best][1]
    return chosen


def aggregate_per_k(pi, rho=None, k_max=None):
    """Anneal, then refine: one partition and model per k in 1..k_max, and
    the annealing trace, as (partitions, models, trace). k_max is resolved
    by resolve_k_max."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    k_max = resolve_k_max(n, k_max)
    result = anneal(rows, rho, AnnealConfig(k_max=k_max))
    sweep_parts = {part.k: part.assign for part in result.entries}
    chosen = refine_per_k(rows, rho, sweep_parts, k_max)
    partitions = {}
    models = {}
    for k in sorted(chosen):
        part = make_partition(chosen[k], k=k)
        partitions[k] = part
        models[k] = build_model(rows, part.assign, rho)
    return partitions, models, result.trace


def aggregate_fixed_k(pi, rho, k):
    """The pipeline's partition and model at exactly k superstates, as
    (Partition, AggregatedModel). Raises DimensionMismatch unless
    1 <= k <= n."""
    n = as_rows(pi).shape[0]
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k = {k} is outside 1..{n}")
    partitions, models, _ = aggregate_per_k(pi, rho, k)
    return partitions[k], models[k]


def run_pipeline(pi, rho=None, k_max=None, mode="plain"):
    """Aggregate then select, scoring in the given selection mode. Returns
    PipelineResult with one partition and model per k in 1..k_max and the
    selection report."""
    rows = as_rows(pi)
    rho = as_rho(rho, rows.shape[0])
    partitions, models, trace = aggregate_per_k(rows, rho, k_max)
    report = select_k(rows, partitions, rho, mode)
    return PipelineResult(partitions=partitions, models=models,
                          report=report, trace=trace)
