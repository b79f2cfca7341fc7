"""End-to-end aggregation: anneal, refine per-k partitions, select k.

The annealing sweep gives one partition per k it passes through. Refinement
closes gaps and repairs near-critical artifacts deterministically: for each
k we collect the sweep partition (polished) together with single-group
splits of the chosen (k-1)-partition, and keep whichever has the lowest
distortion. Selection then scores the chosen family.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .anneal import AnnealConfig, _lloyd, aggregate_fixed_k, anneal
from .core import as_rho, as_rows, make_partition
from .klgeom import (_group_mean, _kl_rows, _self_entropy, build_model,
                     hard_centroids)
from .selection import SelectionOptions, SelectionReport, select_k

__all__ = ["PipelineResult", "run_pipeline", "refine_per_k"]


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
    """Distortion of the hard partition against its own centroids."""
    W = hard_centroids(rows, assign, rho)
    d = _kl_rows(rows, self_ent, positive, W)[np.arange(rows.shape[0]), assign]
    used = rho > 0
    return float(rho[used] @ d[used])


def _group_terms(Sg, Mg, SEg):
    """Per-group distortion terms SE_g - S_g . log(S_g / M_g), one per row
    of Sg; an empty group (M_g <= 0) contributes 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(np.maximum(Sg / Mg[:, None], 1e-300))
        return np.where(Mg > 0.0, SEg - np.einsum("ij,ij->i", Sg, lz), 0.0)


# rows per scan block of _move_descent: a block's stale table columns are
# recomputed just before the scan reads it
_BLOCK = 32


def _move_descent(rows, rho, assign, self_ent, max_passes=50):
    """Single-state relocation descent with immediate centroid updates.

    Batch reassignment (Lloyd) stalls on stale centroids; moving one state
    at a time escapes those plateaus. Total distortion decomposes per group
    as SE_g - S_g . log(S_g / M_g), with S_g the rho-weighted row sum, M_g
    the group mass and SE_g the weighted self-entropies (the Bregman
    information form of KL hard clustering), so the value of every move is
    read from one n x k table: tab[i, g] is group g's term with state i
    added, or, for i's own group, with i removed.

    A move from group a to group b changes S, M and SE of a and b only, so
    it bumps their versions ver[a] and ver[b]; seen[i, g] is the version
    tab[i, g] was computed at. The scan reads the rows from the current
    state to the end of its block of _BLOCK rows and, just before,
    recomputes the columns that hold a stale entry in those rows. Every entry read is therefore computed from the current group
    sums by the same row-wise expression, and an entry a move makes stale
    is recomputed only if the scan reads it before its group changes
    again.

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
    se = self_ent * rho
    wrows = rho[:, None] * rows

    S = np.zeros((k, rows.shape[1]))
    M = np.zeros(k)
    SE = np.zeros(k)
    for j in range(k):
        m = assign == j
        S[j] = wrows[m].sum(axis=0)
        M[j] = rho[m].sum()
        SE[j] = se[m].sum()

    tab = np.empty((n, k))
    ver = np.zeros(k, dtype=int)
    seen = np.full((n, k), -1)
    cur = _group_terms(S, M, SE)
    counts = np.bincount(assign, minlength=k)
    for _ in range(max_passes):
        improved = False
        i = 0
        while i < n:
            hi = min((i // _BLOCK + 1) * _BLOCK, n)   # the end of i's block
            own = assign[i:hi]
            cols = np.flatnonzero((seen[i:hi] != ver).any(axis=0))
            if len(cols):
                # rows i..hi of every stale column, member rows as removals
                Sg = S[cols][:, None] + wrows[i:hi]
                Mg = M[cols][:, None] + rho[i:hi]
                SEg = SE[cols][:, None] + se[i:hi]
                c, r = np.nonzero(own == cols[:, None])
                Sg[c, r] = S[cols[c]] - wrows[i + r]
                Mg[c, r] = M[cols[c]] - rho[i + r]
                SEg[c, r] = SE[cols[c]] - se[i + r]
                terms = _group_terms(Sg.reshape(-1, S.shape[1]), Mg.ravel(),
                                     SEg.ravel())
                tab[i:hi, cols] = terms.reshape(len(cols), -1).T
                seen[i:hi, cols] = ver[cols]
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
            S[a] -= wrows[i]
            M[a] -= rho[i]
            SE[a] -= se[i]
            S[b] += wrows[i]
            M[b] += rho[i]
            SE[b] += se[i]
            cur[a], cur[b] = tab[i, a], tab[i, b]
            counts[a] -= 1
            counts[b] += 1
            assign[i] = b
            ver[a] += 1
            ver[b] += 1
            improved = True
            i += 1
        if not improved:
            break
    return assign


def _farthest(rows, rho, self_ent, positive, idx):
    """Position within idx of the member farthest, in KL, from the
    rho-weighted mean of the rows in idx."""
    w = rho[idx]
    if w.sum() == 0.0:
        w = np.ones(len(idx))   # zero-weight states: their plain mean
    z = (w / w.sum()) @ rows[idx]
    d = _kl_rows(rows[idx], self_ent[idx], positive[idx], z[None, :])[:, 0]
    return int(np.argmax(d))


def _split_two(rows, rho, self_ent, positive, assign, g, knew):
    """2-way Lloyd split of group g seeded by its farthest member; None if
    the split collapses."""
    idx = np.where(assign == g)[0]
    sub = np.zeros(len(idx), dtype=int)
    sub[_farthest(rows, rho, self_ent, positive, idx)] = 1
    R, E, P = rows[idx], self_ent[idx], positive[idx]
    for _ in range(50):
        Z = np.zeros((2, rows.shape[1]))
        for j in (0, 1):
            m = sub == j
            if not m.any():
                return None
            Z[j] = _group_mean(R[m], rho[idx][m])
        new = np.argmin(_kl_rows(R, E, P, Z), axis=1)
        if np.array_equal(new, sub):
            break
        sub = new
    if sub.min() == sub.max():
        return None
    out = assign.copy()
    out[idx[sub == 1]] = knew
    return out


def refine_per_k(pi, rho, sweep_parts, k_max, cfg=AnnealConfig()):
    """Consecutive k -> assignment map, each the lowest-distortion candidate
    among the sweep snapshot and one-group splits of the previous choice."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    ent, pos = _self_entropy(rows), rows > 0
    # Lloyd output bytes -> its move descent; distinct starts repeat often
    # across k, and the descent is deterministic
    descended = {}

    def polish(assign):
        start = _lloyd(rows, rho, assign, ent, pos)
        key = start.tobytes()
        if key not in descended:
            descended[key] = _move_descent(rows, rho, start, ent)
        return descended[key]

    chosen = {1: np.zeros(n, dtype=int)}
    for k in range(2, k_max + 1):
        cands = []
        if k in sweep_parts:
            raw = np.asarray(sweep_parts[k], dtype=int)
            a = polish(raw)
            cands.append(a if a.max() + 1 == k else raw)
        prev = chosen[k - 1]
        kprev = int(prev.max()) + 1
        for g in range(kprev):
            idx = np.where(prev == g)[0]
            if len(idx) < 2:
                continue
            a = prev.copy()
            a[idx[_farthest(rows, rho, ent, pos, idx)]] = kprev
            ap = polish(a)
            for cand in (a, ap):
                if cand.max() + 1 == k:
                    cands.append(cand)
            s = _split_two(rows, rho, ent, pos, prev, g, kprev)
            if s is not None:
                sp = polish(s)
                for cand in (s, sp):
                    if cand.max() + 1 == k:
                        cands.append(cand)
        if not cands:
            # sweep skipped k and no split applies: independent fixed-k run
            part, _ = aggregate_fixed_k(rows, rho, k, cfg)
            if part.k == k:
                cands.append(part.assign)
            else:
                chosen[k] = prev
                continue
        # a repeat scores the same, so it can never be the first minimum
        unique = {}
        for a in cands:
            unique.setdefault(a.tobytes(), a)
        cands = list(unique.values())
        scores = [_score(rows, rho, a, ent, pos) for a in cands]
        chosen[k] = cands[int(np.argmin(scores))]
    return chosen


def run_pipeline(pi, rho=None, k_max=None, cfg=None,
                 options=SelectionOptions()):
    """Aggregate then select. Returns PipelineResult with one partition and
    model per k in 1..k_max and the selection report."""
    rows = as_rows(pi)
    n = rows.shape[0]
    rho = as_rho(rho, n)
    if k_max is None:
        k_max = cfg.k_max if cfg is not None and cfg.k_max else min(n, 8)
    k_max = min(int(k_max), n)
    if cfg is None:
        cfg = AnnealConfig(k_max=k_max)
    elif cfg.k_max != k_max:
        cfg = replace(cfg, k_max=k_max)
    result = anneal(rows, rho, cfg)
    sweep_parts = {k: part.assign for k, part, _ in result.entries}
    chosen = refine_per_k(rows, rho, sweep_parts, k_max, cfg)
    partitions = {}
    models = {}
    for k in sorted(chosen):
        a = chosen[k]
        kk = int(a.max()) + 1
        part = make_partition(a, k=kk)
        partitions[k] = part
        models[k] = build_model(rows, part.assign, rho)
    report = select_k(rows, partitions, rho, options)
    return PipelineResult(partitions=partitions, models=models,
                          report=report, trace=result.trace)
