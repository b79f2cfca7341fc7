"""Record, and compare, what the annealing sweep chooses on a fixed chain set.

A change to annealing that is not bit-identical moves some partitions. This
script records, per chain, k_t, the planted k, at every k the partition
(relabelled canonically, by first occurrence) and its distortion, and the
sweep's cost: its map evaluations (calls of
mcagg.anneal.posterior_and_centroids) and its temperatures (the length of
the pipeline's trace):

    python scripts/sweep_flips.py --out before.json
    python scripts/sweep_flips.py --out after.json      # on the changed code
    python scripts/sweep_flips.py --compare before.json after.json

Every record holds the same 2505 runs:

- acceptance: the 125 chains of acceptance criteria 1-4 (uniform rho);
- large-ncd: the benchmark's six 200-state chains for seeds 1-10;
- ncd100-eps0: the benchmark's 100-state eps = 0 chain for seeds 1-10,
  under stationary rho;
- absorbing: the benchmark's 9-state chain whose state 0 is absorbing, for
  seeds 1-10, under stationary rho. All the steady-state mass sits on
  state 0, so every other state weighs 0 and many partitions tie;
- ncd9-eps0: the benchmark's 70 nine-state eps = 0 chains per seed 1-10
  under stationary rho (700).

The benchmark chains are drawn with the same seeds as perfbench/workloads.py
draws them. Then come 400 seeded random chains of 2-12 states with 30-80%
zero entries, some with an absorbing state and some with duplicated rows,
each run with k_max = n under both rho and every selection mode of
mcagg.selection.MODES, plain and whiten (1600 runs, the degenerate-* sets).
They have no planted k, so their planted_k is null and they count toward
neither the k_t hits nor the flips at k <= planted k_t.

``--null t0|delta|swap`` records a null run of the same code, to size how
many flips a change with no intended effect already causes: ``t0`` and
``delta`` raise the annealer's constant ``_T0_FACTOR`` or ``_DELTA`` by one
ulp, ``swap`` places each shadow pair in -/+ instead of +/- order. Each
patches mcagg.anneal for the run and restores it afterwards.

For every chain of at most 10 states the record also holds the exact
minimum distortion at each k, found by a dynamic program over the 2^n
subsets of states. A partition's distortion is the sum of its groups' terms
SE_g - S_g . log(S_g / M_g) (S_g the rho-weighted row sum, M_g the group
mass, SE_g the weighted self-entropies; Banerjee et al., JMLR 2005), so the
best split of a subset into k groups is the best first group, taken to hold
the subset's lowest state, plus the best split of the rest into k - 1.

``--summary FILE`` writes, per chain set of one record (the one ``--out``
writes, or record B of ``--compare``), the k_t hits, the exact-optimum
count with every miss and its gap, and the summed map evaluations and
temperatures; SWEEP.json at the repository root is that summary:

    python scripts/sweep_flips.py --out record.json --summary SWEEP.json

``--compare`` prints every k_t change and every partition flip with its
distortion before and after, then totals: flips, ties among them
(distortions equal within 1e-12 relative or 1e-15 absolute, so two exact
fits that differ by rounding tie), flips at k <= the planted k_t that raise
distortion by more than a tie, and the summed distortion change over the
flips. For the chains of at most 10 states it also prints every (chain, k)
pair, k >= 2, that gains or loses the optimum (distortion within 1e-9
relative plus 1e-12 absolute of the minimum) and, per chain set, the count
at the optimum, and record B's misses: their number, the largest gap
(d - opt) / opt (absolute where opt = 0) with its (chain, k), and the summed
gap. Per chain set it also prints the summed map evaluations and
temperatures of both records. It exits 1 when any chain's k_t changed, so
it serves as the k_t gate alone.
"""
import argparse
import contextlib
import functools
import importlib
import json
import sys
import time
from unittest import mock

import numpy as np

import mcagg
from mcagg import gen_ncd, gen_replicated_rows, run_pipeline
from mcagg.core import as_rho
from mcagg.selection import MODES

anneal_module = importlib.import_module("mcagg.anneal")

# two distortions closer than TIE_REL relative, or TIE_ABS absolute, are a
# tie: different partitions with the same cost up to rounding, such as
# swapped equal blocks or two exact fits
TIE_REL = 1e-12
TIE_ABS = 1e-15

# exact minima are recorded for the chains of at most EXACT_MAX_N states; a
# distortion at most OPT_REL relative plus OPT_ABS above the minimum is at it
EXACT_MAX_N = 10
OPT_REL = 1e-9
OPT_ABS = 1e-12


def _chain_seeds(seed, tag, count):
    """perfbench/workloads.py's per-chain seeds for one benchmark seed."""
    ss = np.random.SeedSequence([seed, sum(map(ord, tag))])
    return [int(s) for s in ss.generate_state(count)]


def ncd9_chains(tag, eps):
    """(name, rows, rho mode, k_max, planted Partition) for the 30 seeded
    gen_ncd([3, 3, 3], eps) chains of criteria 1 and 4, named tag-seed."""
    for seed in range(30):
        pi, truth = gen_ncd(blocks=[3, 3, 3], eps=eps, seed=seed)
        yield f"{tag}-{seed}", pi.rows, "uniform", 6, truth


def acceptance_chains():
    """(name, rows, rho mode, k_max, planted Partition) for the 125 chains
    of acceptance criteria 1-4."""
    yield from ncd9_chains("crit1", 0.05)
    for seed in range(5):
        pi, truth = gen_ncd(blocks=[10, 30, 20, 20, 20], eps=0.02, seed=seed)
        yield f"crit2-{seed}", pi.rows, "uniform", 8, truth
    for counts in ((4, 3, 3), (3, 3, 2, 2)):
        tag = "".join(map(str, counts))
        for seed in range(30):
            pi, truth = gen_replicated_rows(n=10, counts=counts, eps=0.1,
                                            seed=seed)
            yield f"crit3-{tag}-{seed}", pi.rows, "uniform", 6, truth
    yield from ncd9_chains("crit4", 0.01)


def chains():
    """acceptance_chains(), then the benchmark's chains, in that form."""
    yield from acceptance_chains()
    for seed in range(1, 11):
        for i, s in enumerate(_chain_seeds(seed, "large-ncd", 6)):
            pi, truth = gen_ncd(blocks=[40] * 5, eps=0.02, seed=s)
            yield f"large-ncd-s{seed}-{i}", pi.rows, "uniform", 8, truth
    for seed in range(1, 11):
        seeds = _chain_seeds(seed, "sparse-stationary", 72)
        pi, truth = gen_ncd(blocks=[20] * 5, eps=0.0, seed=seeds[70])
        yield f"ncd100-eps0-s{seed}", pi.rows, "stationary", 6, truth
        pi, truth = gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=seeds[71])
        rows = pi.rows.copy()
        rows[0] = np.eye(9)[0]
        yield f"absorbing-s{seed}", rows, "stationary", 6, truth
        for i, s in enumerate(seeds[:70]):
            pi, truth = gen_ncd(blocks=[3, 3, 3], eps=0.0, seed=s)
            yield f"ncd9-eps0-s{seed}-{i}", pi.rows, "stationary", 6, truth


def rho_of(rows, rho_mode):
    """The weights a chain runs under: None (uniform) or stationary."""
    return (mcagg.stationary_distribution(rows) if rho_mode == "stationary"
            else None)


def degenerate_chains():
    """(name, rows, rho mode, k_max, planted k, selection mode) for the 400
    degenerate chains, each under both rho and every selection mode."""
    rng = np.random.default_rng(20201)
    for i in range(400):
        n = int(rng.integers(2, 13))
        mask = rng.random((n, n)) >= rng.uniform(0.3, 0.8)
        mask[np.arange(n), rng.integers(0, n, n)] = True
        rows = np.where(mask, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
        if rng.random() < 0.5:
            j = rng.integers(n)
            rows[j] = np.eye(n)[j]
        if rng.random() < 0.5:
            rows[rng.integers(0, n, n // 2 + 1)] = rows[rng.integers(n)]
        for rho_mode in ("uniform", "stationary"):
            for mode in MODES:
                yield (f"degenerate-{rho_mode}-{mode}-s{i}", rows, rho_mode,
                       n, None, mode)


def canonical(assign):
    """Labels renumbered by first occurrence, so equal partitions compare
    equal whatever their labels."""
    first = {}
    return [first.setdefault(int(a), len(first)) for a in assign]


@functools.lru_cache(maxsize=None)
def _subset_pairs(n):
    """(mask, sub, starts) over the nonempty subsets mask of n states: every
    sub of mask that holds mask's lowest state, grouped by mask in
    increasing order, with starts the first position of each mask."""
    mask, sub, starts = [], [], []
    for m in range(1, 1 << n):
        low = m & -m
        rest = m ^ low
        starts.append(len(mask))
        r = rest
        while True:
            mask.append(m)
            sub.append(r | low)
            if r == 0:
                break
            r = (r - 1) & rest
    return np.array(mask), np.array(sub), np.array(starts)


def exact_minima(rows, rho, k_max):
    """The minimum distortion over the partitions into exactly k nonempty
    groups, for k in 1..k_max. Computed apart from mcagg, so that a change
    to the package cannot move it."""
    n = rows.shape[0]
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    ent = np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)),
                   0.0).sum(axis=1)
    S, M, SE = bits @ (rho[:, None] * rows), bits @ rho, bits @ (rho * ent)
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(np.maximum(S / M[:, None], 1e-300))
        cost = np.where(M > 0, SE - (S * lz).sum(axis=1), 0.0)
    mask, sub, starts = _subset_pairs(n)
    best = cost.copy()          # best[m]: m split into k groups, here k = 1
    best[0] = np.inf
    out = {1: float(best[-1])}
    for k in range(2, k_max + 1):
        nxt = np.full(1 << n, np.inf)
        nxt[1:] = np.minimum.reduceat(cost[sub] + best[mask ^ sub], starts)
        best = nxt
        out[k] = float(best[-1])
    return out


def _null_patch(null):
    """(name, value) to set on mcagg.anneal for a null run."""
    if null == "t0":
        return "_T0_FACTOR", float(np.nextafter(anneal_module._T0_FACTOR, 3.0))
    if null == "delta":
        return "_DELTA", float(np.nextafter(anneal_module._DELTA, 1.0))
    plain = anneal_module._shadow_bank

    def swapped(Z, dirs, offsets):
        bank = plain(Z, dirs, offsets)
        return bank[np.arange(len(bank)).reshape(-1, 2)[:, ::-1].ravel()]

    return "_shadow_bank", swapped


def record(null):
    with (mock.patch.object(anneal_module, *_null_patch(null)) if null
          else contextlib.nullcontext()):
        return _record()


def _record():
    runs = [(*c, "plain") for c in chains()] + list(degenerate_chains())
    evals = [0]
    step = anneal_module.posterior_and_centroids

    def counting_step(*args):
        evals[0] += 1
        return step(*args)

    out = {}
    for name, rows, rho_mode, k_max, planted, mode in runs:
        rho = rho_of(rows, rho_mode)
        evals[0] = 0
        with mock.patch.object(anneal_module, "posterior_and_centroids",
                               counting_step):
            res = run_pipeline(rows, rho, k_max=k_max, mode=mode)
        out[name] = chain_record(rows, rho, res.partitions, res.models,
                                 res.k_t, planted)
        out[name]["map_evals"] = evals[0]
        out[name]["temperatures"] = len(res.trace)
    return out


def chain_record(rows, rho, partitions, models, k_t, planted):
    """One chain's record without its sweep costs: k_t, the planted k (None
    without a planted Partition), the canonical partition and the
    distortion at every k, and for at most EXACT_MAX_N states the exact
    minima."""
    out = {"k_t": int(k_t),
           "planted_k": None if planted is None else int(planted.k),
           "partitions": {str(k): canonical(p.assign)
                          for k, p in partitions.items()},
           "distortion": {str(k): mcagg.distortion(rows, m, rho)
                          for k, m in models.items()}}
    if rows.shape[0] <= EXACT_MAX_N:
        minima = exact_minima(rows, as_rho(rho, len(rows)), max(partitions))
        out["exact"] = {str(k): v for k, v in minima.items()}
    return out


def family(name):
    """The chain set a chain belongs to, from its name."""
    if name.startswith("crit"):
        return "acceptance"
    return name[:name.rindex("-s")]


def at_optimum(chain, k):
    """Whether the chain's partition at k reaches the exact minimum."""
    d, opt = chain["distortion"][k], chain["exact"][k]
    return d <= opt + OPT_REL * abs(opt) + OPT_ABS


def gap(chain, k):
    """The distortion at k above the exact minimum, relative to it, or
    absolute where the minimum is 0."""
    d, opt = chain["distortion"][k], chain["exact"][k]
    return (d - opt) / abs(opt) if opt else d - opt


# per-chain sweep costs, which every record carries
COSTS = ("map_evals", "temperatures")


def compare(a, b):
    """Print every k_t change and partition flip from run a to run b, then
    the totals per chain set and overall, with the k_t hits, optima, misses
    and costs of summary(a) and summary(b); returns the overall totals."""
    sa, sb = summary(a), summary(b)
    totals = {}
    for name in a:
        ca, cb = a[name], b[name]
        t = totals.setdefault(family(name), dict(
            partitions=0, kt_changed=0, flips=0, ties=0, raised_low=0,
            delta=0.0))
        t["partitions"] += len(ca["partitions"])
        if ca["k_t"] != cb["k_t"]:
            t["kt_changed"] += 1
            print(f"K_T {name}: {ca['k_t']} -> {cb['k_t']} "
                  f"(planted {ca['planted_k']})")
        for k, pa in ca["partitions"].items():
            if pa == cb["partitions"][k]:
                continue
            da, db = ca["distortion"][k], cb["distortion"][k]
            tie = abs(db - da) <= max(TIE_REL * max(abs(da), abs(db)),
                                      TIE_ABS)
            low = (ca["planted_k"] is not None
                   and int(k) <= ca["planted_k"])
            t["flips"] += 1
            t["ties"] += tie
            t["raised_low"] += low and db > da and not tie
            t["delta"] += db - da
            print(f"FLIP {name} k={k}: distortion {da:.6g} -> {db:.6g} "
                  f"({db - da:+.3g}){' tie' if tie else ''}"
                  f"{' at k <= planted' if low else ''}")
        if "exact" not in ca or "exact" not in cb:  # n > EXACT_MAX_N
            continue
        for k in ca["partitions"]:
            if k != "1" and at_optimum(ca, k) != at_optimum(cb, k):
                da, db = ca["distortion"][k], cb["distortion"][k]
                print(f"OPT{'+' if at_optimum(cb, k) else '-'} {name} k={k}: "
                      f"distortion {da:.10g} -> {db:.10g}, optimum "
                      f"{cb['exact'][k]:.10g}")
    overall = {key: sum(t[key] for t in totals.values())
               for key in next(iter(totals.values()))}
    for fam, t in list(totals.items()) + [("all", overall)]:
        ta, tb = sa[fam], sb[fam]
        misses = [m for f in (totals if fam == "all" else [fam])
                  for m in sb[f]["misses"]]
        t["gap_b"] = sum(m["gap"] for m in misses)
        worst = max(misses, key=lambda m: m["gap"], default=None)
        t["worst_b"] = worst and (worst["gap"], worst["chain"],
                                  str(worst["k"]))
        for c in COSTS:
            t[f"{c}_a"], t[f"{c}_b"] = ta[c], tb[c]
        print(f"{fam}: {tb['chains']} chains, {t['partitions']} (chain, k) "
              f"partitions; k_t hits {ta['kt_hits']} -> {tb['kt_hits']}, "
              f"{t['kt_changed']} k_t changes; {t['flips']} flips "
              f"({t['ties']} ties), {t['raised_low']} at k <= planted k_t "
              f"raise distortion beyond a tie; summed distortion change "
              f"over the flips {t['delta']:+.4g}")
        costs = {c: f"{ta[c]} -> {tb[c]}" for c in COSTS}
        print(f"{fam}: map evaluations {costs['map_evals']}, temperatures "
              f"{costs['temperatures']}")
        if tb["exact_pairs"]:
            where = (f", largest gap {worst['gap']:.4g} ({worst['chain']} "
                     f"k={worst['k']})" if worst else "")
            print(f"{fam}: exact optimum at {ta['at_optimum']} -> "
                  f"{tb['at_optimum']} of {tb['exact_pairs']} (chain, k >= 2) "
                  f"pairs; B misses {len(misses)}{where}, summed gap "
                  f"{t['gap_b']:.4g}")
    return overall


def summary(rec):
    """Per chain set of one record, and over all of them ("all"): the
    chains, the k_t hits among the chains with a planted k, the (chain,
    k >= 2) pairs with an exact minimum and how many reach it, each miss
    with its gap (as gap() gives it), and the summed map evaluations and
    temperatures."""
    out = {}
    for name in sorted(rec):
        c = rec[name]
        for fam in (family(name), "all"):
            t = out.setdefault(fam, dict(
                chains=0, planted=0, kt_hits=0, exact_pairs=0, at_optimum=0,
                misses=[], **{cost: 0 for cost in COSTS}))
            t["chains"] += 1
            t["planted"] += c["planted_k"] is not None
            t["kt_hits"] += c["k_t"] == c["planted_k"]
            for cost in COSTS:
                t[cost] += c[cost]
            for k in c.get("exact", ()):
                if k == "1":
                    continue
                t["exact_pairs"] += 1
                if at_optimum(c, k):
                    t["at_optimum"] += 1
                elif fam != "all":
                    t["misses"].append({"chain": name, "k": int(k),
                                        "gap": gap(c, k)})
    out["all"].pop("misses")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the record of this run to a JSON file")
    ap.add_argument("--null", choices=("t0", "delta", "swap"),
                    help="record a null run (see the module docstring)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="print the flips from record A to record B")
    ap.add_argument("--summary", metavar="FILE",
                    help="also write the per-chain-set summary of the new "
                         "record (with --out) or of record B (with "
                         "--compare) to a JSON file")
    args = ap.parse_args()
    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        missing = sorted(set(a) ^ set(b))
        if missing:
            ap.error(f"the records differ in chains: {missing[:5]}")
        rc = 1 if compare(a, b)["kt_changed"] else 0
        _write_summary(args.summary, b)
        return rc
    if not args.out:
        ap.error("give --out FILE or --compare A B")
    t0 = time.time()
    out = record(args.null)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    print(f"{len(out)} chains written to {args.out} "
          f"[{time.time() - t0:.1f}s]")
    _write_summary(args.summary, out)
    return 0


def _write_summary(path, rec):
    if path:
        with open(path, "w") as fh:
            json.dump(summary(rec), fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
