"""End-to-end acceptance suite.

Each test measures one shipped claim against an independent oracle or a
seeded ensemble and records a single PASS/FAIL line (replayed in the
terminal summary by conftest). Gates and runtime budgets are asserted as
stated; every ensemble is seeded, so reruns are bit-reproducible.
"""
import contextlib
import io
import json
import pathlib
import tempfile
import time

import numpy as np

from conftest import record
from mcagg import (critical_temperature, free_energy, gibbs_weights,
                   hessian_quadratic_form, make_partition, marginal_return,
                   run_pipeline, select_k, simplex_basis)
from mcagg.cli import main as cli_main
from mcagg.generators import gen_ncd, gen_replicated_rows, perturb
from mcagg.io import ingest_bigrams, parse_partitions
from mcagg.klgeom import (SoftAssociation, build_model, distance_matrix,
                          distortion, kl_divergence)
from mcagg.selection import covariance_matrix, hard_membership, heterogeneity

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


# ---------------------------------------------------------------- 1
def test_01_ncd_recovery_cli():
    # 30 seeded chains, blocks (3,3,3), eps=0.05, through the real CLI
    # (file round-trip included); k_t = 3 must come back in >= 27.
    t0 = time.time()
    tmp = pathlib.Path(tempfile.mkdtemp())
    hits = 0
    misses = []
    buf = io.StringIO()
    for seed in range(30):
        m = tmp / f"pi{seed}.csv"
        r = tmp / f"rep{seed}.json"
        with contextlib.redirect_stdout(buf):
            rc1 = cli_main(["gen", "ncd", "--blocks", "3,3,3",
                            "--eps", "0.05", "--seed", str(seed),
                            "--out", str(m)])
            rc2 = cli_main(["pipeline", "--matrix", str(m), "--kmax", "6",
                            "--out", str(r)])
        assert rc1 == 0 and rc2 == 0, (rc1, rc2)
        with open(r) as fh:
            kt = json.load(fh)["k_t"]
        hits += kt == 3
        if kt != 3:
            misses.append((seed, kt))
    dt = time.time() - t0
    ok = hits >= 27 and dt < 10.0
    record(f"criterion 1 small NCD recovery via CLI: "
           f"{'PASS' if ok else 'FAIL'} {hits}/30 k_t=3 "
           f"(gate 27, misses {misses}) [{dt:.1f}s < 10s]")
    assert hits >= 27, f"k_t=3 in only {hits}/30 runs; misses {misses}"
    assert dt < 10.0, f"runtime {dt:.1f}s over the 10s budget"


# ---------------------------------------------------------------- 2
# Criteria 2-4 read their chains' runs from the session fixture
# acceptance_runs (conftest), which aggregates every acceptance chain once;
# each budget holds the fixture's wall time for that criterion's chains.
def test_02_large_ncd_recovery(acceptance_runs):
    # N=100, blocks (10,30,20,20,20), eps=0.02, 5 seeds; k_t = 5 in >= 4.
    runs, seconds = acceptance_runs
    hits = 0
    kts = []
    for seed in range(5):
        k_t = runs[f"crit2-{seed}"].reports["plain"].k_t
        kts.append(k_t)
        hits += k_t == 5
    dt = seconds["crit2"]
    ok = hits >= 4 and dt < 120.0
    record(f"criterion 2 large NCD recovery: {'PASS' if ok else 'FAIL'} "
           f"{hits}/5 k_t=5 (gate 4, got {kts}) [{dt:.1f}s < 120s]")
    assert hits >= 4, f"k_t=5 in only {hits}/5 runs; got {kts}"
    assert dt < 120.0, f"runtime {dt:.1f}s over the 2min budget"


# ---------------------------------------------------------------- 3
def test_03_replicated_rows_recovery(acceptance_runs):
    # n=10 prototype chains with multiplicities (4,3,3) and (3,3,2,2),
    # eps=0.1, 30 seeds each; recovery gate 27/30 per family.
    runs, seconds = acceptance_runs
    results = {}
    for counts in ((4, 3, 3), (3, 3, 2, 2)):
        kt = len(counts)
        tag = "".join(map(str, counts))
        hits = 0
        misses = []
        for seed in range(30):
            k_t = runs[f"crit3-{tag}-{seed}"].reports["plain"].k_t
            hits += k_t == kt
            if k_t != kt:
                misses.append(seed)
        results[counts] = (hits, misses)
    dt = seconds["crit3"]
    worst = min(h for h, _ in results.values())
    ok = worst >= 27 and dt < 10.0
    detail = ", ".join(f"k_t={len(c)}: {h}/30 (misses {m})"
                       for c, (h, m) in results.items())
    record(f"criterion 3 replicated-row recovery: "
           f"{'PASS' if ok else 'FAIL'} {detail} (gate 27 each) "
           f"[{dt:.1f}s < 10s]")
    assert worst >= 27, f"recovery below the 27/30 gate: {detail}"
    assert dt < 10.0, f"runtime {dt:.1f}s over the 10s budget"


# ---------------------------------------------------------------- 4
def test_04_return_ratio_separation(acceptance_runs):
    # eps=0.01, blocks (3,3,3): nu(3) must dominate the second-largest
    # marginal return by a factor >= 10 in >= 25/30 seeds.
    runs, seconds = acceptance_runs
    hits = 0
    ratios = []
    for seed in range(30):
        nus = runs[f"crit4-{seed}"].reports["plain"].nus
        v3 = nus.get(3, -np.inf)
        second = max((v for kk, v in nus.items() if kk != 3), default=0.0)
        ratios.append(v3 / second if second > 0 else np.inf)
        hits += v3 >= 10 * second
    dt = seconds["crit4"]
    med = float(np.median(ratios))
    ok = hits >= 25
    record(f"criterion 4 return-ratio separation: "
           f"{'PASS' if ok else 'FAIL'} {hits}/30 with nu(3) >= 10x runner-up "
           f"(gate 25, median ratio {med:.2f}) [{dt:.1f}s]")
    assert hits >= 25, (f"nu(3) >= 10x the runner-up in only {hits}/30 "
                        f"seeds (median ratio {med:.2f})")


# ---------------------------------------------------------------- 5
def _fd_lambda_min(P, rho, z, T, h=1e-4):
    # FD Hessian of the free energy over antisymmetric perturbations of the
    # duplicated bank [z, z], in the zero-sum basis: symmetric modes stay
    # stable through the split, antisymmetric ones carry it.
    n = len(z)
    Y = simplex_basis(n)
    d = Y.shape[1]

    def F(vec, eps):
        psi = Y @ vec
        Z = np.stack([z + eps * psi, z - eps * psi])
        return free_energy(P, Z, rho, T)

    H = np.zeros((d, d))
    F0 = F(np.zeros(d), 0.0)
    for a in range(d):
        ea = np.eye(d)[a]
        H[a, a] = (F(ea, h) - 2 * F0 + F(ea, -h)) / h**2
        for b in range(a + 1, d):
            eb = np.eye(d)[b]
            pp = F(ea + eb, h)
            mm = F(ea + eb, -h)
            pm = F(ea - eb, h)
            mp = F(ea - eb, -h)
            H[a, b] = H[b, a] = (pp + mm - pm - mp) / (4 * h**2)
    return np.linalg.eigvalsh(0.5 * (H + H.T))[0]


def _fd_crossing(P, rho, z, t_lo, t_hi, steps=40):
    f_lo = _fd_lambda_min(P, rho, z, t_lo)
    f_hi = _fd_lambda_min(P, rho, z, t_hi)
    if not (f_lo < 0 < f_hi):
        return None
    for _ in range(steps):
        mid = 0.5 * (t_lo + t_hi)
        if _fd_lambda_min(P, rho, z, mid) < 0:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def test_05_critical_temperature_fd_oracle():
    t0 = time.time()
    # closed form on the symmetric 2-state chain: T_cr = 0.64 exactly
    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    rho = np.full(2, 0.5)
    z = rho @ P
    ones = SoftAssociation(p=np.ones((2, 1)), posterior=rho[:, None])
    tcr2 = critical_temperature(P, rho, z[None, :], ones).t_cr
    t_fd = _fd_crossing(P, rho, z, 0.5 * tcr2, 1.5 * tcr2)
    assert t_fd is not None, "no FD sign change around the closed form"
    rel2 = abs(t_fd - tcr2) / tcr2

    # 10 random instances, n <= 5, k = 1; interiors kept off the boundary
    rng = np.random.default_rng(77)
    worst = 0.0
    found = 0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(4, 9))
        P = 0.95 * rng.dirichlet(np.ones(n), size=m) + 0.05 / n
        rho = rng.dirichlet(np.ones(m) * 5)
        z = rho @ P
        ones = SoftAssociation(p=np.ones((m, 1)),
                               posterior=(rho / rho.sum())[:, None])
        tcr = critical_temperature(P, rho, z[None, :], ones).t_cr
        t_fd = _fd_crossing(P, rho, z, 0.5 * tcr, 1.5 * tcr)
        if t_fd is None:
            continue
        found += 1
        worst = max(worst, abs(t_fd - tcr) / tcr)
    dt = time.time() - t0
    ok = (abs(tcr2 - 0.64) < 1e-12 and rel2 <= 1e-3
          and found == 10 and worst <= 1e-2)
    record(f"criterion 5 critical-temperature oracle: "
           f"{'PASS' if ok else 'FAIL'} 2-state rel {rel2:.1e} (tol 1e-3), "
           f"ensemble {found}/10 bracketed, worst rel {worst:.1e} "
           f"(tol 1e-2) [{dt:.1f}s]")
    assert abs(tcr2 - 0.64) < 1e-12
    assert rel2 <= 1e-3, f"2-state FD crossing off by rel {rel2:.2e}"
    assert found == 10, f"FD bracket failed on {10 - found} instances"
    assert worst <= 1e-2, f"ensemble worst rel {worst:.2e} over 1e-2"


# ---------------------------------------------------------------- 6
def test_06_hessian_matches_fd():
    # Richardson-extrapolated second differences of the free energy vs the
    # closed quadratic form, 50 seeded (instance, perturbation) pairs.
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(k, 9))
        P = rng.dirichlet(np.ones(n), size=m)
        rho = rng.dirichlet(np.ones(m))
        Z = 0.9 * rng.dirichlet(np.ones(n), size=k) + 0.1 / n  # off boundary
        T = float(rng.uniform(0.2, 2.0))
        a = gibbs_weights(distance_matrix(P, Z), T)
        psi = rng.standard_normal((k, n))
        psi -= psi.mean(axis=1, keepdims=True)
        psi /= np.abs(psi).max()
        qf = hessian_quadratic_form(P, rho, Z, a, T, psi)

        def F(eps):
            return free_energy(P, Z + eps * psi, rho, T)

        def D(h):
            return (F(h) - 2 * F(0.0) + F(-h)) / h**2

        rich = (4 * D(5e-5) - D(1e-4)) / 3
        worst = max(worst, abs(qf - rich) / max(abs(rich), 1e-9))
    dt = time.time() - t0
    ok = worst <= 1e-4
    record(f"criterion 6 closed-form curvature vs finite differences: "
           f"{'PASS' if ok else 'FAIL'} worst rel {worst:.1e} over 50 pairs "
           f"(tol 1e-4) [{dt:.1f}s]")
    assert worst <= 1e-4, f"worst rel {worst:.2e} over the 1e-4 tolerance"


# ---------------------------------------------------------------- 7
def _partitions_exactly_k(n, k):
    # restricted growth strings with exactly k classes
    def rec(i, mx, cur):
        if i == n:
            if mx + 1 == k:
                yield tuple(cur)
            return
        for v in range(min(mx + 1, k - 1) + 1):
            cur.append(v)
            yield from rec(i + 1, max(mx, v), cur)
            cur.pop()
    yield from rec(1, 0, [0])


def _dscore(rows, rho, assign):
    return distortion(rows, build_model(rows, assign, rho), rho)


def _brute_min_distortion(rows, rho, k):
    best = np.inf
    for assign in _partitions_exactly_k(rows.shape[0], k):
        best = min(best, _dscore(rows, rho, np.asarray(assign)))
    return best


def _power_lambda(C, iters=20000, tol=1e-14):
    v = np.ones(C.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = C @ v
        nn = np.linalg.norm(w)
        if nn == 0:
            return 0.0
        v = w / nn
        new = float(v @ (C @ v))
        if abs(new - lam) <= tol * max(1.0, abs(new)):
            return new
        lam = new
    return lam


def test_07_brute_force_and_power_oracles():
    # part A: annealed partitions vs exhaustive enumeration (n in {6,7,8},
    # k in {2,3}); hard-centroid distortion within 5% of the true minimum
    # at both k on >= 16/20 seeds.
    t0 = time.time()
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 6 + seed % 3
        rows = rng.dirichlet(np.ones(n), size=n)
        rho = np.full(n, 1.0 / n)
        res = run_pipeline(rows, rho, k_max=3)
        ok = all(
            _dscore(rows, rho, res.partitions[k].assign)
            <= 1.05 * _brute_min_distortion(rows, rho, k) + 1e-15
            for k in (2, 3))
        hits += ok

    # part B: selection's eigendecomposition vs a plain power iteration on
    # every per-superstate covariance of 25 random hard partitions.
    worst = 0.0
    rng = np.random.default_rng(321)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, 4))
        rows = rng.dirichlet(np.ones(n), size=n)
        rho = rng.dirichlet(np.ones(n) * 3)
        assign = rng.integers(0, k, size=n)
        for j in range(k):      # force surjective
            if not np.any(assign == j):
                assign[rng.integers(0, n)] = j
        uniq, assign = np.unique(assign, return_inverse=True)
        part = make_partition(assign, k=len(uniq))
        Q = hard_membership(part, rho)
        W = Q.T @ rows
        for j in range(part.k):
            idx = np.where(assign == j)[0]
            C = covariance_matrix(rows[idx], W[j], Q[idx, j])
            le = float(np.linalg.eigvalsh(C)[-1])
            lp = _power_lambda(C)
            worst = max(worst, abs(le - lp) / max(le, 1e-12))
    dt = time.time() - t0
    ok = hits >= 16 and worst <= 1e-8
    record(f"criterion 7 brute-force and power-iteration oracles: "
           f"{'PASS' if ok else 'FAIL'} {hits}/20 within 5% of enumerated "
           f"minimum (gate 16); eigh vs power worst rel {worst:.1e} "
           f"(tol 1e-8) [{dt:.1f}s]")
    assert hits >= 16, f"within 5% of the enumerated minimum on {hits}/20"
    assert worst <= 1e-8, f"eigh vs power iteration rel {worst:.2e}"


# ---------------------------------------------------------------- 8
def test_08_bigram_ground_truth(tmp_path, capsys):
    # letter-pair counts -> 26-state chain; the shipped k=1..5 partition
    # family must select k_t = 2, and a k=2 label-set file separating the
    # six vowels must be accepted verbatim.
    t0 = time.time()
    mpath = tmp_path / "chain.csv"
    rc1 = cli_main(["ingest-bigrams", "--counts",
                    str(DATA / "bigrams_sample.txt"), "--out", str(mpath)])
    rc2 = cli_main(["select", "--matrix", str(mpath), "--partitions",
                    str(DATA / "table1_partitions.json")])
    out = capsys.readouterr().out
    cli_ok = rc1 == 0 and rc2 == 0 and "k_t = 2" in out

    chain = ingest_bigrams(DATA / "bigrams_sample.txt")
    vowels = ["a", "e", "i", "o", "u", "y"]
    rest = [c for c in chain.labels if c not in vowels]
    vfile = tmp_path / "vowels.json"
    vfile.write_text(json.dumps({"1": [list(chain.labels)],
                                 "2": [vowels, rest]}))
    parts = parse_partitions(vfile, labels=chain.labels)
    got = sorted(chain.labels[i]
                 for i in np.where(parts[2].assign == parts[2].assign[0])[0])
    verbatim_ok = got == vowels or sorted(rest) == got
    rep = select_k(chain.rows, parts)
    dt = time.time() - t0
    ok = cli_ok and verbatim_ok and rep.k_t == 2 and dt < 5.0
    record(f"criterion 8 letter-bigram ground truth: "
           f"{'PASS' if ok else 'FAIL'} CLI k_t=2 {cli_ok}, vowel file "
           f"verbatim {verbatim_ok}, k_t={rep.k_t} [{dt:.1f}s < 5s]")
    assert cli_ok, f"CLI path failed (rc {rc1}/{rc2}):\n{out}"
    assert verbatim_ok, f"vowel group came back as {got}"
    assert rep.k_t == 2
    assert dt < 5.0, f"runtime {dt:.1f}s over the 5s budget"


# ---------------------------------------------------------------- 9
def test_09_invariant_suites():
    # five seeded 1000-case sweeps; zero failures allowed in any of them.
    t0 = time.time()
    fails = {}

    # relative entropy is non-negative (and zero on identical rows)
    rng = np.random.default_rng(11)
    bad = 0
    for i in range(1000):
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        q = p.copy() if i % 10 == 0 else rng.dirichlet(np.ones(n))
        d = kl_divergence(p, q)
        bad += not (d >= 0.0) or (i % 10 == 0 and not d <= 1e-12)
    fails["kl-nonneg"] = bad

    # marginal returns telescope: partial sums equal end-to-end log drops
    rng = np.random.default_rng(12)
    bad = 0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        t = rng.uniform(1e-6, 10.0, size=m)
        t_bars = {k + 1: float(t[k]) for k in range(m)}
        nus = marginal_return(t_bars)
        for k in range(2, m + 1):
            lhs = sum(nus[j] for j in range(2, k + 1))
            rhs = np.log(t_bars[1]) - np.log(t_bars[k])
            bad += abs(lhs - rhs) > 1e-10
    fails["nu-telescoping"] = bad

    # deviation covariances are PSD whenever the bank row is the weighted
    # mean of its members
    rng = np.random.default_rng(13)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, 7))
        members = rng.dirichlet(np.ones(n), size=m)
        q = rng.uniform(0.1, 1.0, size=m)
        w = (q / q.sum()) @ members
        ev = np.linalg.eigvalsh(covariance_matrix(members, w, q))
        bad += ev[0] < -1e-10 * max(1.0, ev[-1])
    fails["covariance-psd"] = bad

    # heterogeneity is invariant under relabeling the states
    rng = np.random.default_rng(14)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, n))
        rows = rng.dirichlet(np.ones(n), size=n)
        rho = rng.dirichlet(np.ones(n))
        assign = rng.integers(0, k, size=n)
        for j in range(k):
            if not np.any(assign == j):
                assign[rng.integers(0, n)] = j
        _, assign = np.unique(assign, return_inverse=True)
        t1 = heterogeneity(rows, make_partition(assign), rho)
        perm = rng.permutation(n)
        t2 = heterogeneity(rows[perm], make_partition(assign[perm]),
                           rho[perm])
        bad += abs(t1 - t2) > 1e-10 * max(1.0, t1)
    fails["permutation-equivariance"] = bad

    # every transformation hands back stochastic rows: generation,
    # perturbation, aggregation (every forty-second case runs the full
    # annealer and checks each recorded model)
    rng = np.random.default_rng(15)
    bad = 0
    for i in range(1000):
        seed = int(rng.integers(0, 2**31))
        if i % 2 == 0:
            sizes = [int(b) for b in rng.integers(2, 4,
                                                  size=rng.integers(2, 4))]
            pi, truth = gen_ncd(blocks=sizes, eps=float(rng.uniform(0, 0.3)),
                                seed=seed)
        else:
            n = int(rng.integers(4, 9))
            kt = int(rng.integers(2, n // 2 + 1))
            pi, truth = gen_replicated_rows(n=n, k_t=kt,
                                            eps=float(rng.uniform(0, 0.3)),
                                            seed=seed)
        stages = [pi.rows]
        pert = perturb(pi, float(rng.uniform(0.0, 0.5)), seed=seed + 1)
        stages.append(pert.rows)
        rho = np.full(pi.rows.shape[0], 1.0 / pi.rows.shape[0])
        model = build_model(pert.rows, truth.assign, rho)
        stages.append(model.psi)
        stages.append(model.distributions)
        if i % 42 == 0:
            res = run_pipeline(pert.rows, rho, k_max=min(4,
                                                         pi.rows.shape[0]))
            for kk in res.models:
                stages.append(res.models[kk].psi)
                stages.append(res.models[kk].distributions)
        for S in stages:
            bad += (np.abs(np.asarray(S).sum(axis=1) - 1.0).max() > 1e-9
                    or np.asarray(S).min() < -1e-15)
    fails["row-stochasticity"] = bad

    dt = time.time() - t0
    total = sum(fails.values())
    detail = ", ".join(f"{k}: {v}" for k, v in fails.items())
    record(f"criterion 9 invariant sweeps (5 x 1000 cases): "
           f"{'PASS' if total == 0 else 'FAIL'} failures {detail} "
           f"[{dt:.1f}s]")
    assert total == 0, f"invariant failures: {detail}"
