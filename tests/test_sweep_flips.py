"""scripts/sweep_flips.py's exact minima against brute-force enumeration of
every set partition: the reference that the sweep's optimum counts rest on."""
import numpy as np
import pytest

from conftest import load_script
from mcagg import build_model, distortion, stationary_distribution

sweep_flips = load_script("sweep_flips")


def set_partitions(n):
    """Every partition of n states as a restricted growth string."""
    def rec(assign, k):
        if len(assign) == n:
            yield np.array(assign), k
            return
        for j in range(k + 1):
            yield from rec(assign + [j], max(k, j + 1))
    yield from rec([0], 1)


def chain_7(rng):
    """A 7-state chain with about 40% zero entries whose states 4-6 are
    transient: states 0-3 form a closed cycle class that 4-6 lead into, so
    the stationary rho weighs 4-6 at 0."""
    rows = np.where(rng.random((7, 7)) < 0.4, 0.0, rng.uniform(0.1, 1.0,
                                                               (7, 7)))
    rows[:4, 4:] = 0.0
    rows[np.arange(4), [1, 2, 3, 0]] += 0.1
    rows[4:, 0] += 0.1
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("rho_mode", ["uniform", "stationary"])
def test_exact_minima_match_brute_force(seed, rho_mode):
    rows = chain_7(np.random.default_rng(seed))
    rho = (stationary_distribution(rows) if rho_mode == "stationary"
           else np.full(7, 1 / 7))
    if rho_mode == "stationary":
        assert (rho[:4] > 0).all() and np.array_equal(rho[4:], [0.0] * 3)
    best = {}
    for assign, k in set_partitions(7):
        d = distortion(rows, build_model(rows, assign, rho), rho)
        best[k] = min(best.get(k, np.inf), d)
    got = sweep_flips.exact_minima(rows, rho, 7)
    assert sorted(got) == list(range(1, 8))
    for k in range(1, 8):
        assert got[k] == pytest.approx(best[k], rel=1e-12, abs=1e-14)


def _chain_record(distortion, exact):
    """A hand-built sweep record of one chain with k_t 2, its partitions at
    k = 1..3 and the given distortions and exact minima per k."""
    return {"k_t": 2, "planted_k": 2,
            "partitions": {"1": [0, 0, 0], "2": [0, 0, 1], "3": [0, 1, 2]},
            "distortion": {str(k): d for k, d in enumerate(distortion, 1)},
            "exact": {str(k): e for k, e in enumerate(exact, 1)}}


def test_compare_prints_gaps_of_b_misses(capsys):
    a = {"crit1-s0": _chain_record([2.0, 1.0, 0.2], [2.0, 1.0, 0.2]),
         "crit1-s1": _chain_record([2.0, 0.5, 0.0], [2.0, 0.5, 0.0])}
    b = {"crit1-s0": _chain_record([2.0, 1.5, 0.25], [2.0, 1.0, 0.2]),
         "crit1-s1": _chain_record([2.0, 0.5, 0.01], [2.0, 0.5, 0.0])}
    totals = sweep_flips.compare(a, b)
    out = capsys.readouterr().out
    # gaps 0.5 and 0.25 relative, 0.01 absolute over a zero minimum
    assert ("acceptance: exact optimum at 4 -> 1 of 4 (chain, k >= 2) pairs; "
            "B misses 3, largest gap 0.5 (crit1-s0 k=2), summed gap 0.76"
            in out)
    assert "all: exact optimum at 4 -> 1 of 4" in out
    assert totals["worst_b"] == (0.5, "crit1-s0", "2")
    assert totals["gap_b"] == pytest.approx(0.76)
    assert totals["kt_changed"] == 0 and totals["flips"] == 0


@pytest.mark.parametrize("null", ["t0", "delta", "swap"])
def test_null_patch_targets_resolve(null):
    # each null run patches an attribute that mcagg.anneal has, with a value
    # of the same kind
    name, value = sweep_flips._null_patch(null)
    plain = getattr(sweep_flips.anneal_module, name)
    assert callable(value) == callable(plain)
    if not callable(plain):
        assert value != plain and value == pytest.approx(plain, rel=1e-15)


def test_null_swap_reverses_each_shadow_pair():
    rng = np.random.default_rng(0)
    Z = rng.dirichlet(np.ones(5), size=3)
    dirs = rng.standard_normal((3, 5))
    dirs -= dirs.mean(axis=1, keepdims=True)
    offsets = np.array([1e-4, 0.05, 1e-4])
    _, swapped = sweep_flips._null_patch("swap")
    plain = sweep_flips.anneal_module._shadow_bank(Z, dirs, offsets)
    assert np.array_equal(swapped(Z, dirs, offsets),
                          plain[[1, 0, 3, 2, 5, 4]])


def test_record_counts_map_evaluations_and_temperatures(monkeypatch):
    # the record's costs are the calls of mcagg.anneal.posterior_and_centroids
    # in the chain's pipeline run and the length of its trace
    pi, truth = sweep_flips.gen_ncd(blocks=[3, 3, 3], eps=0.05, seed=1)
    monkeypatch.setattr(sweep_flips, "chains", lambda with_ncd9: iter(
        [("crit1-1", pi.rows, "uniform", 6, truth)]))
    anneal_module = sweep_flips.anneal_module
    plain, calls = anneal_module.posterior_and_centroids, []
    rec = sweep_flips.record(False, False, None)["crit1-1"]
    assert anneal_module.posterior_and_centroids is plain
    monkeypatch.setattr(anneal_module, "posterior_and_centroids",
                        lambda *a: calls.append(1) or plain(*a))
    res = sweep_flips.run_pipeline(pi.rows, None, k_max=6)
    assert rec["map_evals"] == len(calls) > 0
    assert rec["temperatures"] == len(res.trace) > 0


def test_compare_totals_costs_and_reads_records_without_them(capsys):
    old = _chain_record([2.0, 1.0, 0.2], [2.0, 1.0, 0.2])
    a = {"crit1-s0": dict(old, map_evals=900, temperatures=40),
         "crit1-s1": dict(old, map_evals=100, temperatures=10),
         "large-ncd-s1-0": dict(old, map_evals=50, temperatures=5)}
    b = {"crit1-s0": dict(old, map_evals=700, temperatures=41),
         "crit1-s1": dict(old, map_evals=80, temperatures=10),
         "large-ncd-s1-0": old}
    totals = sweep_flips.compare(a, b)
    out = capsys.readouterr().out
    assert ("acceptance: map evaluations 1000 -> 780, temperatures 50 -> 51"
            in out)
    assert "large-ncd: map evaluations 50 -> n/a, temperatures 5 -> n/a" in out
    assert "all: map evaluations 1050 -> n/a, temperatures 55 -> n/a" in out
    assert totals["map_evals_a"] == 1050 and totals["map_evals_b"] is None
    sweep_flips.compare({"crit1-s0": old}, {"crit1-s0": old})
    assert ("acceptance: map evaluations n/a -> n/a, temperatures n/a -> n/a"
            in capsys.readouterr().out)


def test_summary_counts_hits_optima_misses_and_costs(tmp_path, monkeypatch):
    big = _chain_record([2.0, 1.0, 0.2], [])   # no exact minima, no costs
    del big["exact"]
    rec = {"crit1-s0": dict(_chain_record([2.0, 1.5, 0.25], [2.0, 1.0, 0.2]),
                            map_evals=700, temperatures=41),
           "crit1-s1": dict(_chain_record([2.0, 0.5, 0.0], [2.0, 0.5, 0.0]),
                            k_t=3, map_evals=80, temperatures=10),
           "large-ncd-s1-0": dict(big, planted_k=None)}
    got = sweep_flips.summary(rec)
    assert got["acceptance"] == {
        "chains": 2, "planted": 2, "kt_hits": 1, "exact_pairs": 4,
        "at_optimum": 2, "map_evals": 780, "temperatures": 51,
        "misses": [{"chain": "crit1-s0", "k": 2, "gap": 0.5},
                   {"chain": "crit1-s0", "k": 3, "gap": pytest.approx(0.25)}]}
    # a chain without exact minima or costs adds to neither count
    assert got["large-ncd"]["exact_pairs"] == 0
    assert got["large-ncd"]["map_evals"] is None
    assert got["all"] == {"chains": 3, "planted": 2, "kt_hits": 1,
                          "exact_pairs": 4, "at_optimum": 2,
                          "map_evals": None, "temperatures": None}
    # --summary writes the same summary for record B of --compare
    a, b, out = (tmp_path / n for n in ("a.json", "b.json", "s.json"))
    for path in (a, b):
        path.write_text(sweep_flips.json.dumps(rec))
    monkeypatch.setattr(sweep_flips.sys, "argv", [
        "sweep_flips.py", "--compare", str(a), str(b), "--summary", str(out)])
    assert sweep_flips.main() == 0
    assert sweep_flips.json.loads(out.read_text()) == got
