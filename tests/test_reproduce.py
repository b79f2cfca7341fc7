"""The committed records of the paper's claims against the acceptance runs.

The search floors are SWEEP.json's acceptance entry (k_t hits and pairs at
the exact optimum, as scripts/sweep_flips.py counts them), and every line of
REPRODUCE.json that the acceptance runs and the two shipped chains give must
come back as committed. REPRODUCE.json's eps 1e-3 and 1e-4 rows run on
other chains; only scripts/reproduce.py regenerates them.
"""
import json
import time

from conftest import ROOT, load_script, record

sweep_flips = load_script("sweep_flips")
reproduce = load_script("reproduce")


def test_floors_and_committed_record(acceptance_runs):
    t0 = time.time()
    runs, _ = acceptance_runs
    # the acceptance runs do not count the sweep's costs, which summary
    # sums over every chain; no floor reads them
    rec = {name: dict(sweep_flips.chain_record(r.rows, r.rho, r.partitions,
                                               r.models,
                                               r.reports["plain"].k_t,
                                               r.planted),
                      map_evals=0, temperatures=0)
           for name, r in runs.items()}
    got = sweep_flips.summary(rec)["acceptance"]
    floor = json.loads((ROOT / "SWEEP.json").read_text())["acceptance"]
    committed = json.loads((ROOT / "REPRODUCE.json").read_text())
    fresh = reproduce.record(runs)
    lines = [(part, key) for part in fresh for key in fresh[part]]
    differ = [f"{part}/{key}" for part, key in lines
              if committed[part].get(key) != fresh[part][key]]
    dt = time.time() - t0
    ok = (got["kt_hits"] >= floor["kt_hits"]
          and got["at_optimum"] >= floor["at_optimum"] and not differ)
    record(f"reproduce floors and record: {'PASS' if ok else 'FAIL'} "
           f"k_t hits {got['kt_hits']}/{got['planted']} (floor "
           f"{floor['kt_hits']}), exact optimum {got['at_optimum']}/"
           f"{got['exact_pairs']} pairs (floor {floor['at_optimum']}), "
           f"{len(lines) - len(differ)}/{len(lines)} REPRODUCE.json lines "
           f"reproduced [{dt:.1f}s]")
    assert got["exact_pairs"] == floor["exact_pairs"]
    assert got["kt_hits"] >= floor["kt_hits"]
    assert got["at_optimum"] >= floor["at_optimum"], got["misses"]
    assert not differ, f"lines that differ from REPRODUCE.json: {differ}"
    # the paper's second claim: Courtois' canonical grouping at k = 3
    assert fresh["courtois"]["partitions"]["3"] == [[0, 1, 2], [3, 4],
                                                    [5, 6, 7]]
