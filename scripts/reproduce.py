"""Regenerate REPRODUCE.json, the record of the paper's two claims (planted
superstates found on synthetic chains; Courtois' matrix and the letter
bigrams) at the current code. It takes no flags:

    python scripts/reproduce.py

README.md ("Scripts") lists the record's keys.
"""
import collections
import json
import pathlib

import numpy as np

import sweep_flips
from mcagg import ingest_bigrams, parse_matrix, parse_partitions, select_k
from mcagg.pipeline import aggregate_per_k

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "REPRODUCE.json"
MODES = ("plain", "whiten")
# the eps rows beyond the acceptance chains, run only by this script
EXTRA_EPS = (1e-3, 1e-4)
# one BLAS thread against two moves no stored value at this precision
DECIMALS = 6

Run = collections.namedtuple(
    "Run", "rows rho planted partitions models reports")


def run(rows, rho_mode, k_max, planted=None):
    """Aggregate once, then select in every mode: a Run whose reports map
    mode -> SelectionReport."""
    rho = sweep_flips.rho_of(rows, rho_mode)
    partitions, models, _ = aggregate_per_k(rows, rho, k_max)
    reports = {m: select_k(rows, partitions, rho, m) for m in MODES}
    return Run(rows, rho, planted, partitions, models, reports)


def _round(x):
    return round(float(x), DECIMALS)


def selection_line(report):
    nu = report.nus[report.k_t]
    runner_up = max(v for k, v in report.nus.items() if k != report.k_t)
    return {"k_t": int(report.k_t), "nu": _round(nu),
            "runner_up": _round(runner_up),
            "ratio": _round(nu / runner_up) if runner_up > 0 else None}


def chain_line(r):
    k = r.planted.k
    found = (sweep_flips.canonical(r.partitions[k].assign)
             == sweep_flips.canonical(r.planted.assign))
    return {"planted_found": found,
            **{m: selection_line(rep) for m, rep in r.reports.items()}}


def eps_row(runs):
    """Criterion 4's row over runs of gen_ncd([3, 3, 3], eps) chains."""
    row = {}
    for m in MODES:
        nus = [r.reports[m].nus for r in runs]
        nu3 = [v[3] for v in nus]
        second = [max(v for k, v in n.items() if k != 3) for n in nus]
        row[m] = {
            "kt_hits": sum(r.reports[m].k_t == 3 for r in runs),
            "ratio_10x": sum(a >= 10 * b for a, b in zip(nu3, second)),
            "median_nu3": _round(np.median(nu3)),
            "median_runner_up": _round(np.median(second)),
            "median_ratio": _round(np.median(
                [a / b if b > 0 else np.inf for a, b in zip(nu3, second)]))}
    return row


def courtois():
    rows = parse_matrix(ROOT / "data" / "courtois.csv").rows
    r = run(rows, "stationary", 6)
    return {"partitions": {str(k): sorted(g.tolist() for g in p.groups())
                           for k, p in r.partitions.items()},
            **{m: selection_line(rep) for m, rep in r.reports.items()}}


def bigram():
    chain = ingest_bigrams(ROOT / "data" / "bigrams_sample.txt")
    parts = parse_partitions(ROOT / "data" / "table1_partitions.json",
                             labels=chain.labels)
    return {m: selection_line(select_k(chain.rows, parts, mode=m))
            for m in MODES}


def record(runs):
    """Every part of the record but the EXTRA_EPS rows, from the acceptance
    runs (chain name -> Run) and the two shipped chains."""
    return {"acceptance": {name: chain_line(r) for name, r in runs.items()},
            "eps_table": {f"{eps}": eps_row([runs[f"{tag}-{s}"]
                                             for s in range(30)])
                          for tag, eps in (("crit1", 0.05), ("crit4", 0.01))},
            "courtois": courtois(),
            "bigram": bigram()}


def main():
    runs = {name: run(rows, rho_mode, k_max, planted)
            for name, rows, rho_mode, k_max, planted
            in sweep_flips.acceptance_chains()}
    out = record(runs)
    for eps in EXTRA_EPS:
        out["eps_table"][f"{eps}"] = eps_row(
            [run(rows, rho_mode, k_max) for _, rows, rho_mode, k_max, _
             in sweep_flips.ncd9_chains("eps", eps)])
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
