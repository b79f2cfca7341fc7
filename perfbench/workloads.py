"""Seeded inputs, ops and output checks for the four workloads.

An *op* is one chain through its workload's command. Every input is
generated and written to disk before timing starts, so the program only
ever receives arrays and files.

Workloads:

small-cli          9- and 10-state acceptance ensembles through in-process
                   ``mcagg.cli.main(["pipeline", ...])``.
large-ncd          200-state NCD chains through ``run_pipeline(rows, k_max=8)``.
select-400         ``mcagg select`` on a 400-state NCD chain with partitions
                   built from the planted truth.
sparse-stationary  chains with zero entries through
                   ``mcagg pipeline --rho stationary``, including three
                   known-defect reproducers (absorbing, periodic, reducible).
"""
import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import mcagg
from mcagg import cli
from mcagg.errors import McaggError

WORKLOADS = ("small-cli", "large-ncd", "select-400", "sparse-stationary")

# Distinct chains per pass. A pass runs each chain once; a run makes whole
# passes only, so every chain is timed equally often.
SMALL_NCD = 28      # gen_ncd blocks (3,3,3), eps 0.05
SMALL_ROWS = 26     # per multiplicity vector (4,3,3) and (3,3,2,2), eps 0.1
LARGE_CHAINS = 6    # gen_ncd blocks [40]*5, eps 0.02
SELECT_CHAINS = 6   # gen_ncd blocks [80]*5, eps 0.02
SPARSE_NCD9 = 70    # gen_ncd blocks (3,3,3), eps 0

# Seed of the fixed reducible reproducer; this chain fails with an
# untyped LinAlgError today (see reducible_chain).
REDUCIBLE_SEED = 0


@dataclass
class Chain:
    name: str
    rows: np.ndarray
    path: str                      # CSV written before timing
    truth_k: Optional[int] = None  # planted block count, if any
    known_defect: Optional[str] = None  # how the op fails today
    parts_path: Optional[str] = None    # select-400: partitions JSON


@dataclass
class OpResult:
    chain: str
    seconds: float
    ok: bool                 # exit 0, no exception, every check passed
    traceback: bool          # an untyped exception escaped the program
    unexpected: bool         # failed, and the chain is not a known defect
    error: str = ""
    digest: str = ""
    kt_hit: Optional[bool] = None
    distortion: Optional[float] = None
    calib: float = 0.0       # reference-kernel seconds around this op


# -- inputs ------------------------------------------------------------------

def _chain_seeds(seed, tag, count):
    ss = np.random.SeedSequence([seed, sum(map(ord, tag))])
    return [int(s) for s in ss.generate_state(count)]


def _write(workdir, name, rows):
    path = os.path.join(workdir, f"{name}.csv")
    mcagg.write_matrix(mcagg.StochasticMatrix(rows=rows), path)
    return path


def _ncd(workdir, name, blocks, eps, seed):
    matrix, truth = mcagg.gen_ncd(blocks=blocks, eps=eps, seed=seed)
    return Chain(name, matrix.rows, _write(workdir, name, matrix.rows),
                 truth_k=truth.k)


def reducible_chain():
    """12 states with 3-state row supports: three closed 3-state classes
    and three transient states whose rows lead into a closed class. Nothing
    enters the transient states, so their stationary weight is 0; a
    superstate made only of them gets NaN centroids."""
    rng = np.random.default_rng(REDUCIBLE_SEED)
    rows = np.zeros((12, 12))
    for i in range(12):
        b = i // 3 if i < 9 else int(rng.integers(3))
        rows[i, 3 * b:3 * b + 3] = rng.dirichlet(np.ones(3))
    return rows


PERIODIC = np.array([[0, 1, 0, 0], [0, 0, .5, .5], [1, 0, 0, 0], [1, 0, 0, 0]],
                    dtype=float)


def build_chains(workload, seed, workdir, root):
    if workload == "small-cli":
        seeds = _chain_seeds(seed, workload, SMALL_NCD + 2 * SMALL_ROWS)
        chains = [_ncd(workdir, f"ncd9-{i}", [3, 3, 3], 0.05, s)
                  for i, s in enumerate(seeds[:SMALL_NCD])]
        rest = iter(seeds[SMALL_NCD:])
        for counts in ((4, 3, 3), (3, 3, 2, 2)):
            tag = "".join(map(str, counts))
            for i in range(SMALL_ROWS):
                m, truth = mcagg.gen_replicated_rows(
                    n=10, counts=counts, eps=0.1, seed=next(rest))
                name = f"rows{tag}-{i}"
                chains.append(Chain(name, m.rows, _write(workdir, name, m.rows),
                                    truth_k=truth.k))
        return chains
    if workload == "large-ncd":
        return [_ncd(workdir, f"ncd200-{i}", [40] * 5, 0.02, s)
                for i, s in enumerate(_chain_seeds(seed, workload,
                                                   LARGE_CHAINS))]
    if workload == "select-400":
        chains = []
        for i, s in enumerate(_chain_seeds(seed, workload, SELECT_CHAINS)):
            chain = _ncd(workdir, f"ncd400-{i}", [80] * 5, 0.02, s)
            parts = select_partitions([80] * 5, 8, s)
            chain.parts_path = os.path.join(workdir, f"{chain.name}.parts.json")
            mcagg.write_partitions(parts, chain.parts_path)
            chains.append(chain)
        return chains
    if workload == "sparse-stationary":
        seeds = _chain_seeds(seed, workload, SPARSE_NCD9 + 2)
        courtois = mcagg.parse_matrix(os.path.join(root, "data", "courtois.csv"))
        chains = [Chain("courtois", courtois.rows,
                        _write(workdir, "courtois", courtois.rows))]
        chains += [_ncd(workdir, f"ncd9-eps0-{i}", [3, 3, 3], 0.0, s)
                   for i, s in enumerate(seeds[:SPARSE_NCD9])]
        chains.append(_ncd(workdir, "ncd100-eps0", [20] * 5, 0.0,
                           seeds[SPARSE_NCD9]))
        absorbing = _ncd(workdir, "absorbing", [3, 3, 3], 0.05,
                         seeds[SPARSE_NCD9 + 1])
        absorbing.rows = absorbing.rows.copy()
        absorbing.rows[0] = 0.0
        absorbing.rows[0, 0] = 1.0
        _write(workdir, "absorbing", absorbing.rows)
        absorbing.known_defect = ("absorbing state: typed DimensionMismatch "
                                  "or FloorViolation, exit 1")
        chains.append(absorbing)
        chains.append(Chain("periodic", PERIODIC,
                            _write(workdir, "periodic", PERIODIC),
                            known_defect="periodic chain: NoConvergence in "
                                         "stationary_distribution, exit 1"))
        rows = reducible_chain()
        chains.append(Chain("reducible12", rows,
                            _write(workdir, "reducible12", rows),
                            known_defect="zero-weight superstate: untyped "
                                         "LinAlgError from eigvalsh"))
        return chains
    raise ValueError(f"unknown workload {workload!r}")


def select_partitions(blocks, k_max, seed):
    """k -> Partition for k = 1..k_max from the planted blocks: for k <= B
    the last blocks are merged into one group; for k > B single states,
    drawn from the seed, are split off into groups of their own."""
    truth = np.repeat(np.arange(len(blocks)), blocks)
    B = len(blocks)
    rng = np.random.default_rng(seed)
    singles = rng.permutation(len(truth))[:max(0, k_max - B)]
    parts = {}
    for k in range(1, k_max + 1):
        if k <= B:
            assign = np.minimum(truth, k - 1)
        else:
            assign = truth.copy()
            assign[singles[:k - B]] = B + np.arange(k - B)
        parts[k] = mcagg.make_partition(assign, k=k)
    return parts


# -- ops ---------------------------------------------------------------------

def op_call(workload, chain, workdir):
    """The program call one op makes, and the files it writes."""
    report = os.path.join(workdir, "report.json")
    parts = os.path.join(workdir, "parts.json")
    if workload == "large-ncd":
        return (lambda: mcagg.run_pipeline(chain.rows, k_max=8)), {}
    if workload == "select-400":
        argv = ["select", "--matrix", chain.path, "--partitions",
                chain.parts_path, "--out", report]
        return (lambda: cli.main(argv)), {"report": report}
    argv = ["pipeline", "--matrix", chain.path, "--kmax", "6", "--out", report,
            "--partitions-out", parts]
    if workload == "sparse-stationary":
        argv += ["--rho", "stationary"]
    return (lambda: cli.main(argv)), {"report": report, "partitions": parts}


def run_op(workload, chain, workdir, tracer, op_id):
    """Run one op, time it, and check its outputs outside the timed part."""
    call, files = op_call(workload, chain, workdir)
    for path in files.values():
        if os.path.exists(path):
            os.remove(path)
    span_name = "pipeline.run" if workload == "large-ncd" else "cli.main"
    tracer.begin_op(op_id)
    err = io.StringIO()
    exc = None
    value = None
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer.timed:
                with tracer.span(span_name):
                    value = call()
            else:
                value = call()
        except Exception as e:   # the op failed; record how, keep running
            exc = e
        seconds = time.perf_counter() - t0
    res = OpResult(chain.name, seconds, ok=False, traceback=False,
                   unexpected=False)
    if exc is not None:
        typed = workload == "large-ncd" and isinstance(exc, McaggError)
        res.traceback = not typed
        res.error = f"{type(exc).__name__}: {exc}"
    elif workload != "large-ncd" and value != 0:
        res.error = f"exit {value}: {err.getvalue().strip()[-200:]}"
    else:
        try:
            check_outputs(workload, chain, value, tracer, files, res)
            res.ok = True
        except Exception as e:   # malformed output is a failed check
            res.error = f"check failed: {type(e).__name__}: {e}"
    if not res.ok:
        # a known defect that fails counts against ok_frac but is not an
        # unexpected failure; any failed output check always is
        res.unexpected = (chain.known_defect is None
                          or res.error.startswith("check failed"))
    if chain.truth_k is not None and res.kt_hit is None:
        res.kt_hit = False
    return res


class CheckFailed(Exception):
    pass


def _check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def check_outputs(workload, chain, value, tracer, files, res):
    """Output checks; fills res.digest, res.kt_hit and res.distortion."""
    n = chain.rows.shape[0]
    if workload == "select-400":
        args, _, report = tracer.last["selection.select_k"]
        rows, partitions, rho = args[0], args[1], args[2]
        models = {k: mcagg.build_model(rows, p.assign, rho)
                  for k, p in partitions.items()}
        k_max = 8
    else:
        if workload == "large-ncd":
            result, rho = value, None
        else:
            args, _, result = tracer.last["pipeline.run"]
            rho = args[1]
        report, partitions, models = result.report, result.partitions, result.models
        k_max = min(8 if workload == "large-ncd" else 6, n)
    _check(sorted(partitions) == list(range(1, k_max + 1)),
           f"partitions at k={sorted(partitions)}, expected 1..{k_max}")
    if workload != "select-400":
        for k in range(1, k_max + 1):
            psi = models[k].psi
            _check(np.all(np.abs(psi.sum(axis=1) - 1.0) <= 1e-9),
                   f"psi rows at k={k} do not sum to 1")
    for k, part in partitions.items():
        used = np.unique(part.assign)
        _check(np.array_equal(used, np.arange(len(used))),
               f"partition k={k} leaves a group empty")
    t_bars = report.t_bars
    _check(all(np.isfinite(t) and t >= 0 for t in t_bars.values()),
           "a t_bar is negative or not finite")
    if "report" in files:
        _check(mcagg.read_report(files["report"]).k_t == report.k_t,
               "read_report k_t differs from the in-memory k_t")
    if "partitions" in files:
        with open(files["partitions"]) as fh:
            written = json.load(fh)
        _check(all(written[str(k)] == [int(v) for v in p.assign]
                   for k, p in partitions.items()),
               "written partitions differ from the in-memory ones")
    total = sum(mcagg.distortion(chain.rows, models[k], rho)
                for k in range(2, k_max + 1))
    _check(np.isfinite(total), "distortion is not finite")
    res.distortion = float(total)
    if chain.truth_k is not None:
        res.kt_hit = report.k_t == chain.truth_k
    payload = json.dumps([int(report.k_t),
                          [[int(k), float(t)] for k, t in sorted(t_bars.items())]])
    res.digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
