"""mcagg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload small-cli --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout of the repository; it imports mcagg from
``src/`` of that checkout and exits with code 2 if there is none. With
``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it measures the same ops once untraced and once traced and
reports the per-layer metrics (see perfbench/README.md). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Per-op records, the host description and, in traced runs, the
spans are written to perfbench/out/.
"""
import argparse
import os
import sys

# Pin every BLAS and OpenMP pool to one thread before numpy is imported:
# the library is single-threaded and the bundled OpenBLAS would otherwise
# start up to 64 threads on a shared 2-core host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 8
# The HostSpeed.sample() time that rescaled times refer to: about its median
# on the 2-core Xeon (numpy 2.4) where the bounds were set.
REF_KERNEL_S = 0.005

IMPORT_PROBE = ("import time; t = time.perf_counter(); import mcagg.cli; "
                "print(time.perf_counter() - t)")


class HostSpeed:
    """A fixed reference kernel timed next to every op.

    The host is shared, and its speed drifts by up to about 1.5x over
    seconds to minutes. Every op is timed between two samples of this
    kernel, which runs no mcagg code, and the reported times are rescaled
    to REF_KERNEL_S: op_s * REF_KERNEL_S / kernel_s. A change to mcagg moves
    the op but not the kernel; a slow spell of the host moves both.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((40, 40))
        self.b = rng.random((40, 8))

    def sample(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            d = self.a @ self.b
            e = np.exp(-d / (1.0 + i))
            e /= e.sum(axis=1, keepdims=True)
            acc += float(np.log(e + 1e-300).sum())
            for j in range(20):
                acc += j * 0.5
        return time.perf_counter() - t0


def setup_seconds(repeats, speed):
    """(raw, rescaled) wall times of `repeats` fresh interpreters importing
    mcagg.cli, which every CLI call pays. Half are taken before the ops
    and half after, and the run reports the median."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(repeats):
        before = speed.sample()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        raw = float(proc.stdout.strip().splitlines()[-1])
        kernel = (before + speed.sample()) / 2
        out.append((raw, raw * REF_KERNEL_S / kernel))
    return out


def scaled(r):
    """Op seconds rescaled to the reference host speed."""
    return r.seconds * REF_KERNEL_S / r.calib


def host_info():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure(workload, chains, workdir, tracers, speed, seconds, on_op=None):
    """Whole passes over the chains, cycling through `tracers` one pass
    each, until every tracer has had a pass and the next pass would overrun
    `seconds`. Every op is timed between two samples of `speed`. Returns
    one list of per-op results per tracer."""
    from workloads import run_op
    results = [[] for _ in tracers]
    start = time.perf_counter()
    passes = 0
    kernel = speed.sample()
    while True:
        tracer = tracers[passes % len(tracers)]
        out = results[passes % len(tracers)]
        tracer.install()
        try:
            for chain in chains:
                r = run_op(workload, chain, workdir, tracer, len(out))
                after = speed.sample()
                r.calib, kernel = (kernel + after) / 2, after
                out.append(r)
                if on_op and tracer.timed:
                    on_op(tracer)
        finally:
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= len(tracers) and elapsed * (passes + 1) / passes > seconds:
            return results


def end_to_end(results, n_chains, setup):
    """The end-to-end metrics, with times at the reference host speed, and
    the same times as measured. Quality metrics come from the first pass,
    so they do not depend on how many passes fit in the time."""
    first = results[:n_chains]
    ok = [r for r in results if r.ok]
    truth = [r for r in first if r.kt_hit is not None]
    dist = [r.distortion for r in first if r.ok]
    raw = {
        "setup_s_raw": (statistics.median(t for t, _ in setup), "s"),
        "op_ms_p50_raw": (1e3 * statistics.median(r.seconds for r in results),
                          "ms"),
        "ops_per_s_raw": (len(ok) / sum(r.seconds for r in results), "1/s"),
    }
    return raw, {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "op_ms_p50": (1e3 * statistics.median(map(scaled, results)), "ms"),
        "ops_per_s": (len(ok) / sum(map(scaled, results)), "1/s"),
        "ok_frac": (len(ok) / len(results), "frac"),
        "no_traceback_frac": (sum(not r.traceback for r in results)
                              / len(results), "frac"),
        "kt_hit_frac": (sum(r.kt_hit for r in truth) / len(truth)
                        if truth else 1.0, "frac"),
        "distortion_mean": (statistics.fmean(dist) if dist else float("nan"),
                            "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, layer_ops, traced, untraced):
    """Per-layer metrics per traced op, from spans, counts and the
    annealer's own result."""
    n = len(traced)
    self_t = tracer.self_times()

    def ms(*names):
        return 1e3 * sum(self_t[nm] for nm in names) / n

    def count(counter, caller=None):
        return sum(v for (op, c, nm), v in tracer.counts.items()
                   if nm == counter and (caller is None or c == caller)) / n

    fp_iters = count("fp_step", "anneal.anneal")
    gflop = sum(v for (op, c), v in tracer.flops.items()
                if c == "anneal.anneal") / 1e9 / n
    superstates = count("superstate_scored")
    anneal_ms = ms("anneal.anneal")
    select_ms = ms("selection.select_k")
    p50_traced = statistics.median(map(scaled, traced))
    p50_plain = statistics.median(map(scaled, untraced))
    return {
        "anneal.ms": (anneal_ms, "ms"),
        "anneal.fp_iters": (fp_iters, "count"),
        "anneal.us_per_fp_iter": (1e3 * anneal_ms / fp_iters if fp_iters
                                  else 0.0, "us"),
        "anneal.fp_maxiter_hits": (sum(o["maxiter_hits"] for o in layer_ops)
                                   / n, "count"),
        "anneal.temperatures": (sum(o["temperatures"] for o in layer_ops) / n,
                                "count"),
        "anneal.sweep_k_yield": (statistics.fmean(o["k_yield"] for o in
                                                  layer_ops)
                                 if layer_ops else 0.0, "frac"),
        "anneal.fp_gflop": (gflop, "GFLOP-computed"),
        "pipeline.refine_ms": (ms("pipeline.refine_per_k"), "ms"),
        "pipeline.fixed_k_ms": (ms("pipeline.aggregate_fixed_k"), "ms"),
        "pipeline.candidates_scored": (count("candidate_scored"), "count"),
        "pipeline.fixed_k_fallbacks": (
            sum(1 for s in tracer.spans if s[3] == "pipeline.aggregate_fixed_k")
            / n, "count"),
        "pipeline.models_ms": (ms("pipeline.build_model"), "ms"),
        "selection.select_ms": (select_ms, "ms"),
        "selection.superstates_scored": (superstates, "count"),
        "selection.us_per_superstate": (1e3 * select_ms / superstates
                                        if superstates else 0.0, "us"),
        "core.stationary_ms": (ms("core.stationary"), "ms"),
        "io.parse_matrix_ms": (ms("io.parse_matrix"), "ms"),
        "io.write_ms": (ms("io.write_report", "io.write_partitions"), "ms"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "trace.overhead_frac": (p50_traced / p50_plain - 1.0, "frac"),
    }


def anneal_stats(tracer, into):
    """Append max-iter hits, temperatures and k yield of the op's annealing
    sweep, read from the AnnealResult it returned, if the op annealed."""
    if "anneal.anneal" not in tracer.last:
        return
    args, kwargs, result = tracer.last["anneal.anneal"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    into.append({
        "maxiter_hits": sum(1 for w in result.warnings if w[2] == "max_iter"),
        "temperatures": len(result.trace),
        "k_yield": len(result.entries) / cfg.k_max,
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mcagg", "cli.py")):
        print(f"error: no mcagg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mcagg
    if not os.path.abspath(mcagg.__file__).startswith(SRC + os.sep):
        print(f"error: imported mcagg from {mcagg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    layer_ops = []
    tracers = [Tracer(timed=False)] + ([Tracer(timed=True)] if args.trace else [])
    try:
        speed = HostSpeed()
        setup = [] if args.trace else setup_seconds(SETUP_REPEATS // 2, speed)
        chains = workloads.build_chains(args.workload, args.seed, workdir, ROOT)
        results, *traced = measure(args.workload, chains, workdir, tracers,
                                   speed, args.seconds,
                                   on_op=lambda t: anneal_stats(t, layer_ops))
        traced = traced[0] if traced else []
        if not args.trace:
            setup += setup_seconds(SETUP_REPEATS - len(setup), speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every repeat of a chain must reproduce the first pass exactly
    first = {r.chain: r for r in results[:len(chains)]}
    for r in results + traced:
        if r.ok and r.digest != first[r.chain].digest:
            r.ok, r.unexpected = False, True
            r.error = "output differs from the first pass"

    host = host_info()
    checked = results + traced
    failed = [r for r in checked if r.unexpected]
    raw = {}
    if args.trace:
        metrics = per_layer(tracers[1], layer_ops, traced, results)
    else:
        raw, metrics = end_to_end(results, len(chains), setup)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "host": host,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in {**metrics, **raw}.items()},
        "ops": [dict(vars(r), traced=i >= len(results))
                for i, r in enumerate(checked)],
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.trace:
        tracers[1].dump(os.path.join(OUT, f"spans-{tag}.json"))

    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(checked)} ops "
          f"over {len(chains)} chains")
    for i, r in enumerate(checked):
        if not r.ok and (i < len(chains) or r.unexpected):
            status = "FAILED" if r.unexpected else "KNOWN DEFECT"
            print(f"  {r.chain:16s} {1e3 * r.seconds:9.1f} ms  {status:12s} "
                  f"{r.error}")
    fails = [r for r in results if not r.ok]
    print(f"fail_frac {len(fails) / len(results):.4f} "
          f"(failing: {sorted({r.chain for r in fails}) or 'none'}); "
          f"traceback_frac {sum(r.traceback for r in results) / len(results):.4f}")
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
