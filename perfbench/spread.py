"""Run the benchmark over workloads, trace modes and seeds; report spreads.

    python3 perfbench/spread.py --workload all --trace 0,1 --seeds 1
    python3 perfbench/spread.py --workload small-cli --seeds 1-10

For each workload and trace mode it runs perfbench/run.py once per seed,
sequentially, and prints every metric with its unit and the median of its
per-seed values. With two or more seeds it also prints the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. The
final line is a JSON object keyed by "<workload>/trace<t>".
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seeds(workload, trace, seeds, seconds):
    """metric -> (unit, [value per seed]); None if a run fails."""
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return None
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"  seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="a workload, a comma-separated list, or all")
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}

    summary = {}
    for workload in workloads:
        for trace in (int(t) for t in args.trace.split(",")):
            print(f"{workload} trace {trace}", flush=True)
            values = run_seeds(workload, trace, args.seeds, seconds)
            if values is None:
                return 1
            rows = summary[f"{workload}/trace{trace}"] = {}
            for name, (unit, vals) in values.items():
                med = statistics.median(vals)
                row = rows[name] = {"unit": unit, "median": med,
                                    "values": vals}
                line = f"  {name:30s} {med:14.6g} {unit:14s}"
                if len(vals) > 1:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    row["spread"] = (q3 - q1) / abs(med) if med else None
                    line += (f" spread {row['spread']:.4f}" if med else
                             " spread -")
                if bounds.get(name) is not None:
                    line += f"  bound {bounds[name]}"
                print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
