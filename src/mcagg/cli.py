"""Command-line interface.

Subcommands: gen, aggregate, select, pipeline, ingest-bigrams. Exit code 0
on success, 1 on validation/usage errors, 2 on unreadable or malformed
input files. A file's format follows its name, JSON for a .json path and
CSV otherwise; io applies that rule, and the CLI passes paths only. Every
run prints its effective configuration first so results can be reproduced
from the log alone.
"""
import argparse
import json
import sys

import numpy as np

from .core import resolve_k_max, stationary_distribution
from .errors import BadParameter, InputError, McaggError, ValidationError
from .generators import default_counts, gen_ncd, gen_replicated_rows
from .io import (file_sha256, ingest_bigrams, parse_matrix, parse_partitions,
                 report_csv_rows, write_matrix, write_partitions, write_report)
from .pipeline import aggregate_per_k, run_pipeline
from .selection import MODES, select_k


def _print_config(cmd, args, extra=None):
    cfg = {k: v for k, v in vars(args).items()
           if k != "func" and v is not None}
    if extra:
        cfg.update(extra)
    cfg["command"] = cmd
    print("config:", json.dumps(cfg, sort_keys=True, default=str))


def _load_matrix(args):
    return parse_matrix(args.matrix)


def _resolve_rho(matrix, choice):
    if choice == "stationary":
        return stationary_distribution(matrix.rows)
    return np.full(matrix.n, 1.0 / matrix.n)


def _add_kmax_flag(p):
    p.add_argument("--kmax", type=int, default=None,
                   help="largest model size, at least 1 (default min(n, 8))")


def _add_select_flags(p):
    p.add_argument("--mode", choices=MODES, default="plain")
    p.add_argument("--rho", choices=["uniform", "stationary"],
                   default="uniform")


def _int_list(flag, text):
    """The comma-separated integers of a --blocks or --counts value; a
    token that is not one raises BadParameter naming it."""
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok))
        except ValueError:
            raise BadParameter(f"{flag} token {tok!r} is not an integer")
    return out


def _cmd_gen(args):
    _print_config("gen", args)
    if args.family == "ncd":
        if not args.blocks:
            raise ValidationError("gen ncd requires --blocks")
        blocks = _int_list("--blocks", args.blocks)
        matrix, truth = gen_ncd(blocks=blocks, eps=args.eps, seed=args.seed)
    else:
        if args.n is None or args.kt is None:
            raise ValidationError("gen rows requires --n and --kt")
        counts = (_int_list("--counts", args.counts)
                  if args.counts else default_counts(args.n, args.kt))
        matrix, truth = gen_replicated_rows(n=args.n, k_t=args.kt,
                                            counts=counts, eps=args.eps,
                                            seed=args.seed)
    write_matrix(matrix, args.out)
    if args.truth:
        write_partitions({truth.k: truth}, args.truth)
    print(f"wrote {matrix.n}x{matrix.n} matrix to {args.out}")
    return 0


def _cmd_aggregate(args):
    matrix = _load_matrix(args)
    rho = _resolve_rho(matrix, args.rho)
    k_max = resolve_k_max(matrix.n, args.kmax)
    _print_config("aggregate", args, {"kmax_effective": k_max})
    partitions, models, _ = aggregate_per_k(matrix.rows, rho, k_max)
    write_partitions(partitions, args.out)
    if args.models:
        obj = {}
        for k, model in models.items():
            obj[str(k)] = {
                "assign": [int(v) for v in model.partition.assign],
                "psi": [[float(v) for v in row] for row in model.psi],
                "distributions": [[float(v) for v in row]
                                  for row in model.distributions],
            }
        with open(args.models, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.write("\n")
    ks = sorted(partitions)
    print(f"recorded partitions at k = {ks} to {args.out}")
    return 0


def _cmd_select(args):
    matrix = _load_matrix(args)
    rho = _resolve_rho(matrix, args.rho)
    partitions = parse_partitions(args.partitions, labels=matrix.labels)
    _print_config("select", args)
    report = select_k(matrix.rows, partitions, rho, mode=args.mode)
    print(f"k_t = {report.k_t}" + (" (exact fit)" if report.exact_fit else ""))
    if args.out:
        write_report(report, args.out, input_hash=file_sha256(args.matrix))
        print(f"wrote report to {args.out}")
    else:
        for line in report_csv_rows(report):
            print(line)
    return 0


def _cmd_pipeline(args):
    matrix = _load_matrix(args)
    rho = _resolve_rho(matrix, args.rho)
    k_max = resolve_k_max(matrix.n, args.kmax)
    _print_config("pipeline", args, {"kmax_effective": k_max})
    result = run_pipeline(matrix.rows, rho, k_max=k_max, mode=args.mode)
    print(f"k_t = {result.k_t}"
          + (" (exact fit)" if result.report.exact_fit else ""))
    if args.partitions_out:
        write_partitions(result.partitions, args.partitions_out)
    if args.out:
        write_report(result.report, args.out,
                     input_hash=file_sha256(args.matrix))
        print(f"wrote report to {args.out}")
    return 0


def _cmd_ingest(args):
    _print_config("ingest-bigrams", args)
    matrix = ingest_bigrams(args.counts, smoothing=args.eta)
    write_matrix(matrix, args.out)
    print(f"wrote 26x26 bigram chain to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcagg",
        description="Aggregate a Markov chain into representative "
                    "superstates and choose how many.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic chain")
    g.add_argument("family", choices=["ncd", "rows"])
    g.add_argument("--blocks", help="comma-separated NCD block sizes")
    g.add_argument("--n", type=int, help="state count (rows family)")
    g.add_argument("--kt", type=int, help="true cluster count (rows family)")
    g.add_argument("--counts", help="comma-separated multiplicities")
    g.add_argument("--eps", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--truth", help="also write the truth partition here")
    g.set_defaults(func=_cmd_gen)

    a = sub.add_parser("aggregate",
                       help="anneal, refine and record one partition per k")
    a.add_argument("--matrix", required=True)
    a.add_argument("--out", required=True, help="partitions json path")
    a.add_argument("--models", help="also write centroids and psi here")
    a.add_argument("--rho", choices=["uniform", "stationary"],
                   default="uniform")
    _add_kmax_flag(a)
    a.set_defaults(func=_cmd_aggregate)

    s = sub.add_parser("select", help="score partitions and pick k")
    s.add_argument("--matrix", required=True)
    s.add_argument("--partitions", required=True)
    s.add_argument("--out")
    _add_select_flags(s)
    s.set_defaults(func=_cmd_select)

    p = sub.add_parser("pipeline", help="aggregate then select")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", help="report path")
    p.add_argument("--partitions-out", dest="partitions_out")
    _add_kmax_flag(p)
    _add_select_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    b = sub.add_parser("ingest-bigrams", help="letter-pair counts to chain")
    b.add_argument("--counts", required=True)
    b.add_argument("--eta", type=float, default=1.0,
                   help="add-eta smoothing (default 1)")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_ingest)
    return parser


# built by the first main call and reused: parse_args keeps no state
# between calls, and building it at import would slow every import
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except McaggError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
