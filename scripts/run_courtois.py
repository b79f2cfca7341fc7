"""Aggregate the classic 8-state three-block benchmark matrix.

With stationary weights the k=3 entry recovers the canonical grouping
{0,1,2} {3,4} {5,6,7}; the printed report shows how the heterogeneity
drops as k grows. The selected k_t, in the default plain mode, is 2, not
3, because nu(2) = 0.511 > nu(3) = 0.112; the canonical grouping is the
k=3 entry, not the k_t one.
"""
import pathlib

from mcagg import parse_matrix, run_pipeline, stationary_distribution

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    matrix = parse_matrix(str(ROOT / "data" / "courtois.csv"))
    rho = stationary_distribution(matrix.rows)
    res = run_pipeline(matrix.rows, rho, k_max=6)
    print(f"k_t = {res.k_t}")
    for k in sorted(res.partitions):
        groups = [sorted(int(i) for i in g) for g in res.partitions[k].groups()]
        nu = res.report.nus.get(k)
        tail = f"  nu={nu:.4f}" if nu is not None else ""
        print(f"k={k}: {groups}{tail}")


if __name__ == "__main__":
    main()
