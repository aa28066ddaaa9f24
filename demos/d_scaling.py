"""Cost per core as the dimension grows, at fixed rank.

The paper's "superfast" claim is a solve whose cost grows linearly in the
number of cores d when the ranks stay bounded. This script solves the
Dirichlet Poisson system with 16 grid points per mode at d = 8, 16, 32 and
64 (up to 16^64, about 1.2e77 unknowns), started from the all-ones train,
and prints the sweeps, the largest rank, the wall time and the time per
core of each solve. It then solves Poisson with 64 binary modes (2^64
unknowns, past int64 sizes) from the solver's default random start.

It exits non-zero if any solve fails to converge; it asserts no timing.
"""

import sys
import time

from ttamen import PoissonSpec, SolverConfig, amen_solve, build_poisson, tt_ones


def solve(d, n, from_ones):
    A, y = build_poisson(PoissonSpec(dimension=d, grid_points=n))
    x0 = tt_ones(A.col_sizes) if from_ones else None
    t0 = time.perf_counter()
    x, log = amen_solve(A, y, x0, SolverConfig(tol=1e-5, enrichment="svd"))
    wall = time.perf_counter() - t0
    print(
        f"{d:4d} {n:3d}  {'ones' if from_ones else 'random':6s} {len(log.records):6d}"
        f" {max(x.ranks):8d} {log.final_residual:9.2e} {wall:7.3f}"
        f" {1e3 * wall / d:10.2f}  {log.status}"
    )
    return log.status == "converged"


def main() -> int:
    print("   d   n  start  sweeps max rank  residual       s  ms/core  status")
    ok = [solve(d, 16, True) for d in (8, 16, 32, 64)]
    ok.append(solve(64, 2, False))
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
