"""Solve a high-dimensional Poisson problem in tensor-train format.

The discrete Laplacian on a d-dimensional grid is a Kronecker sum, which
has an exact rank-2 tensor-train operator representation no matter how
large d gets. This script solves a 32^8 system (about 1.1e12 unknowns if
formed densely) with the three residual-enrichment variants of the
rank-adaptive solver, and an 8^8 one with the two-site baseline, and
prints their per-sweep convergence.
"""

import time

from ttamen import (
    PoissonSpec,
    SolverConfig,
    amen_solve,
    build_poisson,
    dmrg_solve,
    eval_entry,
)


def show(log, label, wall):
    print(f"\n{label}: status={log.status}, {wall:.2f} s")
    print("  sweep  residual     max rank")
    for rec in log.records:
        print(f"  {rec.sweep:5d}  {rec.rel_residual:.3e}  {rec.max_rank:8d}")


def main():
    d, n = 8, 32
    A, y = build_poisson(PoissonSpec(dimension=d, grid_points=n))
    print(f"Poisson operator: {d} modes of size {n}, TT ranks {A.ranks}")

    for enrichment in ("svd", "chol", "als"):
        config = SolverConfig(tol=1e-5, enrichment=enrichment, kickrank=4)
        t0 = time.perf_counter()
        x, log = amen_solve(A, y, config=config)
        show(log, f"amen + {enrichment} enrichment", time.perf_counter() - t0)
        print(f"  solution ranks: {x.ranks}")

    # the two-site baseline adapts ranks through the merged-core SVD
    # split; its truncation rule makes it stall above tol from 16 grid
    # points on (ROADMAP.md, Direction 3), so it runs on 8
    A8, y8 = build_poisson(PoissonSpec(dimension=d, grid_points=8))
    t0 = time.perf_counter()
    _, log = dmrg_solve(A8, y8, config=SolverConfig(tol=1e-5, max_sweeps=10))
    show(log, "two-site dmrg baseline (8 grid points)", time.perf_counter() - t0)

    # with an all-ones right-hand side the solution inherits the mirror
    # symmetry i -> n+1-i of the stencil, so opposite corners must agree
    lo = eval_entry(x, (1,) * d)  # 1-based multi-index
    hi = eval_entry(x, (n,) * d)
    print(f"\ncorner symmetry check: |x[1..1] - x[n..n]| = {abs(lo - hi):.2e}")


if __name__ == "__main__":
    main()
