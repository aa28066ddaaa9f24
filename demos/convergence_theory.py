"""Numerical checks of the convergence theory behind the solver.

Three experiments, each comparing a measured quantity against the bound
or identity that predicts it:

1. Per-sweep energy-error contraction of the rank-adaptive solver equals
   phi_d^2 = sum_{k<d} omega_k^2 prod_{j<k} (1 - omega_j^2) prod_{j<=k} mu_j^2
   (``diagnostics.phi_d``), where mu_k is the local A-norm progress factor
   (the A-norm error of the solved core k over that of the core it
   replaced) and omega_k the projector angle of the finalized core k (the
   share of the remaining error, in the A-norm, that its basis cannot
   represent).
2. A steepest-descent iteration on an SPD system contracts the energy
   error at least as fast as the Kantorovich ratio
   (kappa - 1)/(kappa + 1) predicted from the extreme eigenvalues.
3. For nonsymmetric systems whose symmetric part is positive definite,
   the one-site Galerkin solution is quasi-optimal in the chosen basis.
"""

from ttamen import (
    PoissonSpec,
    build_poisson,
    instrumented_amen_run,
    tt_add,
    tt_ones,
    ttmat_identity,
)
from ttamen.diagnostics import run_fom_check, run_kantorovich_check


def rate_identity():
    print("1. per-sweep contraction identity")
    A, _ = build_poisson(PoissonSpec(dimension=3, grid_points=4))
    A = tt_add(A, ttmat_identity(A.row_sizes), 1.0, 1.0)  # shift off zero
    rep = instrumented_amen_run(A, tt_ones([4, 4, 4]), sweeps=3, kickrank=2)
    print(f"   energy error monotone: {rep.monotone}")
    print("   sweep  measured ratio   predicted phi^2   gap")
    for i, s in enumerate(rep.sweeps, 1):
        print(f"   {i:5d}  {s['j_ratio']:.8e}  {s['phi_sq']:.8e}  "
              f"{s['identity_gap']:.1e}")


def kantorovich():
    print("\n2. steepest-descent contraction vs the spectral bound")
    rep = run_kantorovich_check(trials=100, seed=0)
    print(f"   trials: {rep['trials']}, bound violations: {rep['failures']}, "
          f"worst slack {rep['worst_slack']:.2e}")


def projection_bound():
    print("\n3. quasi-optimality of the nonsymmetric Galerkin projection")
    rep = run_fom_check(trials=1000, seed=0)
    print(f"   trials: {rep['trials']}, violations: {rep['violations']}, "
          f"skipped (indefinite symmetric part): {rep['inapplicable']}")


def main():
    rate_identity()
    kantorovich()
    projection_bound()


if __name__ == "__main__":
    main()
