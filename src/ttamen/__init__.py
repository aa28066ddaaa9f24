"""Tensor-train linear algebra with rank-adaptive alternating solvers.

The package provides the TT (matrix product state) format for vectors and
operators, SVD-based rounding, QTT quantization, a rank-adaptive AMEn linear
solver with three residual-enrichment strategies, one-site ALS and two-site
DMRG baselines, benchmark problem generators, and numeric diagnostics of the
convergence theory.
"""

from .amen import (
    ConvergenceLog,
    EnrichmentState,
    SolverConfig,
    SweepRecord,
    SweepState,
    als_solve,
    amen_solve,
    amen_sweep,
    assemble_local,
    build_environments,
    dmrg_solve,
    enrich_chol,
    enrich_svd,
    expand_and_orthogonalize,
    solve_local,
    symmetrize,
)
from .diagnostics import (
    AngleReport,
    RateReport,
    angle_quantities,
    dense_oracle_solve,
    fom_chain_bound,
    instrumented_amen_run,
    kantorovich_bound,
    phi_d,
    sd_run,
    sd_step,
    tt_extreme_eigenvalues,
)
from .io import TTFormatError, tt_io_read, tt_io_write
from .problems import (
    CascadeCMESpec,
    PoissonSpec,
    TimeSystemSpec,
    build_cme_operator,
    build_initial_state,
    build_poisson,
    build_time_system,
    laplace_1d,
)
from .tt import (
    DenseSizeError,
    MultiIndex,
    TTMatrix,
    TTVector,
    eval_entry,
    flat_index,
    frame_matrix,
    interface_matrix,
    kron_le,
    multi_index,
    orthogonalize,
    qtt_quantize,
    to_dense,
    tt_add,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_ones,
    tt_random,
    tt_round,
    tt_unit,
    ttmat_add,
    ttmat_from_factors,
    ttmat_identity,
    ttmat_matmul,
    ttmat_random,
    ttmat_round,
    ttmat_transpose,
)

__version__ = "0.1.0"
