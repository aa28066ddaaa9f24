"""Alternating solvers for TT-structured linear systems.

Provides the rank-adaptive AMEn solver with three residual-enrichment
back-ends (SVD, unfinished Cholesky, auxiliary low-rank ALS), plus the
fixed-rank one-site ALS and the two-site DMRG baselines.

Each sweep walks the cores left to right.  At core k the global system is
Galerkin-projected onto the frame spanned by all other cores, the small
local system is solved, and (except at the last core) the core basis is
expanded with a low-rank approximation of the local residual before the
left-orthogonality is recovered by QR.  Left/right partial contractions of
the operator and right-hand side against the iterate ("environments") make
each local assembly O(1) in the dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import krylov as spla  # bench/tracing.py and the tests patch ``spla``
from .tt import (
    TTMatrix,
    TTVector,
    _matvec_core,
    orthogonalize,
    tt_add,  # unused here, but bench/tracing.py wraps it by this name
    tt_matvec,
    tt_norm,
    tt_random,
    tt_round,
    ttmat_matmul,
    ttmat_round,
    ttmat_transpose,
)

__all__ = [
    "SolverConfig",
    "SweepState",
    "EnrichmentState",
    "ConvergenceLog",
    "SweepRecord",
    "LocalSizeError",
    "build_environments",
    "assemble_local",
    "solve_local",
    "exact_residual_core",
    "enrich_svd",
    "enrich_chol",
    "expand_and_orthogonalize",
    "amen_sweep",
    "amen_solve",
    "als_solve",
    "dmrg_solve",
    "symmetrize",
    "pivoted_cholesky",
    "vec_core",
    "unvec_core",
]


class LocalSizeError(RuntimeError):
    """Local system too large to assemble densely; use the iterative path."""


# ----------------------------------------------------------------------
# Configuration and logging
# ----------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Options shared by the alternating solvers.

    ``tol`` is the relative Frobenius residual target.  ``enrichment``
    selects the residual approximation back-end for AMEn (``"svd"``,
    ``"chol"`` or ``"als"``); ``kickrank`` is the width of the basis
    expansion (the rank of the residual approximant).  Local systems up to
    ``max_direct_size`` unknowns are factorized directly, larger ones are
    solved matrix-free by CG or GMRES to a relative residual of ``tol/100``;
    ``max_direct_size=0`` sends every local system to the matrix-free path.
    The default cap of 512 is where the matrix-free solve starts to win:
    summed over a solve of the benchmark's CME and Poisson systems, it takes
    4 to 16 times less time than the LU from 512 unknowns up, and up to 9
    times more below 256.
    """

    tol: float = 1e-5
    max_sweeps: int = 20
    kickrank: int = 4
    enrichment: str = "svd"
    max_direct_size: int = 512
    max_rank: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.kickrank < 1:
            raise ValueError("kickrank must be >= 1")
        if self.enrichment not in ("svd", "chol", "als", "none"):
            raise ValueError(f"unknown enrichment {self.enrichment!r}")


@dataclass
class SweepRecord:
    sweep: int
    wall_time: float
    rel_residual: float
    a_norm_error: Optional[float]
    max_rank: int
    local_converged: bool
    mu: list = field(default_factory=list)
    local_path: list = field(default_factory=list)
    local_products: list = field(default_factory=list)
    omega_surrogate: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class ConvergenceLog:
    records: list = field(default_factory=list)
    status: str = "running"  # "converged" | "stalled" | "max_sweeps" | "running"
    stop_reason: Optional[str] = None

    @property
    def final_residual(self) -> float:
        return self.records[-1].rel_residual if self.records else np.inf


# ----------------------------------------------------------------------
# Core vectorization (Fortran order: left rank fastest, as in the TT layout)
# ----------------------------------------------------------------------

def vec_core(core: np.ndarray) -> np.ndarray:
    return np.ravel(core, order="F")


def unvec_core(v: np.ndarray, shape) -> np.ndarray:
    return np.reshape(v, shape, order="F")


def _unfold_first(block: np.ndarray) -> np.ndarray:
    """(r, n, w) -> (r*n, w) with the rank index fastest."""
    r, n, w = block.shape
    return np.reshape(block, (r * n, w), order="F")


# ----------------------------------------------------------------------
# Environments
# ----------------------------------------------------------------------

class SweepState:
    """Left/right partial contractions of (x, A, x) and (x, y) per position.

    ``left_op[k]`` contracts cores ``0..k-1``; ``right_op[k]`` contracts
    cores ``k+1..d-1``.  Both boundary environments are 1x1x1 identities.
    ``symmetric`` says whether the operator is symmetric, which makes every
    local operator symmetric too (CG rather than GMRES).
    """

    def __init__(self, d: int, symmetric: bool):
        self.d = d
        self.symmetric = symmetric
        self.left_op = [None] * d
        self.right_op = [None] * d
        self.left_rhs = [None] * d
        self.right_rhs = [None] * d
        self.left_op[0] = np.ones((1, 1, 1))
        self.left_rhs[0] = np.ones((1, 1))
        self.right_op[d - 1] = np.ones((1, 1, 1))
        self.right_rhs[d - 1] = np.ones((1, 1))

    def advance_left(self, k: int, A: TTMatrix, y: TTVector, x: TTVector):
        """Absorb core k into the left environments (valid once core k is final)."""
        xc, ac, yc = x.cores[k], A.cores[k], y.cores[k]
        # (a,P,b),(a,i,c),(P,i,j,Q),(b,j,d) -> (c,Q,d) via BLAS-able pairings
        T = np.tensordot(self.left_op[k], xc, axes=(0, 0))  # (P,b,i,c)
        T = np.tensordot(T, ac, axes=([0, 2], [0, 1]))  # (b,c,j,Q)
        T = np.tensordot(xc, T, axes=([0, 1], [0, 2]))  # (d,c,Q)
        self.left_op[k + 1] = T.transpose(1, 2, 0)
        T = np.tensordot(self.left_rhs[k], xc, axes=(0, 0))  # (p,i,c)
        self.left_rhs[k + 1] = np.tensordot(T, yc, axes=([0, 1], [0, 1]))  # (c,q)

    def advance_right(self, k: int, A: TTMatrix, y: TTVector, x: TTVector):
        """Absorb core k into the right environments."""
        xc, ac, yc = x.cores[k], A.cores[k], y.cores[k]
        T = np.tensordot(xc, self.right_op[k], axes=(2, 0))  # (a,i,Q,d)
        T = np.tensordot(T, ac, axes=([1, 2], [1, 3]))  # (a,d,P,j)
        self.right_op[k - 1] = np.tensordot(T, xc, axes=([1, 3], [2, 1]))  # (a,P,b)
        T = np.tensordot(xc, self.right_rhs[k], axes=(2, 0))  # (a,i,q)
        self.right_rhs[k - 1] = np.tensordot(T, yc, axes=([1, 2], [1, 2]))


def build_environments(
    A: TTMatrix, y: TTVector, x: TTVector, symmetric: Optional[bool] = None
) -> SweepState:
    """Populate all right environments; left ones start at identities.

    ``symmetric`` says whether ``A`` is symmetric (see :func:`_is_symmetric`);
    when omitted, ``A`` is probed.
    """
    if A.col_sizes != x.mode_sizes or A.row_sizes != y.mode_sizes:
        raise ValueError("operator / vector sizes are inconsistent")
    d = x.d
    state = SweepState(d, _is_symmetric(A) if symmetric is None else symmetric)
    for k in range(d - 1, 0, -1):
        state.advance_right(k, A, y, x)
    return state


def _is_symmetric(A: TTMatrix) -> bool:
    """Randomized test of ``A == A^T``: ``<w, A v>`` against ``<v, A w>``.

    ``v`` and ``w`` are random rank-1 vectors with positive entries; with
    signed entries both products shrink like a product of d cosines, which
    hides the gap on many-core operators.  The gap is measured against
    ``|w|^T |A| |v|`` (absolute cores), which bounds the contractions'
    round-off.  Only NumPy is called, so a timing wrapper around the TT
    algebra does not count the probe as a product.
    """
    if A.row_sizes != A.col_sizes:
        return False
    rng = np.random.default_rng(0)
    wav = vaw = bound = np.ones(1)
    for core in A.cores:
        v, w = rng.uniform(0.5, 1.5, (2, core.shape[1]))
        wav = wav @ np.einsum("i,PijQ,j->PQ", w, core, v)
        vaw = vaw @ np.einsum("i,PijQ,j->PQ", v, core, w)
        bound = bound @ np.einsum("i,PijQ,j->PQ", w, np.abs(core), v)
    return bool(abs(wav[0] - vaw[0]) <= 1e-10 * bound[0])


def assemble_local(
    state: SweepState,
    A: TTMatrix,
    y: TTVector,
    x: TTVector,
    k: int,
    max_size: Optional[int] = None,
):
    """Dense local system (B_k, b_k) at 1-based position k.

    Row/column ordering is the Fortran vectorization of the core, i.e. the
    left rank index fastest.  Raises :class:`LocalSizeError` when the local
    problem exceeds ``max_size`` unknowns, if given (then the matrix-free
    path applies).
    """
    N = x.cores[k - 1].size
    if max_size is not None and N > max_size:
        raise LocalSizeError(
            f"local system has {N} unknowns (> {max_size}); use the iterative solver"
        )
    L, Ac, R, b, _ = _local_problem(state, A, y, x, k - 1, 1)
    return _local_matrix(L, Ac, R), b


def _local_problem(state: SweepState, A, y, x, k0: int, sites: int):
    """The local system on cores ``k0 .. k0+sites-1``: ``(L, Ac, R, b, core)``.

    ``L``, ``Ac`` and ``R`` make up the operator, ``b`` is the vectorized
    right-hand side and ``core`` the current iterate (the guess).  For two
    sites the operator, right-hand side and iterate cores are merged into
    one core with a fused mode.
    """
    k1 = k0 + sites - 1
    Ac, yc, core = A.cores[k0], y.cores[k0], x.cores[k0]
    if sites == 2:
        Ac = _merge_op_cores(Ac, A.cores[k1])
        yc = _merge_vec_cores(yc, y.cores[k1])
        core = _merge_vec_cores(core, x.cores[k1])
    b = _local_rhs(state.left_rhs[k0], yc, state.right_rhs[k1])
    return state.left_op[k0], Ac, state.right_op[k1], b, core


def _merge_op_cores(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Contract two neighboring operator cores into one with fused modes.

    The fused row index pairs (i,k) with i fastest, matching the Fortran
    vectorization of a merged two-site block; likewise for columns.
    """
    RP, n1, m1, _ = A1.shape
    _, n2, m2, RS = A2.shape
    T = np.tensordot(A1, A2, axes=(3, 0))  # (P,i,j,k,l,S)
    T = T.transpose(0, 3, 1, 4, 2, 5)  # (P,k,i,l,j,S)
    return np.ascontiguousarray(T).reshape(RP, n1 * n2, m1 * m2, RS)


def _merge_vec_cores(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    p, n1, _ = y1.shape
    _, n2, q = y2.shape
    T = np.tensordot(y1, y2, axes=(2, 0))  # (p,i,k,q)
    return np.ascontiguousarray(T.transpose(0, 2, 1, 3)).reshape(p, n1 * n2, q)


def _local_matrix(L, Ac, R) -> np.ndarray:
    T = np.tensordot(L, Ac, axes=(1, 0))  # (a,b,i,j,Q)
    T = np.tensordot(T, R, axes=(4, 1))  # (a,b,i,j,c,d)
    N = L.shape[0] * Ac.shape[1] * R.shape[0]
    return np.ascontiguousarray(T.transpose(4, 2, 0, 5, 3, 1)).reshape(N, N)


def _local_rhs(Ly, yc, Ry) -> np.ndarray:
    t = np.tensordot(np.tensordot(Ly, yc, axes=(1, 0)), Ry, axes=(2, 1))
    return vec_core(t)


def solve_local(B: np.ndarray, b: np.ndarray):
    """Direct dense solve with a least-squares fallback for singular systems.

    Returns ``(u, info)`` where ``info["fallback"]`` flags an ill-conditioned
    system solved in the least-squares sense and ``info["residual"]`` is
    ``norm(b - B u)``.
    """
    info = {"fallback": False}
    try:
        u = np.linalg.solve(B, b)
        res = np.linalg.norm(b - B @ u)
        if not np.isfinite(res) or res > 1e-6 * max(np.linalg.norm(b), 1e-300):
            raise np.linalg.LinAlgError("inaccurate direct solve")
    except np.linalg.LinAlgError:
        u, *_ = np.linalg.lstsq(B, b, rcond=None)
        res = np.linalg.norm(b - B @ u)
        info["fallback"] = True
    info["residual"] = res
    return u, info


class _LocalOperator:
    """Matrix-free local operator ``L · Ac · R`` on cores (a,i,c) <- (b,j,d).

    ``L`` is (a,P,b), ``Ac`` is (P,i,j,Q), ``R`` is (c,Q,d).  A product runs
    in one of two orders, picked once from the shapes:

    - factored: three GEMMs, ``R`` first, then ``Ac``, then ``L``, at
      ``bcQdj + bcPiQj + bcaiP`` multiply-adds (O(n r^3 R + n^2 r^2 R^2));
    - merged: ``M1 = L·Ac`` of shape (a i Q, b j) is contracted once, then
      each product is two GEMMs at ``aiQd(bj + c)`` (O(n^2 r^3 R)).

    The factored order runs only where it needs at most half the merged
    order's flops.  Large modes (n = 32 Poisson, ratio 4.4-5.6) take it; at
    a (15, 32, 15) core one product drops from 1.1 to 0.12 ms.  QTT cores
    (n = 2, ratio below 2) keep the merged order.  On the CME benchmark's
    shapes the factored order ranges from 1.5x slower to 2.2x faster per
    product (22% less time summed over them), and the CME runs' sweep
    counts are sensitive to the round-off a change of order brings.

    ``shape`` and ``dtype`` let the Krylov solvers take it as it is;
    ``products`` counts the products made.
    """

    def __init__(self, L, Ac, R):
        a, P, b = L.shape
        _, i, j, Q = Ac.shape
        c, _, d = R.shape
        self.out_shape = (a, i, c)
        self.in_shape = (b, j, d)
        self.shape = (a * i * c, b * j * d)
        self.dtype = np.result_type(L, Ac, R)
        self.products = 0
        merged = a * i * Q * d * (b * j + c)
        factored = b * c * (Q * d * j + P * i * Q * j + a * i * P)
        self.factored = 2 * factored <= merged
        self._P, self._Q = P, Q
        if self.factored:
            self._R = np.ascontiguousarray(R).reshape(c * Q, d)
            A_t = Ac.transpose(0, 1, 3, 2)  # (P,i,Q,j)
            self._A = np.ascontiguousarray(A_t).reshape(P * i, Q * j)
            self._L = np.ascontiguousarray(L.transpose(1, 2, 0)).reshape(P * b, a)
            return
        M1 = np.einsum("aPb,PijQ->aiQbj", L, Ac, optimize=True)
        self._M1 = np.ascontiguousarray(M1.reshape(a * i * Q, b * j))
        self._M2 = np.ascontiguousarray(R.reshape(c, Q * d))

    def apply(self, v_core: np.ndarray) -> np.ndarray:
        if self.factored:
            return unvec_core(self.matvec(vec_core(v_core)), self.out_shape)
        r0l, n, r1l = self.out_shape
        r0r, m, r1r = self.in_shape
        W = self._M1 @ v_core.reshape(r0r * m, r1r)
        W = W.reshape(r0l * n, self._Q * r1r)
        return (W @ self._M2.T).reshape(r0l, n, r1l)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.products += 1
        if not self.factored:
            return vec_core(self.apply(unvec_core(v, self.in_shape)))
        # the Fortran vector of (b,j,d) is the C array [d,j,b]
        a, i, c = self.out_shape
        b, j, d = self.in_shape
        P, Q = self._P, self._Q
        T = self._R @ np.reshape(v, (d, j * b))  # [c,Q,j,b]
        T = T.reshape(c, Q * j, b).transpose(1, 0, 2).reshape(Q * j, c * b)
        T = self._A @ T  # [P,i,c,b]
        T = T.reshape(P, i, c, b).transpose(2, 1, 0, 3).reshape(c * i, P * b)
        return (T @ self._L).ravel()  # [c,i,a]: the Fortran vector of (a,i,c)


# cap on the products of one CG or GMRES local solve
_LOCAL_MAXITER = 400


def _solve_local_iterative(loc: _LocalOperator, b, guess, rtol, symmetric: bool):
    """CG for a symmetric operator, GMRES otherwise or when CG fails.

    Each stops after about ``_LOCAL_MAXITER`` products (GMRES counts its
    limit in restart cycles).  Returns ``(u, info)`` with the norms of
    ``b - B guess`` and ``b - B u`` in ``info["residual_before"]`` and
    ``info["residual"]``, and the solvers run in ``info["path"]``.
    """
    r0 = b - loc.matvec(guess)  # the solvers start from it
    info = {"fallback": False, "residual_before": np.linalg.norm(r0)}
    if symmetric:
        u, code = spla.cg(loc, b, x0=guess, r0=r0, rtol=rtol, maxiter=_LOCAL_MAXITER)
        info["cg_info"] = int(code)
        if code == 0:
            info["path"] = "cg"
            info["residual"] = np.linalg.norm(b - loc.matvec(u))
            return u, info
        guess, r0 = u, None  # a failed CG hands its iterate to GMRES
    restart = min(b.size, 200)
    u, code, info["residual"] = spla.gmres(
        loc,
        b,
        x0=guess,
        r0=r0,
        rtol=rtol,
        maxiter=max(1, _LOCAL_MAXITER // restart),
        restart=restart,
    )
    info["gmres_info"] = int(code)
    info["path"] = "cg+gmres" if symmetric else "gmres"
    return u, info


def _solve_local_problem(state: SweepState, A, y, x, k0: int, sites: int, config):
    """Solve the local system on cores ``k0 .. k0+sites-1``.

    Systems up to ``config.max_direct_size`` unknowns are assembled and
    solved directly, larger ones matrix-free.  Returns the solved core (the
    merged one for two sites) and its stats entry: the local residuals before
    and after, scaled by ``norm(b)``, their ratio ``mu``, whether the direct
    solve fell back to least squares, the ``path`` taken (``direct``,
    ``lstsq``, ``cg``, ``gmres`` or ``cg+gmres``) and the local operator's
    ``products`` (0 on the direct path; the initial residual's counts).
    """
    L, Ac, R, b, core = _local_problem(state, A, y, x, k0, sites)
    guess = vec_core(core)
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    if b.size <= config.max_direct_size:
        B = _local_matrix(L, Ac, R)
        res_before = np.linalg.norm(b - B @ guess) / scale
        u, info = solve_local(B, b)
        path, products = ("lstsq" if info["fallback"] else "direct"), 0
    else:
        loc = _LocalOperator(L, Ac, R)
        u, info = _solve_local_iterative(loc, b, guess, config.tol / 100, state.symmetric)
        res_before = info["residual_before"] / scale
        path, products = info["path"], loc.products
    res_after = info["residual"] / scale
    mu = res_after / res_before if res_before > 0 else 1.0
    entry = {
        "k": k0 + 1,
        "local_res_before": float(res_before),
        "local_res_after": float(res_after),
        "mu": float(min(mu, 1.0) if np.isfinite(mu) else 1.0),
        "fallback": info["fallback"],
        "path": path,
        "products": products,
    }
    return unvec_core(u, core.shape), entry


# ----------------------------------------------------------------------
# Exact residual in TT block form
# ----------------------------------------------------------------------

def _residual_right_block(A: TTMatrix, y: TTVector, x: TTVector, p: int, last: bool):
    """Block p of the exact local residual chain (0-based p >= 1).

    Block-diagonal pairing of the rhs core with the operator-times-iterate
    core; at the last position the two column blocks collapse to rank 1.
    """
    yc = y.cores[p]
    ax = _matvec_core(A.cores[p], x.cores[p])
    if last:
        return np.concatenate([yc, ax], axis=0)
    ry0, n, ry1 = yc.shape
    block = np.zeros((ry0 + ax.shape[0], n, ry1 + ax.shape[2]))
    block[:ry0, :, :ry1] = yc
    block[ry0:, :, ry1:] = ax
    return block


def _residual_first_block(state: SweepState, A, y, u_core, k0: int) -> np.ndarray:
    """Step-dependent head block of the exact local residual at core k0."""
    yc = y.cores[k0]
    y_part = np.tensordot(state.left_rhs[k0], yc, axes=(1, 0))  # (a,i,q)
    T = np.tensordot(state.left_op[k0], A.cores[k0], axes=(1, 0))  # (a,b,i,j,Q)
    a_part = np.tensordot(T, u_core, axes=([1, 3], [0, 1]))  # (a,i,Q,c)
    r0, n = a_part.shape[0], a_part.shape[1]
    a_part = a_part.reshape(r0, n, -1)
    return np.concatenate([y_part, -a_part], axis=2)


def exact_residual_core(state: SweepState, A, y, x, u_core, k: int):
    """Exact TT factors of the local residual at 1-based position k.

    Returns ``(head, tails)``: ``head`` is the only block that depends on the
    freshly solved core, ``tails`` are the blocks for positions k+1..d built
    from data available before the step.
    """
    k0 = k - 1
    head = _residual_first_block(state, A, y, u_core, k0)
    d = x.d
    tails = [
        _residual_right_block(A, y, x, p, last=(p == d - 1))
        for p in range(k0 + 1, d)
    ]
    return head, tails


def _residual_tails(A: TTMatrix, y: TTVector, x: TTVector) -> list:
    """Blocks 1..d-1 of the exact residual chain of ``x`` (entry 0 is None)."""
    d = x.d
    return [None] + [
        _residual_right_block(A, y, x, p, last=(p == d - 1)) for p in range(1, d)
    ]


def _residual_factored(ac: np.ndarray, xc: np.ndarray) -> bool:
    """Whether :func:`_residual_block_product` contracts core p factored.

    The factored route costs ``w R1 r0 m (r1 + R0 n)`` multiply-adds, the
    block route ``w R0 r0 n R1 r1``; as in :class:`_LocalOperator`, the
    factored one runs only where it needs at most half of them.  QTT cores
    (n = m = 2) take it once ``r1 >= 12`` at ``R0 = 3``; large modes
    (Poisson's n = 32, R = 2) and the last core (``r1 = 1``) never do, so
    their bits are those of the chain ``tt_add(y, tt_matvec(A, x))``.
    """
    R0, n, m, _ = ac.shape
    r1 = xc.shape[2]
    return 2 * m * (r1 + R0 * n) <= R0 * n * r1


def _residual_block_product(A: TTMatrix, y: TTVector, x: TTVector, p: int, F_next):
    """Chain block p (0-based, ``p >= 1``) of ``y - A x`` times ``F_next``: (rows, n, w).

    Block route: form the block of :func:`_residual_right_block` and contract
    it.  Factored route (see :func:`_residual_factored`): the y rows of
    ``F_next`` meet ``y_p``; its ``A x`` rows meet ``x_p`` over ``d`` first,
    then ``A_p`` over ``(j, Q)``, so the ``A x`` core is never formed.
    """
    yc, ac, xc = y.cores[p], A.cores[p], x.cores[p]
    if not _residual_factored(ac, xc):
        block = _residual_right_block(A, y, x, p, last=(p == x.d - 1))
        return np.tensordot(block, F_next, axes=(2, 0))
    R0, n, _, R1 = ac.shape
    r0, _, r1 = xc.shape
    ry0, _, ry1 = yc.shape
    w = F_next.shape[1]
    out = np.empty((ry0 + R0 * r0, n, w))
    out[:ry0] = np.tensordot(yc, F_next[:ry1], axes=(2, 0))
    T = np.tensordot(xc, F_next[ry1:].reshape(R1, r1, w), axes=(2, 1))  # (b,j,Q,w)
    T = np.tensordot(ac, T, axes=([2, 3], [1, 2]))  # (P,i,b,w)
    out[ry0:].reshape(R0, r0, n, w)[...] = T.transpose(0, 2, 1, 3)
    return out


def _residual_sweep(A: TTMatrix, y: TTVector, x: TTVector):
    """Tail factors and exact norm of ``y - A x`` from one R-only QR sweep.

    The unrounded chain ``y - A x`` (cores 1..d-1 are the blocks of
    :func:`_residual_right_block`) is swept right to left keeping only the
    R factors.  Each block's product with the factor to its right comes from
    :func:`_residual_block_product`, so the chain itself is never built.
    Returns ``(F, norm)``: ``F[p] @ F[p].T`` is the Gram matrix of chain
    blocks ``p..d-1`` for ``p = 1..d`` (``F[d]`` is ``[[1]]``, ``F[0]`` is
    None), and ``norm = ‖[y_0, -A_0 x_0] @ F[1]‖``.  Unlike a square root of
    the Gram matrix, ``F[p]`` keeps directions far below ``sqrt(eps)`` of the
    largest, and the norm does not cancel near convergence.
    """
    d = x.d
    F = [None] * (d + 1)
    F[d] = np.ones((1, 1))
    for p in range(d - 1, 0, -1):
        T = _residual_block_product(A, y, x, p, F[p + 1])
        F[p] = np.linalg.qr(T.reshape(T.shape[0], -1).T, mode="r").T
    ax = _matvec_core(A.cores[0], x.cores[0])
    head = y.cores[0] - ax if d == 1 else np.concatenate([y.cores[0], -ax], axis=2)
    return F, float(np.linalg.norm(_unfold_first(head) @ F[1]))


def _psd_sqrt(G: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(G)
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)


def pivoted_cholesky(G: np.ndarray, max_rank: int, indefinite_tol: float = 1e-10):
    """Rank-truncated pivoted Cholesky of a (near) PSD Gram matrix.

    Pivots on the largest remaining diagonal entry (ties -> lowest index) and
    stops at ``max_rank`` columns, at numerical rank exhaustion, or when a
    pivot drops below ``-indefinite_tol * trace``.
    Returns the factor ``L`` with ``L @ L.T ~= G`` (on the achieved width).
    """
    n = G.shape[0]
    diag = np.diag(G).astype(float).copy()
    trace0 = max(float(np.sum(np.clip(diag, 0, None))), 0.0)
    L = np.zeros((n, min(max_rank, n)))
    width = 0
    for j in range(min(max_rank, n)):
        i = int(np.argmax(diag))
        dmax = diag[i]
        if dmax < -indefinite_tol * max(trace0, 1e-300):
            break
        if dmax <= 1e-12 * max(trace0, 1e-300):
            break
        col = G[:, i] - L[:, :j] @ L[i, :j]
        L[:, j] = col / np.sqrt(dmax)
        diag -= L[:, j] ** 2
        diag[i] = 0.0
        width += 1
    return L[:, :width]


def enrich_svd(
    head: np.ndarray,
    gram_tail: Optional[np.ndarray],
    kickrank: int,
    tail_factor: Optional[np.ndarray] = None,
):
    """Dominant left singular subspace of the local residual's first unfolding.

    ``gram_tail`` is the Gram matrix of the right residual chain; replacing
    the chain by any factor with the same Gram matrix leaves the left singular
    subspace unchanged.  ``tail_factor``, when given, is such a factor (the
    solver passes the residual sweep's ``F``) and ``gram_tail`` is not read;
    otherwise the factor is the eigendecomposition square root of
    ``gram_tail``, which resolves only directions above about
    ``sqrt(eps)`` times the largest.
    """
    M = _unfold_first(head)
    C = _psd_sqrt(gram_tail) if tail_factor is None else tail_factor
    X = M @ C
    if X.shape[1] > X.shape[0]:
        # a wide X = L Q^T has the left singular pairs of its square L factor
        X = np.linalg.qr(X.T, mode="r").T
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return None, {"sigma": s, "width": 0}
    width = min(kickrank, int(np.sum(s > 1e-14 * s[0])))
    if width == 0:
        return None, {"sigma": s, "width": 0}
    r0, n, _ = head.shape
    Z = unvec_core(U[:, :width].ravel(order="F"), (r0, n, width))
    return Z, {"sigma": s, "width": width}


def enrich_chol(
    head: np.ndarray,
    gram_tail: Optional[np.ndarray],
    kickrank: int,
    tail_factor: Optional[np.ndarray] = None,
):
    """Approximate dominant subspace via pivoted Cholesky of the Gram matrix.

    The Gram matrix of the local residual is ``M gram_tail M^T``, or
    ``(M F)(M F)^T`` when the tail factor ``F`` is given.
    """
    M = _unfold_first(head)
    if tail_factor is None:
        G = M @ gram_tail @ M.T
    else:
        MF = M @ tail_factor
        G = MF @ MF.T
    L = pivoted_cholesky(G, kickrank)
    if L.shape[1] == 0:
        return None, {"width": 0, "captured": 0.0, "total": float(np.trace(G))}
    Q, _ = np.linalg.qr(L)
    r0, n, _ = head.shape
    Z = unvec_core(Q.ravel(order="F"), (r0, n, Q.shape[1]))
    info = {
        "width": Q.shape[1],
        "captured": float(np.sum(L**2)),
        "total": float(np.trace(G)),
    }
    return Z, info


# ----------------------------------------------------------------------
# Enrichment state
# ----------------------------------------------------------------------

class EnrichmentState:
    """Per-sweep caches for the residual-enrichment back-ends.

    For the SVD and Cholesky methods this holds the tail factors ``F`` of the
    residual chain of the sweep's start iterate (see :func:`_residual_sweep`);
    for the ALS method it holds the right residual blocks, the persistent
    rank-``kickrank`` residual approximant and the cross environments needed
    for its one-core-per-step update.
    """

    def __init__(self, method: str, kickrank: int, rng=None):
        if method not in ("svd", "chol", "als"):
            raise ValueError(f"unknown enrichment method {method!r}")
        self.method = method
        self.kickrank = kickrank
        self.rng = np.random.default_rng(rng)
        self.residual_tt: Optional[TTVector] = None
        self.notices: list[str] = []
        self._tails = None
        self._factors: list = []
        self._W = None
        self._Rzy = None
        self._Rza = None
        self._Lzy = None
        self._Lza = None

    # -- sweep preparation -------------------------------------------------

    def prepare_sweep(self, A: TTMatrix, y: TTVector, x: TTVector, factors=None):
        """Set up a sweep from its start iterate ``x``.

        ``factors`` are the tail factors ``_residual_sweep(A, y, x)`` returned
        for this ``x``; svd/chol run that sweep here when they are not given.
        """
        d = x.d
        if self.method in ("svd", "chol"):
            self._factors = _residual_sweep(A, y, x)[0] if factors is None else factors
            return
        self._tails = _residual_tails(A, y, x)
        # ALS: make sure the residual approximant exists and is right-orthogonal
        z = self.residual_tt
        if z is None or z.mode_sizes != y.mode_sizes:
            z = tt_random(y.mode_sizes, self.kickrank, rng=self.rng)
        z = orthogonalize(z, "right", 1)
        nrm = float(np.linalg.norm(z.cores[0]))
        if nrm > 0:
            z.cores[0] /= nrm
        self.residual_tt = z
        self._W = [None] * (d + 1)
        self._W[d] = np.ones((1, 1))
        for p in range(d - 1, 0, -1):
            T = np.tensordot(self._tails[p], self._W[p + 1], axes=(2, 0))  # (a,i,h)
            self._W[p] = np.tensordot(T, z.cores[p], axes=([1, 2], [1, 2]))  # (a,g)
        self._Rzy = [None] * d
        self._Rza = [None] * d
        self._Rzy[d - 1] = np.ones((1, 1))
        self._Rza[d - 1] = np.ones((1, 1, 1))
        for p in range(d - 1, 0, -1):
            zc, yc, ac, xc = z.cores[p], y.cores[p], A.cores[p], x.cores[p]
            T = np.tensordot(zc, self._Rzy[p], axes=(2, 0))  # (g,i,q)
            self._Rzy[p - 1] = np.tensordot(T, yc, axes=([1, 2], [1, 2]))  # (g,p)
            T = np.tensordot(zc, self._Rza[p], axes=(2, 0))  # (g,i,Q,b)
            T = np.tensordot(T, ac, axes=([1, 2], [1, 3]))  # (g,b,P,j)
            self._Rza[p - 1] = np.tensordot(T, xc, axes=([1, 3], [2, 1]))  # (g,P,a)
        self._Lzy = np.ones((1, 1))
        self._Lza = np.ones((1, 1, 1))

    # -- per-step enrichment ----------------------------------------------

    def enrich(self, state: SweepState, A, y, x, u_core, k0: int):
        """Enrichment block for 0-based core k0 (< d-1); may update z-tilde."""
        head = _residual_first_block(state, A, y, u_core, k0)
        if self.method == "svd":
            return enrich_svd(head, None, self.kickrank, tail_factor=self._factors[k0 + 1])
        if self.method == "chol":
            return enrich_chol(head, None, self.kickrank, tail_factor=self._factors[k0 + 1])
        return self._enrich_als(state, A, y, x, u_core, k0, head)

    def _enrich_als(self, state, A, y, x, u_core, k0, head):
        M = _unfold_first(head)
        W = self._W[k0 + 1]
        proj = M @ W
        r0, n, _ = head.shape
        pnorm = np.linalg.norm(proj)
        Z = None
        width = 0
        if pnorm > 0:
            # drop numerically null directions so ranks do not grow idly
            U, s, _ = np.linalg.svd(proj, full_matrices=False)
            width = int(np.sum(s > 1e-14 * s[0]))
            if width > 0:
                Z = unvec_core(U[:, :width].ravel(order="F"), (r0, n, width))
        info = {"width": width, "proj_norm": float(pnorm)}
        self._update_residual_core(state, A, y, u_core, k0)
        return Z, info

    def _update_residual_core(self, state, A, y, u_core, k0):
        """One ALS step for z-tilde: project the current global residual."""
        z = self.residual_tt
        pos = np.tensordot(
            np.tensordot(self._Lzy, y.cores[k0], axes=(1, 0)),
            self._Rzy[k0],
            axes=(2, 1),
        )  # (g,i,h)
        T = np.tensordot(self._Lza, A.cores[k0], axes=(1, 0))  # (g,a,i,j,Q)
        T = np.tensordot(T, u_core, axes=([1, 3], [0, 1]))  # (g,i,Q,b)
        neg = np.tensordot(T, self._Rza[k0], axes=([2, 3], [1, 2]))  # (g,i,h)
        z_new = pos - neg
        nrm = np.linalg.norm(z_new)
        if nrm <= 1e-300:
            g0, n, g1 = z.cores[k0].shape
            z_new = self.rng.standard_normal((g0, n, g1))
            self.notices.append(
                f"residual approximant core {k0 + 1} degenerated; reinitialized"
            )
        # keep the left part of z-tilde orthonormal for the next projection
        g0, n, g1 = z_new.shape
        Q, _ = np.linalg.qr(z_new.reshape(g0 * n, g1))
        z.cores[k0] = Q.reshape(g0, n, -1)
        z.ortho = None

    def advance(self, A, y, x, k0: int):
        """Advance the ALS cross environments past the finalized core k0."""
        if self.method != "als":
            return
        z = self.residual_tt
        T = np.tensordot(self._Lzy, z.cores[k0], axes=(0, 0))  # (p,i,h)
        self._Lzy = np.tensordot(T, y.cores[k0], axes=([0, 1], [0, 1]))  # (h,q)
        T = np.tensordot(self._Lza, z.cores[k0], axes=(0, 0))  # (P,a,i,h)
        T = np.tensordot(T, A.cores[k0], axes=([0, 2], [0, 1]))  # (a,h,j,Q)
        self._Lza = np.tensordot(T, x.cores[k0], axes=([0, 2], [0, 1]))  # (h,Q,b)


# ----------------------------------------------------------------------
# Basis expansion
# ----------------------------------------------------------------------

def expand_and_orthogonalize(x: TTVector, k: int, Z: Optional[np.ndarray]) -> TTVector:
    """Widen core k (1-based) by Z, zero-pad core k+1, recover orthogonality.

    The represented vector is unchanged: the appended columns multiply zero
    rows of the next core, and the QR factor is absorbed rightwards.
    """
    if not 1 <= k < x.d:
        raise ValueError(f"expansion position {k} must be in [1, d-1]")
    out = x.copy()
    _expand(out.cores, k - 1, Z)
    out.ortho = None
    return out


def _expand(cores: list, k0: int, Z: Optional[np.ndarray]):
    if Z is not None and Z.shape[2] > 0:
        cores[k0] = np.concatenate([cores[k0], Z], axis=2)
        pad = np.zeros((Z.shape[2],) + cores[k0 + 1].shape[1:])
        cores[k0 + 1] = np.concatenate([cores[k0 + 1], pad], axis=0)
    _qr_push(cores, k0)


def _qr_push(cores: list, k0: int):
    r0, n, r1 = cores[k0].shape
    Q, Rf = np.linalg.qr(cores[k0].reshape(r0 * n, r1))
    cores[k0] = Q.reshape(r0, n, -1)
    cores[k0 + 1] = np.einsum("ab,bnc->anc", Rf, cores[k0 + 1])


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def amen_sweep(
    x: TTVector,
    A: TTMatrix,
    y: TTVector,
    state: SweepState,
    ens: Optional[EnrichmentState],
    config: SolverConfig,
    recorder=None,
):
    """One left-to-right AMEn pass; returns (x, state, ens, per-core stats).

    Expects ``x`` right-orthogonal from position 2 with fresh environments
    and, when ``ens`` is given, ``ens.prepare_sweep`` already called.
    """
    x = x.copy()
    d = x.d
    stats = []
    if recorder is not None:
        recorder.on_sweep_start(x)
    for k0 in range(d):
        if recorder is not None:
            recorder.on_core_start(k0, x)
        u_core, entry = _solve_local_problem(state, A, y, x, k0, 1, config)
        if recorder is not None:
            recorder.on_core_solved(k0, u_core)
        x.cores[k0] = u_core
        if k0 < d - 1:
            Z = None
            if ens is not None:
                Z, einfo = ens.enrich(state, A, y, x, u_core, k0)
                entry["enrich_width"] = einfo.get("width", 0)
                entry["omega_surrogate"] = _omega_surrogate(ens.method, einfo)
                if Z is not None and config.max_rank is not None:
                    room = config.max_rank - x.cores[k0].shape[2]
                    if room <= 0:
                        Z = None
                    elif Z.shape[2] > room:
                        Z = Z[:, :, :room]
            _expand(x.cores, k0, Z)
            state.advance_left(k0, A, y, x)
            if ens is not None:
                ens.advance(A, y, x, k0)
        if recorder is not None:
            recorder.on_core_done(k0, x)
        stats.append(entry)
    x.ortho = ("left_upto", d - 1)
    return x, state, ens, stats


def _omega_surrogate(method: str, einfo: dict) -> Optional[float]:
    if method == "svd":
        s = einfo.get("sigma")
        if s is None or s.size == 0:
            return None
        total = float(np.sum(s**2))
        if total == 0:
            return 0.0
        captured = float(np.sum(s[: einfo["width"]] ** 2))
        return float(np.sqrt(max(0.0, 1.0 - captured / total)))
    if method == "chol":
        total = einfo.get("total", 0.0)
        if total <= 0:
            return 0.0
        return float(np.sqrt(max(0.0, 1.0 - einfo.get("captured", 0.0) / total)))
    return None


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def _default_guess(mode_sizes, rng) -> TTVector:
    x = tt_random(mode_sizes, 1, rng=rng)
    x = orthogonalize(x, "right", 1)
    nrm = float(np.linalg.norm(x.cores[0]))
    if nrm > 0:
        x.cores[0] /= nrm
    return x


def _run_alternating(A, y, x0, config, make_ens, sweep_fn):
    rng = np.random.default_rng(config.seed)
    x = x0.copy() if x0 is not None else _default_guess(A.col_sizes, rng)
    ynorm = tt_norm(y)
    yscale = ynorm if ynorm > 0 else 1.0
    log = ConvergenceLog()
    ens = make_ens(rng)
    # svd/chol take their tail factors from the residual sweep of the next
    # start iterate, so their check runs on that iterate; the others check
    # the sweep's own iterate and orthogonalize only when the run goes on
    with_factors = ens is not None and ens.method != "als"
    t0 = time.perf_counter()
    x_next = orthogonalize(x, "right", 1)
    factors = _residual_sweep(A, y, x_next)[0] if with_factors else None
    symmetric = _is_symmetric(A)
    for sweep in range(config.max_sweeps):
        if ens is not None:
            ens.prepare_sweep(A, y, x_next, factors)
        state = build_environments(A, y, x_next, symmetric)
        x, stats = sweep_fn(x_next, A, y, state, ens)
        if with_factors:
            x_next = orthogonalize(x, "right", 1)
            factors, res = _residual_sweep(A, y, x_next)
        else:
            res = _residual_sweep(A, y, x)[1]
        rel = res / yscale
        local_conv = all(s["local_res_before"] <= config.tol for s in stats)
        rec = SweepRecord(
            sweep=sweep + 1,
            wall_time=time.perf_counter() - t0,
            rel_residual=float(rel),
            a_norm_error=None,
            max_rank=max(x.ranks),
            local_converged=local_conv,
            mu=[s["mu"] for s in stats],
            local_path=[s["path"] for s in stats],
            local_products=[s["products"] for s in stats],
            omega_surrogate=[s.get("omega_surrogate") for s in stats],
        )
        if ens is not None and ens.notices:
            rec.notes.extend(ens.notices)
            ens.notices = []
        log.records.append(rec)
        if rel <= config.tol:
            log.status = "converged"
            log.stop_reason = "residual"
            break
        if ens is None and local_conv:
            # every local system was already solved on entry: without
            # enrichment the sweep made no progress, nor can later ones
            log.status = "stalled"
            log.stop_reason = "local_criterion"
            break
        if ens is not None and sweep >= 2 and rel > 0.9 * log.records[-3].rel_residual:
            # enrichment widens the basis even where every local system was
            # already solved, so only the global residual tells a stall
            log.status = "stalled"
            log.stop_reason = "residual_stagnation"
            break
        if not with_factors and sweep + 1 < config.max_sweeps:
            x_next = orthogonalize(x, "right", 1)
    else:
        log.status = "max_sweeps"
        log.stop_reason = "max_sweeps"
    return x, log


def amen_solve(
    A: TTMatrix,
    y: TTVector,
    x0: Optional[TTVector] = None,
    config: Optional[SolverConfig] = None,
):
    """Rank-adaptive AMEn solve of ``A x = y``.

    Runs left-to-right sweeps (re-orthogonalizing in between) until the global
    relative residual reaches ``config.tol``, stalls or ``max_sweeps`` is
    exhausted.  With enrichment a run stalls when its global residual falls
    by less than 10% over two sweeps; without it (``enrichment="none"``),
    when every local system was already solved on entry to a sweep.  Never
    raises on non-convergence; the status is in the returned log.
    """
    config = config or SolverConfig()
    method = config.enrichment

    def make_ens(rng):
        if method == "none":
            return None
        return EnrichmentState(method, config.kickrank, rng=rng)

    def sweep_fn(x, A_, y_, state, ens):
        x, _, _, stats = amen_sweep(x, A_, y_, state, ens, config)
        return x, stats

    return _run_alternating(A, y, x0, config, make_ens, sweep_fn)


def als_solve(
    A: TTMatrix,
    y: TTVector,
    x0: Optional[TTVector] = None,
    config: Optional[SolverConfig] = None,
):
    """Fixed-rank one-site baseline: AMEn with enrichment disabled."""
    return amen_solve(A, y, x0, replace(config or SolverConfig(), enrichment="none"))


def dmrg_solve(
    A: TTMatrix,
    y: TTVector,
    x0: Optional[TTVector] = None,
    config: Optional[SolverConfig] = None,
):
    """Two-site baseline: merged neighboring cores, SVD split at ``tol``."""
    config = config or SolverConfig()
    if A.d < 2:
        return amen_solve(A, y, x0, config)

    def sweep_fn(x, A_, y_, state, ens):
        return _dmrg_sweep(x, A_, y_, state, config)

    return _run_alternating(A, y, x0, config, lambda rng: None, sweep_fn)


def _dmrg_sweep(x, A, y, state, config):
    x = x.copy()
    d = x.d
    stats = []
    for k0 in range(d - 1):
        W, entry = _solve_local_problem(state, A, y, x, k0, 2, config)
        r0, n1, _ = x.cores[k0].shape
        _, n2, r2 = x.cores[k0 + 1].shape
        M = W.reshape(r0 * n1, n2 * r2, order="F")
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        snorm = np.linalg.norm(s)
        budget = config.tol * snorm / np.sqrt(max(d - 1, 1))
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        keep = max(int(np.searchsorted(-tail, -budget)), 1)
        if config.max_rank is not None:
            keep = min(keep, config.max_rank)
        x.cores[k0] = U[:, :keep].reshape(r0, n1, keep, order="F")
        x.cores[k0 + 1] = (s[:keep, None] * Vt[:keep]).reshape(
            keep, n2, r2, order="F"
        )
        state.advance_left(k0, A, y, x)
        stats.append(entry)
    x.ortho = ("left_upto", d - 1)
    return x, stats


# ----------------------------------------------------------------------
# Symmetrization
# ----------------------------------------------------------------------

def symmetrize(
    A: TTMatrix,
    y: TTVector,
    round_tol: Optional[float] = None,
    rank_cap: int = 4096,
):
    """Normal equations ``(A^T A) x = A^T y``; operator ranks square.

    Raises if the squared ranks exceed ``rank_cap`` and no ``round_tol`` is
    given to compress them.
    """
    worst = max(r * r for r in A.ranks)
    if worst > rank_cap and round_tol is None:
        raise ValueError(
            f"normal-equation ranks reach {worst} (> {rank_cap}); "
            "pass round_tol to compress the product"
        )
    At = ttmat_transpose(A)
    AtA = ttmat_matmul(At, A)
    Aty = tt_matvec(At, y)
    if round_tol is not None:
        AtA = ttmat_round(AtA, round_tol)
        Aty = tt_round(Aty, round_tol)
    return AtA, Aty
