"""Alternating solvers for TT-structured linear systems.

Provides the rank-adaptive AMEn solver with three residual-enrichment
back-ends (SVD, unfinished Cholesky, auxiliary low-rank ALS), plus the
two-site DMRG baseline; with enrichment off it is the fixed-rank one-site ALS.

Each sweep walks the cores left to right.  At core k the global system is
Galerkin-projected onto the frame spanned by all other cores, the small
local system is solved, and (except at the last core) the core basis is
expanded with a low-rank approximation of the local residual before the
left-orthogonality is recovered by QR.  Left/right partial contractions of
the operator and right-hand side against the iterate ("environments") make
each local assembly O(1) in the dimension.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional

import numpy as np
import scipy.linalg

from . import krylov as spla  # bench/tracing.py and the tests patch ``spla``
from .tt import (
    TTMatrix,
    TTVector,
    _check_fields,
    _check_finite,
    _contract,
    _matvec_core,
    _qr,
    _qr_push_right,
    _sum_core,
    _svd,
    _svd_trunc,
    orthogonalize,
    tt_add,  # unused here, but bench/tracing.py wraps it by this name
    tt_matvec,  # unused here, but bench/tracing.py wraps it by this name
    tt_norm,
    tt_random,
    tt_round,  # unused here, but bench/tracing.py wraps it by this name
)

__all__ = [
    "SolverConfig",
    "SweepState",
    "EnrichmentState",
    "ConvergenceLog",
    "SweepRecord",
    "build_environments",
    "assemble_local",
    "solve_local",
    "enrich_svd",
    "enrich_chol",
    "amen_solve",
    "dmrg_solve",
]


# ----------------------------------------------------------------------
# Configuration and logging
# ----------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Options shared by the alternating solvers.

    ``tol`` is the relative Frobenius residual target.  ``enrichment``
    selects the residual approximation back-end for AMEn (``"svd"``,
    ``"chol"`` or ``"als"``); ``"none"`` makes it one-site ALS.
    ``kickrank`` is the floor of the basis expansion's width: ``svd``/``chol``
    start at it and may double it once, to ``2·kickrank``, after a sweep
    that contracts the residual too little (see :func:`_next_width`);
    ``als`` keeps it, as the rank of its residual approximant.  Local systems up to ``max_direct_size`` unknowns are
    factorized directly, larger ones are solved matrix-free by CG or GMRES
    to a relative residual of ``tol/100``; ``max_direct_size=0`` sends every
    local system to the matrix-free path.
    The default cap of 512 is where the matrix-free solve starts to win on
    one-site steps: summed over a solve of the benchmark's CME and Poisson
    systems, it takes 4 to 16 times less time than the LU from 512 unknowns
    up, and up to 9 times more below 256.  It was not measured on two-site
    steps, where cap 0 ran the benchmark's Poisson DMRG solve about 30%
    faster.  A run stops after at most ``max_sweeps`` sweeps.
    ``max_rank`` caps only what AMEn's expansion adds, so a start iterate
    above the cap keeps its ranks; DMRG's split truncates to the cap.
    ``seed`` draws the default start (a random rank-1 train) and the ALS
    approximant.
    """

    tol: float = 1e-5
    max_sweeps: int = 20
    kickrank: int = 4
    enrichment: str = "svd"
    max_direct_size: int = 512
    max_rank: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, ("tol",), max_sweeps=1, kickrank=1, max_direct_size=0, seed=0)
        if self.max_rank is not None:
            _check_fields(self, max_rank=1)
        if self.enrichment not in (*_BACK_ENDS, "none"):
            raise ValueError(f"unknown enrichment {self.enrichment!r}")


@dataclass
class SweepRecord:
    """One sweep of a solve.

    ``steps`` holds the sweep's local steps in order, each the entry its
    sweep made (see :func:`_solve_local_problem`; one per core, one per
    pair of cores for DMRG).  An enriching AMEn step below the last core
    adds the back-end's ``enrich_width`` (the width it took, before
    ``max_rank`` trims it) and ``omega_surrogate`` (None for ``als``), and
    an ALS step whose approximant core was redrawn a ``note``.  Entries
    hold plain numbers and strings only.  ``ranks`` is the rank profile
    after the sweep.
    """

    sweep: int
    wall_time: float
    rel_residual: float
    max_rank: int
    local_converged: bool
    steps: list = field(default_factory=list)
    ranks: list = field(default_factory=list)


@dataclass
class ConvergenceLog:
    """The sweeps of a solve and how it ended.

    A solve returns the iterate of ``best``, the record of the smallest
    checked residual (the last one of a converged run); ``final_residual``
    is its residual.
    """

    records: list = field(default_factory=list)
    status: str = "running"  # "converged" | "stalled" | "max_sweeps" | "running"
    stop_reason: Optional[str] = None

    @property
    def best(self) -> Optional[SweepRecord]:
        return min(self.records, key=lambda r: r.rel_residual, default=None)

    @property
    def final_residual(self) -> float:
        return self.best.rel_residual if self.records else np.inf


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
    """Left/right partial contractions of (w, A, x) and (w, y) per position.

    It keeps the system ``A``, ``y`` it contracts, which every layer that
    takes a state reads from it.  ``w`` is the test vector: the iterate
    ``x`` itself for the solution's environments, the ALS residual
    approximant ``z`` for its projections ``<z, A x>`` and ``<z, y>`` (see
    :class:`EnrichmentState`).  Each environment's first index is ``w``'s
    rank.  ``left_op[k]`` contracts cores ``0..k-1``; ``right_op[k]``
    contracts cores ``k+1..d-1``.  Both boundary environments are 1x1x1
    identities.  ``symmetric`` says whether the operator is symmetric, which
    makes every local operator symmetric too (CG rather than GMRES).
    """

    def __init__(self, A: TTMatrix, y: TTVector, symmetric: bool):
        self.A, self.y, self.symmetric = A, y, symmetric
        d = A.d
        self.left_op = [None] * d
        self.right_op = [None] * d
        self.left_rhs = [None] * d
        self.right_rhs = [None] * d
        self.left_op[0] = np.ones((1, 1, 1))
        self.left_rhs[0] = np.ones((1, 1))
        self.right_op[d - 1] = np.ones((1, 1, 1))
        self.right_rhs[d - 1] = np.ones((1, 1))

    def advance_left(self, k: int, x: TTVector, w=None):
        """Absorb core k into the left environments (valid once core k is final).

        ``w`` is the test vector (``x`` when omitted).
        """
        wc = (x if w is None else w).cores[k]
        xc, ac, yc = x.cores[k], self.A.cores[k], self.y.cores[k]
        # (a,P,b),(a,i,c),(P,i,j,Q),(b,j,d) -> (c,Q,d) via BLAS-able pairings
        T = _contract(self.left_op[k], wc, axes=(0, 0))  # (P,b,i,c)
        T = _contract(T, ac, axes=((0, 2), (0, 1)))  # (b,c,j,Q)
        T = _contract(xc, T, axes=((0, 1), (0, 2)))  # (d,c,Q)
        self.left_op[k + 1] = T.transpose(1, 2, 0)
        T = _contract(self.left_rhs[k], wc, axes=(0, 0))  # (p,i,c)
        self.left_rhs[k + 1] = _contract(T, yc, axes=((0, 1), (0, 1)))  # (c,q)

    def advance_right(self, k: int, x: TTVector, w=None):
        """Absorb core k into the right environments; ``w`` as in :meth:`advance_left`."""
        wc = (x if w is None else w).cores[k]
        xc, ac, yc = x.cores[k], self.A.cores[k], self.y.cores[k]
        T = _contract(wc, self.right_op[k], axes=(2, 0))  # (a,i,Q,d)
        T = _contract(T, ac, axes=((1, 2), (1, 3)))  # (a,d,P,j)
        self.right_op[k - 1] = _contract(T, xc, axes=((1, 3), (2, 1)))  # (a,P,b)
        T = _contract(wc, self.right_rhs[k], axes=(2, 0))  # (a,i,q)
        self.right_rhs[k - 1] = _contract(T, yc, axes=((1, 2), (1, 2)))


def _check_sizes(A: TTMatrix, y: TTVector, x: TTVector):
    """Refuse a system whose ``A``, ``y`` and ``x`` differ in core count or mode sizes."""
    if A.col_sizes != x.mode_sizes or A.row_sizes != y.mode_sizes:
        raise ValueError("operator / vector sizes are inconsistent")


def build_environments(
    A: TTMatrix, y: TTVector, x: TTVector, symmetric: Optional[bool] = None
) -> SweepState:
    """Populate all right environments; left ones start at identities.

    ``symmetric`` says whether ``A`` is symmetric (see :func:`_is_symmetric`);
    when omitted, ``A`` is probed.
    """
    _check_sizes(A, y, x)
    state = SweepState(A, y, _is_symmetric(A) if symmetric is None else symmetric)
    for k in range(x.d - 1, 0, -1):
        state.advance_right(k, x)
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


def assemble_local(state: SweepState, x: TTVector, k: int):
    """Dense local system (B_k, b_k) at 1-based position k.

    Row/column ordering is the Fortran vectorization of the core, i.e. the
    left rank index fastest.
    """
    L, (Ac,), R, b, _ = _local_problem(state, x, k - 1, 1)
    return _Workspace().build(L, Ac, R), b


def _local_problem(state: SweepState, x, k0: int, sites: int):
    """The local system on cores ``k0 .. k0+sites-1``: ``(L, cores, R, b, core)``.

    ``L``, the tuple ``cores`` of the step's operator cores and ``R`` make up
    the operator, ``b`` is the vectorized right-hand side (see
    :func:`_local_rhs`) and ``core`` the current iterate (the guess).  For
    two sites the right-hand side and iterate cores are merged into one core
    with a fused mode; the two operator cores are not (see
    :class:`_LocalOperator`).
    """
    k1 = k0 + sites - 1
    y, yc, core = state.y, state.y.cores[k0], x.cores[k0]
    if sites == 2:
        # a vector core is an operator core with a unit column axis
        yc, core = (
            _merge_op_cores(c[:, :, None], t.cores[k1][:, :, None])[:, :, 0]
            for c, t in ((yc, y), (core, x))
        )
    b = vec_core(_local_rhs(state.left_rhs[k0], yc, state.right_rhs[k1]))
    return state.left_op[k0], tuple(state.A.cores[k0 : k1 + 1]), state.right_op[k1], b, core


def _merge_op_cores(A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Contract two neighboring operator cores into one with fused modes.

    The fused row index pairs (i,k) with i fastest, matching the Fortran
    vectorization of a merged two-site block; likewise for columns.  The
    merged core of Poisson n has ``n^4`` entries per rank pair, so a
    two-site step forms it only where it is used: on a direct step, whose
    size cap bounds it, and in :class:`_LocalOperator`'s merged order.
    """
    RP, n1, m1, _ = A1.shape
    _, n2, m2, RS = A2.shape
    T = _contract(A1, A2, axes=(3, 0))  # (P,i,j,k,l,S)
    T = T.transpose(0, 3, 1, 4, 2, 5)  # (P,k,i,l,j,S)
    return np.ascontiguousarray(T).reshape(RP, n1 * n2, m1 * m2, RS)


# a panel of L·Ac rows, in bytes: a few ``a`` per panel on QTT cores, one on
# Poisson n = 32 (an ``a`` is 15 x 32 x 32 x 2 doubles, 240 KiB, at rank 15)
_PANEL_BYTES = 256 * 1024


class _Workspace:
    """The step's ``L·Ac`` block, built once into a buffer that a solve reuses.

    ``M(L, Ac)`` is the (a i Q, b j) reordering of ``L·Ac``, the contraction
    over ``P``: the merged :class:`_LocalOperator` and the enrichment head
    take it.  ``build(L, Ac, R)`` also returns the step's dense local
    matrix ``L·Ac·R``.  Both come from one loop over row panels of ``L·Ac``.  Each panel is the GEMM of the rows of a few ``a``
    with ``Ac`` and K = P, the rows ``np.tensordot(L, Ac, axes=(1, 0))``
    gives them, so its bits are those of one GEMM.  It is copied into ``M``
    and, on a direct step, contracted with ``R`` over ``Q`` into the direct
    matrix (the K = Q GEMM of ``L·Ac`` and ``R``, on the panel's rows),
    before the next panel is formed.  The workspace keeps the step's
    ``L`` and ``Ac`` and hands out the ``M`` it built while it is asked for
    these very arrays (it holds them, so the test by identity is sound): the
    enrichment takes the block the local solve built, and every step forms
    ``L·A_k`` once.  What it hands out is valid until it builds another step.

    One buffer holds ``M``, one panel of at most ``_PANEL_BYTES`` (one ``a``
    where a single one is larger) and, on a direct step, the direct matrix.
    A step's block is several MB on large modes (15 x 15 x 32 x 32 x 2 on
    Poisson n = 32).  Made afresh at every step, glibc hands it back to the
    kernel and faults it in again at the next: 10.6k minor faults per
    ``poisson-amen`` solve, 4.8k per ``poisson-dmrg`` solve.  The buffer
    grows when a step needs more room and never shrinks.  One buffer rather
    than several: the old one is freed before its successor is made, and
    glibc can hand its pages on only while nothing was allocated after it.
    ``_run_alternating`` makes one workspace per solve, so nothing is kept
    once the solve returns.  A fresh workspace gives fresh arrays.
    """

    def __init__(self):
        self._buffer = None  # M, one panel, then the direct matrix
        self._step = None  # the (L, Ac) that _M was built from
        self._M = None

    def _reserve(self, n: int) -> np.ndarray:
        """The buffer, with room for ``n`` float64 items (the cores' type)."""
        buf = self._buffer
        if buf is None or buf.size < n:
            # freed first, so that its successor can take its pages
            self._buffer = buf = None
            self._buffer = buf = np.empty(n)
        return buf

    @staticmethod
    def panel_rows(a: int, row_items: int) -> int:
        """How many ``a`` one panel of ``row_items`` float64 items per ``a`` takes."""
        return max(1, min(a, _PANEL_BYTES // (row_items * 8)))

    def M(self, L, Ac) -> np.ndarray:
        step = self._step
        if step is None or step[0] is not L or step[1] is not Ac:
            self.build(L, Ac)
        return self._M

    def build(self, L, Ac, R=None) -> Optional[np.ndarray]:
        """Build the step's ``M`` and, given ``R``, return its direct matrix."""
        a, P, b = L.shape
        _, i, j, Q = Ac.shape
        c, d = (0, 0) if R is None else (R.shape[0], R.shape[2])  # N = 0: no matrix
        row = b * i * j * Q
        size, rows, N = a * row, self.panel_rows(a, row), a * i * c
        # until M is whole; and a grown buffer frees the old one's pages
        self._step = self._M = None
        buf = self._reserve(size + rows * row + N * N)
        M = buf[:size].reshape(a, i, Q, b, j)
        B = buf[size + rows * row : size + rows * row + N * N].reshape(c, i, a, d, j, b)
        Lt = L.transpose(0, 2, 1).reshape(a * b, P)
        Af = Ac.reshape(P, i * j * Q)
        for a0 in range(0, a, rows):
            a1 = min(a0 + rows, a)
            panel = buf[size : size + (a1 - a0) * row].reshape((a1 - a0) * b, -1)
            np.dot(Lt[a0 * b : a1 * b], Af, out=panel)
            panel = panel.reshape(a1 - a0, b, i, j, Q)
            np.copyto(M[a0:a1], panel.transpose(0, 2, 4, 1, 3))
            if R is not None:
                TR = _contract(panel, R, axes=(4, 1))  # (a,b,i,j,c,d) of the panel
                np.copyto(B[:, :, a0:a1], TR.transpose(4, 2, 0, 5, 3, 1))
        self._step, self._M = (L, Ac), M.reshape(a * i * Q, b * j)
        return None if R is None else B.reshape(N, N)


def _local_rhs(Ly, yc, Ry) -> np.ndarray:
    """The core ``<Ly, yc, Ry>``: ``y`` projected on a frame (a, i, c)."""
    return _contract(_contract(Ly, yc, axes=(1, 0)), Ry, axes=(2, 1))


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
    """Matrix-free local operator ``L · A_k ⋯ · R`` on cores (a,i,c) <- (b,j,d).

    ``L`` is (a,P,b), ``R`` is (c,Q,d) and ``cores`` the step's operator
    cores, left to right: one for AMEn and ALS, two neighbors for DMRG.
    Core t is (P_t, i_t, j_t, Q_t), from ``P_0 = P`` to the last ``Q_t =
    Q``; ``i`` and ``j`` fuse the cores' modes as :func:`_merge_op_cores`
    does.  A product runs in one of two orders, picked once from the shapes:

    - factored: a chain of GEMMs, ``R`` first, then each core over its
      ``(Q_t, j_t)`` from right to left, then ``L``.  One core costs
      ``bcQdj + bcPiQj + bcaiP`` multiply-adds (O(n r^3 R + n^2 r^2 R^2));
    - merged: ``M1 = L·Ac``, with ``Ac`` the cores merged into one, of shape
      (a i Q, b j) is contracted once, then each product is two GEMMs at
      ``aiQd(bj + c)`` (O(n^2 r^3 R); O(n^4) in the mode size for two cores,
      where the chain is O(n^3)).

    The factored order runs only where it needs at most half the merged
    order's flops.  Large modes (n = 32 Poisson, ratio 4.4-5.6) take it; at
    a (15, 32, 15) core one product drops from 1.1 to 0.12 ms.  QTT cores
    (n = 2, ratio below 2) keep the merged order.  On the CME benchmark's
    shapes the factored order ranges from 1.5x slower to 2.2x faster per
    product (22% less time summed over them), and the CME runs' sweep
    counts are sensitive to the round-off a change of order brings.  Two
    Poisson n = 8 cores at ranks 4 and 2 cost 82k multiply-adds a product
    in the chain and 532k merged, and the merged core (2, 4096, 4096, 2)
    of n = 64 takes 537 MB, which the chain never forms.

    ``shape`` and ``dtype`` let the Krylov solvers take it as it is;
    ``products`` counts the products made.  The merged order takes ``M1``
    from ``workspace`` (see :class:`_Workspace`).
    """

    def __init__(self, L, cores, R, workspace: _Workspace):
        a, P, b = L.shape
        c, Q, d = R.shape
        outs = [core.shape[1] for core in cores]
        ins = [core.shape[2] for core in cores]
        i, j = math.prod(outs), math.prod(ins)
        self.out_shape = (a, i, c)
        self.in_shape = (b, j, d)
        self.shape = (a * i * c, b * j * d)
        self.dtype = np.result_type(L, R, *cores)
        self.products = 0
        merged = a * i * Q * d * (b * j + c)
        # core t meets (Q_t j_t) x (c i_{t+1}⋯ j_{t-1}⋯ b) of the product
        core_gemms = sum(
            Pt * it * Qt * jt * math.prod(outs[t + 1 :]) * math.prod(ins[:t])
            for t, (Pt, it, jt, Qt) in enumerate(core.shape for core in cores)
        )
        self.factored = 2 * b * c * (Q * d * j + core_gemms + a * i * P) <= merged
        if self.factored:
            self._R = np.ascontiguousarray(R).reshape(c * Q, d)
            # right to left: each core as (P_t i_t, Q_t j_t), with its shape
            self._chain = []
            for core in reversed(cores):
                A_t = np.ascontiguousarray(core.transpose(0, 1, 3, 2))  # (P,i,Q,j)
                self._chain.append((A_t.reshape(A_t.shape[0] * A_t.shape[1], -1), core.shape))
            self._L = np.ascontiguousarray(L.transpose(1, 2, 0)).reshape(P * b, a)
            return
        self._M1 = workspace.M(L, reduce(_merge_op_cores, cores))  # (a i Q, b j)
        self._M2 = np.ascontiguousarray(R.reshape(c, Q * d))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.products += 1
        a, i, c = self.out_shape
        b, j, d = self.in_shape
        if not self.factored:
            W = self._M1 @ unvec_core(v, self.in_shape).reshape(b * j, d)
            W = W.reshape(a * i, -1)  # (a i, Q d)
            return vec_core((W @ self._M2.T).reshape(a, i, c))
        # the Fortran vector of (b,j,d) is the C array [d,j_last..j_0,b]
        T = self._R @ np.reshape(v, (d, j * b))  # [c,Q,j..,b]
        rows = c  # the output indices made so far: [c,i_last..i_{t+1}]
        for A, (Pt, it, jt, Qt) in self._chain:
            # [rows,Q_t,j_t,rest] -> [Q_t,j_t,rows,rest]
            T = T.reshape(rows, Qt * jt, -1).transpose(1, 0, 2).reshape(Qt * jt, -1)
            T = A @ T  # [P_t,i_t,rows,rest]
            T = T.reshape(Pt, it, rows, -1).transpose(2, 1, 0, 3)  # [rows,i_t,P_t,rest]
            rows *= it
        # [c,i_last..i_0,a]: the Fortran vector of (a,i,c)
        return (T.reshape(rows, -1) @ self._L).ravel()


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
    info = {"residual_before": np.linalg.norm(r0)}
    if symmetric:
        u, code = spla.cg(loc, b, x0=guess, r0=r0, rtol=rtol, maxiter=_LOCAL_MAXITER)
        if code == 0:
            info["path"] = "cg"
            info["residual"] = np.linalg.norm(b - loc.matvec(u))
            return u, info
        guess, r0 = u, None  # a failed CG hands its iterate to GMRES
    restart = min(b.size, 200)
    u, _, info["residual"] = spla.gmres(
        loc,
        b,
        x0=guess,
        r0=r0,
        rtol=rtol,
        maxiter=max(1, _LOCAL_MAXITER // restart),
        restart=restart,
    )
    info["path"] = "cg+gmres" if symmetric else "gmres"
    return u, info


def _solve_local_problem(state: SweepState, x, k0: int, sites: int, config, workspace: _Workspace):
    """Solve the local system on cores ``k0 .. k0+sites-1``.

    Systems up to ``config.max_direct_size`` unknowns are assembled and
    solved directly, larger ones matrix-free.  Returns the solved core (the
    merged one for two sites) and its stats entry: the 1-based ``k`` of its
    first core, the local residuals before and after, scaled by ``norm(b)``,
    the ``path`` taken (``direct``,
    ``lstsq`` where the direct solve fell back to least squares, ``cg``,
    ``gmres`` or ``cg+gmres``), the local operator's
    ``products`` (0 on the direct path; the initial residual's counts) and
    ``kept_guess``: whether the iterative path kept the current core because
    the Krylov result's residual was larger than the guess's (GMRES can break
    down on a singular local operator and return a huge iterate).
    The step's ``L·Ac`` block and the direct matrix go into ``workspace``
    (see :class:`_Workspace`).
    """
    L, cores, R, b, core = _local_problem(state, x, k0, sites)
    guess = vec_core(core)
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    kept_guess = False
    if b.size <= config.max_direct_size:
        B = workspace.build(L, reduce(_merge_op_cores, cores), R)
        res_before = np.linalg.norm(b - B @ guess) / scale
        u, info = solve_local(B, b)
        path, products = ("lstsq" if info["fallback"] else "direct"), 0
    else:
        loc = _LocalOperator(L, cores, R, workspace)
        u, info = _solve_local_iterative(loc, b, guess, config.tol / 100, state.symmetric)
        kept_guess = bool(info["residual"] > info["residual_before"])
        if kept_guess:
            u, info["residual"] = guess, info["residual_before"]
        res_before = info["residual_before"] / scale
        path, products = info["path"], loc.products
    res_after = info["residual"] / scale
    entry = {
        "k": k0 + 1,
        "local_res_before": float(res_before),
        "local_res_after": float(res_after),
        "path": path,
        "products": products,
        "kept_guess": kept_guess,
    }
    return unvec_core(u, core.shape), entry


# ----------------------------------------------------------------------
# Exact residual in TT block form
# ----------------------------------------------------------------------

def _residual_first_block(state: SweepState, u_core, k0: int, workspace: _Workspace) -> np.ndarray:
    """Step-dependent head block of the exact local residual at core k0.

    ``L·A_k`` comes from ``workspace`` (see :class:`_Workspace`), so
    the ``M`` the local solve built is not formed again.
    """
    y_part = _contract(state.left_rhs[k0], state.y.cores[k0], axes=(1, 0))  # (a,i,q)
    M = workspace.M(state.left_op[k0], state.A.cores[k0])  # (a i Q, b j)
    b, j, c = u_core.shape
    a_part = np.dot(M, u_core.reshape(b * j, c))  # (a i Q, c)
    return np.concatenate([y_part, -a_part.reshape(y_part.shape[:2] + (-1,))], axis=2)


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

    Block route: form the block, ``y_p`` paired block-diagonally with the
    core of ``A_p x_p`` (at the last core the two stack along the left rank),
    and contract it.  Factored route (see :func:`_residual_factored`): the y
    rows of ``F_next`` meet ``y_p``; its ``A x`` rows meet ``x_p`` over ``d``
    first, then ``A_p`` over ``(j, Q)``, so the ``A x`` core is never formed.
    """
    yc, ac, xc = y.cores[p], A.cores[p], x.cores[p]
    if not _residual_factored(ac, xc):
        block = _sum_core(yc, _matvec_core(ac, xc), p, x.d)
        return _contract(block, F_next, axes=(2, 0))
    R0, n, _, R1 = ac.shape
    r0, _, r1 = xc.shape
    ry0, _, ry1 = yc.shape
    w = F_next.shape[1]
    out = np.empty((ry0 + R0 * r0, n, w))
    out[:ry0] = _contract(yc, F_next[:ry1], axes=(2, 0))
    T = _contract(xc, F_next[ry1:].reshape(R1, r1, w), axes=(2, 1))  # (b,j,Q,w)
    T = _contract(ac, T, axes=((2, 3), (1, 2)))  # (P,i,b,w)
    out[ry0:].reshape(R0, r0, n, w)[...] = T.transpose(0, 2, 1, 3)
    return out


def _residual_sweep(A: TTMatrix, y: TTVector, x: TTVector):
    """Tail factors and exact norm of ``y - A x`` from one R-only QR sweep.

    The unrounded chain ``y - A x`` is swept right to left keeping only the
    R factors.  The product of each block 1..d-1 with the factor to its
    right comes from :func:`_residual_block_product`, so the chain itself is
    never built.
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
        F[p] = _qr(T.reshape(T.shape[0], -1).T, mode="r").T
    ax = _matvec_core(A.cores[0], x.cores[0])
    head = _sum_core(y.cores[0], ax, 0, d, 1.0, -1.0)
    return F, float(np.linalg.norm(_unfold_first(head) @ F[1]))


def _omega(captured: float, total: float) -> float:
    """Enrichment angle surrogate: the uncaptured share ``sqrt(1 - captured/total)``."""
    if total <= 0:
        return 0.0
    return float(np.sqrt(max(0.0, 1.0 - captured / total)))


def enrich_svd(head: np.ndarray, tail_factor: np.ndarray, kickrank: int):
    """Dominant left singular subspace of the local residual's first unfolding.

    The unfolding is ``M @ T`` with ``M`` the first unfolding of ``head`` and
    ``T`` the right residual chain.  Any ``tail_factor`` ``F`` with
    ``F @ F.T == T @ T.T`` (the solver passes the residual sweep's ``F``)
    gives the same left singular subspace, so the SVD runs on ``M @ F``.
    ``info`` holds the width taken and its ``omega`` (see :func:`_omega`).
    """
    X = _unfold_first(head) @ tail_factor
    if X.shape[1] > X.shape[0]:
        # a wide X = L Q^T has the left singular pairs of its square L factor
        X = _qr(X.T, mode="r").T
    U, s, _ = _svd(X)
    if s.size == 0 or s[0] <= 0:
        return None, {"width": 0, "omega": 0.0}
    width = min(kickrank, int(np.sum(s > 1e-14 * s[0])))
    info = {
        "width": width,
        "omega": _omega(float(np.sum(s[:width] ** 2)), float(np.sum(s**2))),
    }
    r0, n, _ = head.shape
    return unvec_core(U[:, :width].ravel(order="F"), (r0, n, width)), info


def enrich_chol(head: np.ndarray, tail_factor: np.ndarray, kickrank: int):
    """Pivoted-Cholesky subspace of the local residual, without its Gram matrix.

    The Gram matrix of the local residual is ``G = (M F)(M F)^T`` with ``M``
    the first unfolding of ``head`` and ``F = tail_factor``.  The
    column-pivoted QR ``(M F)^T P = Q R`` (LAPACK ``geqp3``) takes the
    pivots of a pivoted Cholesky of ``G`` (largest remaining diagonal, ties
    to the lowest index), and ``L[piv] = R[:width].T`` is its factor.
    Pivots are taken up to ``kickrank`` while ``R_jj**2 > 1e-12 trace(G)``.
    ``info`` holds the width taken and its ``omega`` (see :func:`_omega`).
    """
    MF = _unfold_first(head) @ tail_factor
    total = float(np.sum(MF**2))  # trace(G)
    R, piv = scipy.linalg.qr(MF.T, mode="r", pivoting=True)
    width = min(kickrank, int(np.sum(np.diag(R) ** 2 > 1e-12 * total)))
    if width == 0:
        return None, {"width": 0, "omega": _omega(0.0, total)}
    L = np.empty((MF.shape[0], width))
    L[piv] = R[:width].T
    Q, _ = _qr(L)
    r0, n, _ = head.shape
    Z = unvec_core(Q.ravel(order="F"), (r0, n, width))
    return Z, {"width": width, "omega": _omega(float(np.sum(L**2)), total)}


# the back-end that each enrichment method runs on its head and tail
_BACK_ENDS = {"svd": enrich_svd, "chol": enrich_chol, "als": enrich_svd}
# the methods whose tails are the residual sweep's factors
_FACTOR_TAILS = ("svd", "chol")


# ----------------------------------------------------------------------
# Enrichment state
# ----------------------------------------------------------------------

class EnrichmentState:
    """Per-sweep caches for the residual-enrichment back-ends.

    Every method keeps one tail factor per core, each dropped once its step
    has used it, and the sweep's enrichment ``width``.  svd/chol take the
    factors ``F`` of the residual chain of the sweep's start iterate (see
    :func:`_residual_sweep`).  ALS holds the persistent rank-``kickrank``
    residual approximant ``z`` and one :class:`SweepState` over
    ``(z; A, y; x)``, built by the same contractions as the solution's own
    environments; its tails ``W`` are the residual chain projected on z's
    right cores, so none has more than ``kickrank`` columns.
    """

    def __init__(self, method: str, kickrank: int, rng=None):
        if method not in _BACK_ENDS:
            raise ValueError(f"unknown enrichment method {method!r}")
        self.method = method
        self.kickrank = kickrank
        self.width = kickrank
        self.rng = np.random.default_rng(rng)
        self.residual_tt: Optional[TTVector] = None
        self._tails: list = []
        self._env: Optional[SweepState] = None

    # -- sweep preparation -------------------------------------------------

    def prepare_sweep(self, A: TTMatrix, y: TTVector, x: TTVector, factors, width: int):
        """Set up a sweep from its start iterate ``x``.

        ``factors`` are the tail factors ``_residual_sweep(A, y, x)`` returned
        for this ``x``, and ``width`` is the sweep's enrichment width.  ALS
        ignores ``factors``; it right-orthogonalizes and normalizes ``z``,
        builds the right environments of ``(z; A, y; x)`` and stacks its tail
        ``W = [right_rhs; right_op]`` for each core.
        """
        self.width = width
        if self.method in _FACTOR_TAILS:
            self._tails = factors
            return
        z = self.residual_tt
        if z is None or z.mode_sizes != y.mode_sizes:
            z = tt_random(y.mode_sizes, self.kickrank, rng=self.rng)
        self.residual_tt = z = _unit_right_orthogonal(z)
        self._env = env = SweepState(A, y, False)
        self._tails = [None] * x.d
        for p in range(x.d - 1, 0, -1):
            env.advance_right(p, x, z)
            rhs, op = env.right_rhs[p - 1], env.right_op[p - 1]
            self._tails[p] = np.concatenate([rhs.T, op.reshape(len(rhs), -1).T])

    # -- per-step enrichment ----------------------------------------------

    def enrich(self, state: SweepState, u_core, k0: int, workspace: _Workspace):
        """Enrichment block for 0-based core k0 (< d-1); may update z-tilde.

        The head takes the step's ``L·A_k`` block from the solve's
        ``workspace`` (see :func:`_residual_first_block`).  The tail
        used is dropped, so the list is released as the sweep goes, while
        the next sweep's is built.
        ALS then updates z's core k0; it reports only the width, and a
        ``note`` when that core was redrawn.
        """
        head = _residual_first_block(state, u_core, k0, workspace)
        tail, self._tails[k0 + 1] = self._tails[k0 + 1], None
        Z, info = _BACK_ENDS[self.method](head, tail, self.width)
        if self.method == "als":
            info = {"width": info["width"]}
            if self._update_residual_core(u_core, k0):
                info["note"] = f"residual approximant core {k0 + 1} degenerated; reinitialized"
        return Z, info

    def _update_residual_core(self, u_core, k0) -> bool:
        """One ALS step for z-tilde: project the current global residual.

        The system comes from the ``(z; A, y)`` state.  Returns whether the
        projection vanished and the core was redrawn.
        """
        z, env = self.residual_tt, self._env
        pos = _local_rhs(env.left_rhs[k0], env.y.cores[k0], env.right_rhs[k0])  # (g,i,h)
        T = _contract(env.left_op[k0], env.A.cores[k0], axes=(1, 0))  # (g,a,i,j,Q)
        T = _contract(T, u_core, axes=((1, 3), (0, 1)))  # (g,i,Q,b)
        neg = _contract(T, env.right_op[k0], axes=((2, 3), (1, 2)))  # (g,i,h)
        z_new = pos - neg
        degenerated = bool(np.linalg.norm(z_new) <= 1e-300)
        if degenerated:
            z_new = self.rng.standard_normal(z.cores[k0].shape)
        # keep the left part of z-tilde orthonormal for the next projection
        g0, n, g1 = z_new.shape
        Q, _ = _qr(z_new.reshape(g0 * n, g1))
        z.cores[k0] = Q.reshape(g0, n, -1)
        return degenerated

    def advance(self, x, k0: int):
        """Advance the ALS environments of ``(z; A, y; x)`` past the finalized core k0."""
        if self.method == "als":
            self._env.advance_left(k0, x, self.residual_tt)


# ----------------------------------------------------------------------
# Basis expansion
# ----------------------------------------------------------------------

def _expand(cores: list, k0: int, Z: Optional[np.ndarray]):
    """Widen core k0 by Z, zero-pad core k0+1 and push the QR factor right: the
    vector is unchanged, as the new columns meet zero rows of the next core."""
    if Z is not None:
        cores[k0] = np.concatenate([cores[k0], Z], axis=2)
        pad = np.zeros((Z.shape[2],) + cores[k0 + 1].shape[1:])
        cores[k0 + 1] = np.concatenate([cores[k0 + 1], pad], axis=0)
    _qr_push_right(cores, k0)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

def _sweep(x, state, ens, config, workspace, sites, recorder=None):
    """One left-to-right pass, ``sites`` cores a step; returns (x, per-step stats).

    Expects ``x`` right-orthogonal from position 2, fresh environments in
    ``state`` and, when ``ens`` is given, ``ens.prepare_sweep`` called.
    Each step's ``L·A_k`` block goes into the solve's ``workspace``.  A
    two-site step splits the merged core ``W`` by a truncated SVD at
    ``tol·‖W‖/√(d−1)`` and ``max_rank``; a one-site step below the last
    core widens it by ``ens``'s enrichment, trimmed to ``max_rank``, and
    pushes its QR factor right.  A ``recorder`` (see
    ``diagnostics._RateRecorder``) hears ``on_core_start(k0, x)`` before
    core k0 is solved and ``on_core_done(k0, x, u_core)`` once it is final,
    with the solved core as it was before the expansion.
    """
    x = x.copy()
    d = x.d
    stats = []
    for k0 in range(d + 1 - sites):
        if recorder is not None:
            recorder.on_core_start(k0, x)
        u_core, entry = _solve_local_problem(state, x, k0, sites, config, workspace)
        if sites == 2:
            r0, n1, _ = x.cores[k0].shape
            _, n2, r2 = x.cores[k0 + 1].shape
            budget = config.tol * np.linalg.norm(u_core) / np.sqrt(d - 1)
            W = u_core.reshape(r0 * n1, n2 * r2, order="F")
            U, s, Vt = _svd_trunc(W, budget, config.max_rank)
            x.cores[k0] = U.reshape(r0, n1, s.size, order="F")
            x.cores[k0 + 1] = (s[:, None] * Vt).reshape(s.size, n2, r2, order="F")
        else:
            x.cores[k0] = u_core
            if k0 < d - 1:
                Z = None
                if ens is not None:
                    Z, einfo = ens.enrich(state, u_core, k0, workspace)
                    entry["enrich_width"] = einfo["width"]
                    entry["omega_surrogate"] = einfo.get("omega")
                    if "note" in einfo:
                        entry["note"] = einfo["note"]
                    if Z is not None and config.max_rank is not None:
                        room = config.max_rank - x.cores[k0].shape[2]
                        Z = Z[:, :, :room] if room > 0 else None
                _expand(x.cores, k0, Z)
        if k0 + sites < d:  # only the next step reads left_op[k0+1]; a sweep builds a new state
            state.advance_left(k0, x)
            if ens is not None and k0 < d - 2:
                # z's update runs only below d-1, so nothing reads its last one
                ens.advance(x, k0)
        if recorder is not None:
            recorder.on_core_done(k0, x, u_core)
        stats.append(entry)
    return x, stats


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def _unit_right_orthogonal(x: TTVector) -> TTVector:
    """``x`` right-orthogonalized from core 2 and scaled to unit norm."""
    x = orthogonalize(x, "right", 1)
    nrm = float(np.linalg.norm(x.cores[0]))
    if nrm > 0:
        x.cores[0] /= nrm
    return x


def _default_guess(mode_sizes, rng) -> TTVector:
    return _unit_right_orthogonal(tt_random(mode_sizes, 1, rng=rng))


# a sweep that leaves more than _WIDEN_ABOVE of the sweep before's residual
# doubles the svd/chol width, which stays at most _WIDEN_FACTOR * kickrank
_WIDEN_ABOVE = 0.3
_WIDEN_FACTOR = 2


def _next_width(width: int, rel: float, prev_rel: Optional[float], kickrank: int) -> int:
    """The svd/chol enrichment width of the sweep after one that reached ``rel``.

    ``prev_rel`` is the relative residual of the sweep before it (None after
    the first sweep).  A late sweep of a rank-limited run contracts the
    residual by about a half at ``kickrank``; the width then doubles, and it
    never shrinks.  On ``cme-svd-tight`` this takes 11 sweeps where a fixed
    ``kickrank`` of 4 takes 15, at the same final rank.
    """
    if prev_rel is None or rel <= _WIDEN_ABOVE * prev_rel:
        return width
    return min(_WIDEN_FACTOR * width, _WIDEN_FACTOR * kickrank)


def _run_alternating(A, y, x0, config, sites=1, recorder=None):
    """Sweep until the check stops the run; return the iterate of ``log.best``.

    The package's one sweep loop: every solver runs through it, and so does
    the dense rate check (``diagnostics.instrumented_amen_run``), which
    passes its ``recorder``.  Each sweep is a :func:`_sweep` over ``sites``
    cores a step, with the run's :class:`EnrichmentState` (None for
    ``enrichment="none"``).
    One residual sweep over each start iterate gives both the check of the
    sweep before and the svd/chol tail factors of the sweep after.  Only
    svd/chol read the first start iterate's factors, and nothing reads its
    norm, so the other runs skip that sweep.
    """
    rng = np.random.default_rng(config.seed)
    x = x0.copy() if x0 is not None else _default_guess(A.col_sizes, rng)
    for name, train in (("A", A), ("y", y), ("x0", x)):
        _check_finite(name, train)
    _check_sizes(A, y, x)
    ynorm = tt_norm(y)
    yscale = ynorm if ynorm > 0 else 1.0
    log = ConvergenceLog()
    ens = None
    if config.enrichment != "none":
        ens = EnrichmentState(config.enrichment, config.kickrank, rng=rng)
    workspace = _Workspace()  # for every step of this solve, dropped with it
    t0 = time.perf_counter()
    x_next = orthogonalize(x, "right", 1)
    factors = None
    if config.enrichment in _FACTOR_TAILS:
        factors = _residual_sweep(A, y, x_next)[0]
    symmetric = _is_symmetric(A)
    width = config.kickrank
    for sweep in range(config.max_sweeps):
        if ens is not None:
            ens.prepare_sweep(A, y, x_next, factors, width)
        state = build_environments(A, y, x_next, symmetric)
        x, stats = _sweep(x_next, state, ens, config, workspace, sites, recorder)
        x_next = orthogonalize(x, "right", 1)
        factors, res = _residual_sweep(A, y, x_next)
        rel = res / yscale
        local_conv = all(s["local_res_before"] <= config.tol for s in stats)
        rec = SweepRecord(
            sweep=sweep + 1,
            wall_time=time.perf_counter() - t0,
            rel_residual=float(rel),
            max_rank=max(x.ranks),
            local_converged=local_conv,
            steps=stats,
            ranks=list(x.ranks),
        )
        log.records.append(rec)
        if log.best is rec:
            x_best = x
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
        if sweep >= 2 and rel > 0.9 * log.records[-3].rel_residual:
            # enrichment widens the basis even where every local system was
            # already solved, so only the global residual tells its stall;
            # a run without it can also level off short of the local test
            log.status = "stalled"
            log.stop_reason = "residual_stagnation"
            break
        prev_rel = log.records[-2].rel_residual if sweep else None
        width = _next_width(width, rel, prev_rel, config.kickrank)
    else:
        log.status = "max_sweeps"
        log.stop_reason = "max_sweeps"
    return x_best, log


def amen_solve(
    A: TTMatrix,
    y: TTVector,
    x0: Optional[TTVector] = None,
    config: Optional[SolverConfig] = None,
):
    """Rank-adaptive AMEn solve of ``A x = y``.

    Runs left-to-right sweeps until the global relative residual reaches
    ``config.tol``, stalls or ``max_sweeps`` is exhausted.  Each sweep's
    result is right-orthogonalized into the next sweep's start iterate, and
    the residual is checked on that iterate, whatever the enrichment.  With
    enrichment a run stalls when its global residual falls by less than 10%
    over two sweeps; without it (``enrichment="none"``), also when every
    local system was already solved on entry to a sweep.  Never raises on
    non-convergence; the status is in the returned log, and a run that does
    not converge returns the iterate of its smallest checked residual
    (``log.best``).  ``svd`` and ``chol`` enrichment widen from ``kickrank``
    to ``2·kickrank`` after a sweep that contracts the residual too little
    (see :func:`_next_width`); ``als`` projects onto a rank-``kickrank``
    approximant ``z`` through a :class:`SweepState` over ``(z; A, y; x)``.
    """
    return _run_alternating(A, y, x0, config or SolverConfig())


def dmrg_solve(
    A: TTMatrix,
    y: TTVector,
    x0: Optional[TTVector] = None,
    config: Optional[SolverConfig] = None,
):
    """Two-site baseline: merged neighboring cores, SVD split at ``tol``
    (one site, without enrichment, on a one-core train)."""
    config = replace(config or SolverConfig(), enrichment="none")
    return _run_alternating(A, y, x0, config, sites=min(2, A.d))

