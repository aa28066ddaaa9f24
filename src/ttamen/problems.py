"""Benchmark problem generators in TT form.

Covers the discrete high-dimensional Poisson operator, the cascade gene
regulatory chemical-master-equation generator, and the all-at-once time
stepping system (Crank-Nicolson or implicit Euler) with time as an extra
trailing mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tt import (
    TTMatrix,
    TTVector,
    _check_counts,
    tt_matvec,
    tt_ones,
    tt_round,
    tt_unit,
    ttmat_add,
    ttmat_identity,
    ttmat_round,
)

__all__ = [
    "PoissonSpec",
    "CascadeCMESpec",
    "TimeSystemSpec",
    "build_poisson",
    "build_cme_operator",
    "build_time_system",
    "build_initial_state",
    "laplace_1d",
]


@dataclass
class PoissonSpec:
    """Homogeneous-Dirichlet finite difference Laplacian on [0,1]^d."""

    dimension: int
    grid_points: int = 64

    def __post_init__(self):
        _check_counts(self, dimension=1, grid_points=2)


@dataclass
class CascadeCMESpec:
    """Cascade gene regulatory model: d species, states 0..n-1 per species."""

    species: int
    states: int = 64
    alpha0: float = 0.7
    delta: float = 0.07
    beta: float = 1.0
    gamma: float = 5.0

    def __post_init__(self):
        _check_counts(self, species=1, states=2)
        for name in ("alpha0", "delta", "beta", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TimeSystemSpec:
    """All-at-once time discretization: tau step size, n_steps steps."""

    tau: float
    n_steps: int
    scheme: str = "crank_nicolson"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        _check_counts(self, n_steps=1)
        if self.scheme not in ("crank_nicolson", "implicit_euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def laplace_1d(n: int) -> np.ndarray:
    """Unscaled tridiag{-1, 2, -1} stencil with zero Dirichlet boundaries."""
    return (
        2.0 * np.eye(n)
        - np.eye(n, k=1)
        - np.eye(n, k=-1)
    )


def _block_core(blocks: dict, shape: tuple) -> np.ndarray:
    """A zero operator core of ``shape`` with each n x n block of ``blocks``
    at its rank pair ``(a, b)``: ``core[a, :, :, b]``."""
    core = np.zeros(shape)
    for (a, b), block in blocks.items():
        core[a, :, :, b] = block
    return core


def build_poisson(spec: PoissonSpec) -> tuple[TTMatrix, TTVector]:
    """Kronecker-sum Laplacian (interior TT operator ranks 2) and all-ones rhs."""
    d, n = spec.dimension, spec.grid_points
    L = laplace_1d(n)
    eye = np.eye(n)
    if d == 1:
        return TTMatrix([L[None, :, :, None]]), tt_ones([n])
    first = _block_core({(0, 0): L, (0, 1): eye}, (1, n, n, 2))
    mid = _block_core({(0, 0): eye, (1, 0): L, (1, 1): eye}, (2, n, n, 2))
    last = _block_core({(0, 0): eye, (1, 0): L}, (2, n, n, 1))
    # each interior core its own copy: TTMatrix keeps float64 cores as given
    return TTMatrix([first] + [mid.copy() for _ in range(d - 2)] + [last]), tt_ones([n] * d)


def _cme_mode_matrices(spec: CascadeCMESpec):
    n = spec.states
    counts = np.arange(n, dtype=float)
    # inflow shift: state i is fed from i-1; inflow from outside the window
    # (i-1 < 0 or i+1 >= n) is dropped, outflow is kept (sub-generator)
    shift = np.eye(n, k=-1)
    degrade = np.diag(counts[1:], k=1) - np.diag(counts)
    couple = np.diag(spec.beta * counts / (spec.beta * counts + spec.gamma))
    return shift - np.eye(n), degrade, couple


def build_cme_operator(spec: CascadeCMESpec) -> TTMatrix:
    """Generator A = A_1 + ... + A_d of the cascade model, TT ranks <= 3.

    A_1 carries constant generation (rate alpha0) and linear degradation
    (rate delta).  A_k for k >= 2 couples production on mode k to the
    occupation of mode k-1 through beta*i/(beta*i + gamma), plus degradation.
    """
    d, n = spec.species, spec.states
    prod_minus_id, degrade, couple = _cme_mode_matrices(spec)
    eye = np.eye(n)
    g_first = spec.alpha0 * prod_minus_id + spec.delta * degrade
    g_local = spec.delta * degrade
    if d == 1:
        return TTMatrix([g_first[None, :, :, None]])
    first = _block_core({(0, 0): eye, (0, 1): couple, (0, 2): g_first}, (1, n, n, 3))
    mid = _block_core(
        {(0, 0): eye, (0, 1): couple, (0, 2): g_local, (1, 2): prod_minus_id, (2, 2): eye},
        (3, n, n, 3),
    )
    last = _block_core({(0, 0): g_local, (1, 0): prod_minus_id, (2, 0): eye}, (3, n, n, 1))
    return TTMatrix([first] + [mid.copy() for _ in range(d - 2)] + [last])


def build_time_system(
    A: TTMatrix, psi0: TTVector, tspec: TimeSystemSpec, round_tol: float = 1e-13
) -> tuple[TTMatrix, TTVector]:
    """Block-bidiagonal-in-time system with time appended as the last mode.

    The unknown stacks the states at t_1..t_{n_steps}.  Crank-Nicolson rows
    read ``(I - tau/2 A) x_m - (I + tau/2 A) x_{m-1} = 0`` with the initial
    state feeding the first row's right-hand side; implicit Euler uses
    ``(I - tau A)`` on the diagonal and the identity below it.
    """
    if A.col_sizes != psi0.mode_sizes:
        raise ValueError("operator and initial state sizes differ")
    tau, nt = tspec.tau, tspec.n_steps
    half = 0.5 * tau if tspec.scheme == "crank_nicolson" else tau
    eye = ttmat_identity(A.row_sizes)
    P = ttmat_add(eye, A, 1.0, -half)  # diagonal-in-time blocks
    Q = ttmat_add(eye, A, 1.0, half if tspec.scheme == "crank_nicolson" else 0.0)
    # M = P (x) I_t  -  Q (x) S_t, with the sign on the time core
    time_eye = np.eye(nt)[None, :, :, None]
    time_sub = np.eye(nt, k=-1)[None, :, :, None]
    M = ttmat_add(TTMatrix(P.cores + [time_eye]), TTMatrix(Q.cores + [-time_sub]))
    M = ttmat_round(M, round_tol)

    rhs_space = tt_matvec(Q, psi0)  # Q x_0 feeds the first step
    e0 = np.zeros((rhs_space.ranks[-1], nt, 1))
    e0[:, 0, 0] = 1.0
    b = TTVector(rhs_space.cores + [e0])
    return M, tt_round(b, round_tol)


def build_initial_state(spec: CascadeCMESpec) -> TTVector:
    """Rank-1 state with all species at occupation 0 (unit mass there)."""
    return tt_unit([spec.states] * spec.species)
