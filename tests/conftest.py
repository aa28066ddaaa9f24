"""Shared oracles and problem builders for the test suite.

The dense helpers here deliberately avoid the library's fast densification
paths where independence matters: entries are evaluated by multiplying core
slices index by index, so a structural bug in the optimized contractions
cannot cancel out on both sides of a comparison.
"""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from ttamen import (
    PoissonSpec,
    TTMatrix,
    TTVector,
    build_poisson,
    tt_random,
    ttmat_add,
    ttmat_identity,
)


def slow_dense_vector(x: TTVector) -> np.ndarray:
    """Entry-by-entry densification, little-endian flat order."""
    sizes = x.mode_sizes
    out = np.empty(int(np.prod(sizes)))
    for f, mi in enumerate(itertools.product(*[range(n) for n in sizes][::-1])):
        idx = mi[::-1]  # product iterates the last mode fastest; we want the first
        v = np.ones((1, 1))
        for k, i in enumerate(idx):
            v = v @ x.cores[k][:, i, :]
        out[f] = v[0, 0]
    return out


def slow_dense_matrix(A: TTMatrix) -> np.ndarray:
    """Entry-by-entry densification of an operator, little-endian on both sides."""
    rows, cols = A.row_sizes, A.col_sizes
    nr = int(np.prod(rows))
    nc = int(np.prod(cols))
    out = np.empty((nr, nc))
    row_indices = list(itertools.product(*[range(n) for n in rows][::-1]))
    col_indices = list(itertools.product(*[range(m) for m in cols][::-1]))
    for fr, mir in enumerate(row_indices):
        ir = mir[::-1]
        for fc, mic in enumerate(col_indices):
            ic = mic[::-1]
            v = np.ones((1, 1))
            for k, (i, j) in enumerate(zip(ir, ic)):
                v = v @ A.cores[k][:, i, j, :]
            out[fr, fc] = v[0, 0]
    return out


def right_interface(cores) -> np.ndarray:
    """Dense right interface of a chain ending at rank 1, shape
    ``(r_0, n_1*...*n_k)`` with the first mode fastest; ``[[1]]`` if empty."""
    M = np.ones((1, 1))
    for core in reversed(cores):
        M = np.einsum("aib,bj->aji", core, M).reshape(core.shape[0], -1)
    return M


def frame_matrix(x: TTVector, k: int) -> np.ndarray:
    """Dense frame of core k (1-based): the matrix mapping the Fortran-order
    vectorized core to the vector.  x is linear in that core, so column j is
    the vector whose core k is the j-th unit core."""
    shape = x.cores[k - 1].shape
    columns = []
    for unit in np.eye(int(np.prod(shape))):
        cores = list(x.cores)
        cores[k - 1] = unit.reshape(shape, order="F")
        columns.append(slow_dense_vector(TTVector(cores)))
    return np.column_stack(columns)


def random_spd_system(d: int, n: int, rng):
    """Laplacian-plus-random-shift SPD TT system with a random low-rank rhs."""
    A, _ = build_poisson(PoissonSpec(dimension=d, grid_points=n))
    shift = float(rng.uniform(0.5, 2.0))
    A = ttmat_add(A, ttmat_identity(A.row_sizes), 1.0, shift)
    y = tt_random([n] * d, 2, rng=rng)
    return A, y


def load_tracing():
    """The benchmark's span tracer, ``bench/tracing.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(b)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / (denom or 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
