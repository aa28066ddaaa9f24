"""Tensor-train (TT) vectors, operators, and their multilinear algebra.

A TT vector of a d-dimensional array uses order-3 cores ``G[k]`` with shape
``(r[k-1], n[k], r[k])`` and boundary ranks ``r[0] = r[d] = 1``.  A TT
operator (matrix with Kronecker structure) uses order-4 cores with shape
``(R[k-1], n[k], m[k], R[k])``.

Vectorization is little-endian throughout: the first mode index runs fastest,
``f = i1 + i2*n1 + i3*n1*n2 + ...`` (0-based; ``eval_entry`` alone takes a
1-based multi-index).  Combined rank/mode indices such as the row index
``(alpha, i)`` of a core unfolding are ordered the same way, with ``alpha``
fastest, which corresponds to Fortran-order reshapes of the core arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Optional, Sequence

import numpy as np
from numpy._core._multiarray_umath import c_einsum
from numpy.linalg import _umath_linalg

__all__ = [
    "TTVector",
    "TTMatrix",
    "DenseSizeError",
    "eval_entry",
    "to_dense",
    "orthogonalize",
    "tt_round",
    "tt_add",
    "tt_matvec",
    "tt_dot",
    "tt_norm",
    "qtt_quantize",
    "tt_random",
    "tt_ones",
    "tt_unit",
    "ttmat_identity",
    "ttmat_round",
]

#: Refuse to densify anything larger than this many entries.
DEFAULT_DENSE_CAP = 2**24


class DenseSizeError(ValueError):
    """Raised when a dense materialization would exceed the configured cap."""


class _Train:
    """A chain of cores whose first and last axes are the ranks.

    Core ``k`` has shape ``(r[k-1], ..., r[k])`` with ``r[0] = r[d] = 1``;
    a subclass fixes the core order and names its size properties.
    """

    _order = 0
    _kind = ""
    _size_names: tuple[str, ...] = ()

    def __init__(self, cores: Sequence[np.ndarray]):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ValueError(f"a {self._kind} needs at least one core")
        for k, c in enumerate(cores):
            if c.ndim != self._order:
                raise ValueError(f"core {k} is not order-{self._order} (shape {c.shape})")
        if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
            raise ValueError("boundary ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[-1] != cores[k + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {k} and {k + 1}: "
                    f"{cores[k].shape[-1]} vs {cores[k + 1].shape[0]}"
                )
        self.cores = cores

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[-1] for c in self.cores)

    def copy(self):
        return type(self)([c.copy() for c in self.cores])

    def __repr__(self):
        sizes = "".join(f"{name}={getattr(self, name)}, " for name in self._size_names)
        return f"{type(self).__name__}(d={self.d}, {sizes}ranks={self.ranks})"


class TTVector(_Train):
    """A vector of length ``prod(mode_sizes)`` stored as a chain of cores.

    Parameters
    ----------
    cores : sequence of ndarray
        Core ``k`` has shape ``(r[k-1], n[k], r[k])``; ``r[0] = r[d] = 1``.
    """

    _order, _kind, _size_names = 3, "TT vector", ("mode_sizes",)

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def size(self) -> int:
        return math.prod(c.shape[1] for c in self.cores)


class TTMatrix(_Train):
    """A Kronecker-structured operator stored as a chain of order-4 cores.

    Core ``k`` has shape ``(R[k-1], n[k], m[k], R[k])``: a TT train with two
    physical indices per core.
    """

    _order, _kind, _size_names = 4, "TT matrix", ("row_sizes", "col_sizes")

    @property
    def row_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def col_sizes(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)


# ----------------------------------------------------------------------
# Argument checks and entries
# ----------------------------------------------------------------------

def _check_bounds(indices, sizes):
    if len(indices) != len(sizes):
        raise IndexError(f"index length {len(indices)} != {len(sizes)} modes")
    for k, (i, n) in enumerate(zip(indices, sizes)):
        if not 1 <= i <= n:
            raise IndexError(f"index {i} out of range [1, {n}] at mode {k + 1}")


def _count_error(name: str, value, least: int) -> Optional[str]:
    """The complaint about the count ``name=value``, or None where it is an
    int (NumPy's too, but not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return f"{name}={value!r} (must be an int)"
    if value < least:
        return f"{name}={value} (must be >= {least})"
    return None


def _real_error(name: str, value, zero: bool = False) -> Optional[str]:
    """The complaint about the real ``name=value``, or None where it is a
    real number (NumPy's too, but not a bool) that is finite and positive,
    or zero where ``zero`` allows it (a tolerance)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name}={value!r} (must be a real number)"
    if not (math.isfinite(value) and (value > 0 or zero and value == 0)):
        sign = "nonnegative" if zero else "positive"
        return f"{name}={value!r} (must be {sign} and finite)"
    return None


def _check_fields(owner, reals=(), **least):
    """Raise one ValueError naming every field of ``owner`` that its rule
    refuses: :func:`_count_error` for the counts in ``least`` (name to least
    value), :func:`_real_error` for the names in ``reals``."""
    bad = [_count_error(name, getattr(owner, name), low) for name, low in least.items()]
    bad += [_real_error(name, getattr(owner, name)) for name in reals]
    if any(bad):
        raise ValueError("; ".join(filter(None, bad)))


def _check_finite(name: str, train: _Train):
    """A ValueError naming ``name`` where a core of ``train`` is not finite."""
    if not all(np.isfinite(core).all() for core in train.cores):
        raise ValueError(f"{name} holds a non-finite entry")


def eval_entry(x: TTVector, indices) -> float:
    """The entry at the 1-based index tuple ``indices``, a product of core
    slices; an IndexError for a wrong length or an index outside ``[1, n_k]``."""
    indices = tuple(indices)
    _check_bounds(indices, x.mode_sizes)
    v = x.cores[0][:, indices[0] - 1, :]
    for k in range(1, x.d):
        v = v @ x.cores[k][:, indices[k] - 1, :]
    return float(v[0, 0])


# ----------------------------------------------------------------------
# Densification
# ----------------------------------------------------------------------

def _check_dense_cap(n_entries: int):
    cap = DEFAULT_DENSE_CAP
    if n_entries > cap:
        raise DenseSizeError(f"dense materialization of {n_entries} entries exceeds cap {cap}")


def to_dense(x) -> np.ndarray:
    """Materialize a TT vector (1-D array) or TT matrix (2-D array, via :func:`ttmat_to_tt`)."""
    if isinstance(x, TTVector):
        _check_dense_cap(x.size)
        return _left_interface(x.cores)[:, 0]
    if isinstance(x, TTMatrix):
        d, N, M = x.d, math.prod(x.row_sizes), math.prod(x.col_sizes)
        _check_dense_cap(N * M)
        # the fused view's C-order axes, slowest first: (n_d, m_d, ..., n_1, m_1)
        sizes = [s for c in reversed(x.cores) for s in c.shape[1:3]]
        v = _left_interface(ttmat_to_tt(x).cores).reshape(sizes)
        return v.transpose([*range(0, 2 * d, 2), *range(1, 2 * d, 2)]).reshape(N, M)
    raise TypeError(f"expected TTVector or TTMatrix, got {type(x)}")


def _left_interface(cores) -> np.ndarray:
    """Dense interface matrix of a core chain, shape (r0*n1*...*nk, r_k).

    ``r0`` is the fastest row index; an empty chain gives the 1x1 identity.
    """
    M = np.eye(cores[0].shape[0] if cores else 1)
    for core in cores:
        r, n, R = core.shape
        T = (M @ core.reshape(r, n * R)).reshape(-1, n, R)
        M = T.transpose(1, 0, 2).reshape(-1, R)
    return M


# ----------------------------------------------------------------------
# Dense QR and SVD
# ----------------------------------------------------------------------
#
# Every dense QR and SVD of the package runs here, on the LAPACK gufuncs that
# np.linalg.qr and np.linalg.svd call, with their signatures and error
# callbacks but without their per-call type dispatch.  So each factor has the
# bits and the memory layout of np.linalg's.  The QR pushes and the rounding
# carry call c_einsum, the C function that np.einsum calls without its
# dispatch, so their products keep np.einsum's bits too.

def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _raise_svd_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


_LAPACK_ERRSTATE = dict(invalid="call", over="ignore", divide="ignore", under="ignore")

# np.triu's below-diagonal masks of R, kept read-only for R of at most
# _MASK_CACHE_COLS columns (528 masks of at most 1 KiB); larger ones, up to
# the residual sweep's 489 x 489, are built per call and dropped
_MASK_CACHE_COLS = 32
_MASKS: dict[tuple[int, int], np.ndarray] = {}
_ZERO = np.zeros(1)


def _below_diagonal(mn: int, n: int) -> np.ndarray:
    """``np.tri(mn, n, -1, dtype=bool)``, cached when ``n <= _MASK_CACHE_COLS``."""
    mask = _MASKS.get((mn, n))
    if mask is None:
        mask = np.greater.outer(np.arange(mn), np.arange(n))
        if n <= _MASK_CACHE_COLS:
            mask.flags.writeable = False
            _MASKS[mn, n] = mask
    return mask


def _qr(a: np.ndarray, mode: str = "reduced"):
    """``np.linalg.qr(a, mode)`` of a matrix for ``mode`` ``"r"`` or ``"reduced"``.

    The gufunc factors a copy in place, which keeps ``a``'s memory order as
    np.linalg.qr's copy does.  R is a fresh array with ``np.triu``'s values
    and layout (``np.where`` over the same mask); the later products read
    it in that layout.
    """
    a = a.astype(np.float64, copy=True)
    m, n = a.shape
    mn = min(m, n)
    with np.errstate(call=_raise_qr_error, **_LAPACK_ERRSTATE):
        tau = _umath_linalg.qr_r_raw(a, signature="d->d")
        if mode == "reduced":
            q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    r = np.where(_below_diagonal(mn, n), _ZERO, a[:mn])
    return r if mode == "r" else (q, r)


def _svd(a: np.ndarray):
    """``np.linalg.svd(a, full_matrices=False)`` of a matrix: ``(U, s, Vt)``."""
    with np.errstate(call=_raise_svd_error, **_LAPACK_ERRSTATE):
        return _umath_linalg.svd_s(a, signature="d->ddd")


# ----------------------------------------------------------------------
# Orthogonalization and rounding
# ----------------------------------------------------------------------

def _qr_push_right(cores, k):
    """Left-orthogonalize core k, absorbing the R factor into core k+1."""
    r, n, R = cores[k].shape
    Q, Rf = _qr(cores[k].reshape(r * n, R))
    cores[k] = Q.reshape(r, n, -1)
    cores[k + 1] = c_einsum("ab,bnc->anc", Rf, cores[k + 1])


def _lq_push_left(cores, k):
    """Right-orthogonalize core k, absorbing the factor into core k-1."""
    r, n, R = cores[k].shape
    Q, Rf = _qr(cores[k].reshape(r, n * R).T)
    cores[k] = Q.T.reshape(-1, n, R)
    cores[k - 1] = c_einsum("anb,cb->anc", cores[k - 1], Rf)


def orthogonalize(x: TTVector, direction: str, pivot: int) -> TTVector:
    """Return an equal vector with cores orthogonalized toward ``pivot``.

    ``direction="left"`` makes cores ``1..pivot-1`` left-orthogonal (the
    non-orthogonal factor accumulates in the pivot core);
    ``direction="right"`` makes cores ``pivot+1..d`` right-orthogonal.
    ``pivot`` is 1-based.
    """
    if not 1 <= pivot <= x.d:
        raise ValueError(f"pivot {pivot} out of range [1, {x.d}]")
    cores = [c.copy() for c in x.cores]
    if direction == "left":
        for k in range(pivot - 1):
            _qr_push_right(cores, k)
    elif direction == "right":
        for k in range(x.d - 1, pivot - 1, -1):
            _lq_push_left(cores, k)
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    return TTVector(cores)


def _svd_trunc(M: np.ndarray, budget: float, max_rank: Optional[int]):
    """SVD of M keeping the smallest rank whose discarded tail is <= budget."""
    U, s, Vt = _svd(M)
    if budget > 0:
        tail = np.sqrt((s[::-1] ** 2).cumsum())
        # tail[j] is the Frobenius error if the last j+1 columns are dropped
        keep = s.size - int(tail.searchsorted(budget, side="right"))
    else:
        smax = s[0] if s.size else 0.0
        keep = int(np.sum(s > 1e-14 * smax))
    keep = max(keep, 1)
    if max_rank is not None:
        keep = min(keep, max_rank)
    return U[:, :keep], s[:keep], Vt[:keep]


def tt_round(x: TTVector, tol: float) -> TTVector:
    """Compress ranks so that ``norm(x - result) <= tol * norm(x)``.

    Left-orthogonalizes first, then truncates by SVD right-to-left with a
    per-core budget of ``tol * norm(x) / sqrt(d-1)``.  The result is
    right-orthogonal from core 2 on.
    """
    if bad := _real_error("tol", tol, zero=True):
        raise ValueError(bad)
    d = x.d
    if d == 1:
        return x.copy()
    y = orthogonalize(x, "left", pivot=d)
    cores = y.cores
    nrm = float(np.linalg.norm(cores[-1]))
    if nrm == 0.0:
        return TTVector([np.zeros((1, n, 1)) for n in x.mode_sizes])
    budget = tol * nrm / np.sqrt(d - 1)
    for k in range(d - 1, 0, -1):
        r, n, R = cores[k].shape
        U, s, Vt = _svd_trunc(cores[k].reshape(r, n * R), budget, None)
        cores[k] = Vt.reshape(-1, n, R)
        carry = U * s
        cores[k - 1] = c_einsum("anb,bc->anc", cores[k - 1], carry)
    return TTVector(cores)


# ----------------------------------------------------------------------
# TT algebra
# ----------------------------------------------------------------------

def tt_add(x: _Train, y: _Train, alpha: float = 1.0, beta: float = 1.0) -> _Train:
    """Exact ``alpha*x + beta*y`` of two vectors or of two operators with the
    same physical sizes; ranks add."""
    xs, ys = ([c.shape[1:-1] for c in t.cores] for t in (x, y))
    if xs != ys:
        raise ValueError(f"physical sizes differ: {xs} vs {ys}")
    pairs = enumerate(zip(x.cores, y.cores))
    return type(x)([_sum_core(xc, yc, k, x.d, alpha, beta) for k, (xc, yc) in pairs])


def _sum_core(xc: np.ndarray, yc: np.ndarray, k: int, d: int, alpha=1.0, beta=1.0):
    """Core k of the exact sum ``alpha*x + beta*y`` of two d-core trains.

    The rank axes are the first and the last, so vector and operator cores
    both fit.  The scales go on the first core, which joins the two cores
    along the right rank; the last core stacks them along the left rank,
    and the cores between are block diagonal.
    """
    if d == 1:
        return alpha * xc + beta * yc
    if k == 0:
        return np.concatenate([alpha * xc, beta * yc], axis=-1)
    if k == d - 1:
        return np.concatenate([xc, yc], axis=0)
    rx0, rx1 = xc.shape[0], xc.shape[-1]
    c = np.zeros((rx0 + yc.shape[0],) + xc.shape[1:-1] + (rx1 + yc.shape[-1],))
    c[:rx0, ..., :rx1] = xc
    c[rx0:, ..., rx1:] = yc
    return c


@functools.cache
def _contract_plan(nda: int, ndb: int, axes) -> tuple:
    """Permutations of :func:`_contract` for one ``(a.ndim, b.ndim, axes)``.

    The cache holds small ints only, one entry per signature in the calling
    code (about twenty in the package).
    """
    if isinstance(axes, int):
        sum_a, sum_b = tuple(range(nda - axes, nda)), tuple(range(axes))
    else:
        sum_a, sum_b = (ax if isinstance(ax, tuple) else (ax,) for ax in axes)
    if len(sum_a) != len(sum_b):
        raise ValueError("shape-mismatch for sum")
    planned = []
    for nd, summed in ((nda, sum_a), (ndb, sum_b)):
        if not all(-nd <= ax < nd for ax in summed):
            raise ValueError(f"axes {axes} out of range for ndim {nda} and {ndb}")
        summed = tuple(ax % nd for ax in summed)
        if len(set(summed)) != len(summed):
            raise ValueError("duplicate axes are not allowed in tensordot")
        planned.append((tuple(k for k in range(nd) if k not in summed), summed))
    (free_a, sum_a), (free_b, sum_b) = planned
    return free_a + sum_a, sum_b + free_b, len(free_a), len(sum_b)


def _contract(a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """``np.tensordot(a, b, axes)`` with the permutations planned once.

    The same transposes, reshapes and one ``np.dot`` as ``np.tensordot``,
    so the operands reach the GEMM in the same layout and the result has
    the same bits.  The permutations are computed once per
    ``(a.ndim, b.ndim, axes)`` and hold no shapes; this skips the argument
    handling that is most of ``np.tensordot``'s cost on small QTT cores.
    ``axes`` is an int or a pair of ints or int tuples (hashable; no lists).
    """
    perm_a, perm_b, n_free_a, n_sum = _contract_plan(a.ndim, b.ndim, axes)
    at, bt = a.transpose(perm_a), b.transpose(perm_b)
    free_a, summed = at.shape[:n_free_a], at.shape[n_free_a:]
    free_b = bt.shape[n_sum:]
    if summed != bt.shape[:n_sum]:
        raise ValueError("shape-mismatch for sum")
    k = math.prod(summed)
    out = np.dot(at.reshape(math.prod(free_a), k), bt.reshape(k, math.prod(free_b)))
    return out.reshape(free_a + free_b)


def tt_matvec(A: TTMatrix, x: TTVector) -> TTVector:
    """Exact TT representation of ``A @ x``; output ranks are products."""
    if A.col_sizes != x.mode_sizes:
        raise ValueError(
            f"operator column sizes {A.col_sizes} != vector modes {x.mode_sizes}"
        )
    return TTVector([_matvec_core(Ac, xc) for Ac, xc in zip(A.cores, x.cores)])


def _matvec_core(Ac: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """Core ``(R0*r0, n, R1*r1)`` of ``A x`` at one position."""
    R0, n, _, R1 = Ac.shape
    r0, _, r1 = xc.shape
    c = _contract(Ac, xc, axes=(2, 1))  # (a,i,b,c,d)
    c = np.ascontiguousarray(c.transpose(0, 3, 1, 2, 4))
    return c.reshape(R0 * r0, n, R1 * r1)


def tt_dot(x: TTVector, y: TTVector) -> float:
    """Inner product via left-to-right environment contraction."""
    if x.mode_sizes != y.mode_sizes:
        raise ValueError(f"mode sizes differ: {x.mode_sizes} vs {y.mode_sizes}")
    v = np.ones((1, 1))
    for xc, yc in zip(x.cores, y.cores):
        T = _contract(v, xc, axes=(0, 0))  # (b,i,c)
        v = _contract(T, yc, axes=((0, 1), (0, 1)))  # (c,d)
    return float(v[0, 0])


def tt_norm(x: TTVector) -> float:
    """Frobenius norm by a left QR sweep that keeps only the R factors.

    ``carry`` is the R factor of the left interface up to the current core,
    so ``norm(x) = norm(carry @ rest)``; no Q factor is formed.  Unlike the
    Gram contraction ``sqrt(tt_dot(x, x))`` this stays accurate on
    non-orthogonal sums whose norm is far below that of their terms, such as
    the residual ``y - A x`` near convergence.
    """
    carry = np.ones((1, 1))
    for core in x.cores[:-1]:
        r, n, R = core.shape
        carry = _qr((carry @ core.reshape(r, n * R)).reshape(-1, R), mode="r")
    last = x.cores[-1]
    v = carry @ last.reshape(last.shape[0], -1)
    top = np.abs(v).max()
    if top > 0 and not 2.0**-500 < top < 2.0**500:
        # the norm squares v's entries: where the largest square would leave
        # the normal range, take it of v scaled by a power of two, exactly
        e = math.frexp(top)[1]
        return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)
    return float(np.linalg.norm(v))


# ----------------------------------------------------------------------
# QTT quantization
# ----------------------------------------------------------------------

def _bits(n) -> Optional[int]:
    """The L with ``2**L == n``, or None where ``n`` is no power of two."""
    n = int(n)
    L = n.bit_length() - 1
    return L if n > 0 and n == 1 << L else None


def _split_chain(t: np.ndarray, mode_sizes: list[int]) -> list[np.ndarray]:
    """Split t of shape (r, n1, ..., nL, R) into a TT chain at numerical rank.

    The chain is t unchanged up to round-off.  Each unfolding is cut by
    :func:`_svd_trunc` with a zero budget (singular values <= 1e-14 *
    sigma_max go), the rule of ``tt_round`` at tol 0, so bond k keeps the
    rank the data has, not the min(n^k, n^(L-k)) columns of a QR split.
    """
    r = t.shape[0]
    R = t.shape[-1]
    cur = t.reshape(r, -1)
    cores = []
    left = r
    for j, n in enumerate(mode_sizes):
        if j == len(mode_sizes) - 1:
            cores.append(cur.reshape(left, n, R))
            break
        cur = cur.reshape(left * n, -1)
        U, s, Vt = _svd_trunc(cur, 0.0, None)
        cores.append(U.reshape(left, n, -1))
        left = U.shape[1]
        cur = s[:, None] * Vt
    return cores


def qtt_quantize(x, tol: float = 0.0):
    """Split every mode of size ``2**L`` into L binary modes (of size 2).

    Bit order within a mode is little-endian (lowest bit first); an
    operator's modes must be square, and bit j of its row index is paired
    with bit j of its column index in one core.  Each mode is split at the
    numerical rank of its unfoldings, so the represented dense vector/matrix
    is unchanged up to round-off.  If ``tol > 0`` the result is compressed
    with :func:`tt_round` at that tolerance.
    """
    if not isinstance(x, (TTVector, TTMatrix)):
        raise TypeError(f"expected TTVector or TTMatrix, got {type(x)}")
    if bad := _real_error("tol", tol, zero=True):
        raise ValueError(bad)
    new_cores = []
    for core in x.cores:
        r0, *phys, r1 = core.shape
        L, p = _bits(phys[0]), len(phys)
        if L is None:
            raise ValueError(f"mode size {phys[0]} is not a power of 2")
        if phys.count(phys[0]) != p:
            raise ValueError("matrix quantization requires square mode sizes")
        if L <= 1:  # a mode of size 1 or 2 stays as it is
            new_cores.append(core.copy())
            continue
        t = core.reshape((r0,) + (2,) * (L * p) + (r1,))
        # numpy puts an index's lowest bit in its last split axis: take the
        # bits lowest first, each row bit followed by its column bit
        bits = [1 + axis * L + L - 1 - j for j in range(L) for axis in range(p)]
        t = t.transpose([0] + bits + [L * p + 1]).reshape((r0,) + (2**p,) * L + (r1,))
        chain = _split_chain(t, [2**p] * L)
        new_cores.extend(c.reshape((c.shape[0],) + (2,) * p + (c.shape[2],)) for c in chain)
    out = type(x)(new_cores)
    if tol == 0:
        return out
    return tt_round(out, tol) if isinstance(out, TTVector) else ttmat_round(out, tol)


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------

def _clip_ranks(mode_sizes, ranks):
    """Clip interior ranks to the maximum feasible value at each bond."""
    sizes = [int(n) for n in mode_sizes]  # Python integers: exact at any d
    bonds = range(1, len(sizes))
    inner = [min(ranks[k], math.prod(sizes[:k]), math.prod(sizes[k:])) for k in bonds]
    return [1] + [int(r) for r in inner] + [1]


def tt_random(mode_sizes, ranks, rng=None) -> TTVector:
    """Gaussian random TT vector.  ``ranks`` is an int or a full r_0..r_d list."""
    rng = np.random.default_rng(rng)
    d = len(mode_sizes)
    if np.isscalar(ranks):
        ranks = [1] + [int(ranks)] * (d - 1) + [1]
    ranks = _clip_ranks(mode_sizes, list(ranks))
    cores = [
        rng.standard_normal((ranks[k], mode_sizes[k], ranks[k + 1]))
        for k in range(d)
    ]
    return TTVector(cores)


def tt_ones(mode_sizes) -> TTVector:
    return TTVector([np.ones((1, n, 1)) for n in mode_sizes])


def tt_unit(mode_sizes) -> TTVector:
    """The rank-1 first unit vector ``e_0``: the first unit vector in every mode."""
    return TTVector([np.eye(1, n).reshape(1, n, 1) for n in mode_sizes])


def ttmat_identity(mode_sizes) -> TTMatrix:
    return TTMatrix([np.eye(n).reshape(1, n, n, 1) for n in mode_sizes])


def ttmat_to_tt(A: TTMatrix) -> TTVector:
    """View the operator as a TT vector over fused (row, col) modes."""
    return TTVector(
        [c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3]) for c in A.cores]
    )


def ttmat_round(A: TTMatrix, tol: float) -> TTMatrix:
    """Rank compression of an operator via its fused vector view."""
    v = tt_round(ttmat_to_tt(A), tol)
    sizes = zip(v.cores, A.row_sizes, A.col_sizes)
    return TTMatrix([c.reshape(c.shape[0], n, m, c.shape[2]) for c, n, m in sizes])
