"""TT data structures and multilinear algebra against dense oracles."""

import re

import numpy as np
import pytest

import ttamen.tt
from ttamen import (
    DenseSizeError,
    TTMatrix,
    TTVector,
    eval_entry,
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
    ttmat_identity,
    ttmat_round,
)
from ttamen.amen import vec_core
from ttamen.tt import (
    _MASK_CACHE_COLS,
    _MASKS,
    _bits,
    _contract,
    _contract_plan,
    _left_interface,
    _lq_push_left,
    _qr,
    _qr_push_right,
    _svd,
    _svd_trunc,
)

from conftest import (
    frame_matrix,
    rel_err,
    right_interface,
    slow_dense_matrix,
    slow_dense_vector,
    ttmat_random,
)


def random_sizes(rng, d_max=4, n_max=5):
    d = int(rng.integers(1, d_max + 1))
    return [int(rng.integers(2, n_max + 1)) for _ in range(d)]


def one_based(f, sizes):
    """The 1-based multi-index of the 1-based flat index f, first mode fastest."""
    return tuple(int(i) + 1 for i in np.unravel_index(f - 1, sizes, order="F"))


# ----------------------------------------------------------------------
# Entry evaluation and densification
# ----------------------------------------------------------------------

class TestEvalAndDense:
    def test_single_core_entry(self, rng):
        c = rng.standard_normal((1, 4, 1))
        x = TTVector([c])
        for i in range(4):
            assert eval_entry(x, (i + 1,)) == c[0, i, 0]

    def test_all_ones_rank_one(self):
        x = tt_ones([2, 3, 2])
        for f in range(1, 13):
            assert eval_entry(x, one_based(f, (2, 3, 2))) == 1.0

    def test_matches_brute_force_contraction(self, rng):
        x = tt_random([2, 2, 2], 2, rng=rng)
        dense = slow_dense_vector(x)
        for f in range(1, 9):
            assert abs(eval_entry(x, one_based(f, (2, 2, 2))) - dense[f - 1]) < 1e-13

    def test_eval_entry_out_of_bounds(self):
        x = tt_ones([2, 3])
        for indices in [(0, 1), (2, 4), (1,), (1, 1, 1)]:
            with pytest.raises(IndexError):
                eval_entry(x, indices)

    def test_to_dense_matches_eval_entry(self, rng):
        for _ in range(10):
            sizes = random_sizes(rng)
            x = tt_random(sizes, 3, rng=rng)
            dense = to_dense(x)
            for f in range(1, x.size + 1):
                assert abs(dense[f - 1] - eval_entry(x, one_based(f, sizes))) < 1e-12

    def test_rank_one_outer_product(self, rng):
        a = rng.standard_normal(3)
        b = rng.standard_normal(4)
        x = TTVector([a[None, :, None], b[None, :, None]])
        # little-endian: the first mode is the fast index
        assert rel_err(to_dense(x), np.outer(b, a).ravel()) < 1e-14

    def test_matrix_to_dense_matches_slow_oracle(self, rng):
        for _ in range(5):
            A = ttmat_random([2, 3], [3, 2], 2, rng=rng)
            assert rel_err(to_dense(A), slow_dense_matrix(A)) < 1e-13

    @pytest.mark.parametrize(
        "rows, cols",
        [([5], [5]), ([4], [2]), ([1, 3, 1], [2, 1, 1]), ([2, 1, 3], [3, 4, 1])],
        ids=["d1", "d1_non_square", "size_one_modes", "non_square"],
    )
    def test_matrix_to_dense_odd_shapes(self, rng, rows, cols):
        A = ttmat_random(rows, cols, 2, rng=rng)
        dense = to_dense(A)
        assert dense.shape == (np.prod(rows), np.prod(cols))
        assert rel_err(dense, slow_dense_matrix(A)) < 1e-13

    def test_dense_cap_refusal(self, monkeypatch):
        x = tt_ones([2] * 30)
        with pytest.raises(DenseSizeError):
            to_dense(x)
        monkeypatch.setattr(ttamen.tt, "DEFAULT_DENSE_CAP", 100)
        with pytest.raises(DenseSizeError):
            to_dense(tt_ones([2] * 10))

    def test_left_interface_of_empty_chain(self):
        assert _left_interface([]).tolist() == [[1.0]]

    def test_left_interface_with_leading_rank(self, rng):
        # the leading rank is the fastest row index, ahead of the modes
        first = rng.standard_normal((3, 2, 4))
        for last_rank in (2, 1):
            cores = [first, rng.standard_normal((4, 5, last_rank))]
            ref = np.einsum("aib,bjc->jiac", *cores).reshape(-1, last_rank)
            assert rel_err(_left_interface(cores), ref) < 1e-14
        # a right chain ends at rank 1: (alpha_0, modes) with the modes fastest
        R = right_interface(cores)
        assert rel_err(R, np.einsum("aib,bjc->ajic", *cores).reshape(3, 10)) < 1e-14


class TestExactSizes:
    """Sizes are exact Python integers past int64 (2**64 entries, 16**17)."""

    def test_size_then_dense_cap(self, monkeypatch):
        x = tt_ones([2] * 64)
        # checked first: a wrapped size would pass the cap and exhaust memory
        assert x.size == 2**64
        with pytest.raises(DenseSizeError):
            to_dense(x)
        monkeypatch.setattr(ttamen.tt, "DEFAULT_DENSE_CAP", 2**20)
        with pytest.raises(DenseSizeError):
            to_dense(x)

    def test_random_ranks(self):
        assert tt_random([16] * 17, 3).ranks == (1,) + (3,) * 16 + (1,)
        assert tt_random([2] * 64, 5).ranks == (1, 2, 4) + (5,) * 59 + (4, 2, 1)


# ----------------------------------------------------------------------
# Interfaces and frames
# ----------------------------------------------------------------------

class TestInterfaces:
    def test_left_orthogonal_interface_has_orthonormal_columns(self, rng):
        x = tt_random([3, 3, 3], 2, rng=rng)
        x = orthogonalize(x, "left", pivot=3)
        M = _left_interface(x.cores[:2])
        assert np.linalg.norm(M.T @ M - np.eye(M.shape[1])) < 1e-12

    def test_interface_product_equals_unfolding(self, rng):
        x = tt_random([2, 3, 4], 3, rng=rng)
        L = _left_interface(x.cores[:2])
        R = right_interface(x.cores[2:])
        # unfolding: row index (i1, i2) little-endian, column index i3
        unf = to_dense(x).reshape(4, 6).T
        assert rel_err(L @ R, unf) < 1e-12

    def test_frame_matrix_reconstructs_vector(self, rng):
        x = tt_random([2, 3, 2], 2, rng=rng)
        for k in range(1, 4):
            F = frame_matrix(x, k)
            assert rel_err(F @ vec_core(x.cores[k - 1]), to_dense(x)) < 1e-12


# ----------------------------------------------------------------------
# Orthogonalization and rounding
# ----------------------------------------------------------------------

class TestOrthogonalize:
    def test_preserves_vector(self, rng):
        x = tt_random([3, 4, 3], 3, rng=rng)
        ref = to_dense(x)
        for direction, pivot in [("left", 3), ("right", 1), ("left", 2), ("right", 2)]:
            y = orthogonalize(x, direction, pivot)
            assert rel_err(to_dense(y), ref) < 1e-12

    def test_norm_concentrates_in_pivot(self, rng):
        x = tt_random([2, 3, 2, 3], 2, rng=rng)
        y = orthogonalize(x, "left", pivot=4)
        assert abs(np.linalg.norm(y.cores[-1]) - np.linalg.norm(to_dense(x))) < 1e-11

    def test_orthogonality_tags_hold(self, rng):
        x = tt_random([3, 3, 3], 3, rng=rng)
        y = orthogonalize(x, "left", pivot=3)
        for k in range(2):
            r, n, R = y.cores[k].shape
            M = y.cores[k].reshape(r * n, R)
            assert np.linalg.norm(M.T @ M - np.eye(R)) < 1e-12
        z = orthogonalize(x, "right", pivot=1)
        for k in range(1, 3):
            r, n, R = z.cores[k].shape
            M = z.cores[k].reshape(r, n * R)
            assert np.linalg.norm(M @ M.T - np.eye(r)) < 1e-12

    def test_already_orthogonal_unchanged(self, rng):
        x = orthogonalize(tt_random([2, 3, 2], 2, rng=rng), "left", pivot=3)
        y = orthogonalize(x, "left", pivot=3)
        assert rel_err(to_dense(y), to_dense(x)) < 1e-13


class TestRounding:
    def test_tol_zero_keeps_vector(self, rng):
        x = tt_random([3, 4, 3], 2, rng=rng)
        y = tt_round(x, 0.0)
        assert all(ry <= rx for ry, rx in zip(y.ranks, x.ranks))
        assert rel_err(to_dense(y), to_dense(x)) < 1e-13

    def test_duplicate_sum_recompresses(self, rng):
        x = tt_random([3, 3, 3], 2, rng=rng)
        s = tt_add(x, x)
        assert s.ranks == tuple(2 * r if 0 < i < 3 else 1 for i, r in enumerate(x.ranks))
        y = tt_round(s, 1e-14)
        assert y.ranks == x.ranks
        assert rel_err(to_dense(y), 2 * to_dense(x)) < 1e-12

    def test_coarse_tolerance_error_bound(self, rng):
        x = tt_random([4, 4, 4], 3, rng=rng)
        y = tt_round(x, 0.5)
        dense = to_dense(x)
        assert np.linalg.norm(to_dense(y) - dense) <= 0.5 * np.linalg.norm(dense) + 1e-12

    @pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
    def test_rounding_contract_hundred_instances(self, eps):
        rng = np.random.default_rng(hash(eps) % 2**32)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 5)) for _ in range(d)]
            x = tt_random(sizes, int(rng.integers(1, 5)), rng=rng)
            dense = to_dense(x)
            nrm = np.linalg.norm(dense)
            y = tt_round(x, eps)
            assert np.linalg.norm(to_dense(y) - dense) <= eps * nrm * (1 + 1e-10)

    def test_output_right_orthogonal(self, rng):
        x = tt_random([3, 3, 3, 3], 4, rng=rng)
        y = tt_round(x, 1e-3)
        for k in range(1, 4):
            r, n, R = y.cores[k].shape
            M = y.cores[k].reshape(r, n * R)
            assert np.linalg.norm(M @ M.T - np.eye(r)) < 1e-12

    def test_negative_tol_rejected(self, rng):
        with pytest.raises(ValueError):
            tt_round(tt_ones([2, 2]), -1.0)

    @pytest.mark.parametrize(
        "tol, complaint",
        [
            (np.nan, "tol=nan (must be nonnegative and finite)"),
            (np.inf, "tol=inf (must be nonnegative and finite)"),
            (-1.0, "tol=-1.0 (must be nonnegative and finite)"),
            (True, "tol=True (must be a real number)"),
            ("1e-3", "tol='1e-3' (must be a real number)"),
        ],
    )
    def test_tol_is_a_nonnegative_finite_real(self, rng, tol, complaint):
        x = tt_random([3] * 4, 3, rng=rng)
        with pytest.raises(ValueError, match=re.escape(complaint)):
            tt_round(x, tol)
        with pytest.raises(ValueError, match=re.escape(complaint)):
            ttmat_round(ttmat_identity([3, 3]), tol)

    def test_zero_and_numpy_tols_accepted(self, rng):
        x = tt_random([3] * 4, 3, rng=rng)

        def bits(tol):
            return [c.tobytes() for c in tt_round(x, tol).cores]

        assert bits(0) == bits(0.0) == bits(np.float64(0.0))
        assert bits(np.float64(0.1)) == bits(0.1)


# ----------------------------------------------------------------------
# Algebra vs dense oracles
# ----------------------------------------------------------------------

class TestAlgebra:
    def test_add_zero_coefficient(self, rng):
        x = tt_random([2, 3], 2, rng=rng)
        y = tt_random([2, 3], 2, rng=rng)
        s = tt_add(x, y, 1.0, 0.0)
        assert rel_err(to_dense(s), to_dense(x)) < 1e-13

    def test_cancellation_rounds_to_zero(self, rng):
        # x - x contracts to round-off noise; rounding must leave a vector
        # that is zero at working precision with at most noise-rank bonds
        x = tt_random([2, 3, 2], 2, rng=rng)
        z = tt_round(tt_add(x, x, 1.0, -1.0), 1e-12)
        assert tt_norm(z) < 1e-13 * tt_norm(x)
        assert all(rz <= rx for rz, rx in zip(z.ranks, x.ranks))

    def test_identity_matvec(self, rng):
        x = tt_random([3, 4, 2], 2, rng=rng)
        assert rel_err(to_dense(tt_matvec(ttmat_identity([3, 4, 2]), x)), to_dense(x)) < 1e-13

    def test_kronecker_sum_matvec(self, rng):
        # d=2 operator L (x) I + I (x) L against the dense Kronecker oracle
        n = 4
        L = rng.standard_normal((n, n))
        I = np.eye(n)
        A = tt_add(
            TTMatrix([L[None, :, :, None], I[None, :, :, None]]),
            TTMatrix([I[None, :, :, None], L[None, :, :, None]]),
        )
        dense = np.kron(I, L) + np.kron(L, I)
        x = tt_random([n, n], 3, rng=rng)
        assert rel_err(to_dense(tt_matvec(A, x)), dense @ to_dense(x)) < 1e-12

    def test_matvec_rank_bookkeeping(self, rng):
        A = ttmat_random([3, 3, 3], [3, 3, 3], 2, rng=rng)
        x = tt_random([3, 3, 3], 3, rng=rng)
        out = tt_matvec(A, x)
        assert out.ranks == tuple(R * r for R, r in zip(A.ranks, x.ranks))

    def test_dot_left_orthogonal_last_core(self, rng):
        x = orthogonalize(tt_random([3, 3, 3], 2, rng=rng), "left", pivot=3)
        assert abs(tt_dot(x, x) - np.linalg.norm(x.cores[-1]) ** 2) < 1e-11

    def test_dot_orthogonal_rank_one(self):
        e0 = tt_unit([2, 2])
        e1 = TTVector([np.array([0.0, 1.0]).reshape(1, 2, 1)] * 2)
        assert abs(tt_dot(e0, e1)) < 1e-14

    def test_size_mismatch_errors(self, rng):
        x = tt_random([2, 3], 1, rng=rng)
        y = tt_random([3, 2], 1, rng=rng)
        with pytest.raises(ValueError):
            tt_add(x, y)
        with pytest.raises(ValueError):
            tt_dot(x, y)
        with pytest.raises(ValueError):
            tt_matvec(ttmat_identity([2, 2]), x)

    def test_oracle_suite_two_hundred_instances(self):
        """Criterion-scale oracle sweep: add, matvec, dot."""
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(67):
            d = int(rng.integers(1, 5))
            sizes = [int(rng.integers(2, 5)) for _ in range(d)]
            if int(np.prod(sizes)) ** 2 > 4096 * 4:
                sizes = sizes[:3]
                d = len(sizes)
            r = int(rng.integers(1, 4))
            x = tt_random(sizes, r, rng=rng)
            y = tt_random(sizes, r, rng=rng)
            A = ttmat_random(sizes, sizes, 2, rng=rng)
            xd, yd, Ad = to_dense(x), to_dense(y), to_dense(A)
            al, be = rng.standard_normal(2)
            assert rel_err(to_dense(tt_add(x, y, al, be)), al * xd + be * yd) < 1e-11
            assert rel_err(to_dense(tt_matvec(A, x)), Ad @ xd) < 1e-11
            ref = float(xd @ yd)
            assert abs(tt_dot(x, y) - ref) <= 1e-11 * max(1.0, abs(ref))
            checked += 3
        assert checked >= 200


# ----------------------------------------------------------------------
# QTT quantization
# ----------------------------------------------------------------------

class TestQTT:
    def test_binary_modes_unchanged(self, rng):
        x = tt_random([2, 2, 2], 2, rng=rng)
        q = qtt_quantize(x)
        assert q.mode_sizes == x.mode_sizes
        assert rel_err(to_dense(q), to_dense(x)) < 1e-13

    def test_small_vector_bit_order(self):
        x = TTVector([np.array([1.0, 2.0, 3.0, 4.0])[None, :, None]])
        q = qtt_quantize(x)
        assert q.mode_sizes == (2, 2)
        assert rel_err(to_dense(q), [1.0, 2.0, 3.0, 4.0]) < 1e-14

    def test_round_trip_identity(self, rng):
        x = tt_random([8, 8], 3, rng=rng)
        q = qtt_quantize(x)
        assert q.mode_sizes == (2,) * 6
        assert rel_err(to_dense(q), to_dense(x)) < 1e-12

    def test_matrix_quantization_preserves_operator(self, rng):
        A = ttmat_random([4, 8], [4, 8], 2, rng=rng)
        q = qtt_quantize(A)
        assert q.row_sizes == (2,) * 5
        assert rel_err(to_dense(q), to_dense(A)) < 1e-12

    def test_matvec_consistent_after_quantization(self, rng):
        A = ttmat_random([4, 4], [4, 4], 2, rng=rng)
        x = tt_random([4, 4], 2, rng=rng)
        ref = to_dense(tt_matvec(A, x))
        out = to_dense(tt_matvec(qtt_quantize(A), qtt_quantize(x)))
        assert rel_err(out, ref) < 1e-12

    def test_non_power_rejected(self, rng):
        with pytest.raises(ValueError):
            qtt_quantize(tt_random([6], 1, rng=rng))

    def test_size_one_mode_kept(self, rng):
        # a size-1 mode between ranks 2 carries a 2 x 2 factor of the vector
        x = tt_random([4, 1, 4], 2, rng=rng)
        q = qtt_quantize(x)
        assert q.mode_sizes == (2, 2, 1, 2, 2)
        assert rel_err(to_dense(q), to_dense(x)) < 1e-13
        A = ttmat_random([1, 4], [1, 4], 2, rng=rng)
        assert rel_err(to_dense(qtt_quantize(A)), to_dense(A)) < 1e-13

    def test_bits_is_exact_at_any_size(self):
        table = [(1, 0), (2, 1), (3, None), (6, None), (2**62, 62), (2**62 + 1, None),
                 (np.int64(8), 3)]
        assert [_bits(n) for n, _ in table] == [L for _, L in table]

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, True, "0"])
    def test_tol_is_a_nonnegative_finite_real(self, tol):
        A = ttmat_identity([4, 4])
        with pytest.raises(ValueError, match=re.escape(f"tol={tol!r}")):
            qtt_quantize(A, tol=tol)
        for ok in (0, 0.0, np.float64(1e-13)):
            assert qtt_quantize(A, tol=ok).row_sizes == (2, 2, 2, 2)

    def test_non_square_operator_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="square mode sizes"):
            qtt_quantize(ttmat_random([4], [8], 1, rng=rng))

    def test_non_train_rejected(self):
        with pytest.raises(TypeError):
            qtt_quantize(np.ones(4))

    def test_identity_splits_at_rank_one(self):
        # a split that keeps every column reaches rank 1024 at the middle bond
        q = qtt_quantize(ttmat_identity([1024]))
        assert q.ranks == (1,) * 11
        assert np.abs(to_dense(q) - np.eye(1024)).max() <= 1e-13

    def test_time_shift_splits_at_rank_two(self):
        # the subdiagonal time core of the Crank-Nicolson system
        S = np.eye(256, k=-1)
        q = qtt_quantize(TTMatrix([S[None, :, :, None]]))
        assert q.row_sizes == (2,) * 8 and max(q.ranks) <= 2
        assert np.linalg.norm(to_dense(q) - S) <= 1e-14 * np.linalg.norm(S)

    def test_full_rank_vector_keeps_every_direction(self, rng):
        v = rng.standard_normal(4096)
        q = qtt_quantize(TTVector([v[None, :, None]]))
        assert q.ranks == (1, 2, 4, 8, 16, 32, 64, 32, 16, 8, 4, 2, 1)
        assert rel_err(to_dense(q), v) <= 1e-13


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------

def _ones_cores(modes, *ranks):
    """Cores of ones with physical axes ``modes`` between consecutive ``ranks``."""
    return [np.ones((r0,) + modes + (r1,)) for r0, r1 in zip(ranks, ranks[1:])]


class TestStructure:
    @pytest.mark.parametrize(
        "cls, modes", [(TTVector, (3,)), (TTMatrix, (3, 2))], ids=["vector", "matrix"]
    )
    @pytest.mark.parametrize(
        "cores, message",
        [
            (lambda modes: [], "a TT {kind} needs at least one core"),
            (
                lambda modes: _ones_cores(modes, 1, 1) + [np.ones((1, 1))],
                "core 1 is not order-{order}",
            ),
            (lambda modes: _ones_cores(modes, 2, 1), "boundary ranks must be 1"),
            (
                lambda modes: _ones_cores(modes, 1, 2) + _ones_cores(modes, 3, 1),
                "rank mismatch between cores 0 and 1: 2 vs 3",
            ),
        ],
        ids=["no_cores", "core_order", "boundary_rank", "neighbour_ranks"],
    )
    def test_constructor_rejects(self, cls, modes, cores, message):
        kind = "vector" if cls is TTVector else "matrix"
        message = message.format(kind=kind, order=len(modes) + 2)
        with pytest.raises(ValueError, match=message):
            cls(cores(modes))

    def test_boundary_rank_enforced(self, rng):
        with pytest.raises(ValueError):
            TTVector([rng.standard_normal((2, 3, 1))])
        with pytest.raises(ValueError):
            TTVector([rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 3, 1))])

    def test_ttmat_round_compresses_duplicate_sum(self, rng):
        A = ttmat_random([3, 3, 3], [3, 3, 3], 2, rng=rng)
        S = tt_add(A, A)
        R = ttmat_round(S, 1e-13)
        assert R.ranks == A.ranks
        assert rel_err(to_dense(R), 2 * to_dense(A)) < 1e-11

    def test_norm_clamps_tiny_negatives(self):
        x = TTVector([np.zeros((1, 3, 1))])
        assert tt_norm(x) == 0.0


# ----------------------------------------------------------------------
# Norm by R-only QR sweep
# ----------------------------------------------------------------------

def _right_orthogonal_norm(x):
    """Reference norm: after right-orthogonalization it is that of core 1."""
    return float(np.linalg.norm(orthogonalize(x, "right", 1).cores[0]))


class TestNorm:
    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_small_norm_of_cancelling_sum(self, rng, eps):
        # r = (x - xo) + eps*||x||*z/||z|| has norm eps*||x||, far below the
        # norms of its terms; on this input the Gram contraction
        # sqrt(tt_dot(r, r)) is off by 1.2% at eps = 1e-7 and by 100% at 1e-9
        x = tt_random([4] * 6, 3, rng=rng)
        xo = orthogonalize(x, "right", 1)
        z = tt_random([4] * 6, 2, rng=rng)
        nx = _right_orthogonal_norm(x)
        scale = eps * nx / _right_orthogonal_norm(z)
        r = tt_add(tt_add(x, xo, 1.0, -1.0), z, 1.0, scale)
        assert abs(tt_norm(r) / (eps * nx) - 1.0) <= 1e-6

    def test_difference_of_equal_vectors_is_round_off(self, rng):
        x = tt_random([4] * 6, 3, rng=rng)
        xo = orthogonalize(x, "right", 1)
        assert tt_norm(tt_add(x, xo, 1.0, -1.0)) <= 1e-14 * _right_orthogonal_norm(x)

    def test_single_core_exact(self, rng):
        core = rng.standard_normal((1, 7, 1))
        assert tt_norm(TTVector([core])) == np.linalg.norm(core)

    def test_zero_cores_exact(self, rng):
        assert tt_norm(TTVector([np.zeros((1, 3, 2)), np.zeros((2, 4, 1))])) == 0.0
        x = tt_random([3, 4, 3], 2, rng=rng)
        x.cores[1] = np.zeros_like(x.cores[1])
        assert tt_norm(x) == 0.0

    def test_matches_dense_norm(self, rng):
        for _ in range(10):
            sizes = random_sizes(rng)
            x = tt_random(sizes, int(rng.integers(1, 5)), rng=rng)
            dense = np.linalg.norm(slow_dense_vector(x))
            assert abs(tt_norm(x) - dense) <= 1e-13 * dense

    @pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-150, 1e150, 1e160, 1e200])
    def test_far_from_unit_scale(self, rng, scale):
        # np.linalg.norm squares its entries: unscaled, the last step reads 0
        # below about 1e-154 and inf above about 1e154
        x = tt_random([4, 4, 4], 2, rng=rng)
        scaled = TTVector([scale * x.cores[0]] + x.cores[1:])
        assert abs(tt_norm(scaled) / scale / tt_norm(x) - 1.0) <= 1e-15


# ----------------------------------------------------------------------
# The planned contraction that replaces np.tensordot on the hot path
# ----------------------------------------------------------------------

# every (a.ndim, b.ndim, axes) the package passes to _contract
PACKAGE_SIGNATURES = [
    (3, 3, (0, 0)),  # SweepState.advance_left
    (4, 4, ((0, 2), (0, 1))),
    (3, 4, ((0, 1), (0, 2))),
    (2, 3, (0, 0)),  # advance_left (rhs), tt_dot
    (3, 3, ((0, 1), (0, 1))),
    (3, 3, (2, 0)),  # advance_right, the residual blocks
    (3, 2, (2, 0)),
    (4, 4, ((1, 2), (1, 3))),
    (4, 3, ((1, 3), (2, 1))),
    (3, 3, ((1, 2), (1, 2))),
    (4, 4, (3, 0)),  # _merge_op_cores (vector cores too)
    (5, 3, (4, 1)),  # _Workspace.build
    (2, 3, (1, 0)),  # _local_rhs, _residual_first_block, the ALS residual core
    (3, 2, (2, 1)),
    (3, 3, (2, 1)),  # _residual_block_product, factored
    (4, 4, ((2, 3), (1, 2))),
    (3, 4, (1, 0)),  # EnrichmentState._update_residual_core
    (5, 3, ((1, 3), (0, 1))),
    (4, 3, ((2, 3), (1, 2))),
    (4, 3, (2, 1)),  # _matvec_core
]


def _summed_axes(nda, axes):
    if isinstance(axes, int):
        return list(range(nda - axes, nda)), list(range(axes))
    return [list(ax) if isinstance(ax, tuple) else [ax] for ax in axes]


def _operands(rng, nda, ndb, axes, dtype=np.float64):
    """Random operands whose summed axes agree; every size from 1 to 4."""
    shape_a = [int(n) for n in rng.integers(1, 5, nda)]
    shape_b = [int(n) for n in rng.integers(1, 5, ndb)]
    for i, j in zip(*_summed_axes(nda, axes)):
        shape_b[j] = shape_a[i]
    a = rng.standard_normal(shape_a) * 10
    b = rng.standard_normal(shape_b) * 10
    return a.astype(dtype), b.astype(dtype)


def _assert_same(a, b, axes):
    got, want = _contract(a, b, axes), np.tensordot(a, b, axes)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestContract:
    """``_contract`` gives ``np.tensordot``'s shape, dtype and bytes."""

    @pytest.mark.parametrize("nda, ndb, axes", PACKAGE_SIGNATURES)
    def test_package_signatures(self, rng, nda, ndb, axes):
        for _ in range(3):
            _assert_same(*_operands(rng, nda, ndb, axes), axes)

    @pytest.mark.parametrize(
        "nda, ndb, axes",
        [
            (3, 3, 1),  # an int: the last axes of a with the first of b
            (4, 3, 2),
            (2, 2, 0),  # outer product
            (3, 3, ((2,), (0,))),  # one-axis tuples
            (3, 3, (-1, 0)),  # negative axes
            (4, 4, ((-1, 1), (0, -2))),
        ],
    )
    def test_int_tuple_and_negative_axes(self, rng, nda, ndb, axes):
        _assert_same(*_operands(rng, nda, ndb, axes), axes)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex128])
    def test_dtype(self, rng, dtype):
        _assert_same(*_operands(rng, 4, 3, ((1, 3), (2, 1)), dtype), ((1, 3), (2, 1)))

    def test_non_contiguous_operands(self, rng):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 3, 2))
        _assert_same(a.transpose(2, 1, 0), b, ((0, 1), (0, 1)))  # a transposed view
        _assert_same(a[:, :, ::2], b[::2], (2, 0))  # strided slices
        _assert_same(np.asfortranarray(a), b, (2, 0))
        # a row slice reshaped, as _residual_block_product takes F_next
        ry1, R1, r1, w = 3, 2, 4, 5
        F = rng.standard_normal((ry1 + R1 * r1, w))
        xc = rng.standard_normal((2, 3, r1))
        _assert_same(xc, F[ry1:].reshape(R1, r1, w), (2, 1))
        _assert_same(xc, F[ry1:].reshape(R1, r1, w).transpose(1, 0, 2), (2, 0))

    @pytest.mark.parametrize(
        "shape_a, shape_b, axes",
        [
            ((0, 2, 3), (3, 4), (2, 0)),  # a zero-size free axis
            ((2, 3, 0), (0, 4), (2, 0)),  # a zero-size summed axis: zeros
            ((2, 0, 3), (3, 0, 2), ((0, 2), (2, 0))),  # free zero in both
            ((3, 2), (2, 0), (1, 0)),
        ],
    )
    def test_zero_size_operand(self, rng, shape_a, shape_b, axes):
        _assert_same(rng.standard_normal(shape_a), rng.standard_normal(shape_b), axes)

    def test_plan_holds_no_shapes(self, rng):
        axes = ((1, 3), (2, 1))
        a, b = _operands(rng, 4, 3, axes)
        _assert_same(a, b, axes)
        hits = _contract_plan.cache_info().hits
        c = rng.standard_normal((6, 2, 5, 3))
        d = rng.standard_normal((4, 3, 2))
        _assert_same(c, d, axes)  # same signature, other shapes
        assert _contract_plan.cache_info().hits == hits + 1

    def test_shape_mismatch_raises_as_tensordot(self, rng):
        # the summed sizes multiply to the same K, but the axes differ
        a, b = rng.standard_normal((5, 2, 3)), rng.standard_normal((3, 2, 4))
        axes = ((1, 2), (0, 1))
        with pytest.raises(ValueError):
            np.tensordot(a, b, axes)
        with pytest.raises(ValueError):
            _contract(a, b, axes)
        with pytest.raises(ValueError):
            _contract(a, b, ((1, 1), (0, 1)))  # duplicate axes
        with pytest.raises(ValueError):
            _contract(a, b, ((3,), (0,)))  # out of range


# ----------------------------------------------------------------------
# The dense QR and SVD kernel
# ----------------------------------------------------------------------

KERNEL_SHAPES = [(1, 1), (4, 2), (2, 4), (16, 8), (8, 16), (50, 25), (300, 120), (120, 300)]


def _layouts(rng, shape):
    """The matrix of ``shape`` C-ordered, Fortran-ordered, as a transposed
    view and as a strided slice."""
    m, n = shape
    a = rng.standard_normal(shape)
    return {
        "c": a,
        "fortran": np.asfortranarray(a),
        "transposed": rng.standard_normal((n, m)).T,
        "strided": rng.standard_normal((2 * m, 3 * n))[::2, 1::3],
    }


def _assert_same_factors(got, want):
    """Equal values, dtypes and strides, factor by factor."""
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)
        assert g.dtype == w.dtype and g.shape == w.shape and g.strides == w.strides


def _assert_kernel_matches_numpy(a):
    before = a.copy()
    _assert_same_factors([_qr(a, "r")], [np.linalg.qr(a, mode="r")])
    _assert_same_factors(_qr(a, "reduced"), np.linalg.qr(a))
    _assert_same_factors(_svd(a), np.linalg.svd(a, full_matrices=False))
    assert np.array_equal(a, before, equal_nan=True)


class TestKernel:
    """``_qr`` and ``_svd`` give np.linalg's factors bit for bit, in its layout."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("layout", ["c", "fortran", "transposed", "strided"])
    def test_matches_numpy(self, rng, shape, layout):
        _assert_kernel_matches_numpy(_layouts(rng, shape)[layout])

    def test_zero_and_rank_deficient(self, rng):
        _assert_kernel_matches_numpy(np.zeros((5, 3)))
        _assert_kernel_matches_numpy(np.zeros((3, 5)))
        low = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 7))
        _assert_kernel_matches_numpy(low)
        _assert_kernel_matches_numpy(low.T)

    def test_nan_input_fails_as_numpy_does(self, rng):
        a = rng.standard_normal((6, 4))
        a[2, 1] = np.nan
        before = a.copy()
        # numpy's QR returns NaNs without raising; its SVD raises
        _assert_same_factors([_qr(a, "r")], [np.linalg.qr(a, mode="r")])
        _assert_same_factors(_qr(a, "reduced"), np.linalg.qr(a))
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            np.linalg.svd(a, full_matrices=False)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            _svd(a)
        assert np.array_equal(a, before, equal_nan=True)

    @pytest.mark.parametrize("n", [_MASK_CACHE_COLS, _MASK_CACHE_COLS + 1])
    @pytest.mark.parametrize("layout", ["c", "fortran"])
    def test_r_is_fresh_at_the_cache_bound(self, rng, n, layout):
        a = _layouts(rng, (n + 3, n))[layout]
        r = _qr(a, "r")
        assert ((n, n) in _MASKS) == (n <= _MASK_CACHE_COLS)
        want = np.linalg.qr(a, mode="r")  # np.triu of the factored copy
        _assert_same_factors([r], [want])
        assert r.flags.writeable and r.flags.owndata
        r[:] = np.nan  # a write to one R reaches no mask and no later R
        _assert_same_factors([_qr(a, "r"), _qr(a)[1]], [want, want])
        assert all(not m.flags.writeable for m in _MASKS.values())

    def test_masks_cached_only_up_to_the_bound(self, rng):
        _qr(rng.standard_normal((489, 489)), "r")
        _qr(rng.standard_normal((20, 40)))
        assert (489, 489) not in _MASKS and (20, 40) not in _MASKS
        assert all(n <= _MASK_CACHE_COLS for _, n in _MASKS)

    @staticmethod
    def keep_by_reversed_tail(s, budget, max_rank):
        """The rank rule as it was, on the reversed, negated tail."""
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
        keep = max(int(np.searchsorted(-tail, -budget)), 1)
        return keep if max_rank is None else min(keep, max_rank)

    @pytest.mark.parametrize(
        "budget, max_rank",
        [
            (3.0, None),  # a tie: dropping 3 leaves exactly 3
            (5.0, None),  # a tie: dropping 4 and 3 leaves exactly 5
            (13.0, None),  # a tie with the whole spectrum
            (20.0, None),  # above the total: one column stays
            (2.0, None),  # below sigma_min: every column stays
            (2.0, 2),  # the max_rank cut
            (3.0, 1),
        ],
    )
    def test_svd_trunc_keeps_the_reversed_tail_rank(self, monkeypatch, budget, max_rank):
        s = np.array([12.0, 4.0, 3.0])  # tails 3, 5 and 13, all exact
        monkeypatch.setattr(ttamen.tt, "_svd", lambda M: (np.eye(3), s.copy(), np.eye(3)))
        _, kept, _ = _svd_trunc(np.eye(3), budget, max_rank)
        assert kept.size == self.keep_by_reversed_tail(s, budget, max_rank)

    def test_svd_trunc_keeps_the_reversed_tail_rank_at_every_tie(self, rng):
        M = rng.standard_normal((30, 12)) * np.logspace(0, -10, 12)
        s = _svd(M)[1]
        tails = np.sqrt(np.cumsum(s[::-1] ** 2))
        for budget in [*tails, *np.nextafter(tails, 0), *np.nextafter(tails, np.inf)]:
            for max_rank in (None, 5):
                U, kept, Vt = _svd_trunc(M, budget, max_rank)
                keep = self.keep_by_reversed_tail(s, budget, max_rank)
                assert kept.size == U.shape[1] == Vt.shape[0] == keep

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_pushes_keep_einsums_bits(self, rng, layout):
        def core(shape):
            a = rng.standard_normal(shape)
            if layout == "fortran":
                return np.asfortranarray(a)
            if layout == "strided":
                return rng.standard_normal((2 * shape[0], shape[1], 3 * shape[2]))[::2, :, 1::3]
            return a

        cores = [core((3, 2, 5)), core((5, 4, 6)), core((6, 2, 1))]
        pushed = list(cores)
        _qr_push_right(pushed, 1)
        Q, R = _qr(cores[1].reshape(20, 6))
        _assert_same_factors(
            [pushed[1], pushed[2]],
            [Q.reshape(5, 4, -1), np.einsum("ab,bnc->anc", R, cores[2])],
        )
        pushed = list(cores)
        _lq_push_left(pushed, 1)
        Q, R = _qr(cores[1].reshape(5, 24).T)
        _assert_same_factors(
            [pushed[1], pushed[0]],
            [Q.T.reshape(-1, 4, 6), np.einsum("anb,cb->anc", cores[0], R)],
        )
