"""Environments, local systems, residual blocks, enrichment, and solvers."""

import threading
from dataclasses import replace

import numpy as np
import pytest

import ttamen.amen
from ttamen import (
    CascadeCMESpec,
    EnrichmentState,
    LocalSizeError,
    PoissonSpec,
    SolverConfig,
    TimeSystemSpec,
    als_solve,
    amen_solve,
    amen_sweep,
    assemble_local,
    build_cme_operator,
    build_environments,
    build_initial_state,
    build_poisson,
    build_time_system,
    dmrg_solve,
    enrich_chol,
    enrich_svd,
    exact_residual_core,
    expand_and_orthogonalize,
    frame_matrix,
    orthogonalize,
    pivoted_cholesky,
    qtt_quantize,
    solve_local,
    symmetrize,
    to_dense,
    tt_matvec,
    tt_norm,
    tt_random,
    ttmat_add,
    ttmat_identity,
    ttmat_random,
)
from ttamen.amen import (
    _LOCAL_MAXITER,
    _gram_tails,
    _is_symmetric,
    _local_matrix,
    _LocalOperator,
    _merge_op_cores,
    _psd_sqrt,
    _solve_local_iterative,
    _solve_local_problem,
    vec_core,
)
from ttamen.diagnostics import dense_oracle_solve, subtrain_dense

from conftest import random_spd_system, rel_err


def dense_local_oracle(A, y, x, k):
    """Reduced system via the dense frame matrix (independent assembly)."""
    F = frame_matrix(x, k)
    Ad, yd = to_dense(A), to_dense(y)
    return F.T @ Ad @ F, F.T @ yd


def a_norm(Ad, v):
    return float(np.sqrt(max(v @ (Ad @ v), 0.0)))


# ----------------------------------------------------------------------
# Environments and local systems
# ----------------------------------------------------------------------

class TestEnvironments:
    def test_single_mode_scalar_environments(self, rng):
        A = ttmat_random([5], [5], 1, rng=rng)
        y = tt_random([5], 1, rng=rng)
        x = tt_random([5], 1, rng=rng)
        state = build_environments(A, y, x)
        assert state.left_op[0].shape == (1, 1, 1)
        assert state.right_op[0].shape == (1, 1, 1)

    def test_identity_operator_local_matrix(self, rng):
        d, n = 3, 3
        A = ttmat_identity([n] * d)
        y = tt_random([n] * d, 2, rng=rng)
        x = orthogonalize(tt_random([n] * d, 2, rng=rng), "right", 1)
        x = orthogonalize(x, "left", 1)
        state = build_environments(A, y, x)
        B, _ = assemble_local(state, A, y, x, 1)
        assert np.linalg.norm(B - np.eye(B.shape[0])) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_local_system_matches_frame_oracle(self, rng, k):
        d, n = 3, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 2, rng=rng)
        # make the frame orthonormal around position k, as in a real sweep
        x = orthogonalize(x, "left", pivot=k)
        x = orthogonalize(x, "right", pivot=k)
        state = build_environments(A, y, x)
        for p in range(k - 1):
            state.advance_left(p, A, y, x)
        B, b = assemble_local(state, A, y, x, k)
        B_ref, b_ref = dense_local_oracle(A, y, x, k)
        assert rel_err(B, B_ref) < 1e-11
        assert rel_err(b, b_ref) < 1e-11

    def test_size_mismatch_rejected(self, rng):
        A = ttmat_identity([2, 2])
        y = tt_random([2, 2], 1, rng=rng)
        x = tt_random([2, 3], 1, rng=rng)
        with pytest.raises(ValueError):
            build_environments(A, y, x)

    def test_local_size_error(self, rng):
        d, n = 3, 8
        A = ttmat_identity([n] * d)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 6, rng=rng)
        state = build_environments(A, y, x)
        with pytest.raises(LocalSizeError):
            assemble_local(state, A, y, x, 2, max_size=10)

    def test_matrix_free_apply_matches_dense(self, rng):
        d, n = 3, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 3, rng=rng)
        state = build_environments(A, y, x)
        B, _ = assemble_local(state, A, y, x, 1)
        v = x.cores[0]
        out = _LocalOperator(state.left_op[0], A.cores[0], state.right_op[0]).apply(v)
        assert rel_err(vec_core(out), B @ vec_core(v)) < 1e-12


def _local_operator_case(case, rng):
    """(local operator, its dense matrix) for one of three shape regimes."""
    if case == "two_site":
        d, n = 5, 4
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 8, rng=rng)  # ranks 1, 4, 8, 8, 4, 1
        state = build_environments(A, y, x)
        for p in range(2):
            state.advance_left(p, A, y, x)
        L, R = state.left_op[2], state.right_op[3]
        A12 = _merge_op_cores(A.cores[2], A.cores[3])
        return _LocalOperator(L, A12, R), _local_matrix(L, A12, R)
    if case == "large_mode":  # core (8, 32, 4), operator ranks 2
        d, n, ranks, op_rank = 3, 32, [1, 8, 4, 1], 2
    else:  # QTT: core (8, 2, 8), operator ranks 4
        d, n, ranks, op_rank = 6, 2, 8, 4
    A = ttmat_random([n] * d, [n] * d, op_rank, rng=rng)
    y = tt_random([n] * d, 2, rng=rng)
    x = tt_random([n] * d, ranks, rng=rng)
    k = 2 if case == "large_mode" else 3
    state = build_environments(A, y, x)
    for p in range(k - 1):
        state.advance_left(p, A, y, x)
    B, _ = assemble_local(state, A, y, x, k)
    L, Ac, R = state.left_op[k - 1], A.cores[k - 1], state.right_op[k - 1]
    return _LocalOperator(L, Ac, R), B


class TestLocalOperator:
    """The matrix-free local product, in its factored and merged orders."""

    CASES = ["large_mode", "qtt", "two_site"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense(self, rng, case):
        loc, B = _local_operator_case(case, rng)
        v = rng.standard_normal(B.shape[1])
        assert rel_err(loc.matvec(v), B @ v) < 1e-12
        core = rng.standard_normal(loc.in_shape)  # C-ordered, unlike a vector view
        out = loc.apply(core)
        assert out.shape == loc.out_shape
        assert rel_err(vec_core(out), B @ vec_core(core)) < 1e-12

    @pytest.mark.parametrize(
        "case, factored", [("large_mode", True), ("qtt", False), ("two_site", True)]
    )
    def test_order_follows_flop_ratio(self, rng, case, factored):
        loc, _ = _local_operator_case(case, rng)
        assert loc.factored is factored

    def test_iterative_solve_on_large_modes(self):
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=32))
        tol = 1e-6
        x, log = amen_solve(A, y, config=SolverConfig(tol=tol, max_direct_size=0))
        assert log.status == "converged"
        assert log.final_residual <= tol


class TestLocalSolvers:
    def test_direct_solve(self, rng):
        B = rng.standard_normal((20, 20)) + 20 * np.eye(20)
        b = rng.standard_normal(20)
        u, info = solve_local(B, b)
        assert not info.get("fallback", False)
        assert rel_err(B @ u, b) < 1e-10

    def test_singular_falls_back_to_lstsq(self, rng):
        B = np.zeros((4, 4))
        B[0, 0] = 1.0
        b = np.array([1.0, 0.0, 0.0, 0.0])
        u, info = solve_local(B, b)
        assert info.get("fallback", False)
        assert rel_err(B @ u, b) < 1e-10

    @pytest.mark.parametrize("singular", [False, True])
    def test_reports_its_residual(self, rng, singular):
        B = rng.standard_normal((20, 20)) + 20 * np.eye(20)
        if singular:
            B[:, 3] = 0.0
        b = rng.standard_normal(20)
        u, info = solve_local(B, b)
        assert info["fallback"] is singular
        assert info["residual"] == np.linalg.norm(b - B @ u)

    def test_iterative_matches_direct(self, rng):
        d, n = 3, 3
        A, y = random_spd_system(d, n, rng)
        x = tt_random([n] * d, 2, rng=rng)
        x = orthogonalize(x, "right", 1)
        state = build_environments(A, y, x)
        B, b = assemble_local(state, A, y, x, 1)
        ref = np.linalg.solve(B, b)
        loc = _LocalOperator(state.left_op[0], A.cores[0], state.right_op[0])
        u, info = _solve_local_iterative(loc, b, np.zeros_like(b), 1e-12, symmetric=True)
        assert rel_err(u, ref) < 1e-8


class _KrylovSpy:
    """Stand-in for ``scipy.sparse.linalg`` in ``ttamen.amen``.

    Records ``[solver, products]`` for every CG and GMRES call.
    """

    def __init__(self, real):
        self._real = real
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._real, name)

    def _run(self, name, op, b, **kwargs):
        call = [name, 0]
        self.calls.append(call)

        def matvec(v):
            call[1] += 1
            return op.matvec(v)

        counted = self._real.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return getattr(self._real, name)(counted, b, **kwargs)

    def cg(self, op, b, **kwargs):
        return self._run("cg", op, b, **kwargs)

    def gmres(self, op, b, **kwargs):
        return self._run("gmres", op, b, **kwargs)


def _nonsymmetric_system(d, n, rng):
    noise = ttmat_random([n] * d, [n] * d, 2, rng=rng)
    A = ttmat_add(ttmat_identity([n] * d), noise, 8.0, 1.0)  # dominant, invertible
    return A, tt_random([n] * d, 2, rng=rng)


def _qtt_cme_system():
    """A small QTT CME time system: 20 binary cores, strongly nonsymmetric."""
    spec = CascadeCMESpec(species=4, states=8)
    A = qtt_quantize(build_cme_operator(spec), tol=1e-13)
    psi0 = qtt_quantize(build_initial_state(spec), tol=1e-13)
    M, _ = build_time_system(A, psi0, TimeSystemSpec(tau=0.1, n_steps=256))
    return qtt_quantize(M, tol=1e-13)


class TestLocalProblemLayer:
    """AMEn, ALS and DMRG share one local solve, capped by ``max_direct_size``."""

    @staticmethod
    def spy(monkeypatch):
        """(Krylov calls, local products, direct solves) of the code under test."""
        krylov = _KrylovSpy(ttamen.amen.spla)
        monkeypatch.setattr(ttamen.amen, "spla", krylov)
        products, direct = [], []
        real_matvec, real_direct = _LocalOperator.matvec, ttamen.amen.solve_local

        def matvec(self, v):
            products.append(v.size)
            return real_matvec(self, v)

        def solve_local(B, b):
            direct.append(b.size)
            return real_direct(B, b)

        monkeypatch.setattr(_LocalOperator, "matvec", matvec)
        monkeypatch.setattr(ttamen.amen, "solve_local", solve_local)
        return krylov, products, direct

    @pytest.mark.parametrize("solve", [amen_solve, dmrg_solve])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_forced_iterative_runs(self, rng, monkeypatch, solve, symmetric):
        build = random_spd_system if symmetric else _nonsymmetric_system
        A, y = build(3, 4, rng)
        krylov, products, direct = self.spy(monkeypatch)
        config = SolverConfig(tol=1e-8, max_sweeps=4, max_direct_size=0)
        x, log = solve(A, y, config=config)
        local_solves = sum(len(r.mu) for r in log.records)
        assert local_solves > 0 and not direct
        # one CG (symmetric) or GMRES call per local solve, decided from A
        assert [name for name, _ in krylov.calls] == local_solves * (
            ["cg"] if symmetric else ["gmres"]
        )
        # outside the Krylov loop: the residuals before and after, nothing else
        inside = sum(count for _, count in krylov.calls)
        assert len(products) - inside == 2 * local_solves

    def test_dmrg_iterative_matches_direct(self, rng):
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-11, max_direct_size=0)
        x_it, log_it = dmrg_solve(A, y, config=config)
        x_d, log_d = dmrg_solve(A, y, config=replace(config, max_direct_size=1 << 16))
        assert log_it.status == log_d.status == "converged"
        assert rel_err(to_dense(x_it), to_dense(x_d)) < 1e-8

    @pytest.mark.parametrize("cap", [0, 1 << 16])
    def test_one_and_two_site_entries_match(self, rng, cap):
        A, y = random_spd_system(3, 4, rng)
        x = orthogonalize(tt_random(A.col_sizes, 2, rng=rng), "right", 1)
        state = build_environments(A, y, x)
        config = SolverConfig(tol=1e-8, max_direct_size=cap)
        one, entry1 = _solve_local_problem(state, A, y, x, 0, 1, config)
        two, entry2 = _solve_local_problem(state, A, y, x, 0, 2, config)
        assert one.shape == x.cores[0].shape
        assert two.shape == (1, 16, x.cores[1].shape[2])
        assert entry1.keys() == entry2.keys()
        keys = {"k", "local_res_before", "local_res_after", "mu", "fallback"}
        assert set(entry1) == keys

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_krylov_stops_within_the_product_cap(self, rng, monkeypatch, symmetric):
        # a singular system with the rhs outside the range: no solve converges
        n = 60
        M = rng.standard_normal((n, n - 1))
        M = M @ M.T if symmetric else np.hstack([M, np.zeros((n, 1))])
        b = np.linalg.svd(M)[0][:, -1] + rng.standard_normal(n)  # leaves the range
        loc = _LocalOperator(np.ones((1, 1, 1)), M.reshape(1, n, n, 1), np.ones((1, 1, 1)))
        krylov, _, _ = self.spy(monkeypatch)
        u, info = _solve_local_iterative(loc, b, np.zeros(n), 1e-12, symmetric=symmetric)
        assert info["gmres_info"] > 0
        solvers = [name for name, _ in krylov.calls]
        assert solvers == (["cg", "gmres"] if symmetric else ["gmres"])
        # GMRES also recomputes its residual once per restart cycle (n steps)
        for _, count in krylov.calls:
            assert count <= _LOCAL_MAXITER + _LOCAL_MAXITER // n + 1

    def test_symmetry_is_read_from_the_operator(self, rng):
        assert _is_symmetric(random_spd_system(3, 4, rng)[0])
        A, _ = build_poisson(PoissonSpec(dimension=2, grid_points=64))
        assert _is_symmetric(qtt_quantize(A, tol=1e-13))  # 12 binary cores
        AtA, _ = symmetrize(*_nonsymmetric_system(3, 4, rng))
        assert _is_symmetric(AtA)
        assert not _is_symmetric(_nonsymmetric_system(3, 4, rng)[0])
        assert not _is_symmetric(_qtt_cme_system())
        assert not _is_symmetric(ttmat_random([3, 3], [4, 4], 2, rng=rng))


# ----------------------------------------------------------------------
# Exact residual blocks
# ----------------------------------------------------------------------

class TestResidualBlocks:
    @pytest.mark.parametrize("k", [1, 2])
    def test_blocks_contract_to_reduced_residual(self, rng, k):
        """head + tails equal y_k - A_k u in the reduced (projected) system.

        Positions 1..d-1 only: that is where the sweep consumes the blocks
        (the last core gets no enrichment).
        """
        d, n = 3, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 2, rng=rng)
        x = orthogonalize(x, "left", pivot=k)
        state = build_environments(A, y, x)
        for p in range(k - 1):
            state.advance_left(p, A, y, x)
        u_core = rng.standard_normal(x.cores[k - 1].shape)
        head, tails = exact_residual_core(state, A, y, x, u_core, k)
        z = subtrain_dense([head] + tails)
        # reference: project y - A*(left-interface (x) [u, tail cores])
        from ttamen.tt import _left_interface
        xu = x.copy()
        xu.cores[k - 1] = u_core
        L = _left_interface(x.cores[: k - 1])
        rest = int(np.prod(x.mode_sizes[k - 1:]))
        X = np.kron(np.eye(rest), L)
        ref = X.T @ (to_dense(y) - to_dense(A) @ to_dense(xu))
        assert rel_err(z, ref) < 1e-11

    def test_tails_reusable_across_head_positions(self, rng):
        """Right blocks built at sweep start stay valid for every later head."""
        d, n = 4, 2
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = orthogonalize(tt_random([n] * d, 2, rng=rng), "right", 1)
        state = build_environments(A, y, x)
        ens = EnrichmentState("svd", 2, rng=rng)
        ens.prepare_sweep(A, y, x)
        for k in range(1, d):
            u_core = x.cores[k - 1]
            _, tails = exact_residual_core(state, A, y, x, u_core, k)
            for t, cached in zip(tails, ens._tails[k:]):
                assert rel_err(t, cached) < 1e-14
            state.advance_left(k - 1, A, y, x)


# ----------------------------------------------------------------------
# Enrichment back-ends
# ----------------------------------------------------------------------

class TestGramAndCholesky:
    def test_gram_tails_match_dense(self, rng):
        blocks = [rng.standard_normal((3, 2, 4)), rng.standard_normal((4, 2, 1))]
        E = _gram_tails(blocks)
        W = subtrain_dense(blocks).reshape(-1)  # not used; interface below
        # dense right interface of the chain starting at block j
        from ttamen.tt import _right_interface
        for j in range(2):
            R = _right_interface(blocks[j:])
            assert rel_err(E[j], R @ R.T) < 1e-12

    def test_psd_sqrt(self, rng):
        M = rng.standard_normal((5, 5))
        G = M @ M.T
        C = _psd_sqrt(G)
        assert rel_err(C @ C.T, G) < 1e-10

    def test_pivoted_cholesky_full_rank(self, rng):
        M = rng.standard_normal((6, 6))
        G = M @ M.T
        L = pivoted_cholesky(G, 6)
        assert rel_err(L @ L.T, G) < 1e-10

    def test_pivoted_cholesky_rank_deficient(self, rng):
        M = rng.standard_normal((6, 2))
        G = M @ M.T
        L = pivoted_cholesky(G, 5)
        assert L.shape[1] == 2
        assert rel_err(L @ L.T, G) < 1e-10

    def test_pivoted_cholesky_pivot_order(self):
        G = np.diag([1.0, 3.0, 2.0])
        L = pivoted_cholesky(G, 2)
        # largest diagonal first, then the runner-up
        assert abs(L[1, 0] - np.sqrt(3.0)) < 1e-14
        assert abs(L[2, 1] - np.sqrt(2.0)) < 1e-14

    def test_pivoted_cholesky_tie_break_lowest_index(self):
        G = np.eye(3)
        L = pivoted_cholesky(G, 1)
        assert L[0, 0] == 1.0 and L[1, 0] == 0.0


class TestEnrichmentSubspaces:
    @staticmethod
    def residual_fixture(rng, r0=2, n=3, width=3, tail=5):
        """Low-rank local residual as (head, tail Gram); returns dense too."""
        head = rng.standard_normal((r0, n, width))
        tail_factor = rng.standard_normal((width, tail))
        M = head.reshape(r0 * n, width, order="F")
        gram = tail_factor @ tail_factor.T
        dense_unfold = M @ tail_factor
        return head, gram, dense_unfold

    def test_svd_recovers_exact_subspace(self, rng):
        head, gram, dense = self.residual_fixture(rng)
        Z, info = enrich_svd(head, gram, 3)
        U, s, _ = np.linalg.svd(dense, full_matrices=False)
        k = int(np.sum(s > 1e-12 * s[0]))
        Zm = Z.reshape(-1, Z.shape[2], order="F")
        # principal angles between the two k-dimensional subspaces
        ang = np.linalg.svd(Zm[:, :k].T @ U[:, :k], compute_uv=False)
        assert np.all(ang > 1 - 1e-8)

    def test_svd_zero_residual(self):
        head = np.zeros((2, 3, 2))
        Z, info = enrich_svd(head, np.eye(2), 3)
        assert Z is None and info["width"] == 0

    def test_svd_width_capped_by_numerical_rank(self, rng):
        head, gram, _ = self.residual_fixture(rng, width=1)
        Z, info = enrich_svd(head, gram, 4)
        assert info["width"] == 1 and Z.shape[2] == 1

    def test_chol_matches_svd_on_separated_spectrum(self, rng):
        head, gram, dense = self.residual_fixture(rng)
        Zs, _ = enrich_svd(head, gram, 3)
        Zc, _ = enrich_chol(head, gram, 3)
        Us = Zs.reshape(-1, Zs.shape[2], order="F")
        Uc = Zc.reshape(-1, Zc.shape[2], order="F")
        ang = np.linalg.svd(Us.T @ Uc, compute_uv=False)
        assert np.all(ang > 1 - 1e-6)

    def test_chol_rank_one_gram(self, rng):
        head = rng.standard_normal((2, 2, 1))
        gram = np.array([[2.0]])
        Z, info = enrich_chol(head, gram, 3)
        assert info["width"] == 1

    def test_orthonormal_columns(self, rng):
        head, gram, _ = self.residual_fixture(rng)
        for fn in (enrich_svd, enrich_chol):
            Z, _ = fn(head, gram, 2)
            M = Z.reshape(-1, Z.shape[2], order="F")
            assert np.linalg.norm(M.T @ M - np.eye(M.shape[1])) < 1e-12


# ----------------------------------------------------------------------
# Basis expansion
# ----------------------------------------------------------------------

class TestExpansion:
    def test_expansion_preserves_vector(self, rng):
        x = tt_random([3, 3, 3], 2, rng=rng)
        ref = to_dense(x)
        for k in [1, 2]:
            Z = rng.standard_normal((x.cores[k - 1].shape[0], 3, 2))
            y = expand_and_orthogonalize(x, k, Z)
            # widened by 2, but QR caps the rank at the unfolding's row count
            cap = x.cores[k - 1].shape[0] * x.cores[k - 1].shape[1]
            assert y.ranks[k] == min(x.ranks[k] + 2, cap)
            assert rel_err(to_dense(y), ref) < 1e-12
            r, n, R = y.cores[k - 1].shape
            M = y.cores[k - 1].reshape(r * n, R)
            assert np.linalg.norm(M.T @ M - np.eye(R)) < 1e-12

    def test_none_block_only_orthogonalizes(self, rng):
        x = tt_random([3, 3], 2, rng=rng)
        y = expand_and_orthogonalize(x, 1, None)
        assert y.ranks == x.ranks
        assert rel_err(to_dense(y), to_dense(x)) < 1e-12

    def test_invalid_position(self, rng):
        x = tt_random([3, 3], 2, rng=rng)
        with pytest.raises(ValueError):
            expand_and_orthogonalize(x, 2, None)


# ----------------------------------------------------------------------
# Sweeps and drivers
# ----------------------------------------------------------------------

class TestSweep:
    def test_identity_solved_in_one_sweep(self, rng):
        d, n = 3, 4
        A = ttmat_identity([n] * d)
        y = tt_random([n] * d, 2, rng=rng)
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-10, max_sweeps=2))
        assert log.status == "converged"
        assert len(log.records) == 1
        assert rel_err(to_dense(x), to_dense(y)) < 1e-9

    def test_energy_monotone_within_sweep(self, rng):
        A, y = random_spd_system(3, 4, rng)
        Ad, yd = to_dense(A), to_dense(y)
        xs = np.linalg.solve(Ad, yd)
        x = orthogonalize(tt_random(A.col_sizes, 2, rng=rng), "right", 1)

        energies = []

        class Rec:
            def on_sweep_start(self, x):
                pass

            def on_core_start(self, k0, x):
                pass

            def on_core_solved(self, k0, u_core):
                pass

            def on_core_done(self, k0, xc):
                e = xs - to_dense(xc)
                energies.append(e @ (Ad @ e))

        state = build_environments(A, y, x)
        config = SolverConfig(tol=1e-12, max_direct_size=1 << 16)
        ens = EnrichmentState("svd", 2, rng=rng)
        ens.prepare_sweep(A, y, x)
        amen_sweep(x, A, y, state, ens, config, recorder=Rec())
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-9 * max(energies))

    def test_no_enrichment_on_last_core(self, rng):
        A, y = random_spd_system(3, 3, rng)
        x = orthogonalize(tt_random(A.col_sizes, 2, rng=rng), "right", 1)
        state = build_environments(A, y, x)
        ens = EnrichmentState("svd", 2, rng=rng)
        ens.prepare_sweep(A, y, x)
        out, _, _, stats = amen_sweep(x, A, y, state, ens, SolverConfig(tol=1e-8))
        assert "enrich_width" in stats[0]
        assert "enrich_width" not in stats[-1]


class TestSolvers:
    @pytest.mark.parametrize("enrichment", ["svd", "chol", "als"])
    def test_spd_accuracy_all_enrichments(self, enrichment):
        rng = np.random.default_rng(99)
        A, y = random_spd_system(3, 4, rng)
        Ad, yd = to_dense(A), to_dense(y)
        xs = dense_oracle_solve(Ad, yd)
        x, log = amen_solve(
            A, y, config=SolverConfig(tol=1e-9, enrichment=enrichment, kickrank=2)
        )
        err = a_norm(Ad, to_dense(x) - xs) / a_norm(Ad, xs)
        assert err <= 1e-8
        assert log.status == "converged"

    def test_nonsymmetric_solve(self, rng):
        d, n = 3, 4
        N = rng.standard_normal((n * n * n, 1))  # just for seeding variety
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        from ttamen import ttmat_add
        A = ttmat_add(ttmat_identity([n] * d), A, 8.0, 1.0)  # dominant, invertible
        y = tt_random([n] * d, 2, rng=rng)
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-8, max_sweeps=30))
        assert log.final_residual <= 1e-8

    def test_forced_iterative_path(self, rng):
        A, y = random_spd_system(3, 4, rng)
        x, log = amen_solve(
            A, y, config=SolverConfig(tol=1e-7, max_direct_size=0)
        )
        assert log.status == "converged"
        res = tt_norm(
            __import__("ttamen").tt_add(y, tt_matvec(A, x), 1.0, -1.0)
        ) / tt_norm(y)
        assert res <= 1e-6

    def test_max_rank_cap_respected(self, rng):
        A, y = random_spd_system(4, 4, rng)
        x, log = amen_solve(
            A, y, config=SolverConfig(tol=1e-12, max_sweeps=5, max_rank=3)
        )
        assert max(x.ranks) <= 3

    def test_als_fixed_ranks(self, rng):
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 3, rng=rng)
        x, log = als_solve(A, y, x0=x0, config=SolverConfig(tol=1e-9, max_sweeps=8))
        assert max(x.ranks) <= max(x0.ranks)

    def test_als_reports_stall_honestly(self, rng):
        """Rank-1 iterate on a problem needing higher rank must not claim convergence."""
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 1, rng=rng)
        x, log = als_solve(A, y, x0=x0, config=SolverConfig(tol=1e-10, max_sweeps=10))
        assert log.status in ("stalled", "max_sweeps")

    def test_dmrg_adapts_ranks_and_converges(self, rng):
        A, y = random_spd_system(3, 4, rng)
        Ad, yd = to_dense(A), to_dense(y)
        xs = dense_oracle_solve(Ad, yd)
        x, log = dmrg_solve(A, y, config=SolverConfig(tol=1e-9))
        assert log.status == "converged"
        assert rel_err(to_dense(x), xs) < 1e-7

    def test_dmrg_iterative_path(self, rng):
        A, y = random_spd_system(3, 4, rng)
        x, log = dmrg_solve(
            A, y, config=SolverConfig(tol=1e-7, max_direct_size=0)
        )
        assert log.final_residual <= 1e-7

    def test_deterministic_given_seed(self):
        A, y = random_spd_system(3, 4, np.random.default_rng(5))
        r1 = amen_solve(A, y, config=SolverConfig(tol=1e-8, seed=3))[1]
        r2 = amen_solve(A, y, config=SolverConfig(tol=1e-8, seed=3))[1]
        assert [r.rel_residual for r in r1.records] == [r.rel_residual for r in r2.records]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0)
        with pytest.raises(ValueError):
            SolverConfig(enrichment="bogus")
        with pytest.raises(ValueError):
            SolverConfig(kickrank=0)


class TestGlobalResidual:
    def test_reported_residual_is_exact(self):
        # the solver's residual is the unrounded ||y - A x|| / ||y||
        A, y = build_poisson(PoissonSpec(dimension=3, grid_points=8))
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-5))
        Ad, yd = to_dense(A), to_dense(y)
        dense = np.linalg.norm(yd - Ad @ to_dense(x)) / np.linalg.norm(yd)
        assert abs(log.final_residual - dense) <= 1e-10 * dense

    @pytest.mark.parametrize("solve", [amen_solve, als_solve, dmrg_solve])
    def test_check_needs_no_rounding(self, rng, monkeypatch, solve):
        def no_rounding(*args, **kwargs):
            raise AssertionError("the residual check must not round")

        monkeypatch.setattr(ttamen.amen, "tt_round", no_rounding)
        A, y = random_spd_system(3, 4, rng)
        x, log = solve(A, y, config=SolverConfig(tol=1e-8, max_sweeps=3))
        assert log.records
        assert np.isfinite(log.final_residual)


class _InlinePool(ttamen.amen._InlineExecutor):
    """Stand-in for the solve's helper thread that runs every task at once."""

    def __init__(self, max_workers):
        pass

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _run_columns(log):
    return [
        (r.rel_residual, r.max_rank, r.local_converged, r.mu, r.omega_surrogate)
        for r in log.records
    ]


def _core_bytes(x):
    return [c.tobytes() for c in x.cores]


class TestHelperThread:
    """The enrichment set-up runs on one helper thread per solve."""

    @staticmethod
    def problem():
        return build_poisson(PoissonSpec(dimension=4, grid_points=8))

    @staticmethod
    def record_threads(monkeypatch, name):
        """Wrap ``ttamen.amen.<name>`` to note the thread each call runs on."""
        threads = []
        real = getattr(ttamen.amen, name)

        def spy(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(ttamen.amen, name, spy)
        return threads

    @pytest.mark.parametrize(
        "enrichment,task", [("svd", "_psd_sqrt"), ("chol", "_gram_tails")]
    )
    def test_same_run_with_helper_thread_and_inline(self, monkeypatch, enrichment, task):
        A, y = self.problem()
        config = SolverConfig(tol=1e-7, enrichment=enrichment, seed=2)
        threads = self.record_threads(monkeypatch, task)
        x1, log1 = amen_solve(A, y, config=config)
        assert threads and threading.main_thread() not in threads
        monkeypatch.setattr(ttamen.amen, "ThreadPoolExecutor", _InlinePool)
        threads.clear()
        x2, log2 = amen_solve(A, y, config=config)
        assert set(threads) == {threading.current_thread()}
        assert log1.status == log2.status == "converged"
        assert _run_columns(log1) == _run_columns(log2)
        assert _core_bytes(x1) == _core_bytes(x2)

    def test_worker_failure_propagates(self, monkeypatch):
        threads = []

        def failing_sqrt(G):
            threads.append(threading.current_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(ttamen.amen, "_psd_sqrt", failing_sqrt)
        A, y = self.problem()
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            amen_solve(A, y, config=SolverConfig(tol=1e-7))
        assert threads and threading.main_thread() not in threads

    def test_no_thread_outlives_a_solve(self, monkeypatch):
        A, y = self.problem()
        baseline = threading.active_count()
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-7))
        assert log.status == "converged"
        assert threading.active_count() == baseline
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-12, max_sweeps=2))
        assert log.status == "max_sweeps"
        assert threading.active_count() == baseline

        def failing_sqrt(G):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(ttamen.amen, "_psd_sqrt", failing_sqrt)
        with pytest.raises(np.linalg.LinAlgError):
            amen_solve(A, y, config=SolverConfig(tol=1e-7))
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("enrichment", ["svd", "chol"])
    def test_repeat_runs_identical_bytes(self, enrichment):
        # at the machine's default BLAS thread count, with the helper thread
        # running BLAS alongside the solve
        A, y = build_poisson(PoissonSpec(dimension=6, grid_points=16))
        config = SolverConfig(tol=1e-8, enrichment=enrichment, seed=4)
        x1, log1 = amen_solve(A, y, config=config)
        x2, log2 = amen_solve(A, y, config=config)
        assert log1.status == log2.status
        assert _run_columns(log1) == _run_columns(log2)
        assert _core_bytes(x1) == _core_bytes(x2)


class TestSweepPreparation:
    """Only svd/chol set up a sweep before the residual check says it runs."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    @pytest.mark.parametrize(
        "solve, enrichment",
        [(amen_solve, "als"), (amen_solve, "none"), (als_solve, "svd"), (dmrg_solve, "svd")],
    )
    def test_no_set_up_after_the_last_sweep(self, rng, monkeypatch, solve, enrichment):
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 4, rng=rng)  # full rank: ALS converges too
        orth = self.count_calls(monkeypatch, ttamen.amen, "orthogonalize")
        prep = self.count_calls(monkeypatch, EnrichmentState, "prepare_sweep")
        config = SolverConfig(tol=1e-9, enrichment=enrichment, max_sweeps=10)
        x, log = solve(A, y, x0=x0, config=config)
        assert log.status == "converged"
        sweeps = len(log.records)
        als = solve is amen_solve and enrichment == "als"
        # one orthogonalization of x per sweep; ALS set-up also
        # orthogonalizes its residual approximant
        assert len(orth) == (2 * sweeps if als else sweeps)
        assert len(prep) == (sweeps if als else 0)

    @pytest.mark.parametrize("enrichment", ["svd", "chol"])
    def test_helper_set_up_starts_before_the_check(self, rng, monkeypatch, enrichment):
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 1, rng=rng)
        prep = self.count_calls(monkeypatch, EnrichmentState, "prepare_sweep")
        config = SolverConfig(tol=1e-9, enrichment=enrichment, max_sweeps=10)
        x, log = amen_solve(A, y, x0=x0, config=config)
        assert log.status == "converged"
        assert not log.records[-1].local_converged
        assert len(prep) == len(log.records) + 1


class TestSymmetrize:
    def test_normal_equations_match_dense(self, rng):
        A = ttmat_random([3, 3], [3, 3], 2, rng=rng)
        y = tt_random([3, 3], 2, rng=rng)
        AtA, Aty = symmetrize(A, y)
        Ad = to_dense(A)
        assert rel_err(to_dense(AtA), Ad.T @ Ad) < 1e-11
        assert rel_err(to_dense(Aty), Ad.T @ to_dense(y)) < 1e-11

    def test_rank_cap_requires_round_tol(self, rng):
        A = ttmat_random([2] * 3, [2] * 3, 2, rng=rng)
        with pytest.raises(ValueError):
            symmetrize(A, tt_random([2] * 3, 1, rng=rng), rank_cap=2)

    def test_solve_after_symmetrization(self, rng):
        from ttamen import ttmat_add
        A = ttmat_add(
            ttmat_identity([3, 3, 3]),
            ttmat_random([3] * 3, [3] * 3, 2, rng=rng),
            6.0,
            1.0,
        )
        y = tt_random([3] * 3, 2, rng=rng)
        AtA, Aty = symmetrize(A, y)
        x, log = amen_solve(AtA, Aty, config=SolverConfig(tol=1e-9, max_sweeps=30))
        xs = np.linalg.solve(to_dense(A), to_dense(y))
        assert rel_err(to_dense(x), xs) < 1e-6
