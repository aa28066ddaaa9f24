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
    TTVector,
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
    tt_add,
    tt_matvec,
    tt_norm,
    tt_random,
    ttmat_add,
    ttmat_identity,
    ttmat_random,
)
from ttamen.amen import (
    _LOCAL_MAXITER,
    _is_symmetric,
    _local_matrix,
    _LocalOperator,
    _merge_op_cores,
    _psd_sqrt,
    _residual_factored,
    _residual_sweep,
    _solve_local_iterative,
    _solve_local_problem,
    vec_core,
)
from ttamen.diagnostics import dense_oracle_solve, subtrain_dense
from ttamen.tt import _right_interface

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
    """Stand-in for ``ttamen.krylov`` in ``ttamen.amen``.

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
        entries = []
        real_solve = ttamen.amen._solve_local_problem

        def solve_local_problem(*args):
            out = real_solve(*args)
            entries.append(out[1])
            return out

        monkeypatch.setattr(ttamen.amen, "_solve_local_problem", solve_local_problem)
        config = SolverConfig(tol=1e-8, max_sweeps=4, max_direct_size=0)
        x, log = solve(A, y, config=config)
        local_solves = sum(len(r.mu) for r in log.records)
        assert local_solves > 0 and not direct
        # every matrix-free solve reaches tol/100, relative to norm(b)
        assert len(entries) == local_solves
        assert all(e["local_res_after"] <= config.tol / 100 for e in entries)
        # one CG (symmetric) or GMRES call per local solve, decided from A
        assert [name for name, _ in krylov.calls] == local_solves * (
            ["cg"] if symmetric else ["gmres"]
        )
        # outside the Krylov loop: the initial residual, and after CG the
        # final one (GMRES returns the norm of the residual it computes last)
        inside = sum(count for _, count in krylov.calls)
        assert len(products) - inside == (2 if symmetric else 1) * local_solves
        # each entry names its path and counts every product of its solve
        assert {e["path"] for e in entries} == {"cg" if symmetric else "gmres"}
        assert sum(e["products"] for e in entries) == len(products)
        assert [p for r in log.records for p in r.local_path] == [e["path"] for e in entries]
        assert [n for r in log.records for n in r.local_products] == [
            e["products"] for e in entries
        ]

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
        assert set(entry1) == keys | {"path", "products"}
        assert entry1["path"] == ("cg" if cap == 0 else "direct")
        assert (entry1["products"] > 0) == (cap == 0)

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

    @pytest.mark.parametrize("mode, direct_path", [(16, True), (17, False)])
    def test_default_cap_is_512_unknowns(self, rng, monkeypatch, mode, direct_path):
        # the middle core (4, mode, 8) has 512 or 544 unknowns
        sizes = [8, mode, 8]
        A = ttmat_identity(sizes)
        y = tt_random(sizes, 2, rng=rng)
        x = TTVector(
            [
                rng.standard_normal((1, 8, 4)),
                rng.standard_normal((4, mode, 8)),
                rng.standard_normal((8, 8, 1)),
            ]
        )
        x = orthogonalize(orthogonalize(x, "left", 2), "right", 2)
        state = build_environments(A, y, x)
        state.advance_left(0, A, y, x)
        krylov, _, direct = self.spy(monkeypatch)
        _solve_local_problem(state, A, y, x, 1, 1, SolverConfig())
        if direct_path:
            assert direct == [512] and not krylov.calls
        else:
            assert not direct and [name for name, _ in krylov.calls] == ["cg"]

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
        """Tail factors built at sweep start stay valid for every later head."""
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
            R = _right_interface(tails)
            F = ens._factors[k]
            assert rel_err(F @ F.T, R @ R.T) < 1e-12
            state.advance_left(k - 1, A, y, x)


def _chain_sweep(A, y, x):
    """Reference for ``_residual_sweep``: the R-only QR sweep over the chain
    ``tt_add(y, tt_matvec(A, x), 1, -1)``, built in full."""
    r = tt_add(y, tt_matvec(A, x), 1.0, -1.0)
    d = r.d
    F = [None] * (d + 1)
    F[d] = np.ones((1, 1))
    for p in range(d - 1, 0, -1):
        core = r.cores[p]
        T = np.tensordot(core, F[p + 1], axes=(2, 0)).reshape(core.shape[0], -1)
        F[p] = np.linalg.qr(T.T, mode="r").T
    M = r.cores[0].reshape(-1, r.cores[0].shape[2], order="F")
    return F, float(np.linalg.norm(M @ F[1]))


def _cancelling_residual(sizes, rank, eps, rng):
    """``(t, x, ||y - x||)`` with ``y = t`` and ``t - x = (t - to) + s z``.

    ``to`` is the orthogonalized ``t``: the norm is ``eps*||t||``, far below
    the norms of the terms.
    """
    d = len(sizes)
    t = tt_random(sizes, rank, rng=rng)
    z = tt_random(sizes, 2, rng=rng)
    nt = np.linalg.norm(orthogonalize(t, "left", d).cores[-1])
    nz = np.linalg.norm(orthogonalize(z, "left", d).cores[-1])
    x = tt_add(orthogonalize(t, "right", 1), z, 1.0, -eps * nt / nz)
    return t, x, eps * nt


class TestResidualSweep:
    """Tail factors and exact norm of ``y - A x`` from one R-only QR sweep."""

    def test_factor_grams_match_dense(self, rng):
        d, n = 4, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 3, rng=rng)
        F, _ = _residual_sweep(A, y, x)
        assert len(F) == d + 1 and F[0] is None and F[d].tolist() == [[1.0]]
        chain = tt_add(y, tt_matvec(A, x), 1.0, -1.0)
        for p in range(1, d):
            R = _right_interface(chain.cores[p:])
            assert rel_err(F[p] @ F[p].T, R @ R.T) < 1e-12

    @pytest.mark.parametrize("d", [1, 3])
    def test_norm_matches_dense(self, rng, d):
        n = 4
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 3, rng=rng)
        _, norm = _residual_sweep(A, y, x)
        dense = np.linalg.norm(to_dense(y) - to_dense(A) @ to_dense(x))
        assert abs(norm - dense) <= 1e-10 * dense

    @staticmethod
    def route_system(route, d, rng):
        """``(A, y, x)`` whose middle cores take the factored or the block route."""
        if route == "block":  # Poisson, n = 32, operator rank 2
            A, y = build_poisson(PoissonSpec(dimension=d, grid_points=32))
            return A, y, tt_random(A.col_sizes, 15, rng=rng)
        # binary modes, operator rank 4, x rank 10: 2*2*(10 + 4*2) <= 4*2*10
        A = ttmat_random([2] * d, [2] * d, 4, rng=rng)
        ranks = [1] + [10] * (d - 1) + [1]
        x = TTVector([rng.standard_normal((ranks[k], 2, ranks[k + 1])) for k in range(d)])
        return A, tt_random([2] * d, 2, rng=rng), x

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("route", ["factored", "block"])
    def test_routes_match_the_chain(self, rng, route, d):
        A, y, x = self.route_system(route, d, rng)
        if d == 3:
            assert _residual_factored(A.cores[1], x.cores[1]) is (route == "factored")
        F, norm = _residual_sweep(A, y, x)
        chain = tt_add(y, tt_matvec(A, x), 1.0, -1.0)
        for p in range(1, d):
            R = _right_interface(chain.cores[p:])
            assert rel_err(F[p] @ F[p].T, R @ R.T) < 1e-12
        dense = np.linalg.norm(to_dense(y) - to_dense(tt_matvec(A, x)))
        assert abs(norm - dense) <= 1e-10 * dense

    def test_route_pick(self, rng):
        # n = m = 32, R = 2: 2*32*(r1 + 64) > 64*r1 whatever the rank
        A, _ = build_poisson(PoissonSpec(dimension=8, grid_points=32))
        assert not any(
            _residual_factored(ac, np.empty((1, 32, r1)))
            for ac in A.cores
            for r1 in range(1, 1025)
        )
        M = _qtt_cme_system()
        x = tt_random(M.col_sizes, 20, rng=rng)
        assert any(_residual_factored(ac, xc) for ac, xc in zip(M.cores, x.cores))

    def test_block_route_has_the_bits_of_the_chain(self, rng):
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=32))
        x = tt_random(A.col_sizes, 40, rng=rng)  # ranks 1, 32, 40, 32, 1
        F, norm = _residual_sweep(A, y, x)
        F_ref, norm_ref = _chain_sweep(A, y, x)
        assert F[0] is None and all(np.array_equal(F[p], F_ref[p]) for p in range(1, 5))
        assert norm == norm_ref

    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_norm_of_cancelling_residual(self, rng, eps):
        # the sweep's own round-off is about 1e-16 ||t||, i.e. 1e-7 of the
        # result at 1e-9 (measured up to 4e-8), so the bound is relative 1e-6
        t, x, exact = _cancelling_residual([4] * 6, 3, eps, rng)
        _, norm = _residual_sweep(ttmat_identity([4] * 6), t, x)
        assert abs(norm / exact - 1.0) <= 1e-6

    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_cancelling_residual_on_the_factored_route(self, rng, eps):
        # the identity written as four quarters (rank 4) on binary modes;
        # x has ranks up to 6 + 2, so its middle cores take the factored route
        sizes = [2] * 12
        half = ttmat_add(ttmat_identity(sizes), ttmat_identity(sizes), 0.5, 0.5)
        A = ttmat_add(half, half, 0.5, 0.5)
        t, x, exact = _cancelling_residual(sizes, 6, eps, rng)
        assert any(_residual_factored(ac, xc) for ac, xc in zip(A.cores, x.cores))
        _, norm = _residual_sweep(A, t, x)
        assert abs(norm / exact - 1.0) <= 1e-6

    def test_failure_propagates_from_the_solve(self, monkeypatch):
        threads = []

        def failing_qr(*args, **kwargs):
            threads.append(threading.current_thread())
            raise np.linalg.LinAlgError("QR did not converge")

        real_sweep = ttamen.amen._residual_sweep

        def residual_sweep(A, y, x):
            monkeypatch.setattr(ttamen.amen.np.linalg, "qr", failing_qr)
            return real_sweep(A, y, x)

        monkeypatch.setattr(ttamen.amen, "_residual_sweep", residual_sweep)
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=8))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            amen_solve(A, y, config=SolverConfig(tol=1e-7))
        assert threads and set(threads) == {threading.main_thread()}


# ----------------------------------------------------------------------
# Enrichment back-ends
# ----------------------------------------------------------------------

class TestGramAndCholesky:
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

    def test_wide_block_matches_plain_svd(self, rng):
        # M @ F is 6 x 14: the SVD runs on its 6 x 6 L factor
        head = rng.standard_normal((2, 3, 10))
        F = rng.standard_normal((10, 14))
        X = head.reshape(6, 10, order="F") @ F
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        Z, info = enrich_svd(head, None, 3, tail_factor=F)
        assert rel_err(info["sigma"], s) < 1e-12
        Zm = Z.reshape(-1, 3, order="F")
        assert np.linalg.norm(Zm @ Zm.T - U[:, :3] @ U[:, :3].T) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_tail_factor_resolves_a_1e10_direction(self, seed):
        """Enrichment from the sweep's ``F`` keeps a direction at 1e-10.

        ``y - x`` with ``A = I`` and d = 2 has the head ``M`` (n x 3) and the
        tail ``T = U diag(1, 1e-10, 0) V^T`` (3 x n).  The exact width-2
        subspace of ``M T`` is the range of ``M U[:, :2]``.  The eigh square
        root of ``T T^T`` resolves nothing below about 1e-8.
        """
        rng = np.random.default_rng(seed)
        n = 8
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        T = (U * [1.0, 1e-10, 0.0]) @ V.T
        M = rng.standard_normal((n, 3))
        y = TTVector([M[:, :1].reshape(1, n, 1), T[:1].reshape(1, n, 1)])
        x = TTVector([-M[:, 1:].reshape(1, n, 2), T[1:].reshape(2, n, 1)])
        F, _ = _residual_sweep(ttmat_identity([n, n]), y, x)
        head = M.reshape(1, n, 3)
        Q = np.linalg.qr(M @ U[:, :2])[0]

        def gap(Z):
            Zm = Z.reshape(-1, Z.shape[2], order="F")
            return np.linalg.norm(Zm @ Zm.T - Q @ Q.T, 2)

        assert gap(enrich_svd(head, None, 2, tail_factor=F[1])[0]) <= 1e-6
        # the eigh factor reproduces the Gram matrix, yet loses the direction
        C = _psd_sqrt(T @ T.T)
        assert rel_err(C @ C.T, T @ T.T) < 1e-12
        assert gap(enrich_svd(head, None, 2, tail_factor=C)[0]) > 1e-3


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

    @pytest.mark.parametrize("enrichment", ["svd", "chol"])
    def test_repeat_runs_identical_bytes(self, enrichment):
        # at the machine's default BLAS thread count
        A, y = build_poisson(PoissonSpec(dimension=6, grid_points=16))
        config = SolverConfig(tol=1e-8, enrichment=enrichment, seed=4)
        x1, log1 = amen_solve(A, y, config=config)
        x2, log2 = amen_solve(A, y, config=config)
        columns = [
            [(r.rel_residual, r.max_rank, r.local_converged, r.mu, r.omega_surrogate)
             for r in log.records]
            for log in (log1, log2)
        ]
        assert log1.status == log2.status
        assert columns[0] == columns[1]
        assert [c.tobytes() for c in x1.cores] == [c.tobytes() for c in x2.cores]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0)
        with pytest.raises(ValueError):
            SolverConfig(enrichment="bogus")
        with pytest.raises(ValueError):
            SolverConfig(kickrank=0)


# (solver, enrichment) pairs: AMEn with each enrichment, ALS and DMRG
ALL_SOLVERS = [
    (amen_solve, "svd"),
    (amen_solve, "chol"),
    (amen_solve, "als"),
    (amen_solve, "none"),
    (als_solve, "svd"),
    (dmrg_solve, "svd"),
]


def _enriches(solve, enrichment):
    return solve is amen_solve and enrichment != "none"


class TestStopRule:
    """Converged at ``rel <= tol``.  Without enrichment a run stalls once every
    local system was solved on entry; with it, once the global residual falls
    by less than 10% over two sweeps."""

    @staticmethod
    def script(monkeypatch, residuals):
        """Make the check of sweep ``s`` read ``residuals[s - 1]``, with ``norm(y) = 1``."""
        built = []
        real_env, real_sweep = ttamen.amen.build_environments, ttamen.amen._residual_sweep

        def build_environments(*args):
            built.append(None)
            return real_env(*args)

        def residual_sweep(A, y, x):
            F, res = real_sweep(A, y, x)
            # the sweep before the first only sets up the enrichment
            return F, (residuals[len(built) - 1] if built else res)

        monkeypatch.setattr(ttamen.amen, "build_environments", build_environments)
        monkeypatch.setattr(ttamen.amen, "_residual_sweep", residual_sweep)
        monkeypatch.setattr(ttamen.amen, "tt_norm", lambda y: 1.0)

    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    @pytest.mark.parametrize("above", [False, True])
    def test_status_at_the_tolerance(self, rng, monkeypatch, solve, enrichment, above):
        tol = 1e-6
        last = np.nextafter(tol, 1.0) if above else tol
        self.script(monkeypatch, [0.5, last])
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=tol, max_sweeps=2, enrichment=enrichment)
        x, log = solve(A, y, config=config)
        assert [r.rel_residual for r in log.records] == [0.5, last]
        if not above:
            assert (log.status, log.stop_reason) == ("converged", "residual")
        elif not _enriches(solve, enrichment) and log.records[-1].local_converged:
            assert (log.status, log.stop_reason) == ("stalled", "local_criterion")
        else:
            assert (log.status, log.stop_reason) == ("max_sweeps", "max_sweeps")

    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    @pytest.mark.parametrize("third, stalls", [(0.91, True), (0.9, False)])
    def test_stall_over_two_sweeps(self, rng, monkeypatch, solve, enrichment, third, stalls):
        self.script(monkeypatch, [1.0, 0.99, third, 0.5])
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-300, max_sweeps=4, enrichment=enrichment)
        x, log = solve(A, y, config=config)
        if _enriches(solve, enrichment):
            assert len(log.records) == (3 if stalls else 4)
            expected = ("stalled", "residual_stagnation") if stalls else ("max_sweeps",) * 2
            assert (log.status, log.stop_reason) == expected
        else:
            assert log.stop_reason != "residual_stagnation"

    @pytest.mark.parametrize("enrichment", ["svd", "chol", "als"])
    def test_enrichment_helps_where_every_local_system_is_solved(
        self, rng, monkeypatch, enrichment
    ):
        # every local system reports itself solved on entry, yet the
        # enrichment still lowers the residual: AMEn goes on, ALS stops
        real = ttamen.amen._solve_local_problem

        def solved_on_entry(*args):
            core, entry = real(*args)
            return core, dict(entry, local_res_before=0.0)

        monkeypatch.setattr(ttamen.amen, "_solve_local_problem", solved_on_entry)
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-8, enrichment=enrichment)
        x, log = amen_solve(A, y, config=config)
        assert all(r.local_converged for r in log.records)
        assert log.status == "converged" and len(log.records) > 1
        x, log = als_solve(A, y, config=config)
        assert (log.status, log.stop_reason, len(log.records)) == (
            "stalled",
            "local_criterion",
            1,
        )

    def test_rank_capped_amen_stalls_on_its_residual(self, rng):
        # at max_rank=1 nothing can be enriched: the residual levels off
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-10, max_sweeps=20, max_rank=1)
        x, log = amen_solve(A, y, config=config)
        assert (log.status, log.stop_reason) == ("stalled", "residual_stagnation")
        assert len(log.records) < config.max_sweeps
        rel = [r.rel_residual for r in log.records]
        assert rel[-1] > 0.9 * rel[-3]


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


class TestSweepPreparation:
    """One residual sweep per sweep and one symmetry probe per solve; no set-up
    after the last sweep."""

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

    @pytest.mark.parametrize("enrichment", ["svd", "chol", "als", "none"])
    def test_residual_chain_once_per_sweep(self, rng, monkeypatch, enrichment):
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 1, rng=rng)
        sweeps = self.count_calls(monkeypatch, ttamen.amen, "_residual_sweep")
        adds = self.count_calls(monkeypatch, ttamen.amen, "tt_add")
        products = self.count_calls(monkeypatch, ttamen.amen, "tt_matvec")
        config = SolverConfig(tol=1e-9, enrichment=enrichment, max_sweeps=10)
        x, log = amen_solve(A, y, x0=x0, config=config)
        assert len(log.records) > 1
        # svd/chol also sweep the start iterate for the first sweep's factors
        first = 1 if enrichment in ("svd", "chol") else 0
        assert len(sweeps) == len(log.records) + first
        # the sweep contracts the cores of A and x; y - A x is never built
        assert not adds and not products

    @pytest.mark.parametrize("solve", [amen_solve, dmrg_solve])
    def test_symmetry_probed_once_per_solve(self, rng, monkeypatch, solve):
        A, y = random_spd_system(4, 4, rng)
        probes = self.count_calls(monkeypatch, ttamen.amen, "_is_symmetric")
        x, log = solve(A, y, config=SolverConfig(tol=1e-12, max_sweeps=4))
        assert len(log.records) > 1 and len(probes) == 1
        # a given answer is taken as it is; a direct caller gets the probe
        assert not build_environments(A, y, x, False).symmetric
        assert build_environments(A, y, x).symmetric and len(probes) == 2

    @pytest.mark.parametrize("enrichment", ["svd", "chol"])
    def test_solve_starts_no_thread(self, monkeypatch, enrichment):
        threads = []
        real = ttamen.amen.build_environments

        def spy(*args):
            threads.append(threading.active_count())
            return real(*args)

        monkeypatch.setattr(ttamen.amen, "build_environments", spy)
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=8))
        baseline = threading.active_count()
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-7, enrichment=enrichment))
        assert log.status == "converged"
        assert threads and set(threads) == {baseline}
        assert threading.active_count() == baseline


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
