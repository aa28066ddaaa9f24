"""Environments, local systems, residual blocks, enrichment, and solvers."""

import math
import re
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ttamen.amen
from ttamen import (
    CascadeCMESpec,
    EnrichmentState,
    PoissonSpec,
    SolverConfig,
    SweepState,
    TTMatrix,
    TTVector,
    TimeSystemSpec,
    amen_solve,
    assemble_local,
    build_cme_operator,
    build_environments,
    build_initial_state,
    build_poisson,
    build_time_system,
    dmrg_solve,
    enrich_chol,
    enrich_svd,
    instrumented_amen_run,
    orthogonalize,
    qtt_quantize,
    solve_local,
    to_dense,
    tt_add,
    tt_matvec,
    tt_norm,
    tt_random,
    ttmat_identity,
    ttmat_matmul,
    ttmat_random,
    ttmat_transpose,
)
from ttamen.amen import (
    _LOCAL_MAXITER,
    _WIDEN_ABOVE,
    _expand,
    _is_symmetric,
    _LocalOperator,
    _merge_op_cores,
    _next_width,
    _residual_factored,
    _residual_first_block,
    _residual_sweep,
    _solve_local_iterative,
    _solve_local_problem,
    _sweep,
    _Workspace,
    unvec_core,
    vec_core,
)
from ttamen.diagnostics import dense_oracle_solve
from ttamen.tt import _left_interface, ttmat_to_tt

from conftest import frame_matrix, random_spd_system, rel_err, right_interface


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
        B, _ = assemble_local(state, x, 1)
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
            state.advance_left(p, x)
        B, b = assemble_local(state, x, k)
        B_ref, b_ref = dense_local_oracle(A, y, x, k)
        assert rel_err(B, B_ref) < 1e-11
        assert rel_err(b, b_ref) < 1e-11

    def test_size_mismatch_rejected(self, rng):
        A = ttmat_identity([2, 2])
        y = tt_random([2, 2], 1, rng=rng)
        x = tt_random([2, 3], 1, rng=rng)
        with pytest.raises(ValueError):
            build_environments(A, y, x)

    @staticmethod
    def swept(A, y, x, w=None):
        """A state advanced right over cores d-1..1, then left over 0..d-2;
        ``w`` is passed on only when given."""
        state = SweepState(A, y, False)
        extra = () if w is None else (w,)
        for k in range(x.d - 1, 0, -1):
            state.advance_right(k, x, *extra)
        for k in range(x.d - 1):
            state.advance_left(k, x, *extra)
        return state

    @staticmethod
    def cross_case(rng):
        d, n = 4, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 3, rng=rng)
        return A, y, x, tt_random([n] * d, 2, rng=rng)

    def test_test_vector_defaults_to_x(self, rng):
        A, y, x, _ = self.cross_case(rng)
        plain = self.swept(A, y, x)
        given = self.swept(A, y, x, x)
        for name in ("left_op", "right_op", "left_rhs", "right_rhs"):
            for a, b in zip(getattr(plain, name), getattr(given, name)):
                assert np.array_equal(a, b)

    def test_cross_environments_match_dense(self, rng):
        """With ``w = z`` the environments are the projections on z's interfaces."""
        A, y, x, z = self.cross_case(rng)
        d = x.d
        state = self.swept(A, y, x, z)
        for k in range(1, d):  # left: cores 0..k-1
            Lz, Lx = _left_interface(z.cores[:k]), _left_interface(x.cores[:k])
            assert rel_err(state.left_rhs[k], Lz.T @ _left_interface(y.cores[:k])) < 1e-12
            *head, last = A.cores[:k]
            for P in range(last.shape[3]):
                ref = Lz.T @ to_dense(TTMatrix(head + [last[..., P : P + 1]])) @ Lx
                assert rel_err(state.left_op[k][:, P, :], ref) < 1e-12
        for k in range(d - 1):  # right: cores k+1..d-1
            Rz, Rx = right_interface(z.cores[k + 1 :]), right_interface(x.cores[k + 1 :])
            assert rel_err(state.right_rhs[k], Rz @ right_interface(y.cores[k + 1 :]).T) < 1e-12
            first, *tail = A.cores[k + 1 :]
            for Q in range(first.shape[0]):
                ref = Rz @ to_dense(TTMatrix([first[Q : Q + 1]] + tail)) @ Rx.T
                assert rel_err(state.right_op[k][:, Q, :], ref) < 1e-12

    def test_matrix_free_apply_matches_dense(self, rng):
        d, n = 3, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 3, rng=rng)
        state = build_environments(A, y, x)
        B, _ = assemble_local(state, x, 1)
        v = x.cores[0]
        loc = _LocalOperator(state.left_op[0], (A.cores[0],), state.right_op[0], _Workspace())
        out = unvec_core(loc.matvec(vec_core(v)), loc.out_shape)
        assert rel_err(vec_core(out), B @ vec_core(v)) < 1e-12


def _local_operator_case(case, rng):
    """(local operator, its dense matrix) for one of four shape regimes.

    The two-site operators take their two cores unmerged; their dense matrix
    is the one of the merged core.
    """
    if case == "two_site":
        d, n = 5, 4
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 8, rng=rng)  # ranks 1, 4, 8, 8, 4, 1
        state = build_environments(A, y, x)
        for p in range(2):
            state.advance_left(p, x)
        L, (A1, A2), R = state.left_op[2], A.cores[2:4], state.right_op[3]
    elif case == "two_site_uneven":  # modes 5 and 7, ranks P, S, Q = 2, 3, 4
        L = rng.standard_normal((3, 2, 4))  # (a, P, b)
        A1, A2 = rng.standard_normal((2, 5, 5, 3)), rng.standard_normal((3, 7, 7, 4))
        R = rng.standard_normal((8, 4, 6))  # (c, Q, d), with a c = b d
    if case.startswith("two_site"):
        dense = _Workspace().build(L, _merge_op_cores(A1, A2), R)
        return _LocalOperator(L, (A1, A2), R, _Workspace()), dense
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
        state.advance_left(p, x)
    B, _ = assemble_local(state, x, k)
    L, Ac, R = state.left_op[k - 1], A.cores[k - 1], state.right_op[k - 1]
    return _LocalOperator(L, (Ac,), R, _Workspace()), B


class TestLocalOperator:
    """The matrix-free local product, in its factored and merged orders."""

    CASES = ["large_mode", "qtt", "two_site"]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense(self, rng, case):
        loc, B = _local_operator_case(case, rng)
        v = rng.standard_normal(B.shape[1])
        assert rel_err(loc.matvec(v), B @ v) < 1e-12
        core = rng.standard_normal(loc.in_shape)  # C-ordered, unlike a vector view
        out = unvec_core(loc.matvec(vec_core(core)), loc.out_shape)
        assert out.shape == loc.out_shape
        assert rel_err(vec_core(out), B @ vec_core(core)) < 1e-12

    @pytest.mark.parametrize(
        "case, factored", [("large_mode", True), ("qtt", False), ("two_site", True)]
    )
    def test_order_follows_flop_ratio(self, rng, case, factored):
        loc, _ = _local_operator_case(case, rng)
        assert loc.factored is factored

    def test_two_site_chain_on_uneven_shapes(self, rng):
        # every core meets its own ranks and modes: n1 != n2, P != S != Q,
        # a != c and b != d
        loc, B = _local_operator_case("two_site_uneven", rng)
        assert loc.factored and loc.shape == B.shape == (840, 840)
        for count in range(1, 4):
            v = rng.standard_normal(B.shape[1])
            assert rel_err(loc.matvec(v), B @ v) < 1e-13
            assert loc.products == count

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

    def test_non_finite_direct_solve_falls_back_to_lstsq(self):
        # LU overflows on the subnormal pivot; lstsq drops that direction
        B = np.diag([1.0, 1e-310])
        with np.errstate(invalid="ignore", over="ignore"):
            assert not np.all(np.isfinite(np.linalg.solve(B, np.ones(2))))
            u, info = solve_local(B, np.ones(2))
        assert info["fallback"] is True
        assert np.array_equal(u, [1.0, 0.0]) and info["residual"] == 1.0

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
        B, b = assemble_local(state, x, 1)
        ref = np.linalg.solve(B, b)
        loc = _LocalOperator(state.left_op[0], (A.cores[0],), state.right_op[0], _Workspace())
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


def _prepare(ens, A, y, x):
    """``ens.prepare_sweep`` as a solve calls it, at the width ``kickrank``."""
    ens.prepare_sweep(A, y, x, _residual_sweep(A, y, x)[0], ens.kickrank)


def _nonsymmetric_system(d, n, rng):
    noise = ttmat_random([n] * d, [n] * d, 2, rng=rng)
    # dominant, invertible: the shift is twice the noise's Frobenius norm,
    # which bounds its spectral norm at every d (a fixed shift does not)
    shift = 2 * tt_norm(ttmat_to_tt(noise))
    A = tt_add(ttmat_identity([n] * d), noise, shift, 1.0)
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

    @classmethod
    def check_forced_iterative(cls, monkeypatch, solve, A, y, symmetric, max_sweeps):
        """Run ``solve`` on the matrix-free path only and check its accounting."""
        krylov, products, direct = cls.spy(monkeypatch)
        entries = []
        real_solve = ttamen.amen._solve_local_problem

        def solve_local_problem(*args):
            out = real_solve(*args)
            entries.append(out[1])
            return out

        monkeypatch.setattr(ttamen.amen, "_solve_local_problem", solve_local_problem)
        config = SolverConfig(tol=1e-8, max_sweeps=max_sweeps, max_direct_size=0)
        x, log = solve(A, y, config=config)
        local_solves = sum(len(r.steps) for r in log.records)
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
        # the records hold the very entries the local steps made
        steps = [e for r in log.records for e in r.steps]
        assert len(steps) == len(entries)
        assert all(a is b for a, b in zip(steps, entries))
        return log

    @pytest.mark.parametrize("solve", [amen_solve, dmrg_solve])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_forced_iterative_runs(self, rng, monkeypatch, solve, symmetric):
        build = random_spd_system if symmetric else _nonsymmetric_system
        A, y = build(3, 4, rng)
        self.check_forced_iterative(monkeypatch, solve, A, y, symmetric, max_sweeps=4)

    @pytest.mark.parametrize("solve", [amen_solve, dmrg_solve])
    @pytest.mark.parametrize("d", [4, 5])
    def test_forced_gmres_runs_at_larger_d(self, rng, monkeypatch, solve, d):
        # the shift keeps the system dominant at every d, so these converge
        A, y = _nonsymmetric_system(d, 4, rng)
        log = self.check_forced_iterative(monkeypatch, solve, A, y, False, max_sweeps=12)
        assert log.status == "converged"

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
        one, entry1 = _solve_local_problem(state, x, 0, 1, config, _Workspace())
        two, entry2 = _solve_local_problem(state, x, 0, 2, config, _Workspace())
        assert one.shape == x.cores[0].shape
        assert two.shape == (1, 16, x.cores[1].shape[2])
        assert entry1.keys() == entry2.keys()
        assert set(entry1) == STEP_KEYS
        assert entry1["path"] == ("cg" if cap == 0 else "direct")
        assert (entry1["products"] > 0) == (cap == 0)
        assert entry1["kept_guess"] is entry2["kept_guess"] is False

    def test_gmres_breakdown_keeps_the_guess(self):
        # a rank-2 operator: GMRES breaks down on a near-singular triangle
        # and returns entries up to 4.6e15 with a residual above the guess's
        n, rng = 6, np.random.default_rng(7)
        M = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
        b = rng.standard_normal(n)
        one = np.ones((1, 1, 1))
        loc = _LocalOperator(one, (M.reshape(1, n, n, 1),), one, _Workspace())
        u, info = _solve_local_iterative(loc, b, np.zeros(n), 1e-10, symmetric=False)
        assert np.abs(u).max() > 1e15 and info["residual"] > info["residual_before"]
        # the local-problem layer keeps the guess and says so
        A = TTMatrix([M.reshape(1, n, n, 1)])
        y, x = TTVector([b.reshape(1, n, 1)]), TTVector([np.zeros((1, n, 1))])
        state = build_environments(A, y, x)
        config = SolverConfig(tol=1e-8, max_direct_size=0)  # rtol 1e-10 locally
        core, entry = _solve_local_problem(state, x, 0, 1, config, _Workspace())
        assert np.array_equal(core, x.cores[0])
        assert entry["path"] == "gmres" and entry["kept_guess"] is True
        assert entry["local_res_after"] == entry["local_res_before"] == 1.0

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_krylov_stops_within_the_product_cap(self, rng, monkeypatch, symmetric):
        # a singular system with the rhs outside the range: no solve converges
        n = 60
        M = rng.standard_normal((n, n - 1))
        M = M @ M.T if symmetric else np.hstack([M, np.zeros((n, 1))])
        b = np.linalg.svd(M)[0][:, -1] + rng.standard_normal(n)  # leaves the range
        one = np.ones((1, 1, 1))
        loc = _LocalOperator(one, (M.reshape(1, n, n, 1),), one, _Workspace())
        krylov, _, _ = self.spy(monkeypatch)
        u, info = _solve_local_iterative(loc, b, np.zeros(n), 1e-12, symmetric=symmetric)
        assert info["path"] == ("cg+gmres" if symmetric else "gmres")
        assert info["residual"] > 1e-12 * np.linalg.norm(b)
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
        state.advance_left(0, x)
        krylov, _, direct = self.spy(monkeypatch)
        _solve_local_problem(state, x, 1, 1, SolverConfig(), _Workspace())
        if direct_path:
            assert direct == [512] and not krylov.calls
        else:
            assert not direct and [name for name, _ in krylov.calls] == ["cg"]

    def test_symmetry_is_read_from_the_operator(self, rng):
        assert _is_symmetric(random_spd_system(3, 4, rng)[0])
        A, _ = build_poisson(PoissonSpec(dimension=2, grid_points=64))
        assert _is_symmetric(qtt_quantize(A, tol=1e-13))  # 12 binary cores
        B = _nonsymmetric_system(3, 4, rng)[0]
        assert _is_symmetric(ttmat_matmul(ttmat_transpose(B), B))  # normal equations
        assert not _is_symmetric(_nonsymmetric_system(3, 4, rng)[0])
        assert not _is_symmetric(_qtt_cme_system())
        assert not _is_symmetric(ttmat_random([3, 3], [4, 4], 2, rng=rng))


# ----------------------------------------------------------------------
# The per-solve workspace of the L·A_k blocks
# ----------------------------------------------------------------------

def _local_matrix_ref(L, Ac, R):
    """The direct matrix of ``_Workspace.build`` as two tensordots, the route
    the workspace replaced."""
    T = np.tensordot(L, Ac, axes=(1, 0))  # (a,b,i,j,Q)
    T = np.tensordot(T, R, axes=(4, 1))  # (a,b,i,j,c,d)
    N = L.shape[0] * Ac.shape[1] * R.shape[0]
    return np.ascontiguousarray(T.transpose(4, 2, 0, 5, 3, 1)).reshape(N, N)


def _merged_m1_ref(L, Ac):
    """The merged ``_LocalOperator``'s ``M1`` as the einsum it was."""
    a, _, b = L.shape
    _, i, j, Q = Ac.shape
    M1 = np.einsum("aPb,PijQ->aiQbj", L, Ac, optimize=True)
    return np.ascontiguousarray(M1.reshape(a * i * Q, b * j))


def _residual_first_block_ref(state, A, y, u_core, k0):
    """``_residual_first_block`` with its own tensordot of ``L`` and ``A_k``."""
    y_part = np.tensordot(state.left_rhs[k0], y.cores[k0], axes=(1, 0))  # (a,i,q)
    T = np.tensordot(state.left_op[k0], A.cores[k0], axes=(1, 0))  # (a,b,i,j,Q)
    a_part = np.tensordot(T, u_core, axes=([1, 3], [0, 1]))  # (a,i,Q,c)
    r0, n = a_part.shape[0], a_part.shape[1]
    return np.concatenate([y_part, -a_part.reshape(r0, n, -1)], axis=2)


def _merged_pair(A, y, x, k0):
    """The system with cores k0 and k0+1 merged: its one-site step at k0 is
    the two-site step of the original."""

    def merge(cores, fn):
        return cores[:k0] + [fn(cores[k0], cores[k0 + 1])] + cores[k0 + 2 :]

    def merge_vec(c1, c2):  # a vector core is an operator core with one column
        return _merge_op_cores(c1[:, :, None], c2[:, :, None])[:, :, 0]

    return (
        TTMatrix(merge(A.cores, _merge_op_cores)),
        TTVector(merge(y.cores, merge_vec)),
        TTVector(merge(x.cores, merge_vec)),
    )


def _workspace_case(case, rng):
    """``(state, A, y, x, k0)`` at a step with one of the benchmark's shapes."""
    if case == "poisson":  # core (7, 32, 7), operator ranks 2
        A, _ = build_poisson(PoissonSpec(dimension=4, grid_points=32))
        k0, rank = 1, 7
    elif case == "qtt":  # QTT CME, core (8, 2, 8)
        A, k0, rank = _qtt_cme_system(), 10, 8
    else:  # two-site Poisson n = 8, merged core (4, 64, 4), as in DMRG
        A, _ = build_poisson(PoissonSpec(dimension=6, grid_points=8))
        k0, rank = 2, 4
    y = tt_random(A.row_sizes, 2, rng=rng)
    x = tt_random(A.col_sizes, rank, rng=rng)
    if case == "two_site":
        A, y, x = _merged_pair(A, y, x, k0)
    state = build_environments(A, y, x)
    for p in range(k0):
        state.advance_left(p, x)
    return state, A, y, x, k0


def _block_size(state, A, k0):
    (a, _, b), (_, i, j, Q) = state.left_op[k0].shape, A.cores[k0].shape
    return a * b * i * j * Q


def _buffer_need(L, Ac, R=None):
    """Items the buffer needs for a step's ``M`` and one panel, and with
    ``R`` for its direct matrix after them."""
    row = L.shape[2] * math.prod(Ac.shape[1:])
    need = (L.shape[0] + _Workspace.panel_rows(L.shape[0], row)) * row
    if R is not None:
        need += (L.shape[0] * Ac.shape[1] * R.shape[0]) ** 2
    return need


def _grows(needs):
    """The grows of a buffer that takes each need in turn and never shrinks."""
    largest, grows = 0, 0
    for need in needs:
        largest, grows = max(largest, need), grows + (need > largest)
    return grows


class _CountingWorkspace(_Workspace):
    """``_Workspace`` that counts its buffer's grows in ``allocations``."""

    allocations = 0

    def _reserve(self, n):
        if self._buffer is None or self._buffer.size < n:
            self.allocations += 1
        return super()._reserve(n)


class _RecordingWorkspace(_CountingWorkspace):
    """``_CountingWorkspace`` that records its instances and the blocks it
    builds: ``(L, Ac, R)``, with ``R`` None where only ``M`` was built."""

    made = []

    def __init__(self):
        super().__init__()
        self.made.append(self)
        self.built = []  # (L, Ac, R) of every block built, kept alive

    def build(self, L, Ac, R=None):
        self.built.append((L, Ac, R))
        return super().build(L, Ac, R)


class TestWorkspace:
    """Each step's ``L·A_k`` is built once, into buffers one solve reuses."""

    CASES = ["poisson", "qtt", "two_site"]

    @staticmethod
    def check_step(workspace, case, rng, direct=True):
        """Every consumer of the step's block against its reference, in the
        order a direct step asks for them, or an iterative one (no direct
        matrix)."""
        state, A, y, x, k0 = case
        L, Ac, R = state.left_op[k0], A.cores[k0], state.right_op[k0]
        if direct:
            B = workspace.build(L, Ac, R)
            assert np.array_equal(B, _local_matrix_ref(L, Ac, R))
        loc = _LocalOperator(L, (Ac,), R, workspace)
        if not loc.factored:
            assert np.array_equal(loc._M1, _merged_m1_ref(L, Ac))
        # the solver hands the head the Fortran view of the solved vector
        u_core = unvec_core(rng.standard_normal(x.cores[k0].size), x.cores[k0].shape)
        head = _residual_first_block(state, u_core, k0, workspace)
        assert np.array_equal(head, _residual_first_block_ref(state, A, y, u_core, k0))
        return loc

    @pytest.mark.parametrize("case", CASES)
    def test_consumers_match_their_references(self, rng, case):
        case_ = _workspace_case(case, rng)
        # the Poisson n = 32 operator takes the factored order, the others M1
        for direct in (True, False):
            loc = self.check_step(_Workspace(), case_, rng, direct)
            assert loc.factored is (case == "poisson")

    @pytest.mark.parametrize("a", [1, 7])
    def test_panels_give_the_bits_of_one_gemm(self, rng, monkeypatch, a):
        # panels of 3 left indices: at a = 7 the last one takes a single index
        P, i, Q = 5, 4, 6
        monkeypatch.setattr(ttamen.amen, "_PANEL_BYTES", 3 * a * i * i * Q * 8 + 100)
        assert _Workspace.panel_rows(a, a * i * i * Q) == min(a, 3)
        L = rng.standard_normal((a, P, a))
        Ac = rng.standard_normal((P, i, i, Q))
        R = rng.standard_normal((2, Q, 2))
        workspace = _Workspace()
        M = workspace.M(L, Ac)
        assert np.array_equal(M, _merged_m1_ref(L, Ac))
        assert workspace._buffer.size == _buffer_need(L, Ac)  # no full L·Ac was formed
        # the direct matrix and its step's M: the bits of one GEMM each
        direct = _Workspace()
        assert np.array_equal(direct.build(L, Ac, R), _local_matrix_ref(L, Ac, R))
        assert np.array_equal(M, direct.M(L, Ac))
        assert direct._buffer.size == _buffer_need(L, Ac, R)

    @pytest.mark.parametrize("Q", [1, 2])
    def test_direct_after_m_keeps_m(self, rng, Q):
        # Q = c = d = 1 is a last core; the solver asks for the direct matrix
        # first, but a later request must not touch the M handed out before it
        L = rng.standard_normal((7, 3, 7))
        Ac = rng.standard_normal((3, 4, 4, Q))
        R = rng.standard_normal((Q, Q, Q))
        workspace = _Workspace()
        M = workspace.M(L, Ac)
        held = M.copy()
        B = workspace.build(L, Ac, R)
        assert np.array_equal(B, _local_matrix_ref(L, Ac, R))
        assert np.array_equal(M, held) and np.array_equal(M, _merged_m1_ref(L, Ac))
        assert np.array_equal(workspace.M(L, Ac), held)
        assert not np.shares_memory(B, workspace.M(L, Ac))
        # another R on the same step gives its own matrix
        R2 = R + 1.0
        assert np.array_equal(workspace.build(L, Ac, R2), _local_matrix_ref(L, Ac, R2))

    def test_later_request_keeps_m(self, rng):
        # a rectangular left environment (a != b): M only, no direct matrix
        L = rng.standard_normal((7, 3, 5))
        Ac = rng.standard_normal((3, 4, 4, 2))
        workspace = _CountingWorkspace()
        M = workspace.M(L, Ac)
        held = M.copy()
        assert workspace.M(L, Ac) is M  # the same step: handed out, not rebuilt
        assert workspace.build(L, Ac) is None
        assert np.array_equal(M, held) and np.array_equal(M, _merged_m1_ref(L, Ac))
        assert np.array_equal(workspace.M(L, Ac), held)
        assert workspace.allocations == 1

    @pytest.mark.parametrize("case", CASES)
    def test_iterative_step_holds_m_and_one_panel(self, rng, case):
        state, A, y, x, k0 = case_ = _workspace_case(case, rng)
        L, Ac = state.left_op[k0], A.cores[k0]
        workspace = _CountingWorkspace()
        self.check_step(workspace, case_, rng, direct=False)
        size = _block_size(state, A, k0)
        row = size // L.shape[0]
        assert workspace._buffer.size == _buffer_need(L, Ac)
        assert workspace._buffer.size <= size + max(row, ttamen.amen._PANEL_BYTES // 8)
        if size * 8 > 2 * ttamen.amen._PANEL_BYTES:  # more than one panel
            assert workspace._buffer.size < 2 * size  # not a full L·Ac next to M
        assert workspace.allocations == 1

    def test_alternating_shapes_through_one_workspace(self, rng):
        cases = {name: _workspace_case(name, rng) for name in self.CASES}
        # (case, direct): a step needs room for M and a panel, and a direct
        # step also for its matrix
        order = [
            ("qtt", True),
            ("poisson", False),
            ("qtt", False),
            ("poisson", True),
            ("two_site", False),
            ("two_site", True),
            ("qtt", True),
        ]
        workspace = _CountingWorkspace()
        needs = []
        for name, direct in order:
            self.check_step(workspace, cases[name], rng, direct)
            state, A, _, _, k0 = cases[name]
            L, Ac = state.left_op[k0], A.cores[k0]
            needs.append(_buffer_need(L, Ac, state.right_op[k0] if direct else None))
        # Poisson's direct step outgrows its M step; every step after it fits
        assert workspace.allocations == _grows(needs) == 3

    def test_public_results_share_no_memory(self, rng):
        state, A, y, x, k0 = _workspace_case("poisson", rng)
        B1, b1 = assemble_local(state, x, k0 + 1)
        B2, b2 = assemble_local(state, x, k0 + 1)
        assert np.array_equal(B1, B2) and not np.shares_memory(B1, B2)
        workspace = _Workspace()
        L, Ac, R = state.left_op[k0], A.cores[k0], state.right_op[k0]
        B = workspace.build(L, Ac, R)
        assert not np.shares_memory(B, workspace.M(L, Ac))
        assert np.array_equal(B1, B) and not np.shares_memory(B1, workspace._buffer)

    def test_allocates_only_for_a_larger_block(self, monkeypatch):
        monkeypatch.setattr(_RecordingWorkspace, "made", [])
        monkeypatch.setattr(ttamen.amen, "_Workspace", _RecordingWorkspace)
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=32))
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-6))
        assert log.status == "converged"
        # one workspace for the solve; no consumer made a block of its own
        (workspace,) = _RecordingWorkspace.made
        needs = [_buffer_need(*built) for built in workspace.built]
        assert workspace.allocations == _grows(needs) < len(workspace.built)
        # both kinds of step ran: direct ones (with R) and iterative ones
        assert {R is None for _, _, R in workspace.built} == {True, False}
        # the largest block is an iterative step's, held as M plus one panel,
        # less than a full L·Ac next to M
        assert workspace._buffer.size == max(needs) < max(
            2 * math.prod(L.shape[::2]) * math.prod(Ac.shape[1:])
            for L, Ac, _ in workspace.built
        )
        # each step's L·A_k was built once, shared by its solve and its head
        steps = {(id(L), id(Ac)) for L, Ac, _ in workspace.built}
        assert len(steps) == len(workspace.built)

    @pytest.mark.parametrize("solve", [amen_solve, dmrg_solve])
    def test_one_workspace_per_solve_dropped_with_it(self, rng, monkeypatch, solve):
        monkeypatch.setattr(_RecordingWorkspace, "made", [])
        monkeypatch.setattr(ttamen.amen, "_Workspace", _RecordingWorkspace)
        A, y = random_spd_system(4, 8, rng)
        x, log = solve(A, y, config=SolverConfig(tol=1e-8))
        assert log.status == "converged" and len(log.records) > 1
        (workspace,) = _RecordingWorkspace.made
        assert workspace.built
        ref = weakref.ref(workspace)
        del workspace
        _RecordingWorkspace.made.clear()
        assert ref() is None  # no cycle keeps it, so it goes without the GC


# ----------------------------------------------------------------------
# Exact residual blocks
# ----------------------------------------------------------------------

class TestResidualBlocks:
    @pytest.mark.parametrize("k", [1, 2])
    def test_blocks_contract_to_reduced_residual(self, rng, k):
        """head + chain tails equal y_k - A_k u in the reduced system.

        The tails are cores k+1..d of the chain ``y - A x`` built by
        ``tt_add``.  Positions 1..d-1 only: that is where the sweep consumes
        the blocks (the last core gets no enrichment).
        """
        d, n = 3, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = tt_random([n] * d, 2, rng=rng)
        x = orthogonalize(x, "left", pivot=k)
        state = build_environments(A, y, x)
        for p in range(k - 1):
            state.advance_left(p, x)
        u_core = rng.standard_normal(x.cores[k - 1].shape)
        head = _residual_first_block(state, u_core, k - 1, _Workspace())
        chain = tt_add(y, tt_matvec(A, x), 1.0, -1.0)
        z = _left_interface([head] + chain.cores[k:])[:, 0]
        # reference: project y - A*(left-interface (x) [u, tail cores])
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
        ens = EnrichmentState("svd", 2, rng=rng)
        _prepare(ens, A, y, x)
        chain = tt_add(y, tt_matvec(A, x), 1.0, -1.0)
        for k in range(1, d):
            R = right_interface(chain.cores[k:])
            F = ens._tails[k]
            assert rel_err(F @ F.T, R @ R.T) < 1e-12

    def test_als_cross_environment_matches_chain(self, rng):
        """ALS's tail at p, ``[right_rhs; right_op]`` at p-1, pairs chain
        blocks p..d-1 with approximant cores p..d-1."""
        d, n = 4, 3
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        y = tt_random([n] * d, 2, rng=rng)
        x = orthogonalize(tt_random([n] * d, 3, rng=rng), "right", 1)
        ens = EnrichmentState("als", 2, rng=rng)
        _prepare(ens, A, y, x)
        chain = tt_add(y, tt_matvec(A, x), 1.0, -1.0)
        z = ens.residual_tt
        for p in range(1, d):
            ref = right_interface(chain.cores[p:]) @ right_interface(z.cores[p:]).T
            assert rel_err(ens._tails[p], ref) < 1e-12


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
            R = right_interface(chain.cores[p:])
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
            R = right_interface(chain.cores[p:])
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
        half = tt_add(ttmat_identity(sizes), ttmat_identity(sizes), 0.5, 0.5)
        A = tt_add(half, half, 0.5, 0.5)
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
            monkeypatch.setattr(ttamen.amen, "_qr", failing_qr)
            return real_sweep(A, y, x)

        monkeypatch.setattr(ttamen.amen, "_residual_sweep", residual_sweep)
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=8))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            amen_solve(A, y, config=SolverConfig(tol=1e-7))
        assert threads and set(threads) == {threading.main_thread()}


# ----------------------------------------------------------------------
# Enrichment back-ends
# ----------------------------------------------------------------------

def _chol_columns(MF, kickrank):
    """enrich_chol's block for a residual whose ``M F`` is ``MF`` (F = I)."""
    head = unvec_core(MF.ravel(order="F"), (1, MF.shape[0], MF.shape[1]))
    Z, info = enrich_chol(head, np.eye(MF.shape[1]), kickrank)
    return (None if Z is None else Z.reshape(MF.shape[0], -1)), info


class TestCholeskyPivots:
    def test_pivot_order(self):
        # rows of squared norm 1, 3, 2: the largest first, then the runner-up
        Z, info = _chol_columns(np.diag(np.sqrt([1.0, 3.0, 2.0])), 2)
        assert info["width"] == 2
        assert np.array_equal(np.abs(Z), np.eye(3)[:, [1, 2]])

    def test_tie_break_lowest_index(self):
        Z, info = _chol_columns(np.eye(3), 1)
        assert info["width"] == 1 and np.array_equal(np.abs(Z), np.eye(3)[:, :1])

    def test_width_stops_at_the_numerical_rank(self, rng):
        MF = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        Z, info = _chol_columns(MF, 5)
        assert info["width"] == 2 and Z.shape == (6, 2)
        assert info["omega"] < 1e-6
        # the block spans the residual's columns
        assert rel_err(Z @ (Z.T @ MF), MF) < 1e-12

    def test_zero_head(self):
        Z, info = enrich_chol(np.zeros((2, 3, 2)), np.eye(2), 3)
        assert Z is None and info["width"] == 0 and info["omega"] == 0.0

    def test_subspace_of_a_graded_residual(self):
        # singular values 1, 1e-4, 1e-5: a Gram matrix resolves the last
        # direction only to about eps / 1e-10 (3e-7 here); the QR of M F
        # keeps it to about eps / 1e-5
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            U, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            V, _ = np.linalg.qr(rng.standard_normal((5, 3)))
            head = unvec_core((U * [1.0, 1e-4, 1e-5]).ravel(order="F"), (2, 3, 3))
            Z, info = enrich_chol(head, V.T, 3)
            assert info["width"] == 3
            Zm = Z.reshape(6, 3, order="F")
            worst = max(worst, np.linalg.norm(U - Zm @ (Zm.T @ U), 2))
        assert worst <= 1e-9


class TestEnrichmentSubspaces:
    @staticmethod
    def residual_fixture(rng, r0=2, n=3, width=3, tail=5):
        """Low-rank local residual as (head, tail factor); returns dense too."""
        head = rng.standard_normal((r0, n, width))
        tail_factor = rng.standard_normal((width, tail))
        M = head.reshape(r0 * n, width, order="F")
        return head, tail_factor, M @ tail_factor

    def test_svd_recovers_exact_subspace(self, rng):
        head, f, dense = self.residual_fixture(rng)
        Z, info = enrich_svd(head, f, 3)
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
        head, f, _ = self.residual_fixture(rng, width=1)
        Z, info = enrich_svd(head, f, 4)
        assert info["width"] == 1 and Z.shape[2] == 1

    def test_chol_matches_svd_on_separated_spectrum(self, rng):
        head, f, _ = self.residual_fixture(rng)
        Zs, _ = enrich_svd(head, f, 3)
        Zc, _ = enrich_chol(head, f, 3)
        Us = Zs.reshape(-1, Zs.shape[2], order="F")
        Uc = Zc.reshape(-1, Zc.shape[2], order="F")
        ang = np.linalg.svd(Us.T @ Uc, compute_uv=False)
        assert np.all(ang > 1 - 1e-6)

    def test_chol_rank_one_gram(self, rng):
        head = rng.standard_normal((2, 2, 1))
        Z, info = enrich_chol(head, np.array([[np.sqrt(2.0)]]), 3)
        assert info["width"] == 1

    def test_orthonormal_columns(self, rng):
        head, f, _ = self.residual_fixture(rng)
        for fn in (enrich_svd, enrich_chol):
            Z, _ = fn(head, f, 2)
            M = Z.reshape(-1, Z.shape[2], order="F")
            assert np.linalg.norm(M.T @ M - np.eye(M.shape[1])) < 1e-12

    def test_wide_block_matches_plain_svd(self, rng):
        # M @ F is 6 x 14: the SVD runs on its 6 x 6 L factor
        head = rng.standard_normal((2, 3, 10))
        F = rng.standard_normal((10, 14))
        X = head.reshape(6, 10, order="F") @ F
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        Z, info = enrich_svd(head, F, 3)
        assert abs(info["omega"] - np.sqrt(1 - np.sum(s[:3] ** 2) / np.sum(s**2))) < 1e-12
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

        assert gap(enrich_svd(head, F[1], 2)[0]) <= 1e-6
        # the eigh factor reproduces the Gram matrix, yet loses the direction
        w, V = np.linalg.eigh(T @ T.T)
        C = V * np.sqrt(np.clip(w, 0.0, None))
        assert rel_err(C @ C.T, T @ T.T) < 1e-12
        assert gap(enrich_svd(head, C, 2)[0]) > 1e-3


# ----------------------------------------------------------------------
# Basis expansion
# ----------------------------------------------------------------------

class TestExpansion:
    def test_expansion_preserves_vector(self, rng):
        x = tt_random([3, 3, 3], 2, rng=rng)
        ref = to_dense(x)
        for k in [1, 2]:
            Z = rng.standard_normal((x.cores[k - 1].shape[0], 3, 2))
            y = x.copy()
            _expand(y.cores, k - 1, Z)
            # widened by 2, but QR caps the rank at the unfolding's row count
            cap = x.cores[k - 1].shape[0] * x.cores[k - 1].shape[1]
            assert y.ranks[k] == min(x.ranks[k] + 2, cap)
            assert rel_err(to_dense(y), ref) < 1e-12
            r, n, R = y.cores[k - 1].shape
            M = y.cores[k - 1].reshape(r * n, R)
            assert np.linalg.norm(M.T @ M - np.eye(R)) < 1e-12

    def test_none_block_only_orthogonalizes(self, rng):
        x = tt_random([3, 3], 2, rng=rng)
        y = x.copy()
        _expand(y.cores, 0, None)
        assert y.ranks == x.ranks
        assert rel_err(to_dense(y), to_dense(x)) < 1e-12


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
            def on_core_start(self, k0, x):
                pass

            def on_core_done(self, k0, xc, u_core):
                e = xs - to_dense(xc)
                energies.append(e @ (Ad @ e))

        state = build_environments(A, y, x)
        config = SolverConfig(tol=1e-12, max_direct_size=1 << 16)
        ens = EnrichmentState("svd", 2, rng=rng)
        _prepare(ens, A, y, x)
        _sweep(x, state, ens, config, _Workspace(), 1, recorder=Rec())
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-9 * max(energies))

    @pytest.mark.parametrize("enrichment", ["svd", "als"])
    def test_rate_check_follows_the_solver(self, enrichment):
        # the dense rate check runs the solver's own loop: the width doubling
        # and the persistent ALS approximant reach it
        A, _ = build_poisson(PoissonSpec(dimension=5, grid_points=4))
        A = tt_add(A, ttmat_identity(A.row_sizes), 1.0, 0.1)
        y = tt_random(A.row_sizes, 3, rng=np.random.default_rng(3))
        rep = instrumented_amen_run(A, y, sweeps=5, kickrank=1, enrichment=enrichment)
        config = SolverConfig(
            tol=1e-14, max_sweeps=5, kickrank=1, enrichment=enrichment,
            max_direct_size=1 << 16, seed=0,
        )
        x, log = amen_solve(A, y, config=config)
        Ad = to_dense(A)
        e = np.linalg.solve(Ad, to_dense(y)) - to_dense(x)
        assert rep.j_trace[-1] == pytest.approx(e @ (Ad @ e), rel=1e-10)
        # the recorder closes each sweep's record itself, at its last core
        assert len(rep.sweeps) == len(log.records)
        assert len(rep.j_trace) == len(log.records) * (A.d + 1)

    @pytest.mark.parametrize("enrichment", ["svd", "chol", "als"])
    def test_tail_factors_released_as_used(self, rng, enrichment):
        # the run builds the next sweep's factors while this list is alive
        A, y = random_spd_system(4, 3, rng)
        x = orthogonalize(tt_random(A.col_sizes, 2, rng=rng), "right", 1)
        state = build_environments(A, y, x)
        ens = EnrichmentState(enrichment, 2, rng=rng)
        _prepare(ens, A, y, x)
        assert all(isinstance(F, np.ndarray) for F in ens._tails[1 : x.d])
        _sweep(x, state, ens, SolverConfig(tol=1e-8), _Workspace(), 1)
        assert not any(isinstance(F, np.ndarray) for F in ens._tails[1 : x.d])

    def test_no_enrichment_on_last_core(self, rng):
        A, y = random_spd_system(3, 3, rng)
        x = orthogonalize(tt_random(A.col_sizes, 2, rng=rng), "right", 1)
        state = build_environments(A, y, x)
        ens = EnrichmentState("svd", 2, rng=rng)
        _prepare(ens, A, y, x)
        out, stats = _sweep(x, state, ens, SolverConfig(tol=1e-8), _Workspace(), 1)
        assert "enrich_width" in stats[0] and "omega_surrogate" in stats[0]
        assert "enrich_width" not in stats[-1] and "omega_surrogate" not in stats[-1]

    @pytest.mark.parametrize(
        "solve, enrichment, solution, approximant",
        [(amen_solve, "none", 4, 0), (amen_solve, "als", 4, 3), (dmrg_solve, "svd", 3, 0)],
    )
    def test_left_environments_only_where_read(
        self, rng, monkeypatch, solve, enrichment, solution, approximant
    ):
        # d = 5: a one-site sweep reads left_op[4] at its last core, the ALS
        # approximant's update stops at core 4, DMRG's last pair reads left_op[3]
        calls = {}
        real = SweepState.advance_left

        def advance_left(self, k, x, w=None):
            calls.setdefault(id(self), [self, w is None, 0])[2] += 1
            return real(self, k, x, w)

        monkeypatch.setattr(SweepState, "advance_left", advance_left)
        A, y = random_spd_system(5, 3, rng)
        config = SolverConfig(tol=1e-12, max_sweeps=3, enrichment=enrichment)
        x, log = solve(A, y, config=config)
        # every sweep makes its own states, so each count is one sweep's
        sweeps = len(log.records)
        assert sweeps > 1
        per_state = sorted((own, count) for _, own, count in calls.values())
        expected = [(False, approximant)] * sweeps * (approximant > 0)
        assert per_state == expected + [(True, solution)] * sweeps


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

    @pytest.mark.parametrize("d, n", [(17, 16), (64, 2)])
    def test_default_start_past_int64_sizes(self, d, n):
        # 16**17 and 2**64 unknowns: the random start clips its ranks exactly
        A, y = build_poisson(PoissonSpec(dimension=d, grid_points=n))
        x, log = amen_solve(A, y, config=SolverConfig())
        assert log.status == "converged" and log.final_residual <= 1e-5
        assert x.mode_sizes == (n,) * d

    def test_nonsymmetric_solve(self, rng):
        d, n = 3, 4
        N = rng.standard_normal((n * n * n, 1))  # just for seeding variety
        A = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        A = tt_add(ttmat_identity([n] * d), A, 8.0, 1.0)  # dominant, invertible
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

    def test_max_rank_caps_only_the_expansion(self, rng):
        # AMEn keeps a start iterate's ranks above the cap; DMRG's split cuts them
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=4))
        x0 = tt_random(A.col_sizes, 3, rng=rng)
        config = SolverConfig(tol=1e-8, max_rank=2)
        x, log = amen_solve(A, y, x0, config)
        assert log.status == "converged" and x.ranks == (1, 3, 3, 3, 1)
        x, log = dmrg_solve(A, y, x0, config)
        assert log.status == "stalled" and x.ranks == (1, 2, 2, 2, 1)

    def test_als_fixed_ranks(self, rng):
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 3, rng=rng)
        config = SolverConfig(tol=1e-9, max_sweeps=8, enrichment="none")
        x, log = amen_solve(A, y, x0=x0, config=config)
        assert max(x.ranks) <= max(x0.ranks)

    def test_als_reports_stall_honestly(self, rng):
        """Rank-1 iterate on a problem needing higher rank must not claim convergence."""
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 1, rng=rng)
        config = SolverConfig(tol=1e-10, max_sweeps=10, enrichment="none")
        x, log = amen_solve(A, y, x0=x0, config=config)
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
            [(r.rel_residual, r.max_rank, r.local_converged, r.steps, r.ranks)
             for r in log.records]
            for log in (log1, log2)
        ]
        assert log1.status == log2.status
        assert columns[0] == columns[1]
        assert [c.tobytes() for c in x1.cores] == [c.tobytes() for c in x2.cores]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tol"):
                SolverConfig(tol=bad)
        with pytest.raises(ValueError):
            SolverConfig(enrichment="bogus")
        with pytest.raises(ValueError):
            SolverConfig(kickrank=0)
        with pytest.raises(ValueError):
            SolverConfig(max_sweeps=0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_rank"):
                SolverConfig(max_rank=bad)
        with pytest.raises(ValueError):
            EnrichmentState("bogus", 2)

    @pytest.mark.parametrize(
        "field, value, complaint",
        [
            ("kickrank", 2.5, "kickrank=2.5 (must be an int)"),
            ("max_sweeps", True, "max_sweeps=True (must be an int)"),
            ("max_rank", 2.0, "max_rank=2.0 (must be an int)"),
            ("seed", 1.5, "seed=1.5 (must be an int)"),
            ("seed", -1, "seed=-1 (must be >= 0)"),
            ("max_direct_size", -1, "max_direct_size=-1 (must be >= 0)"),
        ],
    )
    def test_config_counts_are_ints(self, field, value, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            SolverConfig(**{field: value})
        config = SolverConfig(**{field: np.int64(3)})  # NumPy integers are counts
        assert getattr(config, field) == 3

    @pytest.mark.parametrize(
        "value, complaint",
        [
            ("1e-5", "tol='1e-5' (must be a real number)"),
            (True, "tol=True (must be a real number)"),
            (-1.0, "tol=-1.0 (must be positive and finite)"),
        ],
    )
    def test_config_tol_is_a_real_number(self, value, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            SolverConfig(tol=value)
        assert SolverConfig(tol=np.float64(1e-5)).tol == 1e-5  # NumPy floats are reals

    def test_als_enrichment_on_a_zero_rhs(self):
        # every projection of the zero residual vanishes: each core of the
        # residual approximant is redrawn, and the run says so
        A, y = build_poisson(PoissonSpec(dimension=4, grid_points=4))
        y = TTVector([np.zeros_like(c) for c in y.cores])
        x, log = amen_solve(A, y, config=SolverConfig(enrichment="als", kickrank=2))
        assert log.status == "converged" and len(log.records) == 1
        # each note sits on the step of the core it names
        steps = log.records[0].steps
        assert [s["k"] for s in steps if "note" in s] == [1, 2, 3]
        assert [s["note"] for s in steps[:3]] == [
            f"residual approximant core {k} degenerated; reinitialized" for k in (1, 2, 3)
        ]
        assert tt_norm(x) == 0.0

    def test_dmrg_on_one_core_runs_amen(self):
        A, y = build_poisson(PoissonSpec(dimension=1, grid_points=8))
        config = SolverConfig(tol=1e-10)
        x, log = dmrg_solve(A, y, config=config)
        x_ref, log_ref = amen_solve(A, y, config=config)
        assert log.status == "converged" and len(log.records) == 1
        assert (log.status, log.stop_reason) == (log_ref.status, log_ref.stop_reason)
        assert x.cores[0].tobytes() == x_ref.cores[0].tobytes()


# (solver, enrichment) pairs: AMEn with each enrichment (ALS is AMEn with
# none) and DMRG
ALL_SOLVERS = [
    (amen_solve, "svd"),
    (amen_solve, "chol"),
    (amen_solve, "als"),
    (amen_solve, "none"),
    (dmrg_solve, "svd"),
]

# the three routes: AMEn at its default enrichment, ALS and DMRG
ROUTES = pytest.mark.parametrize(
    "solve, enrichment",
    [(amen_solve, "svd"), (amen_solve, "none"), (dmrg_solve, "none")],
    ids=["amen_solve", "als", "dmrg_solve"],
)


def _enriches(solve, enrichment):
    return solve is amen_solve and enrichment != "none"


def _reads_factors(solve, enrichment):
    """Whether the run's enrichment takes the residual sweep's tail factors."""
    return solve is amen_solve and enrichment in ("svd", "chol")


# the keys of every local step's entry; an enriching step adds ENRICH_KEYS
STEP_KEYS = {"k", "local_res_before", "local_res_after", "path", "products", "kept_guess"}
ENRICH_KEYS = {"enrich_width", "omega_surrogate"}


class TestSizeCheck:
    """Every solve refuses a system of mismatched sizes or with a non-finite
    entry before its first sweep."""

    @pytest.mark.parametrize("case", ["x0_modes", "x0_cores", "y_modes"])
    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    def test_mismatched_sizes_refused(self, rng, solve, enrichment, case):
        A, y = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        x0 = None
        if case == "x0_modes":
            x0 = tt_random([4, 5, 4], 2, rng=rng)
        elif case == "x0_cores":
            x0 = tt_random([4, 4], 2, rng=rng)
        else:
            y = tt_random([4, 4, 5], 2, rng=rng)
        with pytest.raises(ValueError, match="operator / vector sizes are inconsistent"):
            solve(A, y, x0, SolverConfig(enrichment=enrichment))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["A", "y", "x0"])
    @ROUTES
    def test_non_finite_entry_refused(self, rng, solve, enrichment, name, value):
        # a ValueError naming the input, not an SVD failure or a converged run
        A, y = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        trains = {"A": A, "y": y, "x0": tt_random([4, 4, 4], 2, rng=rng)}
        trains[name].cores[1].flat[0] = value
        with pytest.raises(ValueError, match=f"^{name} holds a non-finite entry$"):
            solve(trains["A"], trains["y"], trains["x0"], SolverConfig(enrichment=enrichment))


class TestSweepRecord:
    """``SweepRecord.steps`` holds each local step's entry once, as made."""

    def test_forced_iterative_steps_keep_their_residuals(self, rng):
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-8, max_sweeps=4, max_direct_size=0)
        x, log = amen_solve(A, y, config=config)
        for record in log.records:
            assert [s["k"] for s in record.steps] == [1, 2, 3]
            for s in record.steps:
                assert set(s) == STEP_KEYS | (ENRICH_KEYS if s["k"] < 3 else set())
                assert s["path"] == "cg" and s["kept_guess"] is False
                assert 0 < s["local_res_before"]

    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    def test_enrichment_keys_only_where_enriched_and_no_arrays(
        self, rng, solve, enrichment
    ):
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-8, enrichment=enrichment, max_sweeps=3)
        x, log = solve(A, y, config=config)
        plain = (bool, int, float, str, type(None))
        for record in log.records:
            # DMRG takes one step per pair of cores
            assert len(record.steps) == (2 if solve is dmrg_solve else 3)
            for s in record.steps:
                enriched = _enriches(solve, enrichment) and s["k"] < 3
                assert set(s) == STEP_KEYS | (ENRICH_KEYS if enriched else set())
                # plain values only, so a kept log pins no array
                assert all(type(v) in plain for v in s.values()), s
            assert all(type(r) is int for r in record.ranks)


class TestContractBits:
    """Every solver keeps its bits with ``np.tensordot`` in ``_contract``'s place.

    ``poisson`` takes direct steps (and the workspace's direct matrix),
    ``poisson-iterative`` CG; ``qtt-iterative`` takes GMRES and both routes
    of ``_residual_block_product`` (ALS from a rank-12 start reaches the
    factored one too).
    """

    @staticmethod
    def case(name, enrichment):
        config = SolverConfig(tol=1e-6, max_sweeps=3, enrichment=enrichment)
        if name == "qtt-iterative":
            A = _qtt_cme_system()
            y = tt_random(A.row_sizes, 2, rng=np.random.default_rng(0))
        else:
            A, y = build_poisson(PoissonSpec(dimension=4, grid_points=8))
        if name != "poisson":
            config = replace(config, max_direct_size=0)
        return A, y, config

    @pytest.mark.parametrize("name", ["poisson", "poisson-iterative", "qtt-iterative"])
    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    def test_same_bits_as_tensordot(self, monkeypatch, name, solve, enrichment):
        A, y, config = self.case(name, enrichment)
        x0 = None
        if (solve, enrichment) == (amen_solve, "none"):
            x0 = tt_random(A.col_sizes, 12, rng=np.random.default_rng(1))

        def run():
            x, log = solve(A, y, x0, config)
            return [c.tobytes() for c in x.cores], [r.rel_residual for r in log.records]

        planned = run()
        calls = []

        def tensordot(a, b, axes):
            calls.append(axes)
            return np.tensordot(a, b, axes)

        monkeypatch.setattr(ttamen.tt, "_contract", tensordot)
        monkeypatch.setattr(ttamen.amen, "_contract", tensordot)
        assert run() == planned
        assert calls


class TestStopRule:
    """Converged at ``rel <= tol``.  A run stalls once the global residual
    falls by less than 10% over two sweeps; without enrichment, also once
    every local system was solved on entry."""

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
        # every solver, enriching or not: no local system here is solved on entry
        assert len(log.records) == (3 if stalls else 4)
        expected = ("stalled", "residual_stagnation") if stalls else ("max_sweeps",) * 2
        assert (log.status, log.stop_reason) == expected

    def test_dmrg_stalls_on_a_flat_residual(self):
        # DMRG's local criterion never fires here: it held 2.530e-9 from sweep
        # 3 to sweep 20 when only enriching runs stalled on the residual
        A, y = build_poisson(PoissonSpec(dimension=5, grid_points=8))
        x, log = dmrg_solve(A, y, config=SolverConfig(tol=1e-9, max_sweeps=20))
        rel = [r.rel_residual for r in log.records]
        assert (log.status, log.stop_reason) == ("stalled", "residual_stagnation")
        assert len(rel) == 4 and rel[-1] > 0.9 * rel[-3] and min(rel) > 1e-9

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
        x, log = amen_solve(A, y, config=replace(config, enrichment="none"))
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

    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    def test_returns_the_iterate_of_the_best_check(self, rng, monkeypatch, solve, enrichment):
        self.script(monkeypatch, [0.5, 0.1, 0.3])
        results = []
        real = ttamen.amen._sweep

        def sweep(*args, **kwargs):
            out = real(*args, **kwargs)
            results.append(out[0])
            return out

        monkeypatch.setattr(ttamen.amen, "_sweep", sweep)
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-6, max_sweeps=3, enrichment=enrichment)
        x, log = solve(A, y, config=config)
        assert log.status != "converged" and len(log.records) >= 2
        assert x is results[1]
        assert log.best is log.records[1] and log.final_residual == 0.1

    @pytest.mark.parametrize("solve, d", [(amen_solve, 4), (dmrg_solve, 5)])
    def test_a_wandering_run_returns_its_best_iterate(self, solve, d):
        # a shift of 8 does not dominate the rank-2 noise at d >= 4, so these
        # runs end far above their best check (42, 6.3, 12, 36 for amen)
        n, rng = 4, np.random.default_rng(1234)
        noise = ttmat_random([n] * d, [n] * d, 2, rng=rng)
        A = tt_add(ttmat_identity([n] * d), noise, 8.0, 1.0)
        y = tt_random([n] * d, 2, rng=rng)
        x, log = solve(A, y, config=SolverConfig(tol=1e-10, kickrank=2))
        residuals = [r.rel_residual for r in log.records]
        best = int(np.argmin(residuals))
        assert log.status != "converged" and residuals[-1] > 2 * residuals[best]
        assert log.best is log.records[best] and log.final_residual == residuals[best]
        Ad, yd = to_dense(A), to_dense(y)
        dense = np.linalg.norm(yd - Ad @ to_dense(x)) / np.linalg.norm(yd)
        assert abs(dense - residuals[best]) <= 1e-10 * dense
        assert list(x.ranks) == log.best.ranks


def _small_cme_time_system():
    """A QTT CME time system on 14 binary cores, with its right-hand side.

    At ``kickrank=2`` its svd and chol runs to 1e-8 take 11 sweeps at one
    BLAS thread, and one of their early sweeps leaves more than 0.3 of the
    residual before it.
    """
    spec = CascadeCMESpec(species=3, states=8)
    A = qtt_quantize(build_cme_operator(spec), tol=1e-13)
    psi0 = qtt_quantize(build_initial_state(spec), tol=1e-13)
    M, b = build_time_system(A, psi0, TimeSystemSpec(tau=0.1, n_steps=32))
    return qtt_quantize(M, tol=1e-13), qtt_quantize(b, tol=1e-13)


def _trigger_sweep(log):
    """0-based index of the first sweep that leaves more than 0.3 of the one before."""
    rel = [r.rel_residual for r in log.records]
    return next(s for s in range(1, len(rel)) if rel[s] > _WIDEN_ABOVE * rel[s - 1])


def _widths(record):
    """The enrichment widths of one sweep's cores; the last core has none."""
    assert "enrich_width" not in record.steps[-1]
    return [s["enrich_width"] for s in record.steps[:-1]]


class TestEnrichmentWidth:
    """svd/chol start at ``kickrank`` and double their width once a sweep
    leaves more than 0.3 of the residual before it, up to ``2·kickrank``;
    ALS keeps ``kickrank``."""

    @pytest.mark.parametrize("rel", [0.3, 0.1, 0.0])
    def test_no_change_at_a_contraction_of_at_most_0_3(self, rel):
        assert _next_width(3, rel, 1.0, 3) == 3

    @pytest.mark.parametrize("rel", [np.nextafter(0.3, 1.0), 0.5, 2.0])
    def test_doubles_above_0_3(self, rel):
        assert _next_width(3, rel, 1.0, 3) == 6

    @pytest.mark.parametrize("width", [5, 6])
    def test_capped_at_twice_kickrank(self, width):
        assert _next_width(width, 0.9, 1.0, 3) == 6

    def test_no_change_on_the_first_sweep(self):
        assert _next_width(3, 0.9, None, 3) == 3

    def test_never_shrinks(self):
        assert _next_width(6, 1e-3, 1.0, 3) == 6

    @pytest.fixture(scope="class")
    def system(self):
        return _small_cme_time_system()

    @pytest.mark.parametrize("enrichment", ["svd", "chol"])
    def test_width_doubles_after_the_trigger_sweep(self, system, enrichment):
        kickrank = 2
        config = SolverConfig(tol=1e-8, enrichment=enrichment, kickrank=kickrank)
        x, log = amen_solve(*system, config=config)
        assert log.status == "converged"
        trigger = _trigger_sweep(log)
        assert trigger + 1 < len(log.records)
        for s, record in enumerate(log.records):
            cap = kickrank if s <= trigger else 2 * kickrank
            assert max(_widths(record)) <= cap
        later = [w for record in log.records[trigger + 1:] for w in _widths(record)]
        assert 2 * kickrank in later
        # the rank profile of every sweep is kept
        assert all(r.max_rank == max(r.ranks) for r in log.records)
        assert log.records[-1].ranks == list(x.ranks)

    def test_max_rank_trims_the_wider_blocks(self, system):
        config = SolverConfig(
            tol=1e-8, enrichment="svd", kickrank=2, max_rank=12, max_sweeps=12
        )
        x, log = amen_solve(*system, config=config)
        assert 4 in [w for record in log.records for w in _widths(record)]
        assert all(max(r.ranks) <= 12 for r in log.records)
        assert max(x.ranks) == 12

    def test_als_keeps_kickrank(self, system):
        config = SolverConfig(tol=1e-8, enrichment="als", kickrank=2)
        x, log = amen_solve(*system, config=config)
        _trigger_sweep(log)  # a sweep that would widen svd/chol
        widths = [w for record in log.records for w in _widths(record)]
        assert max(widths) == 2


class TestGlobalResidual:
    def test_reported_residual_is_exact(self):
        # the solver's residual is the unrounded ||y - A x|| / ||y||
        A, y = build_poisson(PoissonSpec(dimension=3, grid_points=8))
        x, log = amen_solve(A, y, config=SolverConfig(tol=1e-5))
        Ad, yd = to_dense(A), to_dense(y)
        dense = np.linalg.norm(yd - Ad @ to_dense(x)) / np.linalg.norm(yd)
        assert abs(log.final_residual - dense) <= 1e-10 * dense

    @ROUTES
    def test_check_needs_no_rounding(self, rng, monkeypatch, solve, enrichment):
        def no_rounding(*args, **kwargs):
            raise AssertionError("the residual check must not round")

        monkeypatch.setattr(ttamen.amen, "tt_round", no_rounding)
        A, y = random_spd_system(3, 4, rng)
        config = SolverConfig(tol=1e-8, max_sweeps=3, enrichment=enrichment)
        x, log = solve(A, y, config=config)
        assert log.records
        assert np.isfinite(log.final_residual)


class TestSweepPreparation:
    """One residual sweep per start iterate and one symmetry probe per solve;
    no set-up after the last sweep."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    @pytest.mark.parametrize("solve, enrichment", ALL_SOLVERS)
    def test_no_set_up_after_the_last_sweep(self, rng, monkeypatch, solve, enrichment):
        A, y = random_spd_system(3, 4, rng)
        x0 = tt_random(A.col_sizes, 4, rng=rng)  # full rank: ALS converges too
        orth = self.count_calls(monkeypatch, ttamen.amen, "orthogonalize")
        checks = self.count_calls(monkeypatch, ttamen.amen, "_residual_sweep")
        envs = self.count_calls(monkeypatch, ttamen.amen, "build_environments")
        prep = self.count_calls(monkeypatch, EnrichmentState, "prepare_sweep")
        config = SolverConfig(tol=1e-9, enrichment=enrichment, max_sweeps=10)
        x, log = solve(A, y, x0=x0, config=config)
        assert log.status == "converged"
        sweeps = len(log.records)
        als = solve is amen_solve and enrichment == "als"
        # every method orthogonalizes the start iterate and each sweep's
        # result, and checks each result; svd/chol also sweep the start
        # iterate for its factors; the ALS set-up orthogonalizes its approximant
        assert len(orth) == sweeps + 1 + (sweeps if als else 0)
        assert len(checks) == sweeps + _reads_factors(solve, enrichment)
        assert len(envs) == sweeps
        assert len(prep) == (sweeps if _enriches(solve, enrichment) else 0)

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
        # one sweep per sweep's result, and one of the start iterate for the
        # svd/chol factors
        assert len(sweeps) == len(log.records) + _reads_factors(amen_solve, enrichment)
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

