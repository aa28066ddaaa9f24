"""Problem generators against independently assembled dense references."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttamen import (
    CascadeCMESpec,
    PoissonSpec,
    SolverConfig,
    TimeSystemSpec,
    amen_solve,
    build_cme_operator,
    build_initial_state,
    build_poisson,
    build_time_system,
    eval_entry,
    laplace_1d,
    qtt_quantize,
    to_dense,
    tt_norm,
)

from conftest import rel_err

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_in_capped_memory(body: str) -> dict:
    """Run ``body`` in a child limited to 512 MiB of address space and one
    BLAS thread, after ``from ttamen import *``; return the JSON it prints."""
    code = (
        "import json, resource\n"
        "cap = 512 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "import numpy as np\n"
        "from ttamen import *\n"
    ) + body
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def dense_cme_generator(spec: CascadeCMESpec) -> np.ndarray:
    """Direct dense assembly of the cascade generator from the rate formula.

    State (i_1..i_d), little-endian flattening.  Reactions per species k:
    production at rate alpha0 (k=1) or beta*i_{k-1}/(beta*i_{k-1}+gamma)
    (k>1), degradation at rate delta*i_k.  Production into a state beyond
    the truncation window is dropped; the outflow stays (sub-generator).
    """
    d, n = spec.species, spec.states
    size = n**d
    A = np.zeros((size, size))
    strides = [n**k for k in range(d)]

    def flat(idx):
        return sum(i * s for i, s in zip(idx, strides))

    for f in range(size):
        idx = [(f // strides[k]) % n for k in range(d)]
        for k in range(d):
            if k == 0:
                prod = spec.alpha0
            else:
                i_prev = idx[k - 1]
                prod = spec.beta * i_prev / (spec.beta * i_prev + spec.gamma)
            # production: outflow always, inflow only if the target exists
            A[f, f] -= prod
            if idx[k] + 1 < n:
                tgt = idx.copy()
                tgt[k] += 1
                A[flat(tgt), f] += prod
            deg = spec.delta * idx[k]
            A[f, f] -= deg
            if idx[k] - 1 >= 0:
                tgt = idx.copy()
                tgt[k] -= 1
                A[flat(tgt), f] += deg
    return A


class TestPoisson:
    def test_one_dim_stencil(self):
        A, y = build_poisson(PoissonSpec(dimension=1, grid_points=3))
        expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert rel_err(to_dense(A), expected) < 1e-14
        assert rel_err(to_dense(y), np.ones(3)) < 1e-14

    def test_stencil_eigenvalues(self):
        n = 8
        lam = np.sort(np.linalg.eigvalsh(laplace_1d(n)))
        k = np.arange(1, n + 1)
        ref = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
        assert rel_err(lam, np.sort(ref)) < 1e-12

    def test_kronecker_sum_action(self, rng):
        d, n = 3, 4
        A, _ = build_poisson(PoissonSpec(dimension=d, grid_points=n))
        L, I = laplace_1d(n), np.eye(n)
        dense = (
            np.kron(I, np.kron(I, L)) + np.kron(I, np.kron(L, I)) + np.kron(L, np.kron(I, I))
        )
        from ttamen import tt_matvec, tt_random
        x = tt_random([n] * d, 2, rng=rng)
        assert rel_err(to_dense(tt_matvec(A, x)), dense @ to_dense(x)) < 1e-12
        assert rel_err(to_dense(A), dense) < 1e-12

    def test_dmrg_on_64_cubed_solves_in_capped_memory(self):
        """Two-site DMRG on d=3, n=64 in a child limited to 512 MiB of address
        space: the merged core of two neighbors, (2, 4096, 4096, 2), would
        alone take 537 MB, and the matrix-free steps never form it."""
        out = _run_in_capped_memory(
            "A, y = build_poisson(PoissonSpec(dimension=3, grid_points=64))\n"
            "x, log = dmrg_solve(A, y, config=SolverConfig(tol=1e-5, seed=0))\n"
            "print(json.dumps({'status': log.status, 'sweeps': len(log.records),\n"
            "                  'ranks': list(x.ranks), 'residual': log.final_residual}))\n"
        )
        assert out["status"] == "stalled" and out["sweeps"] == 4
        assert out["ranks"] == [1, 5, 5, 1]
        assert abs(out["residual"] - 9.5334e-4) < 1e-8

    def test_operator_ranks_bounded(self):
        A, _ = build_poisson(PoissonSpec(dimension=5, grid_points=4))
        assert max(A.ranks) <= 2

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (3, 8)])
    def test_spd(self, d, n):
        A, _ = build_poisson(PoissonSpec(dimension=d, grid_points=n))
        Ad = to_dense(A)
        assert np.linalg.norm(Ad - Ad.T) < 1e-14
        assert np.linalg.eigvalsh(Ad)[0] > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PoissonSpec(dimension=0)
        with pytest.raises(ValueError):
            PoissonSpec(dimension=2, grid_points=1)


class TestCME:
    def test_default_rates(self):
        spec = CascadeCMESpec(species=3)
        assert (spec.alpha0, spec.delta, spec.beta, spec.gamma) == (0.7, 0.07, 1.0, 5.0)

    def test_rates_are_not_settable(self):
        with pytest.raises(TypeError, match="alpha0"):
            CascadeCMESpec(species=2, alpha0=0.7)

    def test_dense_formula_all_entries(self):
        spec = CascadeCMESpec(species=2, states=4)
        A = build_cme_operator(spec)
        ref = dense_cme_generator(spec)
        assert rel_err(to_dense(A), ref) < 1e-13

    def test_three_species_dense(self):
        spec = CascadeCMESpec(species=3, states=3)
        assert rel_err(to_dense(build_cme_operator(spec)), dense_cme_generator(spec)) < 1e-13

    def test_coupling_zero_without_upstream(self):
        spec = CascadeCMESpec(species=2, states=4)
        Ad = to_dense(build_cme_operator(spec))
        ref = dense_cme_generator(spec)
        # state (0, j): production on species 2 has rate beta*0/(gamma) = 0,
        # so the only transition raising species 2 from (0, j) is absent
        n = spec.states
        for j in range(n - 1):
            src = 0 + n * j
            dst = 0 + n * (j + 1)
            assert Ad[dst, src] == 0.0
            assert ref[dst, src] == 0.0

    def test_interior_column_sums_vanish(self):
        spec = CascadeCMESpec(species=2, states=5)
        Ad = to_dense(build_cme_operator(spec))
        n = spec.states
        cols = Ad.sum(axis=0)
        for i1 in range(1, n - 1):
            for i2 in range(1, n - 1):
                assert abs(cols[i1 + n * i2]) < 1e-12

    def test_operator_ranks_bounded(self):
        A = build_cme_operator(CascadeCMESpec(species=5, states=4))
        assert max(A.ranks) <= 3

    def test_initial_state(self):
        spec = CascadeCMESpec(species=3, states=4)
        psi0 = build_initial_state(spec)
        assert eval_entry(psi0, (1, 1, 1)) == 1.0
        dense = to_dense(psi0)
        assert np.count_nonzero(dense) == 1
        assert abs(tt_norm(psi0) - 1.0) < 1e-14

    def test_one_species(self):
        # d = 1: one core, no coupling; its sub-generator is nonsingular
        spec = CascadeCMESpec(species=1, states=4)
        A = build_cme_operator(spec)
        assert A.ranks == (1, 1)
        assert rel_err(to_dense(A), dense_cme_generator(spec)) < 1e-13
        psi0 = build_initial_state(spec)
        x, log = amen_solve(A, psi0, config=SolverConfig(tol=1e-12))
        assert log.status == "converged" and len(log.records) == 1
        ref = np.linalg.solve(to_dense(A), to_dense(psi0))
        assert rel_err(to_dense(x), ref) < 1e-12

    @pytest.mark.parametrize(
        "field, value",
        [
            ("species", 0),
            ("states", 1),
        ],
    )
    def test_spec_validation(self, field, value):
        kwargs = {"species": 2, field: value}
        with pytest.raises(ValueError, match=field):
            CascadeCMESpec(**kwargs)

    def test_qtt_wrapped_same_operator(self):
        spec = CascadeCMESpec(species=2, states=8)
        A = build_cme_operator(spec)
        q = qtt_quantize(A, tol=1e-13)
        assert rel_err(to_dense(q), to_dense(A)) < 1e-11


class TestTimeSystem:
    def test_single_step_matches_dense_crank_nicolson(self):
        spec = CascadeCMESpec(species=2, states=4)
        A = build_cme_operator(spec)
        psi0 = build_initial_state(spec)
        tau = 0.05
        M, b = build_time_system(A, psi0, TimeSystemSpec(tau=tau, n_steps=1))
        Ad = to_dense(A)
        n = Ad.shape[0]
        ref = np.linalg.solve(
            np.eye(n) - 0.5 * tau * Ad, (np.eye(n) + 0.5 * tau * Ad) @ to_dense(psi0)
        )
        sol = np.linalg.solve(to_dense(M), to_dense(b))
        assert rel_err(sol, ref) < 1e-11

    def test_zero_dynamics_keeps_initial_state(self):
        from ttamen import TTMatrix
        spec = CascadeCMESpec(species=2, states=3)
        psi0 = build_initial_state(spec)
        zero = TTMatrix(
            [np.zeros((1, 3, 3, 1)), np.zeros((1, 3, 3, 1))]
        )
        nt = 4
        M, b = build_time_system(zero, psi0, TimeSystemSpec(tau=0.1, n_steps=nt))
        sol = np.linalg.solve(to_dense(M), to_dense(b))
        psi = to_dense(psi0)
        for m in range(nt):
            assert rel_err(sol[m * psi.size : (m + 1) * psi.size], psi) < 1e-12

    def test_all_at_once_matches_sequential_stepping(self):
        spec = CascadeCMESpec(species=2, states=3)
        A = build_cme_operator(spec)
        psi0 = build_initial_state(spec)
        tau, nt = 0.2, 4
        M, b = build_time_system(A, psi0, TimeSystemSpec(tau=tau, n_steps=nt))
        Ad = to_dense(A)
        n = Ad.shape[0]
        P = np.eye(n) - 0.5 * tau * Ad
        Q = np.eye(n) + 0.5 * tau * Ad
        sol = np.linalg.solve(to_dense(M), to_dense(b))
        psi = to_dense(psi0)
        for m in range(nt):
            psi = np.linalg.solve(P, Q @ psi)
            assert rel_err(sol[m * n : (m + 1) * n], psi) < 1e-10

    def test_time_mode_is_last(self):
        spec = CascadeCMESpec(species=2, states=3)
        A = build_cme_operator(spec)
        psi0 = build_initial_state(spec)
        M, b = build_time_system(A, psi0, TimeSystemSpec(tau=0.1, n_steps=8))
        assert M.row_sizes == (3, 3, 8)
        assert b.mode_sizes == (3, 3, 8)

    # the ids name the one scheme, Crank-Nicolson
    @pytest.mark.parametrize("nt", [2, 4, 8, 16], ids=lambda nt: f"{nt}-crank_nicolson")
    def test_binary_time_axis_matches_dense_time_mode(self, nt):
        spec = CascadeCMESpec(species=2, states=4)
        A, psi0 = build_cme_operator(spec), build_initial_state(spec)
        tspec = TimeSystemSpec(tau=0.1, n_steps=nt)
        Aq, psi0q = qtt_quantize(A, tol=1e-13), qtt_quantize(psi0, tol=1e-13)
        M, b = build_time_system(Aq, psi0q, tspec)
        layout = Aq.row_sizes + (2,) * (nt.bit_length() - 1)
        assert M.row_sizes == M.col_sizes == layout
        assert b.mode_sizes == layout
        # the unquantized operator keeps one dense time mode
        Md, bd = build_time_system(A, psi0, tspec)
        assert Md.row_sizes == (4, 4, nt)
        assert rel_err(to_dense(M), to_dense(Md)) < 1e-13
        assert rel_err(to_dense(b), to_dense(bd)) < 1e-13

    @pytest.mark.parametrize("nt", [1, 6])
    def test_binary_space_keeps_one_time_mode_off_powers_of_two(self, nt):
        spec = CascadeCMESpec(species=2, states=4)
        A = qtt_quantize(build_cme_operator(spec), tol=1e-13)
        psi0 = qtt_quantize(build_initial_state(spec), tol=1e-13)
        M, b = build_time_system(A, psi0, TimeSystemSpec(tau=0.1, n_steps=nt))
        assert M.row_sizes == M.col_sizes == (2,) * 4 + (nt,)
        assert b.mode_sizes == (2,) * 4 + (nt,)

    def test_2_16_steps_solve_in_capped_memory(self):
        """One species of 4 states, 65,536 Crank-Nicolson steps of 10/65,536,
        built and solved in a child limited to 512 MiB of address space: a
        dense time mode would ask for 32 GiB in ``np.eye(65536)``."""
        nt, tau = 2**16, 10.0 / 2**16
        out = _run_in_capped_memory(
            "spec = CascadeCMESpec(species=1, states=4)\n"
            "A = qtt_quantize(build_cme_operator(spec), tol=1e-13)\n"
            "psi0 = qtt_quantize(build_initial_state(spec), tol=1e-13)\n"
            f"M, b = build_time_system(A, psi0, TimeSystemSpec(tau={tau!r}, n_steps={nt}))\n"
            "x, log = amen_solve(M, b, config=SolverConfig(tol=1e-8, enrichment='als'))\n"
            "v = np.ones((1, 1))\n"
            "for core in reversed(x.cores[2:]):  # time bits, all 1 at the last step\n"
            "    v = core[:, 1, :] @ v\n"
            "last = to_dense(TTVector([x.cores[0], x.cores[1] @ v]))\n"
            "print(json.dumps({'status': log.status, 'cores': len(M.cores), 'last': last.tolist()}))\n"
        )
        assert out["status"] == "converged" and out["cores"] == 2 + 16

        Ad = to_dense(build_cme_operator(CascadeCMESpec(species=1, states=4)))
        step = np.linalg.solve(np.eye(4) - 0.5 * tau * Ad, np.eye(4) + 0.5 * tau * Ad)
        psi = np.eye(4)[:, 0]
        for _ in range(nt):
            psi = step @ psi
        assert rel_err(out["last"], psi) < 1e-8

    def test_incompatible_sizes_rejected(self):
        spec = CascadeCMESpec(species=2, states=3)
        A = build_cme_operator(spec)
        psi0 = build_initial_state(CascadeCMESpec(species=2, states=4))
        with pytest.raises(ValueError):
            build_time_system(A, psi0, TimeSystemSpec(tau=0.1, n_steps=2))

    def test_amen_solves_time_system(self):
        spec = CascadeCMESpec(species=2, states=4)
        A = build_cme_operator(spec)
        psi0 = build_initial_state(spec)
        M, b = build_time_system(A, psi0, TimeSystemSpec(tau=0.25, n_steps=8))
        x, log = amen_solve(M, b, config=SolverConfig(tol=1e-9, max_sweeps=30))
        ref = np.linalg.solve(to_dense(M), to_dense(b))
        assert rel_err(to_dense(x), ref) < 1e-7

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TimeSystemSpec(tau=0.0, n_steps=1)
        with pytest.raises(ValueError):
            TimeSystemSpec(tau=0.1, n_steps=0)

    @pytest.mark.parametrize("scheme", ["crank_nicolson", "implicit_euler"])
    def test_scheme_is_not_a_setting(self, scheme):
        # Crank-Nicolson is the one scheme, so no spec names one
        with pytest.raises(TypeError, match="scheme"):
            TimeSystemSpec(tau=0.1, n_steps=2, scheme=scheme)


class TestCountsAndCores:
    @pytest.mark.parametrize(
        "make, kwargs, complaint",
        [
            (PoissonSpec, dict(dimension=2.5), "dimension=2.5 (must be an int)"),
            (PoissonSpec, dict(dimension=2, grid_points=4.0), "grid_points=4.0 (must be an int)"),
            (PoissonSpec, dict(dimension=True), "dimension=True (must be an int)"),
            (CascadeCMESpec, dict(species=2, states=4.5), "states=4.5 (must be an int)"),
            (TimeSystemSpec, dict(tau=0.1, n_steps=2.5), "n_steps=2.5 (must be an int)"),
        ],
    )
    def test_spec_counts_are_ints(self, make, kwargs, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            make(**kwargs)

    @pytest.mark.parametrize(
        "make, kwargs, complaint",
        [
            (TimeSystemSpec, dict(tau="0.1", n_steps=2), "tau='0.1' (must be a real number)"),
            (TimeSystemSpec, dict(tau=True, n_steps=2), "tau=True (must be a real number)"),
            (TimeSystemSpec, dict(tau=np.nan, n_steps=2), "tau=nan (must be positive and finite)"),
        ],
    )
    def test_spec_reals_are_numbers(self, make, kwargs, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            make(**kwargs)

    def test_numpy_reals_accepted(self):
        assert TimeSystemSpec(tau=np.float32(0.5), n_steps=2).tau == 0.5

    def test_numpy_integer_counts_accepted(self):
        A, _ = build_poisson(PoissonSpec(dimension=np.int64(3), grid_points=np.int64(4)))
        ref, _ = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        assert [c.tobytes() for c in A.cores] == [c.tobytes() for c in ref.cores]
        assert build_cme_operator(CascadeCMESpec(species=np.int64(2), states=np.int64(4))).d == 2
        assert TimeSystemSpec(tau=0.1, n_steps=np.int64(3)).n_steps == 3

    @pytest.mark.parametrize("problem", ["poisson", "cme"])
    def test_no_two_cores_share_memory(self, problem):
        # the interior cores are copies of one built core, not views of it
        if problem == "poisson":
            A, _ = build_poisson(PoissonSpec(dimension=5, grid_points=4))
        else:
            A = build_cme_operator(CascadeCMESpec(species=5, states=4))
        for a, b in itertools.combinations(A.cores, 2):
            assert not np.shares_memory(a, b)
