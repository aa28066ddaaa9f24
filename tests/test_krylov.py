"""The in-house CG and GMRES: the same iterates as SciPy's, fewer products."""

import numpy as np
import pytest
import scipy
import scipy.sparse.linalg as spla

import ttamen.amen
from ttamen import krylov
from ttamen.amen import _LocalOperator, _solve_local_iterative, _Workspace

# the solvers transcribe SciPy 1.17's; other releases may round differently
SAME_BITS = scipy.__version__.startswith("1.17.")


def assert_same(x, x_ref):
    if SAME_BITS:
        assert np.array_equal(x, x_ref)
    else:
        np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12 * np.linalg.norm(x_ref))


class Counted(krylov.LinearOperator):
    """A dense operator that counts its products."""

    def __init__(self, M):
        self.products = 0

        def matvec(v):
            self.products += 1
            return M @ v

        super().__init__(M.shape, matvec, M.dtype)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def spd(rng, n=80):
    M = rng.standard_normal((n, n))
    return M @ M.T / n + 0.05 * np.eye(n)


def nonsymmetric(rng, n=80):
    return 2.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)


class TestSameIteratesAsScipy:
    @pytest.mark.parametrize("with_x0", [False, True])
    def test_cg_on_spd_system(self, rng, with_x0):
        M = spd(rng)
        b = rng.standard_normal(M.shape[0])
        x0 = rng.standard_normal(b.size) if with_x0 else None
        for maxiter in (400, 7):  # converged, and stopped early
            x, code = krylov.cg(Counted(M), b, x0=x0, rtol=1e-10, maxiter=maxiter)
            x_ref, code_ref = spla.cg(M, b, x0=x0, rtol=1e-10, atol=0.0, maxiter=maxiter)
            assert code == code_ref == (0 if maxiter == 400 else maxiter)
            assert_same(x, x_ref)

    @pytest.mark.parametrize("with_x0", [False, True])
    def test_gmres_over_restart_cycles(self, rng, with_x0):
        M = nonsymmetric(rng)
        b = rng.standard_normal(M.shape[0])
        x0 = rng.standard_normal(b.size) if with_x0 else None
        op = Counted(M)
        kwargs = dict(x0=x0, rtol=1e-12, restart=6, maxiter=40)
        x, code, rnorm = krylov.gmres(op, b, **kwargs)
        x_ref, code_ref = spla.gmres(M, b, atol=0.0, **kwargs)
        assert code == code_ref == 0
        assert op.products > 3 * (6 + 1)  # at least three restart cycles
        assert_same(x, x_ref)
        assert rnorm == np.linalg.norm(b - M @ x)

    def test_gmres_out_of_cycles(self, rng):
        M = nonsymmetric(rng)
        b = rng.standard_normal(M.shape[0])
        x, code, rnorm = krylov.gmres(Counted(M), b, rtol=1e-14, restart=3, maxiter=2)
        x_ref, code_ref = spla.gmres(M, b, rtol=1e-14, atol=0.0, restart=3, maxiter=2)
        assert code == code_ref == 2
        assert_same(x, x_ref)
        assert rnorm == np.linalg.norm(b - M @ x)


LIMITS = {
    "cg": dict(rtol=1e-10, maxiter=100),
    "gmres": dict(rtol=1e-10, restart=20, maxiter=5),
}


class TestEdgeCases:
    @pytest.mark.parametrize("solver", ["cg", "gmres"])
    def test_zero_rhs_returns_zeros(self, rng, solver):
        op = Counted(spd(rng, 10))
        out = getattr(krylov, solver)(op, np.zeros(10), x0=np.ones(10), **LIMITS[solver])
        assert np.array_equal(out[0], np.zeros(10)) and out[1] == 0
        assert op.products == 0

    @pytest.mark.parametrize("solver", ["cg", "gmres"])
    def test_exact_guess_makes_no_product(self, rng, solver):
        op = Counted(spd(rng, 10))
        x0 = rng.standard_normal(10)
        b = op.matvec(x0)
        r0 = b - op.matvec(x0)
        assert not r0.any()
        op.products = 0
        out = getattr(krylov, solver)(op, b, x0=x0, r0=r0, **LIMITS[solver])
        assert op.products == 0
        assert np.array_equal(out[0], x0) and out[1] == 0
        assert out[0] is not x0  # the guess is copied, not updated in place

    @pytest.mark.parametrize("rank", [0, 2])
    def test_gmres_breakdown(self, rng, rank):
        # the Krylov space closes within the first cycle: a zero operator
        # leaves a zero triangle, a rank-2 one a (near) singular one
        n = 6
        M = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
        b = rng.standard_normal(n)
        kwargs = dict(rtol=1e-10, restart=6, maxiter=2)
        x, code, rnorm = krylov.gmres(Counted(M), b, **kwargs)
        x_ref, code_ref = spla.gmres(M, b, atol=0.0, **kwargs)
        assert code == code_ref == 2
        assert_same(x, x_ref)
        assert rnorm == np.linalg.norm(b - M @ x)

    def test_given_r0_replaces_the_first_product(self, rng):
        M = nonsymmetric(rng, 30)
        b, x0 = rng.standard_normal(30), rng.standard_normal(30)
        own, given = Counted(M), Counted(M)
        x1, _, _ = krylov.gmres(own, b, x0=x0, **LIMITS["gmres"])
        x2, _, _ = krylov.gmres(given, b, x0=x0, r0=b - M @ x0, **LIMITS["gmres"])
        assert np.array_equal(x1, x2)
        assert given.products == own.products - 1


class TestLocalSolve:
    """``_solve_local_iterative``: one product for ``r0``, shared by the solvers."""

    def test_failed_cg_hands_its_iterate_to_gmres(self, rng, monkeypatch):
        # singular, with the rhs outside the range: CG cannot converge
        n = 40
        M = rng.standard_normal((n, n - 1))
        M = M @ M.T
        b = np.linalg.svd(M)[0][:, -1] + rng.standard_normal(n)
        one = np.ones((1, 1, 1))
        loc = _LocalOperator(one, M.reshape(1, n, n, 1), one, _Workspace())
        seen = {}

        class Spy:
            LinearOperator = krylov.LinearOperator

            def cg(self, op, b, **kwargs):
                seen["cg"] = krylov.cg(op, b, **kwargs)
                return seen["cg"]

            def gmres(self, op, b, **kwargs):
                seen["gmres_kwargs"] = kwargs
                return krylov.gmres(op, b, **kwargs)

        monkeypatch.setattr(ttamen.amen, "spla", Spy())
        u, info = _solve_local_iterative(loc, b, np.zeros(n), 1e-12, symmetric=True)
        x_cg, code = seen["cg"]
        assert code > 0 and info["path"] == "cg+gmres"
        assert np.array_equal(seen["gmres_kwargs"]["x0"], x_cg)
        assert seen["gmres_kwargs"]["r0"] is None  # GMRES forms it from x_cg
        assert info["residual"] == np.linalg.norm(b - loc.matvec(u))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_reports_both_residuals(self, rng, symmetric):
        n = 50
        M = spd(rng, n) if symmetric else nonsymmetric(rng, n)
        one = np.ones((1, 1, 1))
        loc = _LocalOperator(one, M.reshape(1, n, n, 1), one, _Workspace())
        b, guess = rng.standard_normal(n), rng.standard_normal(n)
        u, info = _solve_local_iterative(loc, b, guess, 1e-10, symmetric=symmetric)
        assert info["path"] == ("cg" if symmetric else "gmres")
        assert info["residual_before"] == np.linalg.norm(b - loc.matvec(guess))
        assert info["residual"] == np.linalg.norm(b - loc.matvec(u))
        assert info["residual"] <= 1e-10 * np.linalg.norm(b)
