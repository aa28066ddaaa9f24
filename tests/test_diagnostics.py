"""Convergence-theory diagnostics: rates, angles, bounds, instrumented runs."""

import numpy as np
import pytest

import ttamen
from ttamen import (
    PoissonSpec,
    angle_quantities,
    build_poisson,
    dense_oracle_solve,
    instrumented_amen_run,
    kantorovich_bound,
    phi_d,
    sd_run,
    sd_step,
    tt_add,
    ttmat_identity,
)
from ttamen.diagnostics import (
    random_spd,
    random_well_conditioned,
    run_fom_check,
    run_kantorovich_check,
    run_rate_check,
)

from conftest import rel_err


class TestKantorovich:
    def test_bound_formula(self):
        A = np.diag([1.0, 4.0])
        assert abs(kantorovich_bound(A) - 3.0 / 5.0) < 1e-14

    def test_identity_contracts_immediately(self, rng):
        A = np.eye(6)
        y = rng.standard_normal(6)
        x = rng.standard_normal(6)
        assert np.linalg.norm(sd_step(A, y, x) - y) < 1e-12

    def test_sd_step_reduces_a_norm_error(self, rng):
        A = random_spd(20, rng)
        y = rng.standard_normal(20)
        xs = np.linalg.solve(A, y)
        x = rng.standard_normal(20)
        x1 = sd_step(A, y, x)
        e0 = (xs - x) @ A @ (xs - x)
        e1 = (xs - x1) @ A @ (xs - x1)
        assert e1 <= e0

    def test_ratios_within_spectral_bound(self, rng):
        for _ in range(10):
            A = random_spd(15, rng)
            y = rng.standard_normal(15)
            ratios = sd_run(A, y, rng.standard_normal(15))
            assert np.all(ratios <= kantorovich_bound(A) + 1e-12)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            kantorovich_bound(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tt_operator_rejected(self):
        A, _ = build_poisson(PoissonSpec(dimension=2, grid_points=4))
        with pytest.raises(TypeError, match="expected ndarray"):
            kantorovich_bound(A)


class TestRateFormulas:
    def test_phi_d_zero_omegas(self):
        assert phi_d([0.5, 0.5], [0.0, 0.0]) == 0.0

    def test_phi_d_single_term(self):
        mu, w = 0.7, 0.3
        assert abs(phi_d([mu], [w]) - w * mu) < 1e-14

    def test_phi_d_telescoping_sum_at_mu_one(self, rng):
        # with all mu = 1 the squared factors telescope below 1
        w = rng.uniform(0, 1, size=5)
        val = phi_d(np.ones(5), w) ** 2
        ref = 0.0
        lead = 1.0
        for wk in w:
            ref += wk**2 * lead
            lead *= 1 - wk**2
        assert abs(val - ref) < 1e-12
        assert val <= 1.0

    def test_phi_d_validates_input(self):
        with pytest.raises(ValueError):
            phi_d([0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            phi_d([1.5], [0.5])


class TestAngleQuantities:
    def test_in_span_rhs_solved_exactly(self, rng):
        A = random_well_conditioned(20, rng)
        V, _ = np.linalg.qr(rng.standard_normal((20, 5)))
        z = A @ V @ rng.standard_normal(5)
        rep = angle_quantities(A, V, z)
        # z = A V w: the Galerkin solve recovers w up to the projection defect
        assert rep.realized <= rep.bound + 1e-10

    def test_bound_holds_random(self, rng):
        for _ in range(50):
            A = random_well_conditioned(15, rng)
            V, _ = np.linalg.qr(rng.standard_normal((15, 4)))
            z = rng.standard_normal(15)
            rep = angle_quantities(A, V, z)
            if rep.applicable:
                assert rep.realized <= rep.bound + 1e-10

    def test_zero_rhs(self, rng):
        V, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        rep = angle_quantities(np.eye(6), V, np.zeros(6))
        assert not rep.applicable

    def test_requires_orthonormal_basis(self, rng):
        with pytest.raises(ValueError):
            angle_quantities(np.eye(4), 2 * np.eye(4)[:, :2], np.ones(4))

    def test_identity_operator_angle_zero(self, rng):
        V, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        z = rng.standard_normal(8)
        rep = angle_quantities(np.eye(8), V, z)
        # sqrt(1 - c^2) amplifies round-off in c to ~1e-8; that is still zero
        assert rep.omega < 1e-7
        # with omega ~ 0 the bound collapses to the projection defect
        assert abs(rep.bound - rep.eps) < 1e-7


class TestDenseOracle:
    def test_solves_and_checks(self, rng):
        A = random_spd(30, rng)
        y = rng.standard_normal(30)
        x = dense_oracle_solve(A, y)
        assert rel_err(A @ x, y) < 1e-10

    def test_size_cap(self, monkeypatch):
        # the cap is to_dense's, counted in entries of A
        monkeypatch.setattr(ttamen.tt, "DEFAULT_DENSE_CAP", 15)
        with pytest.raises(ValueError):
            dense_oracle_solve(np.eye(4), np.ones(4))

    def test_singular_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            dense_oracle_solve(np.zeros((3, 3)), np.ones(3))


class TestInstrumentedRun:
    @pytest.mark.parametrize("kickrank", [1, 2, 4])
    def test_rate_identity_and_monotonicity(self, kickrank):
        A, _ = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        A = tt_add(A, ttmat_identity(A.row_sizes), 1.0, 1.0)
        from ttamen import tt_ones
        rep = instrumented_amen_run(A, tt_ones([4, 4, 4]), sweeps=2, kickrank=kickrank)
        assert rep.monotone
        for s in rep.sweeps:
            assert s["identity_gap"] <= 1e-10

    def test_omegas_below_kantorovich_bound_shape(self):
        A, _ = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        from ttamen import tt_ones
        rep = instrumented_amen_run(A, tt_ones([4, 4, 4]), sweeps=1, kickrank=2)
        (sweep,) = rep.sweeps
        assert len(sweep["mu"]) == 3
        assert len(sweep["omega"]) == 2
        assert all(0 <= w <= 1 + 1e-12 for w in sweep["omega"])

    def test_non_spd_rejected(self, rng):
        from ttamen import tt_random, ttmat_random
        A = ttmat_random([3, 3], [3, 3], 2, rng=rng)
        with pytest.raises(ValueError):
            instrumented_amen_run(A, tt_random([3, 3], 1, rng=rng))


class TestSuites:
    def test_kantorovich_suite(self):
        rep = run_kantorovich_check(trials=30, seed=0)
        assert rep["passed"] and rep["failures"] == 0

    def test_rate_suite(self):
        rep = run_rate_check(trials=2, seed=0)
        assert rep["passed"]
        assert rep["worst_identity_gap"] <= 1e-10

    def test_fom_suite(self):
        rep = run_fom_check(trials=200, seed=0)
        assert rep["passed"] and rep["violations"] == 0
