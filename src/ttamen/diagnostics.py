"""Numerical checks of the solver's convergence theory.

Contains the worst-case steepest-descent contraction bound, the per-sweep
rate formula built from measured local progress factors, dense instrumented
runs that verify the rate formula as an identity, and angle-based one-step
bounds for Galerkin projection on nonsymmetric systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import amen as _amen
from .problems import PoissonSpec, build_poisson
from .tt import (
    TTMatrix,
    TTVector,
    _check_dense_cap,
    _left_interface,
    to_dense,
    tt_add,
    tt_dot,
    tt_matvec,
    tt_norm,
    tt_random,
    tt_round,
    ttmat_identity,
)

__all__ = [
    "RateReport",
    "AngleReport",
    "kantorovich_bound",
    "tt_extreme_eigenvalues",
    "sd_step",
    "sd_run",
    "phi_d",
    "angle_quantities",
    "fom_chain_bound",
    "dense_oracle_solve",
    "instrumented_amen_run",
]


@dataclass
class RateReport:
    """Measured convergence quantities of an instrumented run.

    ``sweeps`` holds one record per sweep with the measured per-core progress
    factors ``mu``, the projector angles ``omega``, the predicted squared rate
    ``phi_sq``, the realized energy ratio ``j_ratio``, and their gap.
    """

    lambda_min: float
    lambda_max: float
    omega_bound: float
    sweeps: list = field(default_factory=list)
    j_trace: list = field(default_factory=list)
    monotone: bool = True
    max_violation: float = 0.0


@dataclass
class AngleReport:
    """One-step Galerkin projection bound and its ingredients.

    ``eps`` is the residual projection defect, ``mu`` the smallest eigenvalue
    of the symmetric part of the projected operator, ``omega`` the induced
    angle.  ``applicable`` is False when ``mu <= 0`` (the bound says nothing).
    """

    eps: float
    mu: float
    omega: float
    realized: float
    bound: float
    applicable: bool


# ----------------------------------------------------------------------
# Contraction bounds
# ----------------------------------------------------------------------

def _check_spd(A: np.ndarray, tol: float = 1e-10):
    nrm = np.linalg.norm(A)
    if np.linalg.norm(A - A.T) > tol * max(nrm, 1e-300):
        raise ValueError("matrix is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    if w[0] <= 0:
        raise ValueError(f"matrix is not positive definite (lambda_min={w[0]:.3e})")
    return float(w[0]), float(w[-1])


def _kantorovich_ratio(lam_min: float, lam_max: float) -> float:
    """``(lam_max - lam_min) / (lam_max + lam_min)`` for a positive ``lam_min``."""
    if lam_min <= 0:
        raise ValueError(f"lambda_min={lam_min:.3e} is not positive")
    return (lam_max - lam_min) / (lam_max + lam_min)


def kantorovich_bound(A) -> float:
    """Worst-case one-step contraction of exact steepest descent on SPD A.

    For a dense array the extreme eigenvalues are computed directly (symmetry
    and positive definiteness are checked); for a TT operator they are
    estimated by :func:`tt_extreme_eigenvalues`.
    """
    if isinstance(A, np.ndarray):
        return _kantorovich_ratio(*_check_spd(A))
    if isinstance(A, TTMatrix):
        return _kantorovich_ratio(*tt_extreme_eigenvalues(A))
    raise TypeError(f"expected ndarray or TTMatrix, got {type(A)}")


def tt_extreme_eigenvalues(A: TTMatrix):
    """Power-iteration estimates of the extreme eigenvalues of a symmetric A.

    The largest eigenvalue comes from plain power iteration with rounding
    after every operator application; the smallest from power iteration on
    the spectrally shifted operator.  Each runs 100 steps from a random
    rank-2 start (seed 0) and rounds every product at 1e-6, to rank 50 at most.
    """
    rng = np.random.default_rng(0)

    def _power(M: TTMatrix) -> float:
        v = tt_round(tt_random(M.col_sizes, 2, rng=rng), 0.0)
        nrm = tt_norm(v)
        v.cores[0] /= nrm
        lam = 0.0
        for _ in range(100):
            w = tt_round(tt_matvec(M, v), 1e-6, max_rank=50)
            nrm = tt_norm(w)
            if nrm == 0:
                return 0.0
            w.cores[0] /= nrm
            lam = _rayleigh(M, w)
            v = w
        return lam

    lam_max = _power(A)
    shift = abs(lam_max) * 1.05 + 1e-30
    shifted = tt_add(ttmat_identity(A.row_sizes), A, shift, -1.0)
    lam_min = shift - _power(shifted)
    return float(lam_min), float(lam_max)


def _rayleigh(M: TTMatrix, v: TTVector) -> float:
    return float(tt_dot(v, tt_matvec(M, v)) / tt_dot(v, v))


def sd_step(A: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact steepest descent step for SPD A: x + h z with optimal h."""
    z = y - A @ x
    zz = float(z @ z)
    if zz == 0:
        return x.copy()
    h = zz / float(z @ (A @ z))
    return x + h * z


def _energy(A: np.ndarray, x_star: np.ndarray, x: np.ndarray) -> float:
    """The energy ``e^T A e`` of the error ``e = x_star - x``."""
    e = x_star - x
    return float(e @ (A @ e))


def _a_err(A: np.ndarray, x_star: np.ndarray, x: np.ndarray) -> float:
    """The A-norm of the error ``x_star - x``: the root of its energy, at least 0."""
    return float(np.sqrt(max(_energy(A, x_star, x), 0.0)))


def sd_run(A: np.ndarray, y: np.ndarray, x0: np.ndarray):
    """Run five steps of exact SD; return the per-step A-norm error contraction ratios."""
    x_star = np.linalg.solve(A, y)
    ratios = []
    x = x0
    for _ in range(5):
        before = _a_err(A, x_star, x)
        if before == 0:
            break
        x = sd_step(A, y, x)
        ratios.append(_a_err(A, x_star, x) / before)
    return np.asarray(ratios)


def _progress_factors(mu, omega):
    """``mu`` and ``omega`` as float arrays, checked to be 1-D and of equal length."""
    mu = np.asarray(mu, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if mu.shape != omega.shape or mu.ndim != 1:
        raise ValueError("mu and omega must be 1-D sequences of equal length")
    return mu, omega


def phi_d(mu, omega) -> float:
    """Predicted per-sweep contraction from local progress factors.

    ``phi**2 = sum_k omega_k^2 prod_{j<k}(1-omega_j^2) prod_{j<=k} mu_j^2``
    over k = 1..d-1; both sequences have length d-1 with entries in [0, 1].
    """
    mu, omega = _progress_factors(mu, omega)
    if np.any((mu < 0) | (mu > 1)) or np.any((omega < 0) | (omega > 1)):
        raise ValueError("entries must lie in [0, 1]")
    total = 0.0
    lead = 1.0  # prod_{j<k} (1-omega_j^2) * prod_{j<k} mu_j^2
    for m, w in zip(mu, omega):
        total += w**2 * lead * m**2
        lead *= (1.0 - w**2) * m**2
    return float(np.sqrt(min(max(total, 0.0), 1.0 + 1e-15)))


def fom_chain_bound(mu, omega) -> float:
    """Accumulated one-sweep residual bound for the nonsymmetric analysis.

    ``sum_k omega_k mu_k prod_{m<k} mu_m / sqrt(1-omega_m^2)``; requires all
    ``omega_k < 1``.
    """
    mu, omega = _progress_factors(mu, omega)
    if np.any(omega >= 1):
        raise ValueError("bound requires all omega < 1")
    total = 0.0
    lead = 1.0
    for m, w in zip(mu, omega):
        total += w * m * lead
        lead *= m / np.sqrt(1.0 - w**2)
    return float(total)


def angle_quantities(A: np.ndarray, V: np.ndarray, z: np.ndarray) -> AngleReport:
    """One Galerkin projection step on the basis V against right-hand side z.

    Treats the initial guess as zero (any guess in span(V) gives the same
    residual), computes the projection defect ``eps = ||z - V V^T z||/||z||``,
    the angle ``omega`` with ``sqrt(1-omega^2) = mu/||AV||``, the realized
    residual ratio, and the bound ``eps + omega/sqrt(1-omega^2) sqrt(1-eps^2)``.
    """
    V = np.asarray(V, dtype=float)
    if np.linalg.norm(V.T @ V - np.eye(V.shape[1])) > 1e-10:
        raise ValueError("V must have orthonormal columns")
    znorm = np.linalg.norm(z)
    if znorm == 0:
        return AngleReport(0.0, 0.0, 0.0, 0.0, 0.0, False)
    Vz = V.T @ z
    eps = float(np.linalg.norm(z - V @ Vz) / znorm)
    eps = min(eps, 1.0)
    AV = A @ V
    H = V.T @ AV
    mu = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
    av_norm = float(np.linalg.norm(AV, 2))
    applicable = mu > 0
    if applicable:
        c = min(mu / av_norm, 1.0)
        omega = float(np.sqrt(max(0.0, 1.0 - c * c)))
        bound = eps + (omega / c) * np.sqrt(max(0.0, 1.0 - eps * eps))
    else:
        omega = 1.0
        bound = np.inf
    try:
        w = np.linalg.solve(H, Vz)
        realized = float(np.linalg.norm(z - AV @ w) / znorm)
    except np.linalg.LinAlgError:
        realized = np.inf
        applicable = False
    return AngleReport(eps, mu, omega, realized, float(bound), applicable)


def dense_oracle_solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Direct reference solve with a residual check (1e-12 relative).

    ``A`` must fit the dense cap ``tt.DEFAULT_DENSE_CAP`` (``DenseSizeError``).
    """
    _check_dense_cap(A.size)
    x = np.linalg.solve(A, y)
    ynorm = np.linalg.norm(y)
    res = np.linalg.norm(y - A @ x)
    if ynorm > 0 and res > 1e-12 * ynorm:
        # one step of iterative refinement for marginally conditioned systems
        x = x + np.linalg.solve(A, y - A @ x)
        res = np.linalg.norm(y - A @ x)
        if res > 1e-10 * ynorm:
            raise np.linalg.LinAlgError(
                f"direct solve residual {res / ynorm:.3e} too large; matrix near singular"
            )
    return x


# ----------------------------------------------------------------------
# Instrumented run: measure mu_k and omega_k densely
# ----------------------------------------------------------------------

def subtrain_dense(cores) -> np.ndarray:
    """Dense vector of a core chain whose first core has left rank r > 1.

    The leading rank is treated as an extra fastest mode, matching the
    vectorization of the reduced problems.
    """
    return _left_interface(cores)[:, 0]


def reduced_system(A: np.ndarray, y: np.ndarray, left_iface: np.ndarray, rest_size: int):
    """Project (A, y) onto kron(I_rest, L) for a left interface L."""
    X = np.kron(np.eye(rest_size), left_iface)
    return X.T @ A @ X, X.T @ y, X


class _RateRecorder:
    """Collects energy values and local progress factors during a sweep.

    All quantities are computed densely, so this is meant for small systems
    only.  The projector angle at core k uses the finalized (expanded and
    orthogonalized) core, the progress factor the exact local reference.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray):
        self.A = A
        self.y = y
        self.x_star = dense_oracle_solve(A, y)
        self.mu = []
        self.omega = []
        self.j_trace = []
        self.sweep_start_j = None
        self._ctx = None

    def on_core_start(self, k0: int, x: TTVector):
        if k0 == 0:  # a new sweep
            self.mu = []
            self.omega = []
            self.sweep_start_j = _energy(self.A, self.x_star, to_dense(x))
            self.j_trace.append(self.sweep_start_j)
        rest = math.prod(x.mode_sizes[k0:])
        L = _left_interface(x.cores[:k0])
        Ak, yk, X = reduced_system(self.A, self.y, L, rest)
        t_sub = subtrain_dense(x.cores[k0:])
        self._ctx = {
            "Ak": Ak,
            "X": X,
            "x_star_k": dense_oracle_solve(Ak, yk),
            "t_sub": t_sub,
            "tail": list(x.cores[k0 + 1 :]),
            "rest_after": math.prod(x.mode_sizes[k0 + 1 :]),
        }

    def on_core_done(self, k0: int, x: TTVector, u_core: np.ndarray):
        ctx = self._ctx
        Ak, xs, t_sub = ctx["Ak"], ctx["x_star_k"], ctx["t_sub"]
        # u-subtrain: the solved core with the tail cores as they were before
        # the expansion rescales core k0+1 by the QR factor
        u_sub = subtrain_dense([u_core] + ctx["tail"])
        d = x.d
        err_t = _a_err(Ak, xs, t_sub)
        err_u = _a_err(Ak, xs, u_sub)
        self.mu.append(err_u / err_t if err_t > 0 else 1.0)
        self.j_trace.append(_energy(self.A, self.x_star, ctx["X"] @ u_sub))
        if k0 < d - 1:
            r0, n, r1 = x.cores[k0].shape
            M = np.reshape(x.cores[k0], (r0 * n, r1), order="F")
            V = np.kron(np.eye(ctx["rest_after"]), M)
            c = xs - u_sub
            AkV = Ak @ V
            w = np.linalg.solve(V.T @ AkV, V.T @ (Ak @ c))
            Rc = V @ w
            denom = float(c @ (Ak @ c))
            frac = float(c @ (Ak @ Rc)) / denom if denom > 0 else 1.0
            self.omega.append(float(np.sqrt(min(max(1.0 - frac, 0.0), 1.0))))
        self._ctx = None


def instrumented_amen_run(
    A: TTMatrix,
    y: TTVector,
    sweeps: int = 3,
    kickrank: int = 2,
    enrichment: str = "svd",
    seed: int = 0,
) -> RateReport:
    """Dense-instrumented sweeps measuring the per-core progress factors.

    The run is ``amen_solve``'s own loop (``amen._run_alternating``) with
    exact (direct) local solves and a dense recorder attached to each
    :func:`~ttamen.amen.amen_sweep`, on a problem small enough to
    materialize.  It records the energy after every local update, the
    measured progress ``mu_k`` and the projector angle ``omega_k`` of each
    finalized core.  With these definitions the measured per-sweep energy
    ratio matches the predicted rate exactly, up to round-off from the final
    core's direct solve.  It starts from ``amen_solve``'s default guess and
    stops where ``amen_solve`` with the same settings stops: at a relative
    residual of 1e-14, on a stall or after ``sweeps``.
    """
    A_dense = to_dense(A)
    y_dense = to_dense(y)
    lam_min, lam_max = _check_spd(A_dense)
    config = _amen.SolverConfig(
        tol=1e-14,
        max_sweeps=sweeps,
        kickrank=kickrank,
        enrichment=enrichment,
        max_direct_size=1 << 16,
        seed=seed,
    )
    rec = _RateRecorder(A_dense, y_dense)
    report = RateReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        omega_bound=_kantorovich_ratio(lam_min, lam_max),
    )

    def recorded_sweep(x, state, ens, config, workspace):
        out = _amen.amen_sweep(x, state, ens, config, workspace, recorder=rec)
        j_start = rec.sweep_start_j
        ratio = rec.j_trace[-1] / j_start if j_start > 0 else 0.0
        # the last core's progress is absorbed by its exact solve
        phi = phi_d(np.clip(rec.mu[:-1], 0, 1), np.clip(rec.omega, 0, 1))
        report.sweeps.append(
            {
                "mu": list(rec.mu),
                "omega": list(rec.omega),
                "phi_sq": phi**2,
                "j_ratio": ratio,
                "identity_gap": abs(ratio - phi**2),
            }
        )
        return out

    _amen._run_alternating(A, y, None, config, recorded_sweep)
    report.j_trace = list(rec.j_trace)
    diffs = np.diff(report.j_trace)
    scale = max(report.j_trace) if report.j_trace else 1.0
    report.max_violation = float(max(diffs.max(initial=0.0), 0.0) / max(scale, 1e-300))
    report.monotone = bool(report.max_violation <= 1e-10)
    return report


# ----------------------------------------------------------------------
# Randomized trial suites
# ----------------------------------------------------------------------

def random_spd(n: int, rng) -> np.ndarray:
    """Random SPD matrix with a log-uniform spectrum of condition 100."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lams = np.exp(rng.uniform(0, np.log(100.0), size=n))
    return (Q * lams) @ Q.T


def random_well_conditioned(n: int, rng) -> np.ndarray:
    """I + 0.5 N with a random perturbation scaled to unit spectral norm."""
    N = rng.standard_normal((n, n))
    N /= np.linalg.norm(N, 2)
    return np.eye(n) + 0.5 * N


def run_kantorovich_check(trials: int = 100, seed: int = 0) -> dict:
    """Check that every exact SD step on a 50 x 50 SPD matrix contracts by at
    most the spectral bound."""
    rng = np.random.default_rng(seed)
    n = 50
    worst = -np.inf
    failures = 0
    for _ in range(trials):
        A = random_spd(n, rng)
        bound = kantorovich_bound(A)
        y = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        ratios = sd_run(A, y, x0)
        slack = float(np.max(ratios) - bound) if ratios.size else -bound
        worst = max(worst, slack)
        if slack > 1e-12:
            failures += 1
    return {
        "check": "kantorovich",
        "trials": trials,
        "failures": failures,
        "worst_slack": worst,
        "passed": failures == 0,
    }


def run_rate_check(trials: int = 3, seed: int = 0) -> dict:
    """Instrumented small SPD runs: energy monotone, rate identity to 1e-10."""
    rng = np.random.default_rng(seed)
    gaps = []
    monotone = True
    for t in range(trials):
        Aop, y = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        shift = float(rng.uniform(0.5, 2.0))
        Aop = tt_add(Aop, ttmat_identity(Aop.row_sizes), 1.0, shift)
        rep = instrumented_amen_run(
            Aop, y, sweeps=2, kickrank=1, enrichment="svd", seed=seed + t
        )
        monotone = monotone and rep.monotone
        gaps.extend(s["identity_gap"] for s in rep.sweeps)
    worst = max(gaps) if gaps else 0.0
    return {
        "check": "rate",
        "trials": trials,
        "worst_identity_gap": worst,
        "monotone": monotone,
        "passed": monotone and worst <= 1e-10,
    }


def run_fom_check(trials: int = 1000, seed: int = 0) -> dict:
    """Randomized one-step Galerkin bound checks on well-conditioned systems
    (size 30, basis width 6)."""
    rng = np.random.default_rng(seed)
    n, m = 30, 6
    violations = 0
    inapplicable = 0
    worst = -np.inf
    for _ in range(trials):
        A = random_well_conditioned(n, rng)
        V, _ = np.linalg.qr(rng.standard_normal((n, m)))
        # mix in-span and out-of-span components so eps varies over [0, 1)
        z = V @ rng.standard_normal(m) + rng.uniform(0, 1) * rng.standard_normal(n)
        rep = angle_quantities(A, V, z)
        if not rep.applicable:
            inapplicable += 1
            continue
        slack = rep.realized - rep.bound
        worst = max(worst, slack)
        if slack > 1e-10:
            violations += 1
    return {
        "check": "fom",
        "trials": trials,
        "inapplicable": inapplicable,
        "violations": violations,
        "worst_slack": worst,
        "passed": violations == 0,
    }
