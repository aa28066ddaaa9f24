"""End-to-end acceptance suite; each test prints one PASS/FAIL line.

Wall-clock comparisons run on shared hardware: timing assertions use the
minimum over interleaved repetitions and a noise allowance, while the
correctness thresholds are asserted exactly as stated.
"""

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
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
    dmrg_solve,
    enrich_chol,
    enrich_svd,
    instrumented_amen_run,
    qtt_quantize,
    to_dense,
    tt_add,
    tt_dot,
    tt_io_read,
    tt_io_write,
    tt_matvec,
    tt_norm,
    tt_ones,
    tt_random,
    tt_round,
    ttmat_add,
    ttmat_identity,
    ttmat_matmul,
    ttmat_random,
    ttmat_transpose,
)
from ttamen.diagnostics import (
    dense_oracle_solve,
    run_fom_check,
    run_kantorovich_check,
)

from conftest import random_spd_system, rel_err

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "fixtures"
SRC = TESTS_DIR.parent / "src"


def _read_run(prefix: Path):
    """CSV log rows (header first) and ``.json`` summary of one experiment."""
    with open(f"{prefix}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(f"{prefix}.json") as fh:
        return rows, json.load(fh)


def _run_single_threaded(spec):
    """Run ``spec`` in a fresh interpreter whose BLAS uses one thread.

    The thread-count variables only take effect if they are set before numpy
    loads, so the run cannot happen in this process. The child imports the
    ``src/`` of this checkout.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "from ttamen.cli import ExperimentSpec, run_experiment\n"
        "run_experiment(ExperimentSpec(**json.loads(sys.argv[1])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(asdict(spec))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def report(criterion: int, passed: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


class TestAcceptance:
    def test_01_tt_algebra_oracle_suite(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        instances = 0
        for _ in range(50):
            d = int(rng.integers(1, 5))
            sizes = [int(rng.integers(2, 5)) for _ in range(d)]
            while int(np.prod(sizes)) > 4096:
                sizes = sizes[:-1]
            r = int(rng.integers(1, 4))
            x = tt_random(sizes, r, rng=rng)
            y = tt_random(sizes, r, rng=rng)
            A = ttmat_random(sizes, sizes, 2, rng=rng)
            B = ttmat_random(sizes, sizes, 2, rng=rng)
            xd, yd, Ad, Bd = to_dense(x), to_dense(y), to_dense(A), to_dense(B)
            al, be = rng.standard_normal(2)
            errs = [
                rel_err(to_dense(tt_add(x, y, al, be)), al * xd + be * yd),
                rel_err(to_dense(tt_matvec(A, x)), Ad @ xd),
                abs(tt_dot(x, y) - float(xd @ yd)) / max(1.0, abs(float(xd @ yd))),
                rel_err(to_dense(ttmat_matmul(A, B)), Ad @ Bd),
                rel_err(to_dense(ttmat_transpose(A)), Ad.T),
                rel_err(to_dense(tt_round(tt_add(x, y), 0.0)), xd + yd),
            ]
            worst = max(worst, *errs)
            instances += len(errs)
        report(
            1,
            instances >= 200 and worst <= 1e-11,
            f"{instances} oracle comparisons, worst relative error {worst:.2e} (<= 1e-11)",
        )

    def test_02_rounding_contract(self):
        rng = np.random.default_rng(202)
        worst_excess = -np.inf
        for _ in range(100):
            d = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 5)) for _ in range(d)]
            x = tt_random(sizes, int(rng.integers(1, 5)), rng=rng)
            dense = to_dense(x)
            nrm = np.linalg.norm(dense)
            for eps in (1e-2, 1e-5, 1e-8):
                err = np.linalg.norm(to_dense(tt_round(x, eps)) - dense)
                worst_excess = max(worst_excess, err / nrm - eps)
        report(
            2,
            worst_excess <= 1e-12,
            f"100 random TTs, worst error excess over eps: {worst_excess:.2e}",
        )

    @pytest.mark.slow
    def test_03_spd_correctness_all_enrichments(self):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            A, y = random_spd_system(3, 4, rng)
            Ad, yd = to_dense(A), to_dense(y)
            xs = dense_oracle_solve(Ad, yd)
            ref_nrm = np.sqrt(xs @ (Ad @ xs))
            for enrichment in ("svd", "chol", "als"):
                x, _ = amen_solve(
                    A,
                    y,
                    config=SolverConfig(
                        tol=1e-9, enrichment=enrichment, kickrank=2, seed=seed
                    ),
                )
                e = to_dense(x) - xs
                worst = max(worst, float(np.sqrt(max(e @ (Ad @ e), 0.0)) / ref_nrm))
        report(
            3,
            worst <= 1e-8,
            f"50 seeds x 3 enrichments, worst A-norm error {worst:.2e} (<= 1e-8)",
        )

    @pytest.mark.slow
    def test_04_poisson_desk_scale(self):
        t_start = time.perf_counter()
        A, y = build_poisson(PoissonSpec(dimension=8, grid_points=32))

        def run(enrichment):
            t0 = time.perf_counter()
            x, log = amen_solve(
                A,
                y,
                config=SolverConfig(
                    tol=1e-5, enrichment=enrichment, kickrank=4, max_sweeps=15
                ),
            )
            return time.perf_counter() - t0, log

        run("svd")  # warm caches before timing
        walls = {"svd": [], "als": []}
        logs = {}
        for _ in range(3):  # interleave to cancel machine-load drift
            for method in ("svd", "als"):
                w, log = run(method)
                walls[method].append(w)
                logs[method] = log
        ok_conv = all(
            logs[m].status == "converged"
            and logs[m].final_residual <= 1e-5
            and len(logs[m].records) <= 15
            for m in ("svd", "als")
        )
        svd_w, als_w = min(walls["svd"]), min(walls["als"])
        # the two enrichments cost the same at this size to within timer
        # noise; require ALS not slower beyond a 1.5x noise allowance
        ok_order = als_w <= 1.5 * svd_w
        total = time.perf_counter() - t_start
        report(
            4,
            ok_conv and ok_order and total < 120,
            f"svd {logs['svd'].final_residual:.1e}/{len(logs['svd'].records)} sweeps "
            f"min wall {svd_w:.2f}s; als {logs['als'].final_residual:.1e}/"
            f"{len(logs['als'].records)} sweeps min wall {als_w:.2f}s; "
            f"total {total:.1f}s (< 120 s)",
        )

    def test_05_monotonicity_and_rate_identity(self):
        A, _ = build_poisson(PoissonSpec(dimension=3, grid_points=4))
        A = ttmat_add(A, ttmat_identity(A.row_sizes), 1.0, 1.0)
        rep = instrumented_amen_run(A, tt_ones([4, 4, 4]), sweeps=3, kickrank=2)
        gap = max(s["identity_gap"] for s in rep.sweeps)
        report(
            5,
            rep.monotone and gap <= 1e-10,
            f"energy monotone ({rep.max_violation:.1e} max uptick), "
            f"rate identity gap {gap:.2e} (<= 1e-10)",
        )

    def test_06_kantorovich(self):
        rep = run_kantorovich_check(trials=100, seed=6)
        report(
            6,
            rep["passed"],
            f"100 SPD systems, worst slack over the spectral bound "
            f"{rep['worst_slack']:.2e} (<= 1e-12)",
        )

    @pytest.mark.slow
    def test_07_cme_time_system(self):
        t_start = time.perf_counter()
        spec = CascadeCMESpec(species=6, states=16)
        A = qtt_quantize(build_cme_operator(spec), tol=1e-13)
        psi0 = qtt_quantize(build_initial_state(spec), tol=1e-13)
        M, b = build_time_system(
            A, psi0, TimeSystemSpec(tau=10.0 / 256, n_steps=256)
        )
        M = qtt_quantize(M, tol=1e-13)
        b = qtt_quantize(b, tol=1e-13)

        x, log = amen_solve(
            M, b, config=SolverConfig(tol=1e-4, enrichment="als", kickrank=4, max_sweeps=30)
        )
        xref, ref_log = amen_solve(
            M,
            b,
            config=SolverConfig(
                tol=1e-7, enrichment="svd", kickrank=4, max_sweeps=40, seed=1
            ),
        )
        err = tt_norm(tt_round(tt_add(x, xref, 1.0, -1.0), 1e-9)) / tt_norm(xref)

        # two-site baseline on the same instance: logged, not asserted
        _, dmrg_log = dmrg_solve(M, b, config=SolverConfig(tol=1e-4, max_sweeps=6, max_rank=40))

        total = time.perf_counter() - t_start
        report(
            7,
            log.final_residual <= 1e-4
            and ref_log.final_residual <= 1e-6
            and err <= 1e-3
            and total < 600,
            f"amen+als residual {log.final_residual:.2e} (<= 1e-4), error vs 1e-7 "
            f"reference {err:.2e} (<= 1e-3); dmrg logged at "
            f"{dmrg_log.final_residual:.2e} after {len(dmrg_log.records)} sweeps; "
            f"total {total:.0f}s (< 600 s)",
        )

    def test_08_projection_bound_suite(self):
        rep = run_fom_check(trials=1000, seed=8)
        report(
            8,
            rep["passed"],
            f"1000 nonsymmetric trials, {rep['violations']} bound violations, "
            f"{rep['inapplicable']} with non-positive field of values "
            f"(reported separately)",
        )

    def test_09_enrichment_equivalence(self):
        worst = 1.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            r0, n, width, tail = 3, 4, 3, 6
            head = rng.standard_normal((r0, n, width))
            # well-separated singular values through strong scaling
            head *= np.array([10.0**-j for j in range(width)])[None, None, :]
            f = rng.standard_normal((width, tail))
            Zs, _ = enrich_svd(head, f, width)
            Zc, _ = enrich_chol(head, f, width)
            Us = Zs.reshape(-1, Zs.shape[2], order="F")
            Uc = Zc.reshape(-1, Zc.shape[2], order="F")
            cosines = np.linalg.svd(Us.T @ Uc, compute_uv=False)
            worst = min(worst, float(cosines.min()))
        angle = float(np.arccos(min(worst, 1.0)))
        report(
            9,
            angle <= 1e-6,
            f"50 seeds, largest principal angle between svd and cholesky "
            f"subspaces {angle:.2e} rad (<= 1e-6)",
        )

    def test_10_determinism_and_io(self, tmp_path):
        r"""Fixed-seed determinism, the golden run, and the TT file round trip.

        Scenario: Poisson d=3, n=8, amen_svd, tol 1e-8, kickrank 4, seed 42.

        - Two runs in this process, at its own BLAS thread count, log the
          same values in every column but wall time and write the same
          ``.tt`` bytes.
        - ``fixtures/golden_poisson_d3.csv`` was recorded with one BLAS
          thread, from the repository root, by::

              OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
              PYTHONPATH=src python3 -m ttamen.cli solve --problem poisson \
                  --solver amen_svd --d 3 --n 8 --tol 1e-8 --kickrank 4 \
                  --seed 42 --out golden
              mv golden.csv tests/fixtures/golden_poisson_d3.csv
              rm golden.json golden.tt

          A run pinned to one thread reproduces its rows 1-3 bit for bit
          (OpenBLAS 0.3.31). The run is repeated in a subprocess pinned to
          one thread, and every fixture row whose residual is above ``tol``
          must match to 1e-12 relative, with the same row count and rank
          column. The residual depends on the thread count by nature: the
          sweep-2 enrichment at core 2 keeps directions with
          sigma_2/sigma_1 = 2.3e-12 down to sigma_4/sigma_1 = 1.8e-13, which
          round-off fixes only to about eps * sigma_1/sigma_4 = 1e-3, and
          the row-2 residual moves by 1.4e-2 between one and two threads.
        - The last row is the converged residual at the round-off floor:
          2.22e-15 in the fixture and on one thread, 1.88e-15 on two, while
          the dense residual of the same iterates is 3.0e-15 and 2.4e-15.
          Its digits are not reproducible by any program, so it is checked
          against an absolute floor of 1e-13 together with the status
          ``converged``.
        - Across thread counts the runs agree at the precision the method
          promises: the same sweep count and rank column, status
          ``converged`` and a final residual at most ``tol``.
        - Reading and rewriting the ``.tt`` file gives identical bytes.
        """
        from ttamen.cli import ExperimentSpec, run_experiment

        def spec(name):
            return ExperimentSpec(
                problem="poisson", solver="amen_svd", d=3, n=8, tol=1e-8,
                kickrank=4, seed=42, out=str(tmp_path / name),
            )

        def without_wall_time(rows):
            return [row[:1] + row[2:] for row in rows]

        def ranks(rows):
            return [row[4] for row in rows]

        for name in ("run", "rerun"):
            run_experiment(spec(name))
        rows, summary = _read_run(tmp_path / "run")
        rerows, _ = _read_run(tmp_path / "rerun")
        deterministic = without_wall_time(rows) == without_wall_time(rerows) and (
            (tmp_path / "run.tt").read_bytes() == (tmp_path / "rerun.tt").read_bytes()
        )

        pinned = spec("pinned")
        _run_single_threaded(pinned)
        prows, psummary = _read_run(tmp_path / "pinned")
        with open(FIXTURES / "golden_poisson_d3.csv", newline="") as fh:
            want = list(csv.reader(fh))
        worst = 0.0
        for g, w in zip(prows[1:], want[1:]):
            ref = float(w[2])
            if ref > pinned.tol:
                worst = max(worst, abs(float(g[2]) - ref) / ref)
        final = float(prows[-1][2])
        golden = (
            len(prows) == len(want)
            and ranks(prows) == ranks(want)
            and worst <= 1e-12
            and final <= 1e-13
            and psummary["status"] == "converged"
        )

        # the pinned run's convergence is part of ``golden``
        thread_independent = (
            len(rows) == len(prows)
            and ranks(rows) == ranks(prows)
            and summary["status"] == "converged"
            and float(rows[-1][2]) <= pinned.tol
        )

        x = tt_io_read(str(tmp_path / "run.tt"))
        tt_io_write(x, tmp_path / "copy.tt")
        bytes_equal = (
            (tmp_path / "run.tt").read_bytes() == (tmp_path / "copy.tt").read_bytes()
        )
        report(
            10,
            deterministic and golden and thread_independent and bytes_equal,
            f"in-process rerun identical: {deterministic}; golden under one BLAS "
            f"thread: {len(prows) - 1} sweeps (fixture {len(want) - 1}), rank "
            f"column {ranks(prows)[1:]} (fixture {ranks(want)[1:]}), deviation "
            f"on rows above tol {worst:.2e} (<= 1e-12), final residual "
            f"{final:.2e} (<= 1e-13), status {psummary['status']}; default "
            f"threads: {len(rows) - 1} sweeps, rank column {ranks(rows)[1:]}, "
            f"status {summary['status']}, final residual {float(rows[-1][2]):.2e} "
            f"(<= tol); TT file round-trip byte-identical: {bytes_equal}",
        )
