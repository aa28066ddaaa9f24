"""Self-test of the benchmark harness.

Run from the repository root with ``python3 bench/selftest.py``.  It checks
that tracing leaves no wrapper behind (so it cannot leak into end-to-end
runs), that the spans a traced solve records fit inside its wall time, that
a wrong solution is counted as failed, and that both kinds of run report
exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import unittest

import run  # pins BLAS threads and puts the repository's src/ on the path
import numpy as np
import ttamen
from tracing import Tracer, _patches, traced
from workloads import Workload

SMALL = {
    # 4*8*4 = 128 unknowns exceed the cap of 50, so CG/GMRES run
    "svd-iterative": dict(
        tol=1e-6, enrichment="svd", kickrank=2, max_sweeps=10, max_direct_size=50
    ),
    "als-direct": dict(tol=1e-6, enrichment="als", kickrank=2, max_sweeps=10),
}


def small_workload(config: dict, solver: str = "amen_solve") -> Workload:
    return Workload(
        name="small",
        setup=lambda: ttamen.build_poisson(ttamen.PoissonSpec(dimension=4, grid_points=8)),
        solver=solver,
        config=config,
    )


def wrapped_names() -> dict:
    """The current object behind every name the tracer wraps."""
    return {(id(o), n): o.__dict__[n] for o, n, _ in _patches(Tracer())}


class TracingRestoresNames(unittest.TestCase):
    def test_names_restored_after_traced_run(self):
        before = wrapped_names()
        w = small_workload(SMALL["svd-iterative"])
        A, y = w.setup()
        run.solve_once(w, A, y, 0, Tracer())
        after = wrapped_names()
        self.assertEqual(before.keys(), after.keys())
        for key, original in before.items():
            self.assertIs(after[key], original, key)

    def test_names_restored_when_traced_code_raises(self):
        before = wrapped_names()
        with self.assertRaises(RuntimeError):
            with traced(Tracer()):
                self.assertNotEqual(wrapped_names(), before)
                raise RuntimeError("boom")
        self.assertEqual(wrapped_names(), before)


class SpansFitInSolve(unittest.TestCase):
    def check(self, workload: Workload, expected: set):
        A, y = workload.setup()
        tracer = Tracer()
        row = run.solve_once(workload, A, y, 0, tracer)
        roots = [i for i, s in enumerate(tracer.spans) if s[0] == "amen.solve"]
        self.assertEqual(len(roots), 1)
        children = sum(s[2] - s[1] for s in tracer.spans if s[3] == roots[0])
        self.assertLessEqual(children, row["solve_s"])
        self_times = tracer.self_times()
        self.assertTrue(all(t >= 0 for t in self_times.values()), self_times)
        self.assertAlmostEqual(sum(self_times.values()), row["solve_s"], delta=1e-6)
        self.assertLessEqual(expected, set(self_times))

    def test_iterative_path(self):
        self.check(
            small_workload(SMALL["svd-iterative"]),
            {"amen.env", "amen.local_direct", "amen.local_cg", "amen.enrich",
             "tt.orthogonalize", "tt.round", "tt.add", "tt.matvec", "tt.norm"},
        )

    def test_direct_path_with_als_enrichment(self):
        self.check(
            small_workload(SMALL["als-direct"]),
            {"amen.env", "amen.local_direct", "amen.enrich", "tt.round"},
        )

    def test_two_site_path(self):
        self.check(
            small_workload(dict(tol=1e-6, max_sweeps=10), solver="dmrg_solve"),
            {"amen.env", "amen.local_direct", "tt.round"},
        )


class WrongSolutionFails(unittest.TestCase):
    def test_wrong_solution_counted_in_failed(self):
        w = small_workload(SMALL["als-direct"])
        A, y = w.setup()
        x, log = w.solve(A, y, 0)
        tol = w.config["tol"]
        good = run.check_solution(A, y, x, log, tol)
        self.assertFalse(good["failed"])
        self.assertTrue(good["consistent"])

        wrong = x.copy()
        wrong.cores[0] = wrong.cores[0] * 1.01
        bad = run.check_solution(A, y, wrong, log, tol)
        self.assertTrue(bad["failed"])
        summary = run.summarize([good, bad])
        self.assertEqual((summary["attempted"], summary["failed"]), (2, 1))
        # the solver's report no longer matches the solution it claims
        self.assertFalse(summary["correct"])

    def test_qr_norm_matches_dense_norm(self):
        w = small_workload(SMALL["als-direct"])
        A, y = w.setup()
        x, _ = w.solve(A, y, 0)
        r = ttamen.tt_add(y, ttamen.tt_matvec(A, x), 1.0, -1.0)
        dense = np.linalg.norm(ttamen.to_dense(r))
        # the dense difference itself carries eps * ||y|| / ||r|| ~ 1e-9
        self.assertAlmostEqual(run.qr_norm(r) / dense, 1.0, delta=1e-6)


class GuessesFixedByWorkload(unittest.TestCase):
    def test_whole_passes_only(self):
        # no time left after the first pass: the pass is still completed
        self.assertEqual(run.solve_passes([2, 3, 0, 1], 0.0, None, str), list("2301"))

    def test_fixed_passes_ignore_the_clock(self):
        self.assertEqual(run.solve_passes([1], 1e9, 1, str), ["1"])
        self.assertEqual(run.solve_passes([1, 2], 0.0, 2, str), list("1212"))

    def test_guess_seeds(self):
        w = small_workload(SMALL["als-direct"])
        self.assertEqual(w.guess_seeds(6), [2, 3, 0, 1])
        self.assertIsNone(w.passes)
        one = Workload("one", w.setup, w.solver, w.config, single_solve=True)
        self.assertEqual((one.guess_seeds(6), one.passes), ([2], 1))


class MetricsMatchSpec(unittest.TestCase):
    def test_runs_report_every_declared_metric(self):
        spec = run.load_spec()
        w = small_workload(SMALL["svd-iterative"])
        for measure, key in (
            (run.end_to_end_metrics, "end_to_end"),
            (run.per_layer_metrics, "per_layer"),
        ):
            metrics, rows, _ = measure(w, 0, 0.0)
            reported = run.with_units(metrics, spec[key])
            self.assertEqual(list(reported), [m["name"] for m in spec[key]])
            self.assertTrue(run.summarize(rows)["correct"])
        with self.assertRaises(RuntimeError):
            run.with_units({"solve_s": 1.0}, spec["end_to_end"])


if __name__ == "__main__":
    unittest.main()
