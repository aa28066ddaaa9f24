"""Solve benchmark for ttamen: build each workload's TT problem, solve, check.

Usage (from the repository root)::

    python3 bench/run.py --workload poisson-amen --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One run builds the workload's problem repeatedly for a second (set-up), then
solves it from each of the initial guesses ``Workload.guess_seeds(seed)`` in
whole passes over that list (see ``solve_passes``), then builds it again for
a second.  Every solve's residual ``||y - A x|| / ||y||`` is recomputed here,
independently of the solver.

With ``--trace 0`` the last line of standard output is the result with every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics of a traced run (see ``tracing.py``) instead.  Times are
wall-clock times.  The full record of a run (provenance, every solve, the spans
of a traced run) goes to ``bench/results/``.  BLAS is pinned to one thread
before numpy is imported.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import ttamen  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import ttamen from {SRC}: {exc}")
if not Path(ttamen.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: ttamen imported from {ttamen.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
RESULTS = BENCH_DIR / "results"
SETUP_SECONDS = 1.0  # each of the set-up blocks before and after the solves
SETUP_MIN_REPS = 5
TRACED_SETUP_REPS = 5


# ----------------------------------------------------------------------
# Correctness check
# ----------------------------------------------------------------------

def qr_norm(x) -> float:
    """Frobenius norm taken after left-orthogonalization (QR sweep).

    The Gram contraction of ``tt_norm`` on a raw, non-orthogonal sum such as
    ``y - A x`` loses the small difference to cancellation near 1e-7; after
    the QR sweep the norm is that of the last core alone.
    """
    return float(np.linalg.norm(ttamen.orthogonalize(x, "left", x.d).cores[-1]))


def check_solution(A, y, x, log, tol: float) -> dict:
    """Independent residual of one solve and whether the solve failed.

    A solve fails when its status is not ``converged`` or its recomputed
    residual exceeds ``tol``.  It is inconsistent, which makes the run's
    output incorrect, when the solution is malformed or not finite, or when
    the residual the solver reported disagrees with the recomputed one by
    more than 0.1% (the solver rounds its residual at tol/100).
    """
    residual = float("inf")
    consistent = x.mode_sizes == y.mode_sizes and all(
        np.isfinite(c).all() for c in x.cores
    )
    if consistent:
        r = ttamen.tt_add(y, ttamen.tt_matvec(A, x), 1.0, -1.0)
        residual = qr_norm(r) / qr_norm(y)
        reported = log.final_residual
        consistent = bool(np.isfinite(residual)) and abs(reported - residual) <= (
            1e-3 * residual
        )
    return {
        "status": log.status,
        "sweeps": len(log.records),
        "max_rank": max(x.ranks),
        "reported_residual": float(log.final_residual),
        "residual": residual,
        "failed": log.status != "converged" or not residual <= tol,
        "consistent": consistent,
    }


def summarize(rows: list[dict]) -> dict:
    return {
        "correct": bool(rows) and all(r["consistent"] for r in rows),
        "attempted": len(rows),
        "failed": sum(bool(r["failed"]) for r in rows),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def time_setups(workload, min_seconds: float, min_reps: int, times: list):
    """Builds the problem at least ``min_reps`` times and for ``min_seconds``,
    appending each build's time to ``times``; returns the last problem."""
    reps = 0
    start = time.perf_counter()
    while reps < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        problem = workload.setup()
        times.append(time.perf_counter() - t0)
        reps += 1
    return problem


def solve_once(workload, A, y, seed: int, tracer: Tracer | None = None) -> dict:
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        x, log = workload.solve(A, y, seed)
        wall = time.perf_counter() - t0
    else:
        tracer.solve_index = 0 if tracer.solve_index is None else tracer.solve_index + 1
        with traced(tracer):
            index = tracer.begin("amen.solve")
            try:
                x, log = workload.solve(A, y, seed)
            finally:
                wall = tracer.end(index)
    row = {"seed": seed, "traced": tracer is not None, "solve_s": wall}
    row.update(check_solution(A, y, x, log, workload.config["tol"]))
    return row


def solve_passes(seeds, seconds: float, passes: int | None, solve) -> list:
    """``solve(seed)`` for every seed of ``seeds``, in whole passes over the list.

    With ``passes`` set, exactly that many passes.  Otherwise at least one,
    and another as long as it would end, at the median pass time so far,
    within ``seconds``.  Either way every guess is solved equally often, so
    which guesses a run measures does not depend on how fast the program is.
    """
    out, durations = [], []
    start = time.perf_counter()
    while passes is None or len(durations) < passes:
        elapsed = time.perf_counter() - start
        if passes is None and durations and (
            elapsed + statistics.median(durations) > seconds
        ):
            break
        out.extend(solve(seed) for seed in seeds)
        durations.append(time.perf_counter() - start - elapsed)
    return out


def per_guess(rows: list[dict], key: str) -> float:
    """Median over each initial guess's solves, averaged over the guesses.

    The guesses differ systematically (see ``workloads``), so a plain median
    over all solves would flip between them as the mix of a run changes.
    """
    by_seed: dict[int, list] = {}
    for r in rows:
        by_seed.setdefault(r["seed"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def warm_up(workload, A, y):
    """One untimed single-sweep solve, so that the timed solves start warm."""
    config = ttamen.SolverConfig(**{**workload.config, "max_sweeps": 1})
    getattr(ttamen, workload.solver)(A, y, config=config)


def end_to_end_metrics(workload, seed: int, seconds: float):
    """Untraced run.

    The problem is built for a second before the solves and for a second
    after them, and ``setup_s`` is the fastest build.  Other tenants of the
    host slow a build down for seconds at a time, the 0.06 ms Poisson builds
    by up to 80%, and some runs are slow nearly throughout: the median and
    even the lower quartile flip between the two speeds from run to run, the
    minimum stays with the faster one.  No build runs between solves: with
    builds interleaved, the solve times of ``cme-als`` spread 16-27% from run
    to run, against 6-10% without or with fewer builds in between.
    """
    setup_times = []
    A, y = time_setups(workload, SETUP_SECONDS, SETUP_MIN_REPS, setup_times)
    warm_up(workload, A, y)
    rows = solve_passes(
        workload.guess_seeds(seed),
        seconds,
        workload.passes,
        lambda s: solve_once(workload, A, y, s),
    )
    time_setups(workload, SETUP_SECONDS, SETUP_MIN_REPS, setup_times)
    metrics = {
        "solve_s": per_guess(rows, "solve_s"),
        "setup_s": min(setup_times),
        "sweeps": per_guess(rows, "sweeps"),
        "max_rank": per_guess(rows, "max_rank"),
        "residual": per_guess(rows, "residual"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, rows, {"setup_s": setup_times}


def per_layer_metrics(workload, seed: int, seconds: float):
    """Traced run; each traced solve is followed by an untraced one of the same
    guess, and the tracing overhead is the difference of their mean times."""
    tracer = Tracer()
    setup_times = []
    with traced(tracer):
        A, y = time_setups(workload, 0.0, TRACED_SETUP_REPS, setup_times)
    warm_up(workload, A, y)
    pairs = solve_passes(
        workload.guess_seeds(seed),
        seconds,
        workload.passes,
        lambda s: (
            solve_once(workload, A, y, s, tracer),
            solve_once(workload, A, y, s),
        ),
    )
    traced_rows, untraced_rows = (list(rows) for rows in zip(*pairs))
    traced_s = statistics.fmean(r["solve_s"] for r in traced_rows)
    metrics = layer_metrics(tracer, solves=len(traced_rows), setups=len(setup_times))
    metrics["trace.solve_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.fmean(
        r["solve_s"] for r in untraced_rows
    )
    extra = {"setup_s": setup_times, "spans": tracer.records()}
    return metrics, traced_rows + untraced_rows, extra


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------

def _openblas_threads() -> dict:
    """Thread count reported by every OpenBLAS loaded into this process."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                out[Path(path).name] = int(fn())
                break
    return out


def provenance(seed: int, guesses: list[int]) -> dict:
    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "seed": seed,
        "guess_seeds": guesses,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": _openblas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """Metrics in the declared order with their units; names must match."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(names)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    workload = WORKLOADS[name]
    prov = provenance(seed, workload.guess_seeds(seed))
    print("# provenance " + json.dumps(prov), flush=True)
    measure = per_layer_metrics if trace else end_to_end_metrics
    metrics, rows, extra = measure(workload, seed, seconds)
    for r in rows:
        print(
            f"# solve seed={r['seed']} traced={int(r['traced'])} status={r['status']} "
            f"sweeps={r['sweeps']} max_rank={r['max_rank']} "
            f"residual={r['residual']:.4e} solve_s={r['solve_s']:.4f}"
        )
    result = summarize(rows)
    declared = spec["per_layer" if trace else "end_to_end"]
    result["metrics"] = with_units(metrics, declared)
    print(
        f"# {name}: {result['attempted']} solves, {result['failed']} failed "
        f"(share {result['failed'] / result['attempted']:.3f}), "
        f"correct={result['correct']}"
    )
    for key, m in result["metrics"].items():
        print(f"#   {key:28s} {m['value']:.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": prov,
        "result": result,
        "solves": rows,
        **extra,
    }
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh)
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
